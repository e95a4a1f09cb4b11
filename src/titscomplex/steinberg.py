"""Steinberg module analysis: the rank recursion, apartment classes, chamber
pairings, the non-spanning witness, apartment span ranks, and the rank-one
pair orbit count for n = 2.

Sign convention: an apartment class for a basis (v_1 | ... | v_n) is

    (-1)^(n(n-1)/2) * sum over permutations s of sgn(s) * [flag of s-prefixes]

The global factor is pinned by requiring the class of the identity basis to
have coefficient +1 on its reverse upper-triangular flag (the chain of
trailing coordinate spans); the class itself is only canonical up to the
orientation of the underlying sphere.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from math import comb

from .rings import DEFAULT_BUDGET, Ring, RingSpec, check_budget, log10_bound
from .linalg import Mat, gl_generators, subset_minors
from .grassmann import grassmannian_size_formula, gl_order
from .complexes import TitsComplex, build_tits_complex
from .homology import (
    ModPEchelon, _boundary, coreduce, permutation_orbits, smith_rank_and_divisors,
)


_rank_memo: dict[RingSpec, list[int]] = {}


def steinberg_rank(spec: RingSpec, n: int) -> int:
    """Rank of the top reduced homology of the degree-n flag complex,
    via the alternating Grassmannian recursion (exact big integers)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    d = _rank_memo.setdefault(spec, [1])
    while len(d) <= n:
        m = len(d)
        total = 0
        for i in range(1, m + 1):
            term = grassmannian_size_formula(spec, m, m - i) * d[m - i]
            total += term if i % 2 == 1 else -term
        d.append(total)
    return d[n]


def steinberg_rank_field(q: int, n: int) -> int:
    """q^(n choose 2): the classical dimension over a field with q elements."""
    if q < 2:
        raise ValueError("q must be >= 2")
    return q ** (n * (n - 1) // 2)


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


class SteinbergChain:
    """An integer combination of facets (top-dimensional flags) of a complex.

    Coefficients are keyed by facet position in the complex's facet list.
    """

    __slots__ = ("cx", "coeffs")

    def __init__(self, cx: TitsComplex, coeffs: dict):
        self.cx = cx
        self.coeffs = {k: v for k, v in coeffs.items() if v}

    def is_zero(self) -> bool:
        return not self.coeffs

    def boundary_is_zero(self) -> bool:
        """Whether the chain is a cycle, its boundary summed from the faces."""
        return not _boundary(self.cx.faces(self.cx.dim), self.coeffs)

    def __eq__(self, other):
        return isinstance(other, SteinbergChain) and self.cx is other.cx and self.coeffs == other.coeffs

    def support_facets(self):
        facets = self.cx.facets()
        return {facets[k]: v for k, v in self.coeffs.items()}

    def __repr__(self):
        return f"SteinbergChain({len(self.coeffs)} facets)"


def _require_full(cx: TitsComplex) -> None:
    """Apartments are top cycles of the full complex: n >= 2, max_rank = n - 1."""
    if cx.n < 2 or cx.max_rank != cx.n - 1:
        raise ValueError(
            "apartments need n >= 2 and the full complex (max_rank = n - 1), "
            f"got n={cx.n}, max_rank={cx.max_rank}"
        )


@functools.cache
def _flag_terms(n: int) -> tuple:
    """(getter, coefficient) per permutation of n columns, in permutation
    order.  The getter takes a list of vertices indexed by column bit mask
    to the facet of the permutation's proper prefixes, as a tuple; the
    coefficient carries the global sign of the module docstring."""
    global_sign = -1 if (n * (n - 1) // 2) % 2 else 1
    terms = []
    for perm in itertools.permutations(range(n)):
        masks = tuple(itertools.accumulate(1 << j for j in perm[:-1]))
        # an itemgetter of one index returns the item, not a 1-tuple
        get = operator.itemgetter(*masks) if n > 2 else lambda seq, m=masks[0]: (seq[m],)
        terms.append((get, global_sign * _perm_sign(perm)))
    return tuple(terms)


def apartment_class(cx: TitsComplex, basis: Mat) -> SteinbergChain:
    """Signed sum over all complete flags refining the basis (a top cycle)."""
    _require_full(cx)
    cx.require_ring(basis)
    n = cx.n
    if basis.nrows != n or basis.ncols != n:
        raise ValueError("basis matrix has wrong shape")
    if not basis.is_invertible():
        raise ValueError("apartment basis matrix is not invertible")
    frame = [cx.vertex_of_span([c]) for c in basis.columns()]
    return SteinbergChain(cx, _class_coeffs(cx, frame, cx.position))


@functools.cache
def _span_subsets(n: int) -> tuple:
    """(bit mask, getter of its members) of every subset of n columns
    with 2 to n - 1 elements: the spans an apartment class looks up beyond
    its lines."""
    return tuple(
        (sum(1 << j for j in subset), operator.itemgetter(*subset))
        for size in range(2, n)
        for subset in itertools.combinations(range(n), size)
    )


def _class_coeffs(cx: TitsComplex, frame, coord) -> dict[int, int]:
    """Coefficients of the apartment class of the lines `frame` (vertex
    indices), which the caller knows to be a frame: their generators form
    an invertible matrix.

    `coord` takes a facet to its coordinate, or to None to leave it out.
    With `cx.position` this is the full class, keyed by facet position:
    on the full complex (`_require_full`) the prefix spans of a frame form
    a complete chain of free, cofree summands, which is a facet, so
    `position` never answers None.  A map that keeps only some facets
    builds the class restricted to them and never the full one.  The span
    of 2 to n - 1 of the lines is `cx.span_of_lines` (proof there), read
    straight from its memo when the memo holds it.
    """
    n = cx.n
    # vertex index of the span of every nonempty proper subset of columns,
    # at the subset's bit mask; a single column spans its own line
    vertex_of = [0] * (1 << n)
    for j, v in enumerate(frame):
        vertex_of[1 << j] = v
    cache = cx._span_cache
    for mask, members in _span_subsets(n):
        lines = members(frame)
        got = cache.get(lines)
        vertex_of[mask] = cx.span_of_lines(lines) if got is None else got
    coeffs: dict[int, int] = {}
    # the n! flags are distinct facets (distinct subsets of a basis span
    # distinct summands), so no two terms meet at one coordinate
    for facet, c in _flag_terms(n):
        k = coord(facet(vertex_of))
        if k is not None:
            coeffs[k] = c
    return coeffs


def chamber_map(chain: SteinbergChain, facet) -> int:
    """Coefficient of the chain on one canonically oriented facet."""
    cx = chain.cx
    facet = tuple(facet)
    # `position` answers on every level; only the top one holds facets
    k = cx.position(facet) if len(facet) == cx.dim + 1 else None
    if k is None:
        raise ValueError(f"facet {facet} not present in the complex")
    return chain.coeffs.get(k, 0)


def reverse_ut_facet(cx: TitsComplex, basis: Mat) -> tuple:
    """The flag of trailing spans <v_n> < <v_{n-1}, v_n> < ... as a facet tuple."""
    cx.require_ring(basis)
    n = cx.n
    cols = basis.columns()
    return tuple(cx.vertex_of_span(cols[n - size :]) for size in range(1, n))


def ut_bases(ring: Ring, n: int, budget: int | None = DEFAULT_BUDGET) -> list[Mat]:
    """All strictly upper-triangular bases (unit diagonal), canonical order."""
    npar = n * (n - 1) // 2
    check_budget(ring.card**npar, budget, "upper-triangular bases")
    slots = [(i, j) for j in range(1, n) for i in range(j)]
    out = []
    for values in itertools.product(range(ring.card), repeat=npar):
        rows = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
        for (i, j), v in zip(slots, values):
            rows[i][j] = v
        out.append(Mat(ring, rows))
    return out


def ut_apartment_pairing(cx: TitsComplex, budget: int | None = DEFAULT_BUDGET) -> list[list[int]]:
    """Matrix [c_A(B)] over all upper-triangular apartment classes.

    c_A is the chamber map of A's reverse upper-triangular flag; with the
    sign convention above the expected value is the identity matrix.
    """
    bases = ut_bases(cx.ring, cx.n, budget)
    chains = [apartment_class(cx, b) for b in bases]
    rev = [reverse_ut_facet(cx, b) for b in bases]
    return [[chamber_map(chain, f) for chain in chains] for f in rev]


def eta_class(cx: TitsComplex, m_payload) -> SteinbergChain:
    """The non-spanning witness: the sum of the identity apartment class and
    the class of (e_2 | e_1 + m e_2 | e_3 | ... | e_n) for a nonzero
    non-unit m.  Only built here: that it is nonzero and killed by every
    upper-triangular chamber map is checked by `verify` (eta-witness)."""
    ring, n = cx.ring, cx.n
    if n < 2:
        raise ValueError("eta needs n >= 2")
    m = ring.el(m_payload)
    if m == ring.zero:
        raise ValueError("eta needs a nonzero element")
    if m in ring.units:
        raise ValueError("eta needs a non-unit")
    z, o = ring.zero, ring.one
    cols = []
    e = lambda i: tuple(o if r == i else z for r in range(n))
    cols.append(e(1))
    second = list(e(0))
    second[1] = m
    cols.append(tuple(second))
    for i in range(2, n):
        cols.append(e(i))
    coeffs = apartment_class(cx, Mat.from_columns(ring, cols)).coeffs
    for k, v in apartment_class(cx, Mat.identity(ring, n)).coeffs.items():
        coeffs[k] = coeffs.get(k, 0) + v
    return SteinbergChain(cx, coeffs)  # drops the coefficients that cancel


# ---------------------------------------------------------------------------
# apartment span


class SpanRankResult:
    def __init__(self, rank, mode, saturated, apartments_used, top_betti):
        self.rank = rank
        self.mode = mode
        self.saturated = saturated
        self.apartments_used = apartments_used
        self.top_betti = top_betti

    def __repr__(self):
        return (
            f"SpanRankResult(rank={self.rank}, mode={self.mode!r}, "
            f"saturated={self.saturated}, apartments={self.apartments_used}, "
            f"top_betti={self.top_betti})"
        )


def _invertible_frames(cx: TitsComplex, lines):
    """Every frame among `lines` (vertex indices in increasing order), as
    a list, in the order of `itertools.combinations(lines, n)`.

    The combinations are walked as an (n-1)-prefix times a last line, which
    is the same order.  The n signed cofactors of the prefix columns come
    from one `subset_minors` table per prefix, and the determinant of
    prefix + w is their dot product with w (Laplace expansion along the
    last column), read off each cofactor's multiplication row for all the
    later lines at once: no matrix is built per frame.

    A prefix whose cofactors all lie in one maximal ideal m is skipped:
    every determinant through it is a combination of them, so it lies in m
    and is no unit.  The test is one bit per nonzero idempotent e of R,
    which an element x holds when x*e is nilpotent (`Ring.radical`); the
    prefix is skipped when its cofactors share a bit.  That is the same
    test.  R is the product of its local factors R*e_i over its primitive
    idempotents e_i, and x lies in the maximal ideal over R*e_i exactly
    when x*e_i is nilpotent, which is the bit of e_i.  A nonzero
    idempotent e is the sum of the e_i with e*e_i = e_i, at least one,
    and x*e is nilpotent exactly when each x*e_i is; so cofactors sharing
    the bit of e lie in the maximal ideal over each such R*e_i.
    """
    ring, n = cx.ring, cx.n
    add, mul, neg, units, zero = ring.add, ring.mul, ring.neg, ring.units, ring.zero
    # ideals[x]: the bits of the nonzero idempotents e with x*e nilpotent
    ideals, bit = [0] * ring.card, 1
    for e, row in enumerate(mul):
        if e != zero and row[e] == e:
            for x in itertools.compress(range(ring.card), map(ring.radical.__contains__, row)):
                ideals[x] |= bit
            bit <<= 1
    gens = [cx.vertices[i].basis[0] for i in lines]
    coords = list(zip(*gens))  # entry r of every generator, by line
    # the cofactor of row r in the last column: (-1)^(r + n - 1) times the
    # prefix minor without row r, at mask full ^ (1 << r)
    full = (1 << n) - 1
    masks = [full ^ (1 << r) for r in range(n)]
    signs = [neg if (r + n - 1) % 2 else list(range(ring.card)) for r in range(n)]
    for prefix in itertools.combinations(range(len(lines) - 1), n - 1):
        minors = subset_minors(ring, list(map(gens.__getitem__, prefix)), n)
        cof = list(map(list.__getitem__, signs, map(minors.__getitem__, masks)))
        if functools.reduce(operator.and_, map(ideals.__getitem__, cof)):
            continue
        # det(prefix + w) for every later line w, one entry of w at a time
        start = prefix[-1] + 1
        dets = map(mul[cof[0]].__getitem__, coords[0][start:])
        for c, col in zip(cof[1:], coords[1:]):
            dets = map(list.__getitem__, map(add.__getitem__, dets), map(mul[c].__getitem__, col[start:]))
        frame = list(map(lines.__getitem__, prefix))
        for w in itertools.compress(lines[start:], map(units.__contains__, dets)):
            yield frame + [w]


def _orbit_frames(cx: TitsComplex, lines, seed: int, ech: ModPEchelon):
    """The frames of sampled mode, as sorted tuples: the identity frame
    and seeded random sets of `lines` (vertex indices in increasing order)
    whose columns `Mat.det` finds invertible, then rounds of their images
    under the generators of GL_n(R), each frame once, each round in
    increasing order.  They end
    after the first orbit round that leaves `ech.rank` where it was; the
    seed round is never tested this way.

    Only lines are mapped: one table per generator g sends each line to
    the line holding g times its generator (`cx._line_map`).  The tables
    are built once and dropped with the generator.  A permutation of the
    lines keeps a frame's n lines distinct, so the sorted tuple of the
    images is the image frame's one key.
    """
    ring, n = cx.ring, cx.n
    rng = random.Random(seed)
    images = [cx._line_map(cx, g.apply) for g in gl_generators(ring, n)]
    ident = Mat.identity(ring, n)
    candidates = [tuple(sorted(cx._line_of(ident.column(j)) for j in range(n)))]
    candidates += [tuple(sorted(rng.sample(lines, n))) for _ in range(n * 4)]
    frontier = [
        f for f in dict.fromkeys(candidates)
        if Mat.from_columns(ring, [cx.vertices[i].basis[0] for i in f]).is_invertible()
    ]
    seen = set(frontier)
    rank = None
    while True:
        yield from frontier
        if ech.rank == rank:
            return
        rank = ech.rank
        # images of frames older than the frontier are seen already
        frontier = sorted({tuple(sorted(map(p.__getitem__, f))) for f in frontier for p in images} - seen)
        seen.update(frontier)


EXHAUSTIVE_GL_LIMIT = 10**5
# entries the span's pivots may hold, recounted every 256 classes; T3(Z/9),
# sampled, seed 0, holds at most 76,163 after any class (40,066 at a recount),
# and the cap is separate from the class budget
SPAN_ENTRY_CAP = 10**6


def apartment_span_rank(
    cx: TitsComplex,
    mode: str = "auto",
    seed: int = 0,
    budget: int | None = DEFAULT_BUDGET,
) -> SpanRankResult:
    """Rank of the lattice spanned by apartment classes inside top chains.

    Apartments are indexed by frames: unordered sets of n rank-1 vertices
    whose generators (`Summand.basis[0]`; a unit rescaling multiplies the
    determinant by a unit) form an invertible matrix.  Column scalings and
    reorderings change the class by at most a sign, so frames exhaust all
    apartment classes up to sign.

    exhaustive mode scans every frame (`_invertible_frames`); sampled mode
    grows an orbit closure from the identity frame plus seeded random
    frames and declares saturation when a full sweep of the group
    generators adds no rank (`_orbit_frames`).  Both modes compute at most
    `budget` classes, and a run cut short by it is reported as unsaturated;
    exhaustive mode never is, since its frame count passed the same budget.

    Each candidate is tested once.  Exhaustive mode tests a set of lines by
    the cofactors of its (n-1)-prefix.  Sampled mode tests only its seed
    candidates, with `Mat.det`; every later frame is the image p_g(F) of a
    frame F = {L_1, ..., L_n} already known to be one, under a generator g
    of GL_n(R), and needs no test: if v_i is the generator of L_i, then
    g v_i generates the free line g L_i, so its generator is
    w_i = u_i g v_i for a unit u_i (two generators of a free
    rank-1 module differ by a unit), and
    det(w_1 | ... | w_n) = +-det(g) u_1 ... u_n det(v_1 | ... | v_n) is a
    unit, the sign coming from putting the lines in vertex order.

    Everything is read on the complex `coreduce` returns.  Restriction to
    its cells maps the top cycle lattice isomorphically over Z onto its top
    cycle lattice (proof in `coreduce`).  Top homology is the top cycle
    lattice, so the bound `top_betti`, the top reduced Betti number of
    `cx`, is the number of surviving top cells less the exact rank of the
    coreduced top boundary.
    At n = 2 the only face is the empty simplex, which never survives: the
    first vertex is paired with it.

    Apartment classes are top cycles, so the span rank is at most
    top_betti, and both modes stop at the first apartment that brings the
    rank to it.  Each class is built on the surviving top cells only
    (`_class_coeffs` with a map that holds no other facet), where
    it has the same rank over Q as the full classes.  The restrictions are
    reduced mod a large prime (`ModPEchelon`), whose rank is at most the
    rank over Q, so a mod-p rank equal to top_betti is exact.  Both cycle
    lattices are saturated, so a basis of either stays independent mod p
    and the isomorphism stays invertible mod p: the ranks mod p after every
    class are the ones the full classes give, and so are the stopping point
    and `apartments_used`.  If the frames run out, the sampled rule
    saturates or the budget is spent first, the restrictions used are
    recounted exactly by `smith_rank_and_divisors`, with the classes as its
    columns: a mod-p rank is never reported.  That recount is not budgeted.

    The entries the pivots hold are recounted every 256 classes, and past
    `SPAN_ENTRY_CAP` the span raises `BudgetExceeded`.
    """
    _require_full(cx)
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = (
            "exhaustive"
            if gl_order(cx.ring.spec, cx.n) <= EXHAUSTIVE_GL_LIMIT
            else "sampled"
        )
    survivors, _, boundaries = coreduce(cx)
    top = survivors[-1]
    top_betti = len(top) - smith_rank_and_divisors(boundaries[-1])[0]
    # the class coordinates: the surviving top cells only
    facets = cx.facets()
    pos = {facets[k]: k for k in top}
    lines = [i for i, s in enumerate(cx.vertices) if s.rank == 1]
    ech = ModPEchelon()
    if mode == "exhaustive":
        check_budget(comb(len(lines), cx.n), budget, "apartment frames")
        frames = _invertible_frames(cx, lines)
    else:
        frames = _orbit_frames(cx, lines, seed, ech)
    used: list[dict] = []  # the classes added, in order, on the surviving top cells
    saturated = True
    coord = pos.get
    for frame in frames:
        if budget is not None and len(used) >= budget:
            saturated = False
            break
        vec = _class_coeffs(cx, frame, coord)
        used.append(vec)
        ech.add(vec)
        if ech.rank == top_betti:
            break
        if len(used) % 256 == 0:
            held = sum(map(len, ech.pivots.values()))
            what = f"pivot entries of the apartment span of {cx.ring.spec.label}^{cx.n} (SPAN_ENTRY_CAP)"
            check_budget(held, SPAN_ENTRY_CAP, what)
    rank = ech.rank
    if rank != top_betti:
        rank = smith_rank_and_divisors(used)[0]
    return SpanRankResult(rank, mode, saturated, len(used), top_betti)


# ---------------------------------------------------------------------------
# the orbit count on pairs of lines (n = 2)


def p1_orbit_count(spec_or_ring, budget: int | None = DEFAULT_BUDGET) -> int:
    """Orbit count of the diagonal action of GL_2(R) on pairs of lines in R^2,
    by one `permutation_orbits` sweep over the pairs under the generators.

    It is also the dimension of the commutant of the line permutation
    action: with X the lines and G = GL_2(R), End_G(Q[X]) is the space of
    G-invariant matrices on X x X, which has the orbit sums of G on X x X
    as a basis.  The paper predicts k + 1 for a chain ring of length k;
    `verify` (orbit-commutant) compares with that.
    """
    cx = build_tits_complex(spec_or_ring, 2, budget)  # its vertices are the lines
    nl = len(cx.vertices)
    check_budget(nl * nl, budget, "pairs of lines")
    # the diagonal action on pairs (i, j), indexed i * nl + j
    pair_perms = []
    for g in gl_generators(cx.ring, 2):
        perm = cx.vertex_permutation(g)
        pair_perms.append([perm[i] * nl + perm[j] for i in range(nl) for j in range(nl)])
    return len(permutation_orbits(nl * nl, pair_perms))


# ---------------------------------------------------------------------------
# rank tables


class RankTable:
    """Steinberg ranks for a family of rings, rows n = 1..n_max."""

    def __init__(self, labels, n_max: int, columns):
        self.labels = list(labels)
        self.n_max = n_max
        self.columns = {k: list(v) for k, v in columns.items()}

    def value(self, label: str, n: int) -> int:
        return self.columns[label][n - 1]

    def to_csv(self) -> str:
        lines = ["n," + ",".join(self.labels)]
        for n in range(1, self.n_max + 1):
            lines.append(
                str(n) + "," + ",".join(str(self.columns[l][n - 1]) for l in self.labels)
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "n_max": self.n_max,
            "rings": self.labels,
            "rows": [
                {
                    "n": n,
                    "ranks": {l: self.columns[l][n - 1] for l in self.labels},
                }
                for n in range(1, self.n_max + 1)
            ],
        }

    def to_text(self) -> str:
        widths = [max(len(l), max(len(str(self.columns[l][n - 1])) for n in range(1, self.n_max + 1))) for l in self.labels]
        head = "n  " + "  ".join(l.rjust(w) for l, w in zip(self.labels, widths))
        lines = [head]
        for n in range(1, self.n_max + 1):
            lines.append(
                f"{n}  "
                + "  ".join(str(self.columns[l][n - 1]).rjust(w) for l, w in zip(self.labels, widths))
            )
        return "\n".join(lines) + "\n"


def table_generate(specs, n_max: int) -> RankTable:
    """Steinberg ranks of each spec for n = 1..n_max.

    Before any recursion, the digits the table can print are budgeted
    against DEFAULT_BUDGET: rank St_m(R) <= #facets of T_m(R) <= |R|^C(m+1,2),
    so column R has at most sum_m (C(m+1,2) log10|R| + 1)
    = C(n_max+2,3) log10|R| + n_max digits (`log10_bound`).
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not specs:
        raise ValueError("no ring specs")
    labels = [s.label for s in specs]
    repeated = sorted({l for l in labels if labels.count(l) > 1})
    if repeated:
        raise ValueError(f"ring spec repeated: {', '.join(repeated)}")
    digits = log10_bound([s.cardinality for s in specs], comb(n_max + 2, 3)) + n_max * len(specs)
    check_budget(digits, DEFAULT_BUDGET, f"digits of the rank table up to n = {n_max}")
    columns = {s.label: [steinberg_rank(s, n) for n in range(1, n_max + 1)] for s in specs}
    return RankTable(labels, n_max, columns)
