"""Grassmannians of free-and-cofree summands, good flags, and their counts.

Two independent routes are kept side by side on purpose: closed counting
formulas (Gaussian binomials, the radical factorisation of |Gr_k^n|) and
enumeration of each Grassmannian as one GL_n(R)-orbit.  Tests and the
verify suite hold the two against each other, and against brute-force spans.
"""

from __future__ import annotations

import itertools
import math
import operator

from .rings import DEFAULT_BUDGET, Ring, RingSpec, budgeted_ring, check_budget, spec_of
from .linalg import Summand, _gl_ops


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n, as an exact integer.

    Accepts any integer q >= 2; whether q is a prime power is the caller's
    concern (the counting identities are polynomial in q).
    """
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def gl_order_field(n: int, q: int) -> int:
    """|GL_n(F_q)| by the standard product formula."""
    return math.prod(q**n - q**i for i in range(n))


def gl_order(spec: RingSpec, n: int) -> int:
    """|GL_n(R)| for a supported finite ring, via the radical factorisation."""
    return spec.radical_size ** (n * n) * math.prod(gl_order_field(n, q) for q in spec.residue_field_orders)


def grassmannian_size_formula(spec: RingSpec, n: int, k: int) -> int:
    """|Gr_k^n(R)| = |J|^(k(n-k)) * prod |Gr_k^n(F_i)| over the residue fields."""
    return spec.radical_size ** (k * (n - k)) * math.prod(gaussian_binomial(n, k, q) for q in spec.residue_field_orders)


def flag_type(parts, n: int) -> tuple:
    """Validated composition (lambda_1, ..., lambda_{k+1}) of n, all parts >= 1."""
    parts = tuple(int(p) for p in parts)
    if any(p < 1 for p in parts):
        raise ValueError(f"flag type parts must be >= 1: {parts}")
    if sum(parts) != n:
        raise ValueError(f"flag type {parts} does not sum to n={n}")
    return parts


def good_flag_count(spec: RingSpec, n: int, ranks) -> int:
    """Number of good flags V_1 < ... < V_k of R^n with the given ranks.

    V_i/V_(i-1) runs over the free-and-cofree summands of rank r_i - r_(i-1)
    of the free module R^n/V_(i-1) of rank n - r_(i-1), so the count is the
    product of |Gr_(r_i - r_(i-1))^(n - r_(i-1))| (r_0 = 0).
    """
    return math.prod(grassmannian_size_formula(spec, n - p, r - p) for p, r in zip((0, *ranks), ranks))


def budgeted_flag_count(spec: RingSpec, n: int, lam, budget: int | None = DEFAULT_BUDGET) -> int:
    """`good_flag_count` of the type lam, after the budget checks that
    `enumerate_good_flags` and `build_filtration` make first: the member
    vectors of each Grassmannian the flags walk, in rank order, so a large
    n is refused at the rank-1 estimate, then the flag count.  They bound
    the vertices too: if |Gr_k|*q^k <= B for each rank k, the |Gr_k| sum
    to at most B/(q - 1) <= B."""
    lam = flag_type(lam, n)
    ranks = proper_ranks(lam)
    for r in ranks:
        check_grassmannian_budget(spec, n, r, budget)
    count = good_flag_count(spec, n, ranks)
    check_budget(count, budget, f"good flags of type {lam} in {spec.label}^{n}")
    return count


def check_grassmannian_budget(spec: RingSpec, n: int, k: int, budget: int | None = DEFAULT_BUDGET):
    """Budget Gr_k^n(R) by its member vectors: |Gr_k| summands of q^k each."""
    check_budget(grassmannian_size_formula(spec, n, k) * spec.cardinality**k, budget, f"Gr_{k}^{n}({spec.label})")


def proper_ranks(lam) -> tuple:
    """Ranks of the proper summands in a flag of the given type."""
    return tuple(itertools.accumulate(lam[:-1]))


class SummandCatalog:
    """Per-(ring, n) cache of Grassmannians and of which summands hold which vectors.

    Gr_k is listed cell by cell from normal forms, each summand reached
    once, with no search.  Let R be the product of its local factors
    R_f = e_f*R (e_f in `Ring.primitive_idempotents`), with maximal ideals
    J_f and residue fields F_f.  V -> (V*e_f)_f is a bijection from Gr_k onto
    the product of the Gr_k of the R_f^n.  Over one factor:
    - V*e_f / J_f*V*e_f is a k-dimensional subspace of F_f^n; let I_f be
      the pivot rows of its reduced column echelon form, in order;
    - for any basis matrix B of V*e_f the minor on the rows I_f is a unit
      mod J_f, so a unit, and B times its inverse is a basis equal to the
      identity on the rows I_f; two such bases B and B*C agree there only
      if C = 1, so this normal form is unique;
    - mod J_f the normal form is the reduced echelon form: in column j a
      row r outside I_f holds an entry of J_f if r < I_f[j] and of R_f if
      r > I_f[j].  Conversely, such a matrix and the unit vectors off I_f
      make an invertible matrix, so it is the normal form of the summand
      it spans, whose pivot rows are I_f.
    So a cell is a tuple (I_f)_f, its summands are its matrices, one each,
    and the cells of one factor count |J_f|^(k(n-k)) * [n, k]_(|F_f|) (the
    entries below the pivots count the inversions of I_f), the count of
    `grassmannian_size_formula`.  `Summand.basis` is the normal form, the
    sum of the e_f times the factors' ones; the exports print
    `preferred_basis`.

    A cell's first summand has every free entry 0 (`_first_summand`).
    The rest are reached by steps.  For a in R_f, s = I_f[j] and r not in
    I_f, E_rs(a) (v_r <- v_r + a*v_s) adds a to entry (r, j) over R_f,
    where row s of the basis is the j-th unit row, and nothing over the
    other factors, where a is 0; the pivot rows stay.  Each entry ranges
    over (R_f, +) or (J_f, +), the direct sum of the cyclic groups <a> of
    its steps (`_local_factors`), so its values are the sums of the c*a,
    0 <= c < order(a), once each.  Going through the steps of the free
    entries, every summand of the cell so far is moved order(a) - 1 more
    times by E_rs(a): |Gr_k| less the number of cells moves in all, each
    one move table applied to its parent's basis and member codes
    (g*V = {g*v : v in V}, g a bijection of R^n), and no found-check.

    The catalog runs on codes c(v) = sum v_i*q^(n-1-i), the position of v
    in `space`, R^n in lexicographic order (`code` is the inverse dict), so
    the digit d_i(c) = c // q^(n-1-i) % q is v_i.  A move changes one
    entry: E_ij(a) maps c to c + (add[d_i][a*d_j] - d_i)*q^(n-1-i), so each
    is a list code -> image code built from digit lists alone, once per
    catalog, on first use.  Containment is read from basis codes
    (`holding`): equal-rank containment is equality, as a free rank-k
    summand holding a basis of another contains it and both have q^k
    members.  A `Summand` decodes its codes after the sort.  c is an order
    isomorphism onto range(q^n): if v < w first differ at i, c(w) - c(v)
    >= q^(n-1-i) - sum_{j>i} (q-1)*q^(n-1-j) = 1, so sorted code lists
    compare as the sorted member tuples, the order of Gr_k.

    The catalog also answers which line a vector is a basis of: `code_of`
    codes it, `line_of` reads the Gr_1 index; and `line_tables` permutes
    the lines by the generators of GL_n(R).

    The ring's and the catalog's tables are built after the budget checks
    of the first Gr_k, k >= 1 (Gr_0 = {0} needs none).  Each table and
    index has q^n entries (an index also holds |Gr_k|*q^k positions), and
    for 1 <= k <= n, q^n <= |Gr_k|*q^k, the count the budget admits: per
    residue field F_i, |Gr_k^n(F_i)| is a polynomial in q_i with
    nonnegative coefficients and leading term q_i^(k(n-k)), so |Gr_k^n(R)|
    >= |J|^(k(n-k)) * prod q_i^(k(n-k)) = q^(k(n-k)), and |Gr_k|*q^k >=
    q^n * q^((k-1)(n-k)) >= q^n.
    """

    def __init__(self, spec: RingSpec, n: int, budget: int | None = DEFAULT_BUDGET):
        self.spec = spec
        self.n = n
        self.budget = budget
        self._gr: dict[int, list[Summand]] = {}
        # k >= 1 -> (code -> positions holding it, basis codes by position)
        self._index: dict[int, tuple] = {}
        self._tables = None  # (space, code, digits, factors), built by the first Gr_k, k > 0
        self._moves: dict[tuple, list[int]] = {}  # (i, j, a) -> move table

    def grassmannian(self, k: int) -> list[Summand]:
        if not (0 <= k <= self.n):
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={self.n}")
        if k in self._gr:
            return self._gr[k]
        spec, n = self.spec, self.n
        check_grassmannian_budget(spec, n, k, self.budget)
        ring = budgeted_ring(spec, self.budget)
        if not k:
            out = self._gr[0] = [Summand(ring, n, 0, frozenset([(ring.zero,) * n]), ())]
            return out
        space, code, _, factors = self._code_tables(ring)
        summands = []  # (basis codes, member codes)
        for cell in itertools.product(itertools.combinations(range(n), k), repeat=len(factors)):
            first = len(summands)
            summands.append(_first_summand(ring, n, code, cell, factors))
            steps = [(r, s, step) for (_, units, radical), pivots in zip(factors, cell) for s in pivots
                     for r in range(n) if r not in pivots for step in (radical if r < s else units)]
            for r, s, (a, times) in steps:
                g = self._move(ring, (r, s, a)).__getitem__
                for basis, held in summands[first:]:
                    for _ in range(1, times):
                        basis, held = list(map(g, basis)), sorted(map(g, held))
                        summands.append((basis, held))
        # the one place summands are ordered, by their sorted member codes
        summands.sort(key=operator.itemgetter(1))
        index = [[] for _ in space]
        for pos, (_, held) in enumerate(summands):
            for c in held:
                index[c].append(pos)
        self._index[k] = index, [basis for basis, _ in summands]
        decode = space.__getitem__
        out = self._gr[k] = [Summand(ring, n, k, map(decode, held), map(decode, basis)) for basis, held in summands]
        return out

    def _code_tables(self, ring: Ring):
        """`space`, `code`, the digit lists and `_local_factors`, built once."""
        if self._tables is None:
            n, q = self.n, ring.card
            space = list(itertools.product(range(q), repeat=n))
            # d_i over range(q^n): each digit q^(n-1-i) times, the run q^i times
            digits = [[x for x in range(q) for _ in range(q ** (n - 1 - i))] * q**i for i in range(n)]
            self._tables = space, dict(zip(space, range(q**n))), digits, list(_local_factors(ring))
        return self._tables

    def _move(self, ring: Ring, op) -> list[int]:
        """`_move_table` of op, built once per catalog, on first use."""
        if op not in self._moves:
            self._moves[op] = _move_table(ring, self._code_tables(ring)[2], op)
        return self._moves[op]

    def basis_codes(self, k: int) -> list[list[int]]:
        """The basis codes of grassmannian(k), k >= 1, by position."""
        self.grassmannian(k)
        return self._index[k][1]

    def holding(self, k: int, codes) -> list[int]:
        """Ascending positions in grassmannian(k), once built, k >= 1, of the
        summands holding all of one or more codes: the containment route."""
        index = self._index[k][0]
        return sorted(index[codes[0]] if len(codes) == 1 else _holding_all(index, codes))

    def code_of(self, v) -> int | None:
        """The code of the vector v (any sequence), once the tables are
        built, or None when v lies outside R^n."""
        return self._tables[1].get(tuple(v))

    def line_of(self, c: int) -> int | None:
        """Position in grassmannian(1), once built, of the line of which the
        code c is a basis, or None when c is a basis of no line (n >= 2).
        That line is the only one holding c: a line holding a basis of a
        line L contains L, and equal-rank containment is equality; and a
        vector held by one line alone is a basis of it
        (`TitsComplex.vertex_of_span` at k = 1)."""
        hits = self._index[1][0][c]
        return hits[0] if len(hits) == 1 else None

    def line_tables(self, ring: Ring) -> list[list[int]]:
        """The permutation of grassmannian(1) by each g in
        `linalg.gl_generators(ring, n)`, in order (n >= 2): the line of which
        g times each line's basis vector is a basis.  Only those vectors are
        mapped: E_ij(a) adds a times entry j to entry i, and
        diag(u, 1, ..., 1) multiplies entry 0 by u."""
        space, code = self._code_tables(ring)[:2]
        add, mul = ring.add, ring.mul
        bases = [space[c] for c, in self.basis_codes(1)]
        return [[self.line_of(code[v[:i] + (mul[a][v[i]] if i == j else add[v[i]][mul[a][v[j]]],) + v[i + 1:]]) for v in bases]
                for i, j, a in _gl_ops(ring, self.n)]


def _local_factors(ring: Ring):
    """(e, unit steps, radical steps) for each local factor R_f = e*R, e in
    `Ring.primitive_idempotents`.  A step is (a, order of a in (R, +)),
    a != 0, and the cyclic groups <a> of the unit steps sum directly to
    (R_f, +), those of the radical steps to (J_f, +).

    The unit steps are the e*g, g in `Ring.additive_generators`, and the
    radical steps the first multiple of each that lies in J_f.  The
    factors of the supported rings are Z/p^m, with the steps e and p*e,
    and F_p[x]/(x^m), with the steps x^i, 0 <= i < m, and x^i, 0 < i < m:
    (R_f, +) is cyclic or elementary abelian, and the orders multiply to
    |R_f| and |J_f| = |R_f| / p."""
    for e in ring.primitive_idempotents:
        units = [_multiples(ring, ring.mul[e][g]) for g in ring.additive_generators()]
        radical = [_multiples(ring, next(filter(ring.radical.__contains__, m))) for m in units]
        yield e, *([(m[0], len(m)) for m in steps if len(m) > 1] for steps in (units, radical))


def _multiples(ring: Ring, a: int) -> list[int]:
    """a, 2a, ..., 0: the cyclic group <a> of (R, +), ending at 0."""
    out = [a]
    while out[-1] != ring.zero:
        out.append(ring.add[out[-1]][a])
    return out


def _first_summand(ring: Ring, n: int, code, cell, factors):
    """Basis and member codes of the summand of a cell (one pivot tuple per
    factor of `_local_factors`, `SummandCatalog`) whose free entries are
    all 0.  Entry (r, j) of its basis is the sum of the e_f with
    I_f[j] = r, so row r of a member is any element of e*R, e the sum of
    the e_f whose I_f hold r, whatever the other rows are, as each (f, j)
    puts its coordinate in one row.  The zero element is 0, so a member's
    code is the sum of its rows' codes, and the product of ascending rows
    lists them in order."""
    basis, spans = [[ring.zero] * n for _ in cell[0]], [ring.zero] * n
    for (e, _, _), pivots in zip(factors, cell):
        for j, r in enumerate(pivots):
            basis[j][r] = ring.add[basis[j][r]][e]
            spans[r] = ring.add[spans[r]][e]
    rows = [[x * ring.card ** (n - 1 - r) for x in sorted(set(ring.mul[e]))] for r, e in enumerate(spans)]
    return [code[tuple(b)] for b in basis], list(map(sum, itertools.product(*rows)))


def _move_table(ring: Ring, digits, op) -> list[int]:
    """The move op = (i, j, a), E_ij(a) (entry i goes from x to x + a*y,
    y = entry j; for i = j, to (1 + a)*x), as a list code -> image code
    (`SummandCatalog`)."""
    i, j, a = op
    q, n = ring.card, len(digits)
    w, times_a = q ** (n - 1 - i), ring.mul[a]
    shift = [[(plus[times_a[y]] - x) * w for y in range(q)] for x, plus in enumerate(ring.add)]
    steps = map(list.__getitem__, map(shift.__getitem__, digits[i]), digits[j])
    return list(map(operator.add, range(q**n), steps))


def _holding_all(index, codes) -> set[int]:
    """The positions in all the codes' index lists (two or more codes),
    from a set of the shorter of the first two."""
    a, b = index[codes[0]], index[codes[1]]
    if len(a) > len(b):
        a, b = b, a
    if len(codes) == 2:
        return set(a).intersection(b)
    return set(a).intersection(b, *map(index.__getitem__, codes[2:]))


def enumerate_grassmannian(spec_or_ring, n: int, k: int, budget: int | None = DEFAULT_BUDGET) -> list[Summand]:
    """Complete, duplicate-free, deterministically ordered list of Gr_k^n(R)."""
    return SummandCatalog(spec_of(spec_or_ring), n, budget).grassmannian(k)


def enumerate_good_flags(spec_or_ring, n: int, lam, budget: int | None = DEFAULT_BUDGET) -> list[tuple[Summand, ...]]:
    """All good flags of the given type, each a tuple of summands of strictly
    increasing rank, by iterated containment in the Grassmannians.

    Each chain steps to the summands of the next rank holding the basis
    codes of its last one (`SummandCatalog.holding`), in ascending position,
    so the flags come out in the catalog's order.  Containment is enough:
    W/V is projective of constant rank, hence free (build_filtration).
    """
    spec = spec_of(spec_or_ring)
    budgeted_flag_count(spec, n, lam, budget)
    ranks = proper_ranks(flag_type(lam, n))
    if not ranks:
        return [()]
    catalog = SummandCatalog(spec, n, budget)
    grs = list(map(catalog.grassmannian, ranks))
    chains = [(p,) for p in range(len(grs[0]))]
    for r, s in zip(ranks[1:], ranks):
        bases = catalog.basis_codes(s)
        chains = [c + (p,) for c in chains for p in catalog.holding(r, bases[c[-1]])]
    return [tuple(map(list.__getitem__, grs, c)) for c in chains]
