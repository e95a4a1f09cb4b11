"""Grassmannians of free-and-cofree summands, good flags, and their counts.

Two independent routes are kept side by side on purpose: closed counting
formulas (Gaussian binomials, the radical factorisation of |Gr_k^n|) and
enumeration of each Grassmannian as one GL_n(R)-orbit.  Tests and the
verify suite hold the two against each other, and against brute-force spans.

The orbit walk runs on `walk_generators`, elementary row operations
between neighbouring coordinates and scalings of the first coordinate by
generators of R^x, each tabulated once as a list over the integer codes of
R^n; it applies no matrix and builds no span (`SummandCatalog`).
"""

from __future__ import annotations

import itertools

from .rings import DEFAULT_BUDGET, Ring, RingSpec, budgeted_ring, check_budget, spec_of
from .linalg import Summand


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
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def gl_order(spec: RingSpec, n: int) -> int:
    """|GL_n(R)| for a supported finite ring, via the radical factorisation."""
    out = spec.radical_size ** (n * n)
    for q in spec.residue_field_orders:
        out *= gl_order_field(n, q)
    return out


def grassmannian_size_formula(spec: RingSpec, n: int, k: int) -> int:
    """|Gr_k^n(R)| = |J|^(k(n-k)) * prod |Gr_k^n(F_i)| over the residue fields."""
    out = spec.radical_size ** (k * (n - k))
    for q in spec.residue_field_orders:
        out *= gaussian_binomial(n, k, q)
    return out


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
    out, prev = 1, 0
    for r in ranks:
        out *= grassmannian_size_formula(spec, n - prev, r - prev)
        prev = r
    return out


def budgeted_flag_count(spec: RingSpec, n: int, lam, budget: int | None = DEFAULT_BUDGET) -> int:
    """`good_flag_count` of the type lam, after the budget checks that
    `enumerate_good_flags` and `complexes.build_filtration` make first: the
    member vectors of each Grassmannian the flags walk, in rank order, then
    the flag count, so a large n is refused at the rank-1 estimate, one
    product, before the flag count multiplies n - 1 Grassmannian sizes.
    They bound the vertices too: if |Gr_k|*q^k <= B for each rank k, the
    |Gr_k| sum to at most B/(q - 1) <= B."""
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


def walk_generators(ring: Ring, n: int) -> list[tuple[int, int, int]]:
    """Generators of GL_n(R) for the orbit walk, as row operations (i, j, a).

    For i != j, (i, j, a) is E_ij(a), which sets v_i <- v_i + a*v_j; (0, 0, u)
    is diag(u, 1, ..., 1), which sets v_0 <- u*v_0 (`row_operation`).  The
    list holds E_{i,i+1}(a) and E_{i+1,i}(a) for i < n - 1 and each additive
    generator a of R, then the scalings by a generating set of R^x, picked
    greedily: a unit joins when it lies outside the subgroup the units kept
    so far generate.

    They generate GL_n(R):
    - E_ij(a) E_ij(b) = E_ij(a + b), so the additive generators give
      E_{i,i+1}(r) and E_{i+1,i}(r) for every r in R;
    - the commutator [E_ij(a), E_jk(1)] = E_ik(a) for distinct i, j, k then
      gives every E_ij(r), by induction on |i - j|, hence all of E_n(R);
    - GL_n(R) = E_n(R) GL_1(R) for every finite ring (the fact
      `linalg.gl_generators` cites), and the scalings give GL_1(R);
    - the group is finite, so each generator's inverse is a power of it,
      and a breadth-first walk under the generators alone reaches the
      whole orbit.
    """
    ops = []
    for i in range(n - 1):
        for a in ring.additive_generators():
            ops += [(i, i + 1, a), (i + 1, i, a)]
    mul = ring.mul
    group = {ring.one}
    for u in sorted(ring.units):
        if u not in group:
            ops.append((0, 0, u))
            # R^x is abelian: <group, u> is the union of the cosets group*u^m
            grown, p = set(group), u
            while p not in group:
                grown.update(mul[x][p] for x in group)
                p = mul[p][u]
            group = grown
    return ops


def row_operation(ring: Ring, op: tuple[int, int, int]):
    """The map v -> g*v on R^n of the walk generator g = op (see `walk_generators`)."""
    i, j, a = op
    add, times_a = ring.add, ring.mul[a]
    if i == j:
        return lambda v: v[:i] + (times_a[v[i]],) + v[i + 1:]
    return lambda v: v[:i] + (add[v[i]][times_a[v[j]]],) + v[i + 1:]


class SummandCatalog:
    """Per-(ring, n) cache of Grassmannians and of which summands hold which vectors.

    Gr_k is the orbit of span(e_1..e_k) under GL_n(R), which is transitive
    on it: for V, V' in Gr_k with free complements C, C', the matrix taking
    a basis of V, then of C, to one of V', then of C', takes V to V'.  The
    orbit is walked breadth-first under `walk_generators`.  Equal-rank
    containment is equality: a free rank-k summand holding a basis of
    another contains it, and both have q^k members.  So g*V is already
    found exactly when a found summand holds every g*b, b a basis of V, and
    a new g*V takes the members {g*v : v in V} (g is a bijection of R^n);
    no span is built.  The same index answers containment between ranks
    (`containing`).

    The walk runs on codes c(v) = sum v_i*q^(n-1-i), the position of v in
    `space`, R^n in lexicographic order; `code` is the inverse dict.  Each
    generator is a list code -> image code, built once per catalog from
    `row_operation`; bases and members are code lists, the index is a list
    over codes.  Each `Summand` decodes its basis through `space` after the
    sort, and keeps its sorted member codes undecoded until its member set
    is first read (`Summand.members`).  c is an order isomorphism onto
    range(q^n): if v < w first differ at i, c(w) - c(v) >= q^(n-1-i) -
    sum_{j>i} (q-1)*q^(n-1-j) = 1.  So sorted code lists compare as the
    sorted member tuples they decode to, and Gr_k is ordered by its sorted
    member tuples.

    The ring's tables and the walk tables are built only after the budget
    checks of the first Gr_k, k >= 1; Gr_0 = {0} needs none.  `space`,
    `code`, each walk table and each index have q^n entries (an index also
    holds |Gr_k|*q^k ids), and q^n <= |Gr_k|*q^k, the count the budget
    admits, for 1 <= k <= n: per residue field F_i, |Gr_k^n(F_i)| is a
    Gaussian binomial, a polynomial in q_i with nonnegative coefficients
    and leading term q_i^(k(n-k)), so |Gr_k^n(R)| >= |J|^(k(n-k)) * prod
    q_i^(k(n-k)) = q^(k(n-k)), and |Gr_k|*q^k >= q^(k(n-k+1)) =
    q^n * q^((k-1)(n-k)) >= q^n.
    """

    def __init__(self, spec: RingSpec, n: int, budget: int | None = DEFAULT_BUDGET):
        self.spec = spec
        self.n = n
        self.budget = budget
        self._gr: dict[int, list[Summand]] = {}
        # k >= 1 -> (code -> walk ids of the summands holding it, id -> position)
        self._index: dict[int, tuple[list[list[int]], dict[int, int]]] = {}
        self._tables = None  # (space, code, moves), built by the first Gr_k, k > 0

    def grassmannian(self, k: int) -> list[Summand]:
        if not (0 <= k <= self.n):
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={self.n}")
        got = self._gr.get(k)
        if got is not None:
            return got
        spec, n = self.spec, self.n
        check_grassmannian_budget(spec, n, k, self.budget)
        ring = budgeted_ring(spec, self.budget)
        if not k:
            out = self._gr[0] = [Summand(ring, n, 0, frozenset([(ring.zero,) * n]), ())]
            return out
        space, code, moves = self._walk_tables(ring)
        zeros = (ring.zero,) * n
        bases = [[code[zeros[:i] + (ring.one,) + zeros[i + 1:]] for i in range(k)]]
        members = [[code[t + zeros[k:]] for t in itertools.product(range(ring.card), repeat=k)]]
        index = [[] for _ in space]
        for c in members[0]:
            index[c].append(0)
        frontier = [0]
        while frontier:
            nxt = []
            for p in frontier:
                for g in moves:
                    image = [g[c] for c in bases[p]]
                    if not _holding_all(index, image):
                        new = len(bases)  # one shared int per summand
                        moved = [g[c] for c in members[p]]
                        for c in moved:
                            index[c].append(new)
                        nxt.append(new)
                        bases.append(image)
                        members.append(moved)
            frontier = nxt
        # the one place summands are ordered, each sort key computed once
        for m in members:
            m.sort()
        order = sorted(range(len(members)), key=members.__getitem__)
        self._index[k] = index, dict(zip(order, range(len(order))))
        decode = space.__getitem__
        out = [Summand(ring, n, k, map(decode, members[i]), map(decode, bases[i])) for i in order]
        self._gr[k] = out
        return out

    def _walk_tables(self, ring: Ring):
        """`space`, `code` and the walk tables, built once."""
        if self._tables is None:
            space = list(itertools.product(range(ring.card), repeat=self.n))
            code = dict(zip(space, range(len(space))))
            ops = walk_generators(ring, self.n)
            self._tables = space, code, [list(map(code.__getitem__, map(row_operation(ring, op), space))) for op in ops]
        return self._tables

    def containing(self, k: int, vectors) -> list[int]:
        """Ascending positions in grassmannian(k) of the summands holding
        every one of the vectors: all of them for no vectors, none when a
        vector lies outside R^n."""
        gr = self.grassmannian(k)
        if not vectors:
            return list(range(len(gr)))
        if not k:
            return [0] if gr[0].members.issuperset(vectors) else []
        codes = list(map(self._tables[1].get, vectors))
        if None in codes:
            return []
        index, pos = self._index[k]
        return sorted(map(pos.__getitem__, _holding_all(index, codes)))


def _holding_all(index, codes) -> set[int]:
    """Intersection of the codes' index entries, smallest first."""
    hits = sorted(map(index.__getitem__, codes), key=len)
    return set(hits[0]).intersection(*hits[1:])


def enumerate_grassmannian(spec_or_ring, n: int, k: int, budget: int | None = DEFAULT_BUDGET) -> list[Summand]:
    """Complete, duplicate-free, deterministically ordered list of Gr_k^n(R)."""
    return SummandCatalog(spec_of(spec_or_ring), n, budget).grassmannian(k)


def enumerate_good_flags(spec_or_ring, n: int, lam, budget: int | None = DEFAULT_BUDGET) -> list[tuple[Summand, ...]]:
    """All good flags of the given type, each a tuple of summands of strictly
    increasing rank, by iterated containment in the Grassmannians.

    Each chain steps to the summands of the next rank that contain its last
    one (`SummandCatalog.containing`), in ascending position, so the flags
    come out in the catalog's order.  Containment is enough for each step:
    W/V is projective of constant rank and hence free (see
    complexes.build_filtration).
    """
    spec = spec_of(spec_or_ring)
    budgeted_flag_count(spec, n, lam, budget)
    ranks = proper_ranks(flag_type(lam, n))
    if not ranks:
        return [()]
    catalog = SummandCatalog(spec, n, budget)
    chains = [(s,) for s in catalog.grassmannian(ranks[0])]
    for r in ranks[1:]:
        gr = catalog.grassmannian(r)
        chains = [c + (gr[p],) for c in chains for p in catalog.containing(r, c[-1].basis)]
    return chains
