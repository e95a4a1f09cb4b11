"""Grassmannians of free-and-cofree summands, good flags, and their counts.

Two independent routes are kept side by side on purpose: closed counting
formulas (Gaussian binomials, the radical factorisation of |Gr_k^n|) and
enumeration of each Grassmannian as one GL_n(R)-orbit.  Tests and the
verify suite hold the two against each other, and against brute-force spans.

The orbit walk uses the small generating set of `walk_generators`:
elementary row operations between neighbouring coordinates and scalings
of the first coordinate by generators of R^x.  Each generator acts as the
row operation it is, tabulated once over R^n, on the basis vectors of a
summand and, for a new summand, on the members of the summand it was
reached from; no matrix is applied and no span is built.
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
    num = 1
    den = 1
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
    `enumerate_good_flags` makes before it builds anything: the flag count,
    then the member vectors of each Grassmannian it walks."""
    lam = flag_type(lam, n)
    ranks = proper_ranks(lam)
    count = good_flag_count(spec, n, ranks)
    check_budget(count, budget, f"good flags of type {lam} in {spec.label}^{n}")
    for r in ranks:
        check_grassmannian_budget(spec, n, r, budget)
    return count


def check_grassmannian_budget(spec: RingSpec, n: int, k: int, budget: int | None = DEFAULT_BUDGET):
    """Budget Gr_k^n(R) by its member vectors: |Gr_k| summands of q^k each."""
    check_budget(grassmannian_size_formula(spec, n, k) * spec.cardinality**k, budget, f"Gr_{k}^{n}({spec.label})")


def proper_ranks(lam) -> tuple:
    """Ranks of the proper summands in a flag of the given type."""
    ranks = []
    total = 0
    for p in lam[:-1]:
        total += p
        ranks.append(total)
    return tuple(ranks)


class Flag:
    """A good flag: a chain of summands, strictly increasing in the cofree order."""

    __slots__ = ("summands",)

    def __init__(self, summands):
        self.summands = tuple(summands)

    @property
    def ranks(self) -> tuple:
        return tuple(s.rank for s in self.summands)

    def type(self, n: int) -> tuple:
        ranks = self.ranks
        parts = []
        prev = 0
        for r in ranks:
            parts.append(r - prev)
            prev = r
        parts.append(n - prev)
        return tuple(parts)

    def __eq__(self, other):
        return isinstance(other, Flag) and self.summands == other.summands

    def __hash__(self):
        return hash(self.summands)

    def __len__(self):
        return len(self.summands)

    def __repr__(self):
        return f"Flag(ranks {self.ranks})"


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

    Gr_k is the orbit of the coordinate summand span(e_1..e_k) under
    GL_n(R), which acts transitively on it: summands V, V' of Gr_k have free
    complements C, C', and the matrix sending a basis of V followed by one
    of C to a basis of V' followed by one of C' takes V to V'.  The orbit is
    walked breadth-first under `walk_generators`, 2(n-1) elementary row
    operations per additive generator of R plus a few unit scalings, each
    applied as a row operation, never as a matrix.

    Equal-rank containment is equality: if a free summand W of rank k holds
    every vector of a basis of the free summand V of rank k, then W contains
    V, both have q^k members, and so V = W.  The walk therefore knows g*V is
    already found exactly when some found summand holds every g*b for the
    basis b of V.  A new summand g*V takes the members {g*v : v in V}: g is
    a bijection of R^n, so this is exactly g*V, with q^k members, and no
    span is built.  The same vector index answers containment between
    ranks: V lies in W exactly when W holds every basis vector of V
    (`containing`).

    Each walk generator is tabulated once per catalog, as a dict from every
    vector of R^n to its image, and then moves bases and members by lookup.
    The catalog holds the ring's spec, and builds the ring's tables and the
    walk tables only after the budget checks of the first Grassmannian it
    enumerates.  A walk table has q^n entries, and for 1 <= k <= n that is
    at most the |Gr_k|*q^k members the budget admits: per residue field
    F_i, |Gr_k^n(F_i)| is a Gaussian binomial, a polynomial in q_i with
    nonnegative coefficients and leading term q_i^(k(n-k)), so
    |Gr_k^n(R)| >= |J|^(k(n-k)) * prod q_i^(k(n-k)) = q^(k(n-k)), and
    |Gr_k|*q^k >= q^(k(n-k+1)) = q^n * q^((k-1)(n-k)) >= q^n.  Gr_0 needs
    no table.
    """

    def __init__(self, spec: RingSpec, n: int, budget: int | None = DEFAULT_BUDGET):
        self.spec = spec
        self.n = n
        self.budget = budget
        self._gr: dict[int, list[Summand]] = {}
        # rank -> vector -> ascending positions in grassmannian(rank) of the
        # summands holding it
        self._index: dict[int, dict[tuple, list[int]]] = {}
        # one vector -> image table per walk generator, built by the first Gr_k, k >= 1
        self._moves: list[dict[tuple, tuple]] | None = None

    def grassmannian(self, k: int) -> list[Summand]:
        if not (0 <= k <= self.n):
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={self.n}")
        got = self._gr.get(k)
        if got is not None:
            return got
        spec, n = self.spec, self.n
        check_grassmannian_budget(spec, n, k, self.budget)
        ring = budgeted_ring(spec, self.budget)
        basis = [tuple(ring.one if i == j else ring.zero for j in range(n)) for i in range(k)]
        zeros = (ring.zero,) * (n - k)
        members = frozenset(t + zeros for t in itertools.product(range(ring.card), repeat=k))
        found = []  # in discovery order, which keys the index until the sort
        index: dict[tuple, list[int]] = {}

        def add(s: Summand):
            for v in s.members:
                index.setdefault(v, []).append(len(found))
            found.append(s)

        add(Summand(ring, n, k, members, basis))
        frontier = list(found)
        # Gr_0 = {0} is fixed by every g, and its empty basis finds nothing
        moves = self._walk_tables(ring) if k else []
        while frontier:
            nxt = []
            for s in frontier:
                for g in moves:
                    image = tuple(map(g.__getitem__, s.basis))
                    if not _holding_all(index, image):
                        t = Summand(ring, n, k, frozenset(map(g.__getitem__, s.members)), image)
                        add(t)
                        nxt.append(t)
            frontier = nxt
        # the one place summands are ordered, each sort key computed once
        keys = [tuple(sorted(s.members)) for s in found]
        order = sorted(range(len(found)), key=keys.__getitem__)
        pos = [0] * len(order)
        for p, i in enumerate(order):
            pos[i] = p
        for ids in index.values():
            ids[:] = sorted(pos[i] for i in ids)
        self._index[k] = index
        out = [found[i] for i in order]
        self._gr[k] = out
        return out

    def _walk_tables(self, ring: Ring) -> list[dict[tuple, tuple]]:
        """The vector -> image table of each `walk_generators` move, built once."""
        if self._moves is None:
            space = list(itertools.product(range(ring.card), repeat=self.n))
            self._moves = [
                dict(zip(space, map(row_operation(ring, op), space))) for op in walk_generators(ring, self.n)
            ]
        return self._moves

    def containing(self, k: int, vectors) -> list[int]:
        """Ascending positions in grassmannian(k) of the summands holding
        every one of the (at least one) vectors."""
        self.grassmannian(k)
        return sorted(_holding_all(self._index[k], vectors))


def _holding_all(index, vectors) -> set[int]:
    """Intersection of the index entries of the vectors, smallest first."""
    hits = sorted((index.get(v, ()) for v in vectors), key=len)
    return set(hits[0]).intersection(*hits[1:])


def enumerate_grassmannian(spec_or_ring, n: int, k: int, budget: int | None = DEFAULT_BUDGET) -> list[Summand]:
    """Complete, duplicate-free, deterministically ordered list of Gr_k^n(R)."""
    return SummandCatalog(spec_of(spec_or_ring), n, budget).grassmannian(k)


def enumerate_good_flags(spec_or_ring, n: int, lam, budget: int | None = DEFAULT_BUDGET) -> list[Flag]:
    """All good flags of the given type, by iterated containment in the Grassmannians.

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
        return [Flag(())]
    catalog = SummandCatalog(spec, n, budget)
    chains = [(s,) for s in catalog.grassmannian(ranks[0])]
    for r in ranks[1:]:
        gr = catalog.grassmannian(r)
        chains = [c + (gr[p],) for c in chains for p in catalog.containing(r, c[-1].basis)]
    return [Flag(c) for c in chains]
