"""Grassmannians of free-and-cofree summands, good flags, and their counts.

Two independent routes are kept side by side on purpose: closed counting
formulas (Gaussian binomials, the radical factorisation of |Gr_k^n|) and
enumeration of each Grassmannian as one GL_n(R)-orbit.  Tests and the
verify suite hold the two against each other, and against brute-force spans.
"""

from __future__ import annotations

import itertools
import operator

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


def walk_generators(ring: Ring, n: int) -> list[tuple[int, int, int]]:
    """Generators of E_n(R) for the orbit walk, as row operations (i, j, a),
    i != j: E_ij(a) sets v_i <- v_i + a*v_j.  The list holds E_{i,i+1}(a)
    and E_{i+1,i}(a) for i < n - 1 and each additive generator a of R.

    Their orbit of V_0 = span(e_1..e_k), k >= 1, is all of Gr_k:
    - they generate E_n(R): E_ij(a) E_ij(b) = E_ij(a + b), so the additive
      generators give E_{i,i+1}(r) and E_{i+1,i}(r) for every r in R, and
      [E_ij(a), E_jk(1)] = E_ik(a) for distinct i, j, k then gives every
      E_ij(r), by induction on |i - j|;
    - SL_n(R) = E_n(R), R a finite product of local rings: over a local
      ring with maximal ideal J, once the columns before column c are
      cleared, column c has a unit on or below the diagonal (the matrix is
      invertible mod J); adding its row to row c if need be makes a unit
      pivot, and clearing column c with it ends at diag(u_1, ..., u_n),
      prod u_i = det = 1, which lies in E_n by Whitehead's lemma
      (diag(u, u^-1) is in E_2).  Over a product, E_ij(e*r), e the
      idempotent of one factor, is E_ij(r) there and 1 elsewhere, so both
      groups split factor by factor;
    - g in GL_n(R) is e*diag(det g, 1, ..., 1) with e in SL_n(R), and the
      diagonal factor fixes V_0, so E_n(R)*V_0 = GL_n(R)*V_0 = Gr_k
      (`SummandCatalog`);
    - the group is finite, so each generator's inverse is a power of it,
      and a breadth-first walk under the generators reaches the orbit.
    """
    ops = []
    for i in range(n - 1):
        for a in ring.additive_generators():
            ops += [(i, i + 1, a), (i + 1, i, a)]
    return ops


class SummandCatalog:
    """Per-(ring, n) cache of Grassmannians and of which summands hold which vectors.

    Gr_k is the orbit of span(e_1..e_k) under GL_n(R), which is transitive
    on it (for V, V' in Gr_k with free complements C, C', the matrix taking
    a basis of V, then of C, to one of V', then of C', takes V to V'),
    walked breadth-first under `walk_generators`.  Equal-rank containment
    is equality: a free rank-k summand holding a basis of another contains
    it, and both have q^k members.  So g*V is already found exactly when a
    found summand holds every g*b, b in a basis of V; for k = 1 one index
    list answers, as a line holding g*b contains span(g*b) = g*V.  A new
    g*V takes the members {g*v : v in V} (g is a bijection of R^n); no span
    is built.

    The walk runs on codes c(v) = sum v_i*q^(n-1-i), the position of v in
    `space`, R^n in lexicographic order (`code` is the inverse dict), so the
    digit d_i(c) = c // q^(n-1-i) % q is v_i.  A move changes one entry:
    E_ij(a) maps c to c + (add[d_i][a*d_j] - d_i)*q^(n-1-i), so each is a
    list code -> image code built from digit lists alone, once per catalog.
    Containment is read from basis codes (`holding`); a `Summand` decodes
    its codes after the sort.  c is an order isomorphism onto range(q^n):
    if v < w first differ at i, c(w) - c(v) >= q^(n-1-i) - sum_{j>i}
    (q-1)*q^(n-1-j) = 1, so sorted code lists compare as the sorted member
    tuples, the order of Gr_k.

    The ring's and the walk's tables are built after the budget checks of
    the first Gr_k, k >= 1 (Gr_0 = {0} needs none).  Each table and index
    has q^n entries (an index also holds |Gr_k|*q^k ids), and for
    1 <= k <= n, q^n <= |Gr_k|*q^k, the count the budget admits: per
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
        # k >= 1 -> (code -> walk ids holding it, id -> position, basis codes)
        self._index: dict[int, tuple] = {}
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
                    if not (index[image[0]] if k == 1 else _holding_all(index, image)):
                        new = len(bases)  # one shared int per summand
                        moved = list(map(g.__getitem__, members[p]))
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
        self._index[k] = index, dict(zip(order, range(len(order)))), list(map(bases.__getitem__, order))
        decode = space.__getitem__
        out = [Summand(ring, n, k, map(decode, members[i]), map(decode, bases[i])) for i in order]
        self._gr[k] = out
        return out

    def _walk_tables(self, ring: Ring):
        """`space`, `code` and the walk tables, built once."""
        if self._tables is None:
            n, q = self.n, ring.card
            space = list(itertools.product(range(q), repeat=n))
            # d_i over range(q^n): each digit q^(n-1-i) times, the run q^i times
            digits = [[x for x in range(q) for _ in range(q ** (n - 1 - i))] * q**i for i in range(n)]
            moves = [_move_table(ring, digits, op) for op in walk_generators(ring, n)]
            self._tables = space, dict(zip(space, range(q**n))), moves
        return self._tables

    def basis_codes(self, k: int) -> list[list[int]]:
        """The basis codes of grassmannian(k), k >= 1, by position."""
        self.grassmannian(k)
        return self._index[k][2]

    def holding(self, k: int, codes) -> list[int]:
        """Ascending positions in grassmannian(k), once built, k >= 1, of the
        summands holding all of one or more codes: the containment route."""
        index, pos, _ = self._index[k]
        ids = index[codes[0]] if len(codes) == 1 else _holding_all(index, codes)
        return sorted(map(pos.__getitem__, ids))

    def lines_holding(self, v) -> list[int]:
        """Ascending positions in grassmannian(1), once built, of the lines holding v: none outside R^n."""
        c = self._tables[1].get(tuple(v))
        return [] if c is None else self.holding(1, [c])


def _move_table(ring: Ring, digits, op) -> list[int]:
    """The walk generator op as a list code -> image code (`SummandCatalog`)."""
    i, j, a = op
    q, n = ring.card, len(digits)
    w, times_a = q ** (n - 1 - i), ring.mul[a]
    # entry i goes from x to x + a*y, y = entry j
    shift = [[(plus[times_a[y]] - x) * w for y in range(q)] for x, plus in enumerate(ring.add)]
    steps = map(list.__getitem__, map(shift.__getitem__, digits[i]), digits[j])
    return list(map(operator.add, range(q**n), steps))


def _holding_all(index, codes) -> set[int]:
    """The ids in all the codes' index lists (two or more codes), from a
    set of the shorter of the first two."""
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
