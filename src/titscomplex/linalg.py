"""Vectors, matrices and submodules of R^n over a finite commutative ring.

Vectors are tuples of element indices (see rings.Ring).  A Summand is a
free direct summand of R^n whose quotient is also free; its identity is the
full member set.  Freeness of a finite module is decided by cardinality
plus generator count: a surjection R^r -> M between finite sets of equal
size is a bijection.  A quotient W/V is decided on member sets too: one
greedy pass grows V by members of W whose line meets the span only in 0
(`_free_extension`), and the same pass gives each summand its preferred
basis.  GL_n(R) and its principal congruence subgroups enter only as
generating sets.
"""

from __future__ import annotations

import itertools
import operator

from .rings import DEFAULT_BUDGET, Ring, check_budget, ideal_closure


def zero_vector(ring: Ring, n: int):
    return (ring.zero,) * n


def all_vectors(ring: Ring, n: int, budget: int | None = DEFAULT_BUDGET):
    """All vectors of R^n in canonical (lexicographic index) order."""
    check_budget(ring.card**n, budget, f"vectors of {ring.spec.label}^{n}")
    return [tuple(t) for t in itertools.product(range(ring.card), repeat=n)]


def subset_minors(ring: Ring, rows, ncols: int) -> list[int]:
    """Minors of the leading rows, indexed by column mask.

    Entry `mask` is the determinant of rows 0..k-1 on the columns in `mask`,
    k being the number of bits of `mask`, for every mask with k <= len(rows);
    the other entries are zero.  Each entry is the Laplace expansion along
    row k-1, and masks run in ascending order, so the entries it reads (its
    submasks) are already filled.
    """
    add, mul, neg = ring.add, ring.mul, ring.neg
    memo = [ring.zero] * (1 << ncols)
    memo[0] = ring.one
    for mask in range(1, 1 << ncols):
        i = mask.bit_count() - 1
        if i >= len(rows):
            continue
        row = rows[i]
        acc = ring.zero
        positive = i % 2 == 0  # cofactor sign (-1)^(i + position of the column in mask)
        m = mask
        while m:
            low = m & -m
            term = mul[row[low.bit_length() - 1]][memo[mask ^ low]]
            acc = add[acc][term if positive else neg[term]]
            positive = not positive
            m ^= low
        memo[mask] = acc
    return memo


class Mat:
    """A rows x cols matrix of element indices over a fixed ring."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring: Ring, rows):
        self.ring = ring
        self.rows = tuple(tuple(r) for r in rows)
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged matrix rows")

    @staticmethod
    def identity(ring: Ring, n: int) -> "Mat":
        z, o = ring.zero, ring.one
        return Mat(ring, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(ring: Ring, cols) -> "Mat":
        cols = [tuple(c) for c in cols]
        n = len(cols[0])
        return Mat(ring, [[c[i] for c in cols] for i in range(n)])

    @staticmethod
    def from_payload_rows(ring: Ring, rows) -> "Mat":
        return Mat(ring, [[ring.el(x) for x in r] for r in rows])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def column(self, j: int):
        return tuple(r[j] for r in self.rows)

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def apply(self, v):
        """Matrix times column vector."""
        ring = self.ring
        add, mul = ring.add, ring.mul
        out = []
        for row in self.rows:
            acc = ring.zero
            for a, x in zip(row, v):
                acc = add[acc][mul[a][x]]
            out.append(acc)
        return tuple(out)

    def mul_mat(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        cols = [self.apply(c) for c in zip(*other.rows)]
        # with no columns the product keeps one empty row per row of self
        return Mat(self.ring, zip(*cols) if cols else [()] * self.nrows)

    def det(self) -> int:
        """Determinant as an element index (subset DP over columns, n <= 8)."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if n > 8:
            raise ValueError("determinant supported for n <= 8")
        return subset_minors(self.ring, self.rows, n)[-1]

    def is_invertible(self) -> bool:
        return self.det() in self.ring.units

    def payload_rows(self):
        return [tuple(self.ring.payload(x) for x in r) for r in self.rows]

    def __eq__(self, other):
        return isinstance(other, Mat) and self.ring.spec == other.ring.spec and self.rows == other.rows

    def __hash__(self):
        return hash((self.ring.spec, self.rows))

    def __repr__(self):
        return f"Mat({self.ring.spec.label}, {self.payload_rows()})"


def elementary_matrix(ring: Ring, n: int, i: int, j: int, a: int) -> Mat:
    rows = [[ring.one if r == c else ring.zero for c in range(n)] for r in range(n)]
    rows[i][j] = a
    return Mat(ring, rows)


def unit_scaling(ring: Ring, n: int, u: int, pos: int = 0) -> Mat:
    return elementary_matrix(ring, n, pos, pos, u)


def gl_generators(ring: Ring, n: int) -> list[Mat]:
    """Generators of GL_n(R): elementary matrices over additive generators
    of R, plus unit scalings in the first slot (GL_n = E_n * GL_1, by
    `grassmann.walk_generators`).

    The sampled apartment search builds its orbit rounds from this exact
    list, so its order and length fix `apartments_used`; the Grassmannian
    walk uses the smaller `grassmann.walk_generators` instead."""
    gens = []
    for a in ring.additive_generators():
        for i in range(n):
            for j in range(n):
                if i != j:
                    gens.append(elementary_matrix(ring, n, i, j, a))
    for u in sorted(ring.units):
        if u != ring.one:
            gens.append(unit_scaling(ring, n, u))
    return gens


def congruence_generators(ring: Ring, n: int, ideal_gen_payloads) -> list[Mat]:
    """Generators of the principal congruence subgroup Gamma(I), the kernel
    of GL_n(R) -> GL_n(R/I), for the ideal I generated by the given elements.

    The generators are E_ij(a) for i != j, with a running over the distinct
    nonzero products g*x of an additive generator g of R and a generator x
    of I, and the scalings of every position by every unit u != 1 with
    u - 1 in I.  The products generate (I, +), and E_ij(a) E_ij(b) =
    E_ij(a + b), so the group they generate holds E_ij(c) for every c in I.
    The zero ideal gives no generators.

    Why this is all of Gamma(I): R is a product of local rings R_j with
    idempotents e_j, I is the product of the I_j = e_j I, and Gamma(I) is
    the product of the Gamma(I_j) in GL_n(R_j).  The group generated holds
    E_ij(e_j c) for c in I, since e_j c lies in I, and the scalings by
    u = (1, ..., u_j, ..., 1) for every unit u_j of R_j with u_j - 1 in I_j,
    since u - 1 lies in I.  So it holds, factor by factor, every E_ij(I_j)
    and every scaling by a unit of 1 + I_j.  These generate Gamma(I_j):
    - I_j lies in the radical J_j (every proper ideal of a local ring
      does): each element of 1 + M_n(I_j) has unit diagonal entries, and
      row and column reduction with multipliers in I_j ends at a diagonal
      matrix with entries in 1 + I_j;
    - I_j = R_j: Gamma(I_j) = GL_n(R_j) = E_n(R_j) GL_1(R_j), as R_j is
      local.
    """
    add, mul = ring.add, ring.mul
    xs = [ring.el(p) for p in ideal_gen_payloads]
    ideal = ideal_closure(ring, xs)
    products = dict.fromkeys(mul[g][x] for g in ring.additive_generators() for x in xs)
    products.pop(ring.zero, None)
    gens = [
        elementary_matrix(ring, n, i, j, a)
        for a in products
        for i in range(n)
        for j in range(n)
        if i != j
    ]
    minus_one = ring.neg[ring.one]
    for u in sorted(ring.units):
        if u != ring.one and add[u][minus_one] in ideal:
            gens.extend(unit_scaling(ring, n, u, pos) for pos in range(n))
    return gens


def is_unimodular(ring: Ring, v) -> bool:
    """True when the entries of v generate the unit ideal."""
    return ring.one in ideal_closure(ring, v)


def span_if_free(ring: Ring, vectors, budget: int | None = DEFAULT_BUDGET):
    """Member set of the span when the given vectors are a free basis, else None.

    Grows the span one generator at a time; any collision proves the
    coefficient map R^k -> span is not injective, which kills freeness of
    the span on this basis.
    """
    k = len(vectors)
    q = ring.card
    check_budget(q**k, budget, "span enumeration")
    members = {zero_vector(ring, len(vectors[0]))}
    for v in vectors:
        members = _extend_span(ring, members, v)
        if members is None:
            return None
    return frozenset(members)


def _extend_span(ring: Ring, members, v):
    """members + R*v, or None if the sum is not direct (size check fails)."""
    add = ring.add
    multiples = []
    for a in range(ring.card):
        row = ring.mul[a]
        multiples.append(tuple(row[x] for x in v))
    out = set()
    target = len(members) * ring.card
    getitem = operator.getitem
    for w in members:
        rows = [add[a] for a in w]  # w + m is rows[i][m[i]] entrywise
        for m in multiples:
            out.add(tuple(map(getitem, rows, m)))
    if len(out) != target:
        return None
    return out


class Summand:
    """A free-and-cofree direct summand of R^n.

    Identity is the member set.  It is decoded on first read: `members`
    freezes the iterable the summand was made with into a frozenset the
    first time it is read, so code that never reads it (the complex build,
    homology, apartments) never pays for it.  Summands carry no order of
    their own: the deterministic (rank, sorted members) order is decided
    once, by the sort in `grassmann.SummandCatalog.grassmannian`.
    """

    __slots__ = ("ring", "ambient", "rank", "_members", "basis", "_preferred")

    def __init__(self, ring: Ring, ambient: int, rank: int, members, basis):
        self.ring = ring
        self.ambient = ambient
        self.rank = rank
        self._members = members
        self.basis = tuple(basis)
        self._preferred = None

    @property
    def members(self) -> frozenset:
        """The member set, frozen from the given iterable on first read."""
        m = self._members
        if not isinstance(m, frozenset):
            m = self._members = frozenset(m)
        return m

    @property
    def preferred_basis(self):
        """Lexicographically least member tuple that is a basis (canonical):
        the members `_free_extension` joins to the zero span."""
        if self._preferred is None:
            zero = zero_vector(self.ring, self.ambient)
            span, basis = _free_extension(self.ring, {zero}, self.members)
            if span != self.members:
                raise RuntimeError("summand has no basis among its members")
            self._preferred = tuple(basis)
        return self._preferred

    def payload_basis(self):
        return [self.ring.vec_payloads(v) for v in self.preferred_basis]

    def __eq__(self, other):
        return (
            isinstance(other, Summand)
            and self.ring.spec == other.ring.spec
            and self.ambient == other.ambient
            and self.members == other.members
        )

    def __hash__(self):
        return hash((self.ring.spec, self.ambient, self.members))

    def __repr__(self):
        return f"Summand(rank {self.rank} of {self.ring.spec.label}^{self.ambient})"


def span_summand(ring: Ring, vectors, budget: int | None = DEFAULT_BUDGET) -> Summand | None:
    """Summand spanned by the vectors when they are a free basis of their
    span in R^n; None otherwise.

    Every such span is cofree, so no quotient is counted.  Z/m,
    F_p[x]/(x^k) and their finite products are quasi-Frobenius rings, and
    over a quasi-Frobenius ring a free module is injective: a free
    submodule F of rank k splits off, R^n = F + C.  The complement C is
    projective, so free over each local factor R_j, where it has
    |R_j|^(n-k) elements; hence C is free of rank n - k.  (A free span of
    rank k has |R|^k <= |R|^n members, so k <= n.)
    """
    if not vectors:
        raise ValueError("span_summand needs at least one vector")
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise ValueError("vectors of mixed length")
    members = span_if_free(ring, vectors, budget)
    if members is None:
        return None
    return Summand(ring, n, len(vectors), members, vectors)


def _free_extension(ring: Ring, span, members):
    """Grow a span by the members whose line meets it only in 0: (span, joined).

    span is a submodule S0 of the module M the members form.  One pass over
    sorted(members) skips each member w already in the span and joins w
    when no nonzero a has a*w in the span; `_extend_span` then adds R*w.
    The pass stops once the span has len(members) elements.  So the span
    modulo S0 is always free on the joined members, and M / S0 is free
    exactly when the pass ends at M.

    When M / S0 is free of rank k, the pass ends at M and never has to
    backtrack, so it returns what the depth-first search over member tuples
    in lexicographic order, pruning prefixes not free modulo S0, returns;
    from S0 = 0 that is the lexicographically least basis tuple:
    - a member rejected at one step stays rejected at every later step:
      {a : a*w in S} is an ideal that only grows with the span S;
    - a span S with S / S0 free of rank j < k is, modulo S0, a direct
      summand of M / S0 with a free complement C (in each local factor by
      Nakayama's lemma and a socle element that kills J*(M / S0)), and
      the line of every c + s, with c a member lifting a basis vector of C
      and s in S, meets S only in 0, and so every smaller span too,
      so none of them sits at a position already passed, and the pass
      finds one ahead;
    - a span free of rank k modulo S0 is M itself, by cardinality.
    """
    mul = ring.mul
    scalars = [mul[a] for a in range(ring.card) if a != ring.zero]
    joined = []
    for w in sorted(members):
        if len(span) == len(members):
            break
        if w in span or any(tuple(row[x] for x in w) in span for row in scalars):
            continue
        span = _extend_span(ring, span, w)
        joined.append(w)
    return span, joined


def quotient_free_rank_members(
    ring: Ring, n: int, w_members, v_members, budget: int | None = DEFAULT_BUDGET
) -> int | None:
    """Free rank of W/V, or None when the quotient is not free.

    w_members None means W = R^n.  V must be contained in W.  The rank is
    the number of members `_free_extension` joins to V, when it reaches W.
    """
    if w_members is None:
        w_members = all_vectors(ring, n, budget)
    elif not set(v_members) <= set(w_members):
        raise ValueError("V is not contained in W")
    span, joined = _free_extension(ring, set(v_members), w_members)
    return len(joined) if len(span) == len(w_members) else None
