import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titscomplex import (
    Mat,
    RingSpec,
    SummandCatalog,
    make_ring,
    parse_ring_spec,
)
from titscomplex.linalg import (
    all_vectors,
    quotient_free_rank_members,
    span_if_free,
    zero_vector,
)
from titscomplex import linalg
from titscomplex.rings import BudgetExceeded, ideal_closure

from conftest import mat, span_summand, vec


# vector sum and scalar multiple in R^n, for the brute oracles below
def vadd(ring, u, v):
    return tuple(ring.add[a][b] for a, b in zip(u, v))


def vscale(ring, a, v):
    return tuple(ring.mul[a][x] for x in v)


# -- determinant --------------------------------------------------------------

def leibniz_det(ring, M):
    """Test-local oracle: signed permutation expansion."""
    n = M.nrows
    acc = ring.zero
    for perm in itertools.permutations(range(n)):
        sgn = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sgn = -sgn
        term = ring.one
        for i in range(n):
            term = ring.mul[term][M.rows[i][perm[i]]]
        acc = ring.add[acc][term if sgn > 0 else ring.neg[term]]
    return acc


def test_determinant_examples():
    r6 = make_ring(RingSpec.modular(6))
    assert r6.payload(Mat.identity(r6, 3).det()) == 1
    r5 = make_ring(RingSpec.modular(5))
    assert r5.payload(mat(r5, [[1, 2], [3, 4]]).det()) == 3
    r4 = make_ring(RingSpec.modular(4))
    M = mat(r4, [[2, 1], [1, 2]])
    assert r4.payload(M.det()) == 3
    assert M.is_invertible()
    # exhaustive search finds an actual inverse matrix
    ident = Mat.identity(r4, 2)
    inverses = [
        rows
        for rows in itertools.product(range(4), repeat=4)
        if M.mul_mat(Mat(r4, [rows[:2], rows[2:]])).rows == ident.rows
    ]
    assert inverses


def test_determinant_against_leibniz():
    random.seed(11)
    for label in ["Z/6", "F5", "F2[e]^2", "Z/2xZ/3"]:
        ring = make_ring(parse_ring_spec(label))
        for n in (2, 3, 4):
            for _ in range(25):
                M = Mat(ring, [[random.randrange(ring.card) for _ in range(n)] for _ in range(n)])
                assert M.det() == leibniz_det(ring, M)


def test_determinant_multiplicative():
    r2 = make_ring(RingSpec.prime_field(2))
    mats = [Mat(r2, [v[:2], v[2:]]) for v in itertools.product(range(2), repeat=4)]
    for A in mats:
        for B in mats:
            assert A.mul_mat(B).det() == r2.mul[A.det()][B.det()]
    random.seed(3)
    r6 = make_ring(RingSpec.modular(6))
    for _ in range(200):
        A = Mat(r6, [[random.randrange(6) for _ in range(3)] for _ in range(3)])
        B = Mat(r6, [[random.randrange(6) for _ in range(3)] for _ in range(3)])
        assert A.mul_mat(B).det() == r6.mul[A.det()][B.det()]


DET_RINGS = {label: make_ring(parse_ring_spec(label)) for label in ["Z/4", "Z/6", "F2[e]^2", "Z/2xZ/3"]}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(DET_RINGS)), st.integers(1, 3), st.data())
def test_determinant_properties(label, n, data):
    ring = DET_RINGS[label]
    row = st.lists(st.integers(0, ring.card - 1), min_size=n, max_size=n)
    A = Mat(ring, data.draw(st.lists(row, min_size=n, max_size=n)))
    B = Mat(ring, data.draw(st.lists(row, min_size=n, max_size=n)))
    assert A.mul_mat(B).det() == ring.mul[A.det()][B.det()]
    # invertible exactly when det is a unit, and exactly when A is onto R^n
    image = {A.apply(v) for v in itertools.product(range(ring.card), repeat=n)}
    assert A.is_invertible() == (A.det() in ring.units) == (len(image) == ring.card**n)


def test_determinant_errors():
    r4 = make_ring(RingSpec.modular(4))
    with pytest.raises(ValueError):
        Mat(r4, [[0, 1]]).det()


# -- unimodularity -------------------------------------------------------------

def test_unimodular_examples():
    """A vector is unimodular when its entries generate the unit ideal
    (`ideal_closure`), which over these rings is when it is a basis of a
    line: the catalog's `line_of` finds a line for exactly those vectors."""
    r6 = make_ring(RingSpec.modular(6))
    assert r6.one in ideal_closure(r6, vec(r6, [2, 3]))
    r4 = make_ring(RingSpec.modular(4))
    assert r4.one not in ideal_closure(r4, vec(r4, [2, 2]))
    for label in ["Z/6", "F5", "Z/2xZ/3", "Z/4", "F2[e]^2"]:
        ring = make_ring(parse_ring_spec(label))
        assert ring.one in ideal_closure(ring, [ring.zero] * 2 + [ring.one])
        catalog = SummandCatalog(ring.spec, 2)
        catalog.grassmannian(1)
        for v in all_vectors(ring, 2):
            unimodular = ring.one in ideal_closure(ring, v)
            assert unimodular == (catalog.line_of(catalog.code_of(v)) is not None), (label, v)


# -- span and summands ---------------------------------------------------------

def test_span_summand_examples():
    r4 = make_ring(RingSpec.modular(4))
    s = span_summand(r4, [vec(r4, [1, 0])])
    assert {r4.vec_payloads(v) for v in s.members} == {(0, 0), (1, 0), (2, 0), (3, 0)}
    s2 = span_summand(r4, [vec(r4, [1, 2])])
    assert s2 is not None and s2.rank == 1
    assert len(s2.members) == 4
    assert span_summand(r4, [vec(r4, [2, 0])]) is None


def test_fingerprint_examples():
    r4 = make_ring(RingSpec.modular(4))
    a = span_summand(r4, [vec(r4, [1, 0])])
    b = span_summand(r4, [vec(r4, [3, 0])])
    c = span_summand(r4, [vec(r4, [0, 1])])
    d = span_summand(r4, [vec(r4, [1, 2])])
    assert a.members == b.members
    assert a.members != c.members
    assert d.members != a.members
    assert a == b and hash(a) == hash(b)


def test_preferred_basis_is_canonical():
    r4 = make_ring(RingSpec.modular(4))
    a = span_summand(r4, [vec(r4, [3, 0])])
    assert [r4.vec_payloads(v) for v in a.preferred_basis] == [(1, 0)]


def submodule(ring, n, gens):
    """Member set of the submodule of R^n the vectors generate (free or not)."""
    span = {zero_vector(ring, n)}
    for g in gens:
        span = {vadd(ring, w, vscale(ring, a, g)) for w in span for a in range(ring.card)}
    return frozenset(span)


def lex_least_basis(ring, members, rank):
    """Test oracle: the definition of the preferred basis, a depth-first
    search over member tuples in lexicographic order that prunes every
    prefix whose span has fewer than |R|^length elements."""
    order = sorted(members)
    n = len(order[0])

    def search(prefix):
        if len(prefix) == rank:
            return tuple(prefix)
        for m in order:
            if len(submodule(ring, n, prefix + [m])) == ring.card ** (len(prefix) + 1):
                found = search(prefix + [m])
                if found is not None:
                    return found
        return None

    return search([])


@pytest.mark.parametrize("label", ["Z/4", "Z/6", "Z/8", "F2[e]^2", "Z/2xZ/2"])
def test_preferred_basis_is_the_lexicographically_least_basis(built, label):
    cx = built.complex(label, 3)
    for s in cx.vertices:
        assert s.preferred_basis == lex_least_basis(cx.ring, s.members, s.rank), (label, s)


def test_every_free_span_is_cofree():
    """The test-side `span_summand` counts no quotient, on the theorem in
    its docstring (conftest): over these quasi-Frobenius rings a free span
    of rank k in R^n has a free quotient of rank n - k.  The coset oracle
    checks it on every free span of rank < n that combinations of nonzero
    vectors give."""
    cases = [("Z/4", 3), ("Z/6", 2), ("Z/8", 2), ("Z/9", 2), ("F2[e]^2", 2), ("Z/2xZ/2", 2)]
    spans = 0
    for label, n in cases:
        ring = make_ring(parse_ring_spec(label))
        nonzero = [v for v in all_vectors(ring, n) if v != zero_vector(ring, n)]
        for k in range(1, n):
            for combo in itertools.combinations(nonzero, k):
                members = span_if_free(ring, combo)
                if members is not None:
                    spans += 1
                    assert quotient_free_rank_members(ring, n, None, members) == n - k
    assert spans == 1565


def test_span_reproduces_fingerprint():
    ring = make_ring(parse_ring_spec("Z/6"))
    from titscomplex import enumerate_grassmannian

    for s in enumerate_grassmannian(ring, 2, 1):
        assert span_if_free(ring, s.basis) == s.members
        assert span_if_free(ring, s.preferred_basis) == s.members


# -- quotients -----------------------------------------------------------------

def brute_quotient_free_rank(ring, n, w_members, v_members):
    """Literal oracle: coset table, then search over r-tuples of coset
    representatives for a generating tuple."""
    if w_members is None:
        w_members = all_vectors(ring, n)
    vlist = sorted(v_members)
    repmap = {}
    reps = []
    for w in sorted(w_members):
        if w in repmap:
            continue
        coset = [vadd(ring, w, v) for v in vlist]
        rep = min(coset)
        reps.append(rep)
        for c in coset:
            repmap[c] = rep
    size = len(reps)
    r = 0
    s = size
    while s > 1:
        if s % ring.card:
            return None
        s //= ring.card
        r += 1
    if r == 0:
        return 0
    zero_rep = min(reps)
    nonzero = [x for x in reps if x != zero_rep]
    for combo in itertools.combinations(nonzero, r):
        span = {zero_rep}
        for g in combo:
            new = set()
            for w in span:
                for a in range(ring.card):
                    new.add(repmap[vadd(ring, w, vscale(ring, a, g))])
            span = new
        if len(span) == size:
            return r
    return None


def test_quotient_examples():
    r4 = make_ring(RingSpec.modular(4))
    V = span_summand(r4, [vec(r4, [1, 0])])
    assert quotient_free_rank_members(r4, 2, None, V.members) == 1
    W = span_summand(r4, [vec(r4, [1, 0]), vec(r4, [0, 1])])
    assert quotient_free_rank_members(r4, 2, W.members, W.members) == 0
    r6 = make_ring(RingSpec.modular(6))
    W6 = span_summand(r6, [vec(r6, [1, 0, 0]), vec(r6, [0, 1, 0])])
    V6 = span_summand(r6, [vec(r6, [1, 1, 0])])
    assert quotient_free_rank_members(r6, 3, W6.members, V6.members) == 1
    # coset count along the way: 36 elements over a 6 element line
    assert len(W6.members) // len(V6.members) == 6


def test_quotient_into_the_whole_space_checks_its_budget_once(monkeypatch):
    # W = R^n: the vectors of R^n are budgeted by all_vectors alone
    r4 = make_ring(RingSpec.modular(4))
    V = span_summand(r4, [vec(r4, [1, 0])])
    with pytest.raises(BudgetExceeded) as info:
        quotient_free_rank_members(r4, 2, None, V.members, budget=15)
    assert str(info.value).count("vectors of") == 1
    assert "vectors of Z/4^2 needs ~16 objects" in str(info.value)
    checks = []
    check = linalg.check_budget

    def counted(*args):
        checks.append(args)
        return check(*args)

    monkeypatch.setattr(linalg, "check_budget", counted)
    assert quotient_free_rank_members(r4, 2, None, V.members, budget=16) == 1
    assert checks == [(16, 16, "vectors of Z/4^2")]


def test_quotient_containment_error():
    r4 = make_ring(RingSpec.modular(4))
    V = span_summand(r4, [vec(r4, [1, 0])])
    W = span_summand(r4, [vec(r4, [0, 1])])
    with pytest.raises(ValueError):
        quotient_free_rank_members(r4, 2, W.members, V.members)


def test_quotient_against_brute_oracle():
    # free and non-free quotients, peeling vs the literal tuple search
    cases = []
    r4 = make_ring(RingSpec.modular(4))
    cases.append((r4, 2, None, frozenset({vec(r4, [0, 0]), vec(r4, [2, 0])})))  # not free
    cases.append((r4, 2, None, span_if_free(r4, [vec(r4, [1, 2])])))  # rank 1
    cases.append((r4, 2, None, {zero_vector(r4, 2)}))  # rank 2
    # quotient (Z/4)^2 / 2(Z/4)^2 has |R|^1 elements but is not cyclic
    two_torsion = frozenset(
        v for v in all_vectors(r4, 2) if all(x in (0, 2) for x in v)
    )
    cases.append((r4, 2, None, two_torsion))
    r23 = make_ring(parse_ring_spec("Z/2xZ/3"))
    cases.append((r23, 2, None, {zero_vector(r23, 2)}))  # product ring, rank 2
    cases.append((r23, 2, None, span_if_free(r23, [vec(r23, [(1, 1), (0, 0)])])))
    # mixed component module: not free over Z/2xZ/3
    sub = {vec(r23, [(0, 0), (0, 0)]), vec(r23, [(1, 0), (0, 0)])}
    cases.append((r23, 2, None, frozenset(sub)))
    # seeded submodules V of R^2 generated by 0-2 vectors, in R^2 and in V + R*h
    rng = random.Random(2121)
    for label in ["Z/8", "Z/9", "F2[e]^2", "Z/6", "Z/2xZ/3"]:
        ring = make_ring(parse_ring_spec(label))
        vectors = all_vectors(ring, 2)
        for _ in range(8):
            gens = [rng.choice(vectors) for _ in range(rng.randrange(3))]
            v = submodule(ring, 2, gens)
            cases.append((ring, 2, None, v))
            cases.append((ring, 2, submodule(ring, 2, gens + [rng.choice(vectors)]), v))
    non_free = 0
    for ring, n, w, v in cases:
        got = quotient_free_rank_members(ring, n, w, v)
        want = brute_quotient_free_rank(ring, n, w, v)
        assert got == want, (ring.spec.label, sorted(v), got, want)
        non_free += want is None
    assert non_free == 32  # of 87 cases
