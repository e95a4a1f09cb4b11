import collections
import functools
import itertools
import math
import random

import pytest

from titscomplex import (
    Mat,
    RingSpec,
    Summand,
    SummandCatalog,
    apartment_span_rank,
    build_tits_complex,
    enumerate_good_flags,
    enumerate_grassmannian,
    flag_type,
    gaussian_binomial,
    gl_order,
    grassmannian_size_formula,
    make_ring,
    parse_ring_spec,
    reduced_homology,
    steinberg_rank,
)
from titscomplex import grassmann, linalg
from titscomplex.grassmann import good_flag_count, proper_ranks
from titscomplex.linalg import all_vectors, elementary_matrix, unit_scaling
from titscomplex.rings import BudgetExceeded
from titscomplex.verify import reverify_flag

from conftest import span_summand


def walk_generators(ring, n):
    """Test oracle: generators of E_n(R) as row operations (i, j, a), i != j,
    E_ij(a) setting v_i <- v_i + a*v_j: E_{i,i+1}(a) and E_{i+1,i}(a) for
    i < n - 1 and each additive generator a of R.  E_ij(a) E_ij(b) =
    E_ij(a + b) and [E_ij(a), E_jk(1)] = E_ik(a) give every E_ij(r), and
    E_n(R) = SL_n(R) (`linalg.gl_generators`) is transitive on each Gr_k,
    as diag(u, 1, ..., 1) fixes span(e_1..e_k) and GL_n(R) is transitive
    (free complements); `test_walk_generators_generate_gl` counts it."""
    return [op for i in range(n - 1) for a in ring.additive_generators() for op in ((i, i + 1, a), (i + 1, i, a))]


def row_operation(ring, op):
    """Test oracle: the map v -> g*v on R^n, tuple by tuple, of the row
    operation g = op (see `walk_generators`)."""
    i, j, a = op
    add, times_a = ring.add, ring.mul[a]
    return lambda v: v[:i] + (add[v[i]][times_a[v[j]]],) + v[i + 1:]


def count_subspaces_fq(n, k, q):
    """Test-local oracle: enumerate k-dimensional subspaces of F_q^n as
    row-reduced echelon forms (q prime), entirely independent of the library."""
    # echelon forms: choose pivot columns, fill free entries
    count = 0
    for pivots in itertools.combinations(range(n), k):
        free = 0
        for r, p in enumerate(pivots):
            # columns after the pivot that are not later pivots
            free += sum(1 for c in range(p + 1, n) if c not in pivots)
        count += q**free
    return count


def brute_subspaces_f2(n, k):
    """Second oracle for small F_2 cases: dedup spans of k-tuples."""
    vectors = list(itertools.product(range(2), repeat=n))
    spans = set()
    for combo in itertools.combinations([v for v in vectors if any(v)], k):
        span = {tuple([0] * n)}
        for v in combo:
            span |= {tuple((a + b) % 2 for a, b in zip(w, v)) for w in span}
        if len(span) == 2**k:
            spans.add(frozenset(span))
    return len(spans)


def test_gaussian_binomial_examples():
    assert gaussian_binomial(4, 2, 2) == 35
    assert brute_subspaces_f2(4, 2) == 35
    assert gaussian_binomial(6, 0, 3) == 1
    assert gaussian_binomial(2, 1, 3) == 4


def test_gaussian_binomial_against_echelon_oracle():
    for q in (2, 3, 5):
        for n in range(0, 6):
            for k in range(0, n + 1):
                assert gaussian_binomial(n, k, q) == count_subspaces_fq(n, k, q)


def test_gaussian_binomial_symmetry_and_alternating_sum():
    for q in (2, 3, 4, 5, 9):
        for n in range(1, 8):
            for k in range(0, n + 1):
                assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)
            total = sum(
                (-1) ** (n - k) * q ** (k * (k - 1) // 2) * gaussian_binomial(n, k, q)
                for k in range(n + 1)
            )
            assert total == 0


def test_gaussian_binomial_errors():
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4, 2)
    with pytest.raises(ValueError):
        gaussian_binomial(3, 1, 1)


def test_size_formula_examples():
    assert grassmannian_size_formula(RingSpec.modular(4), 2, 1) == 6
    assert grassmannian_size_formula(RingSpec.modular(6), 2, 1) == 12
    assert grassmannian_size_formula(RingSpec.modular(4), 4, 2) == 560


def test_gl_order_examples():
    r4 = make_ring(RingSpec.modular(4))
    brute = sum(
        1
        for rows in itertools.product(range(4), repeat=4)
        if __import__("titscomplex").Mat(r4, [rows[:2], rows[2:]]).is_invertible()
    )
    assert gl_order(RingSpec.modular(4), 2) == 96 == brute
    assert gl_order(RingSpec.prime_field(2), 2) == 6
    assert gl_order(RingSpec.modular(6), 1) == 2


def test_enumeration_examples():
    assert len(enumerate_grassmannian(RingSpec.modular(4), 2, 1)) == 6
    assert len(enumerate_grassmannian(RingSpec.prime_field(2), 2, 1)) == 3
    zero = enumerate_grassmannian(RingSpec.modular(6), 3, 0)
    assert len(zero) == 1 and zero[0].rank == 0


def test_enumeration_matches_formula():
    for label, nmax in [
        ("Z/4", 3), ("Z/6", 2), ("F2", 4), ("F3", 3), ("F2[e]^2", 2), ("Z/2xZ/3", 2),
        ("Z/3xZ/3", 3), ("F7", 3), ("Z/27", 2),
    ]:
        spec = parse_ring_spec(label)
        for n in range(1, nmax + 1):
            for k in range(n + 1):
                got = len(enumerate_grassmannian(spec, n, k))
                assert got == grassmannian_size_formula(spec, n, k), (label, n, k)


def test_enumeration_is_deterministic_and_deduplicated():
    spec = RingSpec.modular(4)
    a = enumerate_grassmannian(spec, 2, 1)
    b = enumerate_grassmannian(make_ring(spec), 2, 1)
    assert [s.members for s in a] == [s.members for s in b]
    assert len({s.members for s in a}) == len(a)
    keys = [tuple(sorted(s.members)) for s in a]
    assert all(keys[i] < keys[i + 1] for i in range(len(keys) - 1))


def test_orbit_enumeration_equals_brute_force_spans():
    cases = [
        ("Z/4", 2, 1), ("Z/4", 3, 1), ("Z/6", 3, 1), ("F2[e]^2", 3, 1),
        ("Z/2xZ/3", 2, 1), ("Z/4", 3, 2), ("F2[e]^2", 3, 2),
    ]
    for label, n, k in cases:
        ring = make_ring(parse_ring_spec(label))
        nonzero = [v for v in all_vectors(ring, n) if any(x != ring.zero for x in v)]
        brute = set()
        for combo in itertools.combinations(nonzero, k):
            s = span_summand(ring, list(combo))
            if s is not None:
                brute.add(s.members)
        orbit = [s.members for s in enumerate_grassmannian(ring, n, k)]
        assert len(set(orbit)) == len(orbit) and set(orbit) == brute, (label, n, k)


def _closure(ring, n, moves):
    """The group the moves generate, acting on the columns of the identity."""
    group = {tuple(Mat.identity(ring, n).columns())}
    frontier = list(group)
    while frontier:
        frontier = [
            h for cols in frontier for g in moves
            if (h := tuple(map(g, cols))) not in group and not group.add(h)
        ]
    return group


@pytest.mark.parametrize("label,n", [
    ("F2", 2), ("F3", 2), ("Z/4", 2), ("Z/6", 2), ("Z/2xZ/2", 2), ("F2[e]^2", 2), ("F2", 3),
    ("Z/9", 2), ("F7", 2), ("Z/3xZ/3", 2),
])
def test_walk_generators_generate_gl(label, n):
    """The row operations of the walk are elementary and generate
    SL_n(R) = E_n(R); with diag(u, 1, ..., 1) for every unit u they
    generate GL_n(R).  Close each group and count it."""
    ring = make_ring(parse_ring_spec(label))
    ops = walk_generators(ring, n)
    assert all(i != j for i, j, _ in ops)
    moves = [row_operation(ring, op) for op in ops]
    for (i, j, a), g in zip(ops, moves):
        m = elementary_matrix(ring, n, i, j, a)
        assert all(g(v) == m.apply(v) for v in all_vectors(ring, n))
    order = gl_order(ring.spec, n)
    assert len(_closure(ring, n, moves)) == order // len(ring.units), label
    scalings = [unit_scaling(ring, n, u).apply for u in ring.units]
    assert len(_closure(ring, n, moves + scalings)) == order, label


@pytest.mark.parametrize("label,n,ops,sizes", [
    ("Z/9", 3, 4, [117, 117]), ("F3", 4, 6, [40, 130, 40]),
    ("F7", 3, 4, [57, 57]), ("Z/2xZ/2", 3, 8, [49, 49]), ("Z/6", 3, 4, [91, 91]),
])
def test_orbit_walk_moves_by_row_operations(monkeypatch, label, n, ops, sizes):
    """Gr_k is built by row operations alone, applying no matrix and
    building no span, and it is the orbit of span(e_1..e_k) that the
    test-side walk reaches under its `ops` row operations: it holds that
    summand, each operation maps it into itself, and E_n(R) is transitive."""
    calls = []
    monkeypatch.setattr(Mat, "apply", lambda *args: calls.append("apply"))
    monkeypatch.setattr(linalg, "span_if_free", lambda *args, **kw: calls.append("span"))
    monkeypatch.setattr(linalg, "_extend_span", lambda *args: calls.append("extend"))
    spec = parse_ring_spec(label)
    ring = make_ring(spec)
    catalog = SummandCatalog(spec, n)
    grs = [catalog.grassmannian(k) for k in range(1, n)]
    assert calls == []
    moves = [row_operation(ring, op) for op in walk_generators(ring, n)]
    assert len(moves) == ops
    for k, (gr, want) in enumerate(zip(grs, sizes), start=1):
        assert len(gr) == want == grassmannian_size_formula(spec, n, k), (label, n, k)
        assert all(len(s.members) == ring.card**k for s in gr)
        held = {s.members for s in gr}
        assert frozenset(t + (ring.zero,) * (n - k) for t in itertools.product(range(ring.card), repeat=k)) in held
        assert all(frozenset(map(g, m)) in held for m in held for g in moves), (label, n, k)


def _lex_code(v, q):
    """Test-local coding: the position of v in itertools.product(range(q), repeat=len(v))."""
    return sum(x * q ** (len(v) - 1 - i) for i, x in enumerate(v))


@pytest.mark.parametrize("label,n", [
    ("Z/9", 3), ("F3", 4), ("Z/2xZ/2", 3), ("F2[e]^2", 3), ("Z/6", 2),
    ("Z/9", 1), ("F2", 1), ("Z/8", 3), ("Z/2xZ/2xZ/3", 3), ("F2[e]^2", 4),
])
def test_walk_tables_are_bijections_matching_row_operation(label, n):
    """Each coded move table, built by digit arithmetic, permutes range(q^n)
    and decodes, code by code, to the row operation it tabulates: those of
    the test-side walk, every move the normal forms step by, and each unit
    scaling diag(u, 1, ..., 1) as the move (0, 0, u - 1); every digit
    position (n = 1 to 4) and every ring kind."""
    ring = make_ring(parse_ring_spec(label))
    q = ring.card
    catalog = SummandCatalog(ring.spec, n)
    for k in range(1, n + 1):
        catalog.grassmannian(k)
    space, code = catalog._code_tables(ring)[:2]
    assert space == list(itertools.product(range(q), repeat=n))
    assert code == {v: _lex_code(v, q) for v in space}
    codes = list(range(q**n))
    for op in walk_generators(ring, n) + sorted(catalog._moves):
        g, table = row_operation(ring, op), catalog._move(ring, op)
        assert sorted(table) == codes, (label, op)
        assert all(space[table[c]] == g(space[c]) for c in codes), (label, op)
    for u in ring.units:
        g, table = unit_scaling(ring, n, u).apply, catalog._move(ring, (0, 0, ring.add[u][ring.neg[ring.one]]))
        assert all(space[table[c]] == g(space[c]) for c in codes), (label, u)


def test_walk_tables_are_built_once_per_catalog(monkeypatch):
    built = []
    move_table = grassmann._move_table

    def counted(ring, digits, op):
        built.append(op)
        return move_table(ring, digits, op)

    monkeypatch.setattr(grassmann, "_move_table", counted)
    spec = parse_ring_spec("Z/9")
    # the Gr_1 budget check fails before any table is built
    over = SummandCatalog(spec, 3, budget=100)
    with pytest.raises(BudgetExceeded):
        over.grassmannian(1)
    assert built == [] and over._tables is None
    ring = make_ring(spec)
    catalog = SummandCatalog(spec, 3)
    catalog.grassmannian(0)
    assert catalog.grassmannian(0)[0].members == {(ring.zero,) * 3}
    assert built == [] and catalog._tables is None  # Gr_0 needs no table
    catalog.grassmannian(2)
    tables = catalog._code_tables(ring)
    # the cells of Gr_2 step every entry off the pivot rows: by E_rs(1)
    # below the pivot s, by E_rs(3), 3 generating J, above it
    want = {(r, s, ring.el(1) if r > s else ring.el(3)) for r in range(3) for s in range(3) if r != s}
    assert sorted(built) == sorted(want)
    for k in (1, 3):
        catalog.grassmannian(k)
        assert catalog._code_tables(ring) is tables, k
    assert sorted(built) == sorted(want)  # Gr_1 and Gr_3 build none


@pytest.mark.parametrize("label", ["Z/9", "F2[e]^2", "Z/2xZ/3", "F3"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_vector_codes_round_trip_and_sort_as_tuples(label, n):
    """code -> tuple -> code is the identity on range(q^n), and sorted code
    lists decode to the sorted tuple lists, comparing as those do."""
    ring = make_ring(parse_ring_spec(label))
    q = ring.card
    space, code = SummandCatalog(ring.spec, n)._code_tables(ring)[:2]
    assert len(space) == len(code) == q**n
    assert all(code[space[c]] == c == _lex_code(space[c], q) for c in range(q**n))
    rng = random.Random(f"{label}-{n}")
    lists = [rng.sample(range(q**n), rng.randint(1, min(12, q**n))) for _ in range(200)]
    lists += [[c, c + 1] for c in range(0, q**n - 1, max(1, q**n // 50))]
    keys = [sorted(cs) for cs in lists]
    tuples = [sorted(space[c] for c in cs) for cs in lists]
    assert all([space[c] for c in key] == t for key, t in zip(keys, tuples))
    assert sorted(range(len(lists)), key=keys.__getitem__) == sorted(range(len(lists)), key=tuples.__getitem__)
    for (a, ta), (b, tb) in zip(zip(keys, tuples), zip(keys[1:], tuples[1:])):
        assert (a < b, a == b) == (ta < tb, ta == tb)


@pytest.mark.parametrize("label", ["Z/9", "F2[e]^2", "Z/2xZ/3", "F3"])
@pytest.mark.parametrize("n", [2, 3])
def test_containing_outside_the_space_and_of_no_vectors(label, n):
    """A vector of the wrong length or with an entry >= q has no code,
    every summand holds the zero vector, which is a basis of no line, a
    basis is held by its own summand alone, and a list names the vector
    its tuple does."""
    ring = make_ring(parse_ring_spec(label))
    q = ring.card
    catalog = SummandCatalog(ring.spec, n)
    zero = (ring.zero,) * n
    assert catalog.grassmannian(0)[0].members == {zero}
    lines = list(range(len(catalog.grassmannian(1))))
    assert catalog.code_of(zero) == catalog.code_of(list(zero)) == 0, (label, n)
    assert catalog.holding(1, [0]) == lines and catalog.line_of(0) is None, (label, n)
    for bad in [zero[1:], zero + (ring.zero,), (q,) + zero[1:], zero[:-1] + (q + 5,)]:
        assert catalog.code_of(bad) is catalog.code_of(list(bad)) is None, (label, n, bad)
    code = catalog._code_tables(ring)[1]
    for k in range(1, n + 1):
        gr = catalog.grassmannian(k)
        assert catalog.holding(k, [code[zero]]) == list(range(len(gr))), (label, n, k)
        for p in range(0, len(gr), 5):
            assert catalog.holding(k, [code[b] for b in gr[p].basis]) == [p], (label, n, k)
    for p in lines[::5]:
        v = catalog.grassmannian(1)[p].basis[0]
        assert catalog.line_of(catalog.code_of(v)) == catalog.line_of(catalog.code_of(list(v))) == p, (label, n)


def _walk_by_row_operation(ring, n, k):
    """Test-side breadth-first orbit walk of Gr_k: each move applied by
    `row_operation`, repeats found by member set, the member sets output
    in (sorted members) order."""
    start = frozenset(t + (ring.zero,) * (n - k) for t in itertools.product(range(ring.card), repeat=k))
    found = {start}
    frontier = [start]
    moves = [row_operation(ring, op) for op in walk_generators(ring, n)] if k else []
    while frontier:
        frontier = [
            image for members in frontier for g in moves
            if (image := frozenset(map(g, members))) not in found and not found.add(image)
        ]
    return sorted(found, key=sorted)


def _local_factors_by_brute_force(ring):
    """Test oracle: (e, R_f, J_f) for each local factor R_f = e*R of R, e a
    primitive idempotent (no other nonzero idempotent d has d*e = d), and
    J_f its nilpotent elements, the maximal ideal; read off the tables."""
    mul, zero = ring.mul, ring.zero
    idempotents = [e for e in range(ring.card) if e != zero and mul[e][e] == e]
    out = []
    for e in idempotents:
        if all(d == e or mul[e][d] != d for d in idempotents):
            part = set(mul[e])
            nilpotent = {x for x in part if functools.reduce(lambda y, _: mul[y][x], range(ring.card), x) == zero}
            out.append((e, part, nilpotent))
    return out


def _normal_form(ring, n, k, members, factors):
    """Test oracle: the cell and basis of the summand with these members in
    normal form, by brute force.  Over each local factor R_f = e*R, of all
    k-sets I of rows exactly one has, for each j, one member w_j of e*V
    equal to e times the j-th unit vector on the rows I, with its entries
    in J_f on the rows above I[j] outside I; the basis is the sum of the
    factors' w_j."""
    add, mul, zero = ring.add, ring.mul, ring.zero
    cell, basis = [], [(zero,) * n] * k
    for e, _, radical in factors:
        part = {tuple(mul[e][x] for x in v) for v in members}
        forms = []
        for rows in itertools.combinations(range(n), k):
            cols = [[w for w in part if [w[r] for r in rows] == [e if i == j else zero for i in range(k)]] for j in range(k)]
            if all(len(c) == 1 for c in cols) and all(
                c[0][r] in radical for s, c in zip(rows, cols) for r in range(s) if r not in rows
            ):
                forms.append((rows, [c[0] for c in cols]))
        assert len(forms) == 1, forms
        (rows, cols), = forms
        cell.append(rows)
        basis = [tuple(map(lambda x, y: add[x][y], b, w)) for b, w in zip(basis, cols)]
    return tuple(cell), tuple(basis)


@pytest.mark.parametrize("label,n", [
    ("Z/9", 3), ("F3", 4), ("Z/2xZ/2", 3), ("F2[e]^2", 3), ("Z/6", 3),
    ("Z/12", 3), ("Z/2xZ/9", 3), ("Z/8", 3), ("F2[e]^3", 3),
])
def test_grassmannian_equals_a_walk_by_row_operation(label, n):
    """The members and order of each Gr_k are the test-side walk's, each
    basis is the brute-force normal form, and the index answers which
    summands hold each vector as a scan of the walk's member sets does."""
    ring = make_ring(parse_ring_spec(label))
    catalog = SummandCatalog(ring.spec, n)
    factors = _local_factors_by_brute_force(ring)
    space = all_vectors(ring, n)
    for k in range(n + 1):
        want = _walk_by_row_operation(ring, n, k)
        got = catalog.grassmannian(k)
        assert [s.members for s in got] == want, (label, k)
        assert [s.basis for s in got] == [_normal_form(ring, n, k, m, factors)[1] for m in want], (label, k)
        if not k:
            continue  # Gr_0 = {0} has no index; its members are checked above
        code = catalog._code_tables(ring)[1]
        for v in space:
            holders = [p for p, m in enumerate(want) if v in m]
            assert catalog.holding(k, [code[v]]) == holders, (label, k, v)
            if k == 1:
                # a vector is a basis of the one line holding it, if one alone does
                assert catalog.line_of(code[v]) == (holders[0] if len(holders) == 1 else None), (label, v)


@pytest.mark.parametrize("label,n", [
    ("F3", 3), ("Z/9", 3), ("Z/12", 2), ("F2[e]^2", 3), ("F2[e]^3", 2), ("Z/2xZ/2", 3), ("Z/3xF2[e]^2", 2),
])
def test_cells_count_their_free_entries(label, n):
    """Each cell (I_f)_f of Gr_k, read off each summand's brute-force
    normal form, holds the product over the factors and the entries
    (r, j), r not in I_f, of |J_f| when r < I_f[j] and |R_f| when
    r > I_f[j]; and the cells sum to the closed formula.  Every spec kind:
    a prime field, Z/p^m, Z/m with two factors, F_p[e]^m and products."""
    ring = make_ring(parse_ring_spec(label))
    factors = _local_factors_by_brute_force(ring)
    catalog = SummandCatalog(ring.spec, n)
    for k in range(1, n + 1):
        got = collections.Counter(_normal_form(ring, n, k, s.members, factors)[0] for s in catalog.grassmannian(k))
        want = {}
        for cell in itertools.product(itertools.combinations(range(n), k), repeat=len(factors)):
            want[cell] = math.prod(
                len(radical if r < s else part)
                for (_, part, radical), rows in zip(factors, cell) for s in rows for r in range(n) if r not in rows
            )
        assert got == want, (label, k)
        assert sum(want.values()) == grassmannian_size_formula(ring.spec, n, k), (label, k)


@pytest.mark.parametrize("label,n,moves", [("Z/9", 3, [114, 114]), ("F3", 4, [36, 124, 36])])
def test_normal_forms_make_one_move_per_summand_and_no_found_check(monkeypatch, label, n, moves):
    """A fresh catalog lists Gr_k with no found-check (`_holding_all` is
    never called) and one move for each summand but the first of its cell,
    |Gr_k| less the cells: each move reads its table once per basis and
    member code of its parent."""
    found_checks, reads = [], []
    holding_all, move = grassmann._holding_all, SummandCatalog._move

    class Counted(list):
        def __getitem__(self, c):
            reads.append(c)
            return list.__getitem__(self, c)

    monkeypatch.setattr(grassmann, "_holding_all", lambda *args: found_checks.append(args) or holding_all(*args))
    monkeypatch.setattr(SummandCatalog, "_move", lambda self, ring, op: Counted(move(self, ring, op)))
    ring = make_ring(parse_ring_spec(label))
    q, cells = ring.card, len(_local_factors_by_brute_force(ring))
    catalog = SummandCatalog(ring.spec, n)
    for k, want in enumerate(moves, start=1):
        reads.clear()
        size = len(catalog.grassmannian(k))
        assert want == size - math.comb(n, k) ** cells, (label, k)
        assert len(reads) == want * (k + q**k), (label, k)
    assert found_checks == []


def test_walk_ends_over_a_product_ring():
    ring = make_ring(parse_ring_spec("Z/2xZ/3"))
    catalog = SummandCatalog(ring.spec, 3)
    vectors = all_vectors(ring, 3)
    (zero,) = catalog.grassmannian(0)
    (full,) = catalog.grassmannian(3)
    assert zero.rank == 0 and zero.members == {vectors[0]} == {(ring.zero,) * 3}
    assert full.rank == 3 and full.members == set(vectors)
    code = catalog._code_tables(ring)[1]
    assert catalog.holding(3, [code[v] for v in vectors]) == [0]


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_grassmannian(RingSpec.modular(6), 4, 2, budget=100)


def test_good_flags_examples():
    assert len(enumerate_good_flags(RingSpec.modular(4), 2, (1, 1))) == 6
    empty = enumerate_good_flags(RingSpec.modular(4), 2, (2,))
    assert len(empty) == 1 and len(empty[0]) == 0
    assert len(enumerate_good_flags(RingSpec.prime_field(2), 3, (1, 1, 1))) == 21


@pytest.mark.parametrize("label", ["Z/4", "Z/6", "F3", "F2[e]^2", "Z/2xZ/2"])
@pytest.mark.parametrize("lam", [(1, 2), (2, 1), (1, 1, 1), (1, 1, 2), (2, 2), (3, 1)])
def test_good_flag_count_matches_enumeration(label, lam):
    spec = parse_ring_spec(label)
    n = sum(lam)
    assert good_flag_count(spec, n, proper_ranks(lam)) == len(enumerate_good_flags(spec, n, lam))


def test_flag_type_validation():
    with pytest.raises(ValueError):
        flag_type((1, 1), 3)
    with pytest.raises(ValueError):
        flag_type((0, 3), 3)
    assert flag_type((1, 2), 3) == (1, 2)


def test_complete_flag_count_orbit_stabilizer():
    # |Fl_(1,..,1)| = |GL_n| / (|units|^n * |R|^(n(n-1)/2))
    for label, n in [("Z/4", 2), ("Z/4", 3), ("Z/6", 2), ("F3", 3), ("F2[e]^2", 2)]:
        ring = make_ring(parse_ring_spec(label))
        flags = enumerate_good_flags(ring, n, (1,) * n)
        stab = len(ring.units) ** n * ring.card ** (n * (n - 1) // 2)
        assert len(flags) * stab == gl_order(ring.spec, n), (label, n)


def test_flags_are_good_chains():
    ring = make_ring(parse_ring_spec("Z/6"))
    flags = enumerate_good_flags(ring, 3, (1, 1, 1))
    for f in flags[::97]:
        assert reverify_flag(f)
    # type (1, 1, 1) of R^3: summands of ranks 1 and 2
    assert {tuple(s.rank for s in f) for f in flags} == {(1, 2)}


def test_formulas_build_no_tables(forbid_tables):
    """The closed formulas read the spec's counting data alone."""
    forbid_tables(0)
    p = 1000003
    spec = RingSpec.modular(p)
    assert steinberg_rank(spec, 3) == p**3
    assert gl_order(spec, 2) == (p**2 - 1) * (p**2 - p)
    assert grassmannian_size_formula(spec, 3, 1) == p**2 + p + 1
    # Z/4000: |J| = 400, residue fields F2 and F5
    assert grassmannian_size_formula(RingSpec.modular(4000), 2, 1) == 400 * 3 * 6


@pytest.fixture
def member_reads(monkeypatch):
    """Every summand whose member set is read, in order of the reads."""
    reads = []
    members = Summand.members

    def counted(s):
        reads.append(s)
        return members.fget(s)

    monkeypatch.setattr(Summand, "members", property(counted))
    return reads


@pytest.mark.parametrize("label,run", [
    ("Z/9", lambda cx: reduced_homology(cx).betti == [0, 1171]),
    ("F7", lambda cx: apartment_span_rank(cx, mode="sampled", seed=0).rank == 343),
    ("Z/2xZ/2", lambda cx: apartment_span_rank(cx).rank == 344),
], ids=["Z/9-homology", "F7-sampled-span", "Z/2xZ/2-span"])
def test_homology_and_apartments_decode_no_member_set(member_reads, label, run):
    cx = build_tits_complex(parse_ring_spec(label), 3)
    assert run(cx)
    assert member_reads == []
    assert not any(isinstance(v._members, frozenset) for v in cx.vertices)


FIRST_READS = {
    "members": lambda v, s: v.members == s.members,
    "eq": lambda v, s: v == s,
    "hash": lambda v, s: hash(v) == hash(s),
    "preferred_basis": lambda v, s: v.preferred_basis == s.preferred_basis,
}


@pytest.mark.parametrize("first", sorted(FIRST_READS))
@pytest.mark.parametrize("label", ["Z/4", "Z/6"])
def test_lazy_member_set_keeps_the_identity_of_span_summand(label, first):
    """A catalog vertex, before and after its member set is first read
    (by each reader in turn), has the member set, equality, hash and
    preferred basis of the span of its basis."""
    cx = build_tits_complex(parse_ring_spec(label), 3)
    for v in cx.vertices:
        s = span_summand(cx.ring, list(v.basis))
        assert not isinstance(v._members, frozenset)
        assert FIRST_READS[first](v, s), (label, v)
        frozen = v._members
        assert isinstance(frozen, frozenset)
        assert all(check(v, s) for check in FIRST_READS.values()), (label, v)
        assert v.members is frozen and len(frozen) == cx.ring.card**v.rank
