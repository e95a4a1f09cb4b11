import itertools
import math
import random
import tracemalloc
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from titscomplex import (
    HomologyResult,
    RingSpec,
    SimplicialComplex,
    build_tits_complex,
    chain_complex,
    congruence_generators,
    coreduce,
    fixed_subspace_dim,
    gl_generators,
    induced_top_map,
    make_ring,
    parse_ring_spec,
    reduced_homology,
    reduction_map,
    smith_rank_and_divisors,
    steinberg_rank,
)
from titscomplex import homology
from titscomplex.homology import (
    IntEchelon,
    MOD_P,
    ModPEchelon,
    _HALF_P,
    _balanced,
    _unit_pivots,
    euler_characteristic_checks,
    normalize_divisors,
    permutation_orbits,
)

from conftest import apply, congruence_elements, dd_is_zero


# -- test-local dense SNF oracle ------------------------------------------------

def dense_snf(M):
    M = [row[:] for row in M]
    m, n = len(M), len(M[0]) if M else 0
    res = []
    s = 0

    def find_min(s):
        best = None
        for i in range(s, m):
            for j in range(s, n):
                if M[i][j] and (best is None or abs(M[i][j]) < abs(M[best[0]][best[1]])):
                    best = (i, j)
        return best

    while s < min(m, n):
        t = find_min(s)
        if t is None:
            break
        M[s], M[t[0]] = M[t[0]], M[s]
        for r in range(m):
            M[r][s], M[r][t[1]] = M[r][t[1]], M[r][s]
        dirty = True
        while dirty:
            dirty = False
            for i in range(s + 1, m):
                if M[i][s]:
                    q = M[i][s] // M[s][s]
                    for j in range(n):
                        M[i][j] -= q * M[s][j]
                    if M[i][s]:
                        dirty = True
            for j in range(s + 1, n):
                if M[s][j]:
                    q = M[s][j] // M[s][s]
                    for i in range(m):
                        M[i][j] -= q * M[i][s]
                    if M[s][j]:
                        dirty = True
            if dirty:
                t = find_min(s)
                M[s], M[t[0]] = M[t[0]], M[s]
                for r in range(m):
                    M[r][s], M[r][t[1]] = M[r][t[1]], M[r][s]
        res.append(abs(M[s][s]))
        s += 1
    return len(res), normalize_divisors(res)


def kernel_basis(cols):
    """Test-local oracle: integer basis of the kernel of the matrix with
    sparse columns `cols`, as sparse vectors.

    The columns enter a lattice echelon form with trackers starting at the
    identity, and every unimodular step is applied to the trackers too, so
    the tracked operations form a unimodular U with mat*U = [pivots | 0]:
    the trackers of the columns that reduce to zero are a lattice basis of
    the whole integer kernel.
    """
    def comb(d0, a, d1, b):
        out = {k: a * d0.get(k, 0) + b * d1.get(k, 0) for k in d0.keys() | d1.keys()}
        return {k: v for k, v in out.items() if v}

    def ext_gcd(a, b):
        if b == 0:
            return (a, 1, 0) if a > 0 else (-a, -1, 0)
        g, x, y = ext_gcd(b, a % b)
        return g, y, x - (a // b) * y

    pivots, tracks, out = {}, {}, []
    for j, vec in enumerate(cols):
        track = {j: 1}
        while vec:
            lead = min(vec)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead], tracks[lead] = vec, track
                break
            a, b = vec[lead], piv[lead]
            if a % b == 0:
                vec = comb(vec, 1, piv, -(a // b))
                track = comb(track, 1, tracks[lead], -(a // b))
            else:
                # new pivot = x*piv + y*vec, new vec = -(a/g)*piv + (b/g)*vec (det 1)
                g, x, y = ext_gcd(b, a)
                pivots[lead] = comb(piv, x, vec, y)
                vec = comb(piv, -(a // g), vec, b // g)
                old = tracks[lead]
                tracks[lead] = comb(old, x, track, y)
                track = comb(old, -(a // g), track, b // g)
        else:
            out.append(track)
    return out


def sparse_rank(vectors):
    """Test-local oracle: the rank of the vectors by `IntEchelon` alone."""
    ech = IntEchelon()
    for v in vectors:
        ech.add(v)
    return ech.rank


def to_sparse(M):
    m = len(M)
    n = len(M[0]) if M else 0
    return [{i: M[i][j] for i in range(m) if M[i][j]} for j in range(n)]


def test_smith_examples():
    assert smith_rank_and_divisors([{}, {}]) == (0, [])
    assert smith_rank_and_divisors([{0: 2}, {1: 3}]) == (2, [1, 6])
    cols = [{0: -1, 1: 1}, {1: -1, 2: 1}, {2: -1, 3: 1}, {0: -1, 3: 1}]
    rank, _ = smith_rank_and_divisors(cols)
    assert rank == 3


def test_divisor_chain_normalisation_frozen_cases():
    # hand-worked invariant factors of diagonal forms
    assert normalize_divisors([2, 3]) == [1, 6]
    assert normalize_divisors([4, 6]) == [2, 12]
    assert normalize_divisors([6, 4, 10]) == [2, 2, 60]
    assert normalize_divisors([1, 1, 5]) == [1, 1, 5]
    assert normalize_divisors([]) == []


def determinantal_factors(xs):
    """Test oracle: the invariant factors of diag(xs), nonzero entries, by
    their definition.  The nonzero k x k minors of a diagonal matrix are the
    products of k of its entries; d_k is their gcd, and the k-th invariant
    factor is d_k / d_(k-1).  (`dense_snf` ends in `normalize_divisors`, so
    it is no oracle for it.)"""
    d = [1] + [math.gcd(*map(math.prod, itertools.combinations(xs, k))) for k in range(1, len(xs) + 1)]
    return [d[k] // d[k - 1] for k in range(1, len(d))]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(1, 60).flatmap(lambda x: st.sampled_from([x, -x])), max_size=8))
def test_divisor_chain_is_the_smith_form_of_the_diagonal(xs):
    assert normalize_divisors(xs) == determinantal_factors(xs)


SMITH_CASES = [
    # no unit entry: everything goes to the residual
    [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
    [[2, 4], [4, 2]],
    # the first column is stashed, then the second leads on its row 0
    [[2, 1], [3, 0]],
    [[2, 1, 0], [3, 0, 1], [4, 0, 0]],
    # -1 leads
    [[-1, 1], [1, 0]],
    [[-1, 2, 1], [0, -1, 3], [2, 2, -1]],
    [[0, -1], [-1, 2], [2, 2]],
]


def test_smith_against_dense_oracle():
    for M in SMITH_CASES:
        assert smith_rank_and_divisors(to_sparse(M)) == dense_snf(M), M
    random.seed(42)
    for _ in range(250):
        m = random.randrange(1, 6)
        n = random.randrange(1, 6)
        M = [[random.randrange(-8, 9) for _ in range(n)] for _ in range(m)]
        assert smith_rank_and_divisors(to_sparse(M)) == dense_snf(M), M


def test_kernel_basis_is_exact_integer_kernel():
    random.seed(5)
    for _ in range(120):
        m = random.randrange(1, 5)
        n = random.randrange(1, 6)
        M = [[random.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        sp = to_sparse(M)
        kb = kernel_basis(sp)
        rank, _ = smith_rank_and_divisors(sp)
        assert len(kb) == n - rank
        for vec in kb:
            assert not apply(sp, vec)
        assert sparse_rank(kb) == len(kb)


def matrices(max_dim, entries):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m)
        )
    )


# entries in -2..2 give many +-1 pivots next to non-unit residual columns
small_matrices = st.one_of(matrices(8, st.integers(-9, 9)), matrices(10, st.integers(-2, 2)))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(small_matrices)
def test_smith_and_kernel_properties(M):
    sp = to_sparse(M)
    rank, divisors = smith_rank_and_divisors(sp)
    assert (rank, divisors) == dense_snf(M)
    assert sparse_rank(sp) == rank
    # minors of these matrices are far below MOD_P, so no rank is lost mod p
    ech = ModPEchelon()
    assert sum(ech.add(col) for col in sp) == ech.rank == rank
    kb = kernel_basis(sp)
    k = len(M[0]) - rank
    assert len(kb) == k
    assert all(not apply(sp, vec) for vec in kb)
    # the basis spans the saturated kernel, not a finite-index sublattice
    assert smith_rank_and_divisors(kb) == (k, [1] * k)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(small_matrices, st.integers(0, 3), st.integers(0, 2))
def test_smith_units_are_an_identity_block(M, k, zeros):
    """smith_rank_and_divisors(M, units=k) is the Smith data of I_k + M.

    `zeros` keeps explicit zero entries in the sparse columns: none (0),
    all (1), or those at an even i + j (2); they must read as absent."""
    block = [[int(i == j) for j in range(k)] + [0] * len(M[0]) for i in range(k)]
    block += [[0] * k + row for row in M]
    sp = [
        {i: row[j] for i, row in enumerate(M) if row[j] or zeros == 1 or zeros == 2 and (i + j) % 2 == 0}
        for j in range(len(M[0]))
    ]
    assert smith_rank_and_divisors(sp, units=k) == dense_snf(block)
    assert smith_rank_and_divisors(sp)[0] == dense_snf(M)[0]


P = MOD_P
# the edges of the balanced residue range (-p/2, p/2], multiples of p,
# their neighbours, and integers far beyond p
RESIDUE_EDGES = [
    0, 1, -1, 2, -3, P, -P, 2 * P, P - 1, P + 1, -P - 1,
    P // 2, P // 2 + 1, -(P // 2), -(P // 2) - 1, 3**200, -(2**300) + 7,
]
mod_p_entries = st.one_of(
    st.sampled_from(RESIDUE_EDGES), st.integers(-5, 5), st.integers(-(2**70), 2**70)
)


def dense_rank_mod_p(vectors, size):
    """Test-local oracle: rank mod MOD_P by Gaussian elimination on dense rows."""
    rows = [[v.get(i, 0) % P for i in range(size)] for v in vectors]
    rank = 0
    for col in range(size):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, P)
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] * inv % P
                rows[r] = [(a - f * b) % P for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_mod_p_echelon_against_dense_elimination(data):
    size = 6
    vectors = []
    ech = ModPEchelon()
    for _ in range(data.draw(st.integers(1, 9))):
        vec = data.draw(st.dictionaries(st.integers(0, size - 1), mod_p_entries, max_size=size))
        if vectors and data.draw(st.booleans()):
            # plus a combination of earlier vectors: coefficients such as p
            # or p + 1 make it depend on them mod p but not over Q
            for old in data.draw(st.lists(st.sampled_from(vectors), max_size=3)):
                c = data.draw(mod_p_entries)
                for k, v in old.items():
                    vec[k] = vec.get(k, 0) + c * v
            vec = {k: v for k, v in vec.items() if v}
        before, snapshot = ech.rank, dict(vec)
        vectors.append(vec)
        want = dense_rank_mod_p(vectors, size)
        assert ech.add(vec) == (want > before)
        assert ech.rank == want
        assert vec == snapshot


class PlainModPEchelon:
    """Test-local oracle: `ModPEchelon.add` as it was before the set of
    single-entry pivots, one reduction pass over every pivot at the
    vector's entries."""

    def __init__(self):
        self.pivots = {}
        self._touching = {}

    def add(self, vec):
        lo, hi, pivots, touching = -_HALF_P, _HALF_P, self.pivots, self._touching
        vals = vec.values()
        if vals and (min(vals) < lo or max(vals) > hi or 0 in vals):
            vec = {k: b for k, v in vec.items() if (b := _balanced(v))}
        else:
            vec = dict(vec)
        for lead in [k for k in vec if k in pivots]:
            c = vec[lead]
            for k, v in pivots[lead].items():
                nv = vec.get(k, 0) - c * v
                if not lo <= nv <= hi:
                    nv = _balanced(nv)
                if nv:
                    vec[k] = nv
                else:
                    del vec[k]
        if not vec:
            return False
        lead = min(vec, key=lambda k: (len(touching.get(k, ())), k))
        c = vec[lead]
        if c == 1:
            new = vec
        elif c == -1:
            new = {k: -v for k, v in vec.items()}
        else:
            inv = pow(c, -1, MOD_P)
            new = {k: _balanced(v * inv) for k, v in vec.items()}
        for other in touching.pop(lead, ()):
            row = pivots[other]
            c = row[lead]
            for k, v in new.items():
                nv = row.get(k, 0) - c * v
                if not lo <= nv <= hi:
                    nv = _balanced(nv)
                if nv:
                    if k not in row:
                        touching.setdefault(k, set()).add(other)
                    row[k] = nv
                else:
                    del row[k]
                    if k != lead:
                        touching[k].discard(other)
        pivots[lead] = new
        for k in new:
            if k != lead:
                touching.setdefault(k, set()).add(lead)
        return True


def _echelon_vectors(size):
    """Strategy for a list of steps: a fresh vector on a small support, a
    repeat of an earlier step, or a vector on the leads held so far (drawn
    as indices into them, read when the step runs), plus maybe one more
    column."""
    fresh = st.dictionaries(st.integers(0, size - 1), mod_p_entries, max_size=3)
    on_leads = st.tuples(
        st.lists(st.tuples(st.integers(0, size - 1), mod_p_entries), min_size=1, max_size=size),
        st.one_of(st.none(), st.tuples(st.integers(0, size - 1), mod_p_entries)),
    )
    return st.lists(st.one_of(
        st.tuples(st.just("fresh"), fresh),
        st.tuples(st.just("repeat"), st.integers(0, 20)),
        st.tuples(st.just("leads"), on_leads),
    ), min_size=1, max_size=12)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_echelon_vectors(5))
# the pivot at 1 clears column 1 from the pivot at 0 and leaves it e_0,
# which joins the set; then a vector on both leads, and one off them
@example([("fresh", {0: 1, 1: 1}), ("fresh", {1: 1}), ("leads", ([(0, 3), (1, -P - 2)], None)),
          ("fresh", {0: 1, 2: 1})])
def test_single_entry_pivots_keep_the_plain_echelon(steps):
    ech, plain, added = ModPEchelon(), PlainModPEchelon(), []
    for kind, arg in steps:
        if kind == "fresh":
            vec = arg
        elif kind == "repeat":
            vec = dict(added[arg % len(added)]) if added else {}
        else:
            leads = sorted(plain.pivots)
            picks, extra = arg
            vec = {leads[i % len(leads)]: v for i, v in picks} if leads else {}
            if extra is not None:
                vec[extra[0]] = extra[1]
        snapshot = dict(vec)
        added.append(vec)
        assert ech.add(vec) == plain.add(vec)
        assert vec == snapshot
        assert ech.pivots == plain.pivots
        assert ech._touching == plain._touching
        assert ech._units == {k for k, piv in ech.pivots.items() if len(piv) == 1}


def test_smith_rank_of_orbit_sum_boundaries_with_no_unit_entry(built, monkeypatch):
    # Gamma((2)) on the top chains of T3(Z/4) and T4(Z/4): the boundaries of
    # the orbit sums all have content 2 and no unit entry, so the unit-pivot
    # pass finds nothing on them; `fixed_subspace_dim` divides each by its
    # content, the unit-pivot pass then finds the whole rank, and no
    # lattice echelon step runs
    def no_lattice_echelon(self, vec):
        raise AssertionError("IntEchelon.add on a residual with a common content")

    cx = built.complex("Z/4", 3)
    d = chain_complex(cx)[1]
    perms = [cx.simplex_permutation(g, 1) for g in congruence_generators(cx.ring, 3, [2])]
    sums = [dict.fromkeys(orbit, 1) for orbit in permutation_orbits(len(d), perms)]
    mat = [apply(d, s) for s in sums]
    assert {abs(v) for col in mat for v in col.values()} == {2}
    assert _unit_pivots(mat) == (0, mat)
    dense = [[col.get(i, 0) for col in mat] for i in range(cx.f_vector[0])]
    halves = [{r: v // 2 for r, v in col.items()} for col in mat]
    monkeypatch.setattr(IntEchelon, "add", no_lattice_echelon)
    # halving every column keeps the rank over Q
    assert smith_rank_and_divisors(halves)[0] == dense_snf(dense)[0] == 13
    # 21 orbits less rank 13: the rank of St_3(Z/2)
    assert fixed_subspace_dim(cx, 1, perms) == len(sums) - 13 == 8
    cx4 = built.complex("Z/4", 4)
    d4 = chain_complex(cx4)[2]
    perms4 = [cx4.simplex_permutation(g, 2) for g in congruence_generators(cx4.ring, 4, [2])]
    orbits4 = permutation_orbits(len(d4), perms4)
    assert len(orbits4) == 315
    assert all(math.gcd(*apply(d4, dict.fromkeys(o, 1)).values()) == 2 for o in orbits4)
    got = fixed_subspace_dim(cx4, 2, perms4)
    assert got == steinberg_rank(parse_ring_spec("Z/2"), 4) == 64


def test_chain_complex_structure(built):
    # the augmentation: one row, every vertex sent to 1
    cc = chain_complex(built.complex("Z/4", 2))
    assert len(cc) == 1
    assert all(col == {0: 1} for col in cc[0])
    cx3 = built.complex("F2", 3)
    cc3 = chain_complex(cx3)
    d1 = cc3[1]
    assert cx3.f_vector == [14, 21] and len(d1) == 21
    for col in d1:
        assert sorted(col.values()) == [-1, 1]
        assert all(0 <= r < 14 for r in col)
    assert dd_is_zero(cc3)


@pytest.mark.parametrize("label,n", [("Z/4", 3), ("F2", 4), ("Z/6", 3)])
def test_consumers_never_mutate_a_boundary_column(built, label, n):
    """Read-only columns give the same ranks as the plain boundaries."""
    cc = chain_complex(built.complex(label, n))
    frozen = [[types.MappingProxyType(col) for col in b] for b in cc]
    assert all(isinstance(col, types.MappingProxyType) for b in frozen for col in b)
    assert dd_is_zero(frozen)
    assert [smith_rank_and_divisors(b) for b in frozen] == [smith_rank_and_divisors(b) for b in cc]


def test_dd_zero_everywhere(built):
    for label, n, m in [("Z/4", 3, None), ("F2", 4, None), ("Z/6", 2, None), ("Z/4", 4, 2)]:
        assert dd_is_zero(chain_complex(built.complex(label, n, m)))


def closure_complex(facets):
    """Tiny standalone simplicial complex for oracle cases."""

    simplices = {}
    for f in facets:
        for size in range(1, len(f) + 1):
            for s in itertools.combinations(sorted(f), size):
                simplices.setdefault(size - 1, set()).add(s)
    return SimplicialComplex([sorted(simplices[d]) for d in sorted(simplices)])


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=4), max_size=9))
def test_purity_is_one_size_of_maximal_sets(facets):
    maximal = [f for f in facets if not any(f < g for g in facets)]
    assert closure_complex(facets).is_pure() == (len({len(f) for f in maximal}) <= 1)


def test_purity_hand_cases():
    assert not closure_complex([(0, 1, 2), (2, 3)]).is_pure()  # dangling edge
    assert not closure_complex([(0, 1, 2), (3,)]).is_pure()  # isolated vertex
    assert closure_complex([]).is_pure()
    assert closure_complex([(0,), (1,), (2,)]).is_pure()


RP2_FACETS = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
              (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]


def test_projective_plane_torsion():
    rp2 = closure_complex(RP2_FACETS)
    assert dd_is_zero(chain_complex(rp2))
    hom = reduced_homology(rp2)
    assert hom.betti == [0, 0, 0]
    assert hom.torsion == [[], [2], []]


def test_circle_and_sphere():
    circle = closure_complex([(0, 1), (1, 2), (0, 2)])
    assert reduced_homology(circle).betti == [0, 1]
    sphere = closure_complex([t for t in itertools.combinations(range(4), 3)])
    assert reduced_homology(sphere).betti == [0, 0, 1]


def smith_homology(boundaries, f):
    """Test oracle: reduced homology from Smith data of every boundary (a
    list of sparse columns per degree) of a complex with f-vector f, with no
    coreduction."""
    smith = [smith_rank_and_divisors(b) for b in boundaries] + [(0, [])]
    betti = [f[d] - smith[d][0] - smith[d + 1][0] for d in range(len(f))]
    torsion = [[x for x in smith[d + 1][1] if x != 1] for d in range(len(f))]
    return HomologyResult(betti, torsion, f)


def residual_complex(boundaries, levels):
    """The boundaries of the survivors of coreduction, restricted and
    renumbered, and their f-vector; `levels` are the survivors of
    `coreduce`, whose level 0 (the empty simplex) is dropped, so the
    augmentation has no row."""
    survivors = levels[1:]
    restricted = []
    for d, cells in enumerate(survivors):
        below = {c: i for i, c in enumerate(survivors[d - 1])} if d else {}
        restricted.append([{below[r]: v for r, v in boundaries[d][c].items() if r in below} for c in cells])
    return restricted, [len(cells) for cells in survivors]


def same_boundaries(got, want, survivors):
    """Equal boundary lists, each boundary out of degree d with its rows
    among the len(survivors[d]) surviving (d-1)-cells."""
    return got == want and all(
        0 <= r < len(survivors[d]) for d, b in enumerate(got) for col in b for r in col
    )


def coreduce_columns(boundaries, f):
    """Test oracle: coreduction read from the boundary columns of a complex
    with f-vector f, the level sweeps of `coreduce` with a +-1 incidence
    test; the survivors of each level and the pair count of each degree."""
    if not f:
        return [], []
    alive = [bytearray(b"\x01") * n for n in [1, *f]]
    pairs = [0] * len(f)
    for d, boundary in enumerate(boundaries):
        below, here = alive[d], alive[d + 1]
        changed = True
        while changed:
            changed = False
            for a, col in enumerate(boundary):
                if here[a]:
                    live = [b for b in col if below[b]]
                    if len(live) == 1 and col[live[0]] in (1, -1):
                        here[a] = below[live[0]] = 0
                        pairs[d] += 1
                        changed = True
    return [[a for a, x in enumerate(level) if x] for level in alive], pairs


@pytest.mark.parametrize("label,n", [
    ("Z/6", 2), ("F2", 3), ("Z/4", 3), ("Z/6", 3), ("Z/8", 3), ("Z/9", 3), ("F3", 4), ("Z/4", 4),
])
def test_coreduction_leaves_b_top_top_cells(built, label, n):
    survivors, _, _ = coreduce(built.complex(label, n))
    b_top = built.homology(label, n).betti[-1]
    # level 0 is the empty simplex, paired with the first vertex
    assert [len(cells) for cells in survivors] == [0] * (n - 1) + [b_top]
    assert b_top == steinberg_rank(parse_ring_spec(label), n)


@pytest.mark.parametrize("label,n", [("Z/6", 2), ("Z/4", 3), ("Z/6", 3)])
def test_top_cycles_keep_their_rank_mod_p_on_the_survivors(built, label, n):
    cx = built.complex(label, n)
    kept = set(coreduce(cx)[0][-1])
    basis = kernel_basis(chain_complex(cx)[-1])
    rng = random.Random(11)
    # coefficients that vanish mod p drop a basis cycle from the combination
    coeffs = [-2, -1, 1, 2, 3, MOD_P, 2 * MOD_P, MOD_P + 1]
    cycles = []
    for _ in range(len(basis)):
        z = {}
        for i in rng.sample(range(len(basis)), min(3, len(basis))):
            c = rng.choice(coeffs)
            for k, v in basis[i].items():
                z[k] = z.get(k, 0) + c * v
        cycles.append({k: v for k, v in z.items() if v})
    # a basis of a saturated lattice stays independent mod p
    cycles += basis
    full, restricted = ModPEchelon(), ModPEchelon()
    for z in cycles:
        assert full.add(z) == restricted.add({k: v for k, v in z.items() if k in kept})
        assert full.rank == restricted.rank
    assert full.rank == len(basis)


def test_coreduction_keeps_the_torsion_of_rp2():
    rp2 = closure_complex(RP2_FACETS)
    cc = chain_complex(rp2)
    survivors, _, boundaries = coreduce(rp2)
    # survivors below the top degree: the coreduced boundary carries the 2
    assert survivors[2] and survivors[3]
    residual, f = residual_complex(cc, survivors)
    assert same_boundaries(boundaries, residual, survivors)
    assert dd_is_zero(residual)
    assert smith_homology(residual, f) == smith_homology(cc, rp2.f_vector) == reduced_homology(rp2)
    assert reduced_homology(rp2).torsion == [[], [2], []]
    # no survivor at the empty simplex: the augmentation has no row
    assert len(survivors[0]) == 0 and not any(boundaries[0])


def test_coreduction_sweeps_until_a_sweep_removes_nothing():
    # the path 0-6-5-4-3-2-1: each edge is freed by the one after it in
    # index order, so the edge sweep removes one pair per pass
    path = closure_complex([(0, 6), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
    survivors, pairs, boundaries = coreduce(path)
    assert (survivors, pairs) == ([[], [], []], [1, 6])
    assert [(len(s), b) for s, b in zip(survivors, boundaries)] == [(0, []), (0, [])]
    assert reduced_homology(path) == smith_homology(chain_complex(path), path.f_vector)


class CountedLevel(list):
    """A level of face tuples that counts the loops run over it."""

    sweeps = 0

    def __iter__(self):
        self.sweeps += 1
        return super().__iter__()


@pytest.mark.parametrize("label,n", [("Z/9", 3), ("F7", 3), ("F3", 4), ("F2", 5)])
def test_each_degree_is_swept_once(built, monkeypatch, label, n):
    # every degree's first sweep pairs off every live face below it; the
    # sweep then stops, and no empty sweep follows
    cx = built.complex(label, n)
    want = coreduce_columns(chain_complex(cx), cx.f_vector)
    levels, faces = [], cx.faces

    def counted(d):
        levels.append(CountedLevel(faces(d)))
        return levels[-1]

    monkeypatch.setattr(cx, "faces", counted)
    survivors, pairs, _ = coreduce(cx)
    assert [level.sweeps for level in levels] == [1] * (n - 1)
    assert (survivors, pairs) == want


def test_homology_holds_few_bytes_per_cell():
    # the whole route from the complex: one level of face tuples at a time
    # (no boundary reads the faces of a level over a level without
    # survivors), alive flags and the coreduced complex, no boundary matrix
    cx = build_tits_complex(make_ring(parse_ring_spec("F2")), 5)
    cells = 1 + sum(cx.f_vector)
    assert cells == 27808
    tracemalloc.start()
    try:
        hom = reduced_homology(cx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hom.betti == [0, 0, 0, 1024]
    assert peak < 60 * cells


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=4), min_size=1, max_size=9))
def test_coreduction_then_smith_equals_smith(facets):
    cx = closure_complex([tuple(f) for f in facets])
    cc = chain_complex(cx)
    survivors, pairs, boundaries = coreduce(cx)
    assert (survivors, pairs) == coreduce_columns(cc, cx.f_vector)
    residual, f = residual_complex(cc, survivors)
    assert same_boundaries(boundaries, residual, survivors)
    assert dd_is_zero(residual)
    assert smith_homology(residual, f) == smith_homology(cc, cx.f_vector) == reduced_homology(cx)


@pytest.mark.parametrize("label,n,m", [
    ("F2", 3, None), ("Z/4", 3, None), ("Z/6", 3, None), ("Z/9", 3, None),
    ("F2[e]^2", 3, None), ("Z/2xZ/2", 3, None), ("F2", 4, None), ("F3", 4, None),
    ("Z/4", 4, 3), ("Z/6", 3, 1),
])
def test_reduced_homology_equals_smith_on_every_full_boundary(built, label, n, m):
    cx = built.complex(label, n, m)
    cc, f = chain_complex(cx), cx.f_vector
    assert reduced_homology(cx) == smith_homology(cc, f)
    # f_d - s_d = p_d + p_{d+1}: every removed cell is in exactly one pair
    survivors, pairs, boundaries = coreduce(cx)
    assert (survivors, pairs) == coreduce_columns(cc, f)
    assert same_boundaries(boundaries, residual_complex(cc, survivors)[0], survivors)
    assert pairs[0] == 1 - len(survivors[0])
    for d in range(cx.dim):
        assert f[d] - len(survivors[d + 1]) == pairs[d] + pairs[d + 1]
    assert f[-1] - len(survivors[-1]) == pairs[-1]


def test_reduced_homology_of_the_smallest_complexes():
    f2 = make_ring(parse_ring_spec("F2"))
    # n = 1: no proper nonzero summand, the empty complex
    empty = build_tits_complex(f2, 1)
    assert empty.dim == -1
    assert coreduce(empty) == ([], [], [])
    assert reduced_homology(empty) == smith_homology(chain_complex(empty), empty.f_vector) == HomologyResult([], [], [])
    # n = 2: the three lines of F2^2, one of them paired with the empty simplex
    cx = build_tits_complex(f2, 2)
    survivors, pairs, [boundary] = coreduce(cx)
    assert (survivors, pairs, len(survivors[0]), boundary) == ([[], [1, 2]], [1], 0, [{}, {}])
    assert reduced_homology(cx) == smith_homology(chain_complex(cx), cx.f_vector)
    assert reduced_homology(cx).betti == [2]


@pytest.mark.parametrize("label,n,ranks", [
    ("F2", 3, [1, 13]), ("Z/9", 3, [1, 233]), ("F3", 4, [1, 209, 1351]),
])
def test_reduced_homology_calls_smith_once_per_degree_in_order(built, monkeypatch, label, n, ranks):
    """One Smith call per boundary of the coreduced complex, degree 0
    first, each returning the full boundary's rank: the per-degree Smith
    spans a trace reads."""
    cx = built.complex(label, n)
    survivors = coreduce(cx)[0]
    calls = []

    def recording(cols, units=0):
        res = smith_rank_and_divisors(cols, units=units)
        calls.append((cols, res[0]))
        return res

    monkeypatch.setattr(homology, "smith_rank_and_divisors", recording)
    reduced_homology(cx)
    assert len(calls) == cx.dim + 1
    # the boundary out of degree d: the surviving d-cells as columns, on
    # the surviving (d-1)-cells as rows
    assert [len(cols) for cols, _ in calls] == [len(level) for level in survivors[1:]]
    for cols, rows in zip([cols for cols, _ in calls], survivors):
        assert all(0 <= r < len(rows) for col in cols for r in col)
    assert [rank for _, rank in calls] == ranks == [smith_rank_and_divisors(b)[0] for b in chain_complex(cx)]


def test_homology_known_rank_values(built):
    assert built.homology("Z/4", 2).betti == [5]
    assert built.homology("F2", 3).betti == [0, 8]
    hom = built.homology("Z/4", 3)
    assert hom.betti == [0, 113]
    assert hom.torsion == [[], []]


def test_t4_z4_homology_matches_rank_recursion(built):
    # brute-force n = 4 column of the rank table: T4(Z/4) from its boundaries
    hom = built.homology("Z/4", 4)
    assert hom.betti == [0, 0, 10879]
    assert hom.torsion == [[], [], []]
    assert hom.betti[-1] == steinberg_rank(parse_ring_spec("Z/4"), 4)


def test_t4_f2e2_homology_equals_t4_z4(built):
    # the n = 4 homotopy-equivalence check, by brute force on both complexes
    assert built.homology("F2[e]^2", 4) == built.homology("Z/4", 4)
    assert built.homology("F2[e]^2", 4).betti == [0, 0, 10879]


def test_t5_f2_homology_matches_rank_recursion():
    f2 = parse_ring_spec("F2")
    hom = reduced_homology(build_tits_complex(make_ring(f2), 5))
    assert hom.betti == [0, 0, 0, 1024] == [0, 0, 0, steinberg_rank(f2, 5)]
    assert hom.torsion == [[], [], [], []]


def test_top_degree_torsion_free(built):
    for label, n, m in [("Z/4", 2, None), ("Z/4", 3, None), ("F2", 3, None), ("Z/6", 2, None)]:
        hom = built.homology(label, n, m)
        assert hom.torsion[-1] == []


def test_euler_characteristic(built):
    for label, n, m in [("Z/4", 2, None), ("Z/4", 3, None), ("F2", 4, None), ("Z/4", 4, 2)]:
        hom = built.homology(label, n, m)
        assert hom.f_vector == built.complex(label, n, m).f_vector
        assert euler_characteristic_checks(hom)


def test_betti_invariant_under_relabeling(built):
    random.seed(13)
    cx = built.complex("F2", 3)
    hom = built.homology("F2", 3)
    perm = list(range(cx.f_vector[0]))
    random.shuffle(perm)
    # permute vertex labels: each edge becomes (perm[i], perm[j]), sorted,
    # so the vertex order and the orientation of the edges change
    shuffled = closure_complex([(perm[a], perm[b]) for a, b in cx.simplices[1]])
    assert shuffled.f_vector == cx.f_vector
    assert reduced_homology(shuffled).betti == hom.betti


def test_induced_top_map_identity(built):
    cx = built.complex("Z/4", 2)
    red = reduction_map(cx, [0])
    itm = induced_top_map(red)
    assert itm.rank == itm.src_cycle_rank == itm.dst_cycle_rank == 5


def test_induced_top_map_reduction(built):
    cx = built.complex("Z/4", 2)
    red = reduction_map(cx, [2])
    itm = induced_top_map(red)
    assert itm.rank == 2
    assert itm.src_cycle_rank == 5
    assert itm.kernel_rank == 3
    cx3 = built.complex("Z/4", 3)
    red3 = reduction_map(cx3, [2])
    itm3 = induced_top_map(red3)
    assert itm3.rank == 8
    assert itm3.kernel_rank == 113 - 8


@pytest.mark.parametrize("label,n,ideal,want", [
    ("Z/8", 3, 2, (8, 1121, 8)),
    ("Z/9", 3, 3, (27, 1171, 27)),
    ("Z/4", 4, 2, (64, 10879, 64)),
])
def test_induced_top_map_onto_the_quotient_ring(built, label, n, ideal, want):
    # R -> R/I is onto St_n(R/I): rank St_n(R/I) = rank of the induced map
    red = reduction_map(built.complex(label, n), [ideal])
    itm = induced_top_map(red)
    assert (itm.rank, itm.src_cycle_rank, itm.dst_cycle_rank) == want
    assert itm.rank == steinberg_rank(RingSpec.modular(ideal), n)


def test_fixed_subspace_trivial_group(built):
    assert fixed_subspace_dim(built.complex("Z/4", 2), 0, []) == 5


def test_fixed_subspace_congruence(built):
    cx = built.complex("Z/4", 2)
    gens = congruence_generators(cx.ring, 2, [2])
    perms = [cx.simplex_permutation(g, 0) for g in gens]
    assert fixed_subspace_dim(cx, 0, perms) == 2


def test_fixed_subspace_z8(built):
    cx = built.complex("Z/8", 2)
    for ideal, want in [([2], 2), ([4], 5)]:
        gens = congruence_generators(cx.ring, 2, ideal)
        perms = [cx.simplex_permutation(g, 0) for g in gens]
        assert fixed_subspace_dim(cx, 0, perms) == want


def stacked_fixed_dim(cx, degree, simplex_perms):
    """Test-only oracle: the fixed space as {z in Z : (g-1)z in B for all
    generators g} / B, from one stacked system with a (g-1)Z block and a
    copy of B per generator, on the boundaries `chain_complex` exports."""
    cc = chain_complex(cx)
    z_basis = kernel_basis(cc[degree])
    if not z_basis:
        return 0
    b_cols = cc[degree + 1] if degree < cx.dim else []
    rank_b = sparse_rank(b_cols)
    f_d = cx.f_vector[degree]
    big = []
    for z in z_basis:
        col = {}
        for gi, perm in enumerate(simplex_perms):
            offset = gi * f_d
            for r, v in z.items():
                col[perm[r] + offset] = col.get(perm[r] + offset, 0) + v
                col[r + offset] = col.get(r + offset, 0) - v
        big.append({r: v for r, v in col.items() if v})
    for gi in range(len(simplex_perms)):
        big.extend({r + gi * f_d: v for r, v in bc.items()} for bc in b_cols)
    rank_big = sparse_rank(big)
    return len(z_basis) - (rank_big - len(simplex_perms) * rank_b) - rank_b


@pytest.mark.parametrize("label,n,ideal", [("F2", 3, None), ("Z/4", 3, [2]), ("F3", 3, None), ("Z/8", 2, [2])])
def test_fixed_subspace_matches_stacked_oracle(built, label, n, ideal):
    # random subsets of GL_n generators, and of congruence subgroup elements
    cx = built.complex(label, n)
    pools = [gl_generators(cx.ring, n)]
    if ideal:
        pools.append(congruence_elements(cx.ring, n, ideal))
    rng = random.Random(f"{label}-{n}")
    for degree in range(cx.dim + 1):
        for trial in range(6):
            chosen = rng.sample(pools[trial % len(pools)], rng.randint(0, 3))
            perms = [cx.simplex_permutation(g, degree) for g in chosen]
            want = stacked_fixed_dim(cx, degree, perms)
            assert fixed_subspace_dim(cx, degree, perms) == want, (label, n, degree, trial)


def test_fixed_subspace_congruence_n3(built):
    # Gamma((2)) in GL_3(Z/4), 511 elements besides the identity, from 9
    # generators: the invariants of St_3(Z/4) have the rank of St_3(Z/2)
    cx = built.complex("Z/4", 3)
    assert len(congruence_elements(cx.ring, 3, [2])) == 511
    gens = congruence_generators(cx.ring, 3, [2])
    assert len(gens) == 9
    perms = [cx.simplex_permutation(g, 1) for g in gens]
    got = fixed_subspace_dim(cx, 1, perms)
    assert got == steinberg_rank(RingSpec.modular(2), 3) == 8


@pytest.mark.parametrize("label,ideal", [("Z/8", 2), ("Z/8", 4), ("Z/9", 3)])
def test_fixed_subspace_congruence_levels_n3(built, label, ideal):
    # the Gamma(I)-invariants of St_3(R) have the rank of St_3(R/I)
    cx = built.complex(label, 3)
    perms = [cx.simplex_permutation(g, 1) for g in congruence_generators(cx.ring, 3, [ideal])]
    got = fixed_subspace_dim(cx, 1, perms)
    assert got == steinberg_rank(RingSpec.modular(ideal), 3)


def test_fixed_subspace_congruence_n4(built):
    # Gamma((2)) in GL_4(Z/4) from 16 generators: fixed top dimension
    # 64 = rank St_4(Z/2), on the session's T4(Z/4)
    cx = built.complex("Z/4", 4)
    gens = congruence_generators(cx.ring, 4, [2])
    assert len(gens) == 16
    perms = [cx.simplex_permutation(g, 2) for g in gens]
    got = fixed_subspace_dim(cx, 2, perms)
    assert got == steinberg_rank(RingSpec.modular(2), 4) == 64


def test_fixed_subspace_with_boundaries():
    # permutations must preserve simplex orientation (always true for flag
    # complexes, where ranks are strictly increasing along a simplex)
    # two isolated points swapped: H0~ is spanned by [0]-[1], negated by the
    # swap, so the fixed space is 0; the identity fixes everything
    two_points = closure_complex([(0,), (1,)])
    assert fixed_subspace_dim(two_points, 0, [[1, 0]]) == 0
    assert fixed_subspace_dim(two_points, 0, [[0, 1]]) == 1
    # two disjoint edges swapped; the boundary space is nonzero in degree 0
    # and H0~ is spanned by [0]-[2], again negated by the swap
    edges = closure_complex([(0, 1), (2, 3)])
    swap_vertices = [2, 3, 0, 1]
    swap_edges = [1, 0]
    assert reduced_homology(edges).betti == [1, 0]
    assert fixed_subspace_dim(edges, 0, [swap_vertices]) == 0
    assert fixed_subspace_dim(edges, 0, [list(range(4))]) == 1
    assert fixed_subspace_dim(edges, 1, [swap_edges]) == 0


def test_homology_result_serialization(built):
    hom = built.homology("Z/4", 2)
    doc = hom.to_json_dict()
    assert doc["schema_version"] == 1
    assert doc["homology"][0]["betti"] == 5
    assert HomologyResult([5], [[]], [6]) == hom


def union_find_orbits(size, perms):
    """Test-local oracle: orbits by union-find, merged to the least root."""
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in perms:
        for x, y in enumerate(perm):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
    orbits = {}
    for x in range(size):
        orbits.setdefault(find(x), []).append(x)
    return list(orbits.values())


def test_permutation_orbits_match_union_find():
    rng = random.Random(18)
    for _ in range(300):
        size = rng.randrange(0, 40)
        perms = []
        for _ in range(rng.randrange(0, 4)):
            # a random permutation of a third of the points, so orbits stay small
            perm = list(range(size))
            moved = rng.sample(range(size), size // 3)
            images = moved[:]
            rng.shuffle(images)
            for a, b in zip(moved, images):
                perm[a] = b
            perms.append(perm)
        assert permutation_orbits(size, iter(perms)) == union_find_orbits(size, perms)
