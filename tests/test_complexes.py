import itertools
import random

import pytest

from titscomplex import (
    Mat,
    RingSpec,
    apartment_class,
    apartment_span_rank,
    build_filtration,
    build_tits_complex,
    chamber_map,
    congruence_generators,
    elementary_matrix,
    enumerate_good_flags,
    gl_generators,
    grassmannian_size_formula,
    make_ring,
    parse_ring_spec,
    reduced_homology,
    reduction_map,
    steinberg_rank,
)
from titscomplex.grassmann import flag_type, proper_ranks
from titscomplex.linalg import span_if_free
from titscomplex.rings import BudgetExceeded
from titscomplex.verify import count_included_not_cofree

from conftest import congruence_elements, mat, vec


def test_build_examples(built):
    cx = built.complex("F2", 3)
    assert cx.f_vector == [14, 21]
    assert sum(1 for s in cx.vertices if s.rank == 1) == 7
    assert sum(1 for s in cx.vertices if s.rank == 2) == 7
    cx2 = built.complex("Z/4", 2)
    assert cx2.f_vector == [6]
    assert cx2.dim == 0
    cx3 = built.complex("Z/4", 3)
    assert cx3.f_vector == [56, 168]


def test_empty_complex():
    cx = build_tits_complex(make_ring(RingSpec.modular(4)), 1)
    assert cx.dim == -1
    assert cx.f_vector == []


def test_vertices_sorted_by_rank_then_fingerprint(built):
    cx = built.complex("F2", 3)
    keys = [(s.rank, tuple(sorted(s.members))) for s in cx.vertices]
    assert keys == sorted(keys)


def member_scan_edges(cx):
    """Test oracle: the pairs of vertices of rising rank whose member sets nest."""
    return [
        (i, j)
        for i, v in enumerate(cx.vertices)
        for j, w in enumerate(cx.vertices)
        if v.rank < w.rank and v.members <= w.members
    ]


@pytest.mark.parametrize(
    "label,n,m",
    [("Z/4", 3, None), ("Z/6", 3, None), ("Z/2xZ/3", 3, None), ("F2[e]^2", 3, None),
     ("Z/4", 4, None), ("Z/4", 4, 2)],
)
def test_edges_equal_member_set_scan(built, label, n, m):
    cx = built.complex(label, n, m)
    assert cx.simplices[1] == member_scan_edges(cx)


def test_simplices_respect_cofree_order(built):
    from titscomplex.linalg import quotient_free_rank_members

    for label in ["Z/4", "F2[e]^2", "Z/6", "Z/2xZ/3"]:
        cx = built.complex(label, 3)
        for i, j in cx.simplices[1]:
            v, w = cx.vertices[i], cx.vertices[j]
            gap = quotient_free_rank_members(cx.ring, 3, w.members, v.members)
            assert gap == w.rank - v.rank, (label, i, j)


def test_purity(built):
    for label, n in [("Z/4", 2), ("Z/4", 3), ("F2", 3), ("F2", 4), ("Z/6", 2)]:
        assert built.complex(label, n).is_pure(), (label, n)


def test_no_included_not_cofree_pairs(built):
    for label, n in [("Z/4", 3), ("F2", 4), ("Z/6", 2)]:
        assert count_included_not_cofree(built.complex(label, n)) == 0


def closed_flag_counts(spec, n):
    """f-vector of T_n(R) from |Gr| formulas: a chain of ranks r_0 < ... < r_d
    is counted by the product of |Gr_(r_(i+1) - r_i)^(n - r_i)| over its steps."""
    f = []
    for size in range(1, n):
        total = 0
        for ranks in itertools.combinations(range(1, n), size):
            count, prev = 1, 0
            for r in ranks:
                count *= grassmannian_size_formula(spec, n - prev, r - prev)
                prev = r
            total += count
        f.append(total)
    return f


def test_t4_face_counts_match_closed_flag_counts(built):
    for label in ["Z/4", "F2[e]^2"]:
        spec = parse_ring_spec(label)
        cx = built.complex(label, 4)
        assert cx.f_vector == closed_flag_counts(spec, 4) == [800, 10080, 20160], label


def test_filtration_examples(built):
    z4 = make_ring(RingSpec.modular(4))
    full = built.complex("Z/4", 3)
    filt = build_filtration(z4, 3, 2)
    assert filt.f_vector == full.f_vector
    assert [s.members for s in filt.vertices] == [s.members for s in full.vertices]
    rank1 = build_filtration(z4, 3, 1)
    assert rank1.f_vector == [28]
    f42 = built.complex("Z/4", 4, 2)
    assert f42.f_vector == [680, 3360]


def test_filtration_range_errors():
    z4 = make_ring(RingSpec.modular(4))
    with pytest.raises(ValueError):
        build_filtration(z4, 3, 0)
    with pytest.raises(ValueError):
        build_filtration(z4, 3, 3)


def test_filtration_edges_are_type_112_flags(built):
    f42 = built.complex("Z/4", 4, 2)
    flags = enumerate_good_flags(f42.ring, 4, (1, 1, 2))
    assert len(flags) == len(f42.simplices[1]) == 3360


def test_budget_exceeded_reports_estimate():
    z6 = make_ring(RingSpec.modular(6))
    with pytest.raises(BudgetExceeded) as exc:
        build_tits_complex(z6, 4, budget=1000)
    assert exc.value.estimate > 1000


def test_facet_budget_guards_chain_growth():
    # T4(Z/4): 800 vertices and at most 8960 Grassmannian members fit in
    # the budget, its 120 * 28 * 6 = 20160 facets do not
    z4 = make_ring(RingSpec.modular(4))
    with pytest.raises(BudgetExceeded) as exc:
        build_tits_complex(z4, 4, budget=10000)
    assert exc.value.estimate == 20160
    assert "good flags of type (1, 1, 1, 1) in Z/4^4" in str(exc.value)
    # T4(Z/9) is refused at the default budget before any enumeration
    with pytest.raises(BudgetExceeded) as exc:
        build_tits_complex(make_ring(RingSpec.modular(9)), 4)
    assert exc.value.estimate == 1516320


def test_link_and_star(built):
    cx = built.complex("F2", 3)
    plane = next(i for i, s in enumerate(cx.vertices) if s.rank == 2)
    link, star = cx.link_and_star((plane,))
    assert link.f_vector == [3]  # the lines inside that plane
    assert star.dim == 1
    facet = cx.facets()[0]
    linkf, starf = cx.link_and_star(facet)
    assert linkf.dim == -1
    assert starf.f_vector[-1] >= 1
    # over Z/4, a line sits under one plane per line of the rank-2 quotient
    cx3 = built.complex("Z/4", 3)
    line = next(i for i, s in enumerate(cx3.vertices) if s.rank == 1)
    link3, _ = cx3.link_and_star((line,))
    assert link3.f_vector == [6]
    with pytest.raises(ValueError):
        cx.link_and_star((0, 1, 2, 3))


def test_link_of_line_matches_quotient_line_count(built):
    # independent count: lines of R^3 / L correspond to planes over L
    cx3 = built.complex("Z/4", 3)
    from titscomplex import grassmannian_size_formula

    line = next(i for i, s in enumerate(cx3.vertices) if s.rank == 1)
    link, _ = cx3.link_and_star((line,))
    assert len(link.simplices[0]) == grassmannian_size_formula(RingSpec.modular(4), 2, 1)


# (ring, n, rank St_r * rank St_(n-r) for r = 1..n-1): the link of a rank-r
# vertex is the join T_r * T_(n-r) (the summands under it and over it)
LINK_RANKS = [
    ("F2", 4, [8, 4, 8]),
    ("Z/4", 4, [113, 25, 113]),
    ("Z/4", 3, [5, 5]),
    ("Z/6", 3, [11, 11]),
]


@pytest.mark.parametrize("label,n,ranks", LINK_RANKS)
def test_links_and_stars_are_complexes_homology_reads(built, label, n, ranks):
    cx = built.complex(label, n)
    spec = cx.ring.spec
    for r, want in zip(range(1, n), ranks):
        v = next(i for i, s in enumerate(cx.vertices) if s.rank == r)
        link, star = cx.link_and_star((v,))
        assert want == steinberg_rank(spec, r) * steinberg_rank(spec, n - r)
        hom = reduced_homology(link)
        assert hom.betti == [0] * (n - 3) + [want], (label, n, r)
        assert not any(hom.torsion), (label, n, r)
        hom = reduced_homology(star)
        assert not any(hom.betti) and not any(hom.torsion), (label, n, r)


def test_position_and_has_simplex_take_any_sequence(built):
    cx = built.complex("Z/4", 3)
    edge = cx.simplices[1][5]
    for t in (edge, list(edge), iter(edge)):
        assert cx.position(t) == 5
    assert cx.has_simplex([0, 30]) is True  # line 0 in plane 30
    assert cx.position([0, 30]) == cx.simplices[1].index((0, 30))
    # two lines are no edge, and no chain is longer than a facet
    assert cx.has_simplex([0, 1]) is False
    assert cx.position([0, 1]) is None
    assert cx.position(cx.facets()[0] + (0,)) is None
    assert cx.position(()) is None
    assert cx.position([0]) == 0


def assert_top_index_built_on_first_lookup(cx):
    """The top level's positions agree with a dict over the facets, are
    built by the first lookup, and are reused by the next."""
    assert cx._pos[-1] is None
    want = {t: i for i, t in enumerate(cx.facets())}
    assert [cx.position(t) for t in want] == list(want.values())
    index = cx._pos[-1]
    assert index == want
    assert all(map(cx.has_simplex, want))
    assert cx._pos[-1] is index


@pytest.mark.parametrize("label,n", [("Z/6", 2), ("Z/4", 3), ("F2", 4)])
def test_top_index_is_built_on_first_lookup(label, n):
    cx = build_tits_complex(parse_ring_spec(label), n)
    # homology and the apartment span read faces only, never a facet's position
    reduced_homology(cx)
    apartment_span_rank(cx)
    assert_top_index_built_on_first_lookup(cx)
    index, top = cx._pos[-1], cx.dim
    chain = apartment_class(cx, Mat.identity(cx.ring, n))
    assert [chamber_map(chain, t) for t in index] == [chain.coeffs.get(i, 0) for i in index.values()]
    for g in gl_generators(cx.ring, n):
        vperm = cx.vertex_permutation(g)
        want = [index[tuple(vperm[v] for v in t)] for t in cx.facets()]
        assert cx.simplex_permutation(g, top) == want
    assert cx._pos[-1] is index


def test_top_index_of_links_stars_and_the_empty_complex(built):
    cx = built.complex("Z/4", 4)
    plane = next(i for i, s in enumerate(cx.vertices) if s.rank == 2)
    for part in cx.link_and_star((plane,)):
        reduced_homology(part)
        assert_top_index_built_on_first_lookup(part)
    empty = build_tits_complex(parse_ring_spec("Z/4"), 1)
    reduced_homology(empty)
    assert empty._pos == [] and empty.facets() == []
    assert empty.position(()) is None and empty.position((0,)) is None
    assert not empty.has_simplex((0,))


@pytest.mark.parametrize("d", [-1, 0, 1, 2])
def test_faces_and_simplex_permutation_take_degrees_0_to_dim(built, d):
    """A degree outside 0..dim raises ValueError, as in
    `fixed_subspace_dim`: -1 would read the top level from the end, and
    dim + 1 has no level."""
    cx = built.complex("Z/4", 3)
    ident = Mat.identity(cx.ring, 3)
    if 0 <= d <= cx.dim:
        assert len(cx.faces(d)) == cx.f_vector[d]
        assert cx.simplex_permutation(ident, d) == list(range(cx.f_vector[d]))
        return
    with pytest.raises(ValueError, match=f"degree {d} out of range"):
        cx.faces(d)
    with pytest.raises(ValueError, match=f"degree {d} out of range"):
        cx.simplex_permutation(ident, d)


def test_nerve_double_construction(built):
    cx = built.complex("Z/4", 3)
    ring = cx.ring
    vindex = {s.members: i for i, s in enumerate(cx.vertices)}
    by_dim = {}
    for lam in [(1, 2), (2, 1), (1, 1, 1)]:
        ranks = proper_ranks(flag_type(lam, 3))
        for fl in enumerate_good_flags(ring, 3, lam):
            t = tuple(vindex[s.members] for s in fl)
            by_dim.setdefault(len(t) - 1, set()).add(t)
    for d, level in enumerate(cx.simplices):
        assert set(level) == by_dim[d], f"dimension {d}"


def test_group_action_examples(built):
    f2 = make_ring(RingSpec.prime_field(2))
    cx = build_tits_complex(f2, 2)
    g = elementary_matrix(f2, 2, 0, 1, f2.one)
    perm = cx.vertex_permutation(g)
    gens = {i: cx.ring.vec_payloads(s.preferred_basis[0]) for i, s in enumerate(cx.vertices)}
    e1 = next(i for i, v in gens.items() if v == (1, 0))
    e2 = next(i for i, v in gens.items() if v == (0, 1))
    e12 = next(i for i, v in gens.items() if v == (1, 1))
    assert perm[e1] == e1
    assert perm[e2] == e12 and perm[e12] == e2
    ident = Mat.identity(f2, 2)
    assert cx.vertex_permutation(ident) == tuple(range(len(cx.vertices)))


def test_group_action_axioms_and_strata(built):
    cx = built.complex("Z/4", 3)
    ring = cx.ring
    gens = gl_generators(ring, 3)
    for g, h in itertools.islice(itertools.product(gens[:5], gens[:5]), 12):
        pg, ph = cx.vertex_permutation(g), cx.vertex_permutation(h)
        pgh = cx.vertex_permutation(g.mul_mat(h))
        assert tuple(pg[ph[i]] for i in range(len(ph))) == pgh
    for g in gens:
        p = cx.vertex_permutation(g)
        assert all(cx.vertices[i].rank == cx.vertices[p[i]].rank for i in range(len(p)))


def test_action_transitive_per_stratum(built):
    for label in ["Z/4", "F3"]:
        cx = built.complex(label, 3)
        perms = [cx.vertex_permutation(g) for g in gl_generators(cx.ring, 3)]
        for rank in (1, 2):
            stratum = [i for i, s in enumerate(cx.vertices) if s.rank == rank]
            seen = {stratum[0]}
            frontier = [stratum[0]]
            while frontier:
                frontier = [
                    j for i in frontier for p in perms if (j := p[i]) not in seen and not seen.add(j)
                ]
            assert seen == set(stratum)


def member_vertex_permutation(cx, g):
    """Test oracle: the vertex permutation from g applied to every member."""
    vindex = {s.members: i for i, s in enumerate(cx.vertices)}
    return tuple(vindex[frozenset(g.apply(v) for v in s.members)] for s in cx.vertices)


# id -> (ring, n, filtration rank or None, ideal generators of the level of
# the congruence subgroup whose generators act, or None for GL_n(R)'s)
ACTION_CASES = {
    "Z/4-3": ("Z/4", 3, None, None), "Z/8-2": ("Z/8", 2, None, None), "Z/6-3": ("Z/6", 3, None, None),
    "F2[e]^2-3": ("F2[e]^2", 3, None, None), "Z/2xZ/3-3": ("Z/2xZ/3", 3, None, None),
    "Z/4-4-2": ("Z/4", 4, 2, None), "Z/4-3-Gamma(2)": ("Z/4", 3, None, [2]),
}


@pytest.mark.parametrize("label,n,m,ideal", ACTION_CASES.values(), ids=list(ACTION_CASES))
def test_action_by_bases_equals_action_on_members(built, label, n, m, ideal):
    cx = built.complex(label, n, m)
    gens = gl_generators(cx.ring, n) if ideal is None else congruence_generators(cx.ring, n, ideal)
    for g in gens:
        vperm = member_vertex_permutation(cx, g)
        assert cx.vertex_permutation(g) == vperm
        for d, level in enumerate(cx.simplices):
            want = [cx.position(sorted(vperm[i] for i in t)) for t in level]
            assert cx.simplex_permutation(g, d) == want


def test_action_rejects_noninvertible(built):
    # 2 and 3 are zero divisors of Z/4 and Z/6; the F2 matrix has rank 2
    for label, rows in [
        ("Z/4", [[2, 0], [0, 1]]),
        ("Z/6", [[3, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ("F2", [[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
    ]:
        cx = built.complex(label, len(rows))
        bad = mat(cx.ring, rows)
        with pytest.raises(ValueError, match="does not preserve the vertex set"):
            cx.vertex_permutation(bad)


def test_action_rejects_a_matrix_over_another_ring(built):
    # the identity over F2 has the entries of the identity over Z/4, but
    # acts on no complex over Z/4
    cx = built.complex("Z/4", 3)
    g = Mat.identity(make_ring(parse_ring_spec("F2")), 3)
    for act in (cx.vertex_permutation, lambda g: cx.simplex_permutation(g, 1)):
        with pytest.raises(ValueError, match="matrix over F2 does not act on a complex over Z/4"):
            act(g)


def test_reduction_map_examples(built):
    cx2 = built.complex("Z/4", 2)
    red = reduction_map(cx2, [2])
    assert red.dst.ring.spec.label == "Z/2"
    assert len(red.dst.vertices) == 3
    from collections import Counter

    assert sorted(Counter(red.vertex_map).values()) == [2, 2, 2]
    assert red.is_simplicial() and red.is_surjective_on_vertices()
    red0 = reduction_map(cx2, [0])
    assert red0.vertex_map == list(range(6))
    cx3 = built.complex("Z/4", 3)
    red3 = reduction_map(cx3, [2])
    assert len(red3.dst.vertices) == 14
    assert red3.is_simplicial() and red3.is_surjective_on_vertices()


@pytest.mark.parametrize("label,n,d", [
    ("Z/4", 3, 2), ("Z/8", 2, 4), ("Z/6", 3, 3), ("Z/9", 2, 3), ("Z/6", 3, 2), ("Z/8", 3, 4),
])
def test_reduction_of_bases_equals_reduction_of_members(built, label, n, d):
    # reduction_map reduces one basis per vertex; reducing every member
    # entrywise must land on the same vertex downstairs
    cx = built.complex(label, n)
    red = reduction_map(cx, [d])
    ring, tring = cx.ring, red.dst.ring
    vindex = {s.members: i for i, s in enumerate(red.dst.vertices)}
    for i, s in enumerate(cx.vertices):
        image = frozenset(tuple(tring.el(ring.payload(x) % d) for x in v) for v in s.members)
        assert vindex[image] == red.vertex_map[i]


def test_vertex_of_span(built):
    cx = built.complex("Z/4", 3)
    for i, s in enumerate(cx.vertices):
        assert cx.vertex_of_span(s.basis) == i
        assert cx.vertex_of_span(s.preferred_basis) == i
    e = Mat.identity(cx.ring, 3).rows
    with pytest.raises(ValueError):
        cx.vertex_of_span([e[0], e[0]])  # not a free basis of its span
    with pytest.raises(ValueError):
        cx.vertex_of_span([vec(cx.ring, [2, 0, 0])])  # 2*e_1 spans a non-free module
    filt = built.complex("Z/4", 4, 2)
    with pytest.raises(RuntimeError):
        filt.vertex_of_span(Mat.identity(filt.ring, 4).rows[:3])  # rank 3 is above the filtration
    with pytest.raises(RuntimeError):
        filt.vertex_of_span([(2, 0, 0, 0)] * 3)  # so are three vectors that span no free module


def test_vertex_of_span_takes_vectors_as_any_sequence(built):
    cx = built.complex("Z/4", 3)
    for vectors in ([[1, 0, 0]], [(1, 0, 0)], [iter([1, 0, 0])], iter([[1, 0, 0]])):
        assert cx.vertex_of_span(vectors) == 12


def test_vertex_of_span_rejects_malformed_vectors(built):
    # vectors outside R^3 are held by no vertex: a wrong length, or an
    # entry that is no element index of Z/4
    cx = built.complex("Z/4", 3)
    for vectors in ([(1, 0)], [(1, 0, 0, 0)], [(5, 0, 0)], [(1, 0, 0), (0, 4, 0)], [(0, 1, 0), (0, 0, 1, 0)]):
        with pytest.raises(ValueError):
            cx.vertex_of_span(vectors)


def test_vertex_of_span_rejects_the_empty_set(built):
    # the empty set is a free basis of the zero summand, which is no vertex
    for cx in (built.complex("Z/4", 3), built.complex("Z/4", 1)):
        with pytest.raises(RuntimeError, match="not a vertex"):
            cx.vertex_of_span([])


def span_oracle(cx, vectors):
    """Test oracle: the member-set route, span_if_free then a {members: index}
    dict; an exception type where vertex_of_span must raise.  No vertex has
    a basis of k vectors outside 1 <= k <= max_rank (RuntimeError); inside,
    k vectors that span no free module are no basis (ValueError), and a free
    span of rank k must be a vertex (a KeyError here would refute it)."""
    if not 1 <= len(vectors) <= cx.max_rank:
        return RuntimeError
    members = span_if_free(cx.ring, vectors)
    if members is None:
        return ValueError
    return {s.members: i for i, s in enumerate(cx.vertices)}[members]


@pytest.mark.parametrize("label,n,m", [
    ("Z/4", 3, None), ("Z/6", 3, None), ("F2[e]^2", 3, None), ("Z/2xZ/3", 3, None),
    ("Z/9", 3, None), ("Z/4", 4, 2),
])
def test_vertex_of_span_equals_member_set_oracle(built, label, n, m):
    cx = built.complex(label, n, m)
    ring = cx.ring
    rng = random.Random(f"{label}/{n}/{m}")
    vectors = [tuple(t) for t in itertools.product(range(ring.card), repeat=n)]
    bases = [b for s in cx.vertices for b in s.basis]

    def draw():
        """A random vector, a vertex basis vector, or a multiple of one."""
        kind = rng.randrange(3)
        if kind == 0:
            return rng.choice(vectors)
        b = rng.choice(bases)
        return b if kind == 1 else tuple(ring.mul[rng.randrange(ring.card)][x] for x in b)

    seen = set()
    for _ in range(400):
        tup = [draw() for _ in range(rng.randrange(n + 1))]
        want = span_oracle(cx, tup)
        if isinstance(want, int):
            assert cx.vertex_of_span(tup) == want, tup
        else:
            with pytest.raises(want):
                cx.vertex_of_span(tup)
        seen.add(want if not isinstance(want, int) else int)
    assert seen == {int, ValueError, RuntimeError}


class _Unread(list):
    """A simplex level that fails when anything iterates over it."""

    def __iter__(self):
        raise AssertionError("line_upsets read a simplex level")


def edge_walk_upsets(cx, edges):
    """Test oracle: k -> the rank-k vertices above each line, from the
    edges (every comparable pair of vertices is an edge)."""
    lines = [i for i, v in enumerate(cx.vertices) if v.rank == 1]
    ups = {k: [set() for _ in lines] for k in range(2, cx.max_rank + 1)}
    for a, b in edges:
        if cx.vertices[a].rank == 1:
            ups[cx.vertices[b].rank][a].add(b)
    return {k: list(map(frozenset, sets)) for k, sets in ups.items()}


@pytest.mark.parametrize("label,n,m", [
    ("F7", 3, None), ("Z/4", 3, None), ("Z/2xZ/2", 3, None), ("F2", 4, None), ("Z/4", 4, 2),
])
def test_line_upsets_come_from_the_catalog(label, n, m):
    spec = parse_ring_spec(label)
    cx = build_tits_complex(spec, n) if m is None else build_filtration(spec, n, m)
    edges = cx.simplices[1]
    cx.simplices[1] = _Unread(edges)
    got = cx.line_upsets
    assert got == edge_walk_upsets(cx, edges)
    assert sorted(got) == list(range(2, cx.max_rank + 1))
    assert all(sum(map(len, sets)) for sets in got.values())


def test_line_upsets_without_planes():
    for label, n in [("F2", 2), ("Z/6", 2), ("Z/4", 1)]:
        assert build_tits_complex(parse_ring_spec(label), n).line_upsets == {}


def test_reduction_sends_facets_to_facets(built):
    cx3 = built.complex("Z/4", 3)
    red = reduction_map(cx3, [2])
    top = cx3.dim
    for t in cx3.simplices[top]:
        assert red.dst.position(red.simplex_image(t)) is not None


def test_reduction_commutes_with_action(built):
    cx3 = built.complex("Z/4", 3)
    red = reduction_map(cx3, [2])
    ring, tring = cx3.ring, red.dst.ring
    for g in gl_generators(ring, 3)[:6]:
        gt = Mat(tring, [[tring.el(ring.payload(x) % 2) for x in row] for row in g.rows])
        ps = cx3.vertex_permutation(g)
        pt = red.dst.vertex_permutation(gt)
        assert all(red.vertex_map[ps[i]] == pt[red.vertex_map[i]] for i in range(len(ps)))


def test_reduction_unsupported_quotient(built):
    cx2 = built.complex("Z/4", 2)
    with pytest.raises(ValueError):
        reduction_map(cx2, [1])  # unit ideal: zero ring
    with pytest.raises(KeyError):
        reduction_map(cx2, [6])  # not a payload of Z/4, though gcd(4, 6) = 2


def test_congruence_generators():
    z4 = make_ring(RingSpec.modular(4))
    assert len(congruence_elements(z4, 2, [2])) == 15  # |I|^4 - identity
    gens = congruence_generators(z4, 2, [2])
    assert len(gens) == 4  # E_01(2), E_10(2), and the scaling by 3 in each slot
    ident = Mat.identity(z4, 2)
    for g in gens:
        assert g.is_invertible()
        assert all(
            (g.rows[i][j] - ident.rows[i][j]) % 2 == 0 for i in range(2) for j in range(2)
        )


def generated_group(ring, n, gens):
    """Every product of the generators, by breadth-first closure."""
    ident = Mat.identity(ring, n)
    found = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                gh = g.mul_mat(h)
                if gh not in found:
                    found.add(gh)
                    nxt.append(gh)
        frontier = nxt
    return found


@pytest.mark.parametrize(
    "label,n,ideal",
    [
        ("Z/4", 2, [2]),
        ("Z/8", 2, [2]),
        ("Z/8", 2, [4]),
        ("Z/8", 2, [6]),
        ("Z/9", 2, [3]),
        ("Z/6", 2, [2]),
        ("Z/6", 2, [3]),
        ("Z/12", 2, [2]),
        ("Z/12", 2, [6]),
        ("F2[e]^2", 2, [(0, 1)]),
        ("F2[e]^4", 2, [(0, 0, 1, 0)]),  # (I, +) needs e^2 and e^3
        ("Z/2xZ/3", 2, [(1, 0)]),
        ("Z/2xZ/3", 2, [(0, 1)]),
        ("Z/4", 3, [2]),
        ("Z/4", 2, [0]),
        ("F2", 2, [1]),
    ],
)
def test_congruence_generators_generate_the_congruence_subgroup(label, n, ideal):
    ring = make_ring(parse_ring_spec(label))
    group = generated_group(ring, n, congruence_generators(ring, n, ideal))
    assert group == set(congruence_elements(ring, n, ideal)) | {Mat.identity(ring, n)}


def test_export_is_deterministic(built):
    z4 = make_ring(RingSpec.modular(4))
    a = build_tits_complex(z4, 2).export_document()
    b = build_tits_complex(z4, 2).export_document()
    assert a == b
    doc = built.complex("F2", 3).export_document()
    assert doc["schema_version"] == 1
    assert doc["f_vector"] == [14, 21]
    assert len(doc["vertices"]) == 14
