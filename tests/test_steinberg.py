import itertools
import random

import pytest

from titscomplex import (
    Mat,
    RingSpec,
    apartment_class,
    apartment_span_rank,
    build_tits_complex,
    chain_complex,
    chamber_map,
    coreduce,
    eta_class,
    gl_generators,
    make_ring,
    p1_orbit_count,
    parse_ring_spec,
    reverse_ut_facet,
    smith_rank_and_divisors,
    steinberg_rank,
    steinberg_rank_field,
    table_generate,
    ut_apartment_pairing,
    ut_bases,
)
from titscomplex import complexes, linalg, steinberg
from titscomplex.homology import ModPEchelon
from titscomplex.linalg import span_if_free
from titscomplex.rings import BudgetExceeded

TABLE1 = {
    4: [1, 5, 113, 10879, 4324129, 6984271295],
    6: [1, 11, 911, 497149, 1696007149, 35372169269639],
    8: [1, 11, 1121, 978559, 7061119489, 414187232163839],
    9: [1, 11, 1171, 1149929, 10247219929, 824092678295459],
    10: [1, 17, 3473, 7649589, 174326656989, 40378418645294393],
}


def test_rank_table_values():
    for d, wanted in TABLE1.items():
        spec = RingSpec.modular(d)
        assert [steinberg_rank(spec, n) for n in range(1, 7)] == wanted


def test_rank_base_cases():
    spec = RingSpec.modular(6)
    assert steinberg_rank(spec, 0) == 1
    assert steinberg_rank(spec, 1) == 1


def test_rank_field_formula():
    for p in (2, 3, 5, 7):
        spec = RingSpec.prime_field(p)
        for n in range(1, 7):
            assert steinberg_rank(spec, n) == steinberg_rank_field(p, n) == p ** (n * (n - 1) // 2)


def test_rank_depends_only_on_radical_profile():
    a = [steinberg_rank(RingSpec.modular(4), n) for n in range(1, 6)]
    b = [steinberg_rank(RingSpec.truncated_poly(2, 2), n) for n in range(1, 6)]
    assert a == b
    c = [steinberg_rank(RingSpec.modular(8), n) for n in range(1, 5)]
    d = [steinberg_rank(RingSpec.truncated_poly(2, 3), n) for n in range(1, 5)]
    assert c == d


def test_rank_matches_homology(built):
    # oracle equivalence: recursion vs brute-force top homology
    for label, n in [("Z/4", 2), ("Z/6", 2), ("Z/8", 2), ("Z/9", 2), ("Z/4", 3), ("F2", 3), ("F2", 4)]:
        hom = built.homology(label, n)
        assert hom.betti[n - 2] == steinberg_rank(parse_ring_spec(label), n), (label, n)


# -- apartment classes ----------------------------------------------------------


def test_apartment_class_n2_signs(built):
    cx = built.complex("Z/4", 2)
    ring = cx.ring
    a = apartment_class(cx, Mat.identity(ring, 2))
    sup = {cx.ring.vec_payloads(cx.vertices[t[0]].preferred_basis[0]): v for t, v in a.support_facets().items()}
    assert sup == {(0, 1): 1, (1, 0): -1}


def test_apartment_class_is_cycle(built):
    for label, n in [("Z/4", 2), ("F2", 3), ("Z/4", 3)]:
        cx = built.complex(label, n)
        ring = cx.ring
        a = apartment_class(cx, Mat.identity(ring, n))
        assert a.boundary_is_zero()
        assert len(a.coeffs) <= __import__("math").factorial(n)


def test_apartment_class_n3_structure(built):
    cx = built.complex("F2", 3)
    a = apartment_class(cx, Mat.identity(cx.ring, 3))
    assert len(a.coeffs) == 6
    assert set(a.coeffs.values()) == {1, -1}


def test_apartment_column_permutation_scales_by_sign(built):
    cx = built.complex("Z/4", 2)
    ring = cx.ring
    base = Mat.from_payload_rows(ring, [[1, 0], [2, 1]])
    swapped = Mat.from_columns(ring, [base.column(1), base.column(0)])
    a = apartment_class(cx, base)
    b = apartment_class(cx, swapped)
    assert b.coeffs == {k: -v for k, v in a.coeffs.items()}
    cx3 = built.complex("F2", 3)
    m = Mat.identity(cx3.ring, 3)
    cols = m.columns()
    rotated = Mat.from_columns(cx3.ring, [cols[1], cols[2], cols[0]])  # even permutation
    assert apartment_class(cx3, rotated) == apartment_class(cx3, m)


def test_apartment_scaling_invariance(built):
    cx = built.complex("Z/4", 2)
    ring = cx.ring
    base = Mat.identity(ring, 2)
    scaled = Mat.from_payload_rows(ring, [[3, 0], [0, 1]])  # unit-scaled column
    assert apartment_class(cx, base) == apartment_class(cx, scaled)


def test_apartment_gl_equivariance(built):
    cx = built.complex("Z/4", 2)
    ring = cx.ring
    random.seed(2)
    gens = gl_generators(ring, 2)
    top = cx.dim
    for g in gens:
        a = apartment_class(cx, g)  # g applied to the identity basis columns
        ga = apartment_class(cx, Mat.identity(ring, 2))
        perm = cx.simplex_permutation(g, top)
        moved = {perm[k]: v for k, v in ga.coeffs.items()}
        assert moved == a.coeffs


def test_apartment_rejects_noninvertible(built):
    cx = built.complex("Z/4", 2)
    with pytest.raises(ValueError):
        apartment_class(cx, Mat.from_payload_rows(cx.ring, [[2, 0], [0, 1]]))


def test_apartments_reject_a_matrix_over_another_ring(built):
    # invertible over Z/4; the same rows over Z/6 have det 3, no unit
    cx = built.complex("Z/6", 3)
    basis = Mat(make_ring(parse_ring_spec("Z/4")), [[1, 0, 1], [0, 1, 1], [0, 0, 3]])
    for use in (apartment_class, reverse_ut_facet):
        with pytest.raises(ValueError, match="matrix over Z/4 does not act on a complex over Z/6"):
            use(cx, basis)
    with pytest.raises(ValueError, match="not invertible"):
        apartment_class(cx, Mat(cx.ring, basis.rows))


def test_chamber_map_examples(built):
    cx = built.complex("Z/4", 2)
    ring = cx.ring
    ident = Mat.identity(ring, 2)
    a = apartment_class(cx, ident)
    assert chamber_map(a, reverse_ut_facet(cx, ident)) == 1
    zero = steinberg.SteinbergChain(cx, {})
    assert chamber_map(zero, reverse_ut_facet(cx, ident)) == 0
    outside = next(t for t in cx.facets() if t not in a.support_facets())
    assert chamber_map(a, outside) == 0
    with pytest.raises(ValueError):
        chamber_map(a, (999,))


def test_chamber_map_refuses_a_simplex_that_is_not_a_facet(built):
    # (0,) and (0, 30) are simplices of T3(Z/4), but not of its top level
    cx = built.complex("Z/4", 3)
    a = apartment_class(cx, Mat.identity(cx.ring, 3))
    assert cx.has_simplex((0,))
    for t in [(0,), [0]]:
        with pytest.raises(ValueError):
            chamber_map(a, t)


def test_ut_pairing_small(built):
    for label, n in [("Z/4", 2), ("F2", 2), ("F2", 3)]:
        cx = built.complex(label, n)
        M = ut_apartment_pairing(cx)
        size = len(M)
        assert size == cx.ring.card ** (n * (n - 1) // 2)
        for i in range(size):
            for j in range(size):
                assert M[i][j] == (1 if i == j else 0), (label, n, i, j)


def _second_route(*args):
    raise AssertionError("a second route ran inside the library")


def test_eta_example_z4(built, monkeypatch):
    # eta is only built; the chamber maps below are the test's own import
    monkeypatch.setattr(steinberg, "chamber_map", _second_route)
    cx = built.complex("Z/4", 2)
    ring = cx.ring
    eta = eta_class(cx, 2)
    sup = {cx.ring.vec_payloads(cx.vertices[t[0]].preferred_basis[0]): v for t, v in eta.support_facets().items()}
    assert sup == {(1, 2): 1, (1, 0): -1}
    for b in ut_bases(ring, 2):
        assert chamber_map(eta, reverse_ut_facet(cx, b)) == 0
    assert eta.boundary_is_zero()


def test_eta_rejected_inputs(built):
    cx = built.complex("Z/4", 2)
    with pytest.raises(ValueError):
        eta_class(cx, 0)
    with pytest.raises(ValueError):
        eta_class(cx, 3)  # unit
    cxf = built.complex("F5", 2)
    for m in range(1, 5):
        with pytest.raises(ValueError):
            eta_class(cxf, m)  # fields have no nonzero non-units


def test_eta_z9(built):
    cx = built.complex("Z/9", 2)
    eta = eta_class(cx, 3)
    assert not eta.is_zero()


def test_apartment_span_ranks(built):
    for label, n, want in [("Z/4", 2, 5), ("Z/6", 2, 11), ("F2", 3, 8)]:
        cx = built.complex(label, n)
        res = apartment_span_rank(cx)
        assert res.mode == "exhaustive" and res.saturated
        assert res.rank == want == built.homology(label, n).betti[n - 2]


def test_apartment_span_sampled_agrees(built):
    cx = built.complex("Z/4", 2)
    for seed in (0, 1, 7):
        res = apartment_span_rank(cx, mode="sampled", seed=seed)
        assert res.saturated and res.rank == 5
    cx3 = built.complex("F2", 3)
    res = apartment_span_rank(cx3, mode="sampled", seed=0)
    assert res.saturated and res.rank == 8


def _frame_matrix(cx, frame):
    """The matrix of the lines' generators, `Summand.basis[0]`, which the
    span uses."""
    return Mat.from_columns(cx.ring, [cx.vertices[i].basis[0] for i in frame])


def _oracle_frames(cx):
    """The n-subsets of lines (lists of vertex indices) whose preferred
    generators form an invertible matrix, by one `Mat.det` per subset, in
    combinations order."""
    lines = [i for i, s in enumerate(cx.vertices) if s.rank == 1]
    gens = {i: cx.vertices[i].preferred_basis[0] for i in lines}
    subsets = (list(f) for f in itertools.combinations(lines, cx.n))
    return [f for f in subsets if Mat.from_columns(cx.ring, [gens[i] for i in f]).is_invertible()]


def _exact_span(cx):
    """Oracle: the Smith rank of every invertible frame's apartment class,
    and the number of those frames."""
    classes = [apartment_class(cx, _frame_matrix(cx, f)).coeffs for f in _oracle_frames(cx)]
    return smith_rank_and_divisors(classes)[0], len(classes)


@pytest.mark.parametrize("label,n", [
    ("Z/6", 2), ("Z/4", 3), ("F3", 3), ("Z/2xZ/2", 3),
    ("F2[e]^2", 3), ("Z/8", 2), ("Z/2xZ/3", 2),
])
def test_cofactor_frame_test_matches_the_determinant(built, label, n):
    # the same frames in the same order, though the oracle tests the
    # preferred generators and the span the walk's.  The walk skips the
    # prefixes whose cofactors lie in one maximal ideal: at n = 3 over
    # Z/4, F2[e]^2 and Z/2xZ/2; never at n = 2, where the cofactors are
    # the entries of one line's generator, which generate R
    cx = built.complex(label, n)
    lines = [i for i, s in enumerate(cx.vertices) if s.rank == 1]
    assert list(steinberg._invertible_frames(cx, lines)) == _oracle_frames(cx)


CERTIFIED_CASES = [("Z/4", 2), ("Z/6", 2), ("F2", 3), ("Z/4", 3), ("Z/2xZ/2", 3)]


@pytest.mark.parametrize("label,n", CERTIFIED_CASES)
def test_certified_span_matches_exact_oracle(built, label, n):
    cx = built.complex(label, n)
    b = built.homology(label, n).betti[n - 2]
    rank, frames = _exact_span(cx)
    res = apartment_span_rank(cx)
    assert res.rank == rank == res.top_betti == b
    assert res.saturated and res.mode == "exhaustive"
    # the run stops at b instead of reducing every frame
    assert res.apartments_used < frames


class _LossyEchelon:
    """Stands in for the mod-p echelon and loses every vector."""

    rank = 0
    pivots: dict = {}  # holds no entry, which the span recounts every 256 classes

    def add(self, vec):
        return False


@pytest.mark.parametrize("label,n,mode", [
    ("Z/4", 2, "exhaustive"), ("Z/6", 2, "exhaustive"), ("F2", 3, "exhaustive"),
    ("Z/4", 3, "exhaustive"), ("F2", 3, "sampled"),
])
def test_unreached_bound_falls_back_to_the_exact_rank(built, monkeypatch, label, n, mode):
    cx = built.complex(label, n)
    b = built.homology(label, n).betti[n - 2]
    # exhaustive mode uses every invertible frame; sampled mode the seed frames
    # and one orbit round, after which the lossy echelon shows no gain
    frames = _exact_span(cx)[1] if mode == "exhaustive" else 26
    monkeypatch.setattr(steinberg, "ModPEchelon", _LossyEchelon)
    res = apartment_span_rank(cx, mode=mode)
    assert res.rank == res.top_betti == b
    assert res.saturated and res.apartments_used == frames


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_short_mod_p_rank_is_never_reported(built, monkeypatch, mode):
    cx = built.complex("F2", 3)
    monkeypatch.setattr(steinberg, "ModPEchelon", _LossyEchelon)
    res = apartment_span_rank(cx, mode=mode)
    assert res.rank == res.top_betti == 8


def test_certified_sampled_span_reaches_top_betti(built):
    cx = built.complex("Z/4", 3)
    b = built.homology("Z/4", 3).betti[1]
    for seed in range(5):
        res = apartment_span_rank(cx, mode="sampled", seed=seed)
        assert res.saturated and res.rank == res.top_betti == b == 113


def _record_frames(monkeypatch):
    """Record the lines of every frame whose class the span computes."""
    recorded = []
    class_coeffs = steinberg._class_coeffs

    def recording_class(cx, frame, pos):
        recorded.append(list(frame))
        return class_coeffs(cx, frame, pos)

    monkeypatch.setattr(steinberg, "_class_coeffs", recording_class)
    return recorded


def test_sampled_budget_is_never_exceeded(built, monkeypatch):
    cx = built.complex("F3", 3)
    recorded = _record_frames(monkeypatch)
    for budget in (5, 13, 20):
        recorded.clear()
        res = apartment_span_rank(cx, mode="sampled", budget=budget)
        assert not res.saturated and res.apartments_used <= budget
        assert res.top_betti == 27
        # the frames used are recounted exactly
        used = [apartment_class(cx, _frame_matrix(cx, f)).coeffs for f in recorded[: res.apartments_used]]
        assert res.rank == smith_rank_and_divisors(used)[0]


@pytest.mark.parametrize("label", ["Z/4", "F3"])
def test_sampled_orbit_frames_are_invertible(built, monkeypatch, label):
    # the orbit images are added untested; each must still be a frame
    cx = built.complex(label, 3)
    recorded = _record_frames(monkeypatch)
    for seed in range(3):
        recorded.clear()
        res = apartment_span_rank(cx, mode="sampled", seed=seed)
        assert len(recorded) == res.apartments_used
        for frame in recorded:
            assert _frame_matrix(cx, frame).det() in cx.ring.units


@pytest.mark.parametrize("label,want", [
    ("Z/4", [(276, 113), (662, 113), (269, 113), (479, 113), (274, 113)]),
    ("F3", [(43, 27), (55, 27), (50, 27), (47, 27), (40, 27)]),
])
def test_sampled_frame_order_is_pinned(built, label, want):
    cx = built.complex(label, 3)
    runs = [apartment_span_rank(cx, mode="sampled", seed=seed) for seed in range(5)]
    assert [(r.apartments_used, r.rank) for r in runs] == want


def test_span_tests_only_seed_frames_by_determinant(monkeypatch):
    # exhaustive mode tests frames by prefix cofactors, sampled mode tests
    # its 4n + 1 seed candidates only; no class re-checks its frame
    cx = build_tits_complex(parse_ring_spec("F3"), 3)
    calls = []
    det = Mat.det

    def counting_det(self):
        calls.append(self)
        return det(self)

    monkeypatch.setattr(Mat, "det", counting_det)
    apartment_span_rank(cx, mode="exhaustive")
    assert calls == []
    apartment_span_rank(cx, mode="sampled", seed=0)
    assert 1 <= len(calls) == len(set(calls)) <= 4 * cx.n + 1


def test_apartment_span_needs_n_at_least_two(built):
    with pytest.raises(ValueError, match="n >= 2"):
        apartment_span_rank(built.complex("F2", 1))


@pytest.mark.parametrize("label,n,m", [("Z/4", 1, None), ("Z/4", 4, 2)])
def test_apartments_need_the_full_complex(built, monkeypatch, label, n, m):
    cx = built.complex(label, n, m)

    def no_coreduction(cx):
        raise AssertionError("coreduced before the complex was checked")

    monkeypatch.setattr(steinberg, "coreduce", no_coreduction)
    named = f"n={n}, max_rank={cx.max_rank}"
    with pytest.raises(ValueError, match=named):
        apartment_class(cx, Mat.identity(cx.ring, n))
    with pytest.raises(ValueError, match=named):
        apartment_span_rank(cx)


@pytest.mark.parametrize("label,mode,used", [("F7", "sampled", 855), ("Z/2xZ/2", "exhaustive", 1793)])
def test_apartment_span_builds_no_member_set(monkeypatch, label, mode, used):
    # a fresh complex, so that no span lookup is served from a warm cache
    cx = build_tits_complex(parse_ring_spec(label), 3)
    calls = []

    def counting_span(*args, **kwargs):
        calls.append(args)
        return span_if_free(*args, **kwargs)

    monkeypatch.setattr(linalg, "span_if_free", counting_span)
    res = apartment_span_rank(cx, mode=mode, seed=0)
    assert res.mode == mode and res.apartments_used == used
    assert res.rank == res.top_betti
    assert calls == []


@pytest.mark.parametrize("label,mode", [("F7", "sampled"), ("Z/2xZ/2", "exhaustive")])
def test_apartment_span_computes_no_preferred_basis(monkeypatch, label, mode):
    # a fresh complex, so that no preferred basis or span is cached
    cx = build_tits_complex(parse_ring_spec(label), 3)
    extensions, lookups = [], []
    free_extension = linalg._free_extension
    line_of = complexes.TitsComplex._line_of

    def counting_extension(*args):
        extensions.append(args)
        return free_extension(*args)

    def counting_line(self, v):
        lookups.append(v)
        return line_of(self, v)

    monkeypatch.setattr(linalg, "_free_extension", counting_extension)
    monkeypatch.setattr(complexes.TitsComplex, "_line_of", counting_line)
    res = apartment_span_rank(cx, mode=mode, seed=0)
    assert res.mode == mode and res.rank == res.top_betti
    assert extensions == []
    # sampled mode looks up the identity frame's n lines and one image per
    # line and generator of GL_n(R); no class looks up a vector, and every
    # vector lookup goes through `_line_of`
    lines = sum(s.rank == 1 for s in cx.vertices)
    want = cx.n + lines * len(gl_generators(cx.ring, cx.n)) if mode == "sampled" else 0
    assert len(lookups) == want and all(len(v) == cx.n for v in lookups)


# (ring, n, mode, budget) of spans whose frames the line lookup is checked on
LOOKUP_CASES = [
    ("F7", 3, "sampled", None), ("Z/4", 3, "auto", None), ("Z/6", 3, "auto", None),
    ("Z/2xZ/2", 3, "auto", None), ("F2[e]^2", 3, "auto", None), ("F2", 4, "exhaustive", None),
    ("F3", 4, "sampled", 300), ("Z/4", 4, "sampled", 300),
]


@pytest.mark.parametrize("label,n,mode,budget", LOOKUP_CASES)
def test_line_lookup_matches_vertex_of_span(built, monkeypatch, label, n, mode, budget):
    cx = built.complex(label, n)
    recorded = _record_frames(monkeypatch)
    apartment_span_rank(cx, mode=mode, seed=0, budget=budget)
    subsets = {s for f in recorded for k in range(2, n) for s in itertools.combinations(f, k)}
    assert recorded and subsets
    for lines in subsets:
        want = cx.vertex_of_span([cx.vertices[i].basis[0] for i in lines])
        assert cx.span_of_lines(lines) == want, lines


def test_line_lookup_raises_for_lines_in_two_planes(built):
    # <e_1> and <e_1 + 2 e_2> over Z/4 span no free plane, and both lie in
    # <e_1, e_2> and in <e_1, e_2 + 2 e_3>
    cx = built.complex("Z/4", 3)
    vec = cx.ring.vec
    a, b = (cx.vertex_of_span([vec(v)]) for v in ([1, 0, 0], [1, 2, 0]))
    planes = {cx.vertex_of_span([vec([1, 0, 0]), vec(v)]) for v in ([0, 1, 0], [0, 1, 2])}
    ups = cx.line_upsets[2]
    assert len(planes) == 2 and planes <= ups[a] & ups[b]
    with pytest.raises(RuntimeError, match="more than one"):
        cx.span_of_lines((a, b))


# (ring, mode, rank, apartments used) at n = 3, seed 0
SPAN_PINS = [
    ("F7", "sampled", 343, 855),
    ("Z/2xZ/2", "exhaustive", 344, 1793),
    ("Z/6", "sampled", 911, 3202),
    ("Z/6", "exhaustive", 911, 8101),
    ("Z/8", "sampled", 1121, 5857),
]


@pytest.mark.parametrize("label,mode,rank,used", SPAN_PINS)
def test_apartment_span_results_are_pinned(built, monkeypatch, label, mode, rank, used):
    # the span maps lines only, never every vertex
    def no_vertex_permutation(cx, g):
        raise AssertionError("vertex permutation on the apartment path")

    monkeypatch.setattr(complexes.TitsComplex, "vertex_permutation", no_vertex_permutation)
    res = apartment_span_rank(built.complex(label, 3), mode=mode, seed=0)
    assert (res.mode, res.rank, res.apartments_used) == (mode, rank, used)
    assert res.saturated and res.top_betti == rank


# (ring, mode, budget, rank, apartments used, saturated, top_betti) at
# n = 4, seed 0: the first case with spans of three lines
SPAN_PINS_N4 = [
    ("F2", "exhaustive", None, 64, 80, True, 64),
    ("F3", "sampled", None, 729, 1495, True, 729),
    ("Z/4", "sampled", 300, 262, 300, False, 10879),
]


@pytest.mark.parametrize("label,mode,budget,rank,used,saturated,top_betti", SPAN_PINS_N4)
def test_apartment_span_results_are_pinned_at_n4(built, label, mode, budget, rank, used, saturated, top_betti):
    kwargs = {} if budget is None else {"budget": budget}
    res = apartment_span_rank(built.complex(label, 4), mode=mode, seed=0, **kwargs)
    assert (res.mode, res.rank, res.apartments_used) == (mode, rank, used)
    assert (res.saturated, res.top_betti) == (saturated, top_betti)


@pytest.mark.parametrize("label,mode", [("F7", "sampled"), ("Z/2xZ/2", "exhaustive")])
def test_survivor_coordinates_keep_the_rank_after_every_class(built, monkeypatch, label, mode):
    cx = built.complex(label, 3)
    classes = []
    class_coeffs = steinberg._class_coeffs

    def recording_class(cx, frame, coord):
        # the full class, by the complex's positions; the span gets its own
        assert _frame_matrix(cx, frame).det() in cx.ring.units
        classes.append(class_coeffs(cx, frame, cx.position))
        return class_coeffs(cx, frame, coord)

    monkeypatch.setattr(steinberg, "_class_coeffs", recording_class)
    res = apartment_span_rank(cx, mode=mode, seed=0)
    assert len(classes) == res.apartments_used
    kept = set(coreduce(built.complex(label, 3))[0][-1])
    full, restricted = ModPEchelon(), ModPEchelon()
    for coeffs in classes:
        full.add(coeffs)
        restricted.add({k: v for k, v in coeffs.items() if k in kept})
        assert full.rank == restricted.rank
    assert full.rank == res.rank == res.top_betti



@pytest.mark.parametrize("label,mode,rank,used", SPAN_PINS[:2])
def test_apartment_span_runs_no_smith_reduction(built, monkeypatch, label, mode, rank, used):
    # the bound top_betti comes from the coreduced complex: no face
    # survives, so the one Smith call sees only empty columns, and a
    # certified span needs no exact recount
    calls = []

    def recording(cols, units=0):
        calls.append(cols)
        return smith_rank_and_divisors(cols, units)

    monkeypatch.setattr(steinberg, "smith_rank_and_divisors", recording)
    res = apartment_span_rank(built.complex(label, 3), mode=mode, seed=0)
    assert (res.rank, res.apartments_used, res.top_betti) == (rank, used, rank)
    [cols] = calls
    assert len(cols) == rank and not any(cols)


@pytest.mark.parametrize("label,mode,rank,used", [
    ("F7", "sampled", 343, 855), ("Z/2xZ/2", "exhaustive", 344, 1793),
    ("Z/4", "exhaustive", 113, 593), ("F3", "exhaustive", 27, 27),
])
def test_apartment_span_without_coreduction_keeps_its_results(built, monkeypatch, label, mode, rank, used):
    # every cell survives, so the coreduced top boundary is the whole top
    # boundary and its exact rank does real work
    def everything(cx):
        return [[0]] + [list(range(f)) for f in cx.f_vector], [0] * len(cx.f_vector), chain_complex(cx)

    monkeypatch.setattr(steinberg, "coreduce", everything)
    res = apartment_span_rank(built.complex(label, 3), seed=0)
    assert (res.mode, res.rank, res.apartments_used) == (mode, rank, used)
    assert res.saturated and res.top_betti == rank

# -- orbit and commutant ---------------------------------------------------------


def nullity_commutant(label):
    """Test-local oracle: the commutant dimension as the nullity of the
    system X[a] = X[g a] over the pairs a of lines and the generators g,
    one equation per edge of the graph joining each pair to its images,
    i.e. the rank defect of that graph's incidence matrix."""
    cx = build_tits_complex(parse_ring_spec(label), 2)
    nl = len(cx.vertices)
    edges = []
    for g in gl_generators(cx.ring, 2):
        perm = cx.vertex_permutation(g)
        for i, j in itertools.product(range(nl), repeat=2):
            a, b = i * nl + j, perm[i] * nl + perm[j]
            if a != b:
                edges.append({min(a, b): 1, max(a, b): -1})
    return nl * nl - smith_rank_and_divisors(edges)[0]


def test_p1_orbit_count(monkeypatch):
    # one orbit sweep: the library runs no rank (the oracle's Smith rank is
    # imported here, not patched)
    monkeypatch.setattr(steinberg, "smith_rank_and_divisors", _second_route)
    # a chain ring of length k gives k + 1 orbits; a product of two fields
    # gives (1 + 1) * (1 + 1) by CRT
    cases = [
        ("Z/4", 3), ("F5", 2), ("Z/8", 4), ("Z/9", 3), ("Z/27", 4), ("F2[e]^2", 3),
        ("F2[e]^3", 4), ("Z/6", 4), ("Z/2xZ/3", 4),
    ]
    for label, want in cases:
        orbits = p1_orbit_count(parse_ring_spec(label))
        assert orbits == nullity_commutant(label) == want, (label, orbits)


def test_p1_orbit_nonuniserial_still_agrees():
    # products are not uniserial and the paper's k + 1 does not apply, but
    # the orbit count still equals the commutant's nullity count
    orbits = p1_orbit_count(parse_ring_spec("Z/2xZ/3"))
    assert orbits == nullity_commutant("Z/2xZ/3")
    assert orbits == 4  # (k1+1)*(k2+1) by CRT: orbit data splits per factor


# -- tables -----------------------------------------------------------------------


def test_table_generate_matches_published():
    specs = [RingSpec.modular(d) for d in (4, 6, 8, 9, 10)]
    table = table_generate(specs, 6)
    for d in (4, 6, 8, 9, 10):
        for n in range(1, 7):
            assert table.value(f"Z/{d}", n) == TABLE1[d][n - 1]


def test_table_digit_bound_is_never_below_the_digits(monkeypatch):
    # with the budget one below the digits the columns print, the bound
    # refuses: it never undercounts them
    for labels, n_max in [(["F2"], 40), (["Z/4", "Z/6"], 30), (["Z/10"], 25), (["Z/2xZ/9", "F3[e]^2"], 15)]:
        specs = [parse_ring_spec(l) for l in labels]
        table = table_generate(specs, n_max)
        digits = sum(len(str(v)) for col in table.columns.values() for v in col)
        monkeypatch.setattr(steinberg, "DEFAULT_BUDGET", digits - 1)
        with pytest.raises(BudgetExceeded, match=f"digits of the rank table up to n = {n_max}"):
            table_generate(specs, n_max)
        monkeypatch.undo()


def test_table_serialisations_are_stable():
    specs = [RingSpec.modular(4), RingSpec.truncated_poly(2, 2)]
    t1 = table_generate(specs, 5)
    t2 = table_generate(specs, 5)
    assert t1.to_csv() == t2.to_csv()
    assert t1.to_json_dict() == t2.to_json_dict()
    lines = t1.to_csv().strip().split("\n")
    assert lines[0] == "n,Z/4,F2[e]^2"
    for line in lines[1:]:
        parts = line.split(",")
        assert parts[1] == parts[2]
