"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every comparison is exact integer equality.
"""

import functools
import json

from titscomplex import (
    Mat,
    RingSpec,
    apartment_span_rank,
    chamber_map,
    congruence_generators,
    enumerate_good_flags,
    enumerate_grassmannian,
    eta_class,
    fixed_subspace_dim,
    gl_generators,
    grassmannian_size_formula,
    induced_top_map,
    parse_ring_spec,
    reduction_map,
    reverse_ut_facet,
    steinberg_rank,
    steinberg_rank_field,
    ut_apartment_pairing,
    ut_bases,
)
from titscomplex.cli import main
from titscomplex.grassmann import flag_type, proper_ranks
from titscomplex.homology import chain_complex, euler_characteristic_checks
from titscomplex.verify import count_included_not_cofree

from conftest import dd_is_zero

TABLE1 = {
    4: [1, 5, 113, 10879, 4324129, 6984271295],
    6: [1, 11, 911, 497149, 1696007149, 35372169269639],
    8: [1, 11, 1121, 978559, 7061119489, 414187232163839],
    9: [1, 11, 1171, 1149929, 10247219929, 824092678295459],
    10: [1, 17, 3473, 7649589, 174326656989, 40378418645294393],
}


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} FAIL  {title}")
                raise
            print(f"criterion {num:2d} PASS  {title}")

        return wrapper

    return deco


@criterion(1, "rank table reproduction (30 entries, exact)")
def test_criterion_01_table1(capsys):
    code = main(["rank", "--rings", "Z/4,Z/6,Z/8,Z/9,Z/10", "--n-max", "6", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    for row in doc["rows"]:
        n = row["n"]
        for d in (4, 6, 8, 9, 10):
            assert row["ranks"][f"Z/{d}"] == TABLE1[d][n - 1], (d, n)


@criterion(2, "field formula: rank recursion equals p^(n choose 2)")
def test_criterion_02_field_formula():
    for p in (2, 3, 5, 7):
        spec = RingSpec.prime_field(p)
        for n in range(1, 7):
            assert steinberg_rank(spec, n) == steinberg_rank_field(p, n)


@criterion(3, "Grassmannian enumeration equals the closed formula")
def test_criterion_03_grassmann_oracle():
    cases = [("Z/4", 3), ("Z/6", 3), ("F2", 4), ("F3", 4), ("F2[e]^2", 3), ("Z/2xZ/3", 3)]
    checked = 0
    for label, nmax in cases:
        spec = parse_ring_spec(label)
        for n in range(1, nmax + 1):
            for k in range(0, n + 1):
                if 1 <= k < n and spec.cardinality ** (n * k) > 10**6:
                    continue
                got = len(enumerate_grassmannian(spec, n, k))
                assert got == grassmannian_size_formula(spec, n, k), (label, n, k)
                checked += 1
    assert checked >= 40


@criterion(4, "brute-force homology matches the recursion")
def test_criterion_04_homology(built):
    assert built.homology("Z/4", 2).betti == [5]
    assert built.homology("Z/6", 2).betti == [11]
    assert built.homology("Z/4", 3).betti == [0, 113]
    assert built.homology("F2", 4).betti == [0, 0, 64]
    for label, n in [("Z/4", 2), ("Z/6", 2), ("Z/4", 3), ("F2", 4)]:
        assert built.homology(label, n).torsion[-1] == []


@criterion(5, "homotopy-equivalence instance: equal Betti vectors")
def test_criterion_05_homotopy_equivalence(built):
    a = built.homology("Z/4", 3)
    b = built.homology("F2[e]^2", 3)
    assert a.betti == b.betti == [0, 113]
    assert a.torsion == b.torsion


@criterion(6, "filtration identity: graph homology equals recursion side (2681)")
def test_criterion_06_filtration(built):
    cx = built.complex("Z/4", 4, 2)
    hom = built.homology("Z/4", 4, 2)
    nv, ne = cx.f_vector
    assert hom.betti[0] == 0  # connected
    graph_side = ne - nv + 1
    z4 = RingSpec.modular(4)
    recursion_side = grassmannian_size_formula(z4, 4, 2) * steinberg_rank(z4, 2) - (
        grassmannian_size_formula(z4, 4, 1) * steinberg_rank(z4, 1) - 1
    )
    assert hom.betti[1] == graph_side == recursion_side == 2681


@criterion(7, "upper-triangular apartment pairing is diagonal +-1")
def test_criterion_07_ut_pairing(built):
    for label, n in [("Z/4", 2), ("Z/9", 2), ("F2", 3), ("Z/4", 3)]:
        M = ut_apartment_pairing(built.complex(label, n))
        size = len(M)
        assert size == parse_ring_spec(label).cardinality ** (n * (n - 1) // 2)
        for i in range(size):
            for j in range(size):
                if i == j:
                    assert M[i][j] in (1, -1), (label, n, i)
                else:
                    assert M[i][j] == 0, (label, n, i, j)


@criterion(8, "eta witness: nonzero and killed by all UT chamber maps")
def test_criterion_08_eta(built):
    for label, n, m in [("Z/4", 2, 2), ("Z/4", 3, 2), ("Z/9", 2, 3)]:
        cx = built.complex(label, n)
        eta = eta_class(cx, m)  # only built; the checks below are the witness
        assert not eta.is_zero()
        for b in ut_bases(cx.ring, n):
            assert chamber_map(eta, reverse_ut_facet(cx, b)) == 0


@criterion(9, "apartment classes span the full top homology")
def test_criterion_09_apartment_span(built):
    for label, n in [("Z/4", 2), ("Z/6", 2), ("F2", 3), ("Z/4", 3)]:
        res = apartment_span_rank(built.complex(label, n))
        assert res.saturated
        assert res.rank == built.homology(label, n).betti[n - 2], (label, n)


@criterion(10, "congruence-invariant dimensions match downstairs ranks")
def test_criterion_10_invariants(built):
    cases = [("Z/4", [2], 2), ("Z/8", [2], 2), ("Z/8", [4], 5)]
    for label, ideal, want in cases:
        cx = built.complex(label, 2)
        gens = congruence_generators(cx.ring, 2, ideal)
        perms = [cx.simplex_permutation(g, 0) for g in gens]
        assert fixed_subspace_dim(cx, 0, perms) == want, (label, ideal)


@criterion(11, "reducibility witness: rank 2 with nonzero kernel")
def test_criterion_11_reducibility(built):
    cx = built.complex("Z/4", 2)
    red = reduction_map(cx, [2])
    itm = induced_top_map(red)
    assert itm.rank == 2
    assert 0 < itm.kernel_rank < itm.src_cycle_rank


@criterion(12, "orbit and commutant counts equal k+1")
def test_criterion_12_orbits():
    from titscomplex import p1_orbit_count

    for label, k in [("Z/4", 2), ("Z/8", 3), ("Z/9", 2), ("F5", 1)]:
        assert p1_orbit_count(parse_ring_spec(label)) == k + 1, label


ALL_BUILT = [
    ("Z/4", 2, None), ("Z/6", 2, None), ("Z/9", 2, None), ("Z/8", 2, None),
    ("Z/4", 3, None), ("F2", 3, None), ("F2[e]^2", 3, None), ("F2", 4, None),
    ("Z/4", 4, 2),
]


@criterion(13, "structural suite: dd=0, Euler, purity, nerve, action axioms")
def test_criterion_13_structure(built):
    import itertools

    for label, n, m in ALL_BUILT:
        cx = built.complex(label, n, m)
        hom = built.homology(label, n, m)
        assert dd_is_zero(chain_complex(cx)), (label, n, m)
        assert hom.f_vector == cx.f_vector, (label, n, m)
        assert euler_characteristic_checks(hom), (label, n, m)
        assert cx.is_pure(), (label, n, m)
        assert count_included_not_cofree(cx) == 0, (label, n, m)
        # action axioms on sampled generator pairs, on this very complex
        gens = gl_generators(cx.ring, n)
        ident = Mat.identity(cx.ring, n)
        assert cx.vertex_permutation(ident) == tuple(range(len(cx.vertices)))
        for g, h in itertools.islice(itertools.product(gens[:3], gens[:3]), 4):
            pg, ph = cx.vertex_permutation(g), cx.vertex_permutation(h)
            assert tuple(pg[ph[i]] for i in range(len(ph))) == cx.vertex_permutation(
                g.mul_mat(h)
            ), (label, n, m)
    # nerve consistency, double construction on T3(Z/4)
    cx = built.complex("Z/4", 3)
    vindex = {s.members: i for i, s in enumerate(cx.vertices)}
    by_dim = {}
    for lam in [(1, 2), (2, 1), (1, 1, 1)]:
        proper_ranks(flag_type(lam, 3))
        for fl in enumerate_good_flags(cx.ring, 3, lam):
            t = tuple(vindex[s.members] for s in fl)
            by_dim.setdefault(len(t) - 1, set()).add(t)
    for d, level in enumerate(cx.simplices):
        assert set(level) == by_dim[d]
