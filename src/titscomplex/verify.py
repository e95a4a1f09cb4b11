"""One-shot verification suite: every quantitative claim the library makes,
cross-checked against an independent route, packaged as named checks.

Each check returns (ok, detail).  Checks that would blow the enumeration
budget report SKIPPED rather than silently passing.
"""

from __future__ import annotations

from functools import partial

from .rings import BudgetExceeded, DEFAULT_BUDGET, RingSpec, make_ring, parse_ring_spec, quotient_spec
from .linalg import Mat, congruence_generators, gl_generators, quotient_free_rank_members
from .grassmann import (
    SummandCatalog,
    enumerate_good_flags,
    flag_type,
    gaussian_binomial,
    grassmannian_size_formula,
    proper_ranks,
)
from .complexes import build_filtration, build_tits_complex, reduction_map
from .homology import (
    chain_complex,
    euler_characteristic_checks,
    fixed_subspace_dim,
    induced_top_map,
    permutation_orbits,
    reduced_homology,
)
from .steinberg import (
    apartment_span_rank,
    chamber_map,
    eta_class,
    p1_orbit_count,
    reverse_ut_facet,
    steinberg_rank,
    steinberg_rank_field,
    ut_apartment_pairing,
    ut_bases,
)

TABLE1 = {
    4: [1, 5, 113, 10879, 4324129, 6984271295],
    6: [1, 11, 911, 497149, 1696007149, 35372169269639],
    8: [1, 11, 1121, 978559, 7061119489, 414187232163839],
    9: [1, 11, 1171, 1149929, 10247219929, 824092678295459],
    10: [1, 17, 3473, 7649589, 174326656989, 40378418645294393],
}


class CheckContext:
    """Shared complex/homology cache."""

    def __init__(self, budget: int | None = DEFAULT_BUDGET):
        self.budget = budget
        self._cx = {}
        self._hom = {}

    def complex(self, label: str, n: int, m: int | None = None):
        key = (label, n, m)
        if key not in self._cx:
            spec = parse_ring_spec(label)
            if m is None:
                self._cx[key] = build_tits_complex(spec, n, self.budget)
            else:
                self._cx[key] = build_filtration(spec, n, m, self.budget)
        return self._cx[key]

    def homology(self, label: str, n: int, m: int | None = None):
        key = (label, n, m)
        if key not in self._hom:
            self._hom[key] = reduced_homology(self.complex(label, n, m))
        return self._hom[key]


def _check_table1(ctx):
    for d, wanted in TABLE1.items():
        spec = RingSpec.modular(d)
        got = [steinberg_rank(spec, n) for n in range(1, 7)]
        if got != wanted:
            return False, f"rank column for Z/{d} is {got}, expected {wanted}"
    return True, "30 table entries match"

def _check_field_formula(ctx):
    for p in (2, 3, 5, 7):
        spec = RingSpec.prime_field(p)
        for n in range(1, 7):
            a, b = steinberg_rank(spec, n), steinberg_rank_field(p, n)
            if a != b:
                return False, f"F{p}, n={n}: recursion {a} != q^(n choose 2) = {b}"
    return True, "recursion equals q^(n choose 2) for p in {2,3,5,7}, n <= 6"

def _check_trunc_poly_match(ctx):
    za, fe = RingSpec.modular(4), RingSpec.truncated_poly(2, 2)
    a = [steinberg_rank(za, n) for n in range(1, 6)]
    b = [steinberg_rank(fe, n) for n in range(1, 6)]
    return a == b, f"Z/4 column {a} vs F2[e]^2 column {b}"

def _check_gaussian_identities(ctx):
    for q in (2, 3, 4, 5, 7, 9):
        for n in range(0, 7):
            for k in range(0, n + 1):
                if gaussian_binomial(n, k, q) != gaussian_binomial(n, n - k, q):
                    return False, f"symmetry fails at ({n},{k},{q})"
            if n >= 1:
                s = sum(
                    (-1) ** (n - k) * q ** (k * (k - 1) // 2) * gaussian_binomial(n, k, q)
                    for k in range(0, n + 1)
                )
                if s != 0:
                    return False, f"alternating identity fails at n={n}, q={q}: {s}"
    return True, "symmetry and alternating identity hold for q <= 9, n <= 6"

def _check_grass(ctx, cases):
    checked = 0
    for label, nmax in cases:
        spec = parse_ring_spec(label)
        for n in range(1, nmax + 1):
            catalog = SummandCatalog(spec, n, ctx.budget)
            for k in range(0, n + 1):
                want = grassmannian_size_formula(spec, n, k)
                try:
                    got = len(catalog.grassmannian(k))
                except BudgetExceeded:
                    continue
                if got != want:
                    return False, f"|Gr_{k}^{n}({label})| enumerated {got} != formula {want}"
                checked += 1
    return True, f"{checked} Grassmannians agree with the closed formula"

def _check_ut(ctx, cases):
    for label, n in cases:
        for i, row in enumerate(ut_apartment_pairing(ctx.complex(label, n), ctx.budget)):
            for j, v in enumerate(row):
                if i == j and v not in (1, -1):
                    return False, f"({label}, n={n}): diagonal entry {v} at {i}"
                if i != j and v != 0:
                    return False, f"({label}, n={n}): off-diagonal entry {v} at ({i},{j})"
    return True, "upper-triangular pairings diagonal for " + ", ".join(f"({label},{n})" for label, n in cases)

def _check_eta(ctx, cases, summary):
    for label, n, m_payload in cases:
        cx = ctx.complex(label, n)
        eta = eta_class(cx, m_payload)
        if eta.is_zero():
            return False, f"eta over {label}, n={n} is zero"
        for k, b in enumerate(ut_bases(cx.ring, n, ctx.budget)):
            c = chamber_map(eta, reverse_ut_facet(cx, b))
            if c:
                return False, f"eta over {label}, n={n} has chamber map {c} at upper-triangular basis {k}"
        if not eta.boundary_is_zero():
            return False, f"eta over {label}, n={n} is not a cycle"
    return True, summary

def _check_homology(ctx, n, cases, summary):
    # reduced homology of Tn(R) is free and concentrated in the top degree
    for label, want in cases:
        hom = ctx.homology(label, n)
        if hom.betti != [0] * (n - 2) + [want] or any(hom.torsion):
            return False, f"T{n}({label}): {hom}"
    return True, summary

def _check_homology_t4f2(ctx):
    hom = ctx.homology("F2", 4)
    ok = hom.betti == [0, 0, 64] and not any(hom.torsion)
    return ok, f"T4(F2): {hom}"

def _check_homotopy_equivalence(ctx):
    a = ctx.homology("Z/4", 3)
    b = ctx.homology("F2[e]^2", 3)
    return a == b, f"T3(Z/4) {a.betti} vs T3(F2[e]^2) {b.betti}"

def _check_filtration_identity(ctx):
    cx = ctx.complex("Z/4", 4, 2)
    hom = ctx.homology("Z/4", 4, 2)
    nv, ne = cx.f_vector
    if hom.betti[0] != 0:
        return False, f"T_(4,2)(Z/4) is not connected: {hom}"
    graph_side = ne - nv + 1
    z4 = RingSpec.modular(4)
    recursion_side = grassmannian_size_formula(z4, 4, 2) * steinberg_rank(z4, 2) - (
        grassmannian_size_formula(z4, 4, 1) * steinberg_rank(z4, 1) - 1
    )
    ok = hom.betti[1] == graph_side == recursion_side == 2681
    return ok, f"b1 = {hom.betti[1]}, E-V+1 = {graph_side}, recursion side = {recursion_side}"

def _check_apartment_span(ctx):
    cases = [("Z/4", 2), ("Z/6", 2), ("F2", 3), ("Z/4", 3)]
    details = []
    for label, n in cases:
        cx = ctx.complex(label, n)
        hom = ctx.homology(label, n)
        want = hom.betti[n - 2]
        res = apartment_span_rank(cx, budget=ctx.budget)
        details.append(f"({label},{n}): span {res.rank} vs b {want}")
        if res.rank != want or not res.saturated:
            return False, "; ".join(details)
    return True, "; ".join(details)

def _check_invariants_dims(ctx):
    # (ring, level, n); the fixed top dimension should be rank St_n(R/I)
    cases = [("Z/4", 2, 2), ("Z/8", 2, 2), ("Z/8", 4, 2), ("Z/4", 2, 3), ("Z/6", 2, 3), ("Z/6", 3, 3)]
    details = []
    for label, ideal, n in cases:
        cx = ctx.complex(label, n)
        ring = cx.ring
        perms = [cx.simplex_permutation(g, n - 2) for g in congruence_generators(ring, n, [ideal])]
        got = fixed_subspace_dim(cx, n - 2, perms)
        want = steinberg_rank(quotient_spec(ring.spec, [ideal])[0], n)
        where = label if n == 2 else f"{label} n={n}"
        details.append(f"{where} Gamma(({ideal})): {got}")
        if got != want:
            return False, "; ".join(details) + f" (expected {want})"
    return True, "; ".join(details)

def _check_reducibility(ctx):
    cx = ctx.complex("Z/4", 2)
    red = reduction_map(cx, [2], ctx.budget)
    itm = induced_top_map(red)
    ok = itm.rank == 2 and itm.kernel_rank > 0 and itm.kernel_rank < itm.src_cycle_rank
    return ok, f"induced rank {itm.rank}, kernel rank {itm.kernel_rank} of {itm.src_cycle_rank}"

def _check_orbits(ctx, cases):
    details = []
    for label, k in cases:
        got = p1_orbit_count(parse_ring_spec(label), ctx.budget)
        details.append(f"{label}: {got}")
        if got != k + 1:
            return False, "; ".join(details) + f" (expected {k + 1})"
    return True, "; ".join(details)

def _check_boundary_composition(ctx):
    cases = [("Z/4", 2, None), ("F2", 3, None)]
    for label, n, m in cases:
        boundaries = chain_complex(ctx.complex(label, n, m))
        for lower, upper in zip(boundaries, boundaries[1:]):
            for col in upper:
                dd: dict[int, int] = {}
                for k, v in col.items():
                    for r, w in lower[k].items():
                        dd[r] = dd.get(r, 0) + v * w
                if any(dd.values()):
                    return False, f"boundary composition is nonzero on T{n}({label}) (dd != 0)"
    return True, "dd = 0 on all checked complexes"

def count_included_not_cofree(cx, budget: int | None = DEFAULT_BUDGET) -> int:
    """Pairs of vertices V, W with V contained in W and rank(V) < rank(W)
    whose quotient W/V is not free of rank rank(W) - rank(V), by the
    member-set peel of `quotient_free_rank_members`.

    The complex orders its vertices by containment alone, relying on the
    theorem that every such quotient is free; this is the independent count.
    """
    bad = 0
    for v in cx.vertices:
        for w in cx.vertices:
            if w.rank > v.rank and v.members <= w.members:
                gap = quotient_free_rank_members(cx.ring, cx.n, w.members, v.members, budget)
                if gap != w.rank - v.rank:
                    bad += 1
    return bad

def _check_purity_and_euler(ctx):
    labels = [("Z/4", 2, None), ("Z/6", 2, None), ("F2", 3, None), ("Z/4", 3, None)]
    for label, n, m in labels:
        cx = ctx.complex(label, n, m)
        if not cx.is_pure():
            return False, f"T{n}({label}) is not pure"
        bad = count_included_not_cofree(cx, ctx.budget)
        if bad:
            return False, f"T{n}({label}) saw {bad} included-but-not-cofree pairs"
        if not euler_characteristic_checks(ctx.homology(label, n, m)):
            return False, f"Euler characteristic mismatch on T{n}({label})"
    return True, "purity, cofree diagnostics, Euler identity on 4 complexes"

def _check_nerve_consistency(ctx):
    # flags of each type by a member-set scan, not the catalog's vector
    # index that the complex is built from
    cx = ctx.complex("Z/4", 3)
    vs = cx.vertices
    by_dim: dict[int, set] = {}
    for lam in [(1, 2), (2, 1), (1, 1, 1)]:
        ranks = proper_ranks(flag_type(lam, 3))
        chains = [()]
        for r in ranks:
            chains = [
                t + (j,) for t in chains for j, w in enumerate(vs)
                if w.rank == r and (not t or vs[t[-1]].members <= w.members)
            ]
        by_dim.setdefault(len(ranks) - 1, set()).update(chains)
    for d, level in enumerate(cx.simplices):
        if set(level) != by_dim.get(d, set()):
            return False, f"dimension {d}: poset chains differ from extension-built flags"
    return True, "poset-order chains equal extension-built flags on T3(Z/4)"

def _check_action_axioms(ctx):
    cx = ctx.complex("Z/4", 3)
    ring = cx.ring
    gens = gl_generators(ring, 3)
    ident = tuple(range(len(cx.vertices)))
    if cx.vertex_permutation(Mat.identity(ring, 3)) != ident:
        return False, "identity does not act trivially"
    import itertools as it

    for g, h in it.islice(it.product(gens[:6], gens[:6]), 20):
        pg = cx.vertex_permutation(g)
        ph = cx.vertex_permutation(h)
        pgh = cx.vertex_permutation(g.mul_mat(h))
        if tuple(pg[ph[i]] for i in range(len(ph))) != pgh:
            return False, "(gh) action differs from g then h"
    # rank strata preserved + transitivity per stratum via orbit closure
    for label, n in [("Z/4", 3), ("F3", 3)]:
        cxn = ctx.complex(label, n)
        perms = [cxn.vertex_permutation(g) for g in gl_generators(cxn.ring, n)]
        for p in perms:
            for i, j in enumerate(p):
                if cxn.vertices[i].rank != cxn.vertices[j].rank:
                    return False, f"action does not preserve rank strata on T{n}({label})"
        orbits = permutation_orbits(len(cxn.vertices), perms)
        for rank in (1, 2):
            stratum = [i for i, s in enumerate(cxn.vertices) if s.rank == rank]
            if stratum not in orbits:
                return False, f"action is not transitive on rank-{rank} stratum of T{n}({label})"
    return True, "action axioms, strata preservation, per-stratum transitivity"

def _check_reduction_functoriality(ctx):
    cx = ctx.complex("Z/4", 3)
    red = reduction_map(cx, [2], ctx.budget)
    if not red.is_simplicial():
        return False, "reduction is not simplicial"
    if not red.is_surjective_on_vertices():
        return False, "reduction is not surjective on vertices"
    # equivariance along GL_n(R) -> GL_n(R/I) on sampled generators
    ring = cx.ring
    tring = red.dst.ring
    table = [tring.el(p) for p in map(quotient_spec(ring.spec, [2])[1], ring.payloads)]
    for g in gl_generators(ring, 3)[:8]:
        gt = Mat(tring, [map(table.__getitem__, row) for row in g.rows])
        ps = cx.vertex_permutation(g)
        pt = red.dst.vertex_permutation(gt)
        for i in range(len(cx.vertices)):
            if red.vertex_map[ps[i]] != pt[red.vertex_map[i]]:
                return False, "reduction does not commute with the group action"
    return True, "reduction simplicial, facet-preserving, surjective, equivariant"


def reverify_flag(flag, budget: int | None = DEFAULT_BUDGET) -> bool:
    """Re-check every step of a flag, a tuple of summands, for cofreeness by
    the member-set peel of `quotient_free_rank_members`, independent of how
    the flag was built."""
    if not flag:
        return True
    ring = flag[0].ring
    n = flag[0].ambient
    prev = None
    for s in flag:
        if prev is not None:
            if not prev.members <= s.members:
                return False
            gap = quotient_free_rank_members(ring, n, s.members, prev.members, budget)
            if gap != s.rank - prev.rank:
                return False
        prev = s
    top = flag[-1]
    return quotient_free_rank_members(ring, n, None, top.members, budget) == n - top.rank


def _check_flag_reverification(ctx):
    ring = make_ring(RingSpec.modular(4))
    flags = enumerate_good_flags(ring, 3, (1, 1, 1), ctx.budget)
    for fl in flags[::17]:
        if not reverify_flag(fl, ctx.budget):
            return False, "an enumerated flag failed cofree re-verification"
    # quotient_free_rank(R^n, V) = n - rank(V) on the vertices of T3(Z/4)
    cx = ctx.complex("Z/4", 3)
    for s in cx.vertices[::7]:
        if quotient_free_rank_members(ring, 3, None, s.members, ctx.budget) != 3 - s.rank:
            return False, "ambient quotient rank disagrees with vertex rank"
    return True, "sampled flags re-verified; ambient quotient ranks consistent"


CHECKS = [
    ("table1", "fast", "rank table for composite moduli d <= 10, n <= 6", _check_table1),
    ("field-formula", "fast", "rank recursion equals q^(n choose 2) over prime fields", _check_field_formula),
    ("trunc-poly-match", "fast", "Z/4 and F2[e]^2 rank columns coincide", _check_trunc_poly_match),
    ("gaussian-identities", "fast", "Gaussian binomial symmetry and alternating identity", _check_gaussian_identities),
    ("grassmann-oracle", "fast", "Grassmannian enumeration equals the size formula (small)", partial(_check_grass, cases=[("Z/4", 2), ("F2", 3), ("F2[e]^2", 2), ("Z/2xZ/3", 2)])),
    ("ut-pairing", "fast", "upper-triangular apartment pairing is diagonal +-1 (small)", partial(_check_ut, cases=[("Z/4", 2), ("F2", 2), ("F2", 3)])),
    ("eta-witness", "fast", "eta class nonzero and killed by UT chamber maps (small)", partial(_check_eta, cases=[("Z/4", 2, 2)], summary="eta nonzero and killed by all UT chamber maps (Z/4, n=2)")),
    ("homology-n2", "fast", "degree-0 homology of the n=2 complexes", partial(_check_homology, n=2, cases=[("Z/4", 5), ("Z/6", 11)], summary="b0(T2(Z/4)) = 5, b0(T2(Z/6)) = 11, torsion-free")),
    ("reducibility-witness", "fast", "induced map to the residue field has a proper nonzero kernel", _check_reducibility),
    ("orbit-commutant", "fast", "line-pair orbit count equals k + 1 for a chain ring of length k (small)", partial(_check_orbits, cases=[("Z/4", 2), ("F5", 1)])),
    ("boundary-composition", "fast", "composed boundaries vanish", _check_boundary_composition),
    ("grassmann-oracle-full", "full", "Grassmannian enumeration equals the size formula (full sweep)", partial(_check_grass, cases=[("Z/4", 3), ("Z/6", 3), ("F2", 4), ("F3", 4), ("F2[e]^2", 3), ("Z/2xZ/3", 3)])),
    ("homology-n3", "full", "brute-force homology of T3(Z/4) and T3(Z/6) matches the recursion", partial(_check_homology, n=3, cases=[("Z/4", 113), ("Z/6", 911)], summary="T3(Z/4) = [0, 113], T3(Z/6) = [0, 911], torsion-free")),
    ("homology-t4f2", "full", "T4(F2) homology is concentrated in the top degree", _check_homology_t4f2),
    ("homotopy-equivalence", "full", "T3(Z/4) and T3(F2[e]^2) have equal homology", _check_homotopy_equivalence),
    ("filtration-identity", "full", "graph homology of T_(4,2)(Z/4) equals the recursion-side count", _check_filtration_identity),
    ("ut-pairing-full", "full", "upper-triangular apartment pairing is diagonal +-1 (large)", partial(_check_ut, cases=[("Z/9", 2), ("Z/4", 3)])),
    ("eta-witness-full", "full", "eta class nonzero and killed by UT chamber maps (large)", partial(_check_eta, cases=[("Z/9", 2, 3), ("Z/4", 3, 2)], summary="eta nonzero and killed by all UT chamber maps (Z/9 n=2, Z/4 n=3)")),
    ("apartment-span", "full", "apartment classes span the full top homology", _check_apartment_span),
    ("invariants-dims", "full", "congruence-invariant dimensions equal downstairs ranks", _check_invariants_dims),
    ("orbit-commutant-full", "full", "line-pair orbit count equals k + 1 for a chain ring of length k (large)", partial(_check_orbits, cases=[("Z/8", 3), ("Z/9", 2)])),
    ("structure-purity-euler", "full", "purity, cofree diagnostics and Euler identities", _check_purity_and_euler),
    ("structure-nerve", "full", "double construction of T3(Z/4) agrees", _check_nerve_consistency),
    ("structure-action", "full", "group action axioms and stratum transitivity", _check_action_axioms),
    ("structure-reduction", "full", "reduction map functoriality and equivariance", _check_reduction_functoriality),
    ("structure-flags", "full", "flag invariants re-verified independently", _check_flag_reverification),
]


def run_verify(
    tier: str = "fast",
    budget: int | None = DEFAULT_BUDGET,
    only=None,
) -> dict:
    """Run the named checks of a tier; returns the machine-readable report.

    `only` None runs the whole tier; an empty list of ids is an error."""
    if tier not in ("fast", "full"):
        raise ValueError(f"unknown tier {tier!r}")
    wanted = None if only is None else set(only)
    if wanted == set():
        raise ValueError("no check id given")
    tiers = {cid: ctier for cid, ctier, *_ in CHECKS}
    unknown = sorted((wanted or set()) - set(tiers))
    if unknown:
        raise ValueError(f"unknown check id(s): {', '.join(unknown)}")
    outside = sorted(cid for cid in wanted or () if tier == "fast" and tiers[cid] != "fast")
    if outside:
        named = ", ".join(f"{cid} ({tiers[cid]})" for cid in outside)
        raise ValueError(f"check id(s) outside tier {tier}: {named}")
    ctx = CheckContext(budget=budget)
    results = []
    for cid, ctier, desc, fn in CHECKS:
        if tier == "fast" and ctier != "fast":
            continue
        if wanted is not None and cid not in wanted:
            continue
        try:
            ok, detail = fn(ctx)
            status = "pass" if ok else "fail"
        except BudgetExceeded as e:
            status = "skip"
            detail = f"budget exceeded: {e}"
        except Exception as e:  # a check that raises has failed
            status = "fail"
            detail = f"{type(e).__name__}: {e}"
        results.append({"id": cid, "description": desc, "status": status, "detail": detail})
    statuses = [r["status"] for r in results]
    return {
        "schema_version": 1,
        "tier": tier,
        "budget": budget,
        "checks": results,
        "passed": statuses.count("pass"),
        "failed": statuses.count("fail"),
        "skipped": statuses.count("skip"),
        "ok": "fail" not in statuses,
    }
