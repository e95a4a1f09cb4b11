"""Flag complexes of free-and-cofree summands over finite commutative rings.

The library builds the simplicial complex of good flags in R^n for a finite
commutative ring R, computes its exact integral homology, and analyses the
top homology (rank recursion, apartment classes, chamber pairings,
congruence invariants, orbit counts).  Everything is exact integer
arithmetic; outputs are deterministic.
"""

from .rings import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    Ring,
    RingSpec,
    ideal_closure,
    make_ring,
    parse_ring_spec,
)
from .linalg import (
    Mat,
    Summand,
    congruence_generators,
    elementary_matrix,
    gl_generators,
    is_unimodular,
    span_summand,
    unit_scaling,
)
from .grassmann import (
    SummandCatalog,
    enumerate_good_flags,
    enumerate_grassmannian,
    flag_type,
    gaussian_binomial,
    gl_order,
    grassmannian_size_formula,
)
from .complexes import (
    SimplicialComplex,
    SimplicialReduction,
    TitsComplex,
    build_filtration,
    build_tits_complex,
    reduction_map,
)
from .homology import (
    HomologyResult,
    chain_complex,
    coreduce,
    fixed_subspace_dim,
    induced_top_map,
    reduced_homology,
    smith_rank_and_divisors,
)
from .steinberg import (
    RankTable,
    SteinbergChain,
    apartment_class,
    apartment_span_rank,
    chamber_map,
    eta_class,
    p1_orbit_count,
    reverse_ut_facet,
    steinberg_rank,
    steinberg_rank_field,
    table_generate,
    ut_apartment_pairing,
    ut_bases,
)

__version__ = "0.1.0"


def __getattr__(name):
    # `verify` is compiled only when used: no CLI command but `verify` needs it
    if name == "run_verify":
        from .verify import run_verify

        return run_verify
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
