#!/usr/bin/env python3
# Representation-flavoured computations: the kernel of the reduction map,
# congruence-subgroup invariants, and orbit/commutant counts for pairs of
# lines, all over rationals but with exact integer arithmetic underneath.

from titscomplex import (
    build_tits_complex,
    congruence_generators,
    fixed_subspace_dim,
    induced_top_map,
    make_ring,
    p1_orbit_count,
    parse_ring_spec,
    reduction_map,
    steinberg_rank,
)

z4 = make_ring(parse_ring_spec("Z/4"))
cx = build_tits_complex(z4, 2)

# The reduction to the residue field induces a map on top homology whose
# kernel is nonzero and proper: the top homology is never irreducible away
# from fields.
red = reduction_map(cx, [2])
itm = induced_top_map(red)
print("induced map to T_2(Z/2): rank", itm.rank, "of", itm.src_cycle_rank,
      "| kernel rank", itm.kernel_rank)

# The fixed space of a principal congruence subgroup, acting on top
# homology through a generating set, matches the rank of the complex over
# the quotient ring.
for label, ideal, n in [("Z/4", 2, 2), ("Z/8", 2, 2), ("Z/8", 4, 2), ("Z/4", 2, 3)]:
    ring = make_ring(parse_ring_spec(label))
    cxr = build_tits_complex(ring, n)
    gens = congruence_generators(ring, n, [ideal])
    perms = [cxr.simplex_permutation(g, n - 2) for g in gens]
    dim = fixed_subspace_dim(cxr, n - 2, perms)
    downstairs = steinberg_rank(parse_ring_spec(f"Z/{ideal}"), n)
    print(f"{label}, n = {n}, congruence level ({ideal}), {len(gens)} generators: "
          f"invariant dimension {dim} (rank over Z/{ideal} is {downstairs})")

# For n = 2 the rank-one summands of R^2 form one orbit, and the number of
# GL_2-orbits on PAIRS of lines counts the summands of the permutation
# module: over a chain ring of length k there are k+1 of them.  The same
# number appears as the dimension of the commutant algebra, whose basis is
# the orbit sums on pairs; the library counts the orbits once, by one sweep
# under the generators, and reports that count for both.
for label in ("Z/4", "Z/8", "Z/9", "F5", "F2[e]^3"):
    orbits = p1_orbit_count(parse_ring_spec(label))
    print(f"{label}: {orbits} orbits on line pairs, commutant dimension {orbits}")
