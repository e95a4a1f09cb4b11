#!/usr/bin/env python3
# Rings and Grassmannians: exact arithmetic in small finite rings, and
# counting free-and-cofree summands two ways (closed formula vs enumeration).

from titscomplex import (
    RingSpec,
    enumerate_grassmannian,
    gaussian_binomial,
    gl_order,
    grassmannian_size_formula,
    make_ring,
    parse_ring_spec,
)

# Rings are described structurally and parsed from a compact text syntax.
z12 = parse_ring_spec("Z/12")        # the integers mod 12
f7 = parse_ring_spec("F7")           # the field with 7 elements
dual = parse_ring_spec("F2[e]^2")    # F2[x]/(x^2), the dual numbers over F2
prod = parse_ring_spec("Z/2xZ/3")    # a product ring, isomorphic to Z/6 by CRT

for spec in (z12, f7, dual, prod):
    print(spec.label, "has", spec.cardinality, "elements")

# Elements are indices into a fixed canonical list of payloads; arithmetic
# reads the ring's add, mul, neg and inv tables at those indices.
print(make_ring(dual).payloads)  # 0, 1, x, 1+x

ring = make_ring(z12)
a, b = ring.el(8), ring.el(9)
print("8 * 9 mod 12 =", ring.payload(ring.mul[a][b]))
print("inverse of 5 mod 12:", ring.payload(ring.inv[ring.el(5)]))
print("inverse of 8 mod 12:", ring.inv[ring.el(8)])  # None: a zero divisor

# The Jacobson radical (the nilpotent elements) and the residue fields of
# R/J drive all the counting formulas.  The tables give the radical itself;
# the spec alone gives its size and the residue field orders.
rad = ring.radical
print("radical of Z/12: size", len(rad), "elements", sorted(ring.payload(i) for i in rad))
print("from the spec alone: |J| =", z12.radical_size,
      "residue fields of orders", list(z12.residue_field_orders))

# Gaussian binomials count subspaces over a field...
print("2-dim subspaces of F2^4:", gaussian_binomial(4, 2, 2))     # 35

# ...and the radical factorisation extends the count to any supported ring:
# |Gr_k^n(R)| = |J|^(k(n-k)) * prod over residue fields of |Gr_k^n(F_q)|
for label, n, k in [("Z/4", 2, 1), ("Z/6", 2, 1), ("Z/4", 4, 2)]:
    print(f"|Gr_{k}^{n}({label})| =", grassmannian_size_formula(parse_ring_spec(label), n, k))

# The same numbers fall out of honest enumeration (the GL_n orbit of a coordinate line).
lines = enumerate_grassmannian(z12, 2, 1)
print("lines in (Z/12)^2: enumerated", len(lines),
      "vs formula", grassmannian_size_formula(z12, 2, 1))
print("one line, preferred basis:", lines[0].payload_basis())

# Group orders come from the same factorisation.
print("|GL_2(Z/4)| =", gl_order(RingSpec.modular(4), 2))   # 96
print("|GL_6(Z/10)| =", gl_order(RingSpec.modular(10), 6))
