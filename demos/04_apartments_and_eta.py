#!/usr/bin/env python3
# Apartment classes: explicit top cycles indexed by bases of R^n.  They span
# the top homology; the upper-triangular ones are independent but, away from
# fields, fail to span, witnessed by the eta class.

from titscomplex import (
    Mat,
    apartment_class,
    apartment_span_rank,
    build_tits_complex,
    chamber_map,
    eta_class,
    make_ring,
    parse_ring_spec,
    reverse_ut_facet,
    ut_apartment_pairing,
    ut_bases,
)

z4 = make_ring(parse_ring_spec("Z/4"))
cx = build_tits_complex(z4, 2)

# An apartment class is a signed sum of complete flags refining a basis.
ident = Mat.identity(z4, 2)
apt = apartment_class(cx, ident)
print("apartment of the identity basis:",
      {cx.ring.vec_payloads(cx.vertices[t[0]].preferred_basis[0]): c
       for t, c in apt.support_facets().items()})
print("it is a cycle:", apt.boundary_is_zero())

# Chamber maps read off single coefficients; the class of a basis has
# coefficient +1 on its own reverse upper-triangular flag.
print("self-pairing:", chamber_map(apt, reverse_ut_facet(cx, ident)))

# Pairing every upper-triangular apartment against every reverse flag gives
# an identity matrix: those classes are linearly independent.
M = ut_apartment_pairing(cx)
print("UT pairing over Z/4, n=2:")
for row in M:
    print("  ", row)

# But they do not span: eta is a nonzero cycle killed by every
# upper-triangular chamber map (it needs a nonzero non-unit, so it does not
# exist over a field).
eta = eta_class(cx, 2)
print("eta:", {cx.ring.vec_payloads(cx.vertices[t[0]].preferred_basis[0]): c
               for t, c in eta.support_facets().items()})
print("eta chamber values on UT flags:",
      [chamber_map(eta, reverse_ut_facet(cx, b)) for b in ut_bases(z4, 2)])

# All apartments together do span: the lattice they generate has full rank.
for label, n in [("Z/4", 2), ("Z/6", 2), ("F2", 3), ("Z/4", 3)]:
    ring = make_ring(parse_ring_spec(label))
    cxn = build_tits_complex(ring, n)
    res = apartment_span_rank(cxn)
    print(f"{label}, n={n}: span rank {res.rank} ({res.apartments_used} apartments, "
          f"{res.mode}) vs top betti {res.top_betti}")
