import itertools
import pathlib
import random
import re

import pytest

import titscomplex
from titscomplex import (
    RingSpec,
    ideal_closure,
    make_ring,
    parse_ring_spec,
)
from titscomplex.rings import BudgetExceeded, budgeted_ring

ALL_SPECS = ["Z/4", "Z/6", "Z/8", "Z/9", "Z/10", "Z/12", "F2", "F7", "F2[e]^2", "F2[e]^3", "F3[e]^2", "Z/2xZ/3", "Z/2xZ/9"]


# -- brute-force oracles ------------------------------------------------------

def all_ideals(ring):
    """Every ideal of the ring, by closure of principal-ideal sums."""
    principal = {}
    for a in range(ring.card):
        principal[a] = frozenset(ring.mul[r][a] for r in range(ring.card))
    # principal sets are closed under addition already? no: {r*a} is closed
    # under scaling; close under addition to get the ideal (a)
    def additive_closure(gens):
        out = {ring.zero}
        frontier = list(gens)
        out.update(frontier)
        while frontier:
            new = []
            for x in frontier:
                for y in list(out):
                    z = ring.add[x][y]
                    if z not in out:
                        out.add(z)
                        new.append(z)
            frontier = new
        return frozenset(out)

    principal = {a: additive_closure(principal[a]) for a in range(ring.card)}
    ideals = {frozenset({ring.zero})}
    frontier = set(principal.values())
    ideals |= frontier
    while frontier:
        new = set()
        for ideal in frontier:
            for a in range(ring.card):
                bigger = additive_closure(ideal | principal[a])
                if bigger not in ideals:
                    new.add(bigger)
        ideals |= new
        frontier = new
    return ideals


def maximal_ideals(ring):
    proper = [i for i in all_ideals(ring) if len(i) < ring.card]
    return [i for i in proper if not any(i < j for j in proper)]


def test_enumeration_order_examples():
    assert budgeted_ring(RingSpec.modular(4)).payloads == [0, 1, 2, 3]
    # 0, 1, x, 1+x in coefficient tuples, low degree first
    assert budgeted_ring(RingSpec.truncated_poly(2, 2)).payloads == [
        (0, 0), (1, 0), (0, 1), (1, 1),
    ]
    prod = parse_ring_spec("Z/2xZ/3")
    assert budgeted_ring(prod).payloads == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
    ]


def test_enumeration_budget(forbid_tables):
    with pytest.raises(BudgetExceeded):
        budgeted_ring(RingSpec.modular(50), budget=10)
    # 10^5 elements fit the default budget, their 10^10 table entries do not
    forbid_tables(10**4)
    with pytest.raises(BudgetExceeded):
        budgeted_ring(RingSpec.modular(100000))


def test_budget_message_never_raises_on_a_long_estimate():
    # 10^5000 has more digits than the interpreter's default int-to-str
    # limit; the estimate stays exact and the message bounds it from below
    exc = BudgetExceeded(10**5000, 10**6, "Gr_1^15000(F2)")
    assert exc.estimate == 10**5000
    assert str(exc) == "enumeration of Gr_1^15000(F2) needs more than 10^4999 objects, budget is 1000000"
    # up to 4300 digits the estimate prints in full, as before
    assert str(BudgetExceeded(10**4300 - 1, 5)).endswith(f"needs ~{'9' * 4300} objects, budget is 5")


def test_arithmetic_examples():
    r6 = make_ring(RingSpec.modular(6))
    assert r6.payload(r6.mul[r6.el(4)][r6.el(5)]) == 2
    rp = make_ring(RingSpec.truncated_poly(2, 2))
    x = rp.el((0, 1))
    assert rp.payload(rp.mul[x][x]) == (0, 0)
    for spec in [RingSpec.modular(6), RingSpec.truncated_poly(2, 2)]:
        ring = make_ring(spec)
        for a in range(ring.card):
            assert ring.add[a][ring.zero] == a


def test_unit_inverse_examples():
    r4 = make_ring(RingSpec.modular(4))
    assert r4.inv[r4.el(3)] == r4.el(3)
    r6 = make_ring(RingSpec.modular(6))
    assert r6.inv[r6.el(2)] is None
    rp = make_ring(RingSpec.truncated_poly(2, 2))
    assert rp.inv[rp.el((1, 1))] == rp.el((1, 1))


def test_unit_inverse_exhaustive_oracle():
    for label in ALL_SPECS:
        ring = make_ring(parse_ring_spec(label))
        for a in range(ring.card):
            brute = [b for b in range(ring.card) if ring.mul[a][b] == ring.one]
            if brute:
                assert ring.inv[a] in brute
            else:
                assert ring.inv[a] is None


def test_units_equal_complement_of_maximal_ideals():
    for label in ["Z/4", "Z/6", "Z/12", "F7", "F2[e]^2", "Z/2xZ/3"]:
        ring = make_ring(parse_ring_spec(label))
        union = set()
        for ideal in maximal_ideals(ring):
            union |= ideal
        assert ring.units == set(range(ring.card)) - union


def test_radical_against_ideal_lattice():
    for label in ALL_SPECS:
        ring = make_ring(parse_ring_spec(label))
        rad = frozenset.intersection(*map(frozenset, maximal_ideals(ring)))
        assert ring.radical == rad, label


def test_radical_examples():
    r12 = make_ring(RingSpec.modular(12))
    assert sorted(r12.payload(i) for i in r12.radical) == [0, 6]
    assert len(r12.radical) == 2
    assert r12.spec.residue_field_orders == (2, 3)
    r4 = make_ring(RingSpec.modular(4))
    assert sorted(r4.payload(i) for i in r4.radical) == [0, 2]
    assert r4.spec.residue_field_orders == (2,)
    r7 = make_ring(RingSpec.prime_field(7))
    assert r7.radical == {r7.zero}
    assert r7.spec.residue_field_orders == (7,)


def zero_one_payloads(spec):
    """The zero and one payloads of a spec, worked out from its kind."""
    if spec.kind == "product":
        parts = [zero_one_payloads(f) for f in spec.params]
        return tuple(z for z, _ in parts), tuple(o for _, o in parts)
    if spec.kind == "trunc_poly":
        k = spec.params[1]
        return (0,) * k, (1,) + (0,) * (k - 1)
    return 0, 1


def test_spec_counting_data_matches_the_tables():
    """The spec's counts agree with the residue fields R/m, m maximal, and
    the radical read off the tables, and the tables' zero, one and negation
    are the kinds' own."""
    for label in ALL_SPECS:
        spec = parse_ring_spec(label)
        ring = make_ring(spec)
        orders = sorted(ring.card // len(m) for m in maximal_ideals(ring))
        assert sorted(spec.residue_field_orders) == orders, label
        assert spec.radical_size == len(ring.radical), label
        assert (ring.payload(ring.zero), ring.payload(ring.one)) == zero_one_payloads(spec), label
        for x in range(ring.card):
            assert ring.add[x][ring.neg[x]] == ring.zero
            assert ring.mul[ring.one][x] == x


def test_residue_field_orders_examples():
    assert RingSpec.modular(1000003).residue_field_orders == (1000003,)
    assert RingSpec.modular(4000).residue_field_orders == (2, 5)
    assert RingSpec.modular(4000).radical_size == 400
    assert parse_ring_spec("Z/4xF3[e]^2xZ/2").residue_field_orders == (2, 3, 2)
    assert parse_ring_spec("F5[e]^3").radical_size == 25


def test_chain_length_examples():
    for label, k in [("F7", 1), ("Z/4", 2), ("Z/27", 3), ("F2[e]^5", 5), ("F3[e]", 2)]:
        assert parse_ring_spec(label).chain_length == k, label
    assert RingSpec.modular(3**40).chain_length == 40
    for label in ["Z/6", "Z/12", "Z/2xZ/2", "Z/4xF2[e]^2"]:
        assert parse_ring_spec(label).chain_length is None, label


def test_only_rings_reads_a_spec_kind():
    """Ring kinds stay behind one module: no other module of the package
    branches on a spec's kind."""
    modules = sorted(pathlib.Path(titscomplex.__file__).parent.glob("*.py"))
    readers = [path.name for path in modules if re.search(r"\.kind\b", path.read_text())]
    assert readers == ["rings.py"]


def test_cardinality_factorisation():
    for label in ALL_SPECS:
        ring = make_ring(parse_ring_spec(label))
        prod = 1
        for q in ring.spec.residue_field_orders:
            prod *= q
        assert ring.card == len(ring.radical) * prod


def test_one_plus_radical_is_unit():
    for label in ALL_SPECS:
        ring = make_ring(parse_ring_spec(label))
        for j in ring.radical:
            assert ring.add[ring.one][j] in ring.units


def test_ring_axioms():
    random.seed(7)
    for label in ALL_SPECS:
        ring = make_ring(parse_ring_spec(label))
        if ring.card <= 16:
            triples = itertools.product(range(ring.card), repeat=3)
        else:
            triples = (
                tuple(random.randrange(ring.card) for _ in range(3)) for _ in range(500)
            )
        add, mul = ring.add, ring.mul
        for a, b, c in triples:
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
            assert add[add[a][b]][c] == add[a][add[b][c]]
            assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
            assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


def test_parse_roundtrip_and_errors():
    for label in ALL_SPECS:
        spec = parse_ring_spec(label)
        assert parse_ring_spec(spec.label) == spec
    assert parse_ring_spec("F2[e]").params == (2, 2)
    for bad in ["", "Z/1", "F4", "F6[e]^2", "Q8", "Z/x", "F2[e]^0"]:
        with pytest.raises(ValueError):
            parse_ring_spec(bad)


def test_parse_leaves_values_to_the_ring_spec(monkeypatch):
    # syntax is the parser's, primality and ranges are RingSpec's, so a
    # large prime base is trial-divided once
    # a number is -?[0-9]+: no underscores, other digits, spaces or plus
    for bad in ["Q8", "Z/x", "F2[e]x", "F2[e]^y", "Fz", "Z/1_0", "F2[e]^3_0", "F\u0663", "Z/ 9", "F2 [e]^2", "F+7"]:
        with pytest.raises(ValueError, match="cannot parse ring spec"):
            parse_ring_spec(bad)
    for bad, msg in [
        ("Z/1", "modular ring needs modulus >= 2, got 1"),
        ("F4", "prime field needs a prime, got 4"),
        ("F6[e]^2", "truncated polynomial ring needs a prime base, got 6"),
        ("F2[e]^0", "truncation order must be >= 1, got 0"),
        ("Z/-3", "modular ring needs modulus >= 2, got -3"),
        ("F2[e]^-1", "truncation order must be >= 1, got -1"),
    ]:
        with pytest.raises(ValueError, match=re.escape(msg)):
            parse_ring_spec(bad)
    calls = []
    factor = titscomplex.rings.prime_factors

    def counted(n):
        calls.append(n)
        return factor(n)

    monkeypatch.setattr(titscomplex.rings, "prime_factors", counted)
    p = 1000000000039
    for text, params in [(f"F{p}", (p,)), (f"F{p}[e]^2", (p, 2))]:
        calls.clear()
        assert parse_ring_spec(text).params == params
        assert calls == [p], text


def test_ideal_closure_examples():
    r6 = make_ring(RingSpec.modular(6))
    assert ideal_closure(r6, [r6.el(2), r6.el(3)]) == frozenset(range(6))
    assert ideal_closure(r6, [r6.el(2)]) == frozenset({0, 2, 4})
