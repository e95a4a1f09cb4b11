"""Exact arithmetic for the finite commutative rings this library supports.

Four kinds of rings are available: Z/m, prime fields F_p, truncated
polynomial rings F_p[x]/(x^k), and finite products of these.  A RingSpec
carries the counting data (cardinality, residue field orders of R/J, radical
size, chain length), which is all the closed formulas read.  A Ring holds
the full addition/multiplication tables, built by `make_ring` only after a
budget check, and reads zero, one, negation, inverses, units, the radical
and the primitive idempotents off them.  Downstream code works with element
*indices* into a fixed canonical enumeration; this keeps the hot enumeration
loops at table-lookup speed and makes every canonical form reproducible
across runs.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import re

DEFAULT_BUDGET = 10**6


class BudgetExceeded(RuntimeError):
    """Raised when an enumeration would exceed the configured object budget."""

    def __init__(self, estimate, budget, what=""):
        self.estimate = estimate
        self.budget = budget
        self.what = what
        msg = f"enumeration of {what or 'objects'} needs {_about(estimate)} objects, budget is {budget}"
        super().__init__(msg)


def _about(count: int) -> str:
    """`~count` in full up to 4300 digits, the interpreter's default
    int-to-str limit; beyond it, or under a lower limit, `more than 10^d`
    for the bit length b: log10(2) > 0.30102, so 10^d <= 2^(b-1) <= count."""
    with contextlib.suppress(ValueError):
        if count < 10**4300:
            return f"~{count}"
    return f"more than 10^{(count.bit_length() - 1) * 30102 // 100000}"


def check_budget(estimate, budget, what=""):
    if budget is not None and estimate > budget:
        raise BudgetExceeded(estimate, budget, what)


def log10_bound(cards, exponent: int) -> int:
    """An integer at least exponent * log10 of the product of `cards`: each
    c is at most 2^b, b the bit length of c - 1, and log10(2) < 0.30103."""
    bits = sum((c - 1).bit_length() for c in cards)
    return -(-exponent * bits * 30103 // 100000)


def is_prime(n: int) -> bool:
    return prime_factors(n) == [n]


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending, by trial division.  The
    divisors are budgeted: a divisor d > DEFAULT_BUDGET with d * d <= n
    still to try raises `BudgetExceeded`, so every n below
    (DEFAULT_BUDGET + 1)^2 is factored, and a prime near 10^18 is refused
    at once instead of after 10^9 divisions."""
    out = []
    d = 2
    while d * d <= n:
        if d > DEFAULT_BUDGET:
            raise BudgetExceeded(math.isqrt(n), DEFAULT_BUDGET, "trial divisors")
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class RingSpec:
    """Structural description of a supported finite commutative ring.

    kind is one of "modular", "prime_field", "trunc_poly", "product";
    params are (m,), (p,), (p, k) and a tuple of non-product factor specs
    respectively.  Specs are immutable, hashable, and render to the text
    syntax understood by parse_ring_spec (Z/12, F7, F2[e]^3, Z/2xZ/9).
    """

    __slots__ = ("kind", "params", "_orders")

    def __init__(self, kind, params):
        self.kind = kind
        self.params = params
        self._orders = None

    @staticmethod
    def modular(m: int) -> "RingSpec":
        if m < 2:
            raise ValueError(f"modular ring needs modulus >= 2, got {m}")
        return RingSpec("modular", (m,))

    @staticmethod
    def prime_field(p: int) -> "RingSpec":
        if not is_prime(p):
            raise ValueError(f"prime field needs a prime, got {p}")
        return RingSpec("prime_field", (p,))

    @staticmethod
    def truncated_poly(p: int, k: int) -> "RingSpec":
        if not is_prime(p):
            raise ValueError(f"truncated polynomial ring needs a prime base, got {p}")
        if k < 1:
            raise ValueError(f"truncation order must be >= 1, got {k}")
        return RingSpec("trunc_poly", (p, k))

    @staticmethod
    def product(factors) -> "RingSpec":
        flat = []
        for f in factors:
            if f.kind == "product":
                flat.extend(f.params)
            else:
                flat.append(f)
        if not flat:
            raise ValueError("product ring needs at least one factor")
        if len(flat) == 1:
            return flat[0]
        return RingSpec("product", tuple(flat))

    @property
    def cardinality(self) -> int:
        if self.kind in ("modular", "prime_field"):
            return self.params[0]
        if self.kind == "trunc_poly":
            p, k = self.params
            return p**k
        return math.prod(f.cardinality for f in self.params)

    @property
    def label(self) -> str:
        if self.kind == "modular":
            return f"Z/{self.params[0]}"
        if self.kind == "prime_field":
            return f"F{self.params[0]}"
        if self.kind == "trunc_poly":
            p, k = self.params
            return f"F{p}[e]^{k}"
        return "x".join(f.label for f in self.params)

    @property
    def residue_field_orders(self) -> tuple:
        """Orders of the residue fields of R/J, J the Jacobson radical: the
        distinct primes of m for Z/m, p for F_p and F_p[e]^k, and the
        factors' orders in turn for a product.  Worked out once per spec."""
        if self._orders is None:
            if self.kind == "modular":
                self._orders = tuple(prime_factors(self.params[0]))
            elif self.kind == "product":
                self._orders = tuple(q for f in self.params for q in f.residue_field_orders)
            else:
                self._orders = (self.params[0],)
        return self._orders

    @property
    def chain_length(self) -> int | None:
        """k when R is a chain ring of length k, its ideals the one chain
        R > J > J^2 > ... > J^k = 0; None when R is not local.  The local
        kinds, Z/p^k, F_p[e]^k and F_p (k = 1), are all chain rings, with
        residue field F_p and |R| = p^k."""
        if len(self.residue_field_orders) != 1:
            return None
        (p,), k = self.residue_field_orders, 1
        while p**k < self.cardinality:
            k += 1
        return k

    @property
    def radical_size(self) -> int:
        """|J| = |R| / (product of the residue field orders)."""
        return self.cardinality // math.prod(self.residue_field_orders)

    def __eq__(self, other):
        return isinstance(other, RingSpec) and self.kind == other.kind and self.params == other.params

    def __hash__(self):
        return hash((self.kind, self.params))

    def __repr__(self):
        return f"RingSpec({self.label!r})"


def parse_ring_spec(text: str) -> RingSpec:
    """Parse the CLI ring syntax.

    Grammar (round-trips through RingSpec.label):
        spec    := atom ("x" atom)*
        atom    := "Z/" int | "F" int | "F" int "[e]" ("^" int)?
        int     := "-"? [0-9]+
    F2[e] with no exponent means F2[e]^2, the dual numbers.  Only the syntax
    is checked here; the RingSpec constructors check primality and ranges.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty ring spec")
    parts = text.split("x")
    atoms = [_parse_atom(p.strip(), text) for p in parts]
    return RingSpec.product(atoms)


_ATOM = re.compile(r"Z/(-?[0-9]+)|F(-?[0-9]+)(\[e\](?:\^(-?[0-9]+))?)?")


def _parse_atom(atom: str, full: str) -> RingSpec:
    m = _ATOM.fullmatch(atom)
    if m is None:
        raise ValueError(f"cannot parse ring spec {full!r} (bad component {atom!r})")
    modulus, p, poly, k = m.groups()
    if modulus is not None:
        return RingSpec.modular(int(modulus))
    if poly is None:
        return RingSpec.prime_field(int(p))
    return RingSpec.truncated_poly(int(p), int(k or 2))


# ---------------------------------------------------------------------------
# payload-level arithmetic, used once to build the tables


def _payloads(spec: RingSpec) -> list:
    if spec.kind in ("modular", "prime_field"):
        return list(range(spec.params[0]))
    if spec.kind == "trunc_poly":
        # coefficient tuples (c_0, ..., c_{k-1}) in numeric order of sum c_i p^i
        p, k = spec.params
        return [t[::-1] for t in itertools.product(range(p), repeat=k)]
    factor_lists = [_payloads(f) for f in spec.params]
    return [tuple(t) for t in itertools.product(*factor_lists)]


def _pay_add(spec, a, b):
    if spec.kind in ("modular", "prime_field"):
        return (a + b) % spec.params[0]
    if spec.kind == "trunc_poly":
        p = spec.params[0]
        return tuple((x + y) % p for x, y in zip(a, b))
    return tuple(_pay_add(f, x, y) for f, x, y in zip(spec.params, a, b))


def _pay_mul(spec, a, b):
    if spec.kind in ("modular", "prime_field"):
        return (a * b) % spec.params[0]
    if spec.kind == "trunc_poly":
        p, k = spec.params
        out = [0] * k
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if i + j < k:
                    out[i + j] = (out[i + j] + x * y) % p
        return tuple(out)
    return tuple(_pay_mul(f, x, y) for f, x, y in zip(spec.params, a, b))


class Ring:
    """A finite commutative ring with fully tabulated arithmetic.

    Elements are referred to by index into `payloads`, the canonical
    enumeration (numeric order for Z/m and F_p[x]/(x^k), lexicographic
    component order for products).  All state is immutable after
    construction.
    """

    def __init__(self, spec: RingSpec):
        self.spec = spec
        self.payloads = pays = _payloads(spec)
        self.card = q = len(pays)
        self.index = index = {p: i for i, p in enumerate(pays)}
        self.add = [[index[_pay_add(spec, a, b)] for b in pays] for a in pays]
        self.mul = [[index[_pay_mul(spec, a, b)] for b in pays] for a in pays]
        # zero and one are the indices whose add and mul rows are the identity
        ident = list(range(q))
        self.zero = zero = self.add.index(ident)
        self.one = one = self.mul.index(ident)
        self.neg = [row.index(zero) for row in self.add]
        self.inv: list[int | None] = [row.index(one) if one in row else None for row in self.mul]
        self.units = frozenset(i for i in range(q) if self.inv[i] is not None)

    # -- conversions -------------------------------------------------------
    def el(self, payload) -> int:
        """Index of the element with the given canonical payload."""
        return self.index[payload]

    def payload(self, i: int):
        return self.payloads[i]

    def vec_payloads(self, v) -> tuple:
        return tuple(self.payloads[i] for i in v)

    # -- structure ---------------------------------------------------------
    def additive_generators(self) -> list[int]:
        """Indices of a generating set of (R, +); used for elementary matrices."""
        return [self.index[p] for p in _additive_generator_payloads(self.spec)]

    @functools.cached_property
    def radical(self) -> frozenset:
        """The Jacobson radical J, as the frozenset of its element indices.

        A finite commutative ring is Artinian, so J is its nilradical, the
        set of nilpotent elements.  The ideals (x) > (x^2) > ... of a
        nilpotent x fall strictly until 0, so x^card = 0, and x is
        nilpotent exactly when x^(2^b) = 0 with b = card.bit_length().
        """
        mul, zero, b = self.mul, self.zero, self.card.bit_length()
        nil = []
        for x in range(self.card):
            y = x
            for _ in range(b):
                y = mul[y][y]
            if y == zero:
                nil.append(x)
        return frozenset(nil)

    @functools.cached_property
    def primitive_idempotents(self) -> list[int]:
        """The primitive idempotents e_f, ascending: the nonzero idempotents
        e that no other nonzero idempotent d has d*e = d.  R is the product
        of its local factors R_f = e_f*R, and x lies in the maximal ideal
        over R_f exactly when x*e_f is nilpotent (`radical`).  The Grassmannian
        cells (`grassmann._local_factors`) and the apartment span's frame
        walk (`steinberg._invertible_frames`) both read the factors here."""
        mul, zero = self.mul, self.zero
        idempotents = [e for e in range(self.card) if e != zero and mul[e][e] == e]
        return [e for e in idempotents if all(d == e or mul[e][d] != d for d in idempotents)]

    def __repr__(self):
        return f"Ring({self.spec.label!r})"


def _additive_generator_payloads(spec):
    if spec.kind in ("modular", "prime_field"):
        return [1]
    if spec.kind == "trunc_poly":
        p, k = spec.params
        gens = []
        for j in range(k):
            mono = [0] * k
            mono[j] = 1
            gens.append(tuple(mono))
        return gens
    # every kind lists its zero payload first
    zero = tuple(_payloads(f)[0] for f in spec.params)
    gens = []
    for pos, f in enumerate(spec.params):
        for g in _additive_generator_payloads(f):
            emb = list(zero)
            emb[pos] = g
            gens.append(tuple(emb))
    return gens


def spec_of(spec_or_ring) -> RingSpec:
    """The spec of a Ring, or the argument itself when it is a RingSpec."""
    return spec_or_ring.spec if isinstance(spec_or_ring, Ring) else spec_or_ring


_ring_cache: dict[RingSpec, Ring] = {}


def make_ring(spec: RingSpec) -> Ring:
    """Ring for a spec, cached so tables are built once per process."""
    ring = _ring_cache.get(spec)
    if ring is None:
        ring = Ring(spec)
        _ring_cache[spec] = ring
    return ring


def budgeted_ring(spec: RingSpec, budget: int | None = DEFAULT_BUDGET) -> Ring:
    """`make_ring` after checking the q^2 entries of each table against the budget."""
    check_budget(spec.cardinality**2, budget, f"the tables of {spec.label}")
    return make_ring(spec)


def ideal_closure(ring: Ring, element_indices) -> frozenset:
    """The ideal generated by the given elements, as a set of indices.

    Computed as the additive closure of all multiples r*a; exhaustive and
    exact, intended for desk-scale rings.
    """
    mul = ring.mul
    add = ring.add
    multiples = {mul[r][a] for a in element_indices for r in range(ring.card)}
    closure = {ring.zero}
    frontier = list(multiples)
    closure.update(frontier)
    while frontier:
        new = []
        for x in frontier:
            row = add[x]
            for y in multiples:
                z = row[y]
                if z not in closure:
                    closure.add(z)
                    new.append(z)
        frontier = new
    return frozenset(closure)


def quotient_spec(spec: RingSpec, gen_payloads):
    """Quotient R/I, I generated by the given payloads, as a supported spec
    with the payload reduction map.

    Returns (target_spec, reduce) where reduce maps a source payload to the
    corresponding target payload.  Raises ValueError when R/I is the zero
    ring or otherwise not expressible in a supported kind.  The payloads are
    taken as given: `complexes.reduction_map` checks them against the ring.
    """
    if spec.kind in ("modular", "prime_field"):
        m = spec.params[0]
        d = m
        for g in gen_payloads:
            d = math.gcd(d, g)
        if d == 1:
            raise ValueError(f"quotient of {spec.label} by a unit ideal is the zero ring")
        if d == m:
            return spec, lambda a: a
        return RingSpec.modular(d), lambda a, d=d: a % d
    if spec.kind == "trunc_poly":
        p, k = spec.params
        j = k
        for g in gen_payloads:
            val = next((t for t, c in enumerate(g) if c != 0), k)
            j = min(j, val)
        if j == 0:
            raise ValueError(f"quotient of {spec.label} by a unit ideal is the zero ring")
        if j == k:
            return spec, lambda a: a
        return RingSpec.truncated_poly(p, j), lambda a, j=j: a[:j]
    # product: reduce componentwise, dropping factors that die
    factors = spec.params
    sub = []
    for pos, f in enumerate(factors):
        comp_gens = [g[pos] for g in gen_payloads]
        try:
            tspec, red = quotient_spec(f, comp_gens)
            sub.append((pos, tspec, red))
        except ValueError:
            continue
    if not sub:
        raise ValueError(f"quotient of {spec.label} by a unit ideal is the zero ring")
    if len(sub) == 1:
        pos, tspec, red = sub[0]
        return tspec, lambda a, pos=pos, red=red: red(a[pos])
    tspec = RingSpec.product([t for _, t, _ in sub])

    def reduce(a, sub=tuple(sub)):
        return tuple(red(a[pos]) for pos, _, red in sub)

    return tspec, reduce
