"""Exact integral homology of the flag complexes.

Boundaries have one format, the face tuples of `SimplicialComplex.faces`.
A matrix is a list of sparse integer columns (dicts row -> entry), built
from the faces only where a Smith rank needs one.  Every exact rank is a
Smith rank, `smith_rank_and_divisors(cols)[0]`: one unit-pivot pass
(`_unit_pivots`: a reduced echelon form whose pivots lead at +-1 entries)
splits off an identity block, and what it leaves goes through alternating
column and row echelon forms of the lattice echelon `IntEchelon`
(Kannan-Bachem).  Induced maps and fixed subspaces are reported by their ranks.
`coreduce` removes coreduction pairs (a cell with one live face, and that
face) from the augmented complex, read from the simplices' faces, and
returns the coreduced complex.  Restriction to its cells is an isomorphism
of top cycle lattices over Z, which gives apartment classes short exact
coordinates and the apartment span its bound.  `reduced_homology` runs
Smith on each boundary of the coreduced complex, with an identity block
for the pairs removed there, which gives the full boundary's rank and
invariant factors.
No floating point and no fractions.  The one modular computation,
`ModPEchelon` (balanced residues mod a prime), is a lower bound on a rank
over Q; it certifies an exact rank only when it meets a proven upper
bound, and is never reported alone.
"""

from __future__ import annotations

import math
from itertools import compress, cycle
from types import MappingProxyType


def _columns(cx, d: int) -> list[dict]:
    """The boundary of each d-cell as a sparse column {face position: +-1}."""
    return [dict(zip(fs, cycle((1, -1)))) for fs in cx.faces(d)]


def _boundary(faces, chain: dict) -> dict:
    """The boundary of a chain {cell: coefficient}, summed from the cells'
    faces (`cx.faces`), without zero entries."""
    acc: dict[int, int] = {}
    for a, c in chain.items():
        for b, e in zip(faces[a], cycle((c, -c))):
            acc[b] = acc.get(b, 0) + e
    return {b: v for b, v in acc.items() if v}


def chain_complex(cx) -> list[list[dict]]:
    """The augmented boundaries of a simplicial complex, degree 0 to dim, each
    a list of sparse columns.  The library reads faces (`cx.faces`); this
    export serves `verify`'s dd = 0 check and the tests' Smith oracles.

    The boundary of a d-simplex is the alternating sum of its faces in the
    rank-increasing vertex order; the augmentation sends every vertex to 1.
    """
    return [_columns(cx, d) for d in range(cx.dim + 1)]


# ---------------------------------------------------------------------------
# exact ranks and invariant factors


def smith_rank_and_divisors(cols, units: int = 0) -> tuple[int, list[int]]:
    """Exact rank and invariant factors (SNF diagonal) of the integer matrix
    I_units + M, the identity block of size `units` beside the matrix M
    whose columns are the sparse dicts `cols` (row -> entry).  The columns
    are read, never mutated.

    `_unit_pivots` splits M into k unit pivots and a residual R with
    SNF(M) = I_k + SNF(R); the residual, usually empty on the boundaries of
    these complexes, goes through `_kannan_bachem`.  The identity block
    adds `units` to the rank and `units` ones to the front of the divisor
    chain, and is never built: `reduced_homology` passes the coreduction
    pairs of a degree there, so that the call on a boundary of the
    coreduced complex returns the Smith data of the full one.
    """
    k, residual = _unit_pivots(cols)
    r, divisors = _kannan_bachem(residual)
    k += units
    return k + r, [1] * k + divisors


def _unit_pivots(cols) -> tuple[int, list[dict]]:
    """The unit-pivot pass (the first phase of sparse integer Smith form,
    Dumas-Saunders-Villard 2001): the number k of unit pivots, and the
    residual columns.

    The columns are inserted one by one into an echelon form kept reduced,
    where every pivot has lead entry +1 and is zero at every other pivot's
    lead.  An incoming column is reduced in one pass over its own entries
    at pivot leads.  If it still has an entry +-1, it becomes a pivot led
    at the +-1 entry whose row the fewest pivots touch (ties by index; the
    rule `ModPEchelon` uses mod p), scaled by -1 if needed, and its lead row
    is cleared from every pivot touching it.  A nonzero column with no unit
    entry goes to the residual.  At the end each residual column is reduced
    against the final pivots, since a pivot added after it was stashed may
    lead on its rows.

    Why this is exact: every step is a unimodular column operation, so
    M U = [P | R | 0] with U unimodular, P the k pivots (the identity on
    their lead rows) and R the residual (zero on every lead row).  Row
    operations with the lead rows clear P off its lead rows and leave R
    alone, so SNF(M) = I_k + SNF(R) and rank M = k + rank R.  Arithmetic is
    on exact integers, with no modulus and no division.

    A column holding an explicit zero entry is read without it.
    """
    pivots: dict[int, dict] = {}  # lead row -> pivot column, +1 at its lead
    touching: dict[int, set] = {}  # row -> leads of the other pivots nonzero there
    residual = []
    for col in cols:
        if not col:  # adds nothing; most columns of a coreduced boundary are zero
            continue
        col = {k: v for k, v in col.items() if v} if 0 in col.values() else col
        vec = _reduce(pivots, col)
        units = [k for k, v in vec.items() if v == 1 or v == -1]
        if not units:
            if vec:
                residual.append(vec)
            continue
        lead = min(units, key=lambda k: (len(touching.get(k, ())), k))
        if vec[lead] == -1:
            vec = {k: -v for k, v in vec.items()}
        # clear the new lead's row from every other pivot
        for other in touching.pop(lead, ()):
            piv = pivots[other]
            c = piv[lead]
            for k, v in vec.items():
                nv = piv.get(k, 0) - c * v
                if nv:
                    if k not in piv:
                        touching.setdefault(k, set()).add(other)
                    piv[k] = nv
                else:
                    del piv[k]
                    if k != lead:
                        touching[k].discard(other)
        pivots[lead] = vec
        for k in vec:
            if k != lead:
                touching.setdefault(k, set()).add(lead)
    residual = [vec for vec in (_reduce(pivots, r) for r in residual) if vec]
    return len(pivots), residual


def _reduce(pivots: dict, vec: dict) -> dict:
    """vec minus its entries at the leads of a reduced echelon form (each
    pivot +1 at its lead and zero at the others), as a new dict."""
    vec = dict(vec)
    for lead in [k for k in vec if k in pivots]:
        c = vec[lead]
        for k, v in pivots[lead].items():
            nv = vec.get(k, 0) - c * v
            if nv:
                vec[k] = nv
            else:
                del vec[k]
    return vec


def _kannan_bachem(vectors) -> tuple[int, list[int]]:
    """Rank and invariant factors of the matrix with the given columns.

    Alternates column and row echelon forms (Kannan-Bachem): insert the
    columns into an `IntEchelon`, then the rows of its pivots into a new
    one, and so on, until every pivot has a single entry.  The diagonal
    left behind is turned into the divisibility chain by
    `normalize_divisors`.
    """
    while True:
        ech = IntEchelon()
        for vec in vectors:
            ech.add(vec)
        pivots = ech.pivots
        leads = [piv[lead] for lead, piv in pivots.items()]
        # Ordered by lead, the pivots are lower-triangular on their lead
        # indices; with a unit diagonal that r x r minor is +-1, so every
        # invariant factor is 1.
        if all(v in (1, -1) for v in leads):
            return len(leads), [1] * len(leads)
        if all(len(piv) == 1 for piv in pivots.values()):
            return len(leads), normalize_divisors(leads)
        rows: dict[int, dict[int, int]] = {}
        for k, lead in enumerate(sorted(pivots)):
            for i, v in pivots[lead].items():
                rows.setdefault(i, {})[k] = v
        vectors = [rows[i] for i in sorted(rows)]


class IntEchelon:
    """Incremental exact rank of a growing family of sparse integer vectors.

    `pivots` is a lattice echelon form: it maps each lead (smallest) index
    to the one stored vector with that lead, and spans exactly the lattice
    of the vectors added so far.
    """

    def __init__(self):
        self.pivots: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, vec: dict) -> bool:
        """Insert a vector; True when it increased the rank.

        vec is reduced against the pivot at its lead: by a multiple of it
        when the pivot's lead entry divides vec's, otherwise by the
        unimodular 2x2 gcd step, which replaces both.  Every step is
        unimodular, so the pivots always span the lattice of the inserted
        vectors.
        """
        pivots = self.pivots
        while vec:
            lead = min(vec)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = vec
                return True
            a = vec[lead]
            b = piv[lead]
            if a % b == 0:
                vec = _lincomb(vec, 1, piv, -(a // b))
            else:
                # new pivot = x*piv + y*vec, new vec = -(a/g)*piv + (b/g)*vec (det 1)
                g, x, y = _ext_gcd(b, a)
                pivots[lead] = _lincomb(piv, x, vec, y)
                vec = _lincomb(piv, -(a // g), vec, b // g)
        return False


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x*a + y*b."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _lincomb(d0: dict, a: int, d1: dict, b: int) -> dict:
    out = {}
    for k, v in d0.items():
        nv = a * v
        if nv:
            out[k] = nv
    for k, v in d1.items():
        nv = out.get(k, 0) + b * v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def normalize_divisors(pivots) -> list[int]:
    """Invariant factors of diag(pivots), by one gcd/lcm pass over the pairs
    i < j of the non-unit entries.

    diag(a, b) and diag(gcd(a, b), lcm(a, b)) have the same Smith form, so
    no step changes the answer, and one pass ends in a divisibility chain:
    the step (i, j) leaves entry i dividing entry j and every entry it met
    before (it only shrinks to a divisor), so after the steps for i it
    divides every later entry, and the later steps replace those only by
    gcds and lcms of multiples of it.  A chain of positive integers
    ascends, units first."""
    divs = [abs(p) for p in pivots]
    rest = [d for d in divs if d != 1]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            a, b = rest[i], rest[j]
            g = math.gcd(a, b)
            rest[i], rest[j] = g, a // g * b
    return [1] * (len(divs) - len(rest)) + rest


MOD_P = (1 << 61) - 1  # a Mersenne prime
_HALF_P = MOD_P // 2


def _balanced(x: int) -> int:
    """The residue of x mod MOD_P in [-_HALF_P, _HALF_P], i.e. (-p/2, p/2]."""
    return (x + _HALF_P) % MOD_P - _HALF_P


class ModPEchelon:
    """Incremental rank mod the prime MOD_P of sparse integer vectors.

    Reducing mod p can only lower a rank, so `rank` is at most the exact
    rank over Q: a one-sided certificate, exact once it meets an upper
    bound.  The pivots are kept in reduced echelon form (monic, and zero at
    every other pivot's lead), so a vector is reduced in one pass over its
    own entries.  A new pivot leads at the entry whose column the fewest
    pivots touch, which keeps back-substitution and fill small.  The
    unit-pivot pass `_unit_pivots` is the same scheme over the integers,
    restricted to +-1 leads; the two are kept apart so that no modulus
    enters the exact path.

    Entries are balanced residues, in (-p/2, p/2]: an integer is reduced
    mod p only when it leaves that range, so the +-1 entries of apartment
    classes and the small sums they make are never divided, and a +-1 lead
    is made monic by a sign, not by `pow(., -1, p)`.  Each residue has one
    balanced representative, and an entry is dropped exactly when it is 0
    mod p, so the pivots (as residues), their leads and the rank after
    every vector are those of the same echelon kept in [0, p).

    `_units` holds the leads whose pivot is the unit vector e_k, its lead
    entry alone.  Reducing by such a pivot only drops entry k, so a vector
    with all its entries on `_units` reduces to 0 and is refused before any
    arithmetic, and any other vector drops those entries before its one
    reduction pass (the other pivots are zero at every lead, so they never
    bring an entry back).  The set only grows: clearing a new lead's column
    rewrites only pivots nonzero at that column, which is no pivot's lead,
    so a single-entry pivot is never rewritten; and a rewritten pivot that
    is left with its lead entry alone joins the set.  The pivots, their
    leads and the rank after every vector are those of the plain pass.
    """

    def __init__(self):
        self.pivots: dict[int, dict] = {}
        self._touching: dict[int, set] = {}  # column -> leads of the pivots nonzero there
        self._units: set = set()  # leads whose pivot has its lead entry alone

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, vec: dict) -> bool:
        """Insert a vector; True when it increased the rank mod p."""
        lo, hi, pivots, touching, units = -_HALF_P, _HALF_P, self.pivots, self._touching, self._units
        if vec.keys() <= units:
            return False
        vals = vec.values()
        if min(vals) < lo or max(vals) > hi or 0 in vals:
            vec = {k: b for k, v in vec.items() if (b := _balanced(v))}
        else:
            vec = dict(vec)
        for k in units.intersection(vec):
            del vec[k]
        for lead in [k for k in vec if k in pivots]:
            c = vec[lead]
            for k, v in pivots[lead].items():
                nv = vec.get(k, 0) - c * v
                if not lo <= nv <= hi:
                    nv = _balanced(nv)
                if nv:
                    vec[k] = nv
                else:
                    del vec[k]
        if not vec:
            return False
        lead = min(vec, key=lambda k: (len(touching.get(k, ())), k))
        c = vec[lead]
        if c == 1:
            new = vec
        elif c == -1:
            new = {k: -v for k, v in vec.items()}
        else:
            inv = pow(c, -1, MOD_P)
            new = {k: _balanced(v * inv) for k, v in vec.items()}
        # clear the new lead's column from every other pivot
        for other in touching.pop(lead, ()):
            row = pivots[other]
            c = row[lead]
            for k, v in new.items():
                nv = row.get(k, 0) - c * v
                if not lo <= nv <= hi:
                    nv = _balanced(nv)
                if nv:
                    if k not in row:
                        touching.setdefault(k, set()).add(other)
                    row[k] = nv
                else:
                    del row[k]
                    if k != lead:
                        touching[k].discard(other)
            if len(row) == 1:
                units.add(other)
        pivots[lead] = new
        if len(new) == 1:
            units.add(lead)
        for k in new:
            if k != lead:
                touching.setdefault(k, set()).add(lead)
        return True


class HomologyResult:
    """Reduced Betti numbers and torsion divisors per degree."""

    def __init__(self, betti, torsion, f_vector):
        self.betti = list(betti)
        self.torsion = [list(t) for t in torsion]
        self.f_vector = list(f_vector)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "f_vector": self.f_vector,
            "homology": [
                {"degree": d, "betti": self.betti[d], "torsion": self.torsion[d]}
                for d in range(len(self.betti))
            ],
        }

    def __eq__(self, other):
        return (
            isinstance(other, HomologyResult)
            and self.betti == other.betti
            and self.torsion == other.torsion
        )

    def __repr__(self):
        return f"HomologyResult(betti={self.betti}, torsion={self.torsion})"


def reduced_homology(cx) -> HomologyResult:
    """Reduced integral homology of a simplicial complex from exact Smith
    data of the boundaries, read on the complex `coreduce` returns.

    `coreduce` runs once.  Then each degree d = 0..dim, in order, gets
    one `smith_rank_and_divisors` call on the coreduced boundary out of
    degree d, with `units` = p_d, the number of coreduction pairs between
    degrees d and d - 1 (p_0 pairs a vertex with the empty simplex).  The
    call returns the Smith data of I_{p_d} + M_d, and that is the Smith
    data of the full boundary.

    Why.  Let f_d be the cells of degree d, s_d the survivors, r_d and r'_d
    the ranks of the full and the coreduced boundary out of degree d, and
    count the empty simplex as degree -1 with r_{-1} = 0.  Every removed
    d-cell is in one pair, as the upper cell or the lower one, so
    f_d - s_d = p_d + p_{d+1}.  The survivors have the homology of the
    complex, degree -1 included (proof in `coreduce`), so their Betti
    numbers agree: f_d - r_d - r_{d+1} = s_d - r'_d - r'_{d+1}.  At d = -1
    this reads f_{-1} - r_0 = s_{-1} - r'_0, so r_0 = r'_0 + p_0; and if
    r_d = r'_d + p_d, the identity at d gives
    r_{d+1} = f_d - s_d - p_d + r'_{d+1} = r'_{d+1} + p_{d+1}.  So
    r_d = r'_d + p_d in every degree.  The torsion of H_{d-1} is the non-unit
    invariant factors of either boundary, by the same isomorphism, so the
    full divisor chain of the boundary out of degree d is p_d more ones in
    front of that of the coreduced one.
    """
    f = cx.f_vector
    _, pairs, boundaries = coreduce(cx)
    smith = [smith_rank_and_divisors(b, units=p) for b, p in zip(boundaries, pairs)] + [(0, [])]
    betti = [f[d] - smith[d][0] - smith[d + 1][0] for d in range(len(f))]
    torsion = [[x for x in smith[d + 1][1] if x != 1] for d in range(len(f))]
    return HomologyResult(betti, torsion, f)


_NO_ENTRY = MappingProxyType({})  # every empty column of a coreduced boundary, read-only


def coreduce(cx) -> tuple[list[list[int]], list[int], list[list[dict]]]:
    """Coreduction of the augmented complex of a simplicial complex cx
    (Kaczynski-Mrozek-Slusarek 1998; Mrozek-Batko 2009), read from its
    faces (`cx.faces`).  Returns the coreduced complex (survivors, pairs,
    boundaries): the cells that survive at each level 0..dim+1, in
    increasing index order, where level L holds the cells of degree L - 1
    and level 0 the empty simplex; the number of pairs removed between
    degrees d and d - 1 for each d = 0..dim; and the boundary of the
    surviving d-cells as a list of sparse columns, with entries only at the
    surviving (d-1)-cells, renumbered by their place in survivors[d], so
    that it has len(survivors[d]) rows.

    A coreduction pair is a live cell a with exactly one live face b (at
    incidence +-1, as every simplicial one is); both are removed.  The
    degrees d = 0..dim are taken in rising order, and the d-cells are swept
    in index order, each one that forms a pair being removed with its face
    at once, until a sweep removes none or no (d-1)-cell is left alive: a
    cell with no live face never pairs, so a sweep stops at the pair that
    takes the last one, and no sweep starts after it.  The empty simplex is
    the (-1)-cell, the one row of the augmentation, so the first pair is the
    first vertex with it.  One pass up the degrees leaves no pair anywhere:
    the faces of a d-cell are (d-1)-cells, which only the sweeps of degrees
    d - 1 and d remove, and the later sweeps remove cells of degree d and
    up, which takes away candidates but never a face.  So the faces of the
    d-cells are final once degree d + 1 is swept, and are kept until then
    only if some (d-1)-cell survives to be a row of their boundary; on a
    Tits complex, where only top cells survive, one level of faces is held
    at a time.  The order of removals does not matter: every statement below
    holds for each single removal, taken in the complex as it stands at that
    moment.  A degree needs one sweep per link of a chain of cells that free
    each other in falling index order (the path 0-k-(k-1)-...-1 takes k
    sweeps of its edges), so the sweep count has no small bound.  On the
    Tits complexes tried (T3 over Z/4, Z/6, Z/9, F7, F2[e]^2 and Z/2xZ/2;
    T4 over F3, Z/6 and Z/2xZ/2; T5(F2); T6(F2)), every degree's first
    sweep took every live face below it, so each degree was swept once;
    the top degree of T4 over Z/4, F2[e]^2, Z/8 and Z/9 took two.

    The survivors' boundaries are the restrictions of the original ones: no
    entry is ever rewritten, and the homology of the survivors under the
    restricted boundaries is that of cx, torsion included, in every degree
    from -1 up.  (Removing a pair (a, b) with incidence e is an elementary
    reduction: the other cells with the boundary x -> d(x) - <d(x), b>*e*d(a)
    form a homotopy equivalent complex, and since d(a) = e*b on the live
    cells, that boundary is the plain restriction of d.)

    Top cycles keep exact coordinates.  Restriction to the live cells maps
    the top cycles of the complex before a removal isomorphically over Z
    onto those after it.  If a is a top cell, a cycle z restricts to a
    cycle, since d(a) = e*b with e = +-1 is dropped together with b; and for
    a cycle z' of the smaller complex, d(z') taken before the removal is a
    multiple of b, so z' lifts back by z' -> z' - <d(z'), b>*e*a, the only
    lift.  If a is not a top cell, the top chains are unchanged, and a top
    chain z whose boundary is c*a satisfies 0 = d(d(z)) = c*e*b, so c = 0:
    the top cycles are unchanged too.  Both cycle lattices are kernels,
    hence saturated in their chain lattices, so any top cycles have the same
    rank mod a prime as their restrictions to the surviving top cells.
    """
    top = cx.dim
    if top < 0:
        return [], [], []
    alive = [bytearray(b"\x01") * n for n in [1, *cx.f_vector]]
    pairs = [0] * (top + 1)
    survivors, boundaries = [], []
    for d, below in enumerate(alive):
        if d <= top:
            faces, here = cx.faces(d), alive[d + 1]
            left, changed = below.count(1), True
            while left and changed:
                changed = False
                for a, fs in enumerate(faces):
                    if here[a]:
                        live = [b for b in fs if below[b]]
                        if len(live) == 1:
                            here[a] = below[live[0]] = 0
                            pairs[d] += 1
                            changed = True
                            left -= 1
                            if not left:
                                break
        survivors.append(list(compress(range(len(below)), below)))
        if d:  # level d is final: the boundary of degree d - 1
            row = {b: i for i, b in enumerate(survivors[d - 1])}
            boundaries.append([
                {row[b]: e for b, e in zip(lower[a], cycle((1, -1))) if b in row} or _NO_ENTRY
                for a in survivors[d]
            ] if row else [_NO_ENTRY] * len(survivors[d]))
        # the faces of level d + 1 have their rows in level d; without
        # survivors there no boundary reads them, and they go before the
        # next level's faces are built
        lower, faces = (faces if survivors[d] else None), None
    return survivors, pairs, boundaries


def euler_characteristic_checks(hom: HomologyResult) -> bool:
    """Reduced Euler characteristic computed two ways."""
    from_f = sum((-1) ** d * f for d, f in enumerate(hom.f_vector)) - 1
    from_b = sum((-1) ** d * b for d, b in enumerate(hom.betti))
    return from_f == from_b


# ---------------------------------------------------------------------------
# induced maps and fixed subspaces


class InducedTopMap:
    """Ranks of the map induced on top cycle lattices."""

    def __init__(self, rank, src_cycle_rank, dst_cycle_rank):
        self.rank = rank
        self.src_cycle_rank = src_cycle_rank
        self.dst_cycle_rank = dst_cycle_rank

    @property
    def kernel_rank(self) -> int:
        return self.src_cycle_rank - self.rank

    def __repr__(self):
        return f"InducedTopMap(rank={self.rank}, src={self.src_cycle_rank}, dst={self.dst_cycle_rank})"


def induced_top_map(simplicial_map) -> InducedTopMap:
    """The induced map on top cycle lattices for a rank-preserving simplicial
    map (top homology is the full cycle lattice there), by three exact ranks.

    With d the top boundary of the source and F its facet push-forward (a
    facet goes to its image facet: a facet's vertices have distinct ranks,
    which the map keeps, so no image degenerates), the cycle ranks
    are f_top - rank d on each side, and the rank of F on Z = ker d is

        rank F(Z) = rank [d ; F] - rank d,

    [d ; F] being F stacked under d: its kernel is ker d meet ker F, so its
    rank is f_top - dim(Z meet ker F), and dim F(Z) = dim Z - dim(Z meet ker F).
    d has f_{top-1} rows (1 at n = 2, the augmentation), so F starts at that
    row.
    """
    src, dst = simplicial_map.src, simplicial_map.dst
    top = src.dim
    if dst.dim != top:
        raise ValueError("map is not dimension-preserving on facets")
    d_src = _columns(src, top)
    below = src.f_vector[top - 1] if top else 1
    stacked = []
    for t, col in zip(src.simplices[top], d_src):
        j = dst.position(simplicial_map.simplex_image(t))
        if j is None:
            raise ValueError("image of a facet is not a facet; map is not simplicial")
        stacked.append({**col, below + j: 1})
    rank_d = smith_rank_and_divisors(d_src)[0]
    rank_stacked = smith_rank_and_divisors(stacked)[0]
    return InducedTopMap(
        rank_stacked - rank_d,
        src.f_vector[top] - rank_d,
        dst.f_vector[top] - smith_rank_and_divisors(_columns(dst, top))[0],
    )


def permutation_orbits(size: int, perms) -> list[list[int]]:
    """Orbits of {0, ..., size-1} under the group the permutations generate,
    each in increasing order, listed by least element.

    One breadth-first sweep: every point not yet seen, in increasing order,
    starts an orbit, which grows by the images of its points under each
    generator.  The forward closure is the whole orbit, because the inverse
    of a permutation of a finite set is one of its powers."""
    perms = list(perms)
    seen = bytearray(size)
    orbits = []
    for start in range(size):
        if seen[start]:
            continue
        seen[start] = 1
        orbit = [start]
        for x in orbit:  # the list grows while it is walked
            for perm in perms:
                y = perm[x]
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
        orbit.sort()
        orbits.append(orbit)
    return orbits


def fixed_subspace_dim(cx, degree: int, simplex_perms) -> int:
    """Dimension over Q of the simultaneous fixed space of the generators on
    reduced homology in the given degree of the simplicial complex cx.

    The action permutes the d-simplices (ranks along a flag are distinct, so
    no orientation signs appear), so the invariant d-chains O are spanned by
    the orbit sums.  Over Q taking invariants is exact (Maschke), so with Z
    the cycles and B the boundaries the fixed space is Z^G / B^G, where
    Z^G = Z meet O has dimension #orbits - rank d(O) and B^G = B meet O has
    dimension rank B + #orbits - rank [B | O].  The boundaries d(s) of the
    orbit sums are summed from the faces; the boundary out of degree d + 1
    is built in full, and at the top degree, where B = 0, not at all.

    Each column d(s) is divided by the gcd of its entries before its rank
    is taken.  Scaling a column by a nonzero rational keeps the rank over Q,
    and orbit sums often share a content: under Gamma((2)) every orbit-sum
    boundary of the top chains of T3(Z/4) and of T4(Z/4) has content 2 and
    no unit entry, so the unit-pivot pass of `smith_rank_and_divisors`
    finds no pivot on them undivided and finds the whole rank divided.
    """
    if not (0 <= degree <= cx.dim):
        raise ValueError(f"degree {degree} out of range")
    orbits = permutation_orbits(cx.f_vector[degree], simplex_perms)
    faces = cx.faces(degree)
    d_sums = []
    for orbit in orbits:
        col = _boundary(faces, dict.fromkeys(orbit, 1))
        g = math.gcd(*col.values())
        d_sums.append({r: v // g for r, v in col.items()})
    del faces  # before the Smith pass, which is where the memory peaks
    rank_d_sums = smith_rank_and_divisors(d_sums)[0]
    if degree == cx.dim:
        # B = 0, and orbit sums have disjoint supports: rank [B | O] = #orbits
        return len(orbits) - rank_d_sums
    b = _columns(cx, degree + 1)
    sums = [dict.fromkeys(orbit, 1) for orbit in orbits]
    return smith_rank_and_divisors(b + sums)[0] - smith_rank_and_divisors(b)[0] - rank_d_sums
