"""The Tits complex of a finite ring: flags of free-and-cofree summands.

Vertices are the summands of rank 1..m (m = n-1 for the full complex, lower
for the rank filtration), in the catalog's order: by rank, then by sorted
member list.  A d-simplex is a chain of d+1 vertices under the cofree
order; ranks rise strictly along a chain, so listing vertices by rank
gives every simplex one canonical orientation and no sign choices.

The order relation is containment, read from the catalog's index;
every such step is cofree (build_filtration).  `verify` keeps the
member-set scan and recounts cofreeness with the quotient oracle.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .rings import DEFAULT_BUDGET, Ring, budgeted_ring, make_ring, quotient_spec, spec_of
from .linalg import Mat, Summand
from .grassmann import SummandCatalog, budgeted_flag_count


class SimplicialComplex:
    """A finite simplicial complex given by its sorted levels.

    simplices[d] is the sorted list of the d-simplices, each an increasing
    tuple of vertex indices.  The complex owns the position of each simplex
    in its level; code outside reads it through `position` and `faces`.
    The top level's positions are built on first read (`_index`): `faces`
    reads only the levels below, so homology and apartments never build
    them.
    """

    def __init__(self, simplices):
        self.simplices = simplices
        self._pos = [{t: i for i, t in enumerate(level)} for level in simplices[:-1]]
        if simplices:
            self._pos.append(None)

    def _index(self, d: int) -> dict:
        """The position of each d-simplex in its level, built on first read
        for the top level."""
        pos = self._pos[d]
        if pos is None:
            pos = self._pos[d] = {t: i for i, t in enumerate(self.simplices[d])}
        return pos

    @property
    def dim(self) -> int:
        """Dimension of the complex (-1 when empty)."""
        return len(self.simplices) - 1

    @property
    def f_vector(self) -> list[int]:
        return [len(level) for level in self.simplices]

    def facets(self):
        return self.simplices[-1] if self.simplices else []

    def position(self, t) -> int | None:
        """Index of the simplex t (any sequence of vertex indices) in its own
        level, or None when t is not a simplex of the complex."""
        t = tuple(t)
        d = len(t) - 1
        return self._index(d).get(t) if 0 <= d < len(self._pos) else None

    def has_simplex(self, t) -> bool:
        return self.position(t) is not None

    def faces(self, d: int) -> list[tuple]:
        """The positions of the faces of each d-cell, one tuple per cell, in
        vertex-deletion order: face i drops vertex i and has incidence (-1)^i.
        A vertex's one face is row 0, the empty simplex.

        Every loop runs in C (`map`, `zip`), and tuples of ints, unlike lists,
        leave the cyclic collector's tracking once it has seen them."""
        level = self.simplices[d]
        if d == 0:
            return [(0,)] * len(level)
        pos = self._index(d - 1).__getitem__
        # face i of every cell: its vertices but the i-th, zipped
        drop = [zip(*[map(operator.itemgetter(j), level) for j in range(d + 1) if j != i]) for i in range(d + 1)]
        return list(zip(*[map(pos, keys) for keys in drop]))

    def is_pure(self) -> bool:
        """Every simplex is a face of some top-dimensional simplex: exactly
        when, for every d >= 1, the faces of the d-simplices cover every
        (d-1)-simplex.  Climbing one level at a time reaches the top; and a
        top simplex holding a (d-1)-simplex holds a d-simplex holding it."""
        return all(
            len(set(itertools.chain.from_iterable(self.faces(d)))) == len(self.simplices[d - 1])
            for d in range(1, len(self.simplices))
        )

    def vertex_set(self):
        return sorted({i for level in self.simplices for t in level for i in t})

    def link_and_star(self, simplex) -> tuple["SimplicialComplex", "SimplicialComplex"]:
        """The link and the closed star of a simplex, as complexes on the
        same vertex indices."""
        simplex = tuple(simplex)
        if not self.has_simplex(simplex):
            raise ValueError(f"simplex {simplex} not in complex")
        sset = set(simplex)
        star_simplices = [[] for _ in self.simplices]
        link_simplices = [[] for _ in self.simplices]
        for level in self.simplices:
            for t in level:
                union = tuple(sorted(sset | set(t)))
                if self.has_simplex(union):
                    star_simplices[len(t) - 1].append(t)
                    if not (sset & set(t)):
                        link_simplices[len(t) - 1].append(t)
        return SimplicialComplex(_trim(link_simplices)), SimplicialComplex(_trim(star_simplices))


def _trim(levels):
    while levels and not levels[-1]:
        levels.pop()
    return levels


class TitsComplex(SimplicialComplex):
    """Simplicial complex of good flags, with vertices of rank <= max_rank."""

    # schema v1; 0, as every included pair is cofree (build_filtration)
    included_not_cofree = 0

    def __init__(
        self, ring: Ring, n: int, max_rank: int, vertices, simplices,
        catalog: SummandCatalog, start: dict,
    ):
        super().__init__(simplices)
        self.ring = ring
        self.n = n
        self.max_rank = max_rank
        self.vertices = vertices  # list[Summand], sorted by (rank, sorted members)
        # the catalog of the vertices (its index answers containment) and
        # rank -> index of its first vertex
        self.catalog = catalog
        self.start = start
        # vertex index by tuple of line indices (`span_of_lines`)
        self._span_cache: dict = {}

    @functools.cached_property
    def line_upsets(self) -> dict:
        """k -> the frozenset of rank-k vertices holding each line (rank-1
        vertex), 2 <= k <= max_rank, as build_filtration reads them."""
        cat = self.catalog
        return {
            k: [frozenset(map(self.start[k].__add__, cat.holding(k, b))) for b in cat.basis_codes(1)]
            for k in range(2, self.max_rank + 1)
        }

    def _line_of(self, v) -> int:
        """Index of the one line holding the vector v (a sequence), or
        ValueError when no line or more than one does: by `vertex_of_span`
        at k = 1, exactly when v is no basis of a line."""
        hits = self.catalog.lines_holding(v)
        if len(hits) != 1:
            raise ValueError("vectors are not a basis of a vertex")
        return hits[0]  # the lines are the first vertices

    def vertex_of_span(self, vectors) -> int:
        """Index of the vertex of which the vectors are a basis: the span
        of their lines (`_line_of`, `span_of_lines`).

        Raises RuntimeError unless 1 <= k = len(vectors) <= max_rank (the
        empty set spans 0, no vertex), and ValueError unless they are a
        basis of a vertex.  For k < n they are a basis of a vertex W exactly
        when W is the only rank-k vertex holding them:
        - if they are a basis of W, every rank-k vertex holding them
          contains W, and equal-rank containment is equality;
        - conversely, let W be the only rank-k vertex holding them and
          write them as B*C with B a basis of W.  If det C were not a unit,
          it would be a zero divisor in some local factor of R, and by
          McCoy's theorem some row y != 0 over that factor has y*C = 0.
          For d a basis vector of a free complement of W (k < n), the
          columns of B + d*y span a free, cofree rank-k summand W' != W
          (it is the image of W under an invertible map fixing the
          complement) holding every vector B*C + d*y*C = B*C; a
          contradiction.
        A basis vector of W is a basis of its line, so the rank-k vertices
        holding the lines are those holding the vectors.
        """
        vectors = list(vectors)
        if not 1 <= len(vectors) <= self.max_rank:
            raise RuntimeError("span is not a vertex of the complex")
        lines = sorted(map(self._line_of, vectors))
        try:
            return lines[0] if len(lines) == 1 else self.span_of_lines(lines)
        except RuntimeError:
            raise ValueError("vectors are not a basis of a vertex") from None

    def span_of_lines(self, lines) -> int:
        """Index of the vertex spanned by k lines (vertex indices,
        2 <= k <= max_rank) whose generators are k columns of an invertible
        matrix, memoised by the tuple of lines.

        That span W is the one vertex in all the lines' rank-k up-sets
        (`line_upsets`): k columns of an invertible matrix span a free
        rank-k summand with a free complement, a vertex holding each line,
        and a rank-k vertex holding the lines contains W, so it is W
        (equal-rank containment is equality).  Lines in no rank-k vertex,
        or in more than one, raise RuntimeError.
        """
        lines = tuple(lines)
        got = self._span_cache.get(lines)
        if got is None:
            ups = self.line_upsets[len(lines)]
            hits = frozenset.intersection(*map(ups.__getitem__, lines))
            if len(hits) != 1:
                raise RuntimeError("lines lie in no vertex, or in more than one, of their rank")
            got = self._span_cache[lines] = next(iter(hits))
        return got

    def _line_map(self, dst: "TitsComplex", f) -> list[int]:
        """The line of dst holding f of each line's generator, by line."""
        return [dst._line_of(f(s.basis[0])) for s in self.vertices[:self.start.get(2, len(self.vertices))]]

    def _vertex_map(self, dst: "TitsComplex", f) -> list[int]:
        """The image in dst of every vertex under f, a map of modules on
        vectors keeping invertible matrices invertible (g in GL_n(R),
        reduction along R -> R/I).  f maps only the generators of the lines,
        the first vertices (`_line_map`); a vertex of rank k >= 2 goes to
        the span of the images of its basis lines, whose generators are unit
        multiples of its basis (`span_of_lines`)."""
        lines = self._line_map(dst, f)
        image = lines.__getitem__
        return lines + [dst.span_of_lines(map(image, map(self._line_of, s.basis))) for s in self.vertices[len(lines):]]

    # -- group action -------------------------------------------------------
    def require_ring(self, g: Mat) -> None:
        """Raise ValueError, naming both rings, unless g is over the ring
        of the complex."""
        if g.ring.spec != self.ring.spec:
            raise ValueError(
                f"matrix over {g.ring.spec.label} does not act on a complex over {self.ring.spec.label}"
            )

    def vertex_permutation(self, g: Mat) -> tuple:
        """Permutation of vertex indices induced by V -> gV, from the images
        of the lines' generators (`_vertex_map`).  Only an invertible g
        permutes the vertices; any other fails at a line: det g lies in a
        maximal ideal m, and a kernel vector of g mod m, lifted in the local
        factor of m with e_1 in the others, is a basis v of a line whose
        generator (a unit times v) g sends into m*R^n, to no line's basis."""
        self.require_ring(g)
        try:
            return tuple(self._vertex_map(self, g.apply))
        except ValueError:
            raise ValueError("matrix does not preserve the vertex set (is it invertible?)") from None

    def simplex_permutation(self, g: Mat, d: int) -> list[int]:
        """Permutation of the d-simplex list induced by g.  g preserves rank
        and vertices are ordered by rank first, so the image of a simplex is
        already increasing and no signs appear."""
        vperm = self.vertex_permutation(g).__getitem__
        level = self.simplices[d]
        # vertex j of every image simplex, zipped, as `faces` does
        images = zip(*[map(vperm, map(operator.itemgetter(j), level)) for j in range(d + 1)])
        return list(map(self._index(d).__getitem__, images))

    # -- export -------------------------------------------------------------
    def export_document(self) -> dict:
        """Deterministic JSON-able description (vertices with preferred
        bases, simplices as index tuples)."""
        return {
            "schema_version": 1,
            "ring": self.ring.spec.label,
            "n": self.n,
            "max_rank": self.max_rank,
            "f_vector": self.f_vector,
            "included_not_cofree": self.included_not_cofree,
            "vertices": [{"rank": s.rank, "basis": s.payload_basis()} for s in self.vertices],
            "simplices": {str(d): [list(t) for t in level] for d, level in enumerate(self.simplices)},
        }

    def __repr__(self):
        return (
            f"TitsComplex({self.ring.spec.label}, n={self.n}, max_rank={self.max_rank}, "
            f"f={self.f_vector})"
        )


def build_filtration(spec_or_ring, n: int, m: int, budget: int | None = DEFAULT_BUDGET) -> TitsComplex:
    """Full subcomplex on the summands of rank at most m (1 <= m <= n-1).

    Its facets are the good flags of type (1, ..., 1, n - m), budgeted by
    `budgeted_flag_count` from the spec's closed formulas before the ring's
    tables are built.
    """
    if not (1 <= m <= n - 1):
        raise ValueError(f"filtration rank must satisfy 1 <= m <= n-1, got m={m}, n={n}")
    spec = spec_of(spec_or_ring)
    budgeted_flag_count(spec, n, (1,) * m + (n - m,), budget)
    catalog = SummandCatalog(spec, n, budget)
    vertices: list[Summand] = []
    start = {}  # rank -> index of its first vertex
    for k in range(1, m + 1):
        start[k] = len(vertices)
        vertices.extend(catalog.grassmannian(k))

    # V < W exactly when rank(V) < rank(W) and V is contained in W: W/V is
    # then projective (V is a summand of R^n, hence of W) of constant rank
    # rank(W) - rank(V), and over these finite rings, products of local
    # rings, such a module is free, so every included pair is cofree.
    # W contains V exactly when it holds every basis vector of V, which the
    # catalog's index answers from basis codes; verify keeps the member scan.
    upsets = [
        [start[k] + p for k in range(r + 1, m + 1) for p in catalog.holding(k, b)]
        for r in range(1, m + 1) for b in catalog.basis_codes(r)
    ]

    # the relation is transitive, so the chains are the paths that step up
    # it; extending a sorted level in order keeps the next level sorted
    simplices = [[(i,) for i in range(len(vertices))]]
    while True:
        level = [t + (j,) for t in simplices[-1] for j in upsets[t[-1]]]
        if not level:
            break
        simplices.append(level)
    return TitsComplex(make_ring(spec), n, m, vertices, simplices, catalog, start)


def build_tits_complex(spec_or_ring, n: int, budget: int | None = DEFAULT_BUDGET) -> TitsComplex:
    """The full Tits complex (dimension n-2); empty when n = 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    spec = spec_of(spec_or_ring)
    if n == 1:
        return TitsComplex(budgeted_ring(spec, budget), 1, 0, [], [], SummandCatalog(spec, 1, budget), {})
    return build_filtration(spec, n, n - 1, budget)


# ---------------------------------------------------------------------------
# functoriality: reduction along R -> R/I


class SimplicialReduction:
    """The simplicial map T_n(R) -> T_n(R/I) induced by entrywise reduction."""

    def __init__(self, src: TitsComplex, dst: TitsComplex, vertex_map):
        self.src = src
        self.dst = dst
        self.vertex_map = vertex_map  # list: src vertex index -> dst vertex index

    def simplex_image(self, t) -> tuple:
        """Image of a simplex.  Ranks are preserved, so images never
        degenerate, and need no sorting: vertices are ordered by rank first,
        so the image of a rank-increasing tuple is in increasing order."""
        vm = self.vertex_map
        return tuple(vm[i] for i in t)

    def is_simplicial(self) -> bool:
        return all(
            self.dst.has_simplex(self.simplex_image(t))
            for level in self.src.simplices
            for t in level
        )

    def is_surjective_on_vertices(self) -> bool:
        return set(self.vertex_map) == set(range(len(self.dst.vertices)))


def reduction_map(
    src: TitsComplex, ideal_gen_payloads, budget: int | None = DEFAULT_BUDGET
) -> SimplicialReduction:
    """Reduce the complex along R -> R/I for an ideal given by generators."""
    ring = src.ring
    gens = list(ideal_gen_payloads)
    for g in gens:
        ring.el(g)  # a payload outside R raises KeyError
    tspec, reduce_payload = quotient_spec(ring.spec, gens)
    dst = build_tits_complex(tspec, src.n, budget)
    # the reduction of a basis of V is a basis of V/IV, a vertex downstairs
    table = [dst.ring.el(reduce_payload(p)) for p in ring.payloads]
    return SimplicialReduction(src, dst, src._vertex_map(dst, functools.partial(map, table.__getitem__)))
