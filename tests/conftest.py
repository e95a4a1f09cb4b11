import itertools

import pytest

from titscomplex import Mat, Ring, ideal_closure
from titscomplex.verify import CheckContext


@pytest.fixture(scope="session")
def built():
    """Session-wide cache of complexes and homology."""
    return CheckContext()


@pytest.fixture
def forbid_tables(monkeypatch):
    """Call with a size limit: building the tables of a larger ring fails."""
    def forbid(limit):
        init = Ring.__init__

        def guarded(self, spec):
            assert spec.cardinality <= limit, f"built the tables of {spec.label}"
            init(self, spec)

        monkeypatch.setattr(Ring, "__init__", guarded)
    return forbid


def congruence_elements(ring, n, ideal_gen_payloads):
    """Test oracle: every element of the principal congruence subgroup of
    level I except the identity, by listing 1 + M_n(I) and keeping the
    invertible matrices (all of them when I lies in the radical)."""
    ideal = sorted(ideal_closure(ring, [ring.el(p) for p in ideal_gen_payloads]))
    ident = Mat.identity(ring, n)
    out = []
    for entries in itertools.product(ideal, repeat=n * n):
        rows = [
            [ring.add[ident.rows[r][c]][entries[r * n + c]] for c in range(n)]
            for r in range(n)
        ]
        g = Mat(ring, rows)
        if g != ident and g.is_invertible():
            out.append(g)
    return out


def apply(cols, vec):
    """Test oracle: the matrix with sparse columns `cols` times a sparse vector."""
    acc = {}
    for k, v in vec.items():
        for r, w in cols[k].items():
            acc[r] = acc.get(r, 0) + v * w
    return {r: v for r, v in acc.items() if v}


def dd_is_zero(boundaries):
    """Test oracle: every composition of consecutive boundaries vanishes."""
    pairs = zip(boundaries, boundaries[1:])
    return not any(apply(lower, col) for lower, upper in pairs for col in upper)
