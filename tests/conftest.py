import itertools

import pytest

from titscomplex import Mat, Ring, Summand, ideal_closure
from titscomplex.linalg import span_if_free
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


def vec(ring, payloads):
    """Test helper: the vector of element indices of a sequence of payloads."""
    return tuple(map(ring.el, payloads))


def mat(ring, rows):
    """Test helper: the matrix of element indices of rows of payloads."""
    return Mat(ring, [vec(ring, r) for r in rows])


def span_summand(ring, vectors):
    """Test oracle: the Summand spanned by the vectors when they are a free
    basis of their span in R^n (`span_if_free`), else None.

    Every such span is cofree, so no quotient is counted.  Z/m,
    F_p[x]/(x^k) and their finite products are quasi-Frobenius rings, and
    over a quasi-Frobenius ring a free module is injective: a free
    submodule F of rank k splits off, R^n = F + C.  The complement C is
    projective, so free over each local factor R_j, where it has
    |R_j|^(n-k) elements; hence C is free of rank n - k.  (A free span of
    rank k has |R|^k <= |R|^n members, so k <= n.)
    `test_every_free_span_is_cofree` checks it with the quotient oracle.
    """
    members = span_if_free(ring, vectors)
    return None if members is None else Summand(ring, len(vectors[0]), len(vectors), members, vectors)


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
