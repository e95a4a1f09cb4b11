import pytest

from titscomplex.verify import CheckContext


@pytest.fixture(scope="session")
def built():
    """Session-wide cache of complexes, chain complexes and homology."""
    return CheckContext()
