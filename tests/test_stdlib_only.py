"""The runtime is standard-library only: every import in the package is
relative or names a standard-library module."""

import ast
import pathlib
import sys

import pytest

import titscomplex

PACKAGE = pathlib.Path(titscomplex.__file__).parent


def imported_modules(path):
    """(line, top-level module) of every absolute import in the file, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_the_package_has_sources():
    assert {p.name for p in PACKAGE.glob("*.py")} >= {"__init__.py", "cli.py", "homology.py"}


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_import_is_relative_or_standard_library(name):
    outside = [
        f"{name}:{line} imports {module}"
        for line, module in imported_modules(PACKAGE / name)
        if module not in sys.stdlib_module_names
    ]
    assert not outside


def test_the_check_sees_a_third_party_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from . import rings\nimport os.path\n\ndef f():\n    import numpy as np\n")
    assert list(imported_modules(path)) == [(2, "os"), (5, "numpy")]
