"""The benchmark's tracer wraps library functions by name; every name it
lists must resolve, so a rename fails here, with the name, rather than
inside a traced benchmark child."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_paths():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(layer, path) for layer, path, _ in tracer.TRACED]


@pytest.mark.parametrize("layer,path", traced_paths())
def test_traced_name_resolves(layer, path):
    mod = importlib.import_module(f"titscomplex.{layer}")
    name = f"titscomplex.{layer}.{path}"
    if "." in path:
        cls_name, meth = path.split(".")
        cls = getattr(mod, cls_name, None)
        assert isinstance(cls, type), f"{name}: no class {cls_name}"
        assert callable(cls.__dict__.get(meth)), f"{name}: no method {meth} in the class __dict__"
    else:
        assert callable(getattr(mod, path, None)), f"{name}: no module attribute {path}"
