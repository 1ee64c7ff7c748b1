"""Every name the benchmark tracer wraps still exists where it looks.

perfbench/tracer.py replaces module attributes and class methods by name; a
name deleted or moved in locomanip would break a traced benchmark run
(`perfbench/run.py --trace 1`) without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _ in TRACER.FULL_BOUNDARIES]
)
def test_boundary_resolves(module, attr):
    mod = importlib.import_module("locomanip." + module)
    assert callable(getattr(mod, attr))


@pytest.mark.parametrize(
    "module, cls, method", [(m, c, f) for m, c, f, _ in TRACER.FULL_METHODS]
)
def test_method_is_defined_in_class_body(module, cls, method):
    klass = getattr(importlib.import_module("locomanip." + module), cls)
    assert method in vars(klass)
