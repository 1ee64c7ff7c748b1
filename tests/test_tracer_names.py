"""Every name the benchmark tracer wraps still exists where it looks, and
the closed loop calls it.

perfbench/tracer.py replaces module attributes and class methods by name; a
name deleted or moved in locomanip would break a traced benchmark run
(`perfbench/run.py --trace 1`) without failing any other test, and a law the
loop reaches under another name would leave its per-layer metric at 0.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import locomanip

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SRC = Path(locomanip.__file__).resolve().parents[1]


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


# the tracer patches modules for the whole process, so it runs in its own
_TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("_perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
t = tracer.Tracer()
t.install(full=True)
from locomanip import cli
code = cli.main([
    "run", "--config", "testcase1", "--override", "duration_s=1.0",
    "--override",
    "disturbances=[{kind: step, axis: x, amplitude_n: 20.0, start_s: 0.2, end_s: 0.6}]",
    "--out", sys.argv[2],
])
print(json.dumps({"code": code, **t.per_layer()}))
"""


def test_traced_run_sees_inside_the_loop(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(TRACER_PATH), str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    layers = json.loads(done.stdout.splitlines()[-1])
    assert layers["code"] == 0
    for name in (
        "stabilizer.step_us",
        "stabilizer.force_error_us",
        "stabilizer.dcm_us",
        "stabilizer.wrench_us",
        "plant_sim.plant_us",
        "plant_sim.disturb_us",
    ):
        assert layers[name] > 0.0, name
    assert layers["core_dynamics.contacts_per_step"] == 0
