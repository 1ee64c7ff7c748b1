"""The demos and the README's library quick start run to completion, and the
README lists every metric a run reports."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import locomanip
from locomanip.scenario import AXIS_METRICS, metric_names

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(locomanip.__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    done = run_python([str(demo)], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_readme_library_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    done = run_python(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr
    lean = float(done.stdout.split()[-1])
    assert 0.0 < lean < 0.1


def test_readme_lists_every_metric():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Metrics\n", 1)[1].split("\n## ", 1)[0]
    axis_keys = {f"{m.name}_{ax}" for m in AXIS_METRICS for ax in "xy"}
    names = {m.name for m in AXIS_METRICS} | (metric_names() - axis_keys)
    assert sorted(n for n in names if f"`{n}`" not in section) == []
