"""Checks of the checks: each output check passes on real locomanip outputs
and rejects a slightly perturbed copy.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from workloads import Op  # noqa: E402

SHORT = ("duration_s=4.0",)
NOISE = ("plant.force_noise_n=5.0", "plant.com_noise_m=0.0005")
GAINS = ("controller.q_zmp=1.3", "controller.r_jerk=7.0e-9")


def _cli(argv) -> tuple:
    from locomanip import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("outputs")
    ops = {
        "base": Op("base", "run", "testcase1", SHORT),
        "noisy": Op("noisy", "run", "testcase1", SHORT + NOISE, seed=5),
        "gains": Op("gains", "gains", "testcase1", GAINS),
        "cmp": Op("cmp", "compare", a="base", b="noisy"),
    }
    out = {}
    for name, op in ops.items():
        code, text = _cli(op.argv(d))
        out[name] = {"op": op, "code": code, "stdout": text}
        if op.kind == "run":
            out[name]["trace"] = checks.load_trace(d / name / "trace.csv")
    for name in ("base", "noisy", "gains"):
        out[name]["sc"] = checks.Scenario(checks.raw_config(ROOT, "testcase1", ops[name].overrides))
    return out


def _copy(tr: dict) -> dict:
    return {k: v.copy() for k, v in tr.items()}


def test_real_outputs_pass(outputs):
    for name in ("base", "noisy"):
        o = outputs[name]
        assert checks.check_completed(name, o["sc"], o["code"], o["stdout"], o["trace"]) == []
        assert checks.check_plant_law(name, o["sc"], o["trace"]) == []
        assert checks.check_band_split(name, o["sc"], o["trace"]) == []
        assert checks.check_force_schedule(name, o["sc"], o["trace"]) == []
        assert checks.check_gamma_error(name, o["sc"], o["trace"]) == []
    g = outputs["gains"]
    assert checks.check_gains("gains", g["sc"], g["code"], g["stdout"]) == []
    c = outputs["cmp"]
    assert checks.check_compare("cmp", c["stdout"], outputs["base"]["trace"], outputs["noisy"]["trace"]) == []


def test_incomplete_run_rejected(outputs):
    o = outputs["base"]
    short = {k: v[:-1] for k, v in o["trace"].items()}
    assert checks.check_completed("base", o["sc"], 0, o["stdout"], short)
    assert checks.check_completed("base", o["sc"], 2, o["stdout"], o["trace"])


def test_com_moved_one_micrometre_breaks_plant_law(outputs):
    o = outputs["base"]
    tr = _copy(o["trace"])
    tr["c_x^a"][1000] += 1e-6
    assert checks.check_plant_law("base", o["sc"], tr)


def test_band_split_mismatch_rejected(outputs):
    o = outputs["noisy"]
    tr = _copy(o["trace"])
    tr["gammaL_y"][700] += 1e-9
    assert checks.check_band_split("noisy", o["sc"], tr)


def test_force_off_schedule_rejected(outputs):
    o = outputs["base"]
    tr = _copy(o["trace"])
    tr["fext_sum_x"][1900] += 1e-6
    assert checks.check_force_schedule("base", o["sc"], tr)


def test_gamma_error_rejected(outputs):
    o = outputs["base"]
    tr = _copy(o["trace"])
    tr["gamma_err_x"][1900] += 1e-9
    assert checks.check_gamma_error("base", o["sc"], tr)
    o = outputs["noisy"]
    tr = _copy(o["trace"])
    tr["gamma_err_x"] *= 1.1
    assert checks.check_gamma_error("noisy", o["sc"], tr)


def test_gain_off_by_1e6_rejected(outputs):
    g = outputs["gains"]
    lines = g["stdout"].splitlines()
    for i, line in enumerate(lines):
        if line.startswith("k_fb="):
            k = [float(v) for v in line[5:].split(",")]
            k[1] *= 1.0 + 1e-6
            lines[i] = "k_fb=" + ",".join("%.12g" % v for v in k)
    assert checks.check_gains("gains", g["sc"], 0, "\n".join(lines))


def test_compare_value_off_rejected(outputs):
    c = outputs["cmp"]
    base, noisy = outputs["base"]["trace"], outputs["noisy"]["trace"]
    bad = _copy(noisy)
    bad["z_y^a"] = bad["z_y^a"] * (1.0 + 1e-7)
    assert checks.check_compare("cmp", c["stdout"], base, bad)


def test_rerun_and_seed_checks(outputs):
    ops = [outputs["base"]["op"], outputs["noisy"]["op"]]
    digests = {"base": "aa", "noisy": "bb"}
    assert checks.check_reruns(["base", "noisy"], [digests, dict(digests)]) == []
    assert checks.check_reruns(["base", "noisy"], [digests, {"base": "aa", "noisy": "bc"}])
    assert checks.check_distinct(ops, digests) == []
    # a seed that does not change the trace
    assert checks.check_distinct(ops, {"base": "aa", "noisy": "aa"})


def _walk(rows: int, zmp_dev, com_dev) -> dict:
    return {
        "z_x^a": np.asarray(zmp_dev, dtype=float) * np.ones(rows),
        "z_x^d": np.zeros(rows),
        "c_x^a": np.asarray(com_dev, dtype=float) * np.ones(rows),
        "c_x^d": np.zeros(rows),
    }


def test_band_windows_and_compensation():
    sc = checks.Scenario(checks.raw_config(ROOT, "testcase3"))
    t = np.arange(sc.n) * sc.dt
    fast = (t >= 8.0) & (t < 16.0)
    good = _walk(sc.n, np.where(fast, 2.0, 1.0), np.where(fast, 1.0, 2.0))
    assert checks.check_band_windows("t3", sc, good) == []
    assert checks.check_band_windows("t3", sc, _walk(sc.n, 1.0, 2.0))
    assert checks.check_band_windows("t3", sc, _walk(sc.n, 2.0, 1.0))
    twin = _walk(sc.n, np.where(fast, 2.7, 1.35), np.where(fast, 1.35, 2.7))
    assert checks.check_compensation_helps("cmp", sc, good, twin) == []
    assert checks.check_compensation_helps("cmp", sc, good, good)


def test_kappa_one_stray():
    sc = checks.Scenario(checks.raw_config(ROOT, "testcase2"))
    plan = sc.footstep_plan(np.arange(sc.n) * sc.dt)

    def on_plan(offset):
        return {"z_x^a": plan[:, 0] + offset, "z_y^a": plan[:, 1].copy()}

    assert checks.check_kappa_one("cmp", sc, on_plan(0.001), on_plan(0.003)) == []
    assert checks.check_kappa_one("cmp", sc, on_plan(0.001), on_plan(0.0015))
