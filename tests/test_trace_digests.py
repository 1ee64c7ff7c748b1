"""Byte-level gate on the outputs of every bundled run.

Pins SHA-256 digests of ``trace.csv`` and ``metrics.txt`` for the five
bundled scenarios plus the two ablation runs of acceptance criteria 5
(``force_kappa_one`` on testcase2) and 6 (``disable_compensation`` on
testcase3). Three testcase1 variants cover the closed-loop paths the
bundled runs leave out: measurement noise (so the order of the random draws
is pinned too), a stiff ``k_p`` that saturates the command ZMP and clamps
the centre of pressure on many steps, and a push that makes the plant
diverge, which must end with exit code 2 and a truncated trace. A fourth
variant raises the CoM to 0.868 m: there omega = 3.3618214286265045 and
``omega**2`` differs from ``omega * omega`` in the last bit, while at the
0.8 m of every other run the two agree, so it pins which of them the plant
uses. A short cart-like run with a 1.43 s preview window (715 samples,
where every other run has 800) pins the feedforward sums whose pairwise
leaves end in leftover terms. Criterion 8 only compares two runs of the
same code; this gate compares against a fixed baseline, so a refactor or
speed-up that changes a single output byte fails here.

The digests were taken with Python 3.11.7 and numpy 2.4.6 on x86-64 Linux.
No BLAS call lies on the path that writes these files: planning and the
closed loop run on Python floats and on numpy elementwise operations, and
only the metrics use numpy reductions, so the bytes do not depend on which
kernel numpy's OpenBLAS picks for the CPU.
test_digests_do_not_depend_on_the_blas_kernel checks this for one run under
the default kernel and under ``OPENBLAS_CORETYPE=Nehalem`` (no fused
multiply-add). Another libm or numpy build may still move the last digit of
some values; a deliberate behaviour change re-baselines these digests with
an argued entry in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import locomanip
from locomanip.scenario import (
    apply_overrides,
    bundled_scenario_path,
    load_raw_config,
    parse_config,
    run_scenario,
)

NOISY = ("plant.com_noise_m=5.0e-4", "plant.force_noise_n=5.0", "seed=7")
STIFF = ("controller.k_p=4.0",)
PUSHED = (
    "disturbances=[{kind: step, axis: x, amplitude_n: -150.0, start_s: 2.0, end_s: 8.0}]",
)
TALL = ("robot.com_height_m=0.868",)
SHORT_WINDOW = ("controller.preview_window_s=1.43", "duration_s=8.0")

# (scenario, overrides) -> (trace.csv digest, metrics.txt digest)
DIGESTS = {
    ("cart-like", ()): (
        "443232702fa6af4276366f9f974ccfb77cee96a28ab1ab79d32c08373eb0d82a",
        "3f97e3c86e79c1c832e06ed0292255c3db4bb2f5d8bf3a99d35e9a6761ebb257",
    ),
    ("nominal", ()): (
        "587c2bb20f773ead04cf742b00182b8af6faa5a903507b9e9229edb18618c1a3",
        "68050e7a1155acd72e9dcd51074eb031eda5a57041cfee7c2af5d46be6b6b34a",
    ),
    ("testcase1", ()): (
        "075505f0ec65ce49f9c0156dda2726aea9e5fe7550b85f189a559da2e41877d6",
        "b8ac42d523e75c6e49d36845816c59df81992920130a1b9af499f43c10d97ce4",
    ),
    ("testcase2", ()): (
        "4764d5e9d9e36ed612ba432cd48b1e9044b4aabdec5e61aecae25e87f0e376ff",
        "319cd0e5c2018660fef169e11facfebb267a07c938e8abaabe126665ba3c74d3",
    ),
    ("testcase3", ()): (
        "44a747f52c21db8e6b611fcc820464295e11751c3ec391a76ab5011d380193cc",
        "43c7a7ee4751e1ab0ff0c2121721d3e3c84dabb909dadceabfba2b5d12021356",
    ),
    ("testcase2", ("ablation.force_kappa_one=true",)): (
        "6037cfbb141aff5439d6f8ec08191b089a871e902c2aa40c6acbf79ca1554d47",
        "687fe6087fde820a9d6d8ca07528fe749119ed269309a4ac98801c3f289dad0e",
    ),
    ("testcase3", ("ablation.disable_compensation=true",)): (
        "c2426ab8b2bca11f5843a2577c95239847e478dd0b9c3553c60fa10a3144e4bb",
        "246e67a4bad8cea887666193d5128c6bfdbbc61260bdb480aae561948d4ff351",
    ),
    ("testcase1", NOISY): (
        "208c088fbfb556f157779eaa1171dbc3c6ef64ab76783e50b3f7822c6b81020b",
        "68e4d44606fd3614d2bd55547868635208bc2e1209da4f8f98a4bebbbd5d98bb",
    ),
    ("testcase1", STIFF): (
        "a63622b052a629293c932edb70e6a865e97b1f3eae778a9835a7116786243b40",
        "9afc0c2b5d87d96918da710ca26e0236454545c6333ac62bdfe4dd6e0aa33c1f",
    ),
    ("testcase1", PUSHED): (
        "6759fb17c72ac911ccd2ab9793bfab347ec31adcd2b5a54d61788d348d6ca1ea",
        "6bfa016aef4b9a5fc1e46c9fbda139562d7ead7a7990fa89ccd97bee4133fdce",
    ),
    ("testcase1", TALL): (
        "6221f6e060b2b8c26808e1e849ec8ff691d7195938d8a292b6632fd30f0c814b",
        "8f8b6dbe5e5f2284b4a0a273f2ab5b942290d5798025ac38bc43dae8104485b6",
    ),
    ("cart-like", SHORT_WINDOW): (
        "0d585d20fc01450c80d18125f477faa8db65b8e51e2f2b7d51b537352bba5472",
        "2023da82bc93d39b888114d892f8fd760b6c1f363e368f7459e8566bcf6d2090",
    ),
}

# runs that diverge -> rows of their truncated trace
DIVERGED_ROWS = {("testcase1", PUSHED): 1808}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "name, overrides",
    list(DIGESTS),
    ids=[name + "".join(f"[{o}]" for o in ov) for name, ov in DIGESTS],
)
def test_run_outputs_match_pinned_digests(name, overrides, tmp_path):
    raw = load_raw_config(bundled_scenario_path(name))
    if overrides:
        raw = apply_overrides(raw, list(overrides))
    result = run_scenario(parse_config(raw), out_dir=tmp_path)
    rows = DIVERGED_ROWS.get((name, overrides))
    if rows is None:
        assert result.exit_code == 0
    else:
        assert result.exit_code == 2
        assert len(result.trace) == rows
    trace_digest, metrics_digest = DIGESTS[(name, overrides)]
    assert _sha256(result.trace_path) == trace_digest
    assert _sha256(result.metrics_path) == metrics_digest


@pytest.mark.parametrize("coretype", [None, "Nehalem"], ids=["default", "Nehalem"])
def test_digests_do_not_depend_on_the_blas_kernel(coretype, tmp_path):
    """nominal through the CLI in a fresh process, under one OpenBLAS kernel.

    OPENBLAS_CORETYPE is read when OpenBLAS loads, so each kernel needs its
    own process. It only takes effect on OpenBLAS builds with DYNAMIC_ARCH,
    such as the one bundled with numpy wheels.
    """
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    src = str(Path(locomanip.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = tmp_path / "out"
    subprocess.run(
        [sys.executable, "-m", "locomanip.cli", "run", "--config", "nominal"]
        + ["--out", str(out)],
        env=env,
        check=True,
        capture_output=True,
    )
    trace_digest, metrics_digest = DIGESTS[("nominal", ())]
    assert _sha256(out / "trace.csv") == trace_digest
    assert _sha256(out / "metrics.txt") == metrics_digest
