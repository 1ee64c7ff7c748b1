"""Byte-level gate on the outputs of every bundled run.

Pins SHA-256 digests of ``trace.csv`` and ``metrics.txt`` for the five
bundled scenarios plus the two ablation runs of acceptance criteria 5
(``force_kappa_one`` on testcase2) and 6 (``disable_compensation`` on
testcase3). Three testcase1 variants cover the closed-loop paths the
bundled runs leave out: measurement noise (so the order of the random draws
is pinned too), a stiff ``k_p`` that saturates the command ZMP on many
steps, and a push that makes the plant
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

The stdout of ``locomanip gains`` is pinned for the five bundled scenarios
too. Its poles come from LAPACK's eigenvalue solvers, whose last printed
digit does depend on the kernel: nominal's second ``preview_pole_abs`` reads
0.993005870424 under the default kernel and 0.993005870423 under Nehalem.
So the lines that print poles are compared to 1e-11 relative, under both
kernels, and every other line byte for byte.
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
        "b520fd571060f91c7afa586580f81540f201ebf39d15115a9e8a0345f6940713",
    ),
    ("nominal", ()): (
        "587c2bb20f773ead04cf742b00182b8af6faa5a903507b9e9229edb18618c1a3",
        "68050e7a1155acd72e9dcd51074eb031eda5a57041cfee7c2af5d46be6b6b34a",
    ),
    ("testcase1", ()): (
        "075505f0ec65ce49f9c0156dda2726aea9e5fe7550b85f189a559da2e41877d6",
        "cae380f8713fa41993a5ba96fdbf3f761545448243ea2e550bdfa92e518dce42",
    ),
    ("testcase2", ()): (
        "4764d5e9d9e36ed612ba432cd48b1e9044b4aabdec5e61aecae25e87f0e376ff",
        "319cd0e5c2018660fef169e11facfebb267a07c938e8abaabe126665ba3c74d3",
    ),
    ("testcase3", ()): (
        "44a747f52c21db8e6b611fcc820464295e11751c3ec391a76ab5011d380193cc",
        "75376b388a140cacd5ef892e7777631b4e17ef0dde8423854e83010b1ef38b7b",
    ),
    ("testcase2", ("ablation.force_kappa_one=true",)): (
        "6037cfbb141aff5439d6f8ec08191b089a871e902c2aa40c6acbf79ca1554d47",
        "da8dd1b7f5a335ac9e7b44ac2874f79cb52da7b48fd2054bd3300128381820f3",
    ),
    ("testcase3", ("ablation.disable_compensation=true",)): (
        "c2426ab8b2bca11f5843a2577c95239847e478dd0b9c3553c60fa10a3144e4bb",
        "5da451313737d5c5506e7730b717b4f11d9249e88994c3722c730b3ba0516024",
    ),
    ("testcase1", NOISY): (
        "208c088fbfb556f157779eaa1171dbc3c6ef64ab76783e50b3f7822c6b81020b",
        "d74f344f7d6415de8aa3b2a11287b1b73a002a0a3b03823c13ad33e9280ba0f4",
    ),
    ("testcase1", STIFF): (
        "a63622b052a629293c932edb70e6a865e97b1f3eae778a9835a7116786243b40",
        "56dfcf701598b188cd08da9829d2fc659cfe5f6d9f29d86021c6e4a23367f495",
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
        "b3c862b55a14318f85702361f60b890962f684329b468367ac5b4c6dd9318021",
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


# the lines of gains stdout that print LAPACK results
LAPACK_LINES = ("preview_pole_abs", "stabilizer_poles", "stabilizer_pole_max_real")
_POLES = {
    "preview_pole_abs": "0.993035735721,0.993005870424,0.225505731216",
    "stabilizer_poles": "-15.35817525+0j,-1.14003949101+0j",
    "stabilizer_pole_max_real": "-1.14003949101",
}

# scenario -> (SHA-256 of gains stdout without LAPACK_LINES, those lines)
GAINS = {
    "cart-like": (
        "739ea76b35b0988c7df31ad1232836b329b2e14e0d19a8851a9c34c3d027e24a",
        _POLES,
    ),
    "nominal": (
        "41b1a8699b0c923e3bb879502cb9f7097265fa3154b366f283d0e2b5a6f23774",
        _POLES,
    ),
    "testcase1": (
        "2e035e133f199ba51a73e88ae8aa25679b43eeab0f7bf452d096705c2745c237",
        _POLES,
    ),
    "testcase2": (
        "3aa188e757e486d07f5f60b1dcec776741b50500afa40660304d9e892cf28010",
        _POLES,
    ),
    "testcase3": (
        "f1689cf01a2706518b37b78c7d841e7cc5081cb6952991aa76e7369fafaf01b6",
        {
            "preview_pole_abs": "0.993035735721,0.993005870424,0.225505731216",
            "stabilizer_poles": "-13.9962736131+0j,-2.50194112788+0j",
            "stabilizer_pole_max_real": "-2.50194112788",
        },
    ),
}

# gains of each named scenario, each stdout framed by a line of its own
_GAINS_SCRIPT = """
import sys
from locomanip.cli import main
for name in sys.argv[1:]:
    print("--- " + name, flush=True)
    if main(["gains", "--config", name]) != 0:
        sys.exit(1)
"""


@pytest.mark.parametrize("coretype", [None, "Nehalem"], ids=["default", "Nehalem"])
def test_gains_stdout_matches_pinned_digests(coretype):
    """gains of every bundled scenario in a fresh process, under one
    OpenBLAS kernel: each line byte for byte, but the pole lines, whose
    values must agree to 1e-11 relative."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    src = str(Path(locomanip.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", _GAINS_SCRIPT, *GAINS],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    outputs = done.stdout.split("--- ")[1:]
    assert [o.split("\n", 1)[0] for o in outputs] == list(GAINS)
    for name, output in zip(GAINS, outputs):
        digest, poles = GAINS[name]
        lines = output.splitlines(keepends=True)[1:]
        kept = "".join(line for line in lines if line.split("=")[0] not in LAPACK_LINES)
        assert hashlib.sha256(kept.encode()).hexdigest() == digest, name
        printed = dict(line.rstrip("\n").split("=", 1) for line in lines)
        for key, pinned in poles.items():
            got = [complex(v) for v in printed[key].split(",")]
            want = [complex(v) for v in pinned.split(",")]
            assert len(got) == len(want), (name, key)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-11 * abs(w), (name, key, printed[key])
