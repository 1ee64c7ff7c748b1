"""Byte-level gate on the outputs of every bundled run.

Pins SHA-256 digests of ``trace.csv`` and ``metrics.txt`` for the five
bundled scenarios plus the two ablation runs of acceptance criteria 5
(``force_kappa_one`` on testcase2) and 6 (``disable_compensation`` on
testcase3). Three testcase1 variants cover the closed-loop paths the
bundled runs leave out: measurement noise (so the order of the random draws
is pinned too), a stiff ``k_p`` that saturates the command ZMP and clamps
the centre of pressure on many steps, and a push that makes the plant
diverge, which must end with exit code 2 and a truncated trace. Criterion 8
only compares two runs of the same code; this gate compares against a fixed
baseline, so a refactor or speed-up that changes a single output byte fails
here.

The digests were taken with Python 3.11.7 and numpy 2.4.6 on x86-64 Linux,
with numpy's bundled OpenBLAS 0.3.31 picking its SkylakeX kernels. Trace
bytes depend on that kernel choice: under ``OPENBLAS_CORETYPE=Nehalem``
(no fused multiply-add) all seven trace digests and three of the seven
metrics digests change. Another libm, numpy or BLAS build may likewise move
the last digit of some values; a deliberate behaviour change re-baselines
these digests with an argued entry in CHANGES.md.
"""

import hashlib

import pytest

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

# (scenario, overrides) -> (trace.csv digest, metrics.txt digest)
DIGESTS = {
    ("cart-like", ()): (
        "8b01bf73f575b24bbb4fed2ab14be97a1a370a582fa4f26971e6688f352fee57",
        "2cc689f2121269ed462b0f60d2ec7fc83befec378d00747ca284898b6b75cf75",
    ),
    ("nominal", ()): (
        "b41940fe733732513c595190441cd6d6dacc2a4674d02c66139c5ac72bf453ea",
        "60af96400342efc93033c4c0be3f8178c3ea22950c6bcc9e1f53e6ff04cdbdd4",
    ),
    ("testcase1", ()): (
        "c20fd5f3bfa2b841a3385f2c5c4d2ae2779c60accfe4cce58838f9d87c3901d8",
        "404dabe96ca099f0f1d7e59fa0b0145a5907f6d0c380d87616dc6aeb09aa571e",
    ),
    ("testcase2", ()): (
        "dbc9c8234580e4277994169ab1dd4b4f27a87b395e91a27980f6cf5839fb8462",
        "be089cd17db4dfe4ea1080393071c7bb15203ce0054d1c2a8cce9734977087a4",
    ),
    ("testcase3", ()): (
        "08d444798e7c789558860f9cc62385a37aea440d8380a963430b9eeeedb8bee7",
        "3083c0dc8076e99ca626b2eb4db9dd6a1c52fb577bfc0c83eb3ce5a12f539281",
    ),
    ("testcase2", ("ablation.force_kappa_one=true",)): (
        "74599185b75660e76ee9c2d6bd3d513effcb2fadd27aef8ab3e3e3fdc4999ed8",
        "738190973cd74aaf0711721821e1166b99f395ac2c0232e62ffe2f674f972722",
    ),
    ("testcase3", ("ablation.disable_compensation=true",)): (
        "1c87c1326a705b0088e8bfb76a65b337591bcdbcba4226c6bea61c6ce9094bec",
        "87e895e98853cff9c52f59b8edf7e2b9499831f370a9d79a74e5240c558ea640",
    ),
    ("testcase1", NOISY): (
        "663c0750602ff08fb7e0327ea37d7754ae919f669c86692efd11ad800f201941",
        "48f51017b5383e0fb0e75a8ce3b9cc5c14f82d3e4063aeba035e5bf5963de955",
    ),
    ("testcase1", STIFF): (
        "2e60770489190db5f3e2871665ac66865882158accd137e69909e7e4ca18edef",
        "d929feeb504bd98aa5711535db84e966f9793d91282622c4e91c49a5125b0074",
    ),
    ("testcase1", PUSHED): (
        "599861667216880ecc6cebfd3a73a4ed6147e50e4b5349a6fbb025d6bfa4632b",
        "00111f29e707eacb55ff2a55620dd936d057d6a6f0898684076f16b166aef595",
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
