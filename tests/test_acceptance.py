"""Acceptance gate: eight end-to-end criteria, one printed verdict line each.

Every test measures its own wall time against the stated budget and prints
ACCEPTANCE <n> PASS/FAIL with the observed numbers, so a bare ``pytest -v
tests/test_acceptance.py`` doubles as the sign-off report.
"""

import math
import time

import numpy as np
import pytest

from _pipeline import (
    OMEGA,
    PARAMS,
    hand_pair,
    inplace_timeline,
    plan_trajectory,
    preview_gains,
)
from oracles import classical_preview_rollout, finite_horizon_ls_inputs, step_pg

from locomanip.core_dynamics import (
    ExternalContact,
    compute_coefficients,
    contact_rows,
    dcm_of,
    dcm_rate,
    ext_zmp,
    lipm_accel,
    net_foot_wrench,
    wrench_zmp,
)
from locomanip.pattern_generator import (
    PreviewWeights,
    initial_state,
    synthesize_gains,
)
from locomanip.reference_builder import SoleRect
from locomanip.scenario import (
    apply_overrides,
    bundled_scenario_path,
    load_raw_config,
    parse_config,
    run_scenario,
)
from locomanip.stabilizer import (
    Wrench,
    conventional_closed_loop_matrix,
    distribute_wrench,
    scaled_closed_loop_matrix,
    split_frequency,
)

LEFT_SOLE = SoleRect.centered((0.0, 0.1), 0.1, 0.05)
RIGHT_SOLE = SoleRect.centered((0.0, -0.1), 0.1, 0.05)


def _bundled(name, overrides=()):
    raw = load_raw_config(bundled_scenario_path(name))
    if overrides:
        raw = apply_overrides(raw, list(overrides))
    return parse_config(raw)


def _verdict(capsys, index, ok, detail, elapsed, budget):
    line = (
        f"ACCEPTANCE {index} {'PASS' if ok else 'FAIL'}: {detail} "
        f"[{elapsed:.2f} s / {budget:.0f} s budget]"
    )
    with capsys.disabled():
        print("\n" + line)
    assert ok and elapsed < budget, line


def test_criterion_1_zero_force_reduction(capsys):
    """No external forces: generator output equals the classical preview loop."""
    t0 = time.perf_counter()
    timeline = inplace_timeline(duration=10.0, until=8.0)
    assert np.all(timeline.kappa == 1.0) and np.all(timeline.gamma == 0.0)
    traj = plan_trajectory(timeline)
    twin = classical_preview_rollout(preview_gains(), np.asarray(timeline.zmp_ref))
    dev = max(
        np.max(np.abs(traj.com_pos - twin["com_pos"])),
        np.max(np.abs(traj.dcm - twin["dcm"])),
        np.max(np.abs(traj.zmp - twin["zmp"])),
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys, 1, dev <= 1e-12,
        f"zero-force plan matches classical preview twin, max dev {dev:.2e} m over 10 s",
        elapsed, 5.0,
    )


def test_criterion_2_gain_scaling_equivalence(capsys):
    """Scaled loop with gains k/kappa has the eigenvalues of the unscaled loop."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260817)
    worst = 0.0
    for _ in range(50):
        kappa = rng.uniform(0.3, 1.5)
        rho = rng.uniform(8.0, 40.0)
        omega = rng.uniform(2.0, 6.0)
        k_p = rng.uniform(1.05, 3.0)
        k_i = rng.uniform(0.0, 2.0)
        k_d = rng.uniform(0.0, 0.5)
        scaled = scaled_closed_loop_matrix(
            kappa, rho, omega, k_p / kappa, k_i / kappa, k_d / kappa
        )
        conventional = conventional_closed_loop_matrix(rho, omega, k_p, k_i, k_d)
        ev_s = np.sort_complex(np.linalg.eigvals(scaled))
        ev_c = np.sort_complex(np.linalg.eigvals(conventional))
        rel = np.max(np.abs(ev_s - ev_c)) / np.max(np.abs(ev_c))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys, 2, worst <= 1e-9,
        f"eigenvalues match across 50 draws, worst rel dev {worst:.2e}",
        elapsed, 1.0,
    )


def test_criterion_3_preview_matches_least_squares(capsys):
    """Preview inputs equal the dense finite-horizon least-squares solution."""
    t0 = time.perf_counter()
    dt, total = 0.01, 6.0
    n = int(round(total / dt))
    t = np.arange(n) * dt
    ref = np.zeros(n)
    ref[(t >= 0.3) & (t < 0.7)] = 0.05
    ref[(t >= 0.7) & (t < 1.1)] = -0.03
    ref[(t >= 1.1) & (t < 1.5)] = 0.06

    gains = synthesize_gains(PreviewWeights(1.0, 1e-8), OMEGA, dt, total)
    npv = gains.n_preview
    ref2 = np.column_stack([ref, np.zeros(n)])
    padded = np.vstack([ref2[1:], np.tile(ref2[-1], (npv, 1))])
    state = initial_state(ref2[0])
    jerks = np.empty(n)
    for k in range(n):
        state, jerk, _ = step_pg(state, gains, padded[k : k + npv])
        jerks[k] = jerk[0]

    u_ls = finite_horizon_ls_inputs(OMEGA, dt, ref, 1.0, 1e-8)
    rel = np.max(np.abs(jerks - u_ls)) / np.max(np.abs(u_ls))
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys, 3, rel <= 1e-6,
        f"preview inputs match stacked least-squares oracle, rel dev {rel:.2e}",
        elapsed, 5.0,
    )


def test_criterion_4_constant_pull_while_stepping(capsys):
    """Steady two-hand pull: tight ZMP tracking and the analytic lean offset."""
    t0 = time.perf_counter()
    result = run_scenario(_bundled("testcase1"), write=False)
    rms = result.metrics["rms_zmp_dev_x"]
    offset = result.metrics["tail.mean_com_zmp_offset_x"]
    # two 50 N backward hand forces at 0.3 m lever over m*g
    expected = 2.0 * 50.0 * 0.3 / (100.0 * 9.81)
    off_ok = abs(offset - expected) <= 0.1 * expected
    ok = result.exit_code == 0 and rms < 0.005 and off_ok
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys, 4, ok,
        f"tracking rms {rms * 1e3:.3g} mm (< 5 mm), lean {offset:.6f} m "
        f"vs analytic {expected:.6f} m",
        elapsed, 10.0,
    )


def test_criterion_5_zmp_scale_ablation(capsys):
    """Forcing the ZMP scale to one degrades the sway ZMP by far over 2x."""
    t0 = time.perf_counter()
    correct = run_scenario(_bundled("testcase2"), write=False)
    ablated = run_scenario(
        _bundled("testcase2", ["ablation.force_kappa_one=true"]), write=False
    )
    ratio = (
        ablated.metrics["rms_implied_zmp_dev_y"]
        / correct.metrics["rms_implied_zmp_dev_y"]
    )
    note = " (ablated run falls over)" if ablated.exit_code == 2 else ""
    ok = correct.exit_code == 0 and ratio >= 2.0
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys, 5, ok,
        f"implied-ZMP deviation ratio {ratio:.1f}x (>= 2x) against the plan{note}",
        elapsed, 10.0,
    )


def test_criterion_6_frequency_separation(capsys):
    """Fast force errors land in the ZMP, slow ones in the CoM; both grow without compensation."""
    t0 = time.perf_counter()
    on = run_scenario(_bundled("testcase3"), write=False)
    off = run_scenario(
        _bundled("testcase3", ["ablation.disable_compensation=true"]), write=False
    )
    fast = on.metrics["p2s.rms_zmp_dev_x"] / on.metrics["p2s.rms_com_dev_x"]
    slow = on.metrics["p10s.rms_com_dev_x"] / on.metrics["p10s.rms_zmp_dev_x"]
    com_gain = off.metrics["rms_com_dev_x"] / on.metrics["rms_com_dev_x"]
    zmp_gain = off.metrics["rms_zmp_dev_x"] / on.metrics["rms_zmp_dev_x"]
    ok = (
        on.exit_code == 0
        and off.exit_code == 0
        and fast > 1.0
        and slow > 1.0
        and com_gain > 1.3
        and zmp_gain > 1.3
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys, 6, ok,
        f"2 s period ZMP/CoM {fast:.2f}x, 10 s period CoM/ZMP {slow:.2f}x; "
        f"compensation off raises CoM {com_gain:.2f}x, ZMP {zmp_gain:.2f}x (> 1.3x)",
        elapsed, 15.0,
    )


def _fd_consistency(draws=100, h=1e-5, seed=11):
    """Worst relative gap between analytic rates and the exact-flow differences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        contacts = (
            ExternalContact(
                force=rng.uniform(-80.0, 80.0, 3),
                moment=rng.uniform(-10.0, 10.0, 3),
                position=rng.uniform((-0.4, -0.4, 0.2), (0.4, 0.4, 1.2)),
            ),
        )
        coeff = compute_coefficients(PARAMS, contacts)
        w, kappa, gamma = coeff.omega, coeff.kappa, coeff.gamma
        pos = rng.uniform(-0.4, 0.4, 2)
        vel = rng.uniform(-0.6, 0.6, 2)
        zmp = rng.uniform(-0.15, 0.15, 2)
        eff = ext_zmp(kappa, zmp, gamma)

        def flow(s):
            c = eff + (pos - eff) * math.cosh(w * s) + vel * math.sinh(w * s) / w
            v = (pos - eff) * w * math.sinh(w * s) + vel * math.cosh(w * s)
            return c, v

        (c_p, v_p), (c_m, v_m) = flow(h), flow(-h)
        acc = lipm_accel(w, kappa, pos, zmp, gamma)
        fd_acc = (v_p - v_m) / (2.0 * h)
        xi_rate = dcm_rate(w, kappa, dcm_of(pos, vel, w), zmp, gamma)
        fd_xi = (dcm_of(c_p, v_p, w) - dcm_of(c_m, v_m, w)) / (2.0 * h)
        scale_a = max(1.0, float(np.max(np.abs(acc))))
        scale_x = max(1.0, float(np.max(np.abs(xi_rate))))
        worst = max(
            worst,
            float(np.max(np.abs(fd_acc - acc))) / scale_a,
            float(np.max(np.abs(fd_xi - xi_rate))) / scale_x,
        )
    return worst


def _split_exactness(steps=200, seed=5):
    rng = np.random.default_rng(seed)
    bands = (0.0,) * 6
    gamma = np.zeros(2)
    worst = 0.0
    for _ in range(steps):
        gamma = gamma + rng.normal(scale=0.01, size=2)
        (bands,) = split_frequency(bands, *gamma[:, None], 0.002, 1.0)
        low, high = np.array(bands[0:2]), np.array(bands[2:4])
        worst = max(worst, float(np.max(np.abs(low + high - gamma))))
    return worst


def _recombination(draws=100, seed=3):
    """Feasible double-support wrenches split and recombine to the input."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        contacts = hand_pair(
            fx=rng.uniform(-60.0, 60.0), fz=rng.uniform(-60.0, 60.0)
        )
        coeff = compute_coefficients(PARAMS, contacts)
        target = rng.uniform((-0.08, -0.12), (0.08, 0.12))
        com = np.array([*rng.uniform(-0.03, 0.03, 2), 0.8])
        acc2 = lipm_accel(OMEGA, coeff.kappa, com[:2], target, coeff.gamma)
        w = net_foot_wrench(
            PARAMS, *com.tolist(), *acc2.tolist(), 0.0, contact_rows(contacts)
        )
        force, moment = np.array(w[:3]), np.array(w[3:])
        assert np.max(np.abs(np.array(wrench_zmp(*w[:5])) - target)) < 1e-9
        left, right = distribute_wrench(
            Wrench(force=force, moment=moment), LEFT_SOLE, RIGHT_SOLE
        )
        back_f = left.force + right.force
        back_m = left.moment + right.moment
        for rect, w in ((LEFT_SOLE, left), (RIGHT_SOLE, right)):
            center = np.array(
                [0.5 * (rect.xmin + rect.xmax), 0.5 * (rect.ymin + rect.ymax), 0.0]
            )
            back_m = back_m + np.cross(center, w.force)
        scale = max(1.0, float(np.max(np.abs(force))), float(np.max(np.abs(moment))))
        worst = max(
            worst,
            float(np.max(np.abs(back_f - force))) / scale,
            float(np.max(np.abs(back_m - moment))) / scale,
        )
    return worst


def _cancellation_residual():
    """Closed loop under a constant force error held in the high band.

    An effectively infinite cutoff period keeps the whole offset error in
    gamma_high, so only the ZMP-feedforward terms can cancel it; the plant
    keeps its actuation lag. Returns (DCM error after settling, max leak
    into the low band).
    """
    config = parse_config(
        {
            "name": "cancel",
            "duration_s": 6.0,
            "controller": {"k_p": 2.0, "cutoff_period_s": 1.0e6},
            "hands": [
                {
                    "time_s": 0.0,
                    "contacts": [{"position_m": [0.3, 0.0, 0.4]}],
                }
            ],
            "disturbances": [
                {"kind": "constant", "axis": "x", "amplitude_n": -30.0}
            ],
        }
    )
    result = run_scenario(config, write=False)
    assert result.exit_code == 0
    trace = result.trace
    settle = 10.0 / OMEGA
    tail = np.arange(len(trace)) * trace.dt >= settle
    gamma_err = 0.4 * -30.0 / 981.0
    leak = float(np.max(np.abs(trace["gammaL_x"])))
    # the high band carries the whole error except what leaked to the low band
    assert abs(np.median(trace["gammaH_x"][tail]) - gamma_err) < leak + 1e-9
    residual = 0.0
    for ax in ("x", "y"):
        err = trace[f"xi_{ax}^a"] - trace[f"xi_{ax}^d"] + trace[f"gammaL_{ax}"]
        residual = max(residual, float(np.max(np.abs(err[tail]))))
    return residual, leak


def test_criterion_7_numerical_consistency(capsys):
    """Rate identities, band split, wrench recombination, error cancellation."""
    t0 = time.perf_counter()
    fd = _fd_consistency()
    split = _split_exactness()
    recomb = _recombination()
    residual, leak = _cancellation_residual()
    ok = (
        fd <= 1e-6
        and split <= 1e-12
        and recomb <= 1e-9
        and residual < 1e-4
        and leak < 1e-5
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys, 7, ok,
        f"rate identities {fd:.1e} (<= 1e-6), band split {split:.1e} (<= 1e-12), "
        f"wrench recombination {recomb:.1e} (<= 1e-9), high-band error "
        f"cancelled to {residual:.1e} m (< 1e-4, low-band leak {leak:.0e})",
        elapsed, 5.0,
    )


def test_criterion_8_bit_identical_reruns(capsys, tmp_path):
    """Two runs of a bundled scenario write byte-identical traces."""
    t0 = time.perf_counter()
    same = []
    for name in ("testcase1", "cart-like"):
        config = _bundled(name)
        first = run_scenario(config, out_dir=tmp_path / name / "a")
        second = run_scenario(config, out_dir=tmp_path / name / "b")
        same.append(
            first.trace_path.read_bytes() == second.trace_path.read_bytes()
        )
    ok = all(same)
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys, 8, ok,
        "re-runs of testcase1 and cart-like are byte-identical"
        if ok
        else f"trace bytes differ: {same}",
        elapsed, 30.0,
    )
