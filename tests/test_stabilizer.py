"""Unit tests for the DCM stabilizer and foot wrench distribution."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import clamp_xy_edge_loop, convex_hull_np_unique, cop_moved

import locomanip

from locomanip.core_dynamics import (
    DEGENERATE_KAPPA,
    ExternalContact,
    RobotParams,
    compute_coefficients,
    contact_rows,
    contact_terms,
    ext_zmp,
    lipm_accel,
    net_foot_force,
    net_foot_wrench,
    wrench_zmp,
)
from locomanip.errors import DegenerateScale, Infeasible, NonPhysical
from locomanip.plant_sim import run_closed_loop
from locomanip.reference_builder import SoleRect
from locomanip.scenario import (
    apply_overrides,
    build_scenario,
    bundled_scenario_path,
    load_raw_config,
    parse_config,
)
from locomanip.stabilizer import (
    Stabilizer,
    StabilizerGains,
    Wrench,
    _clamp_to_hull,
    _clamp_xy,
    _clamped,
    _convex_hull,
    _least_distance,
    _nnls,
    _sole_limited_split,
    compile_hull,
    conventional_closed_loop_matrix,
    dcm_feedback,
    distribute_wrench,
    hull_edges,
    measure_gamma_error,
    scaled_closed_loop_matrix,
    split_frequency,
    support_hull,
)

PARAMS = RobotParams(mass=100.0)
ZETA = PARAMS.mass * PARAMS.gravity
OMEGA = math.sqrt(9.81 / 0.8)
DT = 0.002

LEFT = SoleRect.centered((0.0, -0.1), 0.11, 0.05)
RIGHT = SoleRect.centered((0.0, 0.1), 0.11, 0.05)


def hands(fx=0.0, fz=0.0, height=1.0, reach=0.3, half_span=0.25):
    return (
        ExternalContact(
            force=(fx, 0.0, fz), moment=(0.0, 0.0, 0.0), position=(reach, half_span, height)
        ),
        ExternalContact(
            force=(fx, 0.0, fz), moment=(0.0, 0.0, 0.0), position=(reach, -half_span, height)
        ),
    )


def standing_sample(contacts=(), com=None, zmp=None):
    """Equilibrium desired sample: CoM placed where model acceleration is zero."""
    coeff = compute_coefficients(PARAMS, contacts)
    zmp = np.zeros(2) if zmp is None else np.asarray(zmp, dtype=float)
    if com is None:
        com = ext_zmp(coeff.kappa, zmp, coeff.gamma)
    com = np.asarray(com, dtype=float)
    acc = lipm_accel(coeff.omega, coeff.kappa, com, zmp, coeff.gamma)
    return planned(com, acc, com.copy(), zmp, coeff)


def planned(com, acc, dcm, zmp, coeff):
    """A planned sample: its arrays, coefficients and the plan tuple (xi_x,
    xi_y, z_x, z_y) the laws take. acc is the sample's model acceleration,
    which the command acceleration of a zero feedback equals."""
    return SimpleNamespace(
        com_pos=com,
        com_acc=acc,
        dcm=dcm,
        zmp=zmp,
        coefficients=coeff,
        plan=(*dcm.tolist(), *zmp.tolist()),
    )


def gamma_error(desired, actual):
    """measure_gamma_error of the actual contacts' gamma against the gamma
    of the desired ones."""
    return np.array(
        measure_gamma_error(
            *compute_coefficients(PARAMS, actual).gamma,
            compute_coefficients(PARAMS, desired).gamma,
        )
    )


# the bands and the DCM-error memory of the first sample
ZEROS = (0.0,) * 6


def pairs(bands):
    """(gamma_low, gamma_high, gamma_high_rate) of a bands tuple, as arrays."""
    return tuple(np.array(bands[i : i + 2]) for i in (0, 2, 4))


def split(bands, gam, cutoff=1.0):
    """split_frequency over the one sample gam from bands; its new bands."""
    (out,) = split_frequency(bands, *np.asarray(gam)[:, None], DT, cutoff)
    return out


def feedback(desired, xi, gains, bands=ZEROS, memory=ZEROS):
    """dcm_feedback on a planned sample with the given bands and memory.
    Returns (command_zmp, dcm_err) as arrays, and the new memory."""
    zmp, memory = dcm_feedback(
        gains.pid, DT, desired.coefficients.kappa, desired.plan,
        *np.asarray(xi).tolist(), bands, memory,
    )
    return np.array(zmp), np.array(memory[2:4]), memory


def stabilize(stab, desired, com, vel, contacts, region=(LEFT, RIGHT)):
    """One stabilizer cycle on a planned sample and measured CoM and contacts,
    the first of a run: Stabilizer.measure_forces over that one sample from
    zero bands, Stabilizer.step from zero memory, then the ground-wrench
    stage on floats (cop_moved), which Stabilizer.ground_wrench must match
    on a block of that one sample. Returns a namespace: zmp, acc and dcm_err
    pairs, gamma_err, the sample's bands, the saturated and cop_clamped
    flags, cop, the pressure point of the ground-wrench stage, and wrench.
    acc is the command acceleration, lipm_accel at the planned CoM with the
    command ZMP; wrench is the net ground wrench of that acceleration at the
    planned CoM against the measured contacts, with its pressure point
    clamped into the hull (the wrench the feet can realize), as a Wrench.
    Its unclamped pressure point is cop to 1e-12 m, the identity the
    ground-wrench stage rests on."""
    coeff = desired.coefficients
    rows = contact_rows(contacts)
    hull = compile_hull(support_hull(region))
    cx, cy = np.asarray(com, dtype=float).tolist()
    vx, vy = np.asarray(vel, dtype=float).tolist()
    *_, gx, gy = contact_terms(rows, ZETA, PARAMS.zmp_height)
    ex, ey, (bands,) = stab.measure_forces(gx, gy, coeff.gamma, 1, ZEROS)
    zx, zy, saturated, memory = stab.step(
        coeff.kappa, coeff.omega, desired.plan, cx, cy, vx, vy, hull, bands, ZEROS
    )
    ex, ey = float(ex[0]), float(ey[0])
    cop_clamped = cop_moved(PARAMS, zx, zy, coeff.kappa, ex, ey, rows, hull)
    fz = net_foot_force(PARAMS, 0.0, 0.0, 0.0, rows)[2]
    flags = stab.ground_wrench(
        *(np.array([v]) for v in (zx, zy, coeff.kappa, ex, ey, fz)),
        (hull,), np.zeros(1, int),
    )
    assert flags.tolist() == [cop_clamped]
    cop = (ZETA * (coeff.kappa * zx + ex) / fz, ZETA * (coeff.kappa * zy + ey) / fz)
    (c_x, c_y), (gx, gy) = desired.com_pos.tolist(), coeff.gamma.tolist()
    ax = lipm_accel(coeff.omega, coeff.kappa, c_x, zx, gx)
    ay = lipm_accel(coeff.omega, coeff.kappa, c_y, zy, gy)
    h = PARAMS.zmp_height
    fx, fy, fz, mx, my, mz = net_foot_wrench(
        PARAMS, c_x, c_y, PARAMS.com_height, ax, ay, 0.0, rows
    )
    px, py = wrench_zmp(fx, fy, fz, mx, my, h)
    assert np.allclose((px, py), cop, rtol=0.0, atol=1e-12)
    qx, qy = _clamp_to_hull(np.array([px, py]), support_hull(region)).tolist()
    if cop_clamped:
        mx = qy * fz - h * fy
        my = h * fx - qx * fz
    return SimpleNamespace(
        zmp=(zx, zy),
        acc=(ax, ay),
        dcm_err=memory[2:4],
        gamma_err=(ex, ey),
        bands=bands,
        saturated=saturated,
        cop_clamped=cop_clamped,
        cop=cop,
        wrench=Wrench(force=np.array([fx, fy, fz]), moment=np.array([mx, my, mz])),
    )


class TestGammaError:
    def test_matching_contacts_cancel(self):
        con = hands(fx=-50.0)
        err = gamma_error(con, con)
        assert np.all(err == 0.0)

    def test_hand_force_shortfall(self):
        # 30 N extra backward force per hand at 1 m: 2*(-30)*1.0/981
        desired = hands(fx=-50.0)
        actual = hands(fx=-80.0)
        err = gamma_error(desired, actual)
        assert err[0] == pytest.approx(2.0 * -30.0 / 981.0, rel=1e-12)
        assert err[1] == pytest.approx(0.0, abs=1e-15)

    def test_vertical_error_above_origin_is_invisible(self):
        desired = (
            ExternalContact(
                force=(0, 0, 100.0), moment=(0, 0, 0), position=(0, 0, 1.0)
            ),
        )
        actual = (
            ExternalContact(
                force=(0, 0, 160.0), moment=(0, 0, 0), position=(0, 0, 1.0)
            ),
        )
        err = gamma_error(desired, actual)
        assert np.allclose(err, 0.0, atol=1e-15)

    def test_different_list_lengths(self):
        desired = hands(fx=-50.0)
        actual = ()
        err = gamma_error(desired, actual)
        assert err[0] == pytest.approx(2.0 * 50.0 / 981.0, rel=1e-12)


class TestSplitFrequency:
    def test_constant_input_converges_to_low_band(self):
        bands = ZEROS
        gam = np.array([0.04, -0.02])
        for _ in range(int(10.0 / DT)):
            bands = split(bands, gam)
        low, high, rate = pairs(bands)
        assert np.allclose(low, gam, atol=1e-12)
        assert np.allclose(high, 0.0, atol=1e-12)
        assert np.allclose(rate, 0.0, atol=1e-9)

    def test_step_lands_in_high_band_first(self):
        gam = np.array([0.05, 0.0])
        low, high, _ = pairs(split(ZEROS, gam))
        assert high[0] > 0.9 * gam[0]
        assert abs(low[0]) < 0.1 * gam[0]

    def test_split_is_exact_every_step(self):
        rng = np.random.default_rng(7)
        bands = ZEROS
        gam = np.zeros(2)
        for _ in range(500):
            gam = gam + 0.001 * rng.standard_normal(2)
            bands = split(bands, gam)
            low, high, _ = pairs(bands)
            assert np.allclose(low + high, gam, rtol=0.0, atol=1e-12)

    def test_sinusoid_matches_analytic_high_pass(self):
        """2 s period against a 1.0 s cutoff: first-order high-pass magnitude."""
        cutoff = 1.0
        period = 2.0
        tau = cutoff / (2.0 * math.pi)
        w = 2.0 * math.pi / period
        expected = w * tau / math.sqrt(1.0 + (w * tau) ** 2)
        bands = ZEROS
        amp = 0.03
        n = int(10.0 * period / DT)
        peak = 0.0
        for k in range(n):
            t = k * DT
            gam = np.array([amp * math.sin(w * t), 0.0])
            bands = split(bands, gam, cutoff)
            _, high, _ = pairs(bands)
            if t > 8.0 * period:
                peak = max(peak, abs(high[0]))
        assert peak / amp == pytest.approx(expected, rel=0.05)


class TestDcmFeedback:
    def test_zero_error_passthrough(self):
        desired = standing_sample(hands(fx=-50.0))
        z_c, err, _ = feedback(desired, desired.dcm, StabilizerGains())
        assert np.all(z_c == desired.zmp)
        assert np.all(err == 0.0)

    def test_proportional_gain_scales_inverse_kappa(self):
        # kappa = 0.5 turns k_p = 1.25 into an effective ZMP gain of 2.5
        contacts = (
            ExternalContact(
                force=(0, 0, 0.5 * 981.0), moment=(0, 0, 0), position=(0, 0, 1.2)
            ),
        )
        desired = standing_sample(contacts)
        assert desired.coefficients.kappa == pytest.approx(0.5, rel=1e-12)
        e = np.array([0.01, -0.004])
        z_c, _, _ = feedback(desired, desired.dcm + e, StabilizerGains())
        assert np.allclose(z_c - desired.zmp, 2.5 * e, atol=1e-15)

    def test_low_band_shifts_com_not_zmp(self):
        desired = standing_sample()
        low = np.array([-0.03, 0.0])
        # actual DCM tracks the shifted reference: no residual feedback
        bands = (*low.tolist(), *ZEROS[2:])
        z_c, err, _ = feedback(
            desired, desired.dcm - low, StabilizerGains(), bands=bands
        )
        assert np.allclose(err, 0.0, atol=1e-15)
        assert np.allclose(z_c, desired.zmp, atol=1e-15)

    def test_high_band_feeds_zmp_forward(self):
        desired = standing_sample()
        kappa = desired.coefficients.kappa
        high = np.array([0.02, 0.0])
        bands = (0.0, 0.0, *high.tolist(), 0.0, 0.0)
        z_c, _, _ = feedback(desired, desired.dcm, StabilizerGains(), bands=bands)
        assert np.allclose(z_c - desired.zmp, high / kappa, atol=1e-15)

    def test_degenerate_kappa_rejected(self):
        contacts = (
            ExternalContact(
                force=(0, 0, 0.97 * 981.0), moment=(0, 0, 0), position=(0, 0, 1.2)
            ),
        )
        desired = standing_sample(contacts, com=np.zeros(2))
        with pytest.raises(DegenerateScale):
            feedback(desired, desired.dcm, StabilizerGains())

    def test_integrator_clamps(self):
        desired = standing_sample()
        gains = StabilizerGains(k_i=0.5, integrator_limit=0.01)
        memory = ZEROS
        e = np.array([0.05, -0.05])
        for _ in range(2000):
            *_, memory = feedback(desired, desired.dcm + e, gains, memory=memory)
        assert np.all(np.abs(memory[:2]) <= 0.01 + 1e-15)


class TestGainScaling:
    def test_scaled_matches_conventional_eigenvalues(self):
        kappa = 0.7
        scaled = scaled_closed_loop_matrix(
            kappa, 20.0, OMEGA, 1.25 / kappa, 0.3 / kappa, 0.1 / kappa
        )
        plain = conventional_closed_loop_matrix(20.0, OMEGA, 1.25, 0.3, 0.1)
        ev_s = np.sort_complex(np.linalg.eigvals(scaled))
        ev_p = np.sort_complex(np.linalg.eigvals(plain))
        assert np.allclose(ev_s, ev_p, rtol=1e-12, atol=1e-12)

    def test_default_gains_are_stable(self):
        StabilizerGains().check_stable(OMEGA)

    def test_sub_unity_proportional_gain_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            StabilizerGains(k_p=0.9).check_stable(OMEGA)


class TestDistributeWrench:
    def test_symmetric_split(self):
        net = Wrench(force=np.array([0.0, 0.0, 981.0]), moment=np.zeros(3))
        left, right = distribute_wrench(net, LEFT, RIGHT)
        assert np.allclose(left.force, [0, 0, 490.5], atol=1e-12)
        assert np.allclose(right.force, [0, 0, 490.5], atol=1e-12)
        # zero moment about each foot center: CoP at the centers
        assert np.allclose(left.moment, 0.0, atol=1e-12)
        assert np.allclose(right.moment, 0.0, atol=1e-12)

    def test_single_support_clamps_cop(self):
        # request far outside the sole: CoP pinned to the near corner
        cop_req = np.array([0.5, -0.1])
        force = np.array([0.0, 0.0, 981.0])
        moment = np.array([cop_req[1] * 981.0, -cop_req[0] * 981.0, 0.0])
        left, right = distribute_wrench(Wrench(force=force, moment=moment), LEFT, None)
        assert np.all(right.force == 0.0) and np.all(right.moment == 0.0)
        cop = np.array([-left.moment[1], left.moment[0]]) / left.force[2]
        center = np.array([0.0, -0.1])
        assert np.allclose(center + cop, [0.11, -0.1], atol=1e-12)

    def test_net_zmp_at_left_center_loads_left(self):
        force = np.array([0.0, 0.0, 981.0])
        cop = np.array([0.0, -0.1])
        moment = np.array([cop[1] * 981.0, -cop[0] * 981.0, 0.0])
        net = Wrench(force=force, moment=moment)
        left, right = distribute_wrench(net, LEFT, RIGHT)
        assert left.force[2] >= right.force[2]
        recombined_f = left.force + right.force
        recombined_m = (
            left.moment
            + right.moment
            + np.cross([0.0, -0.1, 0.0], left.force)
            + np.cross([0.0, 0.1, 0.0], right.force)
        )
        assert np.allclose(recombined_f, net.force, atol=1e-12)
        assert np.allclose(recombined_m, net.moment, atol=1e-9)

    def test_outside_hull_raises(self):
        force = np.array([0.0, 0.0, 981.0])
        cop = np.array([0.3, 0.0])
        moment = np.array([cop[1] * 981.0, -cop[0] * 981.0, 0.0])
        with pytest.raises(Infeasible):
            distribute_wrench(Wrench(force=force, moment=moment), LEFT, RIGHT)

    def test_upward_net_force_rejected(self):
        net = Wrench(force=np.array([0.0, 0.0, -10.0]), moment=np.zeros(3))
        with pytest.raises(Infeasible):
            distribute_wrench(net, LEFT, RIGHT)

    @pytest.mark.parametrize(
        "fz, error, message",
        [
            (0.0, NonPhysical, "no vertical force"),
            (math.nan, NonPhysical, "no vertical force"),
            (-10.0, Infeasible, "press downward"),
        ],
    )
    @pytest.mark.parametrize("feet", [(LEFT, RIGHT), (LEFT, None)], ids=["double", "single"])
    def test_unloaded_net_force_rejected(self, fz, error, message, feet):
        """As check_feet_loaded: NonPhysical with no vertical force,
        Infeasible with an upward one."""
        net = Wrench(force=np.array([0.0, 0.0, fz]), moment=np.zeros(3))
        with pytest.raises(error, match=message):
            distribute_wrench(net, *feet)

    def test_constrained_split_is_optimal(self):
        """Active-set result beats a feasible random sweep around it."""
        force = np.array([40.0, -20.0, 981.0])
        cop = np.array([0.09, 0.12])
        moment = np.array(
            [cop[1] * force[2], -cop[0] * force[2], 5.0]
        )
        net = Wrench(force=force, moment=moment)
        left, right = distribute_wrench(net, LEFT, RIGHT, vertical_ratio_hint=0.5)

        centers = [np.array([0.0, -0.1, 0.0]), np.array([0.0, 0.1, 0.0])]
        halves = [(0.11, 0.05), (0.11, 0.05)]
        # nominal the solver deviates from, rebuilt independently
        f0 = [0.5 * force, 0.5 * force]
        rest = moment - np.cross(centers[0], f0[0]) - np.cross(centers[1], f0[1])
        w0 = np.concatenate(f0 + [0.5 * rest, 0.5 * rest])
        w_star = np.concatenate([left.force, right.force, left.moment, right.moment])

        def feasible(w):
            for i in range(2):
                f = w[3 * i : 3 * i + 3]
                m = w[6 + 3 * i : 9 + 3 * i]
                hx, hy = halves[i]
                if f[2] < -1e-9:
                    return False
                if abs(m[1]) > hx * f[2] + 1e-9 or abs(m[0]) > hy * f[2] + 1e-9:
                    return False
            return True

        assert feasible(w_star)
        # equality residual: recombination about the world origin
        rec_f = w_star[0:3] + w_star[3:6]
        rec_m = (
            w_star[6:9]
            + w_star[9:12]
            + np.cross(centers[0], w_star[0:3])
            + np.cross(centers[1], w_star[3:6])
        )
        assert np.allclose(rec_f, force, atol=1e-9)
        assert np.allclose(rec_m, moment, atol=1e-9)

        # perturb within the equality null space; no feasible point does better
        E = np.zeros((6, 12))
        E[0:3, 0:3] = np.eye(3)
        E[0:3, 3:6] = np.eye(3)
        for i, c in enumerate(centers):
            E[3:6, 3 * i : 3 * i + 3] = np.array(
                [[0, -c[2], c[1]], [c[2], 0, -c[0]], [-c[1], c[0], 0]]
            )
        E[3:6, 6:9] = np.eye(3)
        E[3:6, 9:12] = np.eye(3)
        _, _, vt = np.linalg.svd(E)
        null = vt[6:].T
        obj_star = float((w_star - w0) @ (w_star - w0))
        rng = np.random.default_rng(11)
        for _ in range(300):
            d = null @ rng.standard_normal(null.shape[1])
            for eps in (1e-3, 1e-2, 1e-1):
                w_try = w_star + eps * d
                if feasible(w_try):
                    obj_try = float((w_try - w0) @ (w_try - w0))
                    assert obj_try >= obj_star - 1e-4


_unit = st.floats(-1.0, 1.0)


@st.composite
def feasible_net_wrenches(draw):
    """A stance, a net wrench whose pressure point lies in its support, a hint.

    Two soles of random size, spread and stagger; the support is both feet
    or one. The pressure point is a random point of the support (of each
    sole, mixed by a random share, in double support), at a random ZMP
    height; force and yaw torque are free apart from fz > 0.
    """
    hx, hy = draw(st.floats(0.05, 0.13)), draw(st.floats(0.03, 0.07))
    stagger, spread = draw(st.floats(-0.2, 0.2)), draw(st.floats(0.08, 0.2))
    left = SoleRect.centered((stagger, spread), hx, hy)
    right = SoleRect.centered((-stagger, -spread), hx, hy)
    support = draw(st.sampled_from(["both", "left", "right"]))
    feet = [left, right] if support == "both" else [left if support == "left" else right]
    points = [
        ((r.xmin + r.xmax) / 2 + draw(_unit) * hx, (r.ymin + r.ymax) / 2 + draw(_unit) * hy)
        for r in feet
    ]
    share = draw(st.floats(0.0, 1.0)) if len(points) == 2 else 1.0
    px = share * points[0][0] + (1.0 - share) * points[-1][0]
    py = share * points[0][1] + (1.0 - share) * points[-1][1]
    h = draw(st.floats(0.0, 0.1))
    fx, fy = draw(st.floats(-300.0, 300.0)), draw(st.floats(-300.0, 300.0))
    fz = draw(st.floats(1.0, 3000.0))
    force = np.array([fx, fy, fz])
    moment = np.cross([px, py, h], force) + [0.0, 0.0, draw(st.floats(-50.0, 50.0))]
    hint = draw(st.none() | st.floats(0.0, 1.0))
    return (
        Wrench(force=force, moment=moment),
        left if support != "right" else None,
        right if support != "left" else None,
        h,
        hint,
    )


class TestWrenchRecombination:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(feasible_net_wrenches())
    @example(
        # the pressure point on the right sole's back edge, all weight
        # hinted to the left foot: the sole limits active at the split are
        # linearly dependent
        (
            Wrench(force=np.array([0.0, 0.0, 1.0]), moment=np.array([-0.125, 0.1875, 0.0])),
            SoleRect(xmin=-0.0625, xmax=0.1875, ymin=0.0625, ymax=0.1875),
            SoleRect(xmin=-0.1875, xmax=0.0625, ymin=-0.1875, ymax=-0.0625),
            0.0,
            1.0,
        )
    )
    def test_split_recombines_to_net_wrench(self, case):
        """Foot wrenches sum back to the net force, and to its moment once
        each foot's moment is carried back from its sole centre; each foot
        presses down with its pressure point in its sole."""
        net, left_foot, right_foot, h, hint = case
        left, right = distribute_wrench(
            net, left_foot, right_foot, zmp_height=h, vertical_ratio_hint=hint
        )
        back_f = left.force + right.force
        back_m = left.moment + right.moment
        for rect, w in ((left_foot, left), (right_foot, right)):
            if rect is None:
                assert not np.any(w.force) and not np.any(w.moment)
                continue
            center = [(rect.xmin + rect.xmax) / 2, (rect.ymin + rect.ymax) / 2, h]
            back_m = back_m + np.cross(center, w.force)
        scale = max(1.0, np.max(np.abs(net.force)), np.max(np.abs(net.moment)))
        assert np.max(np.abs(back_f - net.force)) <= 1e-9 * scale
        assert np.max(np.abs(back_m - net.moment)) <= 1e-9 * scale
        for rect, w in ((left_foot, left), (right_foot, right)):
            if rect is not None:
                fz = w.force[2]
                assert fz >= -1e-9 * scale
                assert abs(w.moment[1]) <= 0.5 * (rect.xmax - rect.xmin) * fz + 1e-9 * scale
                assert abs(w.moment[0]) <= 0.5 * (rect.ymax - rect.ymin) * fz + 1e-9 * scale


def _cone_residual(directions, target):
    """Distance from target to the cone of nonnegative combinations of
    the given columns, by scipy's NNLS; 0.0 for an empty set when target is
    0."""
    if directions.shape[1] == 0:
        return float(np.linalg.norm(target))
    return float(pytest.importorskip("scipy.optimize").nnls(directions, target)[1])


class TestWrenchSplitOptimality:
    """The optimality (KKT) conditions of the wrench split's three solvers,
    checked on their outputs alone: feasibility, the equalities, and
    multipliers of the right sign that make the gradient vanish, recovered
    here by scipy's NNLS rather than read from the solvers."""

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_nnls_meets_its_kkt_conditions(self, seed):
        """x >= 0, and the descent direction a'(b - a x) is at most 0, and 0
        where x > 0; the residual is scipy's."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((rng.integers(1, 20), rng.integers(1, 15)))
        b = rng.standard_normal(len(a))
        x = _nnls(a, b)
        scale = np.abs(a).sum() * (1.0 + np.abs(b).sum())
        grad = a.T @ (b - a @ x)
        assert np.all(x >= 0.0)
        assert np.all(grad <= 1e-12 * scale)
        assert np.all(np.abs(grad[x > 0.0]) <= 1e-12 * scale)
        best = pytest.importorskip("scipy.optimize").nnls(a, b)[1]
        assert np.linalg.norm(a @ x - b) <= best + 1e-12 * max(1.0, best)

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_least_distance_meets_its_kkt_conditions(self, seed):
        """a z <= b, and z = -a_A' lam with lam >= 0 over the active rows A,
        so no feasible direction shortens z; with b >= 0, z = 0."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        a = rng.standard_normal((rng.integers(1, 20), n))
        slack = rng.exponential(1.0, len(a)) * rng.integers(0, 2, len(a))
        b = a @ (3.0 * rng.standard_normal(n)) + slack
        z = _least_distance(a, b)
        scale = np.abs(b).max()
        assert np.all(a @ z - b <= 1e-12 * scale)
        active = a @ z - b >= -1e-9 * scale
        assert _cone_residual(-a[active].T, z) <= 1e-12 * max(1.0, np.linalg.norm(z))
        assert not np.any(_least_distance(a, np.abs(b)))

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), push=st.floats(0.0, 300.0))
    def test_sole_limited_split_meets_its_kkt_conditions(self, seed, push):
        """Two soles at random places and sizes, and a request w0 moved off
        a feasible split along the null space of the recombination, so the
        program is feasible: the split keeps the net force and the net
        moment about the origin to rounding, presses each sole down with its
        pressure point inside, and w - w0 lies in the row space of the
        equalities minus the cone of the active sole limits."""
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(seed)
        centers = [
            np.array([rng.uniform(-0.2, 0.2), rng.uniform(0.05, 0.2), 0.0]),
            np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.2, -0.05), 0.0]),
        ]
        halves = [(rng.uniform(0.05, 0.15), rng.uniform(0.03, 0.08)) for _ in centers]
        # w = (f_left, f_right, m_left, m_right), moments about the centers
        E = np.zeros((6, 12))
        G = np.zeros((10, 12))
        feasible = np.zeros(12)
        for i, (c, (hx, hy)) in enumerate(zip(centers, halves)):
            f, m = slice(3 * i, 3 * i + 3), slice(6 + 3 * i, 9 + 3 * i)
            E[0:3, f] = np.eye(3)
            E[3:6, f] = np.transpose([np.cross(c, e) for e in np.eye(3)])
            E[3:6, m] = np.eye(3)
            fz, mx, my = 3 * i + 2, 6 + 3 * i, 7 + 3 * i
            for k, (col, half, sign) in enumerate(
                [(my, hx, 1.0), (my, hx, -1.0), (mx, hy, 1.0), (mx, hy, -1.0)]
            ):
                G[5 * i + k, [col, fz]] = sign, -half
            G[5 * i + 4, fz] = -1.0
            load = rng.uniform(50.0, 500.0)
            feasible[f] = rng.normal(0.0, 30.0), rng.normal(0.0, 30.0), load
            feasible[m] = (
                rng.uniform(-hy, hy) * load,
                rng.uniform(-hx, hx) * load,
                rng.normal(0.0, 5.0),
            )
        null = scipy_linalg.null_space(E)
        w0 = feasible + null @ rng.normal(0.0, push, null.shape[1])
        w = _sole_limited_split(w0, centers, halves)
        scale = np.abs(w0).max()
        assert np.all(np.abs(E @ (w - w0)) <= 1e-9 * scale)
        assert np.all(G @ w <= 1e-12 * scale)
        active = G @ w >= -1e-9 * scale
        residual = _cone_residual(-null.T @ G[active].T, null.T @ (w - w0))
        assert residual <= 1e-9 * max(1.0, np.linalg.norm(w - w0))


class TestStepStabilizer:
    def test_nominal_tracking_reproduces_desired(self):
        contacts = hands(fx=-50.0)
        desired = standing_sample(contacts)
        out = stabilize(
            Stabilizer(PARAMS, StabilizerGains(), DT),
            desired,
            desired.com_pos.copy(),
            np.zeros(2),
            contacts,
        )
        assert np.all(np.array(out.zmp) == desired.zmp)
        assert np.all(np.array(out.acc) == desired.com_acc)
        assert np.all(np.array(out.dcm_err) == 0.0)
        assert not out.saturated and not out.cop_clamped
        # realized pressure point is the desired ZMP
        w = out.wrench
        cop = np.array(wrench_zmp(*w.force, *w.moment[:2]))
        assert np.allclose(cop, desired.zmp, atol=1e-12)

    def test_wrench_recombination_under_disturbance(self):
        rng = np.random.default_rng(13)
        desired = standing_sample(hands(fx=-50.0))
        gains = StabilizerGains()
        for _ in range(20):
            out = stabilize(
                Stabilizer(PARAMS, gains, DT),
                desired,
                desired.com_pos + 0.01 * rng.standard_normal(2),
                0.02 * rng.standard_normal(2),
                hands(fx=-50.0 + 10.0 * rng.standard_normal()),
            )
            net = out.wrench
            left_wrench, right_wrench = distribute_wrench(
                net, LEFT, RIGHT, PARAMS.zmp_height
            )
            net_f = left_wrench.force + right_wrench.force
            net_m = (
                left_wrench.moment
                + right_wrench.moment
                + np.cross([0.0, -0.1, 0.0], left_wrench.force)
                + np.cross([0.0, 0.1, 0.0], right_wrench.force)
            )
            assert np.allclose(net_f, net.force, atol=1e-12)
            assert np.allclose(net_m, net.moment, atol=1e-9)
            for wrench, rect in ((left_wrench, LEFT), (right_wrench, RIGHT)):
                fz = wrench.force[2]
                assert fz >= -1e-9
                if fz > 1e-9:
                    center = np.array(
                        [0.5 * (rect.xmin + rect.xmax), 0.5 * (rect.ymin + rect.ymax)]
                    )
                    cop = center + np.array(
                        [-wrench.moment[1] / fz, wrench.moment[0] / fz]
                    )
                    assert np.abs(rect.clamp(cop) - cop).max() <= 1e-9

    def test_command_zmp_saturates_to_hull(self):
        desired = standing_sample()
        out = stabilize(
            Stabilizer(PARAMS, StabilizerGains(), DT),
            desired,
            desired.com_pos + np.array([0.4, 0.0]),
            np.zeros(2),
            (),
        )
        command_zmp = np.array(out.zmp)
        assert out.saturated
        assert command_zmp[0] == pytest.approx(0.11, abs=1e-12)
        kappa = desired.coefficients.kappa
        expected_acc = desired.com_acc - OMEGA**2 * kappa * (
            command_zmp - desired.zmp
        )
        assert np.allclose(np.array(out.acc), expected_acc, atol=1e-12)
        # with the contacts as planned the ground wrench's pressure point is
        # the saturated command, on the hull's edge: the feet can realize it
        assert out.cop == out.zmp
        assert not out.cop_clamped
        w = out.wrench
        cop = np.array(wrench_zmp(*w.force, *w.moment[:2]))
        assert cop[0] <= 0.11 + 1e-12

    def test_ablation_keeps_bands_zero(self):
        desired = standing_sample(hands(fx=-50.0))
        stab = Stabilizer(PARAMS, StabilizerGains(), DT, compensate_forces=False)
        out = stabilize(
            stab, desired, desired.com_pos.copy(), np.zeros(2), hands(fx=-90.0)
        )
        gamma_low, gamma_high, _ = pairs(out.bands)
        assert np.all(gamma_low == 0.0)
        assert np.all(gamma_high == 0.0)
        assert out.gamma_err[0] != 0.0

    def test_single_support_frame(self):
        coeff = compute_coefficients(PARAMS, ())
        com = np.array([0.0, -0.1])
        desired = planned(com, np.zeros(2), com.copy(), com.copy(), coeff)
        out = stabilize(
            Stabilizer(PARAMS, StabilizerGains(), DT),
            desired,
            com.copy(),
            np.zeros(2),
            (),
            region=(LEFT,),
        )
        left_wrench, right_wrench = distribute_wrench(
            out.wrench, LEFT, None, PARAMS.zmp_height
        )
        assert np.all(right_wrench.force == 0.0)
        assert np.allclose(left_wrench.force, [0, 0, 981.0], atol=1e-12)
        assert np.allclose(left_wrench.moment, 0.0, atol=1e-12)


def _segment_distance(p, a, b):
    e = b - a
    t = min(max(float((p - a) @ e) / float(e @ e), 0.0), 1.0)
    return float(np.hypot(*(p - (a + t * e))))


_SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0)


@st.composite
def hulls(draw):
    """A support hull of n, 2 or 1 vertices, as an array of its vertices."""
    kind = draw(st.sampled_from(["n", "2", "1"]))
    if kind == "n":
        centers = draw(st.lists(st.tuples(_unit, _unit), min_size=1, max_size=2))
        return support_hull(
            [SoleRect.centered((0.2 * x, 0.2 * y), 0.11, 0.05) for x, y in centers]
        )
    a = (draw(_unit), draw(_unit))
    if kind == "1":
        return np.array([a])
    b = draw(st.tuples(_unit, _unit).filter(lambda p: p != a))
    return np.array(sorted([a, b]))


@st.composite
def hull_points(draw, hull):
    """Points of the hull's vertices and edges, about it, and with NaN,
    +-inf, -0.0 or 0.0 coordinates."""
    verts = hull.tolist()
    i = draw(st.integers(0, len(verts) - 1))
    (ax, ay), (bx, by) = verts[i], verts[(i + 1) % len(verts)]
    t = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0))
    on_edge = (ax + t * (bx - ax), ay + t * (by - ay))
    near = st.floats(-0.6, 0.6)
    special = st.sampled_from(_SPECIAL)
    return draw(
        st.sampled_from([tuple(v) for v in verts])
        | st.just(on_edge)
        | st.tuples(near, near)
        | st.tuples(special, near | special)
        | st.tuples(near, special)
    )


def _sole(cx, cy):
    return SoleRect.centered((cx, cy), 0.11, 0.05)


@st.composite
def sole_hulls(draw):
    """The support hull of one sole, or of two in double support: side by
    side, staggered (two oblique edges), toe to heel (in line or offset
    sideways), or of a sole with two sides on the axes x = 0 and y = 0,
    where an edge's product underflows one ULP off its line."""
    kind = draw(st.sampled_from(["one", "side", "staggered", "toe_to_heel", "on_axes"]))
    x, y = draw(_unit), draw(_unit)
    if kind == "one":
        rects = (_sole(x, y),)
    elif kind == "side":
        rects = (_sole(x, y + 0.1), _sole(x, y - 0.1))
    elif kind == "staggered":
        dx = draw(st.floats(0.01, 0.3)) * draw(st.sampled_from([-1.0, 1.0]))
        rects = (_sole(x + dx, y + 0.1), _sole(x, y - 0.1))
    elif kind == "toe_to_heel":
        dy = draw(st.just(0.0) | st.floats(-0.05, 0.05))
        rects = (_sole(x + 0.22, y + dy), _sole(x, y))
    else:
        sign = draw(st.sampled_from([-1.0, 1.0]))
        rects = (SoleRect(*sorted((0.0, 0.22 * sign)), *sorted((0.0, 0.1 * sign))),)
    return support_hull(rects)


def _ulps(v: float, k: int) -> float:
    """v moved k ULPs up (k > 0) or down."""
    for _ in range(abs(k)):
        v = math.nextafter(v, math.copysign(math.inf, k))
    return v


@st.composite
def edge_points(draw, hull):
    """Points on an edge or corner of the hull, each coordinate moved 0 or
    one ULP either way; points far from it; and points with NaN, +-inf or
    +-0.0 coordinates."""
    verts = hull.tolist()
    i = draw(st.integers(0, len(verts) - 1))
    (ax, ay), (bx, by) = verts[i], verts[(i + 1) % len(verts)]
    t = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    off = st.sampled_from([-1, 0, 1])
    near = (
        _ulps(ax + t * (bx - ax), draw(off)),
        _ulps(ay + t * (by - ay), draw(off)),
    )
    far = st.floats(-1e300, 1e300) | st.sampled_from([-10.0, 10.0, 1e-300, -1e-300])
    special = st.sampled_from(_SPECIAL)
    return draw(
        st.just(near)
        | st.tuples(far, far)
        | st.tuples(special, far | special | st.just(near[1]))
        | st.tuples(far | st.just(near[0]), special)
    )


@st.composite
def wrench_blocks(draw):
    """A block of samples over 1 to 3 support phases: phase indices, their
    hulls, the command ZMP, the planned kappa and the force error (NaN and
    +-inf among them) and measured contacts that leave the feet loaded."""
    m = draw(st.integers(1, 24))
    phase_hulls = draw(st.lists(hulls(), min_size=1, max_size=3))
    phase = draw(
        st.lists(st.integers(0, len(phase_hulls) - 1), min_size=m, max_size=m)
    )
    samples = []
    for k in range(m):
        zx, zy = draw(hull_points(phase_hulls[phase[k]]))
        kappa = draw(st.floats(DEGENERATE_KAPPA, 2.0))
        ex = draw(st.floats(-0.2, 0.2) | st.sampled_from(_SPECIAL))
        ey = draw(st.floats(-0.2, 0.2))
        samples.append((zx, zy, kappa, ex, ey))
    contacts = draw(st.integers(0, 2))
    value = st.floats(-100.0, 100.0)
    rows = tuple(
        tuple(np.array(draw(st.lists(value, min_size=m, max_size=m))) for _ in range(9))
        for _ in range(contacts)
    )
    return np.array(phase), [compile_hull(h) for h in phase_hulls], np.array(samples).T, rows


def block_fz(rows, m):
    """The measured vertical force net_foot_force leaves the feet, over a
    block of m samples."""
    return np.broadcast_to(net_foot_force(PARAMS, 0.0, 0.0, 0.0, rows)[2], m)


class TestGroundWrenchFlags:
    """The block form of the cop_clamped flag against per-sample float calls,
    bit for bit."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_clamped_is_clamp_xy(self, data):
        """NaN points and points one ULP off an edge included."""
        hull = data.draw(sole_hulls() | hulls())
        points = data.draw(
            st.lists(hull_points(hull) | edge_points(hull), min_size=1, max_size=30)
        )
        compiled = compile_hull(hull)
        px, py = np.array(points).T
        flags = _clamped(px, py, compiled)
        expected = []
        for x, y in points:
            qx, qy = _clamp_xy(x, y, compiled)
            expected.append(qx != x or qy != y)
        assert flags.tolist() == expected

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(wrench_blocks())
    def test_block_flags_are_the_float_calls(self, block):
        phase, hulls, samples, rows = block
        stab = Stabilizer(PARAMS, StabilizerGains(), DT)
        flags = stab.ground_wrench(*samples, block_fz(rows, len(phase)), hulls, phase)
        for k in range(len(phase)):
            sample = tuple(tuple(v[k].item() for v in r) for r in rows)
            flag = cop_moved(
                PARAMS, *(float(v[k]) for v in samples), sample, hulls[phase[k]]
            )
            assert bool(flags[k]) is flag, k

    @pytest.mark.parametrize(
        "share, error",
        [(0.5, NonPhysical), (0.6, Infeasible), (math.nan, NonPhysical)],
    )
    def test_unloaded_feet_raise_on_arrays_too(self, share, error):
        fz = share * PARAMS.mass * PARAMS.gravity
        lift = (0.0, 0.0, fz, 0.0, 0.0, 0.0, 0.3, 0.0, 1.0)
        rows = (lift, lift)
        stab = Stabilizer(PARAMS, StabilizerGains(), DT)
        hulls = (compile_hull(support_hull((LEFT, RIGHT))),)
        with pytest.raises(error):
            cop_moved(PARAMS, 0.0, 0.0, 1.0, 0.0, 0.0, rows, hulls[0])
        block = tuple(tuple(np.full(3, v) for v in r) for r in rows)
        zeros = np.zeros(3)
        with pytest.raises(error):
            stab.ground_wrench(
                zeros, zeros, np.ones(3), zeros, zeros, block_fz(block, 3), hulls,
                np.zeros(3, int),
            )


@st.composite
def planned_contacts(draw):
    """Up to three hand contacts whose vertical forces leave a planned kappa
    in [DEGENERATE_KAPPA, 2], as contact_rows, and that kappa's lower
    bound k_min."""
    k_min = draw(st.sampled_from([DEGENERATE_KAPPA, 0.5, 1.0]))
    n = draw(st.integers(0, 3))
    fz = draw(
        st.lists(st.floats(-ZETA / 3.0, (1.0 - k_min) * ZETA / 3.0), min_size=n, max_size=n)
    )
    value = st.floats(-200.0, 200.0)
    return tuple(
        (draw(value), draw(value), f, draw(value), draw(value), draw(value),
         draw(value), draw(value), draw(st.floats(0.0, 1.5)))
        for f in fz
    ), k_min


class TestGroundPressurePoint:
    """The pressure point of the ground-wrench stage, where the contacts are
    as planned."""

    # |p - z| <= (3 + 4 (n + 1) / kappa) ULPs of z: the product, quotient
    # and sum of the stage add 3 roundings, and zeta kappa and the measured
    # fz = zeta - sum f_z each differ from their exact common value by
    # about (n + 1) roundings of zeta, which is zeta / kappa times fz
    @staticmethod
    def ulps(kappa, n):
        return 3.0 + 4.0 * (n + 1) / kappa

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(planned_contacts(), st.lists(st.tuples(_unit, _unit), min_size=1, max_size=16))
    def test_pressure_point_is_the_command_zmp(self, contacts, zmp):
        """Measured contacts equal to the planned ones: gamma_err is 0 and
        the pressure point is the command ZMP to the stated ULPs."""
        rows, k_min = contacts
        *_, kappa, gx, gy = contact_terms(rows, ZETA, PARAMS.zmp_height)
        assert k_min <= kappa or math.isclose(kappa, k_min, abs_tol=1e-12)
        m = len(zmp)
        block = tuple(tuple(np.full(m, v) for v in r) for r in rows)
        *_, bgx, bgy = contact_terms(block, ZETA, PARAMS.zmp_height)
        ex, ey, _ = Stabilizer(PARAMS, StabilizerGains(), DT).measure_forces(
            bgx, bgy, np.tile((gx, gy), (m, 1)), m, ZEROS
        )
        assert not np.any(ex) and not np.any(ey)
        zx, zy = np.array(zmp).T
        # the pressure point as Stabilizer.ground_wrench takes it
        point = wrench_zmp(
            0.0, 0.0, block_fz(block, m), ZETA * (kappa * zy + ey),
            -(ZETA * (kappa * zx + ex)), PARAMS.zmp_height,
        )
        tol = self.ulps(kappa, len(rows))
        for p, z in zip(point, (zx, zy)):
            assert np.all(np.abs(p - z) <= tol * np.spacing(np.abs(z))), (p - z, z)

    @pytest.mark.parametrize(
        "name, overrides",
        [
            ("testcase1", ("controller.k_p=4",)),
            ("nominal", ()),
            ("testcase2", ()),
        ],
    )
    def test_flag_implies_saturation_with_contacts_as_planned(self, name, overrides):
        """No disturbance, no noise, kappa as planned: the flag comes only
        from a saturated command on the hull's edge, and on these runs not
        even from that. testcase1 with k_p=4 saturates 838 steps."""
        raw = apply_overrides(load_raw_config(bundled_scenario_path(name)), list(overrides))
        bundle = build_scenario(parse_config(raw))
        cfg = bundle.config
        assert not bundle.disturbances and not cfg.ablation.force_kappa_one
        assert cfg.plant.force_noise_n == 0.0 and cfg.plant.com_noise_m == 0.0
        trace = run_closed_loop(
            bundle.traj, bundle.stabilizer, direct_zmp=cfg.plant.direct_zmp,
            divergence_limit=cfg.plant.divergence_limit_m,
        )
        flags = trace.extra
        assert not np.any(flags["cop_clamped"] & ~flags["zmp_saturated"])
        assert flags["cop_clamped"].sum() == 0
        if overrides:
            assert flags["zmp_saturated"].sum() == 838


class TestCompiledHull:
    """The compiled inside test (box bounds and oblique edges) against the
    edge loop it replaced, bit for bit."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_clamp_is_the_edge_loop(self, data):
        hull = data.draw(sole_hulls() | hulls())
        compiled, edges = compile_hull(hull), hull_edges(hull)
        for x, y in data.draw(st.lists(edge_points(hull), min_size=1, max_size=20)):
            got = _clamp_xy(x, y, compiled)
            want = clamp_xy_edge_loop(x, y, edges)
            assert [v.hex() for v in got] == [v.hex() for v in want], (x, y)

    def test_special_points_on_every_hull_kind(self):
        """Every pair of NaN, +-inf, +-0.0, huge and hull coordinates, each
        also one ULP either way, on each kind of hull: the scalar clamp is
        the edge loop's and the array flags are the scalar ones."""
        for rects, _ in self.SOLE_HULLS:
            hull = support_hull(rects)
            compiled, edges = compile_hull(hull), hull_edges(hull)
            coords = {*_SPECIAL, 1e300, -1e300, *hull.ravel().tolist()}
            coords |= {_ulps(v, k) for v in coords for k in (-1, 1)}
            px, py = (np.array(a) for a in zip(*itertools.product(coords, repeat=2)))
            expected = []
            for x, y in zip(px.tolist(), py.tolist()):
                got = _clamp_xy(x, y, compiled)
                want = clamp_xy_edge_loop(x, y, edges)
                assert [v.hex() for v in got] == [v.hex() for v in want], (x, y)
                expected.append(want[0] != x or want[1] != y)
            assert _clamped(px, py, compiled).tolist() == expected

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_projection_stays_within_reach(self, data):
        """Every point _clamp_xy moves a point to, where not NaN, lies in the
        hull's reach, so _clamped may flag a point beyond it as moved
        without projecting it."""
        hull = data.draw(sole_hulls() | hulls())
        compiled = compile_hull(hull)
        xmin, xmax, ymin, ymax = compiled.reach
        for x, y in data.draw(st.lists(edge_points(hull), min_size=1, max_size=20)):
            qx, qy = _clamp_xy(x, y, compiled)
            if (qx != x or qy != y) and not (math.isnan(qx) or math.isnan(qy)):
                assert not (qx < xmin or qx > xmax or qy < ymin or qy > ymax), (x, y)

    SOLE_HULLS = (
        ((LEFT,), 0),
        ((LEFT, RIGHT), 0),
        ((_sole(0.15, 0.1), _sole(0.0, -0.1)), 2),
        ((_sole(0.22, 0.0), _sole(0.0, 0.0)), 0),
        ((_sole(0.22, 0.02), _sole(0.0, 0.0)), 2),
    )

    @pytest.mark.parametrize(
        "rects, oblique",
        SOLE_HULLS,
        ids=["one", "side", "staggered", "toe_to_heel", "toe_to_heel_offset"],
    )
    def test_sole_hulls_get_a_full_box(self, rects, oblique):
        hull = support_hull(rects)
        compiled = compile_hull(hull)
        assert compiled.box == (
            float(hull[:, 0].min()), float(hull[:, 0].max()),
            float(hull[:, 1].min()), float(hull[:, 1].max()),
        )
        assert len(compiled.oblique) == oblique
        assert compiled.edges == hull_edges(hull)

    def test_edges_whose_test_underflows_stay_oblique(self):
        """On the line y = 0 a point one ULP below is -5e-324, and 0.22 * that
        rounds to -0.0: the edge's own test keeps it inside, so the edge
        cannot become the bound ymin = 0 (nor x = 0 the bound xmin)."""
        compiled = compile_hull(support_hull((SoleRect(0.0, 0.22, 0.0, 0.1),)))
        assert compiled.box == (-math.inf, 0.22, -math.inf, 0.1)
        assert len(compiled.oblique) == 2
        below = math.nextafter(0.0, -math.inf)
        assert _clamp_xy(0.1, below, compiled) == (0.1, below)

    def test_degenerate_hulls_have_no_box(self):
        for hull in (np.array([[0.2, -0.1]]), np.array([[0.0, -0.1], [0.2, 0.1]])):
            compiled = compile_hull(hull)
            assert compiled.box is None and compiled.oblique == ()
            assert compiled.edges == hull_edges(hull)


class TestClampToHull:
    # double support with the left foot ahead: a hexagon with oblique edges
    HULL = support_hull(
        (
            SoleRect.centered((0.15, 0.1), 0.11, 0.05),
            SoleRect.centered((0.0, -0.1), 0.11, 0.05),
        )
    )

    def test_hull_has_oblique_edges(self):
        edges = np.roll(self.HULL, -1, axis=0) - self.HULL
        assert len(self.HULL) == 6
        assert np.any((edges[:, 0] != 0.0) & (edges[:, 1] != 0.0))

    def test_inside_point_comes_back_bit_equal(self):
        rng = np.random.default_rng(21)
        lo, hi = self.HULL.min(axis=0), self.HULL.max(axis=0)
        kept = 0
        for _ in range(500):
            p = rng.uniform(lo, hi)
            out = _clamp_to_hull(p, self.HULL)
            inside = all(
                (b - a)[0] * (p - a)[1] - (b - a)[1] * (p - a)[0] > 0.0
                for a, b in zip(self.HULL, np.roll(self.HULL, -1, axis=0))
            )
            if inside:
                kept += 1
                assert out.tobytes() == p.tobytes()
                assert out is not p
        assert kept > 100

    def test_outside_point_lands_on_nearest_boundary_point(self):
        rng = np.random.default_rng(22)
        ring = np.vstack([self.HULL, self.HULL[:1]])
        samples = np.vstack(
            [
                a + np.linspace(0.0, 1.0, 400)[:, None] * (b - a)
                for a, b in zip(ring[:-1], ring[1:])
            ]
        )
        # every hull vertex lies within 0.24 m of (0.075, 0)
        for _ in range(200):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            p = np.array([0.075, 0.0]) + rng.uniform(0.25, 0.6) * np.array(
                [math.cos(angle), math.sin(angle)]
            )
            out = _clamp_to_hull(p, self.HULL)
            on_edge = min(
                _segment_distance(out, a, b) for a, b in zip(ring[:-1], ring[1:])
            )
            assert on_edge < 1e-12
            dist = float(np.hypot(*(p - out)))
            nearest_sample = float(np.min(np.hypot(*(samples - p).T)))
            assert dist <= nearest_sample + 1e-12

    def test_single_vertex_hull(self):
        hull = np.array([[0.2, -0.1]])
        for p in ([0.2, -0.1], [1.0, 3.0], [-0.4, 0.0]):
            out = _clamp_to_hull(np.array(p), hull)
            assert out.tolist() == [0.2, -0.1]

    def test_two_vertex_hull_is_a_segment(self):
        a, b = np.array([0.0, -0.1]), np.array([0.2, 0.1])
        hull = np.array([a, b])
        # beyond either end: the end point; beside the middle: the foot point
        assert _clamp_to_hull(np.array([-0.3, -0.2]), hull).tolist() == a.tolist()
        assert _clamp_to_hull(np.array([0.5, 0.3]), hull).tolist() == b.tolist()
        out = _clamp_to_hull(np.array([0.0, 0.1]), hull)
        assert np.allclose(out, [0.1, 0.0], atol=1e-15)
        # a point on the segment is no inside point of a 2-vertex hull, but
        # its projection is itself
        assert np.allclose(_clamp_to_hull(np.array([0.1, 0.0]), hull), [0.1, 0.0])

    def test_overflowing_and_nan_points_still_give_a_point(self):
        # squared distances overflow to inf: a point of the hull comes back
        out = _clamp_to_hull(np.array([1e200, -1e200]), self.HULL)
        assert np.isfinite(out).all()
        assert min(np.hypot(*(self.HULL - out).T)) < 0.3
        # a NaN coordinate passes through, for the plant to report
        for p in ([math.nan, 0.0], [0.0, math.nan], [1e200, math.nan]):
            assert np.isnan(_clamp_to_hull(np.array(p), self.HULL)).any()


class TestSupportHullMemo:
    def test_reused_stabilizer_sees_every_fresh_region(self):
        """A hull cached by the region's id() went stale once ids were reused."""
        stab = Stabilizer(PARAMS, StabilizerGains(), DT)
        coeff = compute_coefficients(PARAMS, ())
        wrong = 0
        for i in range(200):
            rect = SoleRect.centered((0.01 * i, 0.0), 0.1, 0.05)
            com = np.array([0.01 * i, 0.0])
            desired = planned(com, np.zeros(2), com.copy(), com.copy(), coeff)
            # CoM half a meter ahead: the command saturates at the front edge
            out = stabilize(
                stab,
                desired,
                com + np.array([0.5, 0.0]),
                np.zeros(2),
                (),
                region=(rect,),
            )
            assert out.saturated
            if out.zmp[0] != rect.xmax:
                wrong += 1
        assert wrong == 0


class TestConvexHull:
    """_convex_hull against the np.unique(axis=0) form it replaced, byte for byte."""

    @staticmethod
    def assert_same(points):
        points = np.array(points, dtype=float)
        got, want = _convex_hull(points), convex_hull_np_unique(points)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        return got

    @pytest.mark.parametrize(
        "points",
        [
            # two soles side by side share the corners of their common edge
            [[0, 0], [1, 0], [1, 1], [0, 1], [1, 0], [2, 0], [2, 1], [1, 1]],
            [[0.2, -0.1], [0.2, -0.1], [0.2, -0.1]],
            [[0.2, -0.1]],
            [[0.0, -0.1], [0.2, 0.1]],
            [[0.2, 0.1], [0.0, -0.1], [0.2, 0.1]],
            # collinear corners: a segment
            [[0.0, 0.0], [0.1, 0.1], [0.2, 0.2], [0.1, 0.1]],
        ],
        ids=["shared-edge", "one-corner-thrice", "one-point", "two-points",
             "two-points-repeated", "collinear"],
    )
    def test_equals_the_np_unique_form(self, points):
        self.assert_same(points)

    @pytest.mark.parametrize("first, second", [(-0.0, 0.0), (0.0, -0.0)])
    def test_of_two_signed_zeros_the_first_seen_is_kept(self, first, second):
        square = [[first, second], [0.1, 0.0], [0.1, 0.1], [0.0, 0.1], [second, first]]
        hull = self.assert_same(square)
        corner = hull[(hull == 0.0).all(axis=1)]
        assert len(corner) == 1
        assert [math.copysign(1.0, v) for v in corner[0]] == [
            math.copysign(1.0, first),
            math.copysign(1.0, second),
        ]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.tuples(*[st.sampled_from([-0.1, -0.0, 0.0, 0.05, 0.1, 0.2])] * 2),
            min_size=1,
            max_size=12,
        )
    )
    @example([(0.0, 0.0), (-0.0, -0.0), (0.1, 0.0), (0.1, -0.0)])
    def test_random_corner_sets(self, points):
        self.assert_same(points)


_SHORT_RUN = """
import sys
from locomanip import cli
code = cli.main(["run", "--config", "testcase1", "--override", "duration_s=1.0",
                 "--out", sys.argv[1]])
print(code, "numpy.ma" in sys.modules)
"""


def test_a_run_does_not_import_numpy_ma(tmp_path):
    """np.unique(axis=0) loaded numpy.ma, 1.6 MB, on the first run of a process."""
    env = dict(os.environ)
    src = str(Path(locomanip.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", _SHORT_RUN, str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-2:] == ["0", "False"]
