"""Unit tests for the DCM stabilizer and foot wrench distribution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locomanip.core_dynamics import (
    ExternalContact,
    RobotParams,
    compute_coefficients,
    net_foot_wrench,
    wrench_zmp,
)
from locomanip.errors import DegenerateScale, Infeasible
from locomanip.reference_builder import SoleRect
from locomanip.stabilizer import (
    ActualSample,
    DesiredSample,
    Stabilizer,
    StabilizerGains,
    StabilizerState,
    Wrench,
    _clamp_to_hull,
    conventional_closed_loop_matrix,
    dcm_feedback,
    distribute_wrench,
    measure_gamma_error,
    scaled_closed_loop_matrix,
    split_frequency,
    support_hull,
)

PARAMS = RobotParams(mass=100.0)
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
        com = coeff.kappa * zmp - coeff.gamma
    com = np.asarray(com, dtype=float)
    acc = coeff.omega**2 * (com - coeff.kappa * zmp + coeff.gamma)
    return DesiredSample(
        com_pos=com,
        com_acc=acc,
        dcm=com.copy(),
        zmp=zmp,
        coefficients=coeff,
        contacts=tuple(contacts),
        support_region=(LEFT, RIGHT),
        support_feet=("left", "right"),
    )


class TestGammaError:
    def test_matching_contacts_cancel(self):
        con = hands(fx=-50.0)
        err = measure_gamma_error(con, con, PARAMS)
        assert np.all(err == 0.0)

    def test_hand_force_shortfall(self):
        # 30 N extra backward force per hand at 1 m: 2*(-30)*1.0/981
        desired = hands(fx=-50.0)
        actual = hands(fx=-80.0)
        err = measure_gamma_error(desired, actual, PARAMS)
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
        err = measure_gamma_error(desired, actual, PARAMS)
        assert np.allclose(err, 0.0, atol=1e-15)

    def test_different_list_lengths(self):
        desired = hands(fx=-50.0)
        actual = ()
        err = measure_gamma_error(desired, actual, PARAMS)
        assert err[0] == pytest.approx(2.0 * 50.0 / 981.0, rel=1e-12)


class TestSplitFrequency:
    def test_constant_input_converges_to_low_band(self):
        state = StabilizerState()
        gam = np.array([0.04, -0.02])
        for _ in range(int(10.0 / DT)):
            low, high, rate = split_frequency(state, gam, DT, 1.0)
        assert np.allclose(low, gam, atol=1e-12)
        assert np.allclose(high, 0.0, atol=1e-12)
        assert np.allclose(rate, 0.0, atol=1e-9)

    def test_step_lands_in_high_band_first(self):
        state = StabilizerState()
        gam = np.array([0.05, 0.0])
        low, high, _ = split_frequency(state, gam, DT, 1.0)
        assert high[0] > 0.9 * gam[0]
        assert abs(low[0]) < 0.1 * gam[0]

    def test_split_is_exact_every_step(self):
        rng = np.random.default_rng(7)
        state = StabilizerState()
        gam = np.zeros(2)
        for _ in range(500):
            gam = gam + 0.001 * rng.standard_normal(2)
            low, high, _ = split_frequency(state, gam, DT, 1.0)
            assert np.allclose(low + high, gam, rtol=0.0, atol=1e-12)

    def test_sinusoid_matches_analytic_high_pass(self):
        """2 s period against a 1.0 s cutoff: first-order high-pass magnitude."""
        cutoff = 1.0
        period = 2.0
        tau = cutoff / (2.0 * math.pi)
        w = 2.0 * math.pi / period
        expected = w * tau / math.sqrt(1.0 + (w * tau) ** 2)
        state = StabilizerState()
        amp = 0.03
        n = int(10.0 * period / DT)
        peak = 0.0
        for k in range(n):
            t = k * DT
            gam = np.array([amp * math.sin(w * t), 0.0])
            _, high, _ = split_frequency(state, gam, DT, cutoff)
            if t > 8.0 * period:
                peak = max(peak, abs(high[0]))
        assert peak / amp == pytest.approx(expected, rel=0.05)


class TestDcmFeedback:
    def test_zero_error_passthrough(self):
        desired = standing_sample(hands(fx=-50.0))
        state = StabilizerState()
        z_c, acc_c, _, com_shift, err = dcm_feedback(
            desired, desired.dcm, state, StabilizerGains(), DT
        )
        assert np.all(z_c == desired.zmp)
        assert np.all(acc_c == desired.com_acc)
        assert np.all(com_shift == desired.com_pos)
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
        state = StabilizerState()
        e = np.array([0.01, -0.004])
        z_c, acc_c, _, _, _ = dcm_feedback(
            desired, desired.dcm + e, state, StabilizerGains(), DT
        )
        assert np.allclose(z_c - desired.zmp, 2.5 * e, atol=1e-15)
        assert np.allclose(
            acc_c - desired.com_acc, -(OMEGA**2) * 1.25 * e, atol=1e-12
        )

    def test_low_band_shifts_com_not_zmp(self):
        desired = standing_sample()
        state = StabilizerState()
        state.gamma_low = np.array([-0.03, 0.0])
        # actual DCM tracks the shifted reference: no residual feedback
        z_c, acc_c, _, com_shift, err = dcm_feedback(
            desired, desired.dcm - state.gamma_low, state, StabilizerGains(), DT
        )
        assert np.all(com_shift == desired.com_pos - state.gamma_low)
        assert np.allclose(err, 0.0, atol=1e-15)
        assert np.allclose(z_c, desired.zmp, atol=1e-15)
        assert np.allclose(acc_c, desired.com_acc, atol=1e-12)

    def test_high_band_feeds_zmp_forward(self):
        desired = standing_sample()
        kappa = desired.coefficients.kappa
        state = StabilizerState()
        state.gamma_high = np.array([0.02, 0.0])
        z_c, acc_c, _, _, _ = dcm_feedback(
            desired, desired.dcm, state, StabilizerGains(), DT
        )
        assert np.allclose(z_c - desired.zmp, state.gamma_high / kappa, atol=1e-15)
        assert np.allclose(
            acc_c - desired.com_acc, -(OMEGA**2) * state.gamma_high, atol=1e-12
        )

    def test_degenerate_kappa_rejected(self):
        contacts = (
            ExternalContact(
                force=(0, 0, 0.97 * 981.0), moment=(0, 0, 0), position=(0, 0, 1.2)
            ),
        )
        desired = standing_sample(contacts, com=np.zeros(2))
        state = StabilizerState()
        with pytest.raises(DegenerateScale):
            dcm_feedback(desired, desired.dcm, state, StabilizerGains(), DT)

    def test_integrator_clamps(self):
        desired = standing_sample()
        gains = StabilizerGains(k_i=0.5, integrator_limit=0.01)
        state = StabilizerState()
        e = np.array([0.05, -0.05])
        for _ in range(2000):
            dcm_feedback(desired, desired.dcm + e, state, gains, DT)
        assert np.all(np.abs(state.dcm_error_integral) <= 0.01 + 1e-15)


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
    def test_split_recombines_to_net_wrench(self, case):
        """Foot wrenches sum back to the net force, and to its moment once
        each foot's moment is carried back from its sole centre."""
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


class TestStepStabilizer:
    def test_nominal_tracking_reproduces_desired(self):
        contacts = hands(fx=-50.0)
        desired = standing_sample(contacts)
        actual = ActualSample(
            com_pos=desired.com_pos.copy(),
            com_vel=np.zeros(2),
            contacts=contacts,
        )
        out = Stabilizer(PARAMS, StabilizerGains(), DT).step(desired, actual)
        assert np.all(out.command_zmp == desired.zmp)
        assert np.all(out.command_com_accel == desired.com_acc)
        assert np.all(out.dcm_err == 0.0)
        assert not out.zmp_saturated and not out.cop_clamped
        # realized pressure point is the desired ZMP
        cop = wrench_zmp(out.net_wrench.force, out.net_wrench.moment)
        assert np.allclose(cop, desired.zmp, atol=1e-12)

    def test_wrench_recombination_under_disturbance(self):
        rng = np.random.default_rng(13)
        desired = standing_sample(hands(fx=-50.0))
        gains = StabilizerGains()
        for _ in range(20):
            actual = ActualSample(
                com_pos=desired.com_pos + 0.01 * rng.standard_normal(2),
                com_vel=0.02 * rng.standard_normal(2),
                contacts=hands(fx=-50.0 + 10.0 * rng.standard_normal()),
            )
            out = Stabilizer(PARAMS, gains, DT).step(desired, actual)
            net_f = out.left_wrench.force + out.right_wrench.force
            net_m = (
                out.left_wrench.moment
                + out.right_wrench.moment
                + np.cross([0.0, -0.1, 0.0], out.left_wrench.force)
                + np.cross([0.0, 0.1, 0.0], out.right_wrench.force)
            )
            assert np.allclose(net_f, out.net_wrench.force, atol=1e-12)
            assert np.allclose(net_m, out.net_wrench.moment, atol=1e-9)
            for wrench, rect in ((out.left_wrench, LEFT), (out.right_wrench, RIGHT)):
                fz = wrench.force[2]
                assert fz >= -1e-9
                if fz > 1e-9:
                    center = np.array(
                        [0.5 * (rect.xmin + rect.xmax), 0.5 * (rect.ymin + rect.ymax)]
                    )
                    cop = center + np.array(
                        [-wrench.moment[1] / fz, wrench.moment[0] / fz]
                    )
                    assert rect.contains(cop, margin=1e-9)

    def test_command_zmp_saturates_to_hull(self):
        desired = standing_sample()
        actual = ActualSample(
            com_pos=desired.com_pos + np.array([0.4, 0.0]),
            com_vel=np.zeros(2),
            contacts=(),
        )
        out = Stabilizer(PARAMS, StabilizerGains(), DT).step(desired, actual)
        assert out.zmp_saturated
        assert out.command_zmp[0] == pytest.approx(0.11, abs=1e-12)
        kappa = desired.coefficients.kappa
        expected_acc = desired.com_acc - OMEGA**2 * kappa * (
            out.command_zmp - desired.zmp
        )
        assert np.allclose(out.command_com_accel, expected_acc, atol=1e-12)
        # realizable wrench also capped: pressure point stays in the hull
        cop = wrench_zmp(out.net_wrench.force, out.net_wrench.moment)
        hull = support_hull((LEFT, RIGHT))
        assert cop[0] <= 0.11 + 1e-9

    def test_ablation_keeps_bands_zero(self):
        desired = standing_sample(hands(fx=-50.0))
        stab = Stabilizer(PARAMS, StabilizerGains(), DT, compensate_forces=False)
        actual = ActualSample(
            com_pos=desired.com_pos.copy(),
            com_vel=np.zeros(2),
            contacts=hands(fx=-90.0),
        )
        out = stab.step(desired, actual)
        assert np.all(out.gamma_low == 0.0)
        assert np.all(out.gamma_high == 0.0)
        assert out.gamma_err[0] != 0.0

    def test_single_support_frame(self):
        coeff = compute_coefficients(PARAMS, ())
        com = np.array([0.0, -0.1])
        desired = DesiredSample(
            com_pos=com,
            com_acc=np.zeros(2),
            dcm=com.copy(),
            zmp=com.copy(),
            coefficients=coeff,
            contacts=(),
            support_region=(LEFT,),
            support_feet=("left",),
        )
        actual = ActualSample(com_pos=com.copy(), com_vel=np.zeros(2), contacts=())
        out = Stabilizer(PARAMS, StabilizerGains(), DT).step(desired, actual)
        assert np.all(out.right_wrench.force == 0.0)
        assert np.allclose(out.left_wrench.force, [0, 0, 981.0], atol=1e-12)
        assert np.allclose(out.left_wrench.moment, 0.0, atol=1e-12)


def _segment_distance(p, a, b):
    e = b - a
    t = min(max(float((p - a) @ e) / float(e @ e), 0.0), 1.0)
    return float(np.hypot(*(p - (a + t * e))))


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
    def test_equal_regions_share_one_read_only_hull(self):
        first = support_hull((LEFT, RIGHT))
        again = support_hull(
            [SoleRect(LEFT.xmin, LEFT.xmax, LEFT.ymin, LEFT.ymax), RIGHT]
        )
        assert again is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1.0

    def test_reused_stabilizer_sees_every_fresh_region(self):
        """A hull cached by the region's id() went stale once ids were reused."""
        stab = Stabilizer(PARAMS, StabilizerGains(), DT)
        coeff = compute_coefficients(PARAMS, ())
        wrong = 0
        for i in range(200):
            rect = SoleRect.centered((0.01 * i, 0.0), 0.1, 0.05)
            com = np.array([0.01 * i, 0.0])
            desired = DesiredSample(
                com_pos=com,
                com_acc=np.zeros(2),
                dcm=com.copy(),
                zmp=com.copy(),
                coefficients=coeff,
                contacts=(),
                support_region=(rect,),
                support_feet=("left",),
            )
            # CoM half a meter ahead: the command saturates at the front edge
            actual = ActualSample(
                com_pos=com + np.array([0.5, 0.0]), com_vel=np.zeros(2), contacts=()
            )
            out = stab.step(desired, actual)
            assert out.zmp_saturated
            if out.command_zmp[0] != rect.xmax:
                wrong += 1
        assert wrong == 0
