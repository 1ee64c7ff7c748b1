"""Unit tests for preview-control synthesis and trajectory generation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from _pipeline import (
    DT,
    OMEGA,
    PARAMS,
    constant_schedule,
    hand_pair,
    hand_ramp_schedule,
    inplace_timeline,
    preview_gains,
    standing_timeline,
)
from oracles import step_pg

from locomanip import pattern_generator
from locomanip.cli import main
from locomanip.core_dynamics import ExternalContact, dcm_of, lipm_accel
from locomanip.errors import DegenerateScale, RiccatiDivergence
from locomanip.pattern_generator import (
    _FF_BLOCK,
    PreviewWeights,
    _feedforward,
    discretize,
    generate_trajectory,
    initial_state,
    solve_dare_fixed_point,
    synthesize_gains,
)

# feedback gains for omega=sqrt(9.81/0.8), dt=0.002, q=1, r=1e-8,
# frozen from an independent Riccati solve
K_FB_REF = np.array([4715.60195026, 2705.42004837, 391.51776754])


class TestDiscretize:
    def test_matrix_entries(self):
        A, B, C = discretize(OMEGA, DT)
        assert A[0, 1] == DT
        assert A[0, 2] == pytest.approx(DT * DT / 2.0, rel=1e-15)
        assert A[1, 2] == DT
        assert np.all(np.diag(A) == 1.0)
        assert B[0] == pytest.approx(DT**3 / 6.0, rel=1e-15)
        assert B[1] == pytest.approx(DT * DT / 2.0, rel=1e-15)
        assert B[2] == DT
        assert C[0] == 1.0 and C[1] == 0.0
        assert C[2] == pytest.approx(-0.8 / 9.81, rel=1e-15)

    def test_rejects_bad_sampling(self):
        with pytest.raises(ValueError):
            discretize(OMEGA, 0.0)
        with pytest.raises(ValueError):
            discretize(0.0, DT)


class TestRiccati:
    def test_matches_scipy_dare(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        A, B, C = discretize(OMEGA, DT)
        q = np.outer(C, C)
        P = solve_dare_fixed_point(A, B, q, 1e-8)
        P_ref = scipy_linalg.solve_discrete_are(
            A, B.reshape(-1, 1), q, np.array([[1e-8]])
        )
        assert np.allclose(P, P_ref, rtol=1e-9, atol=1e-9)

    def test_feedback_gain_regression(self):
        gains = preview_gains()
        assert np.allclose(gains.k_fb, K_FB_REF, rtol=1e-9)


class TestDoubling:
    @pytest.mark.parametrize("dt", [0.001, 0.002, 0.005])
    @pytest.mark.parametrize("r", [1e-10, 1e-8, 1e-6])
    @pytest.mark.parametrize("q", [0.1, 1.0, 100.0])
    def test_matches_scipy_on_grid(self, q, r, dt):
        """Largest entry error relative to the largest entry of scipy's P."""
        scipy_linalg = pytest.importorskip("scipy.linalg")
        A, B, C = discretize(OMEGA, dt)
        q_state = q * np.outer(C, C)
        P = solve_dare_fixed_point(A, B, q_state, r)
        P_ref = scipy_linalg.solve_discrete_are(
            A, B.reshape(-1, 1), q_state, np.array([[r]])
        )
        assert np.max(np.abs(P - P_ref)) <= 1e-12 * np.max(np.abs(P_ref))
        assert np.all(P == P.T)

    def test_overflowing_weight_raises(self):
        with pytest.raises(RiccatiDivergence, match="non-finite"):
            synthesize_gains(PreviewWeights(q_zmp=1.0e308), OMEGA, DT, 1.6)

    def test_overflowing_weight_is_a_config_error(self, capsys):
        code = main(
            ["gains", "--config", "nominal", "--override", "controller.q_zmp=1.0e308"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and "Riccati" in err

    def test_singular_step_raises(self):
        # W = I + G H = diag(0, 1, 1) on the first step
        A = np.eye(3)
        B = np.array([1.0, 0.0, 0.0])
        with pytest.raises(RiccatiDivergence, match="singular"):
            solve_dare_fixed_point(A, B, -np.diag([1.0, 0.0, 0.0]), 1.0)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(pattern_generator, "_DARE_MAX_STEPS", 3)
        A, B, C = discretize(OMEGA, DT)
        with pytest.raises(RiccatiDivergence, match="did not settle in 3 steps"):
            solve_dare_fixed_point(A, B, np.outer(C, C), 1e-8)


class TestSynthesis:
    def test_window_sets_preview_length(self):
        gains = preview_gains()
        assert gains.n_preview == 800
        assert gains.k_ff.shape == (800,)
        assert gains.dt == DT
        assert gains.omega == OMEGA

    def test_closed_loop_is_contractive(self):
        gains = preview_gains()
        A, B, _ = discretize(OMEGA, DT)
        closed = A - np.outer(B, gains.k_fb)
        assert np.max(np.abs(np.linalg.eigvals(closed))) < 1.0

    def test_feedforward_dc_matches_feedback(self):
        # an infinitely long window would satisfy sum(k_ff) = k_fb[0]
        gains = preview_gains()
        assert np.sum(gains.k_ff) == pytest.approx(gains.k_fb[0], rel=0.01)

    def test_arrays_are_frozen(self):
        gains = preview_gains()
        with pytest.raises(ValueError):
            gains.k_fb[0] = 0.0
        with pytest.raises(ValueError):
            gains.k_ff[0] = 0.0

    def test_soft_pendulum_needs_longer_window(self):
        # at omega=2.0 one second of preview truncates too much gain mass
        with pytest.raises(ValueError, match="preview window too short"):
            synthesize_gains(PreviewWeights(), 2.0, 0.005, 1.0)
        synthesize_gains(PreviewWeights(), 2.0, 0.005, 2.0)

    def test_minimum_window_enforced(self):
        with pytest.raises(ValueError, match="window"):
            synthesize_gains(PreviewWeights(), OMEGA, DT, 0.8)

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            PreviewWeights(q_zmp=0.0)
        with pytest.raises(ValueError):
            PreviewWeights(r_jerk=-1e-9)


# window lengths: a single leaf from -0.0, one leaf of 8 lanes with
# leftover terms, and split rows
_WINDOWS = st.one_of(
    st.integers(1, 7),
    st.integers(9, 127).filter(lambda n: n % 8),
    st.integers(129, 960),
)


class TestFeedforward:
    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        npv=_WINDOWS,
        n_out=st.sampled_from([1, _FF_BLOCK - 1, _FF_BLOCK, _FF_BLOCK + 1]),
        seed=st.integers(0, 2**32 - 1),
        zero_ref=st.booleans(),
    )
    @example(npv=5, n_out=10, seed=0, zero_ref=True)
    @example(npv=99, n_out=10, seed=0, zero_ref=True)
    @example(npv=715, n_out=10, seed=0, zero_ref=True)
    def test_equals_row_sums_bit_for_bit(self, npv, n_out, seed, zero_ref):
        """_feedforward has the bits of np.sum over each window's products.

        Gains and reference take magnitudes from 1e-8 to 1e8 with random
        signs; the outputs go into a transposed (n, 2) column pair, as in
        generate_trajectory. An all-zero reference under negative gains
        makes every product -0.0, and the sum, as np.sum's, +0.0.
        """
        rng = np.random.default_rng(seed)

        def values(*shape):
            signs = rng.choice([-1.0, 1.0], size=shape)
            return signs * 10.0 ** rng.uniform(-8.0, 8.0, size=shape)

        k_ff = values(npv)
        ref = values(2, n_out + npv - 1)
        if zero_ref:
            k_ff = -np.abs(k_ff)
            ref[:] = 0.0
        out = np.empty((n_out, 2))
        _feedforward(k_ff, ref, out.T)
        sums = [[np.sum(row[k : k + npv] * k_ff) for k in range(n_out)] for row in ref]
        assert out.T.tobytes() == np.array(sums).tobytes()
        if zero_ref:
            assert not np.any(np.signbit(out))


def rollout(gains, refs, state=None):
    """Drive step_pg over a padded reference; returns outputs and jerks."""
    n = len(refs)
    npv = gains.n_preview
    padded = np.vstack([refs, np.tile(refs[-1], (npv, 1))])
    state = np.zeros((3, 2)) if state is None else state
    outputs = np.zeros((n, 2))
    jerks = np.zeros((n, 2))
    for k in range(n):
        state, jerk, out = step_pg(state, gains, padded[k + 1 : k + 1 + npv])
        outputs[k] = out
        jerks[k] = jerk
    return outputs, jerks


class TestPreviewTracking:
    def test_origin_rest_is_exact_fixed_point(self):
        gains = preview_gains()
        refs = np.zeros((100, 2))
        outputs, jerks = rollout(gains, refs)
        assert np.all(jerks == 0.0)
        assert np.all(outputs == 0.0)

    def test_constant_reference_converges_to_fixed_point(self):
        """Jerk decays below 1e-9 once the law settles on a constant ref."""
        gains = preview_gains()
        level = 0.1
        refs = np.tile([level, -level], (int(10.0 / DT), 1))
        _, jerks = rollout(gains, refs, state=initial_state([level, -level]))
        assert np.max(np.abs(jerks[-1])) < 1e-9

    def test_constant_reference_steady_state(self):
        """A long window drives steady-state output error below 1e-6."""
        gains = synthesize_gains(PreviewWeights(), OMEGA, DT, 4.0)
        n = int(10.0 / DT)
        refs = np.zeros((n, 2))
        refs[int(1.0 / DT) :, 0] = 0.3
        outputs, _ = rollout(gains, refs)
        assert abs(outputs[-1, 0] - 0.3) < 1e-6
        assert abs(outputs[-1, 1]) < 1e-6

    def test_piecewise_constant_tracking_rms(self):
        """RMS output error beyond 0.3 s of each jump stays under 2 mm."""
        gains = preview_gains()
        rng = np.random.default_rng(17)
        seg = int(1.2 / DT)
        levels = rng.uniform(-0.075, 0.075, size=8)
        ref_x = np.concatenate(
            [np.full(seg, lv) for lv in levels] + [np.full(int(2.0 / DT), levels[-1])]
        )
        refs = np.column_stack([ref_x, np.zeros_like(ref_x)])
        outputs, _ = rollout(gains, refs, state=initial_state([levels[0], 0.0]))
        err = outputs[:, 0] - ref_x
        mask = np.ones(len(refs), dtype=bool)
        for j in range(1, 9):
            k = j * seg
            mask[k : k + int(0.3 / DT)] = False
        rms = math.sqrt(float(np.mean(err[mask] ** 2)))
        assert rms < 2e-3

    def test_axes_are_decoupled(self):
        gains = preview_gains()
        n = int(3.0 / DT)
        refs = np.zeros((n, 2))
        refs[:, 1] = 0.05 * np.sin(np.linspace(0.0, 4.0 * math.pi, n))
        outputs, jerks = rollout(gains, refs)
        assert np.all(outputs[:, 0] == 0.0)
        assert np.all(jerks[:, 0] == 0.0)
        assert np.any(outputs[:, 1] != 0.0)


class TestGenerateTrajectory:
    def test_default_start_at_first_zmp(self):
        timeline = standing_timeline(
            duration=2.0, schedule=constant_schedule(hand_pair(fx=-50.0))
        )
        traj = generate_trajectory(timeline, preview_gains())
        assert np.all(traj.com_pos[0] == timeline.zmp_ref[0])
        assert np.all(traj.com_vel[0] == 0.0)

    def test_model_consistency_every_sample(self):
        """acc is lipm_accel and dcm is dcm_of, per sample and axis; dcm bit
        for bit."""
        timeline = standing_timeline(
            duration=2.0, schedule=constant_schedule(hand_pair(fx=-50.0, fz=100.0))
        )
        traj = generate_trajectory(timeline, preview_gains())
        w = timeline.omega
        acc_model, dcm = [], []
        for c, v, z, kappa, gamma in zip(
            traj.com_pos.tolist(),
            traj.com_vel.tolist(),
            traj.zmp.tolist(),
            timeline.kappa.tolist(),
            timeline.gamma.tolist(),
        ):
            acc_model.append([lipm_accel(w, kappa, c[i], z[i], gamma[i]) for i in (0, 1)])
            dcm.append([dcm_of(c[i], v[i], w) for i in (0, 1)])
        assert np.allclose(traj.com_acc, acc_model, atol=1e-10)
        assert np.array(dcm).tobytes() == traj.dcm.tobytes()

    def test_tracks_shifted_ext_zmp(self):
        """Hands pulling backward shift the CoM behind the stance midpoint."""
        timeline = standing_timeline(
            duration=6.0, schedule=constant_schedule(hand_pair(fx=-50.0))
        )
        traj = generate_trajectory(timeline, preview_gains())
        # settled CoM sits at kappa*z - gamma, not at the ZMP
        gamma_x = timeline.gamma[-1, 0]
        assert traj.com_pos[-1, 0] == pytest.approx(-gamma_x, abs=1e-3)
        assert abs(traj.zmp[-1, 0]) < 1e-3

    def test_degenerate_scale_rejected(self):
        heavy = (
            ExternalContact(
                force=(0.0, 0.0, 0.96 * 981.0),
                moment=(0.0, 0.0, 0.0),
                position=(0.0, 0.0, 1.2),
            ),
        )
        timeline = standing_timeline(duration=0.5, schedule=constant_schedule(heavy))
        with pytest.raises(DegenerateScale):
            generate_trajectory(timeline, preview_gains())

    @pytest.mark.parametrize(
        "duration, window, stepping",
        [
            (2.0, 1.6, False),
            (1.0, 1.6, False),
            (2.0, 1.43, False),
            (1.0, 1.43, False),
            (2.0, 1.43, True),
        ],
        ids=["longer", "shorter", "longer-715", "shorter-715", "stepping-715"],
    )
    def test_equals_step_pg_rollout_bit_for_bit(self, duration, window, stepping):
        """The rollout is step_pg applied sample by sample, to the last bit,
        on timelines longer and shorter than the preview window. 800 samples
        split into leaves of 8-sample multiples; 715 leave leftover terms.
        The standing timelines hold their reference over most windows; the
        stepping one, under a hand ramp from 0.1 s to its end, moves it on
        every sample from then on, so each window's sum shows its
        summation order."""
        if stepping:
            ramp = hand_ramp_schedule(hand_pair(fx=-50.0, fz=100.0), 0.1, duration)
            timeline = inplace_timeline(duration, ramp, first=0.2, until=duration)
        else:
            timeline = standing_timeline(
                duration=duration, schedule=hand_ramp_schedule(hand_pair(fx=-50.0, fz=100.0))
            )
        gains = preview_gains(window=window)
        traj = generate_trajectory(timeline, gains)
        npv = gains.n_preview
        ref = timeline.ext_zmp_ref
        padded = np.vstack([ref[1:], np.tile(ref[-1], (npv, 1))])
        assert np.any(padded[:, 0] != padded[0, 0])
        state = initial_state(timeline.zmp_ref[0])
        for k in range(len(timeline)):
            assert state.tobytes() == np.stack(
                [traj.com_pos[k], traj.com_vel[k], traj.com_acc[k]]
            ).tobytes(), k
            state, jerk, out = step_pg(state, gains, padded[k : k + npv])
            assert jerk.tobytes() == traj.jerk[k].tobytes(), k
            assert out.tobytes() == traj.ext_zmp_out[k].tobytes(), k

    def test_sampling_mismatch_rejected(self):
        timeline = standing_timeline(duration=0.5)
        wrong_dt = synthesize_gains(PreviewWeights(), OMEGA, 0.004, 1.6)
        with pytest.raises(ValueError, match="rate"):
            generate_trajectory(timeline, wrong_dt)
        wrong_omega = synthesize_gains(PreviewWeights(), 3.0, DT, 1.6)
        with pytest.raises(ValueError, match="frequency"):
            generate_trajectory(timeline, wrong_omega)
