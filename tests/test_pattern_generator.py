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
from oracles import solve_dare_nested, step_pg, synthesize_gains_nested

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
from locomanip.reference_builder import MAX_SAMPLES

# feedback gains for omega=sqrt(9.81/0.8), dt=0.002, q=1, r=1e-8,
# frozen from an independent Riccati solve
K_FB_REF = np.array([4715.60195026, 2705.42004837, 391.51776754])


def rollout_with_acc(timeline, gains, monkeypatch):
    """generate_trajectory of the timeline, and the CoM acceleration its
    rollout logs, (n, 2): the buffer _preview_law fills, copied per axis
    once the call returns. The plan itself keeps no acceleration."""
    law = pattern_generator._preview_law
    acc = []

    def logged(gains, state, jerk, pos, vel, a, zmp_out):
        out = law(gains, state, jerk, pos, vel, a, zmp_out)
        acc.append(a.copy())
        return out

    monkeypatch.setattr(pattern_generator, "_preview_law", logged)
    traj = generate_trajectory(timeline, gains)
    return traj, np.column_stack(acc)


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


def outcome(f, *args):
    """The bytes of what f returns (P, or k_fb and k_ff of PreviewGains),
    or the type and message of what it raises."""
    try:
        out = f(*args)
    except (ValueError, RiccatiDivergence) as exc:
        return type(exc), str(exc)
    if isinstance(out, np.ndarray):
        return out.shape, out.tobytes()
    return out.k_fb.tobytes(), out.k_ff.tobytes()


_ENTRIES = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0]


class TestFlatSolver:
    """The Riccati solver on 9-tuples against the nested-list one it
    replaced: the same P and gains in every bit, or the same error."""

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        q_exp=st.floats(-6.0, 6.0),
        r_exp=st.floats(-14.0, -2.0),
        omega=st.floats(3.0, 8.0),
        dt=st.floats(0.0005, 0.02),
        window=st.floats(1.0, 3.0),
    )
    # the default weights of a scenario, then the overrides of q_zmp and
    # r_jerk that reach each error: non-finite, singular, did not settle
    @example(q_exp=0.0, r_exp=-8.0, omega=OMEGA, dt=DT, window=1.6)
    @example(q_exp=0.0, r_exp=-300.0, omega=OMEGA, dt=DT, window=1.6)
    @example(q_exp=20.0, r_exp=-8.0, omega=OMEGA, dt=DT, window=1.6)
    @example(q_exp=300.0, r_exp=-8.0, omega=OMEGA, dt=DT, window=1.6)
    @example(q_exp=0.0, r_exp=300.0, omega=OMEGA, dt=DT, window=1.6)
    @example(q_exp=-300.0, r_exp=-8.0, omega=OMEGA, dt=DT, window=1.6)
    def test_equals_nested_solver_bit_for_bit(self, q_exp, r_exp, omega, dt, window):
        q, r = 10.0**q_exp, 10.0**r_exp
        A, B, C = discretize(omega, dt)
        q_state = q * np.outer(C, C)
        assert outcome(solve_dare_fixed_point, A, B, q_state, r) == outcome(
            solve_dare_nested, A, B, q_state, r
        )
        weights = PreviewWeights(q_zmp=q, r_jerk=r)
        assert outcome(synthesize_gains, weights, omega, dt, window) == outcome(
            synthesize_gains_nested, weights, omega, dt, window
        )

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(
        a=st.lists(st.sampled_from(_ENTRIES), min_size=9, max_size=9),
        b=st.lists(st.sampled_from(_ENTRIES), min_size=3, max_size=3),
        q=st.lists(st.sampled_from(_ENTRIES), min_size=9, max_size=9),
        r=st.sampled_from([0.5, 1.0, 2.0]),
    )
    # pivot ties: a later row of equal magnitude must not take the pivot,
    # in the first column and in the second
    @example(
        a=[0.5, -0.0, -0.0, -1.0, 0.0, 0.0, -0.0, 0.0, 0.5],
        b=[2.0, 2.0, -1.0],
        q=[-0.0, 0.5, -1.0, 0.0, 0.5, 1.0, 0.5, -0.0, 2.0],
        r=2.0,
    )
    @example(
        a=[1.0, 0.0, -1.0, 2.0, -0.0, 0.0, 0.0, 1.0, 1.0],
        b=[-0.0, -0.0, 1.0],
        q=[2.0, -0.0, 0.0, -1.0, 2.0, 2.0, -1.0, 1.0, 0.0],
        r=2.0,
    )
    def test_general_matrices_bit_for_bit(self, a, b, q, r):
        """Small-integer matrices with signed zeros: ties between pivot
        candidates, zero pivots and zeros whose sign the sums must keep."""
        A, B, Q = np.reshape(a, (3, 3)), np.array(b), np.reshape(q, (3, 3))
        assert outcome(solve_dare_fixed_point, A, B, Q, r) == outcome(
            solve_dare_nested, A, B, Q, r
        )

    @pytest.mark.parametrize(
        "q, r, message",
        [
            (1.0, 1.0e-300, "non-finite"),
            (1.0e20, 1.0e-8, "non-finite"),
            (1.0e300, 1.0e-8, "singular"),
            (1.0, 1.0e300, "did not settle in 50 steps"),
            (1.0e-300, 1.0e-8, "did not settle in 50 steps"),
        ],
    )
    def test_error_examples_reach_their_message(self, q, r, message):
        """The @example weights above reach each RiccatiDivergence."""
        with pytest.raises(RiccatiDivergence, match=message):
            synthesize_gains(PreviewWeights(q_zmp=q, r_jerk=r), OMEGA, DT, 1.6)


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

    @pytest.mark.parametrize("window", [1.0e308, (MAX_SAMPLES + 1) * DT])
    def test_window_beyond_the_sample_bound_is_refused(self, window):
        """A finite window whose sample count overflowed int() raised
        OverflowError; one past MAX_SAMPLES would be a list of that many
        gains."""
        with pytest.raises(ValueError, match="preview_window must be 1.0 s to 10000000 samples"):
            synthesize_gains(PreviewWeights(), OMEGA, DT, window)

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

    # a quiet NaN with a payload of its own, so the bits compared are not
    # only those of np.nan
    _NAN = np.array(0x7FF800000000BEEF, dtype=np.int64).view(np.float64).item()

    @settings(max_examples=12, deadline=None, database=None, derandomize=True)
    @given(
        npv=_WINDOWS,
        n_out=st.sampled_from([_FF_BLOCK + 1, 2 * _FF_BLOCK, 2 * _FF_BLOCK + 3]),
        seed=st.integers(0, 2**32 - 1),
        held=st.lists(
            st.tuples(
                st.sampled_from(["value", "+0", "-0", "-0|+0", "nan"]),
                st.integers(-1, 1),
                st.integers(-1, 1),
            ),
            min_size=2,
            max_size=2,
        ),
    )
    @example(npv=5, n_out=2 * _FF_BLOCK + 3, seed=0, held=[("-0|+0", 0, 0), ("+0", 0, 0)])
    @example(npv=800, n_out=2 * _FF_BLOCK + 3, seed=1, held=[("nan", -1, 1), ("value", 1, -1)])
    @example(npv=715, n_out=_FF_BLOCK + 1, seed=2, held=[("value", 0, 0), ("-0", 0, 0)])
    def test_held_references_equal_row_sums_bit_for_bit(self, npv, n_out, seed, held):
        """Each row holds one value over the windows of the second block and
        of the output before it, from one sample before to one sample after
        their start b0-1 and their end b0+m-1+npv. The values are +0.0,
        -0.0, a quiet NaN, a random value, or -0.0 then +0.0 from a random
        sample on. Outside the stretch the reference is random, so a
        stretch one sample short makes the block's windows differ, and one
        sample long leaves them held. Every output has the bits of np.sum
        over its window's products."""
        rng = np.random.default_rng(seed)

        def values(*shape):
            signs = rng.choice([-1.0, 1.0], size=shape)
            return signs * 10.0 ** rng.uniform(-8.0, 8.0, size=shape)

        k_ff = values(npv)
        ref = values(2, n_out + npv - 1)
        b0 = _FF_BLOCK
        end = b0 + min(_FF_BLOCK, n_out - b0) - 1 + npv
        for row, (kind, start_shift, end_shift) in zip(ref, held):
            lo = b0 - 1 + start_shift
            hi = min(end + end_shift, len(row))
            if kind == "-0|+0":
                flip = int(rng.integers(lo, hi + 1))
                row[lo:flip] = -0.0
                row[flip:hi] = 0.0
            else:
                row[lo:hi] = {"value": row[lo], "+0": 0.0, "-0": -0.0, "nan": self._NAN}[kind]
        out = np.empty((n_out, 2))
        _feedforward(k_ff, ref, out.T)
        sums = [[np.sum(row[k : k + npv] * k_ff) for k in range(n_out)] for row in ref]
        assert out.T.tobytes() == np.array(sums).tobytes()

    @pytest.mark.parametrize("held_rows", [(), (0,), (1,), (0, 1)])
    def test_held_rows_skip_the_sum(self, monkeypatch, held_rows):
        """In the second block, a row whose windows all hold one value is
        copied from the output before the block and summed by no _pairwise
        call; the other rows go in one call, with both rows or one."""
        npv = 20
        rng = np.random.default_rng(3)
        ref = rng.standard_normal((2, 2 * _FF_BLOCK + npv - 1))
        for i in held_rows:
            ref[i, _FF_BLOCK - 1 :] = ref[i, _FF_BLOCK - 1]
        calls = []
        pairwise = pattern_generator._pairwise

        def spy(k_ff, ref, lo, n, b0, m):
            if n == npv:
                calls.append((ref.shape[:-1], b0))
            return pairwise(k_ff, ref, lo, n, b0, m)

        monkeypatch.setattr(pattern_generator, "_pairwise", spy)
        out = np.empty((2, 2 * _FF_BLOCK))
        _feedforward(rng.standard_normal(npv), ref, out)
        summed = [i for i in (0, 1) if i not in held_rows]
        second = [] if not summed else [((2,) if len(summed) == 2 else (), _FF_BLOCK)]
        assert calls == [((2,), 0)] + second
        for i in held_rows:
            assert np.all(out[i, _FF_BLOCK:] == out[i, _FF_BLOCK - 1])


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

    def test_model_consistency_every_sample(self, monkeypatch):
        """The rollout's acc is lipm_accel and dcm is dcm_of, per sample and
        axis; dcm bit for bit."""
        timeline = standing_timeline(
            duration=2.0, schedule=constant_schedule(hand_pair(fx=-50.0, fz=100.0))
        )
        traj, acc = rollout_with_acc(timeline, preview_gains(), monkeypatch)
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
        assert np.allclose(acc, acc_model, atol=1e-10)
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
            # longer than one feedforward block, with the reference held over
            # the whole second block, which is copied rather than summed
            (17.0, 1.6, False),
        ],
        ids=["longer", "shorter", "longer-715", "shorter-715", "stepping-715", "two-blocks"],
    )
    def test_equals_step_pg_rollout_bit_for_bit(
        self, duration, window, stepping, monkeypatch
    ):
        """The rollout is step_pg applied sample by sample, to the last bit,
        on timelines longer and shorter than the preview window. 800 samples
        split into leaves of 8-sample multiples; 715 leave leftover terms.
        The standing timelines hold their reference over most windows; the
        stepping one, under a hand ramp from 0.1 s to its end, moves it on
        every sample from then on, so each window's sum shows its
        summation order. The acceleration is the rollout's own
        (rollout_with_acc)."""
        if stepping:
            ramp = hand_ramp_schedule(hand_pair(fx=-50.0, fz=100.0), 0.1, duration)
            timeline = inplace_timeline(duration, ramp, first=0.2, until=duration)
        else:
            timeline = standing_timeline(
                duration=duration, schedule=hand_ramp_schedule(hand_pair(fx=-50.0, fz=100.0))
            )
        gains = preview_gains(window=window)
        traj, acc = rollout_with_acc(timeline, gains, monkeypatch)
        npv = gains.n_preview
        ref = timeline.ext_zmp_ref
        padded = np.vstack([ref[1:], np.tile(ref[-1], (npv, 1))])
        assert np.any(padded[:, 0] != padded[0, 0])
        state = initial_state(timeline.zmp_ref[0])
        for k in range(len(timeline)):
            assert state.tobytes() == np.stack(
                [traj.com_pos[k], traj.com_vel[k], acc[k]]
            ).tobytes(), k
            state, jerk, out = step_pg(state, gains, padded[k : k + npv])
            zmp = (out + timeline.gamma[k]) / timeline.kappa[k]
            assert zmp.tobytes() == traj.zmp[k].tobytes(), k

    def test_sampling_mismatch_rejected(self):
        timeline = standing_timeline(duration=0.5)
        wrong_dt = synthesize_gains(PreviewWeights(), OMEGA, 0.004, 1.6)
        with pytest.raises(ValueError, match="rate"):
            generate_trajectory(timeline, wrong_dt)
        wrong_omega = synthesize_gains(PreviewWeights(), 3.0, DT, 1.6)
        with pytest.raises(ValueError, match="frequency"):
            generate_trajectory(timeline, wrong_omega)
