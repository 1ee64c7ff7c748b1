"""Unit tests for the point-mass plant, disturbances, and the closed loop."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from _pipeline import (
    DT,
    OMEGA,
    PARAMS,
    constant_schedule,
    hand_pair,
    inplace_timeline,
    make_stabilizer,
    plan_trajectory,
    standing_timeline,
)
from test_trace_digests import NOISY, PUSHED

from locomanip import plant_sim
from locomanip.core_dynamics import (
    compute_coefficients,
    contact_rows,
    contact_terms,
    dcm_of,
    ext_zmp,
)
from locomanip.errors import Infeasible, NonPhysical
from locomanip.pattern_generator import (
    PreviewWeights,
    generate_trajectory,
    synthesize_gains,
)
from locomanip.plant_sim import (
    CSV_COLUMNS,
    STEP_FAILURES,
    ZMP_CLAMP_MARGIN,
    DisturbanceProfile,
    TraceLog,
    apply_disturbances,
    run_closed_loop,
    step_plant,
)
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
    hull_edges,
    support_hull,
)

RHO = 20.0


def resting_state(pos=(0.0, 0.0), zmp=(0.0, 0.0)):
    """A plant at rest as step_plant returns it:
    (px, py, vx, vy, ax, ay, zx, zy, zmp_clamped)."""
    return (*pos, 0.0, 0.0, 0.0, 0.0, *zmp, False)


def advance(state, zc, contacts=(), direct_zmp=False, bounds=None):
    """step_plant from a state as it returns one, under the given contacts."""
    coeff = compute_coefficients(PARAMS, contacts)
    px, py, vx, vy, _, _, zx, zy, _ = state
    return step_plant(
        px, py, vx, vy, zx, zy, *np.asarray(zc, dtype=float).tolist(),
        None if direct_zmp else math.exp(-RHO * DT), bounds,
        coeff.omega, coeff.kappa, *coeff.gamma.tolist(), DT,
    )


class TestStepPlant:
    def test_equilibrium_is_a_fixed_point(self):
        state = resting_state()
        zc = np.zeros(2)
        for _ in range(int(1.0 / DT)):
            state = advance(state, zc)
        assert np.all(np.abs(np.array(state[0:2])) < 1e-9)
        assert np.all(np.array(state[6:8]) == 0.0)

    def test_shifted_equilibrium_with_hands(self):
        contacts = hand_pair(fx=-50.0)
        coeff = compute_coefficients(PARAMS, contacts)
        com0 = ext_zmp(coeff.kappa, np.zeros(2), coeff.gamma)
        state = resting_state(pos=com0.tolist())
        for _ in range(500):
            state = advance(state, np.zeros(2), contacts)
        assert np.allclose(state[0:2], com0, atol=1e-9)

    def test_direct_mode_copies_command(self):
        state = resting_state(zmp=(0.05, 0.0))
        zc = np.array([0.02, -0.01])
        nxt = advance(state, zc, direct_zmp=True)
        assert np.all(np.array(nxt[6:8]) == zc)

    def test_lag_is_exact_exponential(self):
        z0 = np.array([0.08, -0.03])
        zc = np.array([0.01, 0.01])
        state = resting_state(zmp=z0.tolist())
        for k in range(1, 51):
            state = advance(state, zc)
            expected = zc + (z0 - zc) * math.exp(-RHO * k * DT)
            assert np.allclose(state[6:8], expected, atol=1e-12)

    def test_free_dcm_grows_exponentially(self):
        """Pinned ZMP, no contacts: the divergent mode follows 0.01 e^(w t)."""
        xi0 = 0.01
        state = (0.5 * xi0, 0.0, 0.5 * xi0 * OMEGA, 0.0, 0.0, 0.0, 0.0, 0.0, False)
        n = int(0.5 / DT)
        for _ in range(n):
            state = advance(state, np.zeros(2), direct_zmp=True)
        xi = dcm_of(state[0], state[2], OMEGA)
        assert xi == pytest.approx(xi0 * math.exp(OMEGA * n * DT), rel=1e-3)

    def test_clamp_into_enlarged_region(self):
        rect = SoleRect(-0.13, 0.13, -0.17, 0.17)
        state = resting_state()
        nxt = advance(
            state, np.array([0.4, 0.0]), direct_zmp=True,
            bounds=(rect.xmin, rect.xmax, rect.ymin, rect.ymax),
        )
        assert nxt[8]
        assert nxt[6] == pytest.approx(0.13, abs=1e-15)

    def test_non_finite_state_is_rejected(self):
        with pytest.raises(ValueError, match="position: components must be finite"):
            advance(resting_state(), np.array([math.inf, 0.0]), direct_zmp=True)


class TestDisturbanceProfile:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            DisturbanceProfile(kind="ramp")
        with pytest.raises(ValueError, match="period"):
            DisturbanceProfile(kind="sinusoid", period=0.0)
        with pytest.raises(ValueError, match="axis"):
            DisturbanceProfile(kind="constant", axis="q")
        with pytest.raises(ValueError, match="ends before"):
            DisturbanceProfile(kind="step", start_time=2.0, end_time=1.0)
        with pytest.raises(ValueError, match="contact_index"):
            DisturbanceProfile(kind="step", contact_index=-1)

    def test_window_and_shape(self):
        prof = DisturbanceProfile(
            kind="sinusoid", axis="x", amplitude=30.0, period=2.0,
            start_time=1.0, end_time=5.0,
        )
        assert prof.value(0.5) == 0.0
        assert prof.value(5.0) == 0.0
        assert prof.value(1.5) == pytest.approx(30.0)
        const = DisturbanceProfile(kind="constant", axis="y", amplitude=-5.0)
        assert const.value(0.0) == -5.0
        assert const.value(1e6) == -5.0

    def test_apply_returns_same_tuple_when_inactive(self):
        rows = contact_rows(hand_pair(fx=-50.0))
        prof = DisturbanceProfile(kind="step", amplitude=10.0, start_time=4.0)
        assert apply_disturbances(rows, (prof,), 1.0) is rows
        assert apply_disturbances(rows, (), 1.0) is rows

    def test_apply_targets_one_contact(self):
        contacts = hand_pair(fx=-50.0)
        prof = DisturbanceProfile(
            kind="constant", axis="z", amplitude=40.0, contact_index=1
        )
        out = apply_disturbances(contact_rows(contacts), (prof,), 0.0)
        assert out[0][2] == 0.0
        assert out[1][2] == 40.0
        assert out[0][0] == -50.0

    def test_apply_rejects_missing_contact(self):
        """An index past the contacts present fails instead of being dropped."""
        prof = DisturbanceProfile(kind="constant", amplitude=-400.0, contact_index=7)
        with pytest.raises(IndexError):
            apply_disturbances(contact_rows(hand_pair(fx=-50.0)), (prof,), 0.0)

    def test_apply_broadcasts_without_index(self):
        contacts = hand_pair(fx=-50.0)
        prof = DisturbanceProfile(kind="constant", axis="x", amplitude=15.0)
        out = apply_disturbances(contact_rows(contacts), (prof,), 0.0)
        assert all(r[0] == -35.0 for r in out)

    def test_apply_over_times_matches_scalar_calls(self):
        """Zero crossings of a sinusoid, negative amplitudes, two profiles on
        one axis, one contact targeted and -0.0 desired forces: each sample
        of the array call is the scalar call at its time, bit for bit."""
        dt = 0.002
        times = np.arange(1500) * dt
        rows = (
            (-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, 0.3, 0.25, 0.3),
            (-50.0, -0.0, 12.5, 0.0, 0.0, -0.0, 0.3, -0.25, 0.3),
        )
        profiles = (
            # starts at a zero crossing and crosses zero every 0.25 s
            DisturbanceProfile(
                kind="sinusoid", axis="x", amplitude=-30.0, period=0.5,
                start_time=0.5, end_time=2.5,
            ),
            DisturbanceProfile(
                kind="step", axis="x", amplitude=-12.0, start_time=1.0, end_time=2.0
            ),
            DisturbanceProfile(
                kind="constant", axis="z", amplitude=7.0, start_time=0.8,
                end_time=1.2, contact_index=1,
            ),
        )
        by_sample = [apply_disturbances(rows, profiles, t) for t in times.tolist()]
        assert sum(r is rows for r in by_sample) > 100
        assert profiles[0].value(0.5) == 0.0
        columns = tuple(
            tuple(np.full(len(times), v) for v in r) for r in rows
        )
        out = apply_disturbances(columns, profiles, times)
        for i in range(len(rows)):
            for a in range(9):
                expected = np.array([r[i][a] for r in by_sample])
                assert out[i][a].tobytes() == expected.tobytes(), (i, a)

    def test_apply_over_times_when_inactive(self):
        times = np.arange(10) * 0.002
        rows = tuple(tuple(np.zeros(10) for _ in range(9)) for _ in range(2))
        prof = DisturbanceProfile(kind="step", amplitude=10.0, start_time=4.0)
        assert apply_disturbances(rows, (prof,), times) is rows

    def test_apply_over_times_rejects_missing_contact_while_acting(self):
        times = np.arange(10) * 0.002
        rows = tuple(tuple(np.zeros(10) for _ in range(9)) for _ in range(2))
        late = DisturbanceProfile(
            kind="constant", amplitude=5.0, start_time=1.0, contact_index=2
        )
        assert apply_disturbances(rows, (late,), times) is rows
        acting = dataclasses.replace(late, start_time=0.01)
        with pytest.raises(IndexError):
            apply_disturbances(rows, (acting,), times)


class TestClosedLoop:
    def test_static_standing_is_exact(self):
        """No forces, constant references: the loop reproduces the plan."""
        traj = plan_trajectory(standing_timeline(duration=2.0))
        trace = run_closed_loop(traj, make_stabilizer())
        assert not trace.diverged
        assert np.max(np.abs(trace["c_x^a"] - trace["c_x^d"])) < 1e-6
        assert np.max(np.abs(trace["c_y^a"] - trace["c_y^d"])) < 1e-6
        assert np.max(np.abs(trace["z_x^a"] - trace["z_x^d"])) < 1e-6

    def test_nominal_stepping_direct_zmp(self):
        """In-place gait without actuation lag: DCM error below 1 mm."""
        traj = plan_trajectory(inplace_timeline(duration=10.0))
        trace = run_closed_loop(traj, make_stabilizer(), direct_zmp=True)
        assert not trace.diverged
        err = np.hypot(
            trace["xi_x^a"] - trace["xi_x^d"], trace["xi_y^a"] - trace["xi_y^d"]
        )
        assert np.max(err) < 1e-3

    def test_nominal_stepping_with_lag_stays_bounded(self):
        traj = plan_trajectory(inplace_timeline(duration=10.0))
        trace = run_closed_loop(traj, make_stabilizer())
        assert not trace.diverged
        err_y = np.abs(trace["xi_y^a"] - trace["xi_y^d"])
        err_x = np.abs(trace["xi_x^a"] - trace["xi_x^d"])
        assert np.max(err_y) < 0.08
        assert np.max(err_x) < 0.01

    def test_unstabilized_offset_diverges(self):
        """An unplanned 200 N pull on each hand needs a ZMP past the support
        hull: the command saturates, the CoM drifts off the plan and the run
        stops at the default divergence gate."""
        traj = plan_trajectory(
            standing_timeline(duration=4.0, schedule=constant_schedule(hand_pair()))
        )
        push = (
            DisturbanceProfile(kind="step", axis="x", amplitude=-200.0, start_time=0.5),
        )
        trace = run_closed_loop(traj, make_stabilizer(), disturbances=push, direct_zmp=True)
        assert trace.diverged
        assert trace.diverged_at is not None
        assert 0.5 < trace.diverged_at < 4.0
        # the command ZMP sits on the support hull from the push on
        assert trace.extra["zmp_saturated"][round(0.5 / DT) :].all()
        assert len(trace) < len(traj.time)
        assert len(trace) == round(trace.diverged_at / DT)

    def test_determinism_bitwise(self):
        timeline = inplace_timeline(duration=4.0, schedule=constant_schedule(hand_pair(fx=-50.0)))
        traj = plan_trajectory(timeline)
        dist = (
            DisturbanceProfile(
                kind="sinusoid", axis="x", amplitude=15.0, period=2.0, start_time=1.0
            ),
        )
        a = run_closed_loop(traj, make_stabilizer(), disturbances=dist)
        b = run_closed_loop(traj, make_stabilizer(), disturbances=dist)
        for name in CSV_COLUMNS:
            assert np.array_equal(a[name], b[name])

    def test_noise_respects_seed(self):
        traj = plan_trajectory(standing_timeline(duration=1.0))
        kwargs = dict(com_noise=1e-4, force_noise=0.5)
        a = run_closed_loop(traj, make_stabilizer(), seed=42, **kwargs)
        b = run_closed_loop(traj, make_stabilizer(), seed=42, **kwargs)
        c = run_closed_loop(traj, make_stabilizer(), seed=43, **kwargs)
        assert np.array_equal(a["z_x^c"], b["z_x^c"])
        assert not np.array_equal(a["z_x^c"], c["z_x^c"])

    def test_noise_without_seed_is_not_dropped(self):
        traj = plan_trajectory(standing_timeline(duration=0.2))
        clean = run_closed_loop(traj, make_stabilizer())
        noisy = run_closed_loop(traj, make_stabilizer(), com_noise=1e-4)
        assert not np.array_equal(clean["z_x^c"], noisy["z_x^c"])

    def test_stabilizer_at_another_rate_is_refused(self):
        traj = plan_trajectory(standing_timeline(duration=0.2))
        with pytest.raises(ValueError, match="different rates"):
            run_closed_loop(traj, make_stabilizer(dt=2 * DT))

    def test_stabilizer_for_another_pendulum_is_refused(self):
        traj = plan_trajectory(standing_timeline(duration=0.2))
        taller = dataclasses.replace(PARAMS, com_height=PARAMS.com_height + 0.1)
        with pytest.raises(ValueError, match="different pendulum frequency"):
            run_closed_loop(traj, Stabilizer(taller, StabilizerGains(), DT))

    def test_csv_round_trip(self, tmp_path):
        traj = plan_trajectory(standing_timeline(duration=1.0))
        trace = run_closed_loop(traj, make_stabilizer())
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        back = TraceLog.from_csv(path)
        assert back.dt == pytest.approx(trace.dt, abs=1e-15)
        for name in CSV_COLUMNS:
            assert np.array_equal(back[name], trace[name]), name
        with open(path) as fh:
            assert fh.readline().strip() == ",".join(CSV_COLUMNS)


def scenario_bundle(name, *overrides):
    raw = load_raw_config(bundled_scenario_path(name))
    return build_scenario(parse_config(apply_overrides(raw, list(overrides))))


def loop_of(bundle):
    cfg = bundle.config
    return run_closed_loop(
        bundle.traj,
        bundle.stabilizer,
        disturbances=bundle.disturbances,
        direct_zmp=cfg.plant.direct_zmp,
        com_noise=cfg.plant.com_noise_m,
        force_noise=cfg.plant.force_noise_n,
        seed=cfg.seed,
        divergence_limit=cfg.plant.divergence_limit_m,
    )


def state_bytes(state):
    return np.array(dataclasses.astuple(state), dtype=float).tobytes()


def first_samples(traj, n):
    """The plan cut to its first n samples."""
    tl = traj.timeline
    timeline = dataclasses.replace(
        tl,
        time=tl.time[:n],
        zmp_ref=tl.zmp_ref[:n],
        kappa=tl.kappa[:n],
        gamma=tl.gamma[:n],
        ext_zmp_ref=tl.ext_zmp_ref[:n],
        phase=tl.phase[:n],
        contact_index=tl.contact_index[:n],
    )
    arrays = {
        f.name: getattr(traj, f.name)[:n]
        for f in dataclasses.fields(traj)
        if f.name != "timeline"
    }
    return dataclasses.replace(traj, timeline=timeline, **arrays)


# two hands ramp to a 50 N pull, then the right one lets go at a hold
# breakpoint: the contact count drops from two to one at 3.0 s
ONE_HAND_LEFT = (
    "hands=["
    "{time_s: 0.0, mode: hold, contacts: [{position_m: [0.3, 0.25, 0.3]}, "
    "{position_m: [0.3, -0.25, 0.3]}]}, "
    "{time_s: 1.0, mode: linear, contacts: [{position_m: [0.3, 0.25, 0.3]}, "
    "{position_m: [0.3, -0.25, 0.3]}]}, "
    "{time_s: 2.0, mode: hold, contacts: ["
    "{position_m: [0.3, 0.25, 0.3], force_n: [-50.0, 0.0, 0.0]}, "
    "{position_m: [0.3, -0.25, 0.3], force_n: [-50.0, 0.0, 0.0]}]}, "
    "{time_s: 3.0, mode: hold, contacts: ["
    "{position_m: [0.3, 0.25, 0.3], force_n: [-50.0, 0.0, 0.0]}]}]",
    "plant.force_noise_n=5.0",
    "seed=11",
)


class TestOneLaw:
    """The closed loop runs the per-sample laws and nothing else."""

    @pytest.mark.parametrize(
        "overrides",
        [
            (),
            (
                "disturbances=[{kind: sinusoid, axis: x, amplitude_n: 40.0, "
                "period_s: 0.3, start_s: 0.1, contact_index: 1}]",
            ),
            (
                "disturbances=[{kind: step, axis: x, amplitude_n: 60.0, "
                "start_s: 2.0, end_s: 2.4}]",
            ),
            NOISY,
            ONE_HAND_LEFT,
        ],
        ids=[
            "testcase1",
            "testcase1-push",
            "testcase1-shove",
            "testcase1-noisy",
            "testcase1-one-hand-left",
        ],
    )
    def test_loop_matches_per_sample_steps(self, overrides):
        """4.5 s of testcase1: the first steps (support phases change from
        1.8 s) and a hand ramp (one contact set per sample), so the loop's
        per-phase and per-contact-set caches are compared with hull edges,
        clamp bounds and contact rows rebuilt on every sample. The shove
        saturates the command in single support, where a stale
        double-support hull would not. The noisy runs draw per step, in the
        order CoM 2, velocity 2, then 3 per contact, against the loop's
        block draws; the last one also changes its contact count."""
        n = 2250
        bundle = scenario_bundle("testcase1", *overrides)
        traj = first_samples(bundle.traj, n)
        trace = loop_of(dataclasses.replace(bundle, traj=traj))
        timeline = traj.timeline
        assert len(set(timeline.phase.tolist())) > 2
        assert len(set(timeline.contact_index.tolist())) > 2

        stab = bundle.stabilizer
        by_hand = Stabilizer(
            stab.params, stab.gains, stab.dt, compensate_forces=stab.compensate_forces
        )
        params = stab.params
        plant = bundle.config.plant
        com_noise, force_noise = plant.com_noise_m, plant.force_noise_n
        rng = np.random.default_rng(bundle.config.seed)
        unloaded = compute_coefficients(params)
        decay = math.exp(-stab.gains.rho * traj.dt)
        px, py = traj.com_pos[0].tolist()
        vx, vy = traj.com_vel[0].tolist()
        zx, zy = traj.zmp[0].tolist()
        logged = {name: [] for name in (
            "c_x^a", "c_y^a", "xi_x^a", "xi_y^a", "z_x^c", "z_y^c", "z_x^a", "z_y^a",
            "gamma_err_x", "gamma_err_y", "gammaH_x", "gammaH_y", "gammaL_x",
            "gammaL_y", "fext_sum_x", "fext_sum_y", "fext_sum_z",
            "zmp_saturated", "cop_clamped", "zmp_clamped",
        )}
        counts = set()
        for k in range(len(timeline)):
            kappa_d = timeline.kappa[k]
            desired_rows = timeline.contact_rows(timeline.contact_index[k])
            region = timeline.support_regions[timeline.phase[k]]
            counts.add(len(desired_rows))
            true = apply_disturbances(desired_rows, bundle.disturbances, traj.time[k])
            com, vel, measured = (px, py), (vx, vy), true
            if com_noise > 0.0 or force_noise > 0.0:
                nx, ny = rng.standard_normal(2).tolist()
                com = (px + com_noise * nx, py + com_noise * ny)
                nx, ny = rng.standard_normal(2).tolist()
                w = com_noise * timeline.omega
                vel = (vx + w * nx, vy + w * ny)
                if force_noise > 0.0:
                    measured = tuple(
                        tuple(
                            f + force_noise * e
                            for f, e in zip(r[:3], rng.standard_normal(3).tolist())
                        )
                        + r[3:]
                        for r in true
                    )
            plan = (
                *traj.com_pos[k].tolist(),
                *traj.com_acc[k].tolist(),
                *traj.dcm[k].tolist(),
                *traj.zmp[k].tolist(),
            )
            gamma_err_x, gamma_err_y, bands = by_hand.measure_forces(
                measured, desired_rows, 1
            )
            command_zmp, _, _, _, saturated, cop_clamped, _ = by_hand.step(
                kappa_d,
                timeline.omega,
                plan,
                com,
                vel,
                measured,
                hull_edges(support_hull(region)),
                tuple(bands[:, 0].tolist()),
            )
            state = by_hand.state
            fsx, fsy, fsz, kappa, gx, gy = contact_terms(
                true, unloaded.zeta, params.zmp_height
            )
            for axis, i in (("x", 0), ("y", 1)):
                logged[f"z_{axis}^c"].append(command_zmp[i])
                logged[f"gammaH_{axis}"].append(state.gamma_high[i])
                logged[f"gammaL_{axis}"].append(state.gamma_low[i])
            logged["gamma_err_x"].append(gamma_err_x[0])
            logged["gamma_err_y"].append(gamma_err_y[0])
            for axis, value in zip("xyz", (fsx, fsy, fsz)):
                logged[f"fext_sum_{axis}"].append(value)
            logged["zmp_saturated"].append(float(saturated))
            logged["cop_clamped"].append(float(cop_clamped))
            logged["c_x^a"].append(px)
            logged["c_y^a"].append(py)
            logged["xi_x^a"].append(dcm_of(px, vx, timeline.omega))
            logged["xi_y^a"].append(dcm_of(py, vy, timeline.omega))
            logged["z_x^a"].append(zx)
            logged["z_y^a"].append(zy)
            base = SoleRect.bounding(region)
            m = ZMP_CLAMP_MARGIN
            px, py, vx, vy, _, _, zx, zy, clamped = step_plant(
                px, py, vx, vy, zx, zy, *command_zmp, decay,
                (base.xmin - m, base.xmax + m, base.ymin - m, base.ymax + m),
                unloaded.omega, kappa, gx, gy, traj.dt,
            )
            logged["zmp_clamped"].append(float(clamped))

        assert len(trace) == n
        for name, values in logged.items():
            column = trace.columns.get(name, trace.extra.get(name))
            assert np.array(values).tobytes() == column.tobytes(), name
        if overrides:
            assert np.any(trace["gammaH_x"] != 0.0)
        if "shove" in str(overrides):
            single = np.array([len(f) == 1 for f in timeline.support_feet])[
                timeline.phase
            ]
            assert np.any(trace.extra["zmp_saturated"][single] != 0.0)
        if overrides == ONE_HAND_LEFT:
            assert counts == {1, 2}
        # the loop leaves its stabilizer where the per-sample steps leave theirs
        assert state_bytes(stab.state) == state_bytes(by_hand.state)

    def test_unloading_push_raises_infeasible(self):
        """A 600 N lift per hand pulls the feet off the ground at t = 5 s."""
        bundle = scenario_bundle(
            "testcase1",
            "disturbances=[{kind: step, axis: z, amplitude_n: 600.0, "
            "start_s: 5.0, end_s: 8.0}]",
        )
        with pytest.raises(Infeasible, match="press downward on the ground"):
            loop_of(bundle)

    @pytest.mark.parametrize(
        "share, error", [(0.5, NonPhysical), (0.6, Infeasible)]
    )
    def test_unloaded_feet_stop_the_loop(self, share, error):
        """Hands carrying the whole weight (share 0.5 each) or more."""
        traj = plan_trajectory(standing_timeline(duration=1.0, schedule=constant_schedule(hand_pair())))
        lift = (
            DisturbanceProfile(
                kind="step", axis="z", amplitude=share * PARAMS.mass * PARAMS.gravity,
                start_time=0.5,
            ),
        )
        stab = make_stabilizer()
        with pytest.raises(error):
            run_closed_loop(traj, stab, disturbances=lift)


# a 600 N lift per hand from 5 s pulls the feet off the ground
UNLOADING = (
    "disturbances=[{kind: step, axis: z, amplitude_n: 600.0, "
    "start_s: 5.0, end_s: 8.0}]",
)


class TestBlocks:
    """The open-loop pass runs per block of BLOCK_SAMPLES samples; no block
    size may show in the trace or in the stabilizer's final state."""

    @staticmethod
    def blocked(monkeypatch, size, *overrides):
        """(trace, final state bytes) of testcase1 with blocks of `size`."""
        monkeypatch.setattr(plant_sim, "BLOCK_SAMPLES", size)
        bundle = scenario_bundle("testcase1", *overrides)
        try:
            trace = loop_of(bundle)
        except STEP_FAILURES as exc:
            trace = exc.trace
        return trace, state_bytes(bundle.stabilizer.state)

    @staticmethod
    def assert_same(a, b):
        (ta, sa), (tb, sb) = a, b
        for name in ta.columns:
            assert ta[name].tobytes() == tb[name].tobytes(), name
        for name in ta.extra:
            assert ta.extra[name].tobytes() == tb.extra[name].tobytes(), name
        for attr in ("diverged", "diverged_at", "failure", "failed_at"):
            assert getattr(ta, attr) == getattr(tb, attr), attr
        assert sa == sb

    def test_block_size_does_not_show(self, monkeypatch):
        overrides = (
            "duration_s=6.0",
            "disturbances=[{kind: sinusoid, axis: x, amplitude_n: 40.0, "
            "period_s: 0.3, start_s: 0.1, end_s: 4.5, contact_index: 1}]",
            *NOISY,
        )
        default = self.blocked(monkeypatch, plant_sim.BLOCK_SAMPLES, *overrides)
        assert len(default[0]) == 3000
        for size in (1, 7):
            self.assert_same(self.blocked(monkeypatch, size, *overrides), default)

    @pytest.mark.parametrize(
        "overrides, stop", [(PUSHED, "diverged"), (UNLOADING, "Infeasible")],
        ids=["diverged", "failed"],
    )
    def test_stop_on_a_block_edge(self, monkeypatch, overrides, stop):
        """The stopping step k as the first sample of a block (size k) and
        as the last (size k + 1), against the default blocks."""
        default = self.blocked(monkeypatch, plant_sim.BLOCK_SAMPLES, *overrides)
        trace = default[0]
        if stop == "diverged":
            assert trace.diverged
            k = len(trace) - 1
        else:
            assert trace.failure == stop
            k = len(trace)
        for size in (k, k + 1):
            self.assert_same(self.blocked(monkeypatch, size, *overrides), default)


def traced_peak(call):
    """call() and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - before


def loop_excess_mb(bundle, seconds):
    """Peak memory traced inside run_closed_loop over the first `seconds` of
    the plan, minus the bytes of the trace's own columns, in MB."""
    stab = bundle.stabilizer
    run = dataclasses.replace(
        bundle,
        traj=first_samples(bundle.traj, round(seconds / bundle.traj.dt)),
        stabilizer=Stabilizer(stab.params, stab.gains, stab.dt),
    )
    trace, peak = traced_peak(lambda: loop_of(run))
    own = sum(a.nbytes for a in (*trace.columns.values(), *trace.extra.values()))
    return (peak - own) / 1e6


@pytest.mark.parametrize(
    "name, overrides",
    [("testcase3", ()), ("testcase1", ("duration_s=40.0", *NOISY))],
    ids=["testcase3", "testcase1-noisy"],
)
def test_loop_memory_does_not_grow_with_the_run(name, overrides):
    """Beyond its trace, the loop holds one block's temporaries at a time:
    the same excess over 10 s as over 40 s."""
    bundle = scenario_bundle(name, *overrides)
    loop_excess_mb(bundle, 1.0)  # first-call caches
    short, long = (loop_excess_mb(bundle, s) for s in (10.0, 40.0))
    assert abs(long - short) < 0.25, (short, long)


def plan_excess_mb(bundle, gains, seconds):
    """Peak memory traced inside generate_trajectory over the first `seconds`
    of the timeline, minus the bytes of the plan's own arrays, in MB."""
    timeline = first_samples(bundle.traj, round(seconds / bundle.traj.dt)).timeline
    traj, peak = traced_peak(lambda: generate_trajectory(timeline, gains))
    own = sum(
        getattr(traj, f.name).nbytes
        for f in dataclasses.fields(traj)
        if f.name != "timeline"
    )
    return (peak - own) / 1e6


def test_plan_memory_does_not_grow_with_the_run():
    """Beyond its plan, generate_trajectory holds a padded copy of the
    reference (16 bytes a sample) and one feedforward block's temporaries
    at a time: the same excess, to 0.25 MB, over 20 s as over 40 s. Both
    spans are longer than one block of 8000 samples; a 10 s plan is one
    shorter block with smaller temporaries."""
    bundle = scenario_bundle("testcase3")
    c = bundle.config.controller
    gains = synthesize_gains(
        PreviewWeights(c.q_zmp, c.r_jerk),
        bundle.traj.omega,
        bundle.traj.dt,
        c.preview_window_s,
    )
    plan_excess_mb(bundle, gains, 1.0)  # first-call caches
    short, long = (plan_excess_mb(bundle, gains, s) for s in (20.0, 40.0))
    assert abs(long - short) < 0.25, (short, long)
