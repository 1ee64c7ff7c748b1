"""Unit tests for the point-mass plant, disturbances, and the closed loop."""

import dataclasses
import math

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

from locomanip.core_dynamics import CoMState
from locomanip.errors import Infeasible, NonPhysical
from locomanip.plant_sim import (
    CSV_COLUMNS,
    ZMP_CLAMP_MARGIN,
    DisturbanceProfile,
    PlantState,
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
    ActualSample,
    DesiredSample,
    Stabilizer,
    StabilizerGains,
)

RHO = 20.0


def resting_state(pos=(0.0, 0.0), zmp=(0.0, 0.0)):
    return PlantState(
        com=CoMState(position=pos, velocity=(0.0, 0.0), acceleration=(0.0, 0.0)),
        zmp_actual=np.array(zmp, dtype=float),
        time=0.0,
    )


class TestStepPlant:
    def test_equilibrium_is_a_fixed_point(self):
        state = resting_state()
        zc = np.zeros(2)
        for _ in range(int(1.0 / DT)):
            state = step_plant(state, zc, (), PARAMS, RHO, DT)
        assert np.all(np.abs(state.com.position) < 1e-9)
        assert np.all(state.zmp_actual == 0.0)

    def test_shifted_equilibrium_with_hands(self):
        contacts = hand_pair(fx=-50.0)
        from locomanip.core_dynamics import compute_coefficients

        coeff = compute_coefficients(PARAMS, contacts)
        com0 = coeff.kappa * np.zeros(2) - coeff.gamma
        state = PlantState(
            com=CoMState(position=com0, velocity=(0, 0), acceleration=(0, 0)),
            zmp_actual=np.zeros(2),
            time=0.0,
        )
        for _ in range(500):
            state = step_plant(state, np.zeros(2), contacts, PARAMS, RHO, DT)
        assert np.allclose(state.com.position, com0, atol=1e-9)

    def test_direct_mode_copies_command(self):
        state = resting_state(zmp=(0.05, 0.0))
        zc = np.array([0.02, -0.01])
        nxt = step_plant(state, zc, (), PARAMS, RHO, DT, direct_zmp=True)
        assert np.all(nxt.zmp_actual == zc)

    def test_lag_is_exact_exponential(self):
        z0 = np.array([0.08, -0.03])
        zc = np.array([0.01, 0.01])
        state = resting_state(zmp=z0)
        for k in range(1, 51):
            state = step_plant(state, zc, (), PARAMS, RHO, DT)
            expected = zc + (z0 - zc) * math.exp(-RHO * k * DT)
            assert np.allclose(state.zmp_actual, expected, atol=1e-12)

    def test_free_dcm_grows_exponentially(self):
        """Pinned ZMP, no contacts: the divergent mode follows 0.01 e^(w t)."""
        xi0 = 0.01
        state = PlantState(
            com=CoMState(
                position=(0.5 * xi0, 0.0),
                velocity=(0.5 * xi0 * OMEGA, 0.0),
                acceleration=(0.0, 0.0),
            ),
            zmp_actual=np.zeros(2),
            time=0.0,
        )
        n = int(0.5 / DT)
        for _ in range(n):
            state = step_plant(state, np.zeros(2), (), PARAMS, RHO, DT, direct_zmp=True)
        xi = state.com.position[0] + state.com.velocity[0] / OMEGA
        assert xi == pytest.approx(xi0 * math.exp(OMEGA * n * DT), rel=1e-3)

    def test_clamp_into_enlarged_region(self):
        rect = SoleRect(-0.13, 0.13, -0.17, 0.17)
        state = resting_state()
        nxt = step_plant(
            state, np.array([0.4, 0.0]), (), PARAMS, RHO, DT,
            direct_zmp=True, clamp_rect=rect,
        )
        assert nxt.zmp_clamped
        assert nxt.zmp_actual[0] == pytest.approx(0.13, abs=1e-15)

    def test_non_finite_state_is_rejected(self):
        with pytest.raises(ValueError, match="position: components must be finite"):
            step_plant(
                resting_state(), np.array([math.inf, 0.0]), (), PARAMS, RHO, DT,
                direct_zmp=True,
            )


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
        contacts = hand_pair(fx=-50.0)
        prof = DisturbanceProfile(kind="step", amplitude=10.0, start_time=4.0)
        assert apply_disturbances(contacts, (prof,), 1.0) is contacts
        assert apply_disturbances(contacts, (), 1.0) is contacts

    def test_apply_targets_one_contact(self):
        contacts = hand_pair(fx=-50.0)
        prof = DisturbanceProfile(
            kind="constant", axis="z", amplitude=40.0, contact_index=1
        )
        out = apply_disturbances(contacts, (prof,), 0.0)
        assert out[0].force[2] == 0.0
        assert out[1].force[2] == 40.0
        assert out[0].force[0] == -50.0

    def test_apply_rejects_missing_contact(self):
        """An index past the contacts present fails instead of being dropped."""
        prof = DisturbanceProfile(kind="constant", amplitude=-400.0, contact_index=7)
        with pytest.raises(IndexError):
            apply_disturbances(hand_pair(fx=-50.0), (prof,), 0.0)

    def test_apply_broadcasts_without_index(self):
        contacts = hand_pair(fx=-50.0)
        prof = DisturbanceProfile(kind="constant", axis="x", amplitude=15.0)
        out = apply_disturbances(contacts, (prof,), 0.0)
        assert all(c.force[0] == -35.0 for c in out)


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
        traj = plan_trajectory(standing_timeline(duration=4.0))
        stab = make_stabilizer(
            gains=StabilizerGains(k_p=0.0), check_stability=False
        )
        initial = PlantState(
            com=CoMState(
                position=traj.com_pos[0] + np.array([0.05, 0.0]),
                velocity=(0.0, 0.0),
                acceleration=(0.0, 0.0),
            ),
            zmp_actual=np.array(traj.zmp[0]),
            time=0.0,
        )
        trace = run_closed_loop(traj, stab, initial=initial, direct_zmp=True)
        assert trace.diverged
        assert trace.diverged_at is not None
        assert trace.diverged_at < 4.0
        assert len(trace) < len(traj.time)

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
        divergence_limit=cfg.plant.divergence_limit_m,
    )


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


class TestOneLaw:
    """The closed loop and the per-sample API run the same laws."""

    @pytest.mark.parametrize(
        "overrides",
        [
            (),
            (
                "disturbances=[{kind: sinusoid, axis: x, amplitude_n: 40.0, "
                "period_s: 0.3, start_s: 0.1, contact_index: 1}]",
            ),
        ],
        ids=["testcase1", "testcase1-push"],
    )
    def test_loop_matches_per_sample_steps(self, overrides):
        bundle = scenario_bundle("testcase1", *overrides)
        traj = first_samples(bundle.traj, 500)
        trace = loop_of(dataclasses.replace(bundle, traj=traj))

        stab = bundle.stabilizer
        by_hand = Stabilizer(
            stab.params, stab.gains, stab.dt, compensate_forces=stab.compensate_forces
        )
        state = PlantState(
            com=CoMState(
                position=traj.com_pos[0],
                velocity=traj.com_vel[0],
                acceleration=traj.com_acc[0],
            ),
            zmp_actual=np.array(traj.zmp[0]),
            time=float(traj.time[0]),
        )
        logged = {name: [] for name in (
            "z_x^c", "z_y^c", "gamma_err_x", "gamma_err_y", "gammaH_x",
            "gammaH_y", "gammaL_x", "gammaL_y", "zmp_saturated",
            "cop_clamped", "zmp_clamped", "c_x^a",
        )}
        for k in range(len(traj.timeline)):
            frame = traj.timeline.frame(k)
            true = apply_disturbances(frame.contacts, bundle.disturbances, traj.time[k])
            out = by_hand.step(
                DesiredSample(
                    com_pos=traj.com_pos[k],
                    com_acc=traj.com_acc[k],
                    dcm=traj.dcm[k],
                    zmp=traj.zmp[k],
                    coefficients=frame.coefficients,
                    contacts=frame.contacts,
                    support_region=frame.support_region,
                    support_feet=frame.support_feet,
                ),
                ActualSample(
                    com_pos=state.com.position,
                    com_vel=state.com.velocity,
                    contacts=true,
                ),
            )
            for axis, i in (("x", 0), ("y", 1)):
                logged[f"z_{axis}^c"].append(out.command_zmp[i])
                logged[f"gamma_err_{axis}"].append(out.gamma_err[i])
                logged[f"gammaH_{axis}"].append(out.gamma_high[i])
                logged[f"gammaL_{axis}"].append(out.gamma_low[i])
            logged["zmp_saturated"].append(float(out.zmp_saturated))
            logged["cop_clamped"].append(float(out.cop_clamped))
            logged["c_x^a"].append(state.com.position[0])
            base = SoleRect.bounding(frame.support_region)
            m = ZMP_CLAMP_MARGIN
            state = step_plant(
                state, out.command_zmp, true, stab.params, stab.gains.rho, traj.dt,
                clamp_rect=SoleRect(
                    base.xmin - m, base.xmax + m, base.ymin - m, base.ymax + m
                ),
            )
            logged["zmp_clamped"].append(float(state.zmp_clamped))

        assert len(trace) == 500
        for name, values in logged.items():
            column = trace.columns.get(name, trace.extra.get(name))
            assert np.array(values).tobytes() == column.tobytes(), name
        if overrides:
            assert np.any(trace["gammaH_x"] != 0.0)
        # the loop leaves its stabilizer where the per-sample steps leave theirs
        assert stab.state == by_hand.state

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
