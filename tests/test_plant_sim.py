"""Unit tests for the point-mass plant, disturbances, and the closed loop."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
from oracles import closed_loop_by_sample, disturbed_rows, write_trace_savetxt
from test_trace_digests import NOISY, PUSHED

from locomanip import plant_sim
from locomanip import stabilizer as stabilizer_module
from locomanip.core_dynamics import (
    compute_coefficients,
    contact_rows,
    dcm_of,
    ext_zmp,
)
from locomanip.errors import Infeasible, NonPhysical
from locomanip.pattern_generator import generate_trajectory, synthesize_gains
from locomanip.plant_sim import (
    CSV_COLUMNS,
    CSV_WRITE_ROWS,
    DIVERGENCE_LIMIT,
    EXTRA_COLUMNS,
    STEP_FAILURES,
    DisturbanceProfile,
    TraceLog,
    _format_rows,
    _g17_scaled,
    _g17_tables,
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
    trace_checksum,
)
from locomanip.stabilizer import Stabilizer, StabilizerGains

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


def one_sample(rows):
    """contact_rows of floats as contact_rows of one-sample arrays."""
    return tuple(tuple(np.full(1, v) for v in r) for r in rows)


def disturbed_at(rows, profiles, t):
    """apply_disturbances over the one time t, as float contact_rows; the
    per-sample oracle gives the same."""
    out = apply_disturbances(one_sample(rows), profiles, np.array([t]))
    floats = tuple(tuple(v.item() for v in r) for r in out)
    assert floats == disturbed_rows(rows, profiles, t)
    return floats


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
        # a NaN start acted from t = 0 forever, a NaN end never ended
        for window in (
            {"start_time": math.nan},
            {"start_time": math.inf},
            {"start_time": -math.inf},
            {"end_time": math.nan},
        ):
            with pytest.raises(ValueError, match="start_time must be finite"):
                DisturbanceProfile(kind="step", amplitude=10.0, **window)

    def test_window_and_shape(self):
        prof = DisturbanceProfile(
            kind="sinusoid", axis="x", amplitude=30.0, period=2.0,
            start_time=1.0, end_time=5.0,
        )
        assert prof.value(np.array([0.5, 5.0, 1.5])).tolist() == pytest.approx(
            [0.0, 0.0, 30.0]
        )
        const = DisturbanceProfile(kind="constant", axis="y", amplitude=-5.0)
        assert const.value(np.array([0.0, 1e6])).tolist() == [-5.0, -5.0]

    def test_apply_returns_same_tuple_when_inactive(self):
        rows = one_sample(contact_rows(hand_pair(fx=-50.0)))
        prof = DisturbanceProfile(kind="step", amplitude=10.0, start_time=4.0)
        assert apply_disturbances(rows, (prof,), np.array([1.0])) is rows
        assert apply_disturbances(rows, (), np.array([1.0])) is rows
        assert disturbed_rows(rows, (prof,), 1.0) is rows

    def test_apply_targets_one_contact(self):
        contacts = hand_pair(fx=-50.0)
        prof = DisturbanceProfile(
            kind="constant", axis="z", amplitude=40.0, contact_index=1
        )
        out = disturbed_at(contact_rows(contacts), (prof,), 0.0)
        assert out[0][2] == 0.0
        assert out[1][2] == 40.0
        assert out[0][0] == -50.0

    def test_apply_rejects_missing_contact(self):
        """An index past the contacts present fails instead of being dropped."""
        prof = DisturbanceProfile(kind="constant", amplitude=-400.0, contact_index=7)
        rows = contact_rows(hand_pair(fx=-50.0))
        with pytest.raises(IndexError):
            apply_disturbances(one_sample(rows), (prof,), np.array([0.0]))
        with pytest.raises(IndexError):
            disturbed_rows(rows, (prof,), 0.0)

    def test_apply_broadcasts_without_index(self):
        contacts = hand_pair(fx=-50.0)
        prof = DisturbanceProfile(kind="constant", axis="x", amplitude=15.0)
        out = disturbed_at(contact_rows(contacts), (prof,), 0.0)
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
        by_sample = [disturbed_rows(rows, profiles, t) for t in times.tolist()]
        assert sum(r is rows for r in by_sample) > 100
        assert profiles[0].value(np.array([0.5])).tolist() == [0.0]
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

    def test_apply_rejects_a_profile_without_index_on_no_contact(self):
        """A profile without contact_index that acts where no contact is
        present fails instead of being dropped; a phase overflow is still
        named first."""
        times = np.arange(10) * 0.002
        none = ()
        late = DisturbanceProfile(kind="step", amplitude=5.0, start_time=1.0)
        assert apply_disturbances(none, (late,), times) is none
        acting = dataclasses.replace(late, start_time=0.01)
        with pytest.raises(IndexError, match="no contact is present"):
            apply_disturbances(none, (acting,), times)
        fast = DisturbanceProfile(kind="sinusoid", amplitude=5.0, period=1e-310)
        with pytest.raises(ValueError, match="period 1e-310 too short"):
            apply_disturbances(none, (fast,), times)


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

    @pytest.mark.parametrize(
        "noise", [{"com_noise": 1e-4}, {"force_noise": 0.5}], ids=["com", "force"]
    )
    def test_noise_without_seed_is_refused(self, noise):
        """Noise drawn from OS entropy would give a different trace on each
        run, so it is refused before the first step; a seed of 0 is a seed."""
        traj = plan_trajectory(standing_timeline(duration=0.2))
        with pytest.raises(ValueError, match="noise needs a seed"):
            run_closed_loop(traj, make_stabilizer(), **noise)
        a = run_closed_loop(traj, make_stabilizer(), seed=0, **noise)
        b = run_closed_loop(traj, make_stabilizer(), seed=0, **noise)
        for name in CSV_COLUMNS:
            assert np.array_equal(a[name], b[name]), name

    def test_overflowing_sinusoid_phase_names_the_period(self):
        """A sinusoid whose phase overflows within the run: a ValueError
        that names the period, not math.sin's domain error after a
        RuntimeWarning."""
        traj = plan_trajectory(standing_timeline(duration=0.2))
        prof = DisturbanceProfile(kind="sinusoid", amplitude=10.0, period=1e-310)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="period 1e-310 too short"):
                run_closed_loop(traj, make_stabilizer(), disturbances=(prof,))
            with pytest.raises(ValueError, match="period"):
                prof.value(np.array([0.1]))

    def test_stabilizer_at_another_rate_is_refused(self):
        traj = plan_trajectory(standing_timeline(duration=0.2))
        with pytest.raises(ValueError, match="different rates"):
            run_closed_loop(traj, make_stabilizer(dt=2 * DT))

    def test_stabilizer_for_another_pendulum_is_refused(self):
        traj = plan_trajectory(standing_timeline(duration=0.2))
        taller = dataclasses.replace(PARAMS, com_height=PARAMS.com_height + 0.1)
        with pytest.raises(ValueError, match="different pendulum frequency"):
            run_closed_loop(traj, Stabilizer(taller, StabilizerGains(), DT))

    @pytest.mark.parametrize(
        "setting, match",
        [
            ({"divergence_limit": math.nan}, "divergence_limit"),
            ({"divergence_limit": 0.0}, "divergence_limit"),
            ({"divergence_limit": -1.0}, "divergence_limit"),
            ({"com_noise": -1e-4}, "noise"),
            ({"com_noise": math.nan}, "noise"),
            ({"com_noise": math.inf}, "noise"),
            ({"force_noise": -5.0}, "noise"),
            ({"force_noise": math.nan}, "noise"),
        ],
    )
    def test_setting_that_would_turn_off_a_check_or_the_noise_is_refused(
        self, setting, match
    ):
        """A NaN limit never trips the divergence test and a negative or NaN
        noise level draws no noise; each is refused before the first step."""
        traj = plan_trajectory(standing_timeline(duration=0.2))
        with pytest.raises(ValueError, match=match):
            run_closed_loop(traj, make_stabilizer(), seed=1, **setting)

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

    @pytest.mark.parametrize("pushed", [False, True], ids=["completed", "diverged"])
    def test_plan_columns_are_views_of_the_plan(self, pushed):
        """The nine columns that equal the plan share its memory and are
        read-only, also in a truncated trace; the loop's columns share
        none of it, and the flags are bool."""
        traj = plan_trajectory(
            standing_timeline(duration=2.0, schedule=constant_schedule(hand_pair()))
        )
        push = DisturbanceProfile(kind="step", amplitude=-200.0, start_time=0.5)
        trace = run_closed_loop(
            traj, make_stabilizer(), disturbances=(push,) if pushed else (),
            direct_zmp=True,
        )
        assert trace.diverged == pushed
        assert np.shares_memory(traj.time, traj.timeline.time)
        plan = {"time": traj.time}
        for ax in "xy":
            plan |= {
                f"c_{ax}^d": traj.com_pos, f"xi_{ax}^d": traj.dcm,
                f"z_{ax}^d": traj.zmp, f"extzmp_{ax}^ref": traj.timeline.ext_zmp_ref,
            }
        assert len(plan) == 9
        for name in CSV_COLUMNS:
            if name not in plan:
                assert not any(np.shares_memory(trace[name], p) for p in plan.values())
                continue
            assert np.shares_memory(trace[name], plan[name]), name
            assert not trace[name].flags.writeable, name
        for name in EXTRA_COLUMNS:
            assert trace.extra[name].dtype == bool, name
            assert len(trace.extra[name]) == len(trace)


def random_trace(rows, dt=DT, special=False):
    """A trace of rows samples at dt with random columns; with special, its
    values include nan, inf, -inf and -0.0."""
    rng = np.random.default_rng(rows)
    columns = {name: rng.standard_normal(rows) for name in CSV_COLUMNS}
    columns["time"] = np.arange(rows) * dt
    if special and rows:
        for i, value in enumerate((math.nan, math.inf, -math.inf, -0.0, 0.0)):
            columns[CSV_COLUMNS[1 + i]][rows // 2] = value
    return TraceLog(dt=dt, columns=columns)


class TestTraceCsv:
    """The blocked writer and reader against the whole-array np.savetxt form."""

    BLOCK = plant_sim.BLOCK_SAMPLES

    @pytest.mark.parametrize(
        "rows", [0, 1, 2, BLOCK, BLOCK + 1, 2 * BLOCK + 3],
        ids=["header-only", "one-row", "two-rows", "one-block", "block-plus-one",
             "two-blocks-plus-three"],
    )
    def test_bytes_equal_the_whole_array_writer(self, tmp_path, rows):
        trace = random_trace(rows, special=True)
        blocked, whole = tmp_path / "blocked.csv", tmp_path / "whole.csv"
        trace.to_csv(blocked)
        write_trace_savetxt(trace, whole, CSV_COLUMNS)
        assert blocked.read_bytes() == whole.read_bytes()
        if rows < 2:
            with pytest.raises(ValueError, match="need a time column with at least 2 rows"):
                TraceLog.from_csv(blocked)
            return
        back = TraceLog.from_csv(blocked)
        assert tuple(back.columns) == CSV_COLUMNS
        for name in CSV_COLUMNS:
            # bit for bit: nan, the infinities and the sign of -0.0 too
            assert back[name].tobytes() == trace[name].tobytes(), name
            assert back[name].flags.owndata, name

    WRITE = CSV_WRITE_ROWS

    @pytest.mark.parametrize(
        "rows", [WRITE - 1, WRITE, WRITE + 1, 2 * WRITE, 3 * WRITE + 5],
        ids=["write-block-minus-one", "one-write-block", "write-block-plus-one",
             "two-write-blocks", "three-write-blocks-plus-five"],
    )
    def test_write_block_edges(self, tmp_path, rows):
        """On the edges of the writer's blocks too: the bytes of the
        whole-array writer, and the checksum of what was written."""
        trace = random_trace(rows, special=True)
        blocked, whole = tmp_path / "blocked.csv", tmp_path / "whole.csv"
        checksum = trace.to_csv(blocked)
        write_trace_savetxt(trace, whole, CSV_COLUMNS)
        assert blocked.read_bytes() == whole.read_bytes()
        assert checksum == trace_checksum(blocked)

    def test_blank_and_comment_lines_are_skipped(self, tmp_path):
        trace = random_trace(self.BLOCK + 5)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        # a blank and a comment line on the first block's edge, more at the end
        lines[self.BLOCK + 1 : self.BLOCK + 1] = ["\n", "# note\n"]
        path.write_text("".join(lines) + "\n\n# end\n")
        back = TraceLog.from_csv(path)
        whole = np.loadtxt(path, delimiter=",", skiprows=1)
        for i, name in enumerate(CSV_COLUMNS):
            assert back[name].tobytes() == whole[:, i].tobytes(), name

    def test_header_and_row_widths_must_agree(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,a,b\n0.0,1.0\n0.1,2.0\n")
        with pytest.raises(ValueError, match="row width does not match header"):
            TraceLog.from_csv(path)

    def test_comment_lines_alone_are_too_short(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,a\n# only a note\n\n")
        with pytest.raises(ValueError, match="need a time column with at least 2 rows"):
            TraceLog.from_csv(path)


def g17_text(values) -> bytes:
    """The text _format_rows gives for values, each followed by a comma."""
    x = np.array(values, dtype=np.float64)
    seps = np.full(len(x), ord(","), np.int64) << 56
    cell = np.empty((len(x), 4), "<i8")
    return b"".join(bytes(piece) for piece in _format_rows(x, seps, cell))


def printf_text(values) -> bytes:
    return "".join("%.17g," % v for v in values).encode()


def neighbours(values):
    """Each value and the doubles one ulp below and above it."""
    values = np.array(values, dtype=np.float64)
    return [*values, *np.nextafter(values, -np.inf), *np.nextafter(values, np.inf)]


def _edge_values():
    tiny, huge = np.finfo(np.float64).smallest_normal, np.finfo(np.float64).max
    sub = np.finfo(np.float64).smallest_subnormal
    g17_min, g17_max = plant_sim._G17_MIN, plant_sim._G17_MAX
    values = [
        0.0, math.nan, -math.nan, math.inf,
        sub, tiny - sub, tiny, huge,
        *neighbours([10.0**k for k in range(-300, 301)]),
        *neighbours([float(f"1e{k}") for k in range(-300, 301)]),
        # %g's notation boundaries, and two- against three-digit exponents
        *neighbours([1e-5, 1e-4, 9.9999999999999995e-5, 1e16, 1e17, 9.9999999999999998e16]),
        *neighbours([1e99, 1e100, 1e-99, 1e-100, 9.9999999999999997e99, 9.99e-100]),
        # exact ties of the 17th digit (odd/4 near 1e15, odd/8 near 1e14),
        # and values an ulp off them
        *neighbours([1e15 + k / 4 for k in range(-15, 17, 2)]),
        *neighbours([1e14 + k / 8 for k in range(-15, 17, 2)]),
        # the edges of the fast range
        *neighbours([g17_min, g17_max, 1e-251, 1e251, 9.99e-251, 1.01e250]),
        # trailing zeros and short fractions
        1.0, 10.0, 100.0, 0.01, 0.1, 0.3, 0.5, 1.5, 123.456, 1e15 + 0.5, 2.0**52,
        2.0**63, 2.0**-1022, 1.0 - 2.0**-53, 1.0 + 2.0**-52, 0.1 + 0.2,
        12345678901234567.0, 98765432109876543e3,
    ]
    return [v for value in values for v in (value, -value)]


class TestPercentG17:
    """_format_rows against '%.17g' % x: every double gives the same text."""

    def test_edge_values(self):
        values = _edge_values()
        assert g17_text(values) == printf_text(values)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
    def test_one_value_each(self, sign):
        """Each edge value alone: the fallback's splice at either end."""
        for v in _edge_values()[::7]:
            assert g17_text([sign * v]) == printf_text([sign * v]), v

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        st.lists(
            st.one_of(
                st.integers(0, 2**64 - 1).map(
                    lambda bits: float(np.array(bits, np.uint64).view(np.float64))
                ),
                st.floats(),
            ),
            min_size=1, max_size=80,
        )
    )
    def test_every_bit_pattern(self, values):
        assert g17_text(values) == printf_text(values)

    @pytest.mark.parametrize("error", [-1.0, -1e-12, 1e-12, 1.0])
    def test_misestimated_exponent_falls_back(self, monkeypatch, error):
        """A log10 that is off, by a whole decade or near the powers of ten
        only, moves no byte: D then lacks 17 digits and the value falls
        back."""
        values = _edge_values()
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + error)
        assert g17_text(values) == printf_text(values)

    def test_ties_fall_back(self):
        """A scaled value within 1e-9 of a tie is not certified, even where
        the product is exact."""
        x = np.array([1e15 + 0.25, -1e15 - 0.75, 1e14 + 0.125])
        assert not _g17_scaled(x, _g17_tables())[2].any()

    def test_common_values_take_the_fast_path(self):
        """Powers of ten, where log10 is exact and D is 10**16, and every
        value of a bundled trace take no fallback."""
        tab = _g17_tables()
        x = np.array([1.0, 10.0, 0.01, -100.0, 1e-4, 1e16, -0.0, 0.0, 0.005, 51.0])
        assert _g17_scaled(x, tab)[2].all()
        trace = loop_of(scenario_bundle("testcase1", "duration_s=2.0"))
        x = np.concatenate([trace[name] for name in CSV_COLUMNS])
        assert _g17_scaled(x, tab)[2].all()


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


def oracle_of(bundle):
    """closed_loop_by_sample with the run settings loop_of passes."""
    cfg = bundle.config
    return closed_loop_by_sample(
        bundle.traj,
        bundle.stabilizer,
        disturbances=bundle.disturbances,
        direct_zmp=cfg.plant.direct_zmp,
        com_noise=cfg.plant.com_noise_m,
        force_noise=cfg.plant.force_noise_n,
        seed=cfg.seed,
        divergence_limit=cfg.plant.divergence_limit_m,
    )


def assert_trace_is_oracle(trace, oracle):
    """Every column and flag, the stop and its time as the oracle's, bit
    for bit."""
    for name in CSV_COLUMNS:
        assert trace[name].tobytes() == oracle.columns[name].tobytes(), name
    for name in EXTRA_COLUMNS:
        assert trace.extra[name].dtype == oracle.columns[name].dtype == bool, name
        assert trace.extra[name].tobytes() == oracle.columns[name].tobytes(), name
    assert trace.diverged == (oracle.diverged_at is not None)
    assert trace.diverged_at == oracle.diverged_at
    if oracle.failure is None:
        assert trace.failure is None
    else:
        assert trace.failure == type(oracle.failure).__name__
        assert trace.failure_detail == str(oracle.failure)
    assert trace.failed_at == oracle.failed_at


def plan_arrays(traj):
    """The arrays of the plan whose columns a trace of run_closed_loop views."""
    return (traj.time, traj.com_pos, traj.dcm, traj.zmp, traj.timeline.ext_zmp_ref)


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


# a 60 N push on both hands from 2.0 to 2.4 s
SHOVE = (
    "disturbances=[{kind: step, axis: x, amplitude_n: 60.0, "
    "start_s: 2.0, end_s: 2.4}]"
)

# four forward steps, each foot placed 0.1 m ahead of the other, and the
# shove: nine support phases, each with its own hull
WALK = (
    "gait={kind: footsteps, footsteps: ["
    "{foot: left, position_m: [0.1, 0.1], start_s: 1.0, end_s: 1.7}, "
    "{foot: right, position_m: [0.2, -0.1], start_s: 1.7, end_s: 2.4}, "
    "{foot: left, position_m: [0.3, 0.1], start_s: 2.4, end_s: 3.1}, "
    "{foot: right, position_m: [0.4, -0.1], start_s: 3.1, end_s: 3.8}]}",
    SHOVE,
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
            (SHOVE,),
            NOISY,
            ONE_HAND_LEFT,
            WALK,
        ],
        ids=[
            "testcase1",
            "testcase1-push",
            "testcase1-shove",
            "testcase1-noisy",
            "testcase1-one-hand-left",
            "testcase1-walk",
        ],
    )
    def test_loop_matches_per_sample_steps(self, overrides):
        """4.5 s of testcase1: the first steps (support phases change from
        1.8 s) and a hand ramp (one contact set per sample), so the loop's
        per-phase and per-block tables are compared with hull edges, clamp
        bounds and contact rows rebuilt on every sample. The shove
        saturates the command in single support, where a stale
        double-support hull would not. The noisy runs draw per step, in the
        order CoM 2, velocity 2, then 3 per contact, against the loop's
        block draws; the one-hand run also changes its contact count. The
        walk steps forward through nine support phases, each stance with
        its own hull and clamp bounds."""
        n = 2250
        bundle = scenario_bundle("testcase1", *overrides)
        traj = first_samples(bundle.traj, n)
        trace = loop_of(dataclasses.replace(bundle, traj=traj))
        timeline = traj.timeline
        assert len(set(timeline.phase.tolist())) > 2
        assert len(set(timeline.contact_index.tolist())) > 2

        oracle = oracle_of(dataclasses.replace(bundle, traj=traj))
        assert oracle.failure is None and oracle.diverged_at is None

        assert len(trace) == n
        assert_trace_is_oracle(trace, oracle)
        if overrides:
            assert np.any(trace["gammaH_x"] != 0.0)
        if SHOVE in overrides:
            single = np.array([len(f) == 1 for f in timeline.support_feet])[
                timeline.phase
            ]
            assert np.any(trace.extra["zmp_saturated"][single] != 0.0)
        if overrides == WALK:
            assert len(set(timeline.phase.tolist())) == 9
            assert np.any(trace.extra["cop_clamped"])
        if overrides == ONE_HAND_LEFT:
            counts = np.diff(timeline.contact_start)[timeline.contact_index]
            assert set(counts.tolist()) == {1, 2}

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


class TestReuse:
    """A Stabilizer holds no run state: a bundle that drives a second run, or
    a stabilizer that drives two plans in turn, gives a fresh one's trace."""

    @staticmethod
    def trace_bytes(trace, path):
        """The trace's CSV bytes and its flags' bytes."""
        trace.to_csv(path)
        return path.read_bytes(), [trace.extra[n].tobytes() for n in EXTRA_COLUMNS]

    @pytest.mark.parametrize("name", ["testcase3", "cart-like"])
    def test_bundle_drives_two_runs(self, name, tmp_path):
        bundle = scenario_bundle(name)
        held = dict(vars(bundle.stabilizer))
        fresh = self.trace_bytes(loop_of(scenario_bundle(name)), tmp_path / "fresh.csv")
        for run in ("first", "second"):
            trace = loop_of(bundle)
            assert self.trace_bytes(trace, tmp_path / f"{run}.csv") == fresh, run
        assert vars(bundle.stabilizer) == held

    def test_interleaved_plans_on_one_stabilizer(self, monkeypatch, tmp_path):
        """testcase3's stabilizer runs 2.2 s of cart-like's plan between
        every two blocks of its own run: both runs give the traces they give
        alone."""
        walk, fresh = scenario_bundle("testcase3"), scenario_bundle("testcase3")
        cart = scenario_bundle("cart-like")
        cart = dataclasses.replace(
            cart, traj=first_samples(cart.traj, 1100), stabilizer=walk.stabilizer
        )
        alone = dataclasses.replace(cart, stabilizer=fresh.stabilizer)
        cart_alone = self.trace_bytes(loop_of(alone), tmp_path / "cart.csv")
        walk_alone = self.trace_bytes(loop_of(fresh), tmp_path / "walk.csv")

        open_loop = plant_sim._open_loop_block
        between = []

        def interleaved(traj, *args):
            if traj is walk.traj:
                between.append(loop_of(cart))
            return open_loop(traj, *args)

        monkeypatch.setattr(plant_sim, "_open_loop_block", interleaved)
        walk_trace = loop_of(walk)
        assert self.trace_bytes(walk_trace, tmp_path / "walk-shared.csv") == walk_alone
        assert len(between) > 40
        for i, trace in enumerate(between):
            assert self.trace_bytes(trace, tmp_path / f"cart-{i}.csv") == cart_alone, i


def test_ground_wrench_pass_makes_no_scalar_clamp(monkeypatch):
    """On cart-like the ground-wrench pass tests its hulls on arrays only:
    none of its 21 flags comes from a call of the float clamp _clamp_xy.
    The feedback pass makes at most one per step, in Stabilizer.step."""
    calls = {"feedback": 0, "ground_wrench": 0}
    pass_ = ["feedback"]
    clamp = stabilizer_module._clamp_xy
    ground_wrench = Stabilizer.ground_wrench

    def counted_clamp(*args):
        calls[pass_[0]] += 1
        return clamp(*args)

    def marked_ground_wrench(self, *args):
        pass_[0] = "ground_wrench"
        try:
            return ground_wrench(self, *args)
        finally:
            pass_[0] = "feedback"

    monkeypatch.setattr(stabilizer_module, "_clamp_xy", counted_clamp)
    monkeypatch.setattr(Stabilizer, "ground_wrench", marked_ground_wrench)
    trace = loop_of(scenario_bundle("cart-like"))
    assert trace.extra["cop_clamped"].sum() == 21
    assert calls["ground_wrench"] == 0
    assert 0 < calls["feedback"] <= len(trace)


class TestBlocks:
    """The open-loop pass runs per block of BLOCK_SAMPLES samples; no block
    size may show in the trace or its flags."""

    @staticmethod
    def blocked(monkeypatch, size, *overrides):
        """The trace of testcase1 with blocks of `size`."""
        monkeypatch.setattr(plant_sim, "BLOCK_SAMPLES", size)
        bundle = scenario_bundle("testcase1", *overrides)
        try:
            return loop_of(bundle)
        except STEP_FAILURES as exc:
            return exc.trace

    @staticmethod
    def assert_same(ta, tb):
        for name in ta.columns:
            assert ta[name].tobytes() == tb[name].tobytes(), name
        for name in ta.extra:
            assert ta.extra[name].tobytes() == tb.extra[name].tobytes(), name
        for attr in ("diverged", "diverged_at", "failure", "failed_at"):
            assert getattr(ta, attr) == getattr(tb, attr), attr

    def test_block_size_does_not_show(self, monkeypatch):
        overrides = (
            "duration_s=6.0",
            "disturbances=[{kind: sinusoid, axis: x, amplitude_n: 40.0, "
            "period_s: 0.3, start_s: 0.1, end_s: 4.5, contact_index: 1}]",
            *NOISY,
        )
        default = self.blocked(monkeypatch, plant_sim.BLOCK_SAMPLES, *overrides)
        assert len(default) == 3000
        for size in (1, 7):
            self.assert_same(self.blocked(monkeypatch, size, *overrides), default)

    @pytest.mark.parametrize(
        "overrides, stop", [(PUSHED, "diverged"), (UNLOADING, "Infeasible")],
        ids=["diverged", "failed"],
    )
    def test_stop_on_a_block_edge(self, monkeypatch, overrides, stop):
        """The stopping step k as the first sample of a block (size k) and
        as the last (size k + 1), against the default blocks."""
        trace = default = self.blocked(monkeypatch, plant_sim.BLOCK_SAMPLES, *overrides)
        if stop == "diverged":
            assert trace.diverged
            k = len(trace) - 1
        else:
            assert trace.failure == stop
            k = len(trace)
        for size in (k, k + 1):
            self.assert_same(self.blocked(monkeypatch, size, *overrides), default)

    # the lifted sample and the block size that puts it first in a block,
    # in its middle and last; sample 0 of the run with the default blocks
    LIFT_EDGES = {
        "run-start": (0, None),
        "block-first": (1000, 500),
        "block-middle": (1000, 400),
        "block-last": (1000, 1001),
    }

    @staticmethod
    def lifted_runs(
        monkeypatch, size, share, start, *, divergence_limit=DIVERGENCE_LIMIT, push=(),
        **noise,
    ):
        """run_closed_loop and closed_loop_by_sample over 2.4 s of in-place
        stepping (single support from 1.8 s) with both hands lifted by
        `share` of the weight each from sample `start`, blocks of `size`
        (None: the default). Returns (trace, loop failure, oracle); the loop
        and the oracle share one stabilizer."""
        if size is not None:
            monkeypatch.setattr(plant_sim, "BLOCK_SAMPLES", size)
        traj = plan_trajectory(
            inplace_timeline(duration=2.4, schedule=constant_schedule(hand_pair()))
        )
        lift = DisturbanceProfile(
            kind="step", axis="z", amplitude=share * PARAMS.mass * PARAMS.gravity,
            start_time=float(traj.time[start]),
        )
        kwargs = dict(
            disturbances=(*push, lift), divergence_limit=divergence_limit, seed=7,
            **noise,
        )
        stab = make_stabilizer()
        failure = None
        try:
            trace = run_closed_loop(traj, stab, **kwargs)
        except STEP_FAILURES as exc:
            failure, trace = exc, exc.trace
        return trace, failure, closed_loop_by_sample(traj, stab, **kwargs)

    @pytest.mark.parametrize("edge", list(LIFT_EDGES))
    @pytest.mark.parametrize(
        "share, error, noise",
        [
            (0.5, NonPhysical, {}),
            # force noise would leave the feet some load: CoM noise only
            (0.5, NonPhysical, {"com_noise": 5e-4}),
            (0.6, Infeasible, {}),
            (0.6, Infeasible, {"com_noise": 5e-4, "force_noise": 5.0}),
        ],
        ids=["nonphysical", "nonphysical-com-noise", "infeasible", "infeasible-noisy"],
    )
    def test_unloaded_sample_on_a_block_edge(
        self, monkeypatch, edge, share, error, noise
    ):
        """Hands that carry the whole weight (NonPhysical) or more
        (Infeasible) from sample k: the loop finds k ahead, steps to it and
        raises there, as the per-sample loop does."""
        k, size = self.LIFT_EDGES[edge]
        trace, failure, oracle = self.lifted_runs(monkeypatch, size, share, k, **noise)
        assert type(failure) is error and type(oracle.failure) is error
        assert str(failure) == str(oracle.failure)
        assert len(trace) == k
        assert_trace_is_oracle(trace, oracle)

    def test_divergence_before_the_unloaded_sample(self, monkeypatch):
        """A push that diverges the run a few steps before the hands unload
        the feet, in the same block: the run ends diverged, not failed."""
        push = (
            DisturbanceProfile(kind="step", axis="x", amplitude=-400.0, start_time=0.5),
        )
        first = self.lifted_runs(
            monkeypatch, None, 0.6, 1199, push=push, divergence_limit=0.02
        )
        diverged = len(first[0]) - 1
        assert first[0].diverged and diverged < 1190
        start = diverged + 5
        trace, failure, oracle = self.lifted_runs(
            monkeypatch, start + 50, 0.6, start, push=push, divergence_limit=0.02
        )
        assert failure is None and oracle.failure is None
        assert trace.diverged and len(trace) == diverged + 1
        assert_trace_is_oracle(trace, oracle)


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


def loop_bytes(trace, traj):
    """The bytes of the trace's columns and flags that run_closed_loop
    allocated: all but its views of the plan."""
    return sum(
        a.nbytes
        for a in (*trace.columns.values(), *trace.extra.values())
        if not any(np.shares_memory(a, p) for p in plan_arrays(traj))
    )


def loop_excess_mb(bundle, seconds):
    """Peak memory traced inside run_closed_loop over the first `seconds` of
    the plan, minus the bytes of the columns the loop allocated, in MB."""
    run = dataclasses.replace(
        bundle, traj=first_samples(bundle.traj, round(seconds / bundle.traj.dt))
    )
    trace, peak = traced_peak(lambda: loop_of(run))
    return (peak - loop_bytes(trace, run.traj)) / 1e6


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
    of the timeline, minus the bytes of the arrays it allocated for the
    plan, in MB."""
    timeline = first_samples(bundle.traj, round(seconds / bundle.traj.dt)).timeline
    traj, peak = traced_peak(lambda: generate_trajectory(timeline, gains))
    # the plan's time is the timeline's own
    own = sum(
        getattr(traj, f.name).nbytes
        for f in dataclasses.fields(traj)
        if f.name not in ("timeline", "time")
    )
    return (peak - own) / 1e6


def test_plan_memory_does_not_grow_with_the_run():
    """Beyond its plan, generate_trajectory holds a padded copy of the
    reference and the jerk scratch (16 bytes a sample each) and one
    feedforward block's temporaries at a time. Its peak comes before the
    plan's DCM is allocated, so the excess grows by 16 bytes a sample: the
    same excess, to 0.25 MB, over 20 s as over 40 s. Both spans are longer
    than one block of 8000 samples; a 10 s plan is one shorter block with
    smaller temporaries."""
    bundle = scenario_bundle("testcase3")
    c = bundle.config.controller
    gains = synthesize_gains(
        c.preview_weights(), bundle.traj.omega, bundle.traj.dt, c.preview_window_s
    )
    plan_excess_mb(bundle, gains, 1.0)  # first-call caches
    short, long = (plan_excess_mb(bundle, gains, s) for s in (20.0, 40.0))
    assert abs(long - short) < 0.25, (short, long)


def test_plan_retains_only_its_arrays():
    """Once generate_trajectory returns, what it allocated is the plan's
    five (n, 2) arrays (CoM position, velocity and acceleration, DCM and
    ZMP), to 64 KB: the jerk and the scaled output stay inside the
    rollout."""
    bundle = scenario_bundle("testcase3")
    timeline = bundle.traj.timeline
    c = bundle.config.controller
    gains = synthesize_gains(
        c.preview_weights(), timeline.omega, timeline.dt, c.preview_window_s
    )
    generate_trajectory(timeline, gains)  # first-call caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = generate_trajectory(timeline, gains)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    outputs = 5 * len(traj) * 2 * 8
    assert retained <= outputs + 64 * 1024, (retained, outputs)


def trace_io_excess_mb(tmp_path, seconds, dt=0.005):
    """Peak memory traced inside to_csv and inside from_csv of a random trace
    of `seconds` at dt, each minus the bytes of the trace's own columns, in
    MB. The written trace is made before tracing starts. Under tracemalloc
    the write runs about 20 times slower, so the rate is coarser than DT."""
    trace = random_trace(round(seconds / dt), dt)
    path = tmp_path / "trace.csv"
    _, write = traced_peak(lambda: trace.to_csv(path))
    back, read = traced_peak(lambda: TraceLog.from_csv(path))
    own = sum(a.nbytes for a in back.columns.values())
    return write / 1e6, (read - own) / 1e6


def test_trace_write_memory_is_bounded(tmp_path):
    """Beyond the trace, to_csv holds under 0.5 MB for a 40 s trace: one
    write block's cells and arrays, where a copy of the trace's 8000 rows
    would add 1.7 MB and their text 3.5 MB."""
    trace_io_excess_mb(tmp_path, 1.0)  # first-call caches
    write, _ = trace_io_excess_mb(tmp_path, 40.0)
    assert write < 0.5, write


def test_trace_io_memory_does_not_grow_with_the_trace(tmp_path):
    """Beyond the trace, to_csv and from_csv hold one block of rows at a
    time: the same excess, to 0.25 MB, for a 10 s as for a 40 s trace (2000
    and 8000 rows; a whole-trace copy of the longer would add 1.2 MB)."""
    trace_io_excess_mb(tmp_path, 1.0)  # first-call caches
    short, long = (trace_io_excess_mb(tmp_path, s) for s in (10.0, 40.0))
    for a, b in zip(short, long):
        assert abs(b - a) < 0.25, (short, long)
