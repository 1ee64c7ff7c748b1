"""Tests for scenario configs, metrics, checks, runs and comparisons."""

import copy
import dataclasses
import math
from fractions import Fraction
import re
import types
from pathlib import Path

import numpy as np
import pytest
from _pipeline import parse_metrics_file
from hypothesis import given, settings, strategies as st

from locomanip.core_dynamics import RobotParams
from locomanip.errors import ConfigError, SchemaMismatch
from locomanip.pattern_generator import MIN_PREVIEW_WINDOW, PreviewWeights
from locomanip.plant_sim import CSV_COLUMNS, DIVERGENCE_LIMIT, TraceLog
from locomanip.reference_builder import MAX_SAMPLES
from locomanip.scenario import (
    AXIS_METRICS,
    CheckSpec,
    DisturbanceSpec,
    MetricsSection,
    MetricsWindowSpec,
    ScenarioConfig,
    apply_overrides,
    build_scenario,
    bundled_scenario_path,
    compare_runs,
    config_to_dict,
    evaluate_checks,
    format_comparison,
    format_metrics,
    list_bundled_scenarios,
    load_config,
    load_raw_config,
    metric_names,
    parse_config,
    resolve_config_path,
    run_scenario,
    scenario_metrics,
    trace_metrics,
    trace_summary,
    _span,
)
from locomanip.stabilizer import StabilizerGains

BUNDLED = ("cart-like", "nominal", "testcase1", "testcase2", "testcase3")


def minimal(**extra):
    raw = {"name": "t", "duration_s": 1.0}
    raw.update(extra)
    return raw


# one hand contact for the whole run: force noise and disturbances need one
ONE_HAND = [{"time_s": 0.0, "contacts": [{"position_m": [0.3, 0.0, 0.4]}]}]


def mini_config(**extra):
    """Standing scenario with a hand-force ramp; cheap enough for many runs."""
    raw = {
        "name": "mini",
        "duration_s": 2.0,
        "dt_s": 0.005,
        "hands": [
            {
                "time_s": 0.0,
                "mode": "linear",
                "contacts": [{"position_m": [0.3, 0.0, 0.4]}],
            },
            {
                "time_s": 0.8,
                "mode": "hold",
                "contacts": [
                    {"position_m": [0.3, 0.0, 0.4], "force_n": [-30.0, 0.0, 0.0]}
                ],
            },
        ],
        "checks": [{"name": "completed", "metric": "diverged", "max": 0.0}],
    }
    raw.update(extra)
    return raw


class TestFieldValidation:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config(minimal())
        assert cfg.dt_s == 0.002
        assert cfg.n_samples == 500
        assert cfg.robot.mass_kg == 100.0
        assert cfg.gait.kind == "standing"
        assert cfg.controller.k_p == 1.25
        assert cfg.plant.direct_zmp is False
        assert cfg.seed is None and cfg.out_dir is None
        assert cfg.hands == () and cfg.disturbances == () and cfg.checks == ()

    def test_section_defaults_are_the_library_defaults(self):
        """A config with only name and duration_s builds the robot, gains,
        preview weights and divergence limit the library defaults to."""
        cfg = parse_config({"name": "bare", "duration_s": 1.0})
        params = cfg.robot.params()
        assert dataclasses.astuple(params) == dataclasses.astuple(
            RobotParams(mass=params.mass)
        )
        assert cfg.controller.stabilizer_gains() == StabilizerGains()
        assert cfg.controller.preview_weights() == PreviewWeights()
        assert cfg.plant.divergence_limit_m == DIVERGENCE_LIMIT

    def test_top_level_must_be_mapping(self):
        with pytest.raises(ConfigError, match="expected a mapping"):
            parse_config([1, 2])

    def test_missing_name(self):
        with pytest.raises(ConfigError, match="name: missing required field"):
            parse_config({"duration_s": 1.0})

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="extra: unknown field"):
            parse_config(minimal(extra=1))

    def test_unknown_nested_field(self):
        with pytest.raises(ConfigError, match=r"robot\.mass: unknown field"):
            parse_config(minimal(robot={"mass": 50.0}))

    def test_negative_mass_names_field(self):
        with pytest.raises(ConfigError, match=r"robot\.mass_kg: must be > 0"):
            parse_config(minimal(robot={"mass_kg": -1.0}))

    def test_short_preview_window_names_field(self):
        # the floor of synthesize_gains, stated in the schema
        with pytest.raises(ConfigError, match=r"controller\.preview_window_s: must be >= 1$"):
            parse_config(minimal(controller={"preview_window_s": 0.5}))
        cfg = parse_config(minimal(controller={"preview_window_s": MIN_PREVIEW_WINDOW}))
        assert cfg.controller.preview_window_s == MIN_PREVIEW_WINDOW

    def test_com_height_above_zmp_height(self):
        bad = {"com_height_m": 0.1, "zmp_height_m": 0.2}
        with pytest.raises(ConfigError, match="must exceed zmp_height_m"):
            parse_config(minimal(robot=bad))

    def test_bool_rejected_as_number(self):
        with pytest.raises(ConfigError, match="expected a number, got bool"):
            parse_config(minimal(duration_s=True))

    def test_string_rejected_as_number(self):
        with pytest.raises(ConfigError, match="expected a number, got str"):
            parse_config(minimal(dt_s="fast"))

    def test_nan_rejected(self):
        with pytest.raises(ConfigError, match="must be finite"):
            parse_config(minimal(duration_s=float("nan")))

    def test_seed_must_be_nonnegative_integer(self):
        with pytest.raises(ConfigError, match="seed: must be >= 0"):
            parse_config(minimal(seed=-1))
        with pytest.raises(ConfigError, match="seed: expected an integer"):
            parse_config(minimal(seed=1.5))

    @pytest.mark.parametrize(
        "plant", [{"com_noise_m": 1e-4}, {"force_noise_n": 0.5}], ids=["com", "force"]
    )
    def test_noise_needs_a_seed(self, plant):
        with pytest.raises(ConfigError, match="^seed: measurement noise needs a seed"):
            parse_config(minimal(plant=plant, hands=ONE_HAND))
        assert parse_config(minimal(plant=plant, hands=ONE_HAND, seed=0)).seed == 0
        assert parse_config(minimal(plant={"com_noise_m": 0.0})).seed is None

    def test_too_few_samples(self):
        with pytest.raises(ConfigError, match="at least 2 samples"):
            parse_config(minimal(duration_s=0.001))

    def test_standing_forbids_step_fields(self):
        gait = {"kind": "standing", "first_step_s": 1.0}
        with pytest.raises(ConfigError, match="not used by a standing gait"):
            parse_config(minimal(gait=gait))

    def test_inplace_requires_last_step_end(self):
        with pytest.raises(
            ConfigError, match=r"gait\.last_step_end_s: missing required field"
        ):
            parse_config(minimal(gait={"kind": "inplace"}))

    def test_inplace_needs_room_for_one_step(self):
        gait = {"kind": "inplace", "first_step_s": 1.0, "last_step_end_s": 1.5}
        with pytest.raises(ConfigError, match="leaves no room"):
            parse_config(minimal(gait=gait))

    def test_inplace_forbids_footsteps(self):
        gait = {"kind": "inplace", "last_step_end_s": 5.0, "footsteps": []}
        with pytest.raises(ConfigError, match="only used by a footsteps gait"):
            parse_config(minimal(gait=gait))

    def test_footsteps_kind_requires_steps(self):
        with pytest.raises(ConfigError, match="non-empty list"):
            parse_config(minimal(gait={"kind": "footsteps", "footsteps": []}))

    def test_footstep_foot_choice(self):
        steps = [{"foot": "front", "position_m": [0, 0.1], "start_s": 1.0, "end_s": 2.0}]
        with pytest.raises(ConfigError, match="expected one of left, right"):
            parse_config(minimal(gait={"kind": "footsteps", "footsteps": steps}))

    def test_footstep_end_after_start(self):
        steps = [{"foot": "left", "position_m": [0, 0.1], "start_s": 2.0, "end_s": 2.0}]
        with pytest.raises(ConfigError, match=r"footsteps\[0\]\.end_s: must exceed"):
            parse_config(minimal(gait={"kind": "footsteps", "footsteps": steps}))

    def test_double_support_fraction_below_one(self):
        gait = {"kind": "inplace", "last_step_end_s": 5.0, "double_support_fraction": 1.0}
        with pytest.raises(ConfigError, match="must be < 1"):
            parse_config(minimal(gait=gait))

    def test_hand_times_must_increase(self):
        hands = [
            {"time_s": 1.0, "contacts": []},
            {"time_s": 1.0, "contacts": []},
        ]
        with pytest.raises(ConfigError, match=r"hands\[1\]\.time_s: .*must increase"):
            parse_config(minimal(hands=hands))

    def test_last_hand_breakpoint_cannot_be_linear(self):
        hands = [{"time_s": 0.0, "mode": "linear", "contacts": []}]
        with pytest.raises(ConfigError, match="last breakpoint cannot be linear"):
            parse_config(minimal(hands=hands))

    def test_linear_segment_needs_matching_contacts(self):
        hands = [
            {
                "time_s": 0.0,
                "mode": "linear",
                "contacts": [{"position_m": [0.3, 0.0, 0.4]}],
            },
            {"time_s": 1.0, "contacts": []},
        ]
        with pytest.raises(ConfigError, match="equal contact counts"):
            parse_config(minimal(hands=hands))

    def test_contact_position_is_3_vector(self):
        hands = [{"time_s": 0.0, "contacts": [{"position_m": [0.3, 0.0]}]}]
        with pytest.raises(ConfigError, match="expected a list of 3 numbers"):
            parse_config(minimal(hands=hands))

    def test_sinusoid_requires_period(self):
        dist = [{"kind": "sinusoid", "amplitude_n": 5.0}]
        with pytest.raises(ConfigError, match=r"period_s: missing required field"):
            parse_config(minimal(disturbances=dist))

    def test_step_forbids_period(self):
        dist = [{"kind": "step", "amplitude_n": 5.0, "period_s": 1.0}]
        with pytest.raises(ConfigError, match="only used by a sinusoid"):
            parse_config(minimal(disturbances=dist))

    def test_sinusoid_phase_must_stay_finite(self):
        """2 pi (min(end_s, duration_s) - start_s) / period_s must be finite:
        the last sinusoid's phase overflows over the run, the second's window
        ends before it can."""
        dist = [
            {"kind": "sinusoid", "amplitude_n": 5.0, "period_s": 1e-300},
            {"kind": "sinusoid", "amplitude_n": 5.0, "period_s": 1e-310,
             "end_s": 1e-10},
            {"kind": "sinusoid", "amplitude_n": 5.0, "period_s": 1e-310},
        ]
        parse_config(minimal(disturbances=dist[:2], hands=ONE_HAND))
        with pytest.raises(ConfigError, match="phase overflows") as info:
            parse_config(minimal(disturbances=dist, hands=ONE_HAND))
        assert info.value.field == "disturbances[2].period_s"

    def test_disturbance_kind_choice(self):
        with pytest.raises(ConfigError, match="expected one of"):
            parse_config(minimal(disturbances=[{"kind": "pulse", "amplitude_n": 1.0}]))

    def test_disturbance_end_after_start(self):
        dist = [{"kind": "step", "amplitude_n": 1.0, "start_s": 2.0, "end_s": 1.0}]
        with pytest.raises(ConfigError, match="must not precede start_s"):
            parse_config(minimal(disturbances=dist))

    def test_check_needs_some_bound(self):
        with pytest.raises(ConfigError, match="check needs min, max or exceeds"):
            parse_config(minimal(checks=[{"metric": "m"}]))

    def test_factor_needs_exceeds(self):
        checks = [{"metric": "m", "max": 1.0, "factor": 2.0}]
        with pytest.raises(ConfigError, match="factor needs an exceeds metric"):
            parse_config(minimal(checks=checks))

    def test_duplicate_check_names(self):
        checks = [
            {"name": "a", "metric": "m", "max": 1.0},
            {"name": "a", "metric": "n", "max": 1.0},
        ]
        with pytest.raises(ConfigError, match="duplicate check name"):
            parse_config(minimal(checks=checks))

    @pytest.mark.parametrize(
        "check, field, message",
        [
            (
                {"metric": "tail.mean_com_zmp_ofset_x", "max": 1.0},
                "checks[0].metric",
                "unknown metric 'tail.mean_com_zmp_ofset_x'",
            ),
            ({"metric": "head.rms_zmp_dev_x", "max": 1.0}, "checks[0].metric",
             "unknown metric 'head.rms_zmp_dev_x'"),
            ({"metric": "rms_zmp_dev_x", "exceeds": "nosuch"}, "checks[0].exceeds",
             "unknown metric 'nosuch'"),
            ({"metric": "failure", "max": 0.0}, "checks[0].metric",
             "failure is text; a check needs a number"),
        ],
        ids=["misspelled", "undefined-window", "exceeds", "text"],
    )
    def test_check_on_a_metric_no_run_reports(self, check, field, message):
        windows = [{"name": "tail", "start_s": 0.5, "end_s": 1.0}]
        with pytest.raises(ConfigError, match=re.escape(message)) as info:
            parse_config(minimal(metrics={"windows": windows}, checks=[check]))
        assert info.value.field == field

    def test_check_name_defaults_to_metric(self):
        cfg = parse_config(minimal(checks=[{"metric": "rms_zmp_dev_x", "max": 1.0}]))
        assert cfg.checks[0].name == "rms_zmp_dev_x"

    def test_duplicate_window_names(self):
        windows = [
            {"name": "w", "start_s": 0.0, "end_s": 0.5},
            {"name": "w", "start_s": 0.5, "end_s": 1.0},
        ]
        with pytest.raises(ConfigError, match="duplicate window name"):
            parse_config(minimal(metrics={"windows": windows}))

    def test_window_name_alphanumeric(self):
        windows = [{"name": "w-1", "start_s": 0.0, "end_s": 0.5}]
        with pytest.raises(ConfigError, match="alphanumeric"):
            parse_config(minimal(metrics={"windows": windows}))

    def test_window_end_after_start(self):
        windows = [{"name": "w", "start_s": 0.5, "end_s": 0.5}]
        with pytest.raises(ConfigError, match="must exceed start_s"):
            parse_config(minimal(metrics={"windows": windows}))

    def test_exclusion_window_ordered(self):
        with pytest.raises(ConfigError, match="window end must exceed start"):
            parse_config(minimal(metrics={"exclude_windows_s": [[0.8, 0.2]]}))

    def test_config_error_carries_field(self):
        try:
            parse_config(minimal(robot={"mass_kg": 0}))
        except ConfigError as exc:
            assert exc.field == "robot.mass_kg"
        else:
            pytest.fail("expected ConfigError")


RICH = {
    "name": "rich",
    "duration_s": 3.0,
    "dt_s": 0.005,
    "seed": 7,
    "out_dir": "rich_out",
    "robot": {
        "mass_kg": 60.0,
        "gravity_mps2": 9.8,
        "com_height_m": 0.7,
        "zmp_height_m": 0.02,
    },
    "feet": {
        "left_pos_m": [0.05, 0.12],
        "right_pos_m": [0.0, -0.12],
        "sole_half_x_m": 0.09,
        "sole_half_y_m": 0.04,
    },
    "gait": {
        "kind": "footsteps",
        "double_support_fraction": 0.4,
        "footsteps": [
            {"foot": "left", "position_m": [0.1, 0.12], "start_s": 1.0, "end_s": 1.8},
            {"foot": "right", "position_m": [0.2, -0.12], "start_s": 1.8, "end_s": 2.6},
        ],
    },
    "controller": {
        "q_zmp": 2.0,
        "r_jerk": 1e-7,
        "preview_window_s": 1.2,
        "k_p": 1.4,
        "k_i": 0.5,
        "k_d": 0.1,
        "rho_per_s": 15.0,
        "cutoff_period_s": 0.8,
        "integrator_limit_m_s": 0.02,
    },
    "plant": {
        "direct_zmp": True,
        "com_noise_m": 0.001,
        "force_noise_n": 0.5,
        "divergence_limit_m": 0.8,
    },
    "hands": [
        {
            "time_s": 0.0,
            "mode": "linear",
            "contacts": [{"position_m": [0.3, 0.0, 0.5]}],
        },
        {
            "time_s": 1.0,
            "mode": "hold",
            "contacts": [
                {
                    "position_m": [0.3, 0.0, 0.5],
                    "force_n": [-20.0, 0.0, 5.0],
                    "moment_nm": [0.0, 1.0, 0.0],
                }
            ],
        },
    ],
    "disturbances": [
        {
            "kind": "sinusoid",
            "axis": "y",
            "amplitude_n": 5.0,
            "period_s": 2.0,
            "start_s": 0.5,
            "end_s": 2.5,
        },
        {"kind": "step", "axis": "x", "amplitude_n": 3.0, "start_s": 1.0, "contact_index": 0},
    ],
    "ablation": {"force_kappa_one": True},
    "metrics": {
        "skip_initial_s": 0.5,
        "exclude_windows_s": [[1.0, 1.2]],
        "windows": [{"name": "tail", "start_s": 2.0, "end_s": 3.0}],
    },
    "checks": [
        {"name": "a", "metric": "rms_zmp_dev_x", "max": 0.1},
        {"name": "b", "metric": "rms_com_dev_x", "min": 0.0, "max": 1.0},
        {"name": "c", "metric": "tail.rms_zmp_dev_x", "exceeds": "tail.rms_com_dev_x",
         "factor": 2.0},
    ],
}


class TestRoundTrip:
    def test_rich_config_round_trips(self):
        cfg = parse_config(RICH)
        assert parse_config(config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_round_trips(self, name):
        cfg = load_config(bundled_scenario_path(name))
        assert cfg.name == name
        assert parse_config(config_to_dict(cfg)) == cfg

    def test_bundled_listing(self):
        assert list_bundled_scenarios() == BUNDLED

    def test_unknown_bundled_name_lists_available(self):
        with pytest.raises(ConfigError, match="nominal"):
            bundled_scenario_path("unheard-of")

    def test_rich_fields_survive(self):
        cfg = parse_config(RICH)
        assert cfg.gait.footsteps[1].position_m == (0.2, -0.12)
        assert cfg.hands[0].mode == "linear"
        assert cfg.hands[1].contacts[0].moment_nm == (0.0, 1.0, 0.0)
        assert cfg.disturbances[0].period_s == 2.0
        assert cfg.disturbances[1].contact_index == 0
        assert math.isinf(cfg.disturbances[1].end_s)
        assert cfg.ablation.force_kappa_one is True
        assert cfg.metrics.windows[0].name == "tail"
        assert cfg.checks[2].factor == 2.0


class TestLoadersAndOverrides:
    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_raw_config(tmp_path / "nope.yaml")

    def test_load_invalid_yaml(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("a: [1,\n")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_raw_config(p)

    def test_load_non_mapping(self, tmp_path):
        p = tmp_path / "list.yaml"
        p.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="top level must be a mapping"):
            load_raw_config(p)

    def test_load_empty_file_is_empty_mapping(self, tmp_path):
        p = tmp_path / "empty.yaml"
        p.write_text("")
        assert load_raw_config(p) == {}

    def test_resolve_path_prefers_files(self, tmp_path):
        p = tmp_path / "nominal.yaml"
        p.write_text("name: local\nduration_s: 1.0\n")
        assert resolve_config_path(str(p)) == p
        assert resolve_config_path("nominal").name == "nominal.yaml"
        with pytest.raises(ConfigError, match="config file not found"):
            resolve_config_path(str(tmp_path / "missing.yaml"))

    def test_file_reads_an_exponent_without_a_dot_as_the_override_does(self, tmp_path):
        p = tmp_path / "r.yaml"
        p.write_text("name: t\nduration_s: 1.0\ncontroller: {r_jerk: 1e-8}\n")
        overridden = apply_overrides(minimal(), ["controller.r_jerk=1e-8"])
        assert load_config(p) == parse_config(overridden)
        assert load_config(p).controller.r_jerk == 1e-8

    @pytest.mark.parametrize(
        "text, key, line",
        [
            ("name: t\nduration_s: 1.0\nname: u\n", "'name'", 3),
            ("name: t\nchecks:\n  - {metric: diverged, max: 0.0, max: 1.0}\n", "'max'", 3),
            ("name: t\nm: {<<: {x: 1, x: 2}, y: 3}\n", "'x'", 2),
            ("name: t\nm:\n  <<: [{x: 1}, {y: 1,\n    y: 2}]\n", "'y'", 4),
        ],
        ids=["top-level", "flow-mapping", "merge-value", "merge-sequence"],
    )
    def test_repeated_key_in_a_file_is_refused(self, tmp_path, text, key, line):
        p = tmp_path / "twice.yaml"
        p.write_text(text)
        with pytest.raises(ConfigError, match=f"found repeated key {key}") as info:
            load_raw_config(p)
        assert f"line {line}, column" in str(info.value)

    def test_loader_keeps_pyyaml_construction(self, tmp_path):
        """Merge keys still merge, and an unhashable key is still a ConfigError."""
        p = tmp_path / "merge.yaml"
        p.write_text("base: &b {x: 1, y: 2}\nm:\n  <<: *b\n  x: 5\n")
        assert load_raw_config(p) == {"base": {"x": 1, "y": 2}, "m": {"x": 5, "y": 2}}
        # a merge value's own merge may set a key the value sets again
        p.write_text("a: &a {x: 1}\nb: &b {<<: *a, x: 2}\nm: {<<: [*b, {<<: *a, x: 3}]}\n")
        assert load_raw_config(p) == {"a": {"x": 1}, "b": {"x": 2}, "m": {"x": 2}}
        p.write_text("? [1, 2]\n: 3\n")
        with pytest.raises(ConfigError, match="unhashable key"):
            load_raw_config(p)

    def test_same_field_in_two_overrides_takes_the_last(self):
        out = apply_overrides(minimal(), ["duration_s=2.0", "duration_s=3.0"])
        assert out["duration_s"] == 3.0

    def test_override_types(self):
        raw = minimal()
        out = apply_overrides(
            raw,
            [
                "duration_s=2.5",
                "plant.direct_zmp=true",
                "metrics.skip_initial_s=1.0",
                "name=other",
                "feet.left_pos_m=[0.1, 0.2]",
            ],
        )
        cfg = parse_config(out)
        assert cfg.duration_s == 2.5
        assert cfg.plant.direct_zmp is True
        assert cfg.metrics.skip_initial_s == 1.0
        assert cfg.name == "other"
        assert cfg.feet.left_pos_m == (0.1, 0.2)
        # the input mapping is left untouched
        assert raw == minimal()

    def test_override_requires_equals(self):
        with pytest.raises(ConfigError, match="must look like"):
            apply_overrides({}, ["duration_s"])
        with pytest.raises(ConfigError, match="must look like"):
            apply_overrides({}, ["=5"])

    def test_override_inside_scalar_fails(self):
        with pytest.raises(ConfigError, match="non-mapping"):
            apply_overrides(minimal(), ["name.sub=1"])


def synthetic_trace(n=10, dt=0.1):
    """All-zero trace with a time column; tests poke deviations into it."""
    columns = {name: np.zeros(n) for name in CSV_COLUMNS}
    columns["time"] = np.arange(n) * dt
    return TraceLog(dt=dt, columns=columns)


def flat_plan(n=10, y=0.0):
    """Timeline stand-in whose footstep-plan ZMP stays at (0, y)."""
    plan = np.zeros((n, 2))
    plan[:, 1] = y
    return types.SimpleNamespace(zmp_ref=plan)


class TestTraceMetrics:
    def test_rms_and_peak_by_hand(self):
        tr = synthetic_trace()
        tr.columns["z_x^a"][8:] = [3.0, 4.0]
        m = trace_metrics(tr)
        # sqrt((9 + 16) / 10)
        assert m["rms_zmp_dev_x"] == pytest.approx(math.sqrt(2.5), rel=1e-12)
        assert m["max_zmp_dev_x"] == 4.0
        assert m["rms_zmp_dev_y"] == 0.0

    def test_offset_and_dcm_error(self):
        tr = synthetic_trace()
        tr.columns["c_x^a"][:] = 0.25
        tr.columns["z_x^a"][:] = 0.05
        tr.columns["xi_y^a"][:] = 0.5
        tr.columns["xi_y^d"][:] = 0.2
        tr.columns["gammaL_y"][:] = -0.1
        m = trace_metrics(tr)
        assert m["mean_com_zmp_offset_x"] == pytest.approx(0.2, rel=1e-12)
        assert m["rms_dcm_err_y"] == pytest.approx(0.2, rel=1e-12)
        assert m["max_dcm_err_y"] == pytest.approx(0.2, rel=1e-12)

    def test_mask_restricts_samples(self):
        tr = synthetic_trace()
        tr.columns["z_x^a"][0] = 100.0
        mask = np.ones(10, dtype=bool)
        mask[0] = False
        assert trace_metrics(tr, mask)["rms_zmp_dev_x"] == 0.0

    def test_empty_mask_gives_nan(self):
        tr = synthetic_trace()
        m = trace_metrics(tr, np.zeros(10, dtype=bool))
        assert math.isnan(m["rms_zmp_dev_x"])
        assert math.isnan(m["mean_com_zmp_offset_y"])


class TestScenarioMetrics:
    def test_skip_and_exclusion_windows(self):
        tr = synthetic_trace()
        # samples 0,1 skipped; samples 3,4 excluded; poke those slots only
        tr.columns["z_x^a"][[0, 1, 3, 4]] = 9.0
        cfg = MetricsSection(skip_initial_s=0.2, exclude_windows_s=((0.3, 0.5),))
        m = scenario_metrics(tr, flat_plan(), cfg)
        assert m["rms_zmp_dev_x"] == 0.0
        assert m["samples"] == 10.0

    def test_named_windows_prefix_metrics(self):
        tr = synthetic_trace()
        tr.columns["z_x^a"][5:8] = 2.0
        cfg = MetricsSection(windows=(MetricsWindowSpec("mid", 0.5, 0.8),))
        m = scenario_metrics(tr, flat_plan(), cfg)
        assert m["mid.rms_zmp_dev_x"] == pytest.approx(2.0, rel=1e-12)
        assert m["mid.max_zmp_dev_x"] == 2.0
        # full-trace value covers the quiet samples too
        assert m["rms_zmp_dev_x"] == pytest.approx(math.sqrt(12.0 / 10.0), rel=1e-12)

    def test_window_beyond_trace_is_nan(self):
        tr = synthetic_trace()
        cfg = MetricsSection(windows=(MetricsWindowSpec("late", 5.0, 6.0),))
        m = scenario_metrics(tr, flat_plan(), cfg)
        assert math.isnan(m["late.rms_zmp_dev_x"])

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        st.integers(0, 10**6),
        st.floats(5e-324, 1e10),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_span_is_the_clipped_rule(self, n, dt, start, end):
        """Each time's sample is its float quotient t / dt rounded half to
        even and clipped to [0, n], here in exact arithmetic on Fractions,
        where no quotient overflows an int; an infinite quotient lies beyond
        either end."""

        def exact(t):
            q = t / dt
            if math.isinf(q):
                return 0 if q < 0 else n
            return max(0, min(n, round(Fraction(q))))

        assert _span(n, dt, start, end) == slice(exact(start), exact(end))

    def test_implied_zmp_uses_plan(self):
        tr = synthetic_trace()
        tr.columns["z_y^a"][:] = 0.02
        m = scenario_metrics(tr, flat_plan(y=0.05), MetricsSection())
        assert m["rms_implied_zmp_dev_y"] == pytest.approx(0.03, rel=1e-12)
        assert m["rms_implied_zmp_dev_x"] == 0.0

    def test_saturation_counters_and_divergence(self):
        tr = synthetic_trace()
        tr.extra["zmp_saturated"] = np.array([0, 1, 1, 0, 0, 0, 0, 0, 1, 0])
        tr.extra["cop_clamped"] = np.zeros(10)
        tr.diverged = True
        tr.diverged_at = 0.7
        m = scenario_metrics(tr, flat_plan(), MetricsSection())
        assert m["zmp_saturated_steps"] == 3.0
        assert m["cop_clamped_steps"] == 0.0
        assert "zmp_clamped_steps" not in m
        assert m["diverged"] == 1.0
        assert m["diverged_at_s"] == pytest.approx(0.7)


class TestChecks:
    METRICS = {"m": 1.0, "n": 3.0}

    def run_one(self, **kw):
        spec = CheckSpec(name=kw.pop("name", "c"), metric=kw.pop("metric", "m"), **kw)
        return evaluate_checks(self.METRICS, [spec])[0]

    def test_min_bound(self):
        assert self.run_one(min_value=0.5).passed
        bad = self.run_one(min_value=2.0)
        assert not bad.passed and "VIOLATED" in bad.detail

    def test_max_bound(self):
        assert self.run_one(max_value=1.0).passed
        assert not self.run_one(max_value=0.5).passed

    def test_both_bounds(self):
        assert self.run_one(min_value=0.5, max_value=1.5).passed
        assert not self.run_one(min_value=1.2, max_value=1.5).passed

    def test_exceeds_with_factor(self):
        good = self.run_one(metric="n", exceeds_metric="m", factor=2.0)
        assert good.passed and "3 > 2 * m" in good.detail
        assert not self.run_one(metric="n", exceeds_metric="m", factor=4.0).passed

    def test_missing_metric_fails(self):
        for kw in ({"metric": "absent", "max_value": 1.0}, {"exceeds_metric": "absent"}):
            res = self.run_one(**kw)
            assert not res.passed and "metric 'absent' not found" in res.detail

    def test_text_metric_fails_with_a_named_detail(self):
        metrics = {"failure": "Infeasible", "failed_at_s": 5.0, "m": 1.0}
        for spec in (
            CheckSpec("f", "failure", max_value=0.0),
            CheckSpec("f", "failure", min_value=0.0),
            CheckSpec("f", "m", exceeds_metric="failure"),
        ):
            res = evaluate_checks(metrics, [spec])[0]
            assert not res.passed
            assert "metric 'failure' is not a number: 'Infeasible'" in res.detail
        assert math.isnan(evaluate_checks(metrics, [CheckSpec("f", "failure")])[0].value)

    def test_nan_value_fails_either_bound(self):
        res = evaluate_checks({"m": math.nan}, [CheckSpec("c", "m", max_value=1.0)])
        assert not res[0].passed
        res = evaluate_checks({"m": math.nan}, [CheckSpec("c", "m", min_value=0.0)])
        assert not res[0].passed

    def test_format_and_parse_metrics_file(self, tmp_path):
        metrics = {"rms": 0.012345678901234, "count": 3.0}
        checks = evaluate_checks({"rms": 0.0123}, [CheckSpec("ok", "rms", max_value=1.0)])
        text = format_metrics(metrics, checks)
        assert "check.ok=PASS" in text
        assert text.rstrip().endswith("overall=PASS")
        p = tmp_path / "metrics.txt"
        p.write_text(text)
        back = parse_metrics_file(p)
        assert back["rms"] == pytest.approx(metrics["rms"], rel=1e-11)
        assert back["count"] == 3.0
        assert back["check.ok"] == "PASS"

    def test_vacuous_overall_passes(self):
        assert "overall=PASS" in format_metrics({"a": 1.0})
        failing = evaluate_checks({"m": 2.0}, [CheckSpec("c", "m", max_value=1.0)])
        assert "overall=FAIL" in format_metrics({"m": 2.0}, failing)


class TestRunScenario:
    def test_writes_trace_and_metrics(self, tmp_path):
        cfg = parse_config(mini_config())
        res = run_scenario(cfg, out_dir=tmp_path / "out")
        assert res.exit_code == 0 and res.passed
        assert res.trace_path.is_file() and res.metrics_path.is_file()
        file_metrics = parse_metrics_file(res.metrics_path)
        assert file_metrics["rms_zmp_dev_x"] == pytest.approx(
            res.metrics["rms_zmp_dev_x"], rel=1e-9
        )
        assert file_metrics["check.completed"] == "PASS"
        assert file_metrics["overall"] == "PASS"

    def test_csv_round_trip_compares_equal(self, tmp_path):
        cfg = parse_config(mini_config())
        res = run_scenario(cfg, out_dir=tmp_path / "out")
        back = TraceLog.from_csv(res.trace_path)
        rows = compare(res.trace, back)
        assert all(r.ratio == 1.0 and r.larger == "equal" for r in rows)

    def test_deterministic_bytes(self, tmp_path):
        cfg = parse_config(mini_config())
        a = run_scenario(cfg, out_dir=tmp_path / "a")
        b = run_scenario(cfg, out_dir=tmp_path / "b")
        assert a.trace_path.read_bytes() == b.trace_path.read_bytes()

    def test_noise_seeding(self, tmp_path):
        raw = mini_config(plant={"com_noise_m": 1e-4}, seed=3)
        cfg = parse_config(raw)
        a = run_scenario(cfg, out_dir=tmp_path / "a")
        b = run_scenario(cfg, out_dir=tmp_path / "b")
        assert a.trace_path.read_bytes() == b.trace_path.read_bytes()
        c = run_scenario(parse_config(mini_config(plant={"com_noise_m": 1e-4}, seed=4)),
                         out_dir=tmp_path / "c")
        assert a.trace_path.read_bytes() != c.trace_path.read_bytes()

    def test_divergence_exit_code_and_truncation(self, tmp_path):
        # an unplanned 400 N force error overwhelms the small divergence gate
        raw = mini_config(
            plant={"divergence_limit_m": 0.02},
            disturbances=[{"kind": "step", "axis": "x", "amplitude_n": -400.0,
                           "start_s": 0.5}],
        )
        cfg = parse_config(raw)
        res = run_scenario(cfg, out_dir=tmp_path / "out")
        assert res.exit_code == 2
        assert res.metrics["diverged"] == 1.0
        assert len(res.trace) < cfg.n_samples
        assert not res.passed
        # outputs are still written for a diverged run
        assert res.trace_path.is_file() and res.metrics_path.is_file()
        assert parse_metrics_file(res.metrics_path)["check.completed"] == "FAIL"

    def test_metrics_files_hold_exactly_the_declared_names(self, tmp_path):
        """A completed, a diverged and a failed run: every key of their
        metrics.txt is declared, and every declared name shows up."""
        windows = [{"name": "mid", "start_s": 0.2, "end_s": 0.9}]
        push = {"kind": "step", "amplitude_n": -400.0, "start_s": 0.5}
        runs = {
            "completed": mini_config(),
            "diverged": mini_config(
                plant={"divergence_limit_m": 0.02}, disturbances=[push]
            ),
            # one hand lifting more than the robot's weight unloads the feet
            "failed": mini_config(disturbances=[dict(push, axis="z", amplitude_n=1200.0)]),
        }
        seen = set()
        for (name, raw), code in zip(runs.items(), (0, 2, 3)):
            raw["metrics"] = {"windows": windows}
            res = run_scenario(parse_config(raw), out_dir=tmp_path / name)
            assert res.exit_code == code, name
            keys = {
                k
                for k in parse_metrics_file(res.metrics_path)
                if not k.startswith("check.") and k != "overall"
            }
            assert keys <= metric_names(res.config.metrics.windows), name
            seen |= keys
        assert seen == metric_names(parse_config(runs["completed"]).metrics.windows)

    def test_out_dir_precedence(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = parse_config(mini_config(out_dir="from_config"))
        res = run_scenario(cfg, out_dir=tmp_path / "param")
        assert res.out_dir == tmp_path / "param"
        res = run_scenario(cfg)
        assert res.out_dir == Path("from_config")
        res = run_scenario(parse_config(mini_config()))
        assert res.out_dir == Path("mini_out")

    def test_write_false_skips_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        res = run_scenario(parse_config(mini_config()), write=False)
        assert res.trace_path is None and res.out_dir is None
        assert not (tmp_path / "mini_out").exists()

    def test_missing_contact_index_is_rejected(self):
        """A push on contact 7 of two used to vanish from the run unreported.
        The config's own check refuses it, so every command that parses the
        config does."""
        raw = apply_overrides(
            load_raw_config(bundled_scenario_path("testcase1")),
            [
                "disturbances=[{kind: step, axis: x, amplitude_n: -400.0, "
                "start_s: 5.0, end_s: 8.0, contact_index: 7}]"
            ],
        )
        with pytest.raises(ConfigError, match="contact 7 does not exist") as info:
            parse_config(raw)
        assert info.value.field == "disturbances[0].contact_index"

    def test_contact_index_checked_only_while_the_push_acts(self):
        hands = mini_config()["hands"] + [{"time_s": 1.5, "contacts": []}]
        held = {"kind": "step", "amplitude_n": 5.0, "start_s": 0.2, "end_s": 1.0,
                "contact_index": 0}
        build_scenario(parse_config(mini_config(hands=hands, disturbances=[held])))
        late = dict(held, start_s=1.2, end_s=2.5)
        with pytest.raises(ConfigError, match=r"hands\[2\] has 0 contacts") as info:
            parse_config(mini_config(hands=hands, disturbances=[held, late]))
        assert info.value.field == "disturbances[1].contact_index"

    def test_disturbance_without_index_needs_a_contact(self):
        """A disturbance without contact_index acts on every hand contact
        present. Where there is none it used to vanish from the run
        unreported, so each breakpoint it overlaps within the run must hold
        one."""
        push = {"kind": "step", "amplitude_n": -150.0, "start_s": 2.0, "end_s": 8.0}
        with pytest.raises(ConfigError, match="no hand contact to act on: no hands") as info:
            parse_config(minimal(duration_s=6.0, disturbances=[push]))
        assert info.value.field == "disturbances[0]"
        parse_config(minimal(duration_s=2.0, disturbances=[push]))  # after the run
        hands = mini_config()["hands"] + [{"time_s": 1.5, "contacts": []}]
        held = dict(push, start_s=0.2, end_s=1.0)
        parse_config(mini_config(hands=hands, disturbances=[held]))
        late = dict(push, start_s=1.2, end_s=2.5)
        with pytest.raises(ConfigError, match=r"hands\[2\] has none while it acts") as info:
            parse_config(mini_config(hands=hands, disturbances=[held, late]))
        assert info.value.field == "disturbances[1]"

    def test_force_noise_needs_a_contact(self):
        """Force noise is drawn per hand contact, so a run without one would
        write the noiseless trace."""
        noisy = {"plant": {"force_noise_n": 50.0}, "seed": 3}
        with pytest.raises(ConfigError, match="force noise needs a hand contact") as info:
            parse_config(minimal(**noisy))
        assert info.value.field == "plant.force_noise_n"
        later = [{"time_s": 0.0, "contacts": []}, dict(ONE_HAND[0], time_s=1.5)]
        with pytest.raises(ConfigError, match="force noise needs a hand contact"):
            parse_config(minimal(hands=later, **noisy))
        parse_config(minimal(hands=later, duration_s=2.0, **noisy))

    def test_bundle_matches_sample_count(self):
        cfg = parse_config(mini_config())
        bundle = build_scenario(cfg)
        assert len(bundle.traj) == cfg.n_samples

    def test_halving_dt_keeps_final_com(self):
        base = parse_config(mini_config(duration_s=3.0))
        fine = parse_config(mini_config(duration_s=3.0, dt_s=0.0025))
        a = run_scenario(base, write=False).trace
        b = run_scenario(fine, write=False).trace
        for col in ("c_x^a", "c_y^a"):
            assert abs(a[col][-1] - b[col][-1]) < 1e-5


def compare(a, b, metric_spec=None):
    """compare_runs of two traces."""
    return compare_runs(trace_summary(a), trace_summary(b), metric_spec)


def shifted_trace(base, column, delta):
    columns = {k: v.copy() for k, v in base.columns.items()}
    columns[column] = columns[column] + delta
    return TraceLog(dt=base.dt, columns=columns)


class TestCompareRuns:
    def test_identical_traces_ratio_one(self):
        tr = synthetic_trace()
        rows = compare(tr, tr)
        assert rows and all(r.ratio == 1.0 and r.larger == "equal" for r in rows)

    def test_known_ratio(self):
        a = synthetic_trace()
        a.columns["z_x^a"][:] = 0.01
        b = shifted_trace(a, "z_x^a", 0.01)
        rows = compare(a, b, metric_spec=["rms_zmp_dev_x"])
        assert len(rows) == 1
        assert rows[0].ratio == pytest.approx(2.0, rel=1e-12)
        assert rows[0].larger == "b"

    def test_zero_to_nonzero_is_infinite(self):
        a = synthetic_trace()
        b = shifted_trace(a, "z_y^a", 0.05)
        rows = compare(a, b, metric_spec=["rms_zmp_dev_y"])
        assert math.isinf(rows[0].ratio)

    def test_zero_to_negative_is_minus_infinity(self):
        """b / a over a zero a has IEEE's sign: b's times a's."""
        a = synthetic_trace()
        b = shifted_trace(a, "z_x^a", 0.01)
        metric = "mean_com_zmp_offset_x"
        (row,) = compare(a, b, metric_spec=[metric])
        assert row.a == 0.0 and row.b < 0.0
        assert row.ratio == -math.inf and row.larger == "a"
        c = shifted_trace(a, "z_x^a", -0.01)
        neg_zero = trace_summary(a)
        neg_zero.metrics[metric] = -0.0
        for other, sign in ((b, 1.0), (c, -1.0)):
            (row,) = compare_runs(neg_zero, trace_summary(other), [metric])
            assert row.ratio == sign * math.inf
        (row,) = compare_runs(neg_zero, trace_summary(a), [metric])
        assert row.ratio == 1.0

    def test_metric_spec_order_preserved(self):
        tr = synthetic_trace()
        names = ["rms_com_dev_y", "rms_zmp_dev_x", "max_dcm_err_x"]
        rows = compare(tr, tr, metric_spec=names)
        assert [r.metric for r in rows] == names

    def test_unknown_metric_rejected(self):
        tr = synthetic_trace()
        with pytest.raises(SchemaMismatch, match="unknown comparison metric"):
            compare(tr, tr, metric_spec=["not_a_metric"])

    def test_unknown_metric_lists_exactly_the_csv_metrics(self):
        tr = synthetic_trace()
        with pytest.raises(SchemaMismatch) as info:
            compare(tr, tr, metric_spec=["rms_implied_zmp_dev_x"])
        listed = re.search(r"a trace CSV yields (.*?)\. ", str(info.value)).group(1)
        csv = [m.name for m in AXIS_METRICS if m.csv]
        assert listed.split(", ") == [f"{n}_{ax}" for ax in "xy" for n in csv]
        assert len(csv) == 11

    def test_column_mismatch(self):
        a = synthetic_trace()
        columns = dict(a.columns)
        del columns["fext_sum_z"]
        b = TraceLog(dt=a.dt, columns=columns)
        with pytest.raises(SchemaMismatch, match="column sets"):
            compare(a, b)

    def test_missing_metric_columns_named(self):
        tr = synthetic_trace()
        for name in ("z_x^a", "gammaL_y", "fext_sum_z"):
            del tr.columns[name]
        with pytest.raises(SchemaMismatch) as info:
            trace_summary(tr)
        assert str(info.value) == "trace lacks metric columns z_x^a, gammaL_y"

    def test_summary_holds_no_columns(self):
        tr = synthetic_trace()
        summary = trace_summary(tr)
        assert summary.columns == frozenset(CSV_COLUMNS)
        assert (summary.dt, summary.samples) == (tr.dt, len(tr))
        assert summary.metrics == trace_metrics(tr)
        assert not any(isinstance(v, np.ndarray) for v in vars(summary).values())

    def test_dt_mismatch(self):
        a = synthetic_trace()
        b = synthetic_trace(dt=0.2)
        with pytest.raises(SchemaMismatch, match="sample rates differ"):
            compare(a, b)

    def test_length_mismatch(self):
        a = synthetic_trace(n=10)
        b = synthetic_trace(n=8)
        with pytest.raises(SchemaMismatch, match="durations differ"):
            compare(a, b)

    def test_format_comparison_lines(self):
        tr = synthetic_trace()
        text = format_comparison(compare(tr, tr, metric_spec=["rms_zmp_dev_x"]))
        assert text == "metric=rms_zmp_dev_x a=0 b=0 ratio=1 larger=equal\n"


class TestSchema:
    """Each field is declared once; the parser and the dumper read the declaration."""

    def test_absent_fields_take_the_dataclass_defaults(self):
        assert parse_config(minimal()) == ScenarioConfig(name="t", duration_s=1.0)
        assert config_to_dict(parse_config(minimal())) == minimal()

    def test_inplace_gait_defaults(self):
        gait = parse_config(minimal(gait={"kind": "inplace", "last_step_end_s": 5.0})).gait
        assert (gait.first_step_s, gait.step_period_s) == (1.8, 1.0)
        assert gait.double_support_fraction == 0.2 and gait.footsteps == ()

    def test_explicit_default_factor_still_needs_exceeds(self):
        checks = [{"metric": "m", "max": 1.0, "factor": 1.0}]
        with pytest.raises(ConfigError, match=r"checks\[0\]\.factor: factor needs"):
            parse_config(minimal(checks=checks))

    def test_check_metric_is_required(self):
        with pytest.raises(ConfigError, match=r"checks\[0\]\.metric: missing required"):
            parse_config(minimal(checks=[{"name": "a", "max": 1.0}]))

    def test_check_name_null_is_rejected(self):
        checks = [{"name": None, "metric": "m", "max": 1.0}]
        with pytest.raises(ConfigError, match=r"checks\[0\]\.name: expected a string"):
            parse_config(minimal(checks=checks))

    def test_disturbance_amplitude_is_required(self):
        with pytest.raises(
            ConfigError, match=r"disturbances\[0\]\.amplitude_n: missing required"
        ):
            parse_config(minimal(disturbances=[{"kind": "step"}]))
        with pytest.raises(TypeError):
            DisturbanceSpec(kind="step")

    def test_exclusion_window_entry_path(self):
        with pytest.raises(ConfigError, match=r"exclude_windows_s\[0\]: expected a list"):
            parse_config(minimal(metrics={"exclude_windows_s": [1.0]}))

    def test_non_string_key_is_an_unknown_field(self):
        raw = minimal(a=3)
        raw[1] = 2
        with pytest.raises(ConfigError, match="1: unknown field"):
            parse_config(raw)

    def test_int_beyond_float_range_is_not_finite(self):
        with pytest.raises(ConfigError, match="duration_s: must be finite"):
            parse_config(minimal(duration_s=10**400))
        with pytest.raises(ConfigError, match=r"left_pos_m\[1\]: must be finite"):
            parse_config(minimal(feet={"left_pos_m": [0.0, -(10**400)]}))

    def test_sample_count_beyond_float_range(self):
        with pytest.raises(ConfigError, match="duration_s: too long for the sample rate"):
            parse_config(minimal(duration_s=1e308, dt_s=1e-300))

    def test_sample_count_bound(self):
        """At most MAX_SAMPLES samples, counted as the run counts them."""
        top = MAX_SAMPLES * 0.002
        assert parse_config(minimal(duration_s=top)).n_samples == MAX_SAMPLES
        with pytest.raises(ConfigError, match="^duration_s: too long for the sample rate"):
            parse_config(minimal(duration_s=top + 0.002))

    def test_preview_window_bound(self):
        top = MAX_SAMPLES * 0.002
        controller = {"preview_window_s": top}
        assert parse_config(minimal(controller=controller)).controller.preview_window_s == top
        for window in (top + 0.002, 1.0e308):
            with pytest.raises(
                ConfigError, match=r"^controller\.preview_window_s: too long for the sample"
            ):
                parse_config(minimal(controller={"preview_window_s": window}))

    @pytest.mark.parametrize(
        "gait, message",
        [
            (
                {"first_step_s": 1.0e308, "last_step_end_s": 1.0e308, "step_period_s": 1.0},
                "vanishes against the step times",
            ),
            # from 2**53 - 2 the times move by 1 up to 2**53, where adding
            # 0.75 leaves a time where it is
            (
                {"first_step_s": 2.0**53 - 2.0, "last_step_end_s": 2.0**53 + 100.0,
                 "step_period_s": 0.75},
                "vanishes against the step times",
            ),
            ({"last_step_end_s": 17.0, "step_period_s": 1.0e-12}, "too short: over"),
        ],
        ids=["at-1e308", "past-2**53", "tiny"],
    )
    def test_step_period_must_move_every_step_time(self, gait, message):
        """An in-place gait whose period vanishes against its step times
        would never finish building its footsteps; one of more than
        MAX_SAMPLES steps would take as long and hold as much as a run of
        that many samples."""
        with pytest.raises(ConfigError, match=rf"^gait\.step_period_s: {message}"):
            parse_config(minimal(gait={"kind": "inplace", **gait}))


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, prefix + (i,))


def _keys(node):
    return {p[-1] for p in _paths(node) if p and isinstance(p[-1], str)}


_BASES = [RICH] + [load_raw_config(bundled_scenario_path(n)) for n in BUNDLED]
_NAMES = sorted(set().union(*map(_keys, _BASES)) | {"factor", "period_s", "kind", "mode"})
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(
        ("standing", "inplace", "footsteps", "constant", "step", "sinusoid", "linear")
    ),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(
            st.one_of(st.sampled_from(_NAMES), st.text(max_size=4), st.integers()),
            inner,
            max_size=4,
        ),
    ),
    max_leaves=12,
)


class TestParseRaisesOnlyConfigError:
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(_VALUES)
    def test_arbitrary_value(self, value):
        # a mapping is also tried on top of a valid config, to get past `name`
        merged = {**minimal(), **value} if isinstance(value, dict) else None
        for raw in (value, merged):
            try:
                parse_config(raw)
            except ConfigError:
                pass

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_valid_config_with_one_value_replaced(self, data):
        raw = copy.deepcopy(data.draw(st.sampled_from(_BASES)))
        path = data.draw(st.sampled_from(list(_paths(raw))[1:]))
        node = raw
        for k in path[:-1]:
            node = node[k]
        target = node[path[-1]]
        if isinstance(target, dict) and data.draw(st.booleans()):
            target[data.draw(st.sampled_from(_NAMES))] = data.draw(_VALUES)
        else:
            node[path[-1]] = data.draw(_VALUES)
        try:
            cfg = parse_config(raw)
        except ConfigError:
            return
        assert parse_config(config_to_dict(cfg)) == cfg
