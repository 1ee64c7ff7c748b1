"""Command line round trips: run, compare and gains subcommands."""

import json
import math
import os
import platform
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from _pipeline import parse_metrics_file
from test_plant_sim import random_trace, traced_peak
from test_trace_digests import DIGESTS

import locomanip
from locomanip import scenario
from locomanip.cli import main
from locomanip.plant_sim import TraceLog
from locomanip.scenario import (
    apply_overrides,
    bundled_scenario_path,
    load_raw_config,
    parse_config,
    recorded_summary,
    run_record,
    run_scenario,
    trace_checksum,
    trace_summary,
    write_run_record,
)

K_FB_REF = (4715.60195026, 2705.42004837, 391.51776754)

MINI = {
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
            "contacts": [{"position_m": [0.3, 0.0, 0.4], "force_n": [-30.0, 0.0, 0.0]}],
        },
    ],
    "checks": [{"name": "completed", "metric": "diverged", "max": 0.0}],
}


@pytest.fixture
def mini_path(tmp_path):
    p = tmp_path / "mini.yaml"
    p.write_text(yaml.safe_dump(MINI))
    return p


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_bundled_scenario(self, tmp_path, capsys):
        code = run_cli("run", "--config", "nominal", "--out", str(tmp_path / "o"))
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario nominal: completed" in out
        assert "check.completed=PASS" in out
        assert (tmp_path / "o" / "trace.csv").is_file()
        assert (tmp_path / "o" / "metrics.txt").is_file()

    def test_config_file_with_overrides(self, mini_path, tmp_path, capsys):
        code = run_cli(
            "run",
            "--config", str(mini_path),
            "--out", str(tmp_path / "o"),
            "--override", "duration_s=1.0",
            "--override", "controller.k_p=1.5",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "completed 1.000 s" in out

    def test_unknown_field_exits_one(self, mini_path, tmp_path, capsys):
        code = run_cli(
            "run",
            "--config", str(mini_path),
            "--out", str(tmp_path / "o"),
            "--override", "controller.kp=2.0",
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err and "controller.kp" in err

    @pytest.mark.parametrize(
        "check, field",
        [
            ("{metric: tail.mean_com_zmp_ofset_x, max: 1.0}", "checks[0].metric"),
            ("{metric: rms_zmp_dev_x, exceeds: nosuch}", "checks[0].exceeds"),
            ("{metric: failure, max: 0.0}", "checks[0].metric"),
        ],
        ids=["misspelled", "exceeds", "text"],
    )
    def test_unknown_check_metric_exits_one(self, check, field, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli(
            "run", "--config", "testcase1", "--out", str(out),
            "--override", f"checks=[{check}]",
        )
        assert code == 1
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "appended, argv, key",
        [
            ("dt_s: 0.002\n", (), "dt_s"),
            (
                "",
                ("--override", "disturbances=[{kind: step, amplitude_n: -1.0, amplitude_n: 0.0}]"),
                "amplitude_n",
            ),
        ],
        ids=["file", "override"],
    )
    def test_repeated_key_exits_one(self, appended, argv, key, mini_path, tmp_path, capsys):
        """YAML keys are unique; a repeated one must not drop an earlier value."""
        mini_path.write_text(mini_path.read_text() + appended)
        out = tmp_path / "o"
        code = run_cli("run", "--config", str(mini_path), "--out", str(out), *argv)
        assert code == 1
        assert f"found repeated key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_one(self, tmp_path, capsys):
        code = run_cli("run", "--config", str(tmp_path / "absent.yaml"))
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_override_exits_one(self, mini_path, capsys):
        code = run_cli("run", "--config", str(mini_path), "--override", "nonsense")
        assert code == 1
        assert "must look like" in capsys.readouterr().err

    def test_sample_count_overflow_exits_one(self, capsys):
        code = run_cli(
            "run",
            "--config", "nominal",
            "--override", "duration_s=1e308",
            "--override", "dt_s=1e-300",
        )
        assert code == 1
        assert "config error: duration_s: too long" in capsys.readouterr().err

    def test_overflowing_sinusoid_phase_fails_before_the_run(self, tmp_path, capsys):
        """A period so short that the phase overflows is a config error
        naming the field: no warning, no output directory."""
        out = tmp_path / "o"
        code = run_cli(
            "run", "--config", "testcase1", "--out", str(out), "--override",
            "disturbances=[{kind: sinusoid, amplitude_n: 10.0, period_s: 1.0e-310}]",
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "config error: disturbances[0].period_s: too short: the phase overflows\n"
        )
        assert not out.exists()

    def test_seed_flag_is_the_config_seed(self, mini_path, tmp_path):
        """--seed N runs as --override seed=N, and wins over it."""

        def trace(name, *argv):
            out = tmp_path / name
            code = run_cli(
                "run", "--config", str(mini_path), "--out", str(out),
                "--override", "plant.com_noise_m=1e-4", *argv,
            )
            assert code == 0
            return (out / "trace.csv").read_bytes()

        flag = trace("flag", "--seed", "5")
        assert flag == trace("override", "--override", "seed=5")
        assert flag == trace("both", "--override", "seed=4", "--seed", "5")
        assert flag != trace("other", "--seed", "4")

    @pytest.mark.parametrize("noise", ["0.0", "1e-4"])
    def test_negative_seed_exits_one(self, noise, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli(
            "run", "--config", "nominal", "--out", str(out),
            "--override", f"plant.com_noise_m={noise}", "--seed", "-1",
        )
        assert code == 1
        assert "config error: seed: must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_noise_without_seed_exits_one(self, tmp_path, capsys):
        """Noise without a seed is refused before the run: exit 1 and no
        output directory, rather than a trace no rerun reproduces."""
        out = tmp_path / "o"
        code = run_cli(
            "run", "--config", "testcase1", "--out", str(out),
            "--override", "duration_s=2.0", "--override", "plant.com_noise_m=0.001",
        )
        assert code == 1
        assert "config error: seed: measurement noise needs a seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "gains"])
    def test_short_preview_window_names_field(self, command, capsys):
        code = run_cli(
            command, "--config", "nominal", "--override", "controller.preview_window_s=0.5"
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "config error: controller.preview_window_s: must be >= 1" in err

    @pytest.mark.parametrize(
        "command, config, overrides, message",
        [
            (
                command,
                "nominal",
                ("controller.preview_window_s=1.0e308",),
                "controller.preview_window_s: too long for the sample rate: "
                "over 10000000 samples",
            )
            for command in ("run", "gains")
        ]
        + [
            (
                "run",
                "nominal",
                ("dt_s=1.0e-9",),
                "duration_s: too long for the sample rate: over 10000000 samples",
            ),
            (
                "run",
                "testcase1",
                (
                    "gait.first_step_s=1.0e308",
                    "gait.last_step_end_s=1.0e308",
                    "gait.step_period_s=1.0",
                ),
                "gait.step_period_s: vanishes against the step times",
            ),
            (
                "run",
                "testcase1",
                ("gait.step_period_s=1.0e-12",),
                "gait.step_period_s: too short: over 10000000 steps",
            ),
        ],
        ids=["window-run", "window-gains", "samples", "period-vanishes", "period-tiny"],
    )
    def test_huge_sizes_are_config_errors(
        self, command, config, overrides, message, tmp_path, capsys
    ):
        """A finite time or size too large to sample exits 1 before anything
        is built: no traceback, no output directory. The gait ones on
        testcase1 would never finish building their footsteps."""
        out = tmp_path / "o"
        argv = [command, "--config", config]
        for o in overrides:
            argv += ["--override", o]
        if command == "run":
            argv += ["--out", str(out)]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, beyond, at_end",
        [
            (
                "metrics.windows",
                "[{name: w, start_s: 0.0, end_s: 1.0e308}]",
                "[{name: w, start_s: 0.0, end_s: 0.5}]",
            ),
            ("metrics.skip_initial_s", "1.0e308", "0.5"),
            ("metrics.exclude_windows_s", "[[0.1, 1.0e308]]", "[[0.1, 0.5]]"),
        ],
        ids=["window", "skip", "exclude"],
    )
    def test_metric_times_beyond_the_run_clip_to_it(
        self, field, beyond, at_end, tmp_path, capsys
    ):
        """A metrics time past the run's end (0.5 s) is the run's end: the
        run completes and writes the metrics of the time at the end."""
        texts = []
        for name, value in (("beyond", beyond), ("at_end", at_end)):
            out = tmp_path / name
            code = run_cli(
                "run", "--config", "nominal", "--out", str(out),
                "--override", "duration_s=0.5", "--override", f"{field}={value}",
            )
            assert code == 0
            texts.append((out / "metrics.txt").read_bytes())
        assert "Traceback" not in capsys.readouterr().err
        assert texts[0] == texts[1]

    def test_divergence_exits_two(self, mini_path, tmp_path, capsys):
        code = run_cli(
            "run",
            "--config", str(mini_path),
            "--out", str(tmp_path / "o"),
            "--override", "plant.divergence_limit_m=0.02",
            "--override",
            'disturbances=[{kind: step, axis: x, amplitude_n: -400.0, start_s: 0.5}]',
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "DIVERGED" in out


    @pytest.mark.parametrize(
        "amplitude, kind, detail",
        [
            (600.0, "Infeasible", "net wrench must press downward on the ground"),
            # two hands lifting half the weight each: no vertical force left
            (490.5, "NonPhysical", "wrench has no vertical force"),
        ],
        ids=["unloading-push", "full-weight"],
    )
    def test_mid_run_failure_exits_three(self, amplitude, kind, detail, tmp_path, capsys):
        out_dir = tmp_path / "o"
        code = run_cli(
            "run",
            "--config", "testcase1",
            "--out", str(out_dir),
            "--override",
            "disturbances=[{kind: step, axis: z, amplitude_n: %s, start_s: 5.0, end_s: 8.0}]"
            % amplitude,
        )
        out = capsys.readouterr().out
        assert code == 3
        assert f"FAILED at t=5.000 s: {kind}: {detail}" in out
        # the trace holds the 2500 steps before the failed one
        assert len((out_dir / "trace.csv").read_text().splitlines()) == 1 + 2500
        metrics = parse_metrics_file(out_dir / "metrics.txt")
        assert metrics["failure"] == kind
        assert metrics["failed_at_s"] == 5.0
        assert metrics["samples"] == 2500.0
        # a failed run fails every check, completed included
        assert f"check.completed=FAIL  (run failed at t=5.000 s: {kind}" in out
        assert metrics["check.completed"] == "FAIL"
        assert metrics["overall"] == "FAIL"
        assert all(v == "FAIL" for k, v in metrics.items() if k.startswith("check."))

    # the metrics of the overflowing steps before the failure overflow too
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_state_exits_three(self, tmp_path, capsys):
        """A 1e300 N push, never declared divergent, overflows the CoM state."""
        out_dir = tmp_path / "o"
        code = run_cli(
            "run",
            "--config", "nominal",
            "--out", str(out_dir),
            "--override", "plant.divergence_limit_m=1.0e308",
            "--override",
            "hands=[{time_s: 0.0, contacts: [{position_m: [0.3, 0.0, 0.3]}]}]",
            "--override",
            "disturbances=[{kind: step, axis: x, amplitude_n: 1.0e300, start_s: 1.0}]",
        )
        assert code == 3
        assert ": NonFiniteState: " in capsys.readouterr().out
        metrics = parse_metrics_file(out_dir / "metrics.txt")
        assert metrics["failure"] == "NonFiniteState"
        assert metrics["samples"] == round(metrics["failed_at_s"] / 0.002)

    def test_completed_run_has_no_failure_keys(self, mini_path, tmp_path):
        assert run_cli("run", "--config", str(mini_path), "--out", str(tmp_path / "o")) == 0
        metrics = parse_metrics_file(tmp_path / "o" / "metrics.txt")
        assert "failure" not in metrics and "failed_at_s" not in metrics


    def test_failure_on_first_step_fails_checks(self, tmp_path, capsys):
        """The lift acts from t = 0, so the trace keeps only its header."""
        out_dir = tmp_path / "o"
        code = run_cli(
            "run",
            "--config", "testcase1",
            "--out", str(out_dir),
            "--override",
            "disturbances=[{kind: step, axis: z, amplitude_n: 600.0, start_s: 0.0, end_s: 8.0}]",
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "check.completed=FAIL  (run failed at t=0.000 s: Infeasible" in out
        assert len((out_dir / "trace.csv").read_text().splitlines()) == 1
        metrics = parse_metrics_file(out_dir / "metrics.txt")
        assert metrics["samples"] == 0.0
        assert metrics["overall"] == "FAIL"

    def test_unusable_out_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        """--out under a plain file exits 1 naming the path, before any step."""
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        steps = []
        loop = scenario.run_closed_loop

        def counted(*args, **kwargs):
            steps.append(1)
            return loop(*args, **kwargs)

        monkeypatch.setattr(scenario, "run_closed_loop", counted)
        out = afile / "sub"
        code = run_cli("run", "--config", "testcase1", "--out", str(out))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            f"output error: cannot create output directory {out}: Not a directory\n"
        )
        assert captured.out == ""
        assert steps == []
        assert list(tmp_path.iterdir()) == [afile]
        assert afile.read_text() == "kept\n"

    def test_build_error_leaves_no_out_dir(self, tmp_path, capsys):
        """A config error found while building the scenario (a gap between
        footsteps) exits 1 before the output directory is made."""
        out = tmp_path / "o2"
        code = run_cli(
            "run", "--config", "testcase1", "--out", str(out),
            "--override", "duration_s=4.0",
            "--override",
            "gait={kind: footsteps, footsteps: ["
            "{foot: left, position_m: [0.0, 0.1], start_s: 1.0, end_s: 2.0}, "
            "{foot: right, position_m: [0.0, -0.1], start_s: 2.5, end_s: 3.0}]}",
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "config error: gap between footsteps at t=2..2.5\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "override",
        [
            "disturbances=[{kind: step, axis: x, amplitude_n: -150.0, "
            "start_s: 2.0, end_s: 8.0}]",
            "plant.force_noise_n=50.0",
        ],
        ids=["disturbance", "force-noise"],
    )
    def test_force_on_absent_hands_exits_one(self, override, tmp_path, capsys):
        """nominal has no hands: a push or force noise there used to leave
        the trace untouched and exit 0. It is a config error before the
        output directory is made."""
        out = tmp_path / "o"
        code = run_cli(
            "run", "--config", "nominal", "--out", str(out), "--seed", "3",
            "--override", "duration_s=6.0", "--override", override,
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("config error: ")
        assert "hand contact" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["trace.csv", "metrics.txt", "run.json"])
    def test_unwritable_output_file_is_an_output_error(self, name, tmp_path, capsys):
        """An output file that cannot be written exits 1 naming it, as an
        output error, not a config error."""
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        code = run_cli(
            "run", "--config", "testcase1", "--override", "duration_s=1.0",
            "--out", str(out),
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"output error: cannot write {out / name}: Is a directory\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "name, overrides",
        list(DIGESTS),
        ids=[name + "".join(f"[{o}]" for o in ov) for name, ov in DIGESTS],
    )
    def test_record_holds_the_written_checksum(self, name, overrides, tmp_path):
        """to_csv returns the checksum of the bytes it wrote, and run.json
        records it without reading trace.csv back."""
        raw = load_raw_config(bundled_scenario_path(name))
        if overrides:
            raw = apply_overrides(raw, list(overrides))
        result = run_scenario(parse_config(raw), out_dir=tmp_path)
        record = json.loads((tmp_path / "run.json").read_text())
        assert record["trace"] == trace_checksum(result.trace_path)
        again = tmp_path / "again.csv"
        assert result.trace.to_csv(again) == trace_checksum(again) == record["trace"]

    def test_run_record(self, mini_path, tmp_path):
        """run.json records what ran; a rerun writes the same bytes."""
        argv = ("--seed", "3", "--override", "plant.com_noise_m=1e-4")
        for sub in ("a", "b"):
            out = str(tmp_path / sub)
            assert run_cli("run", "--config", str(mini_path), "--out", out, *argv) == 0
        text = (tmp_path / "a" / "run.json").read_bytes()
        assert text == (tmp_path / "b" / "run.json").read_bytes()
        record = json.loads(text)
        assert list(record) == [
            "config", "seed", "exit_code", "diverged_at_s", "failure", "versions",
            "trace", "summary",
        ]
        expected = {**MINI, "seed": 3, "plant": {"com_noise_m": 1e-4}}
        assert parse_config(record["config"]) == parse_config(expected)
        assert record["seed"] == 3
        assert record["exit_code"] == 0
        assert record["diverged_at_s"] is None and record["failure"] is None
        assert record["versions"] == {
            "locomanip": locomanip.__version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "pyyaml": yaml.__version__,
            "libyaml": yaml.__with_libyaml__,
        }
        assert record["trace"] == trace_checksum(tmp_path / "a" / "trace.csv")
        assert record["summary"]["samples"] == 400

    def test_diverged_and_failed_runs_write_a_record(self, mini_path, tmp_path):
        diverged = tmp_path / "diverged"
        code = run_cli(
            "run", "--config", str(mini_path), "--out", str(diverged),
            "--override", "plant.divergence_limit_m=0.02",
            "--override",
            "disturbances=[{kind: step, axis: x, amplitude_n: -400.0, start_s: 0.5}]",
        )
        assert code == 2
        record = json.loads((diverged / "run.json").read_text())
        metrics = parse_metrics_file(diverged / "metrics.txt")
        assert record["exit_code"] == 2 and record["failure"] is None
        assert record["diverged_at_s"] == pytest.approx(metrics["diverged_at_s"], rel=1e-12)
        assert record["summary"]["samples"] == metrics["samples"]

        failed = tmp_path / "failed"
        code = run_cli(
            "run", "--config", "testcase1", "--out", str(failed),
            "--override", "duration_s=6.0",
            "--override",
            "disturbances=[{kind: step, axis: z, amplitude_n: 600.0, start_s: 5.0, end_s: 8.0}]",
        )
        assert code == 3
        record = json.loads((failed / "run.json").read_text())
        assert record["exit_code"] == 3 and record["diverged_at_s"] is None
        assert record["failure"] == {
            "kind": "Infeasible",
            "at_s": 5.0,
            "detail": "net wrench must press downward on the ground",
        }
        assert record["summary"]["samples"] == 2500


class TestCompare:
    @pytest.fixture
    def two_traces(self, mini_path, tmp_path):
        for sub in ("a", "b"):
            assert run_cli(
                "run", "--config", str(mini_path), "--out", str(tmp_path / sub)
            ) == 0
        return tmp_path / "a" / "trace.csv", tmp_path / "b" / "trace.csv"

    def test_identical_runs(self, two_traces, capsys):
        a, b = two_traces
        code = run_cli("compare", str(a), str(b))
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert lines and all("ratio=1 " in l and "larger=equal" in l for l in lines)

    def test_metric_filter(self, two_traces, capsys):
        a, b = two_traces
        code = run_cli(
            "compare", str(a), str(b),
            "--metric", "rms_zmp_dev_x", "--metric", "max_dcm_err_y",
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 2
        assert lines[0].startswith("metric=rms_zmp_dev_x ")
        assert lines[1].startswith("metric=max_dcm_err_y ")

    def test_run_only_metric_names_what_a_trace_yields(self, two_traces, capsys):
        """Clamp counts come from metrics.txt; compare says which names work."""
        a, b = two_traces
        code = run_cli("compare", str(a), str(b), "--metric", "zmp_saturated_steps")
        err = capsys.readouterr().err
        assert code == 1
        assert "unknown comparison metric 'zmp_saturated_steps'" in err
        assert "a trace CSV yields rms_zmp_dev_x, " in err
        assert "mean_com_zmp_offset_y." in err
        assert "cop_clamped_steps" in err
        assert "rms_implied_zmp_dev_*" in err
        assert "metrics.txt" in err

    def test_schema_mismatch_exits_one(self, two_traces, tmp_path, capsys):
        a, b = two_traces
        text = b.read_text().splitlines()
        text[0] = text[0].replace("fext_sum_z", "fext_sum_w")
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(text) + "\n")
        code = run_cli("compare", str(a), str(broken))
        assert code == 1
        assert "schema mismatch" in capsys.readouterr().err

    def test_missing_metric_column_exits_one(self, two_traces, tmp_path, capsys):
        """Both traces lack z_x^a: the column sets agree, the metrics cannot
        be taken."""
        a, _ = two_traces
        trace = TraceLog.from_csv(a)
        del trace.columns["z_x^a"]
        broken = tmp_path / "broken.csv"
        with open(broken, "w") as fh:
            fh.write(",".join(trace.columns) + "\n")
            np.savetxt(fh, np.column_stack(list(trace.columns.values())), delimiter=",")
        code = run_cli("compare", str(broken), str(broken))
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"schema mismatch: {broken}: trace lacks metric columns z_x^a\n"

    def test_one_trace_is_held_at_a_time(self, tmp_path, capsys):
        """compare frees trace a's columns before it reads trace b: its
        traced peak stays below 1.3 times the columns of one 8000-row trace
        (holding both would take twice that)."""
        paths = []
        for seed in (1, 2):
            trace = random_trace(8000, dt=0.005)
            trace.columns["c_x^a"] = trace.columns["c_x^a"] + seed
            paths.append(str(tmp_path / f"{seed}.csv"))
            trace.to_csv(paths[-1])
        one = sum(c.nbytes for c in trace.columns.values())
        run_cli("compare", *paths)  # first-call caches
        code, peak = traced_peak(lambda: run_cli("compare", *paths))
        assert code == 0
        assert "larger=b" in capsys.readouterr().out
        assert peak < 1.3 * one, (peak, one)

    @pytest.mark.filterwarnings("error")
    def test_header_only_trace_is_too_short(self, two_traces, tmp_path, capsys):
        """A run that fails on its first step writes only the header."""
        a, b = two_traces
        empty = tmp_path / "empty.csv"
        empty.write_text(b.read_text().splitlines()[0] + "\n")
        code = run_cli("compare", str(a), str(empty))
        assert code == 1
        assert "need a time column with at least 2 rows" in capsys.readouterr().err

    def test_unreadable_trace_is_a_schema_mismatch(self, two_traces, tmp_path, capsys):
        """A ragged row, a missing file and a non-numeric cell each exit 1
        as a schema mismatch that names the file once."""
        a, b = two_traces
        lines = b.read_text().splitlines()
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("\n".join([*lines[:3], lines[3] + ",1.0", *lines[4:]]) + "\n")
        cells = lines[3].split(",")
        cells[2] = "abc"
        text = tmp_path / "text.csv"
        text.write_text("\n".join([*lines[:3], ",".join(cells), *lines[4:]]) + "\n")
        for path, reason in (
            (ragged, "the number of columns changed from 26 to 27"),
            (tmp_path / "missing.csv", "No such file or directory"),
            (text, "could not convert string 'abc' to float64"),
        ):
            code = run_cli("compare", str(a), str(path))
            err = capsys.readouterr().err
            assert code == 1
            assert err.startswith(f"schema mismatch: {path}: {reason}"), err
            assert err.count(str(path)) == 1, err


def bits(summary) -> tuple:
    """A trace summary with each float as its IEEE 754 bytes."""
    return (
        summary.columns,
        struct.pack("<d", summary.dt),
        summary.samples,
        {k: struct.pack("<d", v) for k, v in summary.metrics.items()},
    )


def compare_outputs(capsys, *argv) -> tuple:
    code = run_cli("compare", *map(str, argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parsed_outputs(capsys, *argv) -> tuple:
    """compare_outputs with every run.json beside the traces moved away."""
    records = {Path(p).parent / "run.json" for p in argv}
    moved = [r for r in records if r.exists()]
    for r in moved:
        r.rename(r.with_suffix(".away"))
    try:
        return compare_outputs(capsys, *argv)
    finally:
        for r in moved:
            r.with_suffix(".away").rename(r)


class TestRecordedSummary:
    """compare takes a trace's summary from run.json only where its checksum
    matches, and it then prints exactly what parsing the CSV prints."""

    @pytest.mark.parametrize(
        "name, overrides",
        list(DIGESTS),
        ids=[name + "".join(f"[{o}]" for o in ov) for name, ov in DIGESTS],
    )
    def test_summary_equals_parsed_trace(self, name, overrides, tmp_path, capsys):
        raw = load_raw_config(bundled_scenario_path(name))
        if overrides:
            raw = apply_overrides(raw, list(overrides))
        path = run_scenario(parse_config(raw), out_dir=tmp_path).trace_path
        summary = recorded_summary(path)
        assert summary is not None
        assert bits(summary) == bits(trace_summary(TraceLog.from_csv(path)))
        recorded = compare_outputs(capsys, path, path)
        assert recorded[0] == 0
        assert recorded == parsed_outputs(capsys, path, path)

    @pytest.fixture
    def two_runs(self, mini_path, tmp_path):
        for sub, argv in (("a", ()), ("b", ("--override", "controller.k_p=1.5"))):
            out = str(tmp_path / sub)
            assert run_cli("run", "--config", str(mini_path), "--out", out, *argv) == 0
        return tmp_path / "a" / "trace.csv", tmp_path / "b" / "trace.csv"

    def test_one_byte_edit_is_parsed(self, two_runs, capsys):
        a, b = two_runs
        before = compare_outputs(capsys, a, b)
        lines = b.read_text().splitlines(keepends=True)
        column = lines[0].rstrip("\n").split(",").index("z_x^a")
        cells = lines[100].split(",")
        digit = next(i for i, ch in enumerate(cells[column]) if ch in "123456789")
        new = "1" if cells[column][digit] != "1" else "9"
        cells[column] = cells[column][:digit] + new + cells[column][digit + 1 :]
        lines[100] = ",".join(cells)
        edited = "".join(lines)
        assert len(edited) == len(b.read_text())
        b.write_text(edited)
        assert recorded_summary(b) is None
        after = compare_outputs(capsys, a, b)
        assert after == parsed_outputs(capsys, a, b)
        assert after[0] == 0 and after[1] != before[1]

    def test_missing_record_is_parsed(self, two_runs, capsys):
        a, b = two_runs
        (b.parent / "run.json").unlink()
        assert compare_outputs(capsys, a, b) == parsed_outputs(capsys, a, b)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: text[: len(text) // 2],
            lambda text: "",
            lambda text: "[]",
            lambda text: text.replace('"summary": {', '"summary": [{', 1),
        ],
        ids=["truncated", "empty", "list", "bad-json"],
    )
    def test_malformed_record_is_parsed(self, two_runs, capsys, damage):
        a, b = two_runs
        record = b.parent / "run.json"
        record.write_text(damage(record.read_text()))
        assert recorded_summary(b) is None
        assert compare_outputs(capsys, a, b) == parsed_outputs(capsys, a, b)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("trace", "crc32", "text"),
            ("trace", "bytes", True),
            ("summary", "samples", 400.0),
            ("summary", "dt", 1),
            ("summary", "columns", "time"),
            ("summary", "metrics", [1.0]),
        ],
    )
    def test_record_of_wrong_types_is_parsed(self, two_runs, capsys, section, key, value):
        a, b = two_runs
        path = b.parent / "run.json"
        record = json.loads(path.read_text())
        record[section][key] = value
        write_run_record(path, record)
        assert recorded_summary(b) is None
        assert compare_outputs(capsys, a, b) == parsed_outputs(capsys, a, b)

    def test_record_of_other_metrics_is_parsed(self, two_runs, capsys):
        a, b = two_runs
        path = b.parent / "run.json"
        record = json.loads(path.read_text())
        del record["summary"]["metrics"]["rms_gammaL_y"]
        write_run_record(path, record)
        assert recorded_summary(b) is None
        assert compare_outputs(capsys, a, b) == parsed_outputs(capsys, a, b)

    def test_failed_run_of_one_row_is_parsed(self, two_runs, tmp_path, capsys):
        a, _ = two_runs
        out = tmp_path / "failed"
        code = run_cli(
            "run", "--config", "testcase1", "--out", str(out),
            "--override",
            "disturbances=[{kind: step, axis: z, amplitude_n: 600.0, start_s: 0.0, end_s: 8.0}]",
        )
        assert code == 3
        capsys.readouterr()
        assert json.loads((out / "run.json").read_text())["summary"] is None
        failed = compare_outputs(capsys, a, out / "trace.csv")
        assert failed == parsed_outputs(capsys, a, out / "trace.csv")
        assert failed[0] == 1
        assert failed[2].startswith("schema mismatch: ")
        assert failed[2].endswith(" at least 2 rows\n")

    def test_trace_lacking_a_metric_column_is_parsed(self, two_runs, tmp_path, capsys):
        a, _ = two_runs
        trace = TraceLog.from_csv(a)
        del trace.columns["z_x^a"]
        broken = tmp_path / "broken" / "trace.csv"
        broken.parent.mkdir()
        with open(broken, "w") as fh:
            fh.write(",".join(trace.columns) + "\n")
            np.savetxt(fh, np.column_stack(list(trace.columns.values())), delimiter=",")
        record = run_record(parse_config(MINI), trace, 0, trace_checksum(broken))
        assert record["summary"] is None
        write_run_record(broken.parent / "run.json", record)
        lacking = compare_outputs(capsys, broken, broken)
        assert lacking == parsed_outputs(capsys, broken, broken)
        assert lacking == (
            1, "", f"schema mismatch: {broken}: trace lacks metric columns z_x^a\n"
        )

    def test_non_finite_and_signed_zero_metrics_round_trip(self, two_runs):
        _, b = two_runs
        path = b.parent / "run.json"
        record = json.loads(path.read_text())
        metrics = record["summary"]["metrics"]
        special = dict(zip(metrics, (math.nan, math.inf, -math.inf, -0.0, 0.0)))
        metrics.update(special)
        write_run_record(path, record)
        text = path.read_text()
        for spelled in ("NaN", "Infinity", "-Infinity", "-0.0"):
            assert f": {spelled},\n" in text
        read = recorded_summary(b).metrics
        for name, value in special.items():
            assert struct.pack("<d", read[name]) == struct.pack("<d", value), name

    def test_special_values_survive_the_csv_and_the_record(self, tmp_path):
        """A trace with nan, inf, -inf and -0.0 in its columns: the written
        summary equals the parsed one bit for bit."""
        trace = random_trace(1000, special=True)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        record = run_record(parse_config(MINI), trace, 0, trace_checksum(path))
        write_run_record(tmp_path / "run.json", record)
        summary = recorded_summary(path)
        assert not all(map(math.isfinite, summary.metrics.values()))
        assert bits(summary) == bits(trace_summary(TraceLog.from_csv(path)))


# after a run and a compare in a fresh interpreter, which modules are loaded
_LOADED = """
import sys
from locomanip import cli
out = sys.argv[1]
assert cli.main([
    "run", "--config", "testcase1", "--override", "duration_s=1.0", "--out", out,
]) == 0
assert cli.main(["compare", out + "/trace.csv", out + "/trace.csv"]) == 0
print(sorted(m for m in sys.modules if "hashlib" in m))
"""


def test_no_hashlib_after_run_and_compare(tmp_path):
    """The trace checksum needs no hashlib: importing it maps OpenSSL's
    libcrypto, about 3.5 MB of resident memory in every process."""
    env = dict(os.environ)
    src = str(Path(locomanip.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", _LOADED, str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


_IMPORTED = """
import sys
import locomanip.cli
print(sorted(m for m in sys.modules if m in ("fractions", "decimal", "_decimal", "_pydecimal")))
"""


def test_cli_import_loads_no_fractions_or_decimal():
    """The trace writer's tables are built from Python ints: fractions
    would import decimal, about 0.55 MB of resident memory."""
    env = dict(os.environ)
    src = str(Path(locomanip.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORTED], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


class TestGains:
    def test_reports_reference_gains(self, capsys):
        code = run_cli("gains", "--config", "testcase1")
        out = capsys.readouterr().out
        assert code == 0
        fields = dict(
            line.split("=", 1) for line in out.splitlines() if "=" in line
        )
        assert fields["scenario"] == "testcase1"
        assert int(fields["n_preview"]) == 800
        k_fb = [float(v) for v in fields["k_fb"].split(",")]
        assert np.allclose(k_fb, K_FB_REF, rtol=1e-6)
        # discrete preview loop is strictly stable
        assert float(fields["preview_pole_abs"].split(",")[0]) < 1.0
        assert float(fields["stabilizer_pole_max_real"]) < 0.0

    def test_override_exponent_without_dot_is_a_number(self, capsys):
        """YAML 1.1 reads 1e-8 as a string; overrides read it as 1.0e-8."""
        outputs = []
        for value in ("1e-8", "1.0e-8"):
            code = run_cli(
                "gains", "--config", "nominal", "--override", f"controller.r_jerk={value}"
            )
            captured = capsys.readouterr()
            assert code == 0, captured.err
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]

    def test_gains_respect_overrides(self, capsys):
        code = run_cli(
            "gains", "--config", "nominal", "--override", "dt_s=0.005",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "n_preview=320" in out

    def test_noise_without_seed_exits_one(self, capsys):
        """gains parses the same config as run, so a noisy config without a
        seed is refused here too: the file describes a run no rerun could
        reproduce, whichever command reads it."""
        code = run_cli(
            "gains", "--config", "testcase1", "--override", "plant.com_noise_m=1e-4",
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "config error: seed: measurement noise needs a seed" in captured.err
        assert captured.out == ""
        assert run_cli(
            "gains", "--config", "testcase1", "--override", "plant.com_noise_m=1e-4",
            "--override", "seed=3",
        ) == 0

    def test_missing_contact_index_exits_one(self, capsys):
        """gains parses the same config as run, so a disturbance aimed at a
        hand contact that does not exist is refused here too."""
        code = run_cli(
            "gains", "--config", "testcase1", "--override",
            "disturbances=[{kind: step, amplitude_n: 1.0, contact_index: 5}]",
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(
            "config error: disturbances[0].contact_index: contact 5 does not exist"
        )
        assert captured.out == ""

    def test_closed_stdout_is_an_output_error(self, capsys, monkeypatch):
        """A reader that closes the pipe early (gains | head -1) is an output
        error, not a config error."""

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = run_cli("gains", "--config", "testcase1")
        assert code == 1
        assert capsys.readouterr().err == "output error: [Errno 32] Broken pipe\n"
