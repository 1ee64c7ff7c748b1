"""Command line round trips: run, compare and gains subcommands."""

import numpy as np
import pytest
import yaml

from locomanip.cli import main
from locomanip.scenario import parse_metrics_file

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

    @pytest.mark.parametrize("command", ["run", "gains"])
    def test_short_preview_window_names_field(self, command, capsys):
        code = run_cli(
            command, "--config", "nominal", "--override", "controller.preview_window_s=0.5"
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "config error: controller.preview_window_s: must be >= 1" in err

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

    @pytest.mark.filterwarnings("error")
    def test_header_only_trace_is_too_short(self, two_traces, tmp_path, capsys):
        """A run that fails on its first step writes only the header."""
        a, b = two_traces
        empty = tmp_path / "empty.csv"
        empty.write_text(b.read_text().splitlines()[0] + "\n")
        code = run_cli("compare", str(a), str(empty))
        assert code == 1
        assert "need a time column with at least 2 rows" in capsys.readouterr().err


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
