"""Command line front end: run scenarios, compare traces, audit gains.

`run` writes trace.csv, metrics.txt and run.json to its output directory,
which it creates before the run starts. `compare` reads each trace's
summary with scenario.read_summary, one trace at a time, and `gains`
prints the poles PreviewGains checked (pole_abs).

Exit codes: 0 success, 1 config, usage or output error, 2 plant
divergence, 3 a control step failed mid-run (unloaded feet, non-finite
plant state).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core_dynamics import compute_coefficients
from .errors import DegenerateScale, RiccatiDivergence, SchemaMismatch
from .pattern_generator import synthesize_gains
from .scenario import (
    apply_overrides,
    compare_runs,
    format_comparison,
    list_bundled_scenarios,
    load_raw_config,
    parse_config,
    read_summary,
    resolve_config_path,
    run_scenario,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locomanip",
        description=(
            "Closed-loop walking control scenarios: pattern generation under "
            "manipulation forces, DCM stabilization and a point-mass plant."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="run one scenario, write trace.csv, metrics.txt and run.json",
        description=(
            "Run a scenario to completion. --config takes a YAML path or a "
            "bundled name (%s)." % ", ".join(list_bundled_scenarios())
        ),
    )
    run.add_argument("--config", required=True, help="YAML path or bundled name")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--seed", type=int, default=None, help="noise seed (noise only)")
    run.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config field by dot path, e.g. controller.k_p=1.5",
    )

    compare = sub.add_parser(
        "compare",
        help="compare two trace CSVs metric by metric",
        description="Print per-metric a/b ratios for two runs sharing a schema.",
    )
    compare.add_argument("trace_a")
    compare.add_argument("trace_b")
    compare.add_argument(
        "--metric",
        action="append",
        default=None,
        help="restrict to this metric (repeatable)",
    )

    gains = sub.add_parser(
        "gains",
        help="print synthesized preview gains and closed-loop eigenvalues",
        description=(
            "Synthesize the preview and stabilizer loops of a scenario and "
            "print their gains and poles without running it."
        ),
    )
    gains.add_argument("--config", required=True, help="YAML path or bundled name")
    gains.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE"
    )
    return parser


def _load(args, seed=None):
    """Parse --config after every --override. A seed (run --seed) then
    replaces the config's seed, so the schema checks it and it wins over
    --override seed=..."""
    raw = load_raw_config(resolve_config_path(args.config))
    if args.override:
        raw = apply_overrides(raw, args.override)
    if seed is not None:
        raw = {**raw, "seed": seed}
    return parse_config(raw)


def _cmd_run(args) -> int:
    config = _load(args, args.seed)
    result = run_scenario(config, out_dir=args.out)
    trace = result.trace
    if trace.failure is not None:
        print(
            f"scenario {config.name}: FAILED at t={trace.failed_at:.3f} s: "
            f"{trace.failure}: {trace.failure_detail}"
        )
    elif trace.diverged:
        print(f"scenario {config.name}: DIVERGED at t={trace.diverged_at:.3f} s")
    else:
        print(f"scenario {config.name}: completed {trace.duration:.3f} s")
    for c in result.checks:
        state = "PASS" if c.passed else "FAIL"
        print(f"check.{c.name}={state}  ({c.detail})")
    print(f"trace: {result.trace_path}")
    print(f"metrics: {result.metrics_path}")
    return result.exit_code


def _cmd_compare(args) -> int:
    # one trace is held at a time: a's columns are freed before b is read
    a = read_summary(args.trace_a)
    rows = compare_runs(a, read_summary(args.trace_b), metric_spec=args.metric)
    sys.stdout.write(format_comparison(rows))
    return 0


def _fmt_vec(values) -> str:
    return ",".join("%.12g" % v for v in values)


def _cmd_gains(args) -> int:
    config = _load(args)
    c = config.controller
    omega = compute_coefficients(config.robot.params()).omega
    gains = synthesize_gains(c.preview_weights(), omega, config.dt_s, c.preview_window_s)
    st_poles = c.stabilizer_gains().closed_loop_poles(omega)
    print(f"scenario={config.name}")
    print(f"omega_per_s={omega:.12g}")
    print(f"dt_s={config.dt_s:.12g}")
    print(f"n_preview={gains.n_preview}")
    print(f"k_fb={_fmt_vec(gains.k_fb)}")
    print(f"sum_k_ff={np.sum(gains.k_ff):.12g}")
    print(f"preview_pole_abs={_fmt_vec(gains.pole_abs)}")
    print(
        "stabilizer_poles="
        + ",".join("%.12g%+.12gj" % (p.real, p.imag) for p in st_poles)
    )
    print(f"stabilizer_pole_max_real={np.max(st_poles.real):.12g}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_gains(args)
    except (ValueError, OSError, DegenerateScale, RiccatiDivergence) as exc:
        if isinstance(exc, SchemaMismatch):
            kind = "schema mismatch"
        elif isinstance(exc, OSError):
            # a config file that cannot be read is a ConfigError, so an
            # OSError here is an output: a file, or a closed stdout
            kind = "output error"
        else:
            kind = "config error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
