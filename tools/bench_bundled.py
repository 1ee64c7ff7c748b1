"""Stage times of every bundled scenario, written to BENCH_bundled.json.

    python3 tools/bench_bundled.py [--out BENCH_bundled.json]

Measures the checkout it sits in (`../src`), in one process. Each bundled
scenario runs REPEAT times through scenario.run_scenario, writing its
outputs into a temporary directory; every stage keeps its best (smallest)
time over the repeats. Stages are timed from outside the package, by
rebinding the module names the callers look up around a run, so `src/`
holds no timing code:

- build_scenario, and inside it the references (the gait reference and
  build_reference_frames), gains (synthesize_gains), feedforward
  (_feedforward) and preview_law (_preview_law, both axes);
- run_closed_loop, and inside it the open-loop pass (_open_loop_block), the
  feedback pass (_feedback_pass) and the ground-wrench pass
  (Stabilizer.ground_wrench), the rest being block glue;
- scenario_metrics, TraceLog.to_csv and run_record.

A separate, untimed pass records build_retained_kb: the bytes that
build_scenario's bundle holds once it returns, as tracemalloc counts them
(KB = 1000 bytes), so a change to what a plan keeps shows in the record.

It also records a calibration time, a fixed pure-Python float loop timed
the same way, so records from different hosts can be scaled, and the host:
CPU count and model, SIMD level, Python, numpy and its BLAS, PyYAML and
whether it uses libyaml. Times are in ms; per_step_us and per_sample_us
divide run_closed_loop and build_scenario by the steps run and the samples
planned (config.n_samples).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import yaml  # noqa: E402

from locomanip import pattern_generator, plant_sim, scenario  # noqa: E402
from locomanip.stabilizer import Stabilizer  # noqa: E402

# (namespace, attribute, stage): the attribute is rebound in that namespace,
# which is where its caller looks it up
TIMED = (
    (scenario, "build_scenario", "build_scenario"),
    (scenario, "standing_reference", "references"),
    (scenario, "stepping_reference", "references"),
    (scenario, "build_reference_frames", "references"),
    (scenario, "synthesize_gains", "gains"),
    (pattern_generator, "_feedforward", "feedforward"),
    (pattern_generator, "_preview_law", "preview_law"),
    (scenario, "run_closed_loop", "run_closed_loop"),
    (plant_sim, "_open_loop_block", "open_loop"),
    (plant_sim, "_feedback_pass", "feedback"),
    (Stabilizer, "ground_wrench", "ground_wrench"),
    (scenario, "scenario_metrics", "scenario_metrics"),
    (plant_sim.TraceLog, "to_csv", "to_csv"),
    (scenario, "run_record", "run_record"),
)
STAGES = (
    "build_scenario",
    "references",
    "gains",
    "feedforward",
    "preview_law",
    "run_closed_loop",
    "open_loop",
    "feedback",
    "ground_wrench",
    "block_glue",
    "scenario_metrics",
    "to_csv",
    "run_record",
)
REPEAT = 5
CALIBRATION_LOOPS = 1_000_000


@contextlib.contextmanager
def timed_stages(totals: dict):
    """Rebind TIMED to wrappers that add their time to totals[stage]."""

    def wrap(fn, stage):
        def timed(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[stage] += time.perf_counter_ns() - t0

        return timed

    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in TIMED]
    try:
        for (owner, name, stage), (_, _, fn) in zip(TIMED, saved):
            setattr(owner, name, wrap(fn, stage))
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def run_once(config, out_dir: Path) -> tuple:
    """One timed run_scenario of a scenario: (stage totals in ns, steps run)."""
    totals = dict.fromkeys(STAGES, 0)
    with timed_stages(totals):
        result = scenario.run_scenario(config, out_dir=out_dir)
    totals["block_glue"] = totals["run_closed_loop"] - sum(
        totals[s] for s in ("open_loop", "feedback", "ground_wrench")
    )
    return totals, len(result.trace)


def build_retained_kb(config) -> float:
    """The KB that build_scenario allocates and its bundle still holds once
    it returns, after a first build has filled any first-call caches."""
    scenario.build_scenario(config)
    tracemalloc.start()
    try:
        bundle = scenario.build_scenario(config)
        held = tracemalloc.get_traced_memory()[0]  # while bundle is alive
    finally:
        tracemalloc.stop()
    return held * 1e-3


def calibration_ms() -> float:
    """Best time of a fixed pure-Python float loop."""
    best = None
    for _ in range(REPEAT):
        t0 = time.perf_counter_ns()
        x = 0.0
        for _ in range(CALIBRATION_LOOPS):
            x = x * 0.5 + 1.0
        elapsed = time.perf_counter_ns() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best * 1e-6


def host() -> dict:
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    simd = ""
    with contextlib.suppress(ImportError):
        from numpy._core._multiarray_umath import __cpu_features__

        levels = ("SSE42", "AVX", "AVX2", "AVX512F", "AVX512_SKX", "AVX512_ICL", "AVX512_SPR")
        simd = next((s for s in reversed(levels) if __cpu_features__.get(s)), "")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "simd": simd,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '')} {blas.get('version', '')}".strip(),
        "pyyaml": yaml.__version__,
        "libyaml": bool(yaml.__with_libyaml__),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_bundled.json")
    args = parser.parse_args(argv)

    scenarios = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in scenario.list_bundled_scenarios():
            config = scenario.load_config(scenario.bundled_scenario_path(name))
            best = dict.fromkeys(STAGES)
            samples = config.n_samples
            for _ in range(REPEAT):
                totals, steps = run_once(config, Path(tmp))
                for stage, ns in totals.items():
                    best[stage] = ns if best[stage] is None else min(best[stage], ns)
            ms = {stage: round(ns * 1e-6, 4) for stage, ns in best.items()}
            scenarios[name] = {
                "steps": steps,
                "samples": samples,
                "ms": ms,
                "per_step_us": round(best["run_closed_loop"] * 1e-3 / steps, 4),
                "per_sample_us": round(best["build_scenario"] * 1e-3 / samples, 4),
                "build_retained_kb": round(build_retained_kb(config), 1),
            }
            print(
                f"{name}: build {ms['build_scenario']:.1f} ms (feedforward "
                f"{ms['feedforward']:.1f}, preview_law {ms['preview_law']:.1f}), "
                f"loop {ms['run_closed_loop']:.1f} ms, to_csv {ms['to_csv']:.1f} ms, "
                f"build retains {scenarios[name]['build_retained_kb']:.0f} KB",
                file=sys.stderr,
            )
    record = {
        "repeat": REPEAT,
        "host": host(),
        "calibration_ms": round(calibration_ms(), 4),
        "scenarios": scenarios,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
