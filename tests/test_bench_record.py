"""The committed stage-time record BENCH_bundled.json is whole and sane,
and the tool that writes it still times every stage.

The record is written by tools/bench_bundled.py. One test reads only the
JSON: it checks the keys and that every number is finite and non-negative,
and applies no timing bound, since times belong to the host that took them.
Another runs the tool's run_once on a short scenario, so a renamed name
the tool rebinds fails here rather than in the next recording; a third
checks that its build_retained_kb counts at least the plan's arrays.
"""

import importlib.util
import json
import math
from pathlib import Path

from locomanip.scenario import (
    apply_overrides,
    bundled_scenario_path,
    list_bundled_scenarios,
    load_raw_config,
    parse_config,
)

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "BENCH_bundled.json"
TOOL = ROOT / "tools" / "bench_bundled.py"

HOST_KEYS = {"cpu_count", "cpu_model", "simd", "python", "numpy", "blas", "pyyaml", "libyaml"}
STAGES = {
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
}


def numbers(value):
    """Every int or float in a JSON value, bools aside."""
    if isinstance(value, dict):
        for v in value.values():
            yield from numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def test_record_keys_and_numbers():
    record = json.loads(RECORD.read_text())
    assert set(record) == {"repeat", "host", "calibration_ms", "scenarios"}
    assert isinstance(record["repeat"], int) and record["repeat"] >= 1
    assert set(record["host"]) == HOST_KEYS
    assert set(record["scenarios"]) == set(list_bundled_scenarios())
    for name, entry in record["scenarios"].items():
        assert set(entry) == {
            "steps", "samples", "ms", "per_step_us", "per_sample_us", "build_retained_kb"
        }, name
        assert set(entry["ms"]) == STAGES, name
        assert entry["steps"] >= 1 and entry["samples"] >= entry["steps"], name
    values = list(numbers(record))
    assert values
    assert all(math.isfinite(v) and v >= 0 for v in values)


def test_recorder_times_every_stage(tmp_path):
    """Every name the tool rebinds (_feedforward, _preview_law,
    _open_loop_block, _feedback_pass, Stabilizer.ground_wrench, ...) still
    exists and is still called by a run: each stage takes some time."""
    spec = importlib.util.spec_from_file_location("bench_bundled", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    raw = load_raw_config(bundled_scenario_path("nominal"))
    config = parse_config(apply_overrides(raw, ["duration_s=0.5"]))
    totals, steps = tool.run_once(config, tmp_path)
    assert steps == config.n_samples
    assert set(totals) == STAGES
    assert all(totals[stage] > 0 for stage in STAGES), totals


def test_recorder_counts_what_a_build_retains():
    """The tool's build_retained_kb of a 0.5 s nominal plan at 2 ms covers
    at least the plan's five (250, 2) arrays."""
    spec = importlib.util.spec_from_file_location("bench_bundled", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    raw = load_raw_config(bundled_scenario_path("nominal"))
    config = parse_config(apply_overrides(raw, ["duration_s=0.5"]))
    assert tool.build_retained_kb(config) >= 5 * 250 * 2 * 8 * 1e-3
