"""The committed stage-time record BENCH_bundled.json is whole and sane.

The record is written by tools/bench_bundled.py; this test reads only the
JSON. It checks the keys and that every number is finite and non-negative,
and applies no timing bound: times belong to the host that took them.
"""

import json
import math
from pathlib import Path

from locomanip.scenario import list_bundled_scenarios

RECORD = Path(__file__).resolve().parent.parent / "BENCH_bundled.json"

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
        assert set(entry) == {"steps", "samples", "ms", "per_step_us", "per_sample_us"}, name
        assert set(entry["ms"]) == STAGES, name
        assert entry["steps"] >= 1 and entry["samples"] >= entry["steps"], name
    values = list(numbers(record))
    assert values
    assert all(math.isfinite(v) and v >= 0 for v in values)
