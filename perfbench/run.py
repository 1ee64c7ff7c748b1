"""Benchmark of locomanip, driven from outside through `locomanip.cli.main`.

    python3 perfbench/run.py --workload long_walk --seed 1 --seconds 30 --trace 0

Run it from anywhere; it measures the checkout it sits in (`../src`). It
runs whole rounds of the workload, each round in a fresh single-threaded
process (`workload.py`), until the next round would end past `--seconds`
(at least MIN_ROUNDS rounds). Then it checks the outputs (`checks.py`) and
prints, as its last line, one JSON object: `correct`, `attempted` and
`failed` (CLI invocations), and `metrics`, the medians over the rounds of
the end-to-end metrics (`--trace 0`) or of the per-layer metrics of a traced
run (`--trace 1`). Outputs go to `perfbench_out/<workload>/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, plan  # noqa: E402

MIN_ROUNDS = 3
# extra processes per round that only set up, so setup_s is a median of many
SETUP_PROBES = 2

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("plan_us", "us"),
    ("step_us", "us"),
    ("peak_rss_mb", "MB"),
)

# one thread per process: the host has two vCPUs and the workloads are serial
SINGLE_THREAD = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}


def run_round(workload: str, seed: int, round_dir: Path, mode: str) -> dict:
    """Run one round (or, with mode "setup", only its set-up) in a child
    process; return its timings and exit codes."""
    log = round_dir.with_suffix(".log")
    cmd = [
        sys.executable,
        str(HERE / "workload.py"),
        str(ROOT),
        workload,
        str(seed),
        str(round_dir),
        mode,
    ]
    env = dict(os.environ, **SINGLE_THREAD)
    with open(log, "w") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd + [repr(t0)], stdout=fh, stderr=subprocess.STDOUT, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    result_path = round_dir / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        sys.stderr.write(f"round {round_dir.name} exited {proc.returncode}:\n")
        sys.stderr.write(log.read_text()[-4000:])
        return {"ok": False, "wall_s": wall}
    result = json.loads(result_path.read_text())
    result.update(
        ok=True,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
    return result


def end_to_end(r: dict) -> dict:
    return {
        "wall_s": r["wall_s"],
        "plan_us": r["plan_s"] / r["samples"] * 1e6,
        "step_us": r["loop_s"] / r["steps"] * 1e6,
        "peak_rss_mb": r["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "locomanip" / "__init__.py").is_file():
        print(f"no locomanip sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    ops = plan(args.workload, args.seed)
    out = ROOT / "perfbench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    import checks

    rounds, digests, setups = [], [], []
    start = time.perf_counter()
    while True:
        round_dir = out / f"round{len(rounds) + 1}"
        r = run_round(args.workload, args.seed, round_dir, "trace" if args.trace else "run")
        rounds.append(r)
        for _ in range(SETUP_PROBES):
            probe_dir = out / "setup"
            probe = run_round(args.workload, args.seed, probe_dir, "setup")
            if probe["ok"]:
                setups.append(probe["setup_s"])
            shutil.rmtree(probe_dir)
        if r["ok"]:
            digests.append(
                {
                    op.name: checks.digest(round_dir / op.name / "trace.csv")
                    for op in ops
                    if op.kind == "run" and (round_dir / op.name / "trace.csv").is_file()
                }
            )
            if len(rounds) > 1:  # the first round's outputs are kept for the checks
                shutil.rmtree(round_dir)
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed * (1 + 1 / len(rounds)) > args.seconds:
            break

    good = [r for r in rounds if r["ok"]]
    failed = sum(
        len(ops) if not r["ok"] else sum(1 for c in r["codes"].values() if c != 0)
        for r in rounds
    )
    failures = []
    if not rounds[0]["ok"]:
        failures.append("first round failed; its outputs cannot be checked")
    else:
        failures = checks.check_outputs(ROOT, ops, out / "round1", rounds[0]["codes"], digests)
    for line in failures:
        print(f"CHECK FAILED: {line}", file=sys.stderr)

    if not good:
        print("no round completed", file=sys.stderr)
        return 1
    e2e = [end_to_end(r) for r in good]
    setups += [r["setup_s"] for r in good]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(failures)} check "
        "failures; wall_s of each round: " + " ".join("%.3f" % r["wall_s"] for r in rounds),
        file=sys.stderr,
    )
    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        samples = {name: [r["per_layer"][name] for r in good] for name in units}
    else:
        units = dict(END_TO_END)
        samples = {name: [x[name] for x in e2e] for name in e2e[0]}
        samples["setup_s"] = setups
    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in units.items()
    }
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(ops) * len(rounds),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
