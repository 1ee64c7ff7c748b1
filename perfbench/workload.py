"""One round of a workload, in a process of its own.

    python3 perfbench/workload.py ROOT WORKLOAD SEED ROUND_DIR MODE T0

ROOT is the checkout whose `src/locomanip` is measured, T0 the parent's
`time.perf_counter()` just before it started this process (the clock is
system-wide, so the two processes share it). The process imports numpy,
yaml and locomanip and builds the round's ops from the seed: that is the
set-up. With MODE `setup` it stops there. Otherwise it calls
`locomanip.cli.main` once per op, capturing what each prints, and writes the
printed text to `ROUND_DIR/<op>.out`. It writes its timings to
`ROUND_DIR/result.json`; a traced round (MODE `trace`) adds the per-layer
metrics there and its spans to `ROUND_DIR/spans.npz`.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path


def main(argv) -> int:
    root, workload, seed, round_dir, mode, t0 = argv
    root, round_dir = Path(root), Path(round_dir)
    sys.path.insert(0, str(root / "src"))

    import numpy  # noqa: F401  (imported here so setup_s covers it)
    import yaml  # noqa: F401

    from locomanip import cli
    from tracer import Tracer
    from workloads import plan

    if not Path(cli.__file__).resolve().is_relative_to(root.resolve()):
        print(f"locomanip imported from {cli.__file__}, not from {root}", file=sys.stderr)
        return 2
    ops = plan(workload, int(seed))
    round_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    tracer.install(full=mode == "trace")
    setup_done = time.perf_counter()
    if mode == "setup":
        (round_dir / "result.json").write_text(json.dumps({"setup_s": setup_done - float(t0)}))
        return 0

    codes, outputs = {}, {}
    for op in ops:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                codes[op.name] = cli.main(op.argv(round_dir))
            except Exception:  # the op failed; the round goes on
                traceback.print_exc()
                codes[op.name] = -1
        outputs[op.name] = buf.getvalue()

    for name, text in outputs.items():
        (round_dir / f"{name}.out").write_text(text)
    result = {
        "setup_s": setup_done - float(t0),
        "plan_s": tracer.total_ns("scenario.build_scenario") * 1e-9,
        "samples": tracer.units.get("samples", 0),
        "loop_s": tracer.total_ns("plant_sim.run_closed_loop") * 1e-9,
        "steps": tracer.units.get("steps", 0),
        "codes": codes,
    }
    if mode == "trace":
        result["per_layer"] = tracer.per_layer()
        tracer.save(round_dir / "spans.npz")
    (round_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
