"""Spans around calls into locomanip's layers, recorded from outside the program.

`Tracer.install` replaces public functions of the locomanip modules with
wrappers that record one span per call: the function, its start and end
(`perf_counter_ns`) and the span open when it was called. Spans stay in
memory, in flat arrays, until the run ends. `per_layer` then turns them into
the per-layer metrics: self time is a span's duration minus the time its
direct child spans cover, and counts are taken at the same boundaries.

Every workload process installs the two boundaries the end-to-end
`plan_us` and `step_us` need (`build_scenario` and `run_closed_loop`, two
spans per scenario run); a traced run installs the full set below.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array

import numpy as np

# (module, attribute, span name); the attribute is replaced in that module's
# namespace, which is where the caller looks the name up.
BOUNDARIES = (
    ("scenario", "build_scenario", "scenario.build_scenario"),
    ("scenario", "run_closed_loop", "plant_sim.run_closed_loop"),
)

FULL_BOUNDARIES = BOUNDARIES + (
    ("cli", "main", "cli.main"),
    ("cli", "load_raw_config", "scenario.load_raw_config"),
    ("cli", "apply_overrides", "scenario.apply_overrides"),
    ("cli", "parse_config", "scenario.parse_config"),
    ("cli", "run_scenario", "scenario.run_scenario"),
    ("cli", "compare_runs", "scenario.compare_runs"),
    ("cli", "synthesize_gains", "pattern_generator.synthesize_gains"),
    ("scenario", "scenario_metrics", "scenario.scenario_metrics"),
    ("scenario", "evaluate_checks", "scenario.evaluate_checks"),
    ("scenario", "stepping_reference", "reference_builder.stepping_reference"),
    ("scenario", "standing_reference", "reference_builder.standing_reference"),
    ("scenario", "build_reference_frames", "reference_builder.build_reference_frames"),
    ("scenario", "synthesize_gains", "pattern_generator.synthesize_gains"),
    ("scenario", "generate_trajectory", "pattern_generator.generate_trajectory"),
    ("reference_builder", "compute_coefficients", "core_dynamics.compute_coefficients"),
    ("plant_sim", "compute_coefficients", "core_dynamics.compute_coefficients"),
    ("plant_sim", "apply_disturbances", "plant_sim.apply_disturbances"),
    ("plant_sim", "step_plant", "plant_sim.step_plant"),
    ("stabilizer", "measure_gamma_error", "stabilizer.measure_gamma_error"),
    ("stabilizer", "split_frequency", "stabilizer.split_frequency"),
    ("stabilizer", "dcm_feedback", "stabilizer.dcm_feedback"),
    ("stabilizer", "support_hull", "stabilizer.support_hull"),
    ("stabilizer", "net_foot_wrench", "stabilizer.net_foot_wrench"),
    ("stabilizer", "wrench_zmp", "stabilizer.wrench_zmp"),
    ("stabilizer", "distribute_wrench", "stabilizer.distribute_wrench"),
)

# (module, class, method, span name)
FULL_METHODS = (
    ("stabilizer", "Stabilizer", "step", "stabilizer.Stabilizer.step"),
    ("plant_sim", "TraceLog", "to_csv", "plant_sim.TraceLog.to_csv"),
    ("plant_sim", "TraceLog", "from_csv", "plant_sim.TraceLog.from_csv"),
)

WRENCH_STAGE = (
    "stabilizer.support_hull",
    "stabilizer.net_foot_wrench",
    "stabilizer.wrench_zmp",
    "stabilizer.distribute_wrench",
)

CONTACT_EVENT = "core_dynamics.ExternalContact"

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("scenario.config_ms", "ms", "lower"),
    ("scenario.build_self_ms", "ms", "lower"),
    ("scenario.metrics_ms", "ms", "lower"),
    ("scenario.compare_ms", "ms", "lower"),
    ("reference_builder.gait_us", "us", "lower"),
    ("reference_builder.frames_us", "us", "lower"),
    ("pattern_generator.gains_ms", "ms", "lower"),
    ("pattern_generator.gains_calls", "count", "lower"),
    ("pattern_generator.rollout_us", "us", "lower"),
    ("stabilizer.step_us", "us", "lower"),
    ("stabilizer.force_error_us", "us", "lower"),
    ("stabilizer.dcm_us", "us", "lower"),
    ("stabilizer.wrench_us", "us", "lower"),
    ("plant_sim.plant_us", "us", "lower"),
    ("plant_sim.disturb_us", "us", "lower"),
    ("plant_sim.loop_self_us", "us", "lower"),
    ("plant_sim.write_mb_s", "MB/s", "higher"),
    ("plant_sim.read_mb_s", "MB/s", "higher"),
    ("core_dynamics.coeff_us", "us", "lower"),
    ("core_dynamics.coeff_per_step", "count", "lower"),
    ("core_dynamics.coeff_per_sample", "count", "lower"),
    ("core_dynamics.contacts_per_step", "count", "lower"),
    ("cli.self_ms", "ms", "lower"),
)


# units of work measured at a boundary from its arguments or result
_UNITS = {
    "scenario.build_scenario": ("samples", lambda args, result: len(result.traj.time)),
    "plant_sim.run_closed_loop": ("steps", lambda args, result: len(result)),
    "plant_sim.TraceLog.to_csv": ("write_bytes", lambda args, result: os.path.getsize(args[-1])),
    "plant_sim.TraceLog.from_csv": ("read_bytes", lambda args, result: os.path.getsize(args[-1])),
}


class Tracer:
    """In-memory span recorder; one instance per workload process."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.event_fn = array("i")
        self.event_span = array("i")
        self.units: dict = {}
        self._stack: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, func):
        fid = self._id(name)
        units = _UNITS.get(name)
        clock = time.perf_counter_ns
        stack = self._stack
        fn, parent, start, end = self.fn, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(fn)
            fn.append(fid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if units is not None:
                key, measure = units
                self.units[key] = self.units.get(key, 0) + measure(args, result)
            return result

        return traced

    def count(self, name: str):
        """Record an event, such as an object built, under the open span."""
        fid = self._id(name)
        stack = self._stack
        self.event_fn.append(fid)
        self.event_span.append(stack[-1] if stack else -1)

    def install(self, full: bool):
        """Wrap the boundaries of the imported `locomanip` package."""

        def module(name):
            return importlib.import_module("locomanip." + name)

        for mod, attr, name in FULL_BOUNDARIES if full else BOUNDARIES:
            setattr(module(mod), attr, self.wrap(name, getattr(module(mod), attr)))
        if not full:
            return
        for mod, cls_name, meth, name in FULL_METHODS:
            cls = getattr(module(mod), cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__))
            else:
                wrapped = self.wrap(name, raw)
            setattr(cls, meth, wrapped)
        contact = module("core_dynamics").ExternalContact
        post_init = contact.__post_init__

        def counted_post_init(obj):
            self.count(CONTACT_EVENT)
            post_init(obj)

        setattr(contact, "__post_init__", counted_post_init)


    # ------------------------------------------------------------------
    # analysis

    def arrays(self) -> dict:
        return {
            "fn": np.frombuffer(self.fn, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "event_fn": np.frombuffer(self.event_fn, dtype=np.int32),
            "event_span": np.frombuffer(self.event_span, dtype=np.int32),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def total_ns(self, name: str) -> int:
        if name not in self._ids:
            return 0
        a = self.arrays()
        sel = a["fn"] == self._ids[name]
        return int(np.sum(a["end_ns"][sel] - a["start_ns"][sel]))

    def per_layer(self) -> dict:
        """Per-layer metrics of everything recorded, by the PER_LAYER names."""
        a = self.arrays()
        fn, parent = a["fn"], a["parent"]
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(fn)
        )
        self_ns = dur - covered
        ids = self._ids

        def sel(*names):
            mask = np.zeros(len(fn), dtype=bool)
            for n in names:
                if n in ids:
                    mask |= fn == ids[n]
            return mask

        def inside(name):
            """Spans that are `name` or run under a `name` span."""
            flag = sel(name)
            anc = parent.copy()
            while np.any(anc >= 0):
                live = anc >= 0
                flag[live] |= fn[anc[live]] == ids.get(name, -1)
                anc[live] = parent[anc[live]]
            return flag

        def total(*names):
            return float(np.sum(dur[sel(*names)]))

        def calls(*names):
            return int(np.count_nonzero(sel(*names)))

        steps = self.units.get("steps", 0)
        samples = self.units.get("samples", 0)
        in_loop = inside("plant_sim.run_closed_loop")
        in_build = inside("scenario.build_scenario")
        coeff = sel("core_dynamics.compute_coefficients")
        # the wrench functions call each other; count only the outermost
        parent_fn = np.where(has_parent, fn[np.maximum(parent, 0)], -1)
        wrench_ids = [ids[n] for n in WRENCH_STAGE if n in ids]
        outer_wrench = sel(*WRENCH_STAGE) & ~np.isin(parent_fn, wrench_ids)
        ev_span = a["event_span"]
        contacts_in_loop = int(
            np.count_nonzero(
                (a["event_fn"] == ids.get(CONTACT_EVENT, -1))
                & (ev_span >= 0)
                & in_loop[np.maximum(ev_span, 0)]
            )
        )

        def per(value, n, scale):
            return value / n * scale if n else 0.0

        ms, us = 1e-6, 1e-3
        return {
            "scenario.config_ms": per(
                total("scenario.load_raw_config", "scenario.apply_overrides", "scenario.parse_config"),
                calls("scenario.parse_config"),
                ms,
            ),
            "scenario.build_self_ms": per(
                float(np.sum(self_ns[sel("scenario.build_scenario")])),
                calls("scenario.build_scenario"),
                ms,
            ),
            "scenario.metrics_ms": per(
                total("scenario.scenario_metrics", "scenario.evaluate_checks"),
                calls("scenario.scenario_metrics"),
                ms,
            ),
            "scenario.compare_ms": per(
                total("scenario.compare_runs"), calls("scenario.compare_runs"), ms
            ),
            "reference_builder.gait_us": per(
                total("reference_builder.stepping_reference", "reference_builder.standing_reference"),
                samples,
                us,
            ),
            "reference_builder.frames_us": per(
                total("reference_builder.build_reference_frames"), samples, us
            ),
            "pattern_generator.gains_ms": per(
                total("pattern_generator.synthesize_gains"),
                calls("pattern_generator.synthesize_gains"),
                ms,
            ),
            "pattern_generator.gains_calls": calls("pattern_generator.synthesize_gains"),
            "pattern_generator.rollout_us": per(
                total("pattern_generator.generate_trajectory"), samples, us
            ),
            "stabilizer.step_us": per(total("stabilizer.Stabilizer.step"), steps, us),
            "stabilizer.force_error_us": per(
                total("stabilizer.measure_gamma_error", "stabilizer.split_frequency"),
                steps,
                us,
            ),
            "stabilizer.dcm_us": per(total("stabilizer.dcm_feedback"), steps, us),
            "stabilizer.wrench_us": per(float(np.sum(dur[outer_wrench])), steps, us),
            "plant_sim.plant_us": per(total("plant_sim.step_plant"), steps, us),
            "plant_sim.disturb_us": per(total("plant_sim.apply_disturbances"), steps, us),
            "plant_sim.loop_self_us": per(
                float(np.sum(self_ns[sel("plant_sim.run_closed_loop")])), steps, us
            ),
            "plant_sim.write_mb_s": per(
                self.units.get("write_bytes", 0) * 1e3, total("plant_sim.TraceLog.to_csv"), 1.0
            ),
            "plant_sim.read_mb_s": per(
                self.units.get("read_bytes", 0) * 1e3, total("plant_sim.TraceLog.from_csv"), 1.0
            ),
            "core_dynamics.coeff_us": per(total("core_dynamics.compute_coefficients"), calls("core_dynamics.compute_coefficients"), us),
            "core_dynamics.coeff_per_step": per(int(np.count_nonzero(coeff & in_loop)), steps, 1.0),
            "core_dynamics.coeff_per_sample": per(int(np.count_nonzero(coeff & in_build)), samples, 1.0),
            "core_dynamics.contacts_per_step": per(contacts_in_loop, steps, 1.0),
            "cli.self_ms": per(float(np.sum(self_ns[sel("cli.main")])), calls("cli.main"), ms),
        }
