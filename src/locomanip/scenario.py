"""Scenario configs, the run pipeline, trace metrics and run comparison.

A scenario file describes one closed-loop experiment end to end: robot and
foot geometry, gait, hand-contact schedule, controller tuning, truth-side
disturbance profiles, metric windows and the pass/fail checks that make a
run self-documenting. Configs are YAML mappings whose field names carry
their units (_m, _s, _n, ...). Parsing is strict: unknown or ill-typed
fields raise ConfigError naming the full field path, so a typo cannot
silently disable part of an experiment.

run_scenario wires the full pipeline (references -> preview gains ->
desired trajectory -> stabilizer -> plant loop), writes the CSV trace and
a flat key=value metrics file, and maps the outcome to a process exit
code: 0 completed, 2 diverged; config errors raise and the CLI reports 1.

Metric notes: all length metrics are meters. The implied-ZMP metric is the
pivot the actual CoM motion is revolving about, measured against the
footstep-plan ZMP; this plant integrates the pendulum with the actual ZMP
under the true coefficients, so the motion-implied point coincides with
the plant ZMP state and the metric reduces to rms(z^a - zmp_plan).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import importlib.resources
import numpy as np
import yaml

from .core_dynamics import ExternalContact, RobotParams
from .errors import ConfigError, SchemaMismatch
from .pattern_generator import PreviewWeights, generate_trajectory, synthesize_gains
from .plant_sim import DisturbanceProfile, TraceLog, run_closed_loop
from .reference_builder import (
    ContactBreakpoint,
    ContactSchedule,
    Footstep,
    build_reference_frames,
    standing_reference,
    stepping_reference,
)
from .stabilizer import Stabilizer, StabilizerGains

_MISSING = object()

_GAIT_KINDS = ("standing", "inplace", "footsteps")
_STEP_FIELDS = ("first_step_s", "step_period_s", "last_step_end_s")


def _fail(path: str, message: str):
    raise ConfigError(message, field=path or "config")


class _Fields:
    """Strict cursor over one mapping of a raw config; tracks its field path.

    Every reader pops the key it consumed; done() rejects whatever is left,
    which is what makes unknown keys impossible to sneak past the parser.
    """

    def __init__(self, raw, path: str):
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            _fail(path, "expected a mapping")
        self._raw = dict(raw)
        self._path = path

    def key(self, name: str) -> str:
        return f"{self._path}.{name}" if self._path else name

    def has(self, name: str) -> bool:
        return name in self._raw

    def forbid(self, name: str, why: str):
        if name in self._raw:
            _fail(self.key(name), why)

    def take(self, name: str, default=_MISSING):
        if name in self._raw:
            return self._raw.pop(name)
        if default is _MISSING:
            _fail(self.key(name), "missing required field")
        return default

    def number(
        self,
        name: str,
        default=_MISSING,
        minimum: float | None = None,
        below: float | None = None,
        positive: bool = False,
        allow_inf: bool = False,
    ):
        v = self.take(name, default)
        if v is None:
            if default is None:
                return None
            _fail(self.key(name), "expected a number, got null")
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            _fail(self.key(name), f"expected a number, got {type(v).__name__}")
        v = float(v)
        if math.isnan(v) or (math.isinf(v) and not allow_inf):
            _fail(self.key(name), "must be finite")
        if positive and not v > 0.0:
            _fail(self.key(name), "must be > 0")
        if minimum is not None and v < minimum:
            _fail(self.key(name), f"must be >= {minimum:g}")
        if below is not None and not v < below:
            _fail(self.key(name), f"must be < {below:g}")
        return v

    def integer(self, name: str, default=_MISSING, minimum: int | None = None):
        v = self.take(name, default)
        if v is None:
            if default is None:
                return None
            _fail(self.key(name), "expected an integer, got null")
        if isinstance(v, bool) or not isinstance(v, int):
            _fail(self.key(name), f"expected an integer, got {type(v).__name__}")
        if minimum is not None and v < minimum:
            _fail(self.key(name), f"must be >= {minimum}")
        return int(v)

    def boolean(self, name: str, default=_MISSING) -> bool:
        v = self.take(name, default)
        if not isinstance(v, bool):
            _fail(self.key(name), f"expected true or false, got {type(v).__name__}")
        return bool(v)

    def string(self, name: str, default=_MISSING, choices=None):
        v = self.take(name, default)
        if v is None and default is None:
            return None
        if not isinstance(v, str):
            _fail(self.key(name), f"expected a string, got {type(v).__name__}")
        if choices is not None and v not in choices:
            _fail(self.key(name), f"expected one of {', '.join(choices)}; got {v!r}")
        return v

    def vector(self, name: str, size: int, default=_MISSING):
        v = self.take(name, default)
        if isinstance(v, tuple):
            v = list(v)
        if not isinstance(v, list) or len(v) != size:
            _fail(self.key(name), f"expected a list of {size} numbers")
        out = []
        for i, x in enumerate(v):
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                _fail(f"{self.key(name)}[{i}]", "expected a number")
            x = float(x)
            if not math.isfinite(x):
                _fail(f"{self.key(name)}[{i}]", "must be finite")
            out.append(x)
        return tuple(out)

    def items(self, name: str, default=()):
        v = self.take(name, default)
        if v is None:
            return []
        if not isinstance(v, (list, tuple)):
            _fail(self.key(name), "expected a list")
        return list(v)

    def section(self, name: str) -> "_Fields":
        return _Fields(self.take(name, None), self.key(name))

    def done(self):
        if self._raw:
            name = sorted(self._raw)[0]
            _fail(self.key(name), "unknown field")


# ---------------------------------------------------------------------------
# parsed configuration


@dataclass(frozen=True)
class RobotSection:
    mass_kg: float = 100.0
    gravity_mps2: float = 9.81
    com_height_m: float = 0.8
    zmp_height_m: float = 0.0


@dataclass(frozen=True)
class FeetSection:
    left_pos_m: tuple = (0.0, 0.1)
    right_pos_m: tuple = (0.0, -0.1)
    sole_half_x_m: float = 0.1
    sole_half_y_m: float = 0.05


@dataclass(frozen=True)
class FootstepSpec:
    foot: str
    position_m: tuple
    start_s: float
    end_s: float


@dataclass(frozen=True)
class GaitSection:
    kind: str = "standing"
    first_step_s: float | None = None
    step_period_s: float | None = None
    last_step_end_s: float | None = None
    double_support_fraction: float | None = None
    footsteps: tuple = ()


@dataclass(frozen=True)
class ControllerSection:
    q_zmp: float = 1.0
    r_jerk: float = 1e-8
    preview_window_s: float = 1.6
    k_p: float = 1.25
    k_i: float = 0.0
    k_d: float = 0.0
    rho_per_s: float = 20.0
    cutoff_period_s: float = 1.0
    integrator_limit_m_s: float = 0.05


@dataclass(frozen=True)
class PlantSection:
    direct_zmp: bool = False
    com_noise_m: float = 0.0
    force_noise_n: float = 0.0
    divergence_limit_m: float = 1.0


@dataclass(frozen=True)
class HandContactSpec:
    position_m: tuple
    force_n: tuple = (0.0, 0.0, 0.0)
    moment_nm: tuple = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class HandBreakpointSpec:
    time_s: float
    mode: str = "hold"
    contacts: tuple = ()


@dataclass(frozen=True)
class DisturbanceSpec:
    kind: str
    axis: str = "x"
    amplitude_n: float = 0.0
    period_s: float | None = None
    start_s: float = 0.0
    end_s: float = math.inf
    contact_index: int | None = None


@dataclass(frozen=True)
class AblationSection:
    force_kappa_one: bool = False
    disable_compensation: bool = False


@dataclass(frozen=True)
class MetricsWindowSpec:
    name: str
    start_s: float
    end_s: float


@dataclass(frozen=True)
class MetricsSection:
    skip_initial_s: float = 0.0
    exclude_windows_s: tuple = ()
    windows: tuple = ()


@dataclass(frozen=True)
class CheckSpec:
    """One pass/fail bound on a metric; thresholds live in the config."""

    name: str
    metric: str
    min_value: float | None = None
    max_value: float | None = None
    exceeds_metric: str | None = None
    factor: float = 1.0


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    duration_s: float
    dt_s: float = 0.002
    seed: int | None = None
    out_dir: str | None = None
    robot: RobotSection = field(default_factory=RobotSection)
    feet: FeetSection = field(default_factory=FeetSection)
    gait: GaitSection = field(default_factory=GaitSection)
    controller: ControllerSection = field(default_factory=ControllerSection)
    plant: PlantSection = field(default_factory=PlantSection)
    hands: tuple = ()
    disturbances: tuple = ()
    ablation: AblationSection = field(default_factory=AblationSection)
    metrics: MetricsSection = field(default_factory=MetricsSection)
    checks: tuple = ()

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s / self.dt_s))


def _parse_robot(f: _Fields) -> RobotSection:
    out = RobotSection(
        mass_kg=f.number("mass_kg", 100.0, positive=True),
        gravity_mps2=f.number("gravity_mps2", 9.81, positive=True),
        com_height_m=f.number("com_height_m", 0.8, positive=True),
        zmp_height_m=f.number("zmp_height_m", 0.0),
    )
    if not out.com_height_m > out.zmp_height_m:
        _fail(f.key("com_height_m"), "must exceed zmp_height_m")
    f.done()
    return out


def _parse_feet(f: _Fields) -> FeetSection:
    out = FeetSection(
        left_pos_m=f.vector("left_pos_m", 2, (0.0, 0.1)),
        right_pos_m=f.vector("right_pos_m", 2, (0.0, -0.1)),
        sole_half_x_m=f.number("sole_half_x_m", 0.1, positive=True),
        sole_half_y_m=f.number("sole_half_y_m", 0.05, positive=True),
    )
    f.done()
    return out


def _parse_footstep(raw, path: str) -> FootstepSpec:
    f = _Fields(raw, path)
    out = FootstepSpec(
        foot=f.string("foot", choices=("left", "right")),
        position_m=f.vector("position_m", 2),
        start_s=f.number("start_s", minimum=0.0),
        end_s=f.number("end_s"),
    )
    if not out.end_s > out.start_s:
        _fail(f.key("end_s"), "must exceed start_s")
    f.done()
    return out


def _parse_gait(f: _Fields) -> GaitSection:
    kind = f.string("kind", "standing", choices=_GAIT_KINDS)
    if kind == "standing":
        for name in _STEP_FIELDS + ("double_support_fraction", "footsteps"):
            f.forbid(name, "not used by a standing gait")
        f.done()
        return GaitSection(kind=kind)

    dsf = f.number("double_support_fraction", 0.2, minimum=0.0, below=1.0)
    if kind == "inplace":
        f.forbid("footsteps", "only used by a footsteps gait")
        first = f.number("first_step_s", 1.8, minimum=0.0)
        period = f.number("step_period_s", 1.0, positive=True)
        last = f.number("last_step_end_s")
        if last < first + period:
            _fail(f.key("last_step_end_s"), "leaves no room for a whole step")
        f.done()
        return GaitSection(
            kind=kind,
            first_step_s=first,
            step_period_s=period,
            last_step_end_s=last,
            double_support_fraction=dsf,
        )

    for name in _STEP_FIELDS:
        f.forbid(name, "only used by an in-place gait")
    raw_steps = f.items("footsteps", default=_MISSING)
    if not raw_steps:
        _fail(f.key("footsteps"), "expected a non-empty list")
    steps = tuple(
        _parse_footstep(s, f"{f.key('footsteps')}[{i}]") for i, s in enumerate(raw_steps)
    )
    f.done()
    return GaitSection(kind=kind, double_support_fraction=dsf, footsteps=steps)


def _parse_controller(f: _Fields) -> ControllerSection:
    out = ControllerSection(
        q_zmp=f.number("q_zmp", 1.0, positive=True),
        r_jerk=f.number("r_jerk", 1e-8, positive=True),
        preview_window_s=f.number("preview_window_s", 1.6, positive=True),
        k_p=f.number("k_p", 1.25, minimum=0.0),
        k_i=f.number("k_i", 0.0, minimum=0.0),
        k_d=f.number("k_d", 0.0, minimum=0.0),
        rho_per_s=f.number("rho_per_s", 20.0, positive=True),
        cutoff_period_s=f.number("cutoff_period_s", 1.0, positive=True),
        integrator_limit_m_s=f.number("integrator_limit_m_s", 0.05, minimum=0.0),
    )
    f.done()
    return out


def _parse_plant(f: _Fields) -> PlantSection:
    out = PlantSection(
        direct_zmp=f.boolean("direct_zmp", False),
        com_noise_m=f.number("com_noise_m", 0.0, minimum=0.0),
        force_noise_n=f.number("force_noise_n", 0.0, minimum=0.0),
        divergence_limit_m=f.number("divergence_limit_m", 1.0, positive=True),
    )
    f.done()
    return out


def _parse_contact(raw, path: str) -> HandContactSpec:
    f = _Fields(raw, path)
    out = HandContactSpec(
        position_m=f.vector("position_m", 3),
        force_n=f.vector("force_n", 3, (0.0, 0.0, 0.0)),
        moment_nm=f.vector("moment_nm", 3, (0.0, 0.0, 0.0)),
    )
    f.done()
    return out


def _parse_hands(raw_list, path: str) -> tuple:
    breakpoints = []
    for i, raw in enumerate(raw_list):
        f = _Fields(raw, f"{path}[{i}]")
        time_s = f.number("time_s")
        mode = f.string("mode", "hold", choices=("hold", "linear"))
        contacts = tuple(
            _parse_contact(c, f"{f.key('contacts')}[{j}]")
            for j, c in enumerate(f.items("contacts"))
        )
        f.done()
        breakpoints.append(HandBreakpointSpec(time_s=time_s, mode=mode, contacts=contacts))
    for i, (a, b) in enumerate(zip(breakpoints, breakpoints[1:])):
        if not b.time_s > a.time_s:
            _fail(f"{path}[{i + 1}].time_s", "breakpoint times must increase")
        if a.mode == "linear" and len(a.contacts) != len(b.contacts):
            _fail(
                f"{path}[{i}].contacts",
                "linear segment needs equal contact counts on both ends",
            )
    if breakpoints and breakpoints[-1].mode == "linear":
        _fail(f"{path}[{len(breakpoints) - 1}].mode", "last breakpoint cannot be linear")
    return tuple(breakpoints)


def _parse_disturbance(raw, path: str) -> DisturbanceSpec:
    f = _Fields(raw, path)
    kind = f.string("kind", choices=("constant", "step", "sinusoid"))
    if kind == "sinusoid":
        period = f.number("period_s", positive=True)
    else:
        f.forbid("period_s", "only used by a sinusoid")
        period = None
    out = DisturbanceSpec(
        kind=kind,
        axis=f.string("axis", "x", choices=("x", "y", "z")),
        amplitude_n=f.number("amplitude_n"),
        period_s=period,
        start_s=f.number("start_s", 0.0, minimum=0.0),
        end_s=f.number("end_s", math.inf, allow_inf=True),
        contact_index=f.integer("contact_index", None, minimum=0),
    )
    if out.end_s < out.start_s:
        _fail(f.key("end_s"), "must not precede start_s")
    f.done()
    return out


def _parse_ablation(f: _Fields) -> AblationSection:
    out = AblationSection(
        force_kappa_one=f.boolean("force_kappa_one", False),
        disable_compensation=f.boolean("disable_compensation", False),
    )
    f.done()
    return out


def _parse_metrics(f: _Fields) -> MetricsSection:
    skip = f.number("skip_initial_s", 0.0, minimum=0.0)
    raw_excl = f.items("exclude_windows_s")
    exclude = []
    for i, pair in enumerate(raw_excl):
        sub = _Fields({"window": pair}, f"{f.key('exclude_windows_s')}[{i}]")
        a, b = sub.vector("window", 2)
        if not b > a:
            _fail(f"{f.key('exclude_windows_s')}[{i}]", "window end must exceed start")
        exclude.append((a, b))
    windows = []
    names = set()
    for i, raw in enumerate(f.items("windows")):
        sub = _Fields(raw, f"{f.key('windows')}[{i}]")
        name = sub.string("name")
        if not name.replace("_", "").isalnum():
            _fail(sub.key("name"), "window names must be alphanumeric")
        if name in names:
            _fail(sub.key("name"), f"duplicate window name {name!r}")
        names.add(name)
        start = sub.number("start_s", minimum=0.0)
        end = sub.number("end_s")
        if not end > start:
            _fail(sub.key("end_s"), "must exceed start_s")
        sub.done()
        windows.append(MetricsWindowSpec(name=name, start_s=start, end_s=end))
    f.done()
    return MetricsSection(
        skip_initial_s=skip, exclude_windows_s=tuple(exclude), windows=tuple(windows)
    )


def _parse_check(raw, path: str) -> CheckSpec:
    f = _Fields(raw, path)
    metric = f.string("metric")
    name = f.string("name", metric)
    min_value = f.number("min", None)
    max_value = f.number("max", None)
    exceeds = f.string("exceeds", None)
    had_factor = f.has("factor")
    factor = f.number("factor", 1.0, positive=True)
    if exceeds is None and had_factor:
        _fail(f.key("factor"), "factor needs an exceeds metric")
    if min_value is None and max_value is None and exceeds is None:
        _fail(path, "check needs min, max or exceeds")
    f.done()
    return CheckSpec(
        name=name,
        metric=metric,
        min_value=min_value,
        max_value=max_value,
        exceeds_metric=exceeds,
        factor=factor,
    )


def parse_config(raw: dict) -> ScenarioConfig:
    """Validate a raw mapping into a ScenarioConfig; strict about every field."""
    f = _Fields(raw, "")
    name = f.string("name")
    duration = f.number("duration_s", positive=True)
    dt = f.number("dt_s", 0.002, positive=True)
    seed = f.integer("seed", None, minimum=0)
    out_dir = f.string("out_dir", None)
    robot = _parse_robot(f.section("robot"))
    feet = _parse_feet(f.section("feet"))
    gait = _parse_gait(f.section("gait"))
    controller = _parse_controller(f.section("controller"))
    plant = _parse_plant(f.section("plant"))
    hands = _parse_hands(f.items("hands"), "hands")
    disturbances = tuple(
        _parse_disturbance(d, f"disturbances[{i}]")
        for i, d in enumerate(f.items("disturbances"))
    )
    ablation = _parse_ablation(f.section("ablation"))
    metrics = _parse_metrics(f.section("metrics"))
    checks = tuple(
        _parse_check(c, f"checks[{i}]") for i, c in enumerate(f.items("checks"))
    )
    seen = set()
    for i, c in enumerate(checks):
        if c.name in seen:
            _fail(f"checks[{i}].name", f"duplicate check name {c.name!r}")
        seen.add(c.name)
    f.done()
    if int(round(duration / dt)) < 2:
        _fail("duration_s", "too short for the sample rate, need at least 2 samples")
    return ScenarioConfig(
        name=name,
        duration_s=duration,
        dt_s=dt,
        seed=seed,
        out_dir=out_dir,
        robot=robot,
        feet=feet,
        gait=gait,
        controller=controller,
        plant=plant,
        hands=hands,
        disturbances=disturbances,
        ablation=ablation,
        metrics=metrics,
        checks=checks,
    )


def config_to_dict(config: ScenarioConfig) -> dict:
    """Plain mapping that parses back to an identical ScenarioConfig."""
    gait: dict = {"kind": config.gait.kind}
    if config.gait.kind == "inplace":
        gait.update(
            first_step_s=config.gait.first_step_s,
            step_period_s=config.gait.step_period_s,
            last_step_end_s=config.gait.last_step_end_s,
            double_support_fraction=config.gait.double_support_fraction,
        )
    elif config.gait.kind == "footsteps":
        gait["double_support_fraction"] = config.gait.double_support_fraction
        gait["footsteps"] = [
            {
                "foot": s.foot,
                "position_m": list(s.position_m),
                "start_s": s.start_s,
                "end_s": s.end_s,
            }
            for s in config.gait.footsteps
        ]

    out: dict = {
        "name": config.name,
        "duration_s": config.duration_s,
        "dt_s": config.dt_s,
        "robot": {
            "mass_kg": config.robot.mass_kg,
            "gravity_mps2": config.robot.gravity_mps2,
            "com_height_m": config.robot.com_height_m,
            "zmp_height_m": config.robot.zmp_height_m,
        },
        "feet": {
            "left_pos_m": list(config.feet.left_pos_m),
            "right_pos_m": list(config.feet.right_pos_m),
            "sole_half_x_m": config.feet.sole_half_x_m,
            "sole_half_y_m": config.feet.sole_half_y_m,
        },
        "gait": gait,
        "controller": {
            "q_zmp": config.controller.q_zmp,
            "r_jerk": config.controller.r_jerk,
            "preview_window_s": config.controller.preview_window_s,
            "k_p": config.controller.k_p,
            "k_i": config.controller.k_i,
            "k_d": config.controller.k_d,
            "rho_per_s": config.controller.rho_per_s,
            "cutoff_period_s": config.controller.cutoff_period_s,
            "integrator_limit_m_s": config.controller.integrator_limit_m_s,
        },
        "plant": {
            "direct_zmp": config.plant.direct_zmp,
            "com_noise_m": config.plant.com_noise_m,
            "force_noise_n": config.plant.force_noise_n,
            "divergence_limit_m": config.plant.divergence_limit_m,
        },
        "ablation": {
            "force_kappa_one": config.ablation.force_kappa_one,
            "disable_compensation": config.ablation.disable_compensation,
        },
    }
    if config.seed is not None:
        out["seed"] = config.seed
    if config.out_dir is not None:
        out["out_dir"] = config.out_dir
    if config.hands:
        out["hands"] = [
            {
                "time_s": bp.time_s,
                "mode": bp.mode,
                "contacts": [
                    {
                        "position_m": list(c.position_m),
                        "force_n": list(c.force_n),
                        "moment_nm": list(c.moment_nm),
                    }
                    for c in bp.contacts
                ],
            }
            for bp in config.hands
        ]
    if config.disturbances:
        dists = []
        for d in config.disturbances:
            row = {
                "kind": d.kind,
                "axis": d.axis,
                "amplitude_n": d.amplitude_n,
                "start_s": d.start_s,
            }
            if d.kind == "sinusoid":
                row["period_s"] = d.period_s
            if math.isfinite(d.end_s):
                row["end_s"] = d.end_s
            if d.contact_index is not None:
                row["contact_index"] = d.contact_index
            dists.append(row)
        out["disturbances"] = dists
    m = config.metrics
    if m.skip_initial_s or m.exclude_windows_s or m.windows:
        sec: dict = {}
        if m.skip_initial_s:
            sec["skip_initial_s"] = m.skip_initial_s
        if m.exclude_windows_s:
            sec["exclude_windows_s"] = [list(w) for w in m.exclude_windows_s]
        if m.windows:
            sec["windows"] = [
                {"name": w.name, "start_s": w.start_s, "end_s": w.end_s}
                for w in m.windows
            ]
        out["metrics"] = sec
    if config.checks:
        rows = []
        for c in config.checks:
            row: dict = {"name": c.name, "metric": c.metric}
            if c.min_value is not None:
                row["min"] = c.min_value
            if c.max_value is not None:
                row["max"] = c.max_value
            if c.exceeds_metric is not None:
                row["exceeds"] = c.exceeds_metric
                row["factor"] = c.factor
            rows.append(row)
        out["checks"] = rows
    return out


def load_raw_config(path) -> dict:
    """Read a YAML scenario file into a plain mapping, without validating it."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {p}: {exc.strerror or exc}")
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{p.name}: not valid YAML: {exc}")
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{p.name}: top level must be a mapping")
    return raw


def load_config(path) -> ScenarioConfig:
    return parse_config(load_raw_config(path))


class _OverrideLoader(yaml.SafeLoader):
    """YAML reader of override values.

    PyYAML follows YAML 1.1, which reads an exponent without a dot or without
    a sign, such as 1e-8 or 1.0e8, as a string; YAML 1.2 and Python read it
    as a number, and so does this loader.
    """


_OverrideLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def apply_overrides(raw: dict, overrides) -> dict:
    """Apply key=value overrides to a raw config, creating paths as needed.

    The key is a dot path of mapping keys; the value is parsed as YAML, so
    numbers (1e-8 included), booleans and lists all work. Unknown resulting
    keys are still rejected later by parse_config.
    """
    import copy

    out = copy.deepcopy(raw)
    for item in overrides:
        key, sep, text = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"override {item!r} must look like section.field=value")
        try:
            value = yaml.load(text, Loader=_OverrideLoader) if text else None
        except yaml.YAMLError as exc:
            raise ConfigError(f"override {item!r} has unparseable value: {exc}")
        parts = key.split(".")
        node = out
        for i, part in enumerate(parts[:-1]):
            nxt = node.get(part)
            if nxt is None:
                nxt = {}
                node[part] = nxt
            if not isinstance(nxt, dict):
                raise ConfigError(
                    "cannot override inside a non-mapping value",
                    field=".".join(parts[: i + 1]),
                )
            node = nxt
        node[parts[-1]] = value
    return out


def _scenario_dir():
    return importlib.resources.files(__package__).joinpath("scenarios")


def list_bundled_scenarios() -> tuple:
    """Names of the scenario files shipped with the package."""
    return tuple(
        sorted(
            p.name[: -len(".yaml")]
            for p in _scenario_dir().iterdir()
            if p.name.endswith(".yaml")
        )
    )


def bundled_scenario_path(name: str) -> Path:
    path = _scenario_dir().joinpath(f"{name}.yaml")
    if not path.is_file():
        raise ConfigError(
            f"no bundled scenario {name!r}; available: "
            + ", ".join(list_bundled_scenarios())
        )
    return Path(str(path))


def resolve_config_path(spec: str) -> Path:
    """A filesystem path if it exists, else a bundled scenario name."""
    p = Path(spec)
    if p.is_file():
        return p
    if "/" not in spec and not spec.endswith(".yaml"):
        return bundled_scenario_path(spec)
    raise ConfigError(f"config file not found: {spec}")


# ---------------------------------------------------------------------------
# pipeline


@dataclass(frozen=True, eq=False)
class ScenarioBundle:
    """One run's worth of wired components.

    The stabilizer is stateful, so a bundle drives exactly one closed-loop
    run; build another bundle for a second run.
    """

    config: ScenarioConfig
    params: RobotParams
    timeline: object
    gains: object
    traj: object
    stabilizer: Stabilizer
    disturbances: tuple


@functools.lru_cache(maxsize=8)
def _cached_gains(q_zmp, r_jerk, omega, dt, window):
    return synthesize_gains(PreviewWeights(q_zmp=q_zmp, r_jerk=r_jerk), omega, dt, window)


def _gait_footsteps(gait: GaitSection, feet: dict) -> list:
    if gait.kind == "footsteps":
        return [
            Footstep(s.foot, np.array(s.position_m), s.start_s, s.end_s)
            for s in gait.footsteps
        ]
    steps = []
    t = gait.first_step_s
    foot = "left"
    while t + gait.step_period_s <= gait.last_step_end_s + 1e-9:
        steps.append(Footstep(foot, feet[foot], t, t + gait.step_period_s))
        foot = "right" if foot == "left" else "left"
        t += gait.step_period_s
    return steps


def _contact_schedule(hands) -> ContactSchedule:
    if not hands:
        return ContactSchedule((ContactBreakpoint(time=0.0, contacts=(), mode="hold"),))
    return ContactSchedule(
        tuple(
            ContactBreakpoint(
                time=bp.time_s,
                contacts=tuple(
                    ExternalContact(
                        force=c.force_n, moment=c.moment_nm, position=c.position_m
                    )
                    for c in bp.contacts
                ),
                mode=bp.mode,
            )
            for bp in hands
        )
    )


def _check_contact_indices(config: ScenarioConfig):
    """Reject a disturbance aimed at a hand contact absent while it acts.

    Hand breakpoint i holds from its time (the first one from the start)
    until the next breakpoint; a disturbance with a contact_index must find
    that contact in every breakpoint it overlaps within the run.
    """
    hands = config.hands or (HandBreakpointSpec(time_s=0.0),)
    for i, d in enumerate(config.disturbances):
        end = min(d.end_s, config.duration_s)
        if d.contact_index is None or not d.start_s < end:
            continue
        for j, bp in enumerate(hands):
            begins = -math.inf if j == 0 else bp.time_s
            ends = hands[j + 1].time_s if j + 1 < len(hands) else math.inf
            if begins < end and d.start_s < ends and d.contact_index >= len(bp.contacts):
                _fail(
                    f"disturbances[{i}].contact_index",
                    f"contact {d.contact_index} does not exist: hands[{j}] has "
                    f"{len(bp.contacts)} contacts while the disturbance acts",
                )


def build_scenario(config: ScenarioConfig) -> ScenarioBundle:
    """Wire references, preview gains, desired trajectory and stabilizer."""
    _check_contact_indices(config)
    r = config.robot
    params = RobotParams(
        mass=r.mass_kg,
        gravity=r.gravity_mps2,
        com_height=r.com_height_m,
        zmp_height=r.zmp_height_m,
    )
    feet = {
        "left": np.array(config.feet.left_pos_m),
        "right": np.array(config.feet.right_pos_m),
    }
    n = config.n_samples
    if config.gait.kind == "standing":
        times, zmp, supports = standing_reference(feet, config.dt_s, n)
    else:
        times, zmp, supports = stepping_reference(
            _gait_footsteps(config.gait, feet),
            config.gait.double_support_fraction,
            config.dt_s,
            n,
            initial_positions=feet,
        )
    timeline = build_reference_frames(
        times,
        zmp,
        supports,
        _contact_schedule(config.hands),
        params,
        config.feet.sole_half_x_m,
        config.feet.sole_half_y_m,
        force_kappa_one=config.ablation.force_kappa_one,
    )
    c = config.controller
    gains = _cached_gains(
        c.q_zmp, c.r_jerk, timeline.omega, config.dt_s, c.preview_window_s
    )
    traj = generate_trajectory(timeline, gains)
    stabilizer = Stabilizer(
        params,
        StabilizerGains(
            k_p=c.k_p,
            k_i=c.k_i,
            k_d=c.k_d,
            rho=c.rho_per_s,
            cutoff_period=c.cutoff_period_s,
            integrator_limit=c.integrator_limit_m_s,
        ),
        timeline.omega,
        config.dt_s,
        compensate_forces=not config.ablation.disable_compensation,
    )
    disturbances = tuple(
        DisturbanceProfile(
            kind=d.kind,
            axis=d.axis,
            amplitude=d.amplitude_n,
            period=d.period_s if d.period_s is not None else 1.0,
            start_time=d.start_s,
            end_time=d.end_s,
            contact_index=d.contact_index,
        )
        for d in config.disturbances
    )
    return ScenarioBundle(
        config=config,
        params=params,
        timeline=timeline,
        gains=gains,
        traj=traj,
        stabilizer=stabilizer,
        disturbances=disturbances,
    )


# ---------------------------------------------------------------------------
# metrics


def _rms(v: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(v)))) if v.size else math.nan


def _peak(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else math.nan


def trace_metrics(trace: TraceLog, mask: np.ndarray | None = None) -> dict:
    """Per-axis deviation and band-energy metrics over the masked samples.

    Everything here is derivable from the CSV columns alone, so two traces
    loaded from disk produce comparable dictionaries.
    """
    if mask is None:
        mask = np.ones(len(trace), dtype=bool)
    out: dict = {}
    for ax in ("x", "y"):
        zmp_dev = (trace[f"z_{ax}^a"] - trace[f"z_{ax}^d"])[mask]
        zmp_cmd = (trace[f"z_{ax}^c"] - trace[f"z_{ax}^d"])[mask]
        com_dev = (trace[f"c_{ax}^a"] - trace[f"c_{ax}^d"])[mask]
        # stabilizer error is measured against the band-shifted DCM reference
        dcm_err = (
            trace[f"xi_{ax}^a"] - trace[f"xi_{ax}^d"] + trace[f"gammaL_{ax}"]
        )[mask]
        offset = (trace[f"c_{ax}^a"] - trace[f"z_{ax}^a"])[mask]
        out[f"rms_zmp_dev_{ax}"] = _rms(zmp_dev)
        out[f"max_zmp_dev_{ax}"] = _peak(zmp_dev)
        out[f"rms_zmp_cmd_{ax}"] = _rms(zmp_cmd)
        out[f"rms_com_dev_{ax}"] = _rms(com_dev)
        out[f"max_com_dev_{ax}"] = _peak(com_dev)
        out[f"rms_dcm_err_{ax}"] = _rms(dcm_err)
        out[f"max_dcm_err_{ax}"] = _peak(dcm_err)
        out[f"rms_gamma_err_{ax}"] = _rms(trace[f"gamma_err_{ax}"][mask])
        out[f"rms_gammaH_{ax}"] = _rms(trace[f"gammaH_{ax}"][mask])
        out[f"rms_gammaL_{ax}"] = _rms(trace[f"gammaL_{ax}"][mask])
        out[f"mean_com_zmp_offset_{ax}"] = (
            float(np.mean(offset)) if offset.size else math.nan
        )
    return out


def _index_mask(n: int, dt: float, metrics_cfg: MetricsSection) -> np.ndarray:
    mask = np.ones(n, dtype=bool)
    mask[: min(n, int(round(metrics_cfg.skip_initial_s / dt)))] = False
    for a, b in metrics_cfg.exclude_windows_s:
        ia = max(0, int(round(a / dt)))
        ib = max(0, min(n, int(round(b / dt))))
        mask[ia:ib] = False
    return mask


def _window_mask(n: int, dt: float, window: MetricsWindowSpec) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    ia = max(0, int(round(window.start_s / dt)))
    ib = max(0, min(n, int(round(window.end_s / dt))))
    mask[ia:ib] = True
    return mask


def scenario_metrics(
    trace: TraceLog, timeline=None, metrics_cfg: MetricsSection | None = None
) -> dict:
    """Full metric set of one run: meta, masked top-level, named windows.

    The timeline supplies the footstep-plan ZMP for the implied-ZMP metric;
    without it those keys are omitted.
    """
    if metrics_cfg is None:
        metrics_cfg = MetricsSection()
    n = len(trace)
    out: dict = {
        "samples": float(n),
        "duration_s": trace.duration,
        "dt_s": trace.dt,
        "diverged": float(trace.diverged),
    }
    if trace.diverged_at is not None:
        out["diverged_at_s"] = float(trace.diverged_at)

    plan = None
    if timeline is not None:
        plan = np.asarray(timeline.zmp_ref)[:n]

    def block(mask: np.ndarray) -> dict:
        got = trace_metrics(trace, mask)
        if plan is not None:
            for ax, i in (("x", 0), ("y", 1)):
                dev = (trace[f"z_{ax}^a"] - plan[:, i])[mask]
                got[f"rms_implied_zmp_dev_{ax}"] = _rms(dev)
        return got

    out.update(block(_index_mask(n, trace.dt, metrics_cfg)))
    for name, key in (
        ("zmp_saturated", "zmp_saturated_steps"),
        ("cop_clamped", "cop_clamped_steps"),
        ("zmp_clamped", "zmp_clamped_steps"),
    ):
        if name in trace.extra:
            out[key] = float(np.sum(trace.extra[name]))
    for w in metrics_cfg.windows:
        for k, v in block(_window_mask(n, trace.dt, w)).items():
            out[f"{w.name}.{k}"] = v
    return out


@dataclass(frozen=True)
class CheckResult:
    name: str
    metric: str
    value: float
    passed: bool
    detail: str


def evaluate_checks(metrics: dict, checks) -> tuple:
    """Apply the configured bounds to a metrics dictionary."""
    results = []
    for c in checks:
        value = metrics.get(c.metric, math.nan)
        passed = c.metric in metrics
        parts = [] if passed else [f"metric {c.metric!r} not found"]
        if c.min_value is not None:
            ok = value >= c.min_value
            passed = passed and ok
            parts.append(f"{value:.6g} >= {c.min_value:.6g}: {'ok' if ok else 'VIOLATED'}")
        if c.max_value is not None:
            ok = value <= c.max_value
            passed = passed and ok
            parts.append(f"{value:.6g} <= {c.max_value:.6g}: {'ok' if ok else 'VIOLATED'}")
        if c.exceeds_metric is not None:
            other = metrics.get(c.exceeds_metric, math.nan)
            ok = value > c.factor * other
            passed = bool(passed and ok)
            parts.append(
                f"{value:.6g} > {c.factor:.3g} * {c.exceeds_metric}"
                f" ({other:.6g}): {'ok' if ok else 'VIOLATED'}"
            )
        results.append(
            CheckResult(
                name=c.name,
                metric=c.metric,
                value=value,
                passed=bool(passed),
                detail="; ".join(parts),
            )
        )
    return tuple(results)


def format_metrics(metrics: dict, checks=()) -> str:
    """Flat key=value text: metrics, then check.NAME=PASS/FAIL, then overall."""
    lines = [f"{k}={v:.12g}" for k, v in metrics.items()]
    for c in checks:
        lines.append(f"check.{c.name}={'PASS' if c.passed else 'FAIL'}")
    lines.append(f"overall={'PASS' if all(c.passed for c in checks) else 'FAIL'}")
    return "\n".join(lines) + "\n"


def parse_metrics_file(path) -> dict:
    """Read a metrics file back; numeric values become floats."""
    out: dict = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        try:
            out[key] = float(value)
        except ValueError:
            out[key] = value
    return out


# ---------------------------------------------------------------------------
# running and comparing


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    config: ScenarioConfig
    trace: TraceLog
    metrics: dict
    checks: tuple
    exit_code: int
    out_dir: Path | None = None
    trace_path: Path | None = None
    metrics_path: Path | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def run_scenario(
    config: ScenarioConfig,
    out_dir=None,
    seed: int | None = None,
    write: bool = True,
) -> ScenarioResult:
    """Run one scenario end to end and optionally write trace plus metrics.

    The seed only matters when measurement noise is configured; noiseless
    runs are bit-deterministic regardless. Exit code 0 means the run
    completed, 2 that the plant diverged (the truncated trace is still
    written).
    """
    bundle = build_scenario(config)
    noisy = config.plant.com_noise_m > 0.0 or config.plant.force_noise_n > 0.0
    chosen = seed if seed is not None else config.seed
    rng = np.random.default_rng(chosen) if noisy else None
    trace = run_closed_loop(
        bundle.traj,
        bundle.stabilizer,
        bundle.params,
        rho=config.controller.rho_per_s,
        disturbances=bundle.disturbances,
        direct_zmp=config.plant.direct_zmp,
        com_noise=config.plant.com_noise_m,
        force_noise=config.plant.force_noise_n,
        rng=rng,
        divergence_limit=config.plant.divergence_limit_m,
    )
    metrics = scenario_metrics(trace, bundle.timeline, config.metrics)
    checks = evaluate_checks(metrics, config.checks)
    exit_code = 2 if trace.diverged else 0

    target = trace_path = metrics_path = None
    if write:
        target = Path(out_dir or config.out_dir or f"{config.name}_out")
        target.mkdir(parents=True, exist_ok=True)
        trace_path = target / "trace.csv"
        metrics_path = target / "metrics.txt"
        trace.to_csv(trace_path)
        metrics_path.write_text(format_metrics(metrics, checks))
    return ScenarioResult(
        config=config,
        trace=trace,
        metrics=metrics,
        checks=checks,
        exit_code=exit_code,
        out_dir=target,
        trace_path=trace_path,
        metrics_path=metrics_path,
    )


@dataclass(frozen=True)
class MetricComparison:
    metric: str
    a: float
    b: float
    ratio: float
    larger: str


def compare_runs(trace_a: TraceLog, trace_b: TraceLog, metric_spec=None) -> tuple:
    """Per-metric comparison of two traces sharing schema, dt and duration.

    ratio is b over a, with 0/0 defined as 1 so identical traces compare
    clean. metric_spec restricts the comparison to the named metrics.
    """
    if set(trace_a.columns) != set(trace_b.columns):
        raise SchemaMismatch("traces have different column sets")
    if abs(trace_a.dt - trace_b.dt) > 1e-12:
        raise SchemaMismatch(
            f"sample rates differ: {trace_a.dt:g} s vs {trace_b.dt:g} s"
        )
    if len(trace_a) != len(trace_b):
        raise SchemaMismatch(
            f"durations differ: {trace_a.duration:g} s vs {trace_b.duration:g} s"
        )
    ma = trace_metrics(trace_a)
    mb = trace_metrics(trace_b)
    names = tuple(metric_spec) if metric_spec is not None else tuple(ma)
    rows = []
    for name in names:
        if name not in ma:
            raise SchemaMismatch(f"unknown comparison metric {name!r}")
        va, vb = ma[name], mb[name]
        if va == 0.0:
            ratio = 1.0 if vb == 0.0 else math.inf
        else:
            ratio = vb / va
        larger = "b" if vb > va else ("a" if va > vb else "equal")
        rows.append(MetricComparison(metric=name, a=va, b=vb, ratio=ratio, larger=larger))
    return tuple(rows)


def format_comparison(rows) -> str:
    lines = [
        f"metric={r.metric} a={r.a:.10g} b={r.b:.10g} "
        f"ratio={r.ratio:.6g} larger={r.larger}"
        for r in rows
    ]
    return "\n".join(lines) + "\n"
