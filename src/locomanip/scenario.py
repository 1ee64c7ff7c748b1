"""Scenario configs, the run pipeline, trace metrics and run comparison.

A scenario file describes one closed-loop experiment end to end: robot and
foot geometry, gait, hand-contact schedule, controller tuning, truth-side
disturbance profiles, metric windows and the pass/fail checks that make a
run self-documenting. Configs are YAML mappings whose field names carry
their units (_m, _s, _n, ...). Parsing is strict: unknown or ill-typed
fields raise ConfigError naming the full field path, so a typo cannot
silently disable part of an experiment. Each field is declared once, on its
config dataclass (see _f): YAML key, reader, default and bounds. The parser
(parse_config) and the dumper (config_to_dict) both work from those
declarations; a `_check` method holds the rules that relate a section's
fields to each other. ScenarioConfig._check holds those across sections,
among them that every force finds the hand contacts it acts on: a
disturbance's contact_index names a contact present while it acts, a
disturbance without one finds some contact, and force noise a contact
during the run.

run_scenario wires the full pipeline (references -> preview gains ->
desired trajectory -> stabilizer -> plant loop), writes the CSV trace, a
flat key=value metrics file and the run record run.json, and maps the
outcome to a process exit code: 0 completed, 2 diverged, 3 a control step
failed (every check of such a run fails); config errors raise and the CLI
reports 1. run.json records what ran and the trace's trace_summary under
a checksum of the trace bytes. read_summary is compare's read path: it
takes that recorded summary when the checksum holds (recorded_summary) and
parses the CSV otherwise, so compare can skip re-parsing a trace the run
summarized.

Metric notes: each metric is declared once, in AXIS_METRICS or the run
keys beside it. scenario_metrics, trace_metrics (and so compare) and the
config's check of its checks' metric names all read those declarations,
so a check on a metric no run reports is a ConfigError before the run.
All length metrics are meters. The implied-ZMP metric is the pivot the
actual CoM motion is revolving about, measured against the footstep-plan
ZMP; this plant integrates the pendulum with the actual ZMP under the true
coefficients, so the motion-implied point coincides with the plant ZMP
state and the metric reduces to rms(z^a - zmp_plan).
"""

from __future__ import annotations

import dataclasses
import json
import math
import platform
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import importlib.resources
import numpy as np
import yaml

from .core_dynamics import ExternalContact, RobotParams
from .errors import ConfigError, OutputError, SchemaMismatch
from .pattern_generator import (
    MIN_PREVIEW_WINDOW,
    PreviewWeights,
    generate_trajectory,
    synthesize_gains,
)
from .plant_sim import (
    DIVERGENCE_LIMIT,
    EXTRA_COLUMNS,
    STEP_FAILURES,
    DisturbanceProfile,
    TraceLog,
    run_closed_loop,
)
from .reference_builder import (
    MAX_SAMPLES,
    ContactBreakpoint,
    ContactSchedule,
    Footstep,
    build_reference_frames,
    sample_index,
    standing_reference,
    stepping_reference,
)
from .stabilizer import Stabilizer, StabilizerGains

_MISSING = object()

# Why a kind refuses a field it does not read. Each kind refuses one group:
# an in-place gait the footsteps, a footsteps gait the step timing, a
# constant or step disturbance the sinusoid period.
_UNUSED_BY = {
    "standing": "not used by a standing gait",
    "inplace": "only used by a footsteps gait",
    "footsteps": "only used by an in-place gait",
    "constant": "only used by a sinusoid",
    "step": "only used by a sinusoid",
}


def _fail(path: str, message: str):
    raise ConfigError(message, field=path or "config")


def _got(v) -> str:
    return "null" if v is None else type(v).__name__


class _Fields:
    """Strict cursor over one mapping of a raw config; tracks its field path.

    Every read pops the key it consumed; done() rejects whatever is left,
    which is what makes unknown keys impossible to sneak past the parser.
    `given` keeps the keys the mapping had before any was read.
    """

    def __init__(self, raw, path: str):
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            _fail(path, "expected a mapping")
        self._raw = dict(raw)
        self.given = frozenset(raw)
        self.path = path

    def key(self, name: str) -> str:
        return f"{self.path}.{name}" if self.path else name

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

    def done(self):
        if self._raw:
            name = min(self._raw, key=str)
            _fail(self.key(name), "unknown field")


# Readers: each checks one raw value found at a field path and returns it
# as the config holds it.


def _number(v, path: str, minimum=None, below=None, positive=False, allow_inf=False):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(path, f"expected a number, got {_got(v)}")
    try:
        v = float(v)
    except OverflowError:  # an int beyond the float range
        v = math.inf if v > 0 else -math.inf
    if math.isnan(v) or (math.isinf(v) and not allow_inf):
        _fail(path, "must be finite")
    if positive and not v > 0.0:
        _fail(path, "must be > 0")
    if minimum is not None and v < minimum:
        _fail(path, f"must be >= {minimum:g}")
    if below is not None and not v < below:
        _fail(path, f"must be < {below:g}")
    return v


def _integer(v, path: str, minimum=None):
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(path, f"expected an integer, got {_got(v)}")
    if minimum is not None and v < minimum:
        _fail(path, f"must be >= {minimum}")
    return v


def _boolean(v, path: str):
    if not isinstance(v, bool):
        _fail(path, f"expected true or false, got {_got(v)}")
    return v


def _string(v, path: str, choices=None):
    if not isinstance(v, str):
        _fail(path, f"expected a string, got {_got(v)}")
    if choices is not None and v not in choices:
        _fail(path, f"expected one of {', '.join(choices)}; got {v!r}")
    return v


def _vector(v, path: str, size: int) -> tuple:
    if not isinstance(v, (list, tuple)) or len(v) != size:
        _fail(path, f"expected a list of {size} numbers")
    return tuple(_number(x, f"{path}[{i}]") for i, x in enumerate(v))


def _items(v, path: str, of=None, size=None) -> tuple:
    """A list of `of` sections, or of `size`-vectors when size is given."""
    if v is None:
        return ()
    if not isinstance(v, (list, tuple)):
        _fail(path, "expected a list")
    if size is not None:
        return tuple(_vector(x, f"{path}[{i}]", size) for i, x in enumerate(v))
    return tuple(_section(x, f"{path}[{i}]", of) for i, x in enumerate(v))


def _section(raw, path: str, of):
    """Build the config dataclass `of` from a raw mapping, declared field by field."""
    f = _Fields(raw, path)
    values = {}
    copies = []
    for fd in dataclasses.fields(of):
        spec, key = fd.metadata, _yaml_key(fd)
        if spec["kinds"] is not None and values["kind"] not in spec["kinds"]:
            f.forbid(key, _UNUSED_BY[values["kind"]])
        elif spec["default_to"] is not None and not f.has(key):
            copies.append((fd.name, spec["default_to"]))
        else:
            v = f.take(key, spec["default"])
            if v is not None or spec["default"] is not None:
                v = spec["read"](v, f.key(key), **spec["opts"])
            values[fd.name] = v
    for name, source in copies:
        values[name] = values[source]
    f.done()
    out = of(**values)
    if hasattr(out, "_check"):
        out._check(f)  # the rules that relate a section's fields to each other
    return out


def _f(read, default=_MISSING, *, key=None, kinds=None, default_to=None, **opts):
    """Declare one config field: its reader, YAML key, default and bounds.

    read is one of the readers above and opts are its keywords (minimum,
    below, positive, allow_inf, choices, size, of). An absent key takes
    `default`, and so does a null one when the default is None; without a
    default the key is required, unless default_to names the field whose
    value it then copies. key is the YAML key when it differs from the
    attribute name. kinds lists the values of the section's `kind` field
    that read this field; the other kinds refuse the key and leave the
    field None, or () for a list. The dataclass default is `default`, except
    that a section defaults to its own defaults.
    """
    meta = dict(
        read=read, default=default, key=key, kinds=kinds, default_to=default_to, opts=opts
    )
    if read is _section:
        meta["default"] = {}  # an absent section reads as an empty mapping
        return field(default_factory=opts["of"], metadata=meta)
    if kinds is not None:
        return field(default=() if read is _items else None, metadata=meta)
    if default is _MISSING:
        return field(metadata=meta)
    return field(default=default, metadata=meta)


def _yaml_key(fd: dataclasses.Field) -> str:
    return fd.metadata["key"] or fd.name


# ---------------------------------------------------------------------------
# parsed configuration


def _check_span(span, f: _Fields):
    if not span.end_s > span.start_s:
        _fail(f.key("end_s"), "must exceed start_s")


def _unique_names(items, path: str, what: str):
    seen = set()
    for i, item in enumerate(items):
        if item.name in seen:
            _fail(f"{path}[{i}].name", f"duplicate {what} name {item.name!r}")
        seen.add(item.name)


@dataclass(frozen=True)
class RobotSection:
    mass_kg: float = _f(_number, 100.0, positive=True)
    gravity_mps2: float = _f(_number, RobotParams.gravity, positive=True)
    com_height_m: float = _f(_number, RobotParams.com_height, positive=True)
    zmp_height_m: float = _f(_number, RobotParams.zmp_height)

    def _check(self, f: _Fields):
        if not self.com_height_m > self.zmp_height_m:
            _fail(f.key("com_height_m"), "must exceed zmp_height_m")

    def params(self) -> RobotParams:
        return RobotParams(
            mass=self.mass_kg,
            gravity=self.gravity_mps2,
            com_height=self.com_height_m,
            zmp_height=self.zmp_height_m,
        )


@dataclass(frozen=True)
class FeetSection:
    left_pos_m: tuple = _f(_vector, (0.0, 0.1), size=2)
    right_pos_m: tuple = _f(_vector, (0.0, -0.1), size=2)
    sole_half_x_m: float = _f(_number, 0.1, positive=True)
    sole_half_y_m: float = _f(_number, 0.05, positive=True)


@dataclass(frozen=True)
class FootstepSpec:
    foot: str = _f(_string, choices=("left", "right"))
    position_m: tuple = _f(_vector, size=2)
    start_s: float = _f(_number, minimum=0.0)
    end_s: float = _f(_number)

    _check = _check_span


@dataclass(frozen=True)
class GaitSection:
    kind: str = _f(_string, "standing", choices=("standing", "inplace", "footsteps"))
    first_step_s: float | None = _f(_number, 1.8, kinds=("inplace",), minimum=0.0)
    step_period_s: float | None = _f(_number, 1.0, kinds=("inplace",), positive=True)
    last_step_end_s: float | None = _f(_number, kinds=("inplace",))
    double_support_fraction: float | None = _f(
        _number, 0.2, kinds=("inplace", "footsteps"), minimum=0.0, below=1.0
    )
    footsteps: tuple = _f(_items, kinds=("footsteps",), of=FootstepSpec)

    def _check(self, f: _Fields):
        if self.kind == "inplace":
            if self.last_step_end_s < self.first_step_s + self.step_period_s:
                _fail(f.key("last_step_end_s"), "leaves no room for a whole step")
            end = self.last_step_end_s + 1e-9  # the last step end _gait_footsteps takes
            if not self.step_period_s > math.ulp(end):  # so it moves every step time
                _fail(f.key("step_period_s"), "vanishes against the step times")
            if (end - self.first_step_s) / self.step_period_s > MAX_SAMPLES:
                _fail(f.key("step_period_s"), f"too short: over {MAX_SAMPLES} steps")
        if self.kind == "footsteps" and not self.footsteps:
            _fail(f.key("footsteps"), "expected a non-empty list")


@dataclass(frozen=True)
class ControllerSection:
    q_zmp: float = _f(_number, PreviewWeights.q_zmp, positive=True)
    r_jerk: float = _f(_number, PreviewWeights.r_jerk, positive=True)
    preview_window_s: float = _f(_number, 1.6, minimum=MIN_PREVIEW_WINDOW)
    k_p: float = _f(_number, StabilizerGains.k_p, minimum=0.0)
    k_i: float = _f(_number, StabilizerGains.k_i, minimum=0.0)
    k_d: float = _f(_number, StabilizerGains.k_d, minimum=0.0)
    rho_per_s: float = _f(_number, StabilizerGains.rho, positive=True)
    cutoff_period_s: float = _f(_number, StabilizerGains.cutoff_period, positive=True)
    integrator_limit_m_s: float = _f(
        _number, StabilizerGains.integrator_limit, minimum=0.0
    )

    def preview_weights(self) -> PreviewWeights:
        return PreviewWeights(q_zmp=self.q_zmp, r_jerk=self.r_jerk)

    def stabilizer_gains(self) -> StabilizerGains:
        return StabilizerGains(
            k_p=self.k_p,
            k_i=self.k_i,
            k_d=self.k_d,
            rho=self.rho_per_s,
            cutoff_period=self.cutoff_period_s,
            integrator_limit=self.integrator_limit_m_s,
        )


@dataclass(frozen=True)
class PlantSection:
    direct_zmp: bool = _f(_boolean, False)
    com_noise_m: float = _f(_number, 0.0, minimum=0.0)
    force_noise_n: float = _f(_number, 0.0, minimum=0.0)
    divergence_limit_m: float = _f(_number, DIVERGENCE_LIMIT, positive=True)


@dataclass(frozen=True)
class HandContactSpec:
    position_m: tuple = _f(_vector, size=3)
    force_n: tuple = _f(_vector, (0.0, 0.0, 0.0), size=3)
    moment_nm: tuple = _f(_vector, (0.0, 0.0, 0.0), size=3)


@dataclass(frozen=True)
class HandBreakpointSpec:
    time_s: float = _f(_number)
    mode: str = _f(_string, "hold", choices=("hold", "linear"))
    contacts: tuple = _f(_items, (), of=HandContactSpec)


@dataclass(frozen=True)
class DisturbanceSpec:
    kind: str = _f(_string, choices=("constant", "step", "sinusoid"))
    amplitude_n: float = _f(_number)
    axis: str = _f(_string, "x", choices=("x", "y", "z"))
    period_s: float | None = _f(_number, kinds=("sinusoid",), positive=True)
    start_s: float = _f(_number, 0.0, minimum=0.0)
    end_s: float = _f(_number, math.inf, allow_inf=True)
    contact_index: int | None = _f(_integer, None, minimum=0)

    def _check(self, f: _Fields):
        if self.end_s < self.start_s:
            _fail(f.key("end_s"), "must not precede start_s")


@dataclass(frozen=True)
class AblationSection:
    force_kappa_one: bool = _f(_boolean, False)
    disable_compensation: bool = _f(_boolean, False)


@dataclass(frozen=True)
class MetricsWindowSpec:
    name: str = _f(_string)
    start_s: float = _f(_number, minimum=0.0)
    end_s: float = _f(_number)

    def _check(self, f: _Fields):
        if not self.name.replace("_", "").isalnum():
            _fail(f.key("name"), "window names must be alphanumeric")
        _check_span(self, f)


@dataclass(frozen=True)
class MetricsSection:
    skip_initial_s: float = _f(_number, 0.0, minimum=0.0)
    exclude_windows_s: tuple = _f(_items, (), size=2)
    windows: tuple = _f(_items, (), of=MetricsWindowSpec)

    def _check(self, f: _Fields):
        for i, (a, b) in enumerate(self.exclude_windows_s):
            if not b > a:
                _fail(f"{f.key('exclude_windows_s')}[{i}]", "window end must exceed start")
        _unique_names(self.windows, f.key("windows"), "window")


@dataclass(frozen=True)
class CheckSpec:
    """One pass/fail bound on a metric; thresholds live in the config."""

    name: str = _f(_string, default_to="metric")
    metric: str = _f(_string)
    min_value: float | None = _f(_number, None, key="min")
    max_value: float | None = _f(_number, None, key="max")
    exceeds_metric: str | None = _f(_string, None, key="exceeds")
    factor: float = _f(_number, 1.0, positive=True)

    def _check(self, f: _Fields):
        if self.exceeds_metric is None and "factor" in f.given:
            _fail(f.key("factor"), "factor needs an exceeds metric")
        if self.min_value is None and self.max_value is None and self.exceeds_metric is None:
            _fail(f.path, "check needs min, max or exceeds")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = _f(_string)
    duration_s: float = _f(_number, positive=True)
    dt_s: float = _f(_number, 0.002, positive=True)
    seed: int | None = _f(_integer, None, minimum=0)
    out_dir: str | None = _f(_string, None)
    robot: RobotSection = _f(_section, of=RobotSection)
    feet: FeetSection = _f(_section, of=FeetSection)
    gait: GaitSection = _f(_section, of=GaitSection)
    controller: ControllerSection = _f(_section, of=ControllerSection)
    plant: PlantSection = _f(_section, of=PlantSection)
    hands: tuple = _f(_items, (), of=HandBreakpointSpec)
    disturbances: tuple = _f(_items, (), of=DisturbanceSpec)
    ablation: AblationSection = _f(_section, of=AblationSection)
    metrics: MetricsSection = _f(_section, of=MetricsSection)
    checks: tuple = _f(_items, (), of=CheckSpec)

    def _check(self, f: _Fields):
        hands = self.hands
        for i, (a, b) in enumerate(zip(hands, hands[1:])):
            if not b.time_s > a.time_s:
                _fail(f"hands[{i + 1}].time_s", "breakpoint times must increase")
            if a.mode == "linear" and len(a.contacts) != len(b.contacts):
                _fail(
                    f"hands[{i}].contacts",
                    "linear segment needs equal contact counts on both ends",
                )
        if hands and hands[-1].mode == "linear":
            _fail(f"hands[{len(hands) - 1}].mode", "last breakpoint cannot be linear")
        _unique_names(self.checks, "checks", "check")
        known = metric_names(self.metrics.windows)
        for i, c in enumerate(self.checks):
            for key, name in (("metric", c.metric), ("exceeds", c.exceeds_metric)):
                if name == _FAILURE:
                    _fail(f"checks[{i}].{key}", f"{name} is text; a check needs a number")
                if name is not None and name not in known:
                    _fail(f"checks[{i}].{key}", f"unknown metric {name!r}")
        for i, d in enumerate(self.disturbances):
            phase = 2.0 * math.pi * (min(d.end_s, self.duration_s) - d.start_s)
            if d.kind == "sinusoid" and not math.isfinite(phase / d.period_s):
                _fail(f"disturbances[{i}].period_s", "too short: the phase overflows")
        window = self.controller.preview_window_s
        for key, t in (("duration_s", self.duration_s), ("controller.preview_window_s", window)):
            if sample_index(t, self.dt_s, MAX_SAMPLES + 1) > MAX_SAMPLES:
                _fail(key, f"too long for the sample rate: over {MAX_SAMPLES} samples")
        if self.n_samples < 2:
            _fail("duration_s", "too short for the sample rate, need at least 2 samples")
        noisy = self.plant.com_noise_m > 0.0 or self.plant.force_noise_n > 0.0
        if noisy and self.seed is None:
            _fail("seed", "measurement noise needs a seed, so that a rerun writes the same trace")
        # forces act on hand contacts: force noise needs one in some
        # breakpoint within the run, a disturbance the one it names (any
        # one, without contact_index) in every breakpoint it overlaps within
        # the run; breakpoint j holds from its time (the first one from the
        # start) until the next
        hands = hands or (HandBreakpointSpec(time_s=0.0),)
        begins = [-math.inf] + [bp.time_s for bp in hands[1:]]
        ends = begins[1:] + [math.inf]
        if self.plant.force_noise_n > 0.0 and not any(
            bp.contacts for bp, t in zip(hands, begins) if t < self.duration_s
        ):
            _fail("plant.force_noise_n", "force noise needs a hand contact during the run")
        for i, d in enumerate(self.disturbances):
            end = min(d.end_s, self.duration_s)
            needs = 1 if d.contact_index is None else d.contact_index + 1
            for j, bp in enumerate(hands):
                if begins[j] < end and d.start_s < min(end, ends[j]) and len(bp.contacts) < needs:
                    if d.contact_index is None:
                        where = f"hands[{j}] has none while it acts" if self.hands else "no hands"
                        _fail(f"disturbances[{i}]", f"no hand contact to act on: {where}")
                    _fail(
                        f"disturbances[{i}].contact_index",
                        f"contact {d.contact_index} does not exist: hands[{j}] has "
                        f"{len(bp.contacts)} contacts while the disturbance acts",
                    )

    @property
    def n_samples(self) -> int:
        return sample_index(self.duration_s, self.dt_s, MAX_SAMPLES + 1)


def parse_config(raw: dict) -> ScenarioConfig:
    """Validate a raw mapping into a ScenarioConfig; strict about every field."""
    return _section(raw, "", ScenarioConfig)


def config_to_dict(config) -> dict:
    """Plain mapping of a config, or of one of its sections, that parses back
    to an identical object: each field that differs from its default, under
    its YAML key."""
    out = {}
    for fd in dataclasses.fields(config):
        value = getattr(config, fd.name)
        if fd.default_factory is not dataclasses.MISSING:
            default = fd.default_factory()
        else:
            default = fd.default  # MISSING for a required field: never equal
        if value != default:
            out[_yaml_key(fd)] = _plain(value)
    return out


def _plain(value):
    if dataclasses.is_dataclass(value):
        return config_to_dict(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


_MERGE_TAG = "tag:yaml.org,2002:merge"
_LIBYAML = hasattr(yaml, "CSafeLoader")


class _Loader(yaml.CSafeLoader if _LIBYAML else yaml.SafeLoader):
    """YAML reader of config files and override values: libyaml's parser
    where PyYAML has it, PyYAML's safe constructor either way.

    PyYAML follows YAML 1.1, which reads an exponent without a dot or without
    a sign, such as 1e-8 or 1.0e8, as a string; YAML 1.2 and Python read it
    as a number, and so does this loader. YAML requires the keys of a mapping
    to be unique, but PyYAML keeps the last of two equal keys; this loader
    refuses a repeated key, so an earlier value cannot silently vanish.
    """

    def construct_mapping(self, node, deep=False):
        given = [k for k, _ in node.value if k.tag != _MERGE_TAG]
        # PyYAML's own construction first: it resolves merge keys and refuses
        # unhashable keys, and it caches every key it built
        mapping = super().construct_mapping(node, deep=deep)
        seen = set()
        for key_node in given:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping",
                    node.start_mark,
                    f"found repeated key {key!r}",
                    key_node.start_mark,
                )
            seen.add(key)
        return mapping

    def flatten_mapping(self, node):
        # PyYAML merges the entries of a merge value without constructing it
        # as a mapping; construct it first, so its repeated keys are refused
        # too. A node built before, such as an alias, comes from the cache.
        for key_node, value_node in node.value:
            if key_node.tag == _MERGE_TAG:
                if isinstance(value_node, yaml.SequenceNode):
                    merged = value_node.value
                else:
                    merged = [value_node]
                for sub in merged:
                    if isinstance(sub, yaml.MappingNode):
                        self.construct_object(sub, deep=True)
        super().flatten_mapping(node)


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def load_raw_config(path) -> dict:
    """Read a YAML scenario file into a plain mapping, without validating it."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {p}: {exc.strerror or exc}")
    try:
        raw = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{p.name}: not valid YAML: {exc}")
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{p.name}: top level must be a mapping")
    return raw


def load_config(path) -> ScenarioConfig:
    return parse_config(load_raw_config(path))


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
            value = yaml.load(text, Loader=_Loader) if text else None
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
    """One scenario's wired components.

    The stabilizer holds no run state, so a bundle may drive any number of
    closed-loop runs, each with the result of a fresh bundle.
    """

    config: ScenarioConfig
    traj: object
    stabilizer: Stabilizer
    disturbances: tuple


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


def build_scenario(config: ScenarioConfig) -> ScenarioBundle:
    """Wire references, preview gains, desired trajectory and stabilizer."""
    params = config.robot.params()
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
    gains = synthesize_gains(
        c.preview_weights(), timeline.omega, config.dt_s, c.preview_window_s
    )
    traj = generate_trajectory(timeline, gains)
    stabilizer = Stabilizer(
        params,
        c.stabilizer_gains(),
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


def _mean(v: np.ndarray) -> float:
    return float(np.mean(v)) if v.size else math.nan


@dataclass(frozen=True)
class AxisMetric:
    """One per-axis metric: reported as f"{name}_x" and f"{name}_y".

    terms name the columns of its series over every sample, with "{ax}"
    standing for the axis: the first column, then each later one added
    ("+name") or subtracted ("-name") in turn. reduce maps the masked
    series to the metric. csv is False when the series needs a column a
    trace CSV lacks: the footstep-plan ZMP (zmp_plan_x, zmp_plan_y), which
    only the run has.
    """

    name: str
    terms: tuple
    reduce: object
    csv: bool = True

    def columns(self, ax: str) -> tuple:
        """The columns the series reads on axis ax."""
        return tuple(t.lstrip("+-").format(ax=ax) for t in self.terms)

    def series(self, columns: dict, ax: str) -> np.ndarray:
        first, *rest = self.terms
        values = columns[first.format(ax=ax)]
        for t in rest:
            column = columns[t[1:].format(ax=ax)]
            values = values + column if t[0] == "+" else values - column
        return values


_ZMP_DEV = ("z_{ax}^a", "-z_{ax}^d")
_COM_DEV = ("c_{ax}^a", "-c_{ax}^d")
# stabilizer error is measured against the band-shifted DCM reference
_DCM_ERR = ("xi_{ax}^a", "-xi_{ax}^d", "+gammaL_{ax}")

# Every per-axis metric, in metrics.txt order. Adjacent entries with the same
# terms share their series; only one series is alive at a time, which keeps
# the allocator reusing the same memory.
AXIS_METRICS = (
    AxisMetric("rms_zmp_dev", _ZMP_DEV, _rms),
    AxisMetric("max_zmp_dev", _ZMP_DEV, _peak),
    AxisMetric("rms_zmp_cmd", ("z_{ax}^c", "-z_{ax}^d"), _rms),
    AxisMetric("rms_com_dev", _COM_DEV, _rms),
    AxisMetric("max_com_dev", _COM_DEV, _peak),
    AxisMetric("rms_dcm_err", _DCM_ERR, _rms),
    AxisMetric("max_dcm_err", _DCM_ERR, _peak),
    AxisMetric("rms_gamma_err", ("gamma_err_{ax}",), _rms),
    AxisMetric("rms_gammaH", ("gammaH_{ax}",), _rms),
    AxisMetric("rms_gammaL", ("gammaL_{ax}",), _rms),
    AxisMetric("mean_com_zmp_offset", ("c_{ax}^a", "-z_{ax}^a"), _mean),
    # the implied ZMP against the footstep plan (see the module notes)
    AxisMetric("rms_implied_zmp_dev", ("z_{ax}^a", "-zmp_plan_{ax}"), _rms, csv=False),
)
_CSV_METRICS = tuple(m for m in AXIS_METRICS if m.csv)
_PLAN_METRICS = tuple(m for m in AXIS_METRICS if not m.csv)
_AXES = ("x", "y")
# the columns of a trace that trace_metrics reads
_METRIC_COLUMNS = tuple(
    dict.fromkeys(c for ax in _AXES for m in _CSV_METRICS for c in m.columns(ax))
)
# the keys of trace_metrics, in its order
_CSV_METRIC_NAMES = tuple(f"{m.name}_{ax}" for ax in _AXES for m in _CSV_METRICS)

_FAILURE = "failure"  # the failed step's exception class: the one text value
_FAILED_AT = "failed_at_s"

# The keys of the run itself, ahead of the per-axis metrics, each with its
# value on a trace. None leaves the key out: diverged_at_s comes only with a
# diverged run, failure and failed_at_s only with a failed one.
_RUN_KEYS = (
    ("samples", lambda t: float(len(t))),
    ("duration_s", lambda t: t.duration),
    ("dt_s", lambda t: t.dt),
    ("diverged", lambda t: float(t.diverged)),
    ("diverged_at_s", lambda t: None if t.diverged_at is None else float(t.diverged_at)),
    (_FAILURE, lambda t: t.failure),
    (_FAILED_AT, lambda t: t.failed_at),
)


def _clamp_count(flag: str) -> str:
    """The metric that counts the steps an EXTRA_COLUMNS flag was raised."""
    return f"{flag}_steps"


def metric_names(windows=()) -> frozenset:
    """Every key the metrics of a run with these metrics windows can hold.

    A run reports each of them, except the run keys of a divergence or a
    failure it did not have, and a clamp count whose flag its trace lacks.
    """
    axis = [f"{m.name}_{ax}" for m in AXIS_METRICS for ax in _AXES]
    return frozenset(
        [name for name, _ in _RUN_KEYS]
        + axis
        + [_clamp_count(flag) for flag in EXTRA_COLUMNS]
        + [f"{w.name}.{name}" for w in windows for name in axis]
    )


def _reduce(columns: dict, mask: np.ndarray, metrics) -> dict:
    out: dict = {}
    for ax in _AXES:
        terms = values = None
        for m in metrics:
            if m.terms != terms:
                terms, values = m.terms, m.series(columns, ax)[mask]
            out[f"{m.name}_{ax}"] = m.reduce(values)
    return out


def trace_metrics(trace: TraceLog, mask: np.ndarray | None = None) -> dict:
    """The CSV-derived per-axis metrics over the masked samples.

    Everything here is derivable from the CSV columns alone, so two traces
    loaded from disk produce comparable dictionaries.
    """
    if mask is None:
        mask = np.ones(len(trace), dtype=bool)
    return _reduce(trace.columns, mask, _CSV_METRICS)


def _span(n: int, dt: float, start: float, end: float) -> slice:
    """The samples of a trace of n samples at dt from start to end seconds."""
    return slice(*(sample_index(t, dt, n) for t in (start, end)))


def scenario_metrics(trace: TraceLog, timeline, metrics_cfg: MetricsSection) -> dict:
    """Full metric set of one run: run keys, masked per-axis metrics, clamp
    counts, then the per-axis metrics of each named window.

    The timeline supplies the footstep-plan ZMP (zmp_ref) for the
    implied-ZMP metric.
    """
    n = len(trace)
    out: dict = {}
    for name, value in _RUN_KEYS:
        v = value(trace)
        if v is not None:
            out[name] = v
    plan = np.asarray(timeline.zmp_ref)[:n]
    columns = {**trace.columns, "zmp_plan_x": plan[:, 0], "zmp_plan_y": plan[:, 1]}

    def block(mask: np.ndarray) -> dict:
        return _reduce(columns, mask, _CSV_METRICS) | _reduce(columns, mask, _PLAN_METRICS)

    mask = np.ones(n, dtype=bool)
    for a, b in ((0.0, metrics_cfg.skip_initial_s), *metrics_cfg.exclude_windows_s):
        mask[_span(n, trace.dt, a, b)] = False
    out.update(block(mask))
    for flag in EXTRA_COLUMNS:
        if flag in trace.extra:
            out[_clamp_count(flag)] = float(np.sum(trace.extra[flag]))
    for w in metrics_cfg.windows:
        mask = np.zeros(n, dtype=bool)
        mask[_span(n, trace.dt, w.start_s, w.end_s)] = True
        for k, v in block(mask).items():
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
    """Apply the configured bounds to a metrics dictionary.

    A run that failed mid-loop (metrics carry failure) fails every check,
    and each detail names the failure first. A check on a missing metric or
    on a text value fails, and its detail names the metric.
    """
    failed = metrics.get(_FAILURE)

    def number(name):
        v = metrics.get(name, math.nan)
        return math.nan if isinstance(v, str) else v

    results = []
    for c in checks:
        value = number(c.metric)
        named = [m for m in (c.metric, c.exceeds_metric) if m is not None]
        missing = [m for m in named if m not in metrics]
        text = [m for m in named if isinstance(metrics.get(m), str)]
        passed = not missing and not text and failed is None
        parts = [f"metric {m!r} not found" for m in missing]
        parts += [f"metric {m!r} is not a number: {metrics[m]!r}" for m in text]
        if failed is not None:
            parts.insert(0, f"run failed at t={metrics[_FAILED_AT]:.3f} s: {failed}")
        if c.min_value is not None:
            ok = value >= c.min_value
            passed = passed and ok
            parts.append(f"{value:.6g} >= {c.min_value:.6g}: {'ok' if ok else 'VIOLATED'}")
        if c.max_value is not None:
            ok = value <= c.max_value
            passed = passed and ok
            parts.append(f"{value:.6g} <= {c.max_value:.6g}: {'ok' if ok else 'VIOLATED'}")
        if c.exceeds_metric is not None:
            other = number(c.exceeds_metric)
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
    lines = [
        f"{k}={v}" if isinstance(v, str) else f"{k}={v:.12g}" for k, v in metrics.items()
    ]
    for c in checks:
        lines.append(f"check.{c.name}={'PASS' if c.passed else 'FAIL'}")
    lines.append(f"overall={'PASS' if all(c.passed for c in checks) else 'FAIL'}")
    return "\n".join(lines) + "\n"


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
    config: ScenarioConfig, out_dir=None, write: bool = True
) -> ScenarioResult:
    """Run one scenario end to end and optionally write its outputs.

    config.seed only matters when measurement noise is configured, and the
    config refuses noise without one, so every run is bit-deterministic.
    Exit code 0 means the run completed, 2 that the plant diverged and 3
    that a control step failed (STEP_FAILURES; the metrics then carry
    failure and failed_at_s). Either way the truncated trace is still
    written.

    With write, the output directory is created after build_scenario and
    before the loop runs: a config error found while building leaves no
    directory behind, and an unusable one raises OutputError before the
    loop. After the run it receives trace.csv, metrics.txt and then
    run.json (run_record), which holds the checksum of the trace.csv bytes
    as TraceLog.to_csv wrote them. A file that cannot be written raises
    OutputError naming it.
    """
    bundle = build_scenario(config)
    target = trace_path = metrics_path = None
    if write:
        target = Path(out_dir or config.out_dir or f"{config.name}_out")
        try:
            target.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise OutputError(
                f"cannot create output directory {target}: {exc.strerror or exc}"
            ) from None
    try:
        trace = run_closed_loop(
            bundle.traj,
            bundle.stabilizer,
            disturbances=bundle.disturbances,
            direct_zmp=config.plant.direct_zmp,
            com_noise=config.plant.com_noise_m,
            force_noise=config.plant.force_noise_n,
            seed=config.seed,
            divergence_limit=config.plant.divergence_limit_m,
        )
    except STEP_FAILURES as exc:
        trace = exc.trace
    metrics = scenario_metrics(trace, bundle.traj.timeline, config.metrics)
    checks = evaluate_checks(metrics, config.checks)
    exit_code = 3 if trace.failure else 2 if trace.diverged else 0

    if write:
        trace_path = target / "trace.csv"
        metrics_path = target / "metrics.txt"
        path = trace_path
        try:
            checksum = trace.to_csv(path)
            path = metrics_path
            path.write_text(format_metrics(metrics, checks))
            path = target / RUN_RECORD
            write_run_record(path, run_record(config, trace, exit_code, checksum))
        except OSError as exc:
            raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None
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


@dataclass(frozen=True)
class TraceSummary:
    """What compare_runs reads of a trace: its column names, dt, sample
    count and trace_metrics."""

    columns: frozenset
    dt: float
    samples: int
    metrics: dict

    @property
    def duration(self) -> float:
        return self.samples * self.dt


def trace_summary(trace: TraceLog) -> TraceSummary:
    """The summary of a trace that compare_runs compares, which holds none
    of its columns. A trace that lacks a column trace_metrics reads raises
    SchemaMismatch naming the missing columns."""
    missing = [name for name in _METRIC_COLUMNS if name not in trace.columns]
    if missing:
        raise SchemaMismatch(f"trace lacks metric columns {', '.join(missing)}")
    return TraceSummary(
        columns=frozenset(trace.columns),
        dt=trace.dt,
        samples=len(trace),
        metrics=trace_metrics(trace),
    )


# ---------------------------------------------------------------------------
# the run record, run.json

RUN_RECORD = "run.json"


def trace_checksum(path) -> dict:
    """CRC-32 and byte length of the file at path, read 64 KiB at a time:
    1 MiB reads, each into fresh memory, raised the peak RSS of a testcase3
    run by 2 MB.

    run.json is a cache of what a run computed, not a security boundary:
    CRC-32 with the length catches every edit of one byte. zlib is loaded
    with numpy already, where hashlib would map OpenSSL into the process.
    """
    crc = size = 0
    with open(path, "rb") as fh:
        while block := fh.read(1 << 16):
            crc = zlib.crc32(block, crc)
            size += len(block)
    return {"crc32": crc, "bytes": size}


def run_record(config: ScenarioConfig, trace: TraceLog, exit_code: int, checksum) -> dict:
    """The run.json of a run: the config (config_to_dict) and seed, the exit
    code, the divergence or failure, the versions that ran it, then the
    trace_checksum of its trace.csv (which TraceLog.to_csv returns) and that
    trace's trace_summary, with its columns in trace order. The summary is
    None where reading the CSV back would raise instead: fewer than 2 rows,
    or a metric column missing. A run trace's dt is its first two times,
    as TraceLog.from_csv derives it, so the summary is the parsed trace's
    bit for bit: %.17g round-trips every double. Nothing in the record is a
    timing, so a rerun writes the same bytes."""
    from . import __version__

    try:
        summary = trace_summary(trace) if len(trace) >= 2 else None
    except SchemaMismatch:
        summary = None
    failure = None
    if trace.failure is not None:
        failure = {
            "kind": trace.failure,
            "at_s": trace.failed_at,
            "detail": trace.failure_detail,
        }
    return {
        "config": config_to_dict(config),
        "seed": config.seed,
        "exit_code": exit_code,
        "diverged_at_s": trace.diverged_at,
        "failure": failure,
        "versions": {
            "locomanip": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "pyyaml": yaml.__version__,
            "libyaml": _LIBYAML,
        },
        "trace": checksum,
        "summary": summary and {
            "columns": list(trace.columns),
            "dt": summary.dt,
            "samples": summary.samples,
            "metrics": summary.metrics,
        },
    }


def write_run_record(path, record: dict):
    """Write a run_record as JSON: floats as repr, so each parses back to
    the same double, and NaN and Infinity spelled out."""
    Path(path).write_text(json.dumps(record, indent=1) + "\n")


def _exactly(kind: type, value):
    """value if its type is kind itself: JSON's true is no int, 1 no float."""
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def recorded_summary(trace_path) -> TraceSummary | None:
    """The TraceSummary that the run.json beside trace_path records, or None.

    It is returned only when run.json parses, holds the types run_record
    writes, a summary and the metric names trace_metrics yields, and records
    the trace_checksum of trace_path's bytes. It then equals trace_summary(TraceLog.from_csv(trace_path)) bit
    for bit, except that JSON keeps no sign of a NaN, which compare does not
    print. In every other case None leaves the trace to that parse and its
    errors.
    """
    path = Path(trace_path)
    try:
        with open(path.parent / RUN_RECORD, "rb") as fh:
            record = json.load(fh)
        checksum, s = record["trace"], record["summary"]
        recorded = {key: _exactly(int, checksum[key]) for key in ("crc32", "bytes")}
        columns = _exactly(list, s["columns"])
        metrics = _exactly(dict, s["metrics"])
        summary = TraceSummary(
            columns=frozenset(_exactly(str, c) for c in columns),
            dt=_exactly(float, s["dt"]),
            samples=_exactly(int, s["samples"]),
            metrics={k: _exactly(float, v) for k, v in metrics.items()},
        )
        if tuple(metrics) != _CSV_METRIC_NAMES or recorded != trace_checksum(path):
            return None
    except (OSError, ValueError, LookupError, TypeError):
        return None
    return summary


def read_summary(trace_path) -> TraceSummary:
    """The trace_summary of the trace CSV at trace_path, as compare reads
    it: the recorded_summary where run.json records the file's checksum,
    otherwise that of TraceLog.from_csv, whose columns are freed on return.
    A file that cannot be read as a trace raises SchemaMismatch naming
    trace_path once."""
    summary = recorded_summary(trace_path)
    if summary is not None:
        return summary
    try:
        return trace_summary(TraceLog.from_csv(trace_path))
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or str(exc).removeprefix(f"{trace_path}: ")
        raise SchemaMismatch(f"{trace_path}: {reason}") from None


def compare_runs(a: TraceSummary, b: TraceSummary, metric_spec=None) -> tuple:
    """Per-metric comparison of two trace summaries (trace_summary) sharing
    schema, dt and duration.

    ratio is b over a, with 0/0 defined as 1 so identical traces compare
    clean. metric_spec restricts the comparison to the named metrics; a
    name trace_metrics does not yield raises SchemaMismatch listing those
    it does.
    """
    if a.columns != b.columns:
        raise SchemaMismatch("traces have different column sets")
    if abs(a.dt - b.dt) > 1e-12:
        raise SchemaMismatch(f"sample rates differ: {a.dt:g} s vs {b.dt:g} s")
    if a.samples != b.samples:
        raise SchemaMismatch(
            f"durations differ: {a.duration:g} s vs {b.duration:g} s"
        )
    ma, mb = a.metrics, b.metrics
    names = tuple(metric_spec) if metric_spec is not None else tuple(ma)
    rows = []
    for name in names:
        if name not in ma:
            raise SchemaMismatch(
                f"unknown comparison metric {name!r}; a trace CSV yields "
                f"{', '.join(ma)}. The clamp counts "
                f"({', '.join(_clamp_count(flag) for flag in EXTRA_COLUMNS)}), "
                f"{', '.join(f'{m.name}_*' for m in _PLAN_METRICS)} and window "
                "metrics come only from the metrics.txt of locomanip run"
            )
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
