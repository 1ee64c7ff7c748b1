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
fields to each other.

run_scenario wires the full pipeline (references -> preview gains ->
desired trajectory -> stabilizer -> plant loop), writes the CSV trace and
a flat key=value metrics file, and maps the outcome to a process exit
code: 0 completed, 2 diverged, 3 a control step failed (every check of
such a run fails); config errors raise and the CLI reports 1.

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
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import importlib.resources
import numpy as np
import yaml

from .core_dynamics import ExternalContact, RobotParams
from .errors import ConfigError, SchemaMismatch
from .pattern_generator import (
    MIN_PREVIEW_WINDOW,
    PreviewWeights,
    generate_trajectory,
    synthesize_gains,
)
from .plant_sim import (
    EXTRA_COLUMNS,
    STEP_FAILURES,
    DisturbanceProfile,
    TraceLog,
    run_closed_loop,
)
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
    gravity_mps2: float = _f(_number, 9.81, positive=True)
    com_height_m: float = _f(_number, 0.8, positive=True)
    zmp_height_m: float = _f(_number, 0.0)

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
        if self.kind == "inplace" and (
            self.last_step_end_s < self.first_step_s + self.step_period_s
        ):
            _fail(f.key("last_step_end_s"), "leaves no room for a whole step")
        if self.kind == "footsteps" and not self.footsteps:
            _fail(f.key("footsteps"), "expected a non-empty list")


@dataclass(frozen=True)
class ControllerSection:
    q_zmp: float = _f(_number, 1.0, positive=True)
    r_jerk: float = _f(_number, 1e-8, positive=True)
    preview_window_s: float = _f(_number, 1.6, minimum=MIN_PREVIEW_WINDOW)
    k_p: float = _f(_number, 1.25, minimum=0.0)
    k_i: float = _f(_number, 0.0, minimum=0.0)
    k_d: float = _f(_number, 0.0, minimum=0.0)
    rho_per_s: float = _f(_number, 20.0, positive=True)
    cutoff_period_s: float = _f(_number, 1.0, positive=True)
    integrator_limit_m_s: float = _f(_number, 0.05, minimum=0.0)

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
    divergence_limit_m: float = _f(_number, 1.0, positive=True)


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
        samples = self.duration_s / self.dt_s
        if math.isinf(samples):
            _fail("duration_s", "too long for the sample rate")
        if round(samples) < 2:
            _fail("duration_s", "too short for the sample rate, need at least 2 samples")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s / self.dt_s))


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


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """YAML reader of config files and override values: libyaml's parser
    where PyYAML has it, PyYAML's safe constructor either way.

    PyYAML follows YAML 1.1, which reads an exponent without a dot or without
    a sign, such as 1e-8 or 1.0e8, as a string; YAML 1.2 and Python read it
    as a number, and so does this loader. YAML requires the keys of a mapping
    to be unique, but PyYAML keeps the last of two equal keys; this loader
    refuses a repeated key, so an earlier value cannot silently vanish.
    """

    def construct_mapping(self, node, deep=False):
        given = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
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
    """One run's worth of wired components.

    The stabilizer is stateful, so a bundle drives exactly one closed-loop
    run; build another bundle for a second run.
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
        PreviewWeights(q_zmp=c.q_zmp, r_jerk=c.r_jerk),
        timeline.omega,
        config.dt_s,
        c.preview_window_s,
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


def _zmp_dev(c, ax):
    return c[f"z_{ax}^a"] - c[f"z_{ax}^d"]


def _com_dev(c, ax):
    return c[f"c_{ax}^a"] - c[f"c_{ax}^d"]


def _dcm_err(c, ax):
    # stabilizer error is measured against the band-shifted DCM reference
    return c[f"xi_{ax}^a"] - c[f"xi_{ax}^d"] + c[f"gammaL_{ax}"]


@dataclass(frozen=True)
class AxisMetric:
    """One per-axis metric: reported as f"{name}_x" and f"{name}_y".

    series maps the columns of a run and an axis to the values over every
    sample, and reduce maps the masked values to the metric. csv is False
    when the series needs a column a trace CSV lacks: the footstep-plan ZMP
    (zmp_plan_x, zmp_plan_y), which only the run has.
    """

    name: str
    series: object
    reduce: object
    csv: bool = True


# Every per-axis metric, in metrics.txt order. Adjacent entries with the same
# series function share its values; only one series is alive at a time, which
# keeps the allocator reusing the same memory.
AXIS_METRICS = (
    AxisMetric("rms_zmp_dev", _zmp_dev, _rms),
    AxisMetric("max_zmp_dev", _zmp_dev, _peak),
    AxisMetric("rms_zmp_cmd", lambda c, ax: c[f"z_{ax}^c"] - c[f"z_{ax}^d"], _rms),
    AxisMetric("rms_com_dev", _com_dev, _rms),
    AxisMetric("max_com_dev", _com_dev, _peak),
    AxisMetric("rms_dcm_err", _dcm_err, _rms),
    AxisMetric("max_dcm_err", _dcm_err, _peak),
    AxisMetric("rms_gamma_err", lambda c, ax: c[f"gamma_err_{ax}"], _rms),
    AxisMetric("rms_gammaH", lambda c, ax: c[f"gammaH_{ax}"], _rms),
    AxisMetric("rms_gammaL", lambda c, ax: c[f"gammaL_{ax}"], _rms),
    AxisMetric(
        "mean_com_zmp_offset", lambda c, ax: c[f"c_{ax}^a"] - c[f"z_{ax}^a"], _mean
    ),
    # the implied ZMP against the footstep plan (see the module notes)
    AxisMetric(
        "rms_implied_zmp_dev",
        lambda c, ax: c[f"z_{ax}^a"] - c[f"zmp_plan_{ax}"],
        _rms,
        csv=False,
    ),
)
_CSV_METRICS = tuple(m for m in AXIS_METRICS if m.csv)
_PLAN_METRICS = tuple(m for m in AXIS_METRICS if not m.csv)
_AXES = ("x", "y")

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
        series = values = None
        for m in metrics:
            if m.series is not series:
                series, values = m.series, m.series(columns, ax)[mask]
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

    out.update(block(_index_mask(n, trace.dt, metrics_cfg)))
    for flag in EXTRA_COLUMNS:
        if flag in trace.extra:
            out[_clamp_count(flag)] = float(np.sum(trace.extra[flag]))
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
    """Apply the configured bounds to a metrics dictionary.

    A run that failed mid-loop (metrics carry failure) fails every check,
    and each detail names the failure first.
    """
    failed = metrics.get(_FAILURE)
    results = []
    for c in checks:
        value = metrics.get(c.metric, math.nan)
        named = (c.metric, c.exceeds_metric)
        missing = [m for m in named if m is not None and m not in metrics]
        passed = not missing and failed is None
        parts = [f"metric {m!r} not found" for m in missing]
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
    lines = [
        f"{k}={v}" if isinstance(v, str) else f"{k}={v:.12g}" for k, v in metrics.items()
    ]
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
    config: ScenarioConfig, out_dir=None, write: bool = True
) -> ScenarioResult:
    """Run one scenario end to end and optionally write trace plus metrics.

    config.seed only matters when measurement noise is configured; noiseless
    runs are bit-deterministic regardless. Exit code 0 means the run
    completed, 2 that the plant diverged and 3 that a control step failed
    (STEP_FAILURES; the metrics then carry failure and failed_at_s). Either
    way the truncated trace is still written.
    """
    bundle = build_scenario(config)
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
    clean. metric_spec restricts the comparison to the named metrics; a
    name trace_metrics does not yield raises SchemaMismatch listing those
    it does.
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
