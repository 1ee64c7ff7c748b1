"""Sampled gait and contact references for the walking controller.

Turns a footstep plan plus a hand-contact schedule into a timeline of dense
per-sample arrays: ZMP reference, the pendulum coefficients the scheduled
external contacts induce, and indices into small tables of support stances
(feet with their sole rectangles) and contact sets. The pattern generator and
stabilizer consume this timeline; nothing here depends on feedback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_dynamics import (
    ExternalContact,
    RobotParams,
    compute_coefficients,
    contact_rows,
    contact_terms,
    ext_zmp,
)
from .errors import InvalidSchedule, NonPhysical

FEET = ("left", "right")

# Contiguity of stance intervals is checked to this slack, seconds.
_TIME_TOL = 1e-9

MAX_SAMPLES = 10**7  # most samples in a run or a preview window, steps in a gait


def sample_index(t: float, dt: float, limit: int) -> int:
    """t / dt rounded half to even and clipped, in floats, to [0, limit]."""
    return round(min(max(t / dt, 0.0), float(limit)))


@dataclass(frozen=True, eq=False)
class Footstep:
    """One stance interval: `foot` stands at `position` over [start_time, end_time)."""

    foot: str
    position: np.ndarray
    start_time: float
    end_time: float

    def __post_init__(self):
        if self.foot not in FEET:
            raise InvalidSchedule(f"unknown foot {self.foot!r}, expected one of {FEET}")
        pos = np.array(self.position, dtype=float).reshape(-1)
        if pos.size != 2 or not np.isfinite(pos).all():
            raise InvalidSchedule("footstep position must be a finite 2-vector")
        pos.flags.writeable = False
        object.__setattr__(self, "position", pos)
        if not (
            math.isfinite(self.start_time)
            and math.isfinite(self.end_time)
            and self.end_time > self.start_time
        ):
            raise InvalidSchedule("footstep needs end_time > start_time, both finite")


@dataclass(frozen=True, eq=False)
class ContactBreakpoint:
    """Hand contacts from `time` onward; `mode` says how to reach the next breakpoint.

    mode "hold" keeps these contacts unchanged until the next breakpoint,
    "linear" interpolates force, moment and position toward it.
    """

    time: float
    contacts: tuple
    mode: str = "hold"

    def __post_init__(self):
        if self.mode not in ("hold", "linear"):
            raise InvalidSchedule(f"unknown breakpoint mode {self.mode!r}")
        if not math.isfinite(self.time):
            raise InvalidSchedule("breakpoint time must be finite")
        cons = tuple(self.contacts)
        for c in cons:
            if not isinstance(c, ExternalContact):
                raise InvalidSchedule("breakpoint contacts must be ExternalContact")
        object.__setattr__(self, "contacts", cons)


class ContactSchedule:
    """Piecewise hand-contact plan: validated breakpoints.

    Before the first breakpoint the first entry holds; after the last, the
    last entry holds. build_reference_frames samples it (_contact_sets).
    """

    def __init__(self, breakpoints):
        bps = tuple(breakpoints)
        if not bps:
            raise InvalidSchedule("contact schedule needs at least one breakpoint")
        times = [bp.time for bp in bps]
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise InvalidSchedule("breakpoint times must be strictly increasing")
        for i, bp in enumerate(bps):
            if bp.mode == "linear":
                if i + 1 >= len(bps):
                    raise InvalidSchedule("last breakpoint cannot be linear")
                if len(bp.contacts) != len(bps[i + 1].contacts):
                    raise InvalidSchedule(
                        "linear segment needs equal contact counts on both ends"
                    )
        self._breakpoints = bps

    @property
    def breakpoints(self):
        return self._breakpoints


@dataclass(frozen=True)
class SoleRect:
    """Axis-aligned footprint rectangle on the ground plane."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("sole rectangle must have positive extent")

    @classmethod
    def centered(cls, center, half_x: float, half_y: float) -> "SoleRect":
        cx, cy = float(center[0]), float(center[1])
        return cls(cx - half_x, cx + half_x, cy - half_y, cy + half_y)

    def clamp(self, point) -> np.ndarray:
        return np.array(
            [
                min(max(point[0], self.xmin), self.xmax),
                min(max(point[1], self.ymin), self.ymax),
            ]
        )

    def corners(self) -> np.ndarray:
        return np.array(
            [
                [self.xmin, self.ymin],
                [self.xmax, self.ymin],
                [self.xmax, self.ymax],
                [self.xmin, self.ymax],
            ]
        )

    @staticmethod
    def bounding(rects) -> "SoleRect":
        rects = list(rects)
        if not rects:
            raise ValueError("bounding of empty rect list")
        return SoleRect(
            min(r.xmin for r in rects),
            max(r.xmax for r in rects),
            min(r.ymin for r in rects),
            max(r.ymax for r in rects),
        )


@dataclass(frozen=True, eq=False)
class ReferenceTimeline:
    """Sampled plan as dense per-sample arrays over small per-phase tables.

    Sample k stands in support phase phase[k], whose feet and sole
    rectangles are support_feet[phase[k]] and support_regions[phase[k]].
    Its hand contacts are contact set contact_index[k]: rows
    contact_start[j]:contact_start[j + 1] of contact_table, one contact per
    row in the contact_rows layout. A hold span of the schedule is one
    contact set, a linear span one set per sample. All arrays are read-only.
    """

    dt: float
    time: np.ndarray
    zmp_ref: np.ndarray
    kappa: np.ndarray
    gamma: np.ndarray
    ext_zmp_ref: np.ndarray
    omega: float
    zeta: float
    phase: np.ndarray
    support_feet: tuple
    support_regions: tuple
    contact_index: np.ndarray
    contact_start: np.ndarray
    contact_table: np.ndarray

    def __len__(self):
        return len(self.time)

    def contact_rows(self, j: int) -> tuple:
        """Contact set j as contact_rows: one float tuple per contact."""
        rows = self.contact_table[self.contact_start[j] : self.contact_start[j + 1]]
        return tuple(map(tuple, rows.tolist()))


@dataclass(frozen=True, eq=False)
class SupportPhases:
    """Support stance of every sample: a phase index into a table of stances.

    Sample k stands in stances[phase[k]]. Each stance is a ((foot,
    position), ...) tuple, one per distinct stance of the plan.
    """

    phase: np.ndarray
    stances: tuple

    def __len__(self):
        return len(self.phase)


def _read_only(*arrays):
    for arr in arrays:
        arr.flags.writeable = False


def _check_sampling(dt: float, n_samples: int):
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be positive")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")


def standing_reference(feet: dict, dt: float, n_samples: int):
    """Constant double-support plan: ZMP pinned at the stance midpoint.

    feet maps foot name to its 2D center. Returns (times, zmp_ref, supports)
    where supports is a SupportPhases with the one two-foot stance.
    """
    _check_sampling(dt, n_samples)
    if set(feet) != set(FEET):
        raise InvalidSchedule(f"standing plan needs feet {FEET}, got {sorted(feet)}")
    positions = {f: np.array(feet[f], dtype=float).reshape(2) for f in FEET}
    _read_only(*positions.values())
    mid = 0.5 * (positions["left"] + positions["right"])
    times = np.arange(n_samples) * dt
    zmp = np.tile(mid, (n_samples, 1))
    phase = np.zeros(n_samples, dtype=np.intp)
    _read_only(phase)
    stance = tuple((f, positions[f]) for f in FEET)
    return times, zmp, SupportPhases(phase=phase, stances=(stance,))


def stepping_reference(
    steps,
    double_support_fraction: float,
    dt: float,
    n_samples: int,
    initial_positions: dict | None = None,
):
    """Sampled ZMP reference and support phases for a contiguous footstep plan.

    Each step transfers the ZMP from the previous stance point to its own
    during a double-support window covering the leading
    `double_support_fraction` of the step; outside that window only the
    stepping foot supports. The plan leads in from (and winds down to) the
    two-foot midpoint. A foot's position before its first step defaults to
    that first step's position; override via initial_positions. Returns
    (times, zmp_ref, supports) with supports a SupportPhases.
    """
    _check_sampling(dt, n_samples)
    steps = list(steps)
    if not steps:
        raise InvalidSchedule("stepping plan needs at least one footstep")
    if not 0.0 <= double_support_fraction < 1.0:
        raise InvalidSchedule("double_support_fraction must be in [0, 1)")
    for a, b in zip(steps, steps[1:]):
        if b.start_time < a.end_time - _TIME_TOL:
            raise InvalidSchedule(
                f"footsteps overlap at t={b.start_time:g}: {a.foot} until "
                f"{a.end_time:g}"
            )
        if b.start_time > a.end_time + _TIME_TOL:
            raise InvalidSchedule(
                f"gap between footsteps at t={a.end_time:g}..{b.start_time:g}"
            )

    initial = dict(initial_positions or {})
    for s in steps:
        initial.setdefault(s.foot, s.position)
    if set(initial) != set(FEET):
        missing = sorted(set(FEET) - set(initial))
        raise InvalidSchedule(
            f"no known position for feet {missing}; give initial_positions"
        )
    initial = {f: np.array(initial[f], dtype=float).reshape(2) for f in initial}
    _read_only(*initial.values())

    mid0 = 0.5 * (initial["left"] + initial["right"])
    ds_ends = [
        s.start_time + double_support_fraction * (s.end_time - s.start_time)
        for s in steps
    ]

    # ZMP knots: hold, then ramp into each step over its double-support window
    knot_t = [0.0]
    knot_p = [mid0]
    prev_p = mid0
    for s, ds_end in zip(steps, ds_ends):
        knot_t += [s.start_time, ds_end]
        knot_p += [prev_p, s.position]
        prev_p = s.position
    last = steps[-1]
    final_pos = dict(initial)
    for s in steps:
        final_pos[s.foot] = s.position
    mid_end = 0.5 * (final_pos["left"] + final_pos["right"])
    wind = double_support_fraction * (last.end_time - last.start_time)
    knot_t += [last.end_time, last.end_time + wind]
    knot_p += [prev_p, mid_end]
    knot_t = np.array(knot_t)
    knot_p = np.array(knot_p)
    if np.any(np.diff(knot_t) < 0):
        raise InvalidSchedule("footstep plan produced non-monotonic ZMP knots")

    times = np.arange(n_samples) * dt
    zmp = np.column_stack(
        [np.interp(times, knot_t, knot_p[:, 0]), np.interp(times, knot_t, knot_p[:, 1])]
    )

    # Support phases: code 0 before the first step; within step i (the last
    # one started), code 2i + 2 in its single-support window [ds_end, end)
    # and code 2i + 1 outside it, with both feet where steps 0..i put them.
    idx = np.searchsorted([s.start_time for s in steps], times, side="right") - 1
    at = np.maximum(idx, 0)
    single = (
        (idx >= 0)
        & (times < np.array([s.end_time for s in steps])[at])
        & (times >= np.array(ds_ends)[at])
    )
    code = np.where(idx < 0, 0, 2 * idx + 1 + single)

    # each code's stance, shared by value: equal feet at equal positions
    pos = {f: initial[f] for f in FEET}
    stances = []
    by_key = {}

    def stance(feet_now):
        key = tuple((f, pos[f].tobytes()) for f in feet_now)
        if key not in by_key:
            by_key[key] = len(stances)
            stances.append(tuple((f, pos[f]) for f in feet_now))
        return by_key[key]

    of_code = [stance(FEET)]
    for s in steps:
        pos[s.foot] = s.position
        of_code += [stance(FEET), stance((s.foot,))]
    phase = np.array(of_code, dtype=np.intp)[code]
    _read_only(phase)
    return times, zmp, SupportPhases(phase=phase, stances=tuple(stances))


def _contact_sets(schedule: ContactSchedule, times: np.ndarray):
    """Contact sets of the schedule over the sample times.

    Returns (contact_index, spans): per sample the index of its contact set,
    and per run of samples in one schedule segment (k0, k1, rows) with rows
    an (L, m, 9) array of contact_rows, L = 1 for a hold (one set for the
    run) and L = k1 - k0 for a linear ramp (one set per sample). The
    first breakpoint holds before its time, each breakpoint from its time
    until the next, and a ramp interpolates a + s * (b - a), s = (t - t0) /
    (t1 - t0).
    """
    bps = schedule.breakpoints
    seg = np.searchsorted([bp.time for bp in bps], times, side="right") - 1
    cuts = (np.flatnonzero(np.diff(seg)) + 1).tolist()
    contact_index = np.empty(len(times), dtype=np.intp)
    spans = []
    first = 0
    for k0, k1 in zip([0] + cuts, cuts + [len(times)]):
        j = int(seg[k0])
        a = bps[max(j, 0)]
        rows = np.array(contact_rows(a.contacts), dtype=float)
        rows = rows.reshape(1, len(a.contacts), 9)
        if j >= 0 and a.mode == "linear":
            b = bps[j + 1]
            end = np.array(contact_rows(b.contacts), dtype=float).reshape(rows.shape)
            s = (times[k0:k1] - a.time) / (b.time - a.time)
            rows = rows + s[:, None, None] * (end - rows)
            contact_index[k0:k1] = np.arange(first, first + k1 - k0)
        else:
            contact_index[k0:k1] = first
        first += len(rows)
        spans.append((k0, k1, rows))
    return contact_index, spans


def build_reference_frames(
    times: np.ndarray,
    zmp_ref: np.ndarray,
    supports: SupportPhases,
    schedule: ContactSchedule,
    params: RobotParams,
    sole_half_x: float,
    sole_half_y: float,
    force_kappa_one: bool = False,
) -> ReferenceTimeline:
    """Attach contacts, coefficients and sole rectangles to a sampled plan.

    kappa and gamma are contact_terms of each sample's contacts, computed
    over whole spans of samples at once; ext_zmp_ref is ext_zmp of each
    sample's kappa, zmp_ref and gamma. force_kappa_one models a controller
    that ignores the ZMP scaling of vertical contact forces: the plan keeps
    gamma but pins kappa to 1.
    """
    n = len(times)
    if zmp_ref.shape != (n, 2) or len(supports) != n:
        raise ValueError("times, zmp_ref and supports must have matching lengths")
    if n < 2:
        raise ValueError("timeline needs at least two samples")
    dt = float(times[1] - times[0])
    unloaded = compute_coefficients(params, ())

    contact_index, spans = _contact_sets(schedule, times)
    kappa = np.empty(n)
    gamma = np.empty((n, 2))
    for k0, k1, rows in spans:
        # iterating (m, 9, L) hands contact_terms one (9, L) block per
        # contact, so it sums the contacts in order over all L sets at once
        *_, kap, gx, gy = contact_terms(
            rows.transpose(1, 2, 0), unloaded.zeta, params.zmp_height
        )
        kappa[k0:k1] = kap
        gamma[k0:k1, 0] = gx
        gamma[k0:k1, 1] = gy
    table = np.concatenate([rows.reshape(-1, 9) for *_, rows in spans])
    counts = np.concatenate([np.full(len(rows), rows.shape[1]) for *_, rows in spans])
    for i, name in enumerate(("force", "moment", "position")):
        if not np.isfinite(table[:, 3 * i : 3 * i + 3]).all():
            raise ValueError(f"{name}: components must be finite")
    if not np.isfinite(kappa).all():
        raise NonPhysical("kappa must be finite")
    if not np.isfinite(gamma).all():
        raise ValueError("gamma: components must be finite")
    if force_kappa_one:
        kappa[:] = 1.0
    exz = ext_zmp(kappa[:, None], zmp_ref, gamma)
    if not np.isfinite(exz).all():
        raise ValueError("position: components must be finite")

    regions = tuple(
        tuple(SoleRect.centered(p, sole_half_x, sole_half_y) for _, p in stance)
        for stance in supports.stances
    )
    feet = tuple(tuple(f for f, _ in stance) for stance in supports.stances)
    contact_start = np.concatenate([[0], np.cumsum(counts)])
    zmp_ref = zmp_ref.copy()
    time = np.array(times)
    _read_only(time, zmp_ref, kappa, gamma, exz, contact_index, contact_start, table)
    return ReferenceTimeline(
        dt=dt,
        time=time,
        zmp_ref=zmp_ref,
        kappa=kappa,
        gamma=gamma,
        ext_zmp_ref=exz,
        omega=float(unloaded.omega),
        zeta=float(unloaded.zeta),
        phase=supports.phase,
        support_feet=feet,
        support_regions=regions,
        contact_index=contact_index,
        contact_start=contact_start,
        contact_table=table,
    )
