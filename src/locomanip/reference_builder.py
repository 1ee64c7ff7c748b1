"""Sampled gait and contact references for the walking controller.

Turns a footstep plan plus a hand-contact schedule into a per-sample timeline:
ZMP reference, support feet with their sole rectangles, the scheduled external
contacts and the pendulum coefficients they induce. The pattern generator and
stabilizer consume this timeline; nothing here depends on feedback.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .core_dynamics import (
    ExternalContact,
    LipmCoefficients,
    RobotParams,
    compute_coefficients,
    ext_zmp,
    ZmpPoint,
)
from .errors import InvalidSchedule

FEET = ("left", "right")

# Contiguity of stance intervals is checked to this slack, seconds.
_TIME_TOL = 1e-9


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
    """Piecewise hand-contact plan sampled by time.

    Before the first breakpoint the first entry holds; after the last, the
    last entry holds. "hold" segments return the breakpoint's own contact
    tuple unchanged (same object every call), so a caller can tell that the
    contacts did not change with an `is` test.
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
        self._times = times

    @property
    def breakpoints(self):
        return self._breakpoints

    def sample(self, t: float) -> tuple:
        """Contacts active at time t."""
        idx = bisect.bisect_right(self._times, t) - 1
        if idx < 0:
            return self._breakpoints[0].contacts
        bp = self._breakpoints[idx]
        if bp.mode == "hold" or idx + 1 >= len(self._breakpoints):
            return bp.contacts
        nxt = self._breakpoints[idx + 1]
        s = (t - bp.time) / (nxt.time - bp.time)
        out = []
        for a, b in zip(bp.contacts, nxt.contacts):
            out.append(
                ExternalContact(
                    force=a.force + s * (b.force - a.force),
                    moment=a.moment + s * (b.moment - a.moment),
                    position=a.position + s * (b.position - a.position),
                )
            )
        return tuple(out)


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

    def contains(self, point, margin: float = 0.0) -> bool:
        return (
            self.xmin - margin <= point[0] <= self.xmax + margin
            and self.ymin - margin <= point[1] <= self.ymax + margin
        )

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
class ReferenceFrame:
    """Everything the controller needs about one sample of the plan."""

    time: float
    zmp_ref: np.ndarray
    contacts: tuple
    coefficients: LipmCoefficients
    ext_zmp_ref: np.ndarray
    support_feet: tuple
    support_region: tuple


@dataclass(frozen=True, eq=False)
class ReferenceTimeline:
    """Sampled plan: per-frame references plus dense arrays for batch access."""

    dt: float
    time: np.ndarray
    zmp_ref: np.ndarray
    kappa: np.ndarray
    gamma: np.ndarray
    ext_zmp_ref: np.ndarray
    omega: float
    frames: tuple

    def __len__(self):
        return len(self.frames)


def _check_sampling(dt: float, n_samples: int):
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be positive")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")


def standing_reference(feet: dict, dt: float, n_samples: int):
    """Constant double-support plan: ZMP pinned at the stance midpoint.

    feet maps foot name to its 2D center. Returns (times, zmp_ref, supports)
    where supports is one ((foot, position), ...) tuple per sample.
    """
    _check_sampling(dt, n_samples)
    if set(feet) != set(FEET):
        raise InvalidSchedule(f"standing plan needs feet {FEET}, got {sorted(feet)}")
    positions = {f: np.array(feet[f], dtype=float).reshape(2) for f in FEET}
    for p in positions.values():
        p.flags.writeable = False
    mid = 0.5 * (positions["left"] + positions["right"])
    times = np.arange(n_samples) * dt
    zmp = np.tile(mid, (n_samples, 1))
    stance = tuple((f, positions[f]) for f in FEET)
    supports = [stance] * n_samples
    return times, zmp, supports


def stepping_reference(
    steps,
    double_support_fraction: float,
    dt: float,
    n_samples: int,
    initial_positions: dict | None = None,
):
    """Sampled ZMP reference and support sets for a contiguous footstep plan.

    Each step transfers the ZMP from the previous stance point to its own
    during a double-support window covering the leading
    `double_support_fraction` of the step; outside that window only the
    stepping foot supports. The plan leads in from (and winds down to) the
    two-foot midpoint. A foot's position before its first step defaults to
    that first step's position; override via initial_positions.
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

    mid0 = 0.5 * (initial["left"] + initial["right"])

    # ZMP knots: hold, then ramp into each step over its double-support window
    knot_t = [0.0]
    knot_p = [mid0]
    prev_p = mid0
    for s in steps:
        ds_end = s.start_time + double_support_fraction * (s.end_time - s.start_time)
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

    # support sets, sweeping foot positions forward through the plan
    pos = {f: initial[f] for f in FEET}
    for p in pos.values():
        p.flags.writeable = False
    starts = [s.start_time for s in steps]
    supports = []
    stance_cache = {}

    def stance(feet_now, positions):
        key = tuple((f, positions[f].tobytes()) for f in sorted(feet_now))
        got = stance_cache.get(key)
        if got is None:
            got = tuple((f, positions[f]) for f in sorted(feet_now))
            stance_cache[key] = got
        return got

    for t in times:
        idx = bisect.bisect_right(starts, t) - 1
        if idx < 0:
            supports.append(stance(FEET, pos))
            continue
        s = steps[idx]
        cur = dict(pos)
        for done in steps[: idx + 1]:
            cur[done.foot] = done.position
        if t >= s.end_time:
            supports.append(stance(FEET, cur))
        elif t < s.start_time + double_support_fraction * (s.end_time - s.start_time):
            supports.append(stance(FEET, cur))
        else:
            supports.append(stance((s.foot,), cur))
    return times, zmp, supports


def build_reference_frames(
    times: np.ndarray,
    zmp_ref: np.ndarray,
    supports,
    schedule: ContactSchedule,
    params: RobotParams,
    sole_half_x: float,
    sole_half_y: float,
    force_kappa_one: bool = False,
    com_vert_accel: float = 0.0,
) -> ReferenceTimeline:
    """Attach contacts, coefficients and sole rectangles to a sampled plan.

    force_kappa_one models a controller that ignores the ZMP scaling of
    vertical contact forces: the frame coefficients keep gamma but pin
    kappa to 1.
    """
    n = len(times)
    if zmp_ref.shape != (n, 2) or len(supports) != n:
        raise ValueError("times, zmp_ref and supports must have matching lengths")
    if n < 2:
        raise ValueError("timeline needs at least two samples")
    dt = float(times[1] - times[0])

    frames = []
    kappa = np.empty(n)
    gamma = np.empty((n, 2))
    exz = np.empty((n, 2))
    # A hold segment returns one shared contact tuple and an unchanged stance
    # one shared support tuple, so a sample whose object is the previous
    # sample's reuses its coefficients or sole region.
    contacts = sup = None
    for k in range(n):
        t = float(times[k])
        sampled = schedule.sample(t)
        if sampled is not contacts:
            contacts = sampled
            coeff = compute_coefficients(params, contacts, com_vert_accel)
            if force_kappa_one:
                coeff = LipmCoefficients(
                    omega=coeff.omega, kappa=1.0, gamma=coeff.gamma, zeta=coeff.zeta
                )
        z = zmp_ref[k]
        ez = ext_zmp(coeff, ZmpPoint(z)).position
        kappa[k] = coeff.kappa
        gamma[k] = coeff.gamma
        exz[k] = ez

        if supports[k] is not sup:
            sup = supports[k]
            feet = tuple(f for f, _ in sup)
            region = tuple(
                SoleRect.centered(p, sole_half_x, sole_half_y) for _, p in sup
            )
        frames.append(
            ReferenceFrame(
                time=t,
                zmp_ref=z,
                contacts=contacts,
                coefficients=coeff,
                ext_zmp_ref=ez,
                support_feet=feet,
                support_region=region,
            )
        )
    zmp_ref = zmp_ref.copy()
    for arr in (kappa, gamma, exz, zmp_ref):
        arr.flags.writeable = False
    return ReferenceTimeline(
        dt=dt,
        time=np.array(times),
        zmp_ref=zmp_ref,
        kappa=kappa,
        gamma=gamma,
        ext_zmp_ref=exz,
        omega=float(coeff.omega),
        frames=tuple(frames),
    )
