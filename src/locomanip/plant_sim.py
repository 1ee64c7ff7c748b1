"""Deterministic closed-loop point-mass plant with ZMP actuation lag.

The plant integrates the same pendulum-with-external-forces model the
controller assumes; controller/plant mismatch enters only through injected
disturbance forces and a first-order lag between commanded and realized ZMP.
run_closed_loop drives the stabilizer's robot along a plan and logs the CSV
columns and three event flags. It goes through the plan in blocks of
samples. The force-measurement half of the step reads no plant state, so it
runs first for the whole block, on arrays: apply_disturbances, the true
contacts' contact_terms, the measurement noise and
Stabilizer.measure_forces. Then the feedback half runs one step at a time on
Python floats: Stabilizer.step and step_plant. Each law is defined once.
A step that fails (STEP_FAILURES) ends the run: the exception propagates
with the trace of the steps before it attached as ``exc.trace``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core_dynamics import (
    compute_coefficients,
    contact_terms,
    dcm_of,
    lipm_accel,
)
from .errors import Infeasible, NonFiniteState, NonPhysical
from .pattern_generator import DesiredTrajectory
from .reference_builder import SoleRect
from .stabilizer import Stabilizer, hull_edges, support_hull

_DISTURBANCE_KINDS = ("constant", "sinusoid", "step")
_AXES = {"x": 0, "y": 1, "z": 2}

DIVERGENCE_LIMIT = 1.0

# what a control step can raise once the run is under way: unloaded feet
# (Infeasible, or NonPhysical with no vertical force left) and a plant state
# that overflowed
STEP_FAILURES = (Infeasible, NonPhysical, NonFiniteState)

# realized ZMP may leave the planned support slightly (sole compliance,
# conservative planning margins); the plant clamps at this inflation
ZMP_CLAMP_MARGIN = 0.02

CSV_COLUMNS = (
    "time",
    "c_x^d",
    "c_y^d",
    "c_x^a",
    "c_y^a",
    "xi_x^d",
    "xi_y^d",
    "xi_x^a",
    "xi_y^a",
    "z_x^d",
    "z_y^d",
    "z_x^c",
    "z_y^c",
    "z_x^a",
    "z_y^a",
    "extzmp_x^ref",
    "extzmp_y^ref",
    "gamma_err_x",
    "gamma_err_y",
    "gammaH_x",
    "gammaH_y",
    "gammaL_x",
    "gammaL_y",
    "fext_sum_x",
    "fext_sum_y",
    "fext_sum_z",
)

# internal diagnostics of TraceLog.extra, outside the CSV schema
EXTRA_COLUMNS = ("zmp_saturated", "cop_clamped", "zmp_clamped")

# samples per block of run_closed_loop: the open-loop pass's temporaries grow
# with it, its per-call overhead per sample shrinks with it
BLOCK_SAMPLES = 512

# the columns the open-loop pass writes per block, in the order of its values
_MEASURED_COLUMNS = (
    "gamma_err_x", "gamma_err_y", "gammaL_x", "gammaL_y", "gammaH_x", "gammaH_y",
    "fext_sum_x", "fext_sum_y", "fext_sum_z",
)

# the columns the closed-loop pass writes per step, line by line in the order
# of its value tuple; the other CSV columns are copied from the plan. The
# xi^a columns hold the plant velocity until the loop ends.
_STEP_COLUMNS = (
    "c_x^a", "c_y^a", "xi_x^a", "xi_y^a", "z_x^c", "z_y^c", "z_x^a", "z_y^a",
    *EXTRA_COLUMNS,
)


@dataclass(frozen=True)
class DisturbanceProfile:
    """Additive force signal applied to true contacts, on one axis.

    kind "constant" and "step" hold the amplitude over [start_time,
    end_time); "sinusoid" oscillates with the given period over the same
    window. contact_index targets one contact of the desired set; None
    applies the signal to every contact.
    """

    kind: str
    axis: str = "x"
    amplitude: float = 0.0
    period: float = 1.0
    start_time: float = 0.0
    end_time: float = math.inf
    contact_index: int | None = None

    def __post_init__(self):
        if self.contact_index is not None and self.contact_index < 0:
            raise ValueError("disturbance contact_index must be non-negative")
        if self.kind not in _DISTURBANCE_KINDS:
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if self.axis not in _AXES:
            raise ValueError(f"disturbance axis must be one of {sorted(_AXES)}")
        if self.kind == "sinusoid" and not self.period > 0.0:
            raise ValueError("sinusoid period must be positive")
        if not math.isfinite(self.amplitude):
            raise ValueError("disturbance amplitude must be finite")
        if self.end_time < self.start_time:
            raise ValueError("disturbance ends before it starts")

    def value(self, t):
        """The signal at time t, or at each time of an array t.

        A sinusoid is evaluated by math.sin one time at a time, so an array
        gives the values of the scalar calls bit for bit.
        """
        if isinstance(t, np.ndarray):
            out = np.zeros(t.shape)
            on = (t >= self.start_time) & (t < self.end_time)
            if self.kind == "sinusoid":
                out[on] = [self.value(x) for x in t[on].tolist()]
            else:
                out[on] = self.amplitude
            return out
        if t < self.start_time or t >= self.end_time:
            return 0.0
        if self.kind == "sinusoid":
            phase = 2.0 * math.pi * (t - self.start_time) / self.period
            return self.amplitude * math.sin(phase)
        return self.amplitude


def apply_disturbances(rows: tuple, profiles, t) -> tuple:
    """True contacts at time t as contact_rows: desired rows plus disturbances.

    t may also be an array of times, and the values of rows arrays of that
    shape, as for contact_terms: each sample then comes out as the scalar
    call at its time would give it. A sample where no profile is active
    keeps its desired values untouched. Returns rows itself when no
    disturbance is active at any time. A contact_index beyond the contacts
    present raises IndexError while its profile acts.
    """
    deltas = None
    for prof in profiles:
        v = prof.value(t)
        hit = v != 0.0
        if not np.any(hit):
            continue
        if deltas is None:
            deltas = [[0.0, 0.0, 0.0] for _ in rows]
            active = hit
        else:
            active = active | hit
        ax = _AXES[prof.axis]
        # a profile adds nothing where it is 0.0 or -0.0: a delta starts at
        # 0.0 and only sums nonzero values, so it is never -0.0 itself
        for d in deltas if prof.contact_index is None else (deltas[prof.contact_index],):
            d[ax] = d[ax] + v
    if deltas is None:
        return rows
    if not isinstance(t, np.ndarray):
        return tuple(
            (r[0] + d[0], r[1] + d[1], r[2] + d[2]) + r[3:] for r, d in zip(rows, deltas)
        )
    return tuple(
        tuple(np.where(active, f + df, f) for f, df in zip(r[:3], d)) + r[3:]
        for r, d in zip(rows, deltas)
    )


def step_plant(px, py, vx, vy, zx, zy, cx, cy, decay, bounds, omega, kappa, gx, gy, dt):
    """Advance the plant one control period.

    The realized ZMP relaxes toward the command through an exact exponential
    first-order lag (or copies it in direct mode), is hard-clamped into the
    enlarged support rectangle, and drives a semi-implicit update of the CoM
    under the true contact forces.

    (px, py), (vx, vy) are the CoM position and velocity, (zx, zy) the
    realized and (cx, cy) the commanded ZMP. decay is the lag factor
    exp(-rho dt), or None for direct actuation; bounds is (xmin, xmax, ymin,
    ymax) of the clamp rectangle, or None. omega, kappa, (gx, gy) are the
    true contacts' coefficients. Returns the new (px, py, vx, vy, ax, ay,
    zx, zy, zmp_clamped); a non-finite CoM state raises NonFiniteState.
    """
    if decay is None:
        zx, zy = cx, cy
    else:
        zx = cx + (zx - cx) * decay
        zy = cy + (zy - cy) * decay
    clamped = False
    if bounds is not None:
        xmin, xmax, ymin, ymax = bounds
        if not (xmin <= zx <= xmax and ymin <= zy <= ymax):
            zx = min(max(zx, xmin), xmax)
            zy = min(max(zy, ymin), ymax)
            clamped = True
    ax = lipm_accel(omega, kappa, px, zx, gx)
    ay = lipm_accel(omega, kappa, py, zy, gy)
    vx = vx + ax * dt
    vy = vy + ay * dt
    px = px + vx * dt
    py = py + vy * dt
    for name, a, b in (("position", px, py), ("velocity", vx, vy), ("acceleration", ax, ay)):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise NonFiniteState(f"{name}: components must be finite")
    return px, py, vx, vy, ax, ay, zx, zy, clamped


@dataclass(eq=False)
class TraceLog:
    """Per-step record of one closed-loop run.

    columns maps every CSV column name to a 1-D array; extra maps each
    EXTRA_COLUMNS flag, outside the CSV schema, to a 0/1 array. A diverged
    trace is truncated at the step the divergence was detected. A failed
    trace holds the steps before the one that raised: failure names the
    exception class (one of STEP_FAILURES), failure_detail its message and
    failed_at the time of the failed step.
    """

    dt: float
    columns: dict
    extra: dict = field(default_factory=dict)
    diverged: bool = False
    diverged_at: float | None = None
    failure: str | None = None
    failure_detail: str = ""
    failed_at: float | None = None

    def __len__(self):
        return len(self.columns["time"])

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    @property
    def duration(self) -> float:
        return len(self) * self.dt

    def to_csv(self, path):
        data = np.column_stack([self.columns[c] for c in CSV_COLUMNS])
        np.savetxt(
            path,
            data,
            fmt="%.17g",
            delimiter=",",
            header=",".join(CSV_COLUMNS),
            comments="",
        )

    @classmethod
    def from_csv(cls, path) -> "TraceLog":
        with open(path) as fh:
            header = fh.readline().strip()
            has_rows = any(line.strip() for line in fh)
        if not has_rows:
            raise ValueError(f"{path}: need a time column with at least 2 rows")
        names = tuple(header.split(","))
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] != len(names):
            raise ValueError(f"{path}: row width does not match header")
        columns = {name: data[:, i].copy() for i, name in enumerate(names)}
        time = columns.get("time")
        if time is None or len(time) < 2:
            raise ValueError(f"{path}: need a time column with at least 2 rows")
        dt = float(time[1] - time[0])
        return cls(dt=dt, columns=columns)


def _block_contacts(timeline, b0: int, b1: int):
    """Planned contacts of samples b0 to b1, cut where the contact count changes.

    Returns (end, rows): the block ends before the first sample whose count
    differs from sample b0's, and rows are its contacts as contact_rows
    whose values are arrays over the block.
    """
    sets = timeline.contact_index[b0:b1]
    first = timeline.contact_start[sets]
    count = timeline.contact_start[sets + 1] - first
    cut = np.flatnonzero(count != count[0])
    if len(cut):
        b1 = b0 + int(cut[0])
        first = first[: cut[0]]
    table = timeline.contact_table
    return b1, tuple(tuple(table[first + i].T) for i in range(int(count[0])))


def _rebuilt_rows(measured, desired) -> list:
    """Per sample, the measured contacts as lists of contact_rows values, or
    None where they equal the planned contacts bit for bit."""
    block = np.stack([np.stack(r, axis=1) for r in measured], axis=1)
    plan = np.stack([np.stack(r, axis=1) for r in desired], axis=1)
    same = (block.view(np.int64) == plan.view(np.int64)).all(axis=(1, 2))
    return [None if s else rows for rows, s in zip(block.tolist(), same.tolist())]


def _open_loop(traj, stabilizer, disturbances, columns, noise, rng):
    """The open-loop half of run_closed_loop, one block of samples at a time.

    Yields per sample (k, contact set, phase, planned kappa, plan, kappa,
    gamma_x, gamma_y, bands, noise, rows): the plan tuple as Stabilizer.step
    takes it, the true contacts' coefficients, the bands of
    Stabilizer.measure_forces, the sample's (com_x, com_y, vel_x, vel_y)
    noise (None without noise) and its measured contacts (None where they
    are the plan's). Writes the _MEASURED_COLUMNS of a block into columns
    before its first sample. Each block is one call of _open_loop_block,
    so its temporaries are freed before the next block's are made.
    """
    n = len(traj.time)
    b0 = 0
    while b0 < n:
        b0 = yield from _open_loop_block(
            traj, b0, stabilizer, disturbances, columns, noise, rng
        )


def _open_loop_block(traj, b0, stabilizer, disturbances, columns, noise, rng):
    """One block of _open_loop, from sample b0; returns the block's end."""
    timeline = traj.timeline
    params = stabilizer.params
    b1, desired = _block_contacts(
        timeline, b0, min(b0 + BLOCK_SAMPLES, len(timeline))
    )
    m = b1 - b0
    true = apply_disturbances(desired, disturbances, traj.time[b0:b1])
    fsx, fsy, fsz, kappa, gx, gy = contact_terms(
        true, params.mass * params.gravity, params.zmp_height
    )
    measured = true
    sample_noise = itertools.repeat(None)
    if rng is not None:
        com_noise, vel_noise, force_noise = noise
        # per sample: CoM 2, velocity 2, then 3 per contact with force noise
        width = 4 + 3 * len(true) if force_noise > 0.0 else 4
        draws = rng.standard_normal((m, width)).T
        scales = (com_noise, com_noise, vel_noise, vel_noise)
        sample_noise = zip(*(memoryview(s * e) for s, e in zip(scales, draws)))
        if force_noise > 0.0:
            e = iter(draws[4:])
            measured = tuple(
                tuple(f + force_noise * next(e) for f in r[:3]) + r[3:] for r in true
            )
    gex, gey, bands = stabilizer.measure_forces(measured, desired, m)
    for name, value in zip(_MEASURED_COLUMNS, (gex, gey, *bands[:4], fsx, fsy, fsz)):
        columns[name][b0:b1] = value
    # where the measured contacts are the plan's, the loop's cached rows serve
    rows = itertools.repeat(None) if measured is desired else _rebuilt_rows(measured, desired)
    yield from zip(
        range(b0, b1),
        *(
            memoryview(a)[b0:b1]
            for a in (timeline.contact_index, timeline.phase, timeline.kappa)
        ),
        zip(
            *(
                memoryview(a[b0:b1, i])
                for a in (traj.com_pos, traj.com_acc, traj.dcm, traj.zmp)
                for i in (0, 1)
            )
        ),
        *(memoryview(np.broadcast_to(a, m)) for a in (kappa, gx, gy)),
        zip(*map(memoryview, bands)),
        sample_noise,
        rows,
    )
    return b1


def run_closed_loop(
    traj: DesiredTrajectory,
    stabilizer: Stabilizer,
    disturbances=(),
    direct_zmp: bool = False,
    com_noise: float = 0.0,
    force_noise: float = 0.0,
    seed: int | None = None,
    divergence_limit: float = DIVERGENCE_LIMIT,
) -> TraceLog:
    """Simulate the stabilized plant along a planned trajectory.

    The plant is the stabilizer's robot with the ZMP lag of gains.rho; a
    stabilizer whose dt or omega is not the plan's raises ValueError. It
    starts from the plan's first sample: planned CoM position and velocity,
    realized ZMP on the planned ZMP. The run goes in blocks of at most
    BLOCK_SAMPLES samples, cut where the number of hand contacts changes,
    and each block in two passes:

    - open loop, on arrays over the block: the true contacts by
      apply_disturbances and their contact_terms; white measurement noise
      from np.random.default_rng(seed), drawn per sample in the order CoM
      (2), velocity (2), then 3 per contact with force noise; and
      Stabilizer.measure_forces, which measures the force error of every
      sample and splits it into bands. None of this reads the plant.
    - closed loop, per step: read the plant, add the sample's noise, run
      Stabilizer.step on the sample's bands (up to the net ground wrench;
      the plant never reads a per-foot split), log, then advance the plant
      under the true (disturbed) contacts with step_plant.

    Aborts and marks the trace when the actual CoM leaves the desired one
    by more than divergence_limit. A step that raises one of STEP_FAILURES
    ends the run; the exception propagates with the truncated trace as
    ``exc.trace``. The stabilizer's state advances in place, so a reused
    Stabilizer continues from where the run left it; a run that stops at
    step k leaves it as per-sample steps would, with the bands of sample k.
    A disturbance whose contact_index is past the contacts present raises
    IndexError from the open-loop pass of the block where it first acts.
    """
    timeline = traj.timeline
    dt = timeline.dt
    omega = timeline.omega
    if abs(stabilizer.dt - dt) > 1e-12:
        raise ValueError("stabilizer and plan sample at different rates")
    if abs(stabilizer.omega - omega) > 1e-9 * omega:
        raise ValueError("stabilizer built for a different pendulum frequency")
    n = len(traj.time)
    noisy = com_noise > 0.0 or force_noise > 0.0
    rng = np.random.default_rng(seed) if noisy else None

    px, py = traj.com_pos[0].tolist()
    vx, vy = traj.com_vel[0].tolist()
    zax, zay = traj.zmp[0].tolist()
    plant_time = float(traj.time[0])

    # one preallocated array per column: the plan's columns are copied, the
    # others written per block or per step. One 2-D buffer would hold the
    # same bytes, but once freed it raises glibc's dynamic mmap threshold
    # above the trace-sized temporaries of later runs in the process, which
    # then stay resident on the heap (+1.8 MB peak RSS over a seed sweep).
    plan_columns = {
        "time": traj.time,
        "c_x^d": traj.com_pos[:, 0],
        "c_y^d": traj.com_pos[:, 1],
        "xi_x^d": traj.dcm[:, 0],
        "xi_y^d": traj.dcm[:, 1],
        "z_x^d": traj.zmp[:, 0],
        "z_y^d": traj.zmp[:, 1],
        "extzmp_x^ref": timeline.ext_zmp_ref[:, 0],
        "extzmp_y^ref": timeline.ext_zmp_ref[:, 1],
    }
    columns = {name: np.zeros(n) for name in CSV_COLUMNS + EXTRA_COLUMNS}
    for name, src in plan_columns.items():
        columns[name][:] = src
    step_views = [memoryview(columns[name]) for name in _STEP_COLUMNS]
    desired_x = memoryview(traj.com_pos[:, 0])
    desired_y = memoryview(traj.com_pos[:, 1])

    step = stabilizer.step
    state = stabilizer.state
    decay = None if direct_zmp else math.exp(-stabilizer.gains.rho * dt)
    plant_omega = compute_coefficients(stabilizer.params).omega
    samples = _open_loop(
        traj,
        stabilizer,
        disturbances,
        columns,
        (com_noise, com_noise * omega, force_noise),
        rng,
    )

    contact_set = phase = band = failure = None
    diverged = False
    diverged_at = None
    last = n
    k = 0

    try:
        for k, j, ph, kappa_d, plan, kappa, gx, gy, band, noise, rows in samples:
            if j != contact_set:
                contact_set = j
                desired_rows = timeline.contact_rows(j)
            if ph != phase:
                phase = ph
                region = timeline.support_regions[ph]
                edges = hull_edges(support_hull(region))
                base = SoleRect.bounding(region)
                m = ZMP_CLAMP_MARGIN
                bounds = (base.xmin - m, base.xmax + m, base.ymin - m, base.ymax + m)

            if noise is None:
                com = (px, py)
                vel = (vx, vy)
            else:
                ncx, ncy, nvx, nvy = noise
                com = (px + ncx, py + ncy)
                vel = (vx + nvx, vy + nvy)
            (zcx, zcy), _, _, _, sat, cop, _ = step(
                kappa_d, omega, plan, com, vel,
                desired_rows if rows is None else rows, edges, band,
            )
            stepped = step_plant(
                px, py, vx, vy, zax, zay, zcx, zcy, decay, bounds,
                plant_omega, kappa, gx, gy, dt,
            )
            # this step's values, in the order of _STEP_COLUMNS
            for view, value in zip(
                step_views, (px, py, vx, vy, zcx, zcy, zax, zay, sat, cop, stepped[8])
            ):
                view[k] = value
            px, py, vx, vy, _, _, zax, zay, _ = stepped
            plant_time = plant_time + dt

            j = min(k + 1, n - 1)
            if (
                abs(px - desired_x[j]) > divergence_limit
                or abs(py - desired_y[j]) > divergence_limit
            ):
                diverged = True
                diverged_at = plant_time
                last = k + 1
                break
    except STEP_FAILURES as exc:
        failure = exc
        last = k
    finally:
        if band is not None:
            # the open-loop pass split ahead to its block's end; per-sample
            # steps would have left the bands of the last sample stepped
            state.gamma_low = band[0:2]
            state.gamma_high = band[2:4]
            state.gamma_high_rate = band[4:6]

    # dcm_of turns the logged velocity into the DCM in place, a block at a
    # time: temporaries as long as the trace would raise peak RSS
    for b in range(0, last, BLOCK_SAMPLES):
        part = slice(b, b + BLOCK_SAMPLES)
        for c, xi in (("c_x^a", "xi_x^a"), ("c_y^a", "xi_y^a")):
            columns[xi][part] = dcm_of(columns[c][part], columns[xi][part], omega)
    if last < n:
        columns = {name: col[:last].copy() for name, col in columns.items()}
    trace = TraceLog(
        dt=dt,
        columns={name: columns[name] for name in CSV_COLUMNS},
        extra={name: columns[name] for name in EXTRA_COLUMNS},
        diverged=diverged,
        diverged_at=diverged_at,
    )
    if failure is not None:
        trace.failure = type(failure).__name__
        trace.failure_detail = str(failure)
        trace.failed_at = float(traj.time[k])
        failure.trace = trace
        raise failure
    return trace
