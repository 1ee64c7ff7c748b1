"""Deterministic closed-loop point-mass plant with ZMP actuation lag.

The plant integrates the same pendulum-with-external-forces model the
controller assumes; controller/plant mismatch enters only through injected
disturbance forces and a first-order lag between commanded and realized ZMP.
run_closed_loop wires plant, reference, and stabilizer together and logs
every diagnostic signal per step. Its step runs on Python floats through the
same laws as the per-sample API: disturbed_rows (apply_disturbances),
plant_law (step_plant) and stabilizer.stabilizer_law (Stabilizer.step).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core_dynamics import (
    CoMState,
    ExternalContact,
    RobotParams,
    compute_coefficients,
    contact_rows,
    contact_terms,
)
from .pattern_generator import DesiredTrajectory
from .reference_builder import SoleRect
from .stabilizer import Stabilizer, hull_edges, stabilizer_law, support_hull

_DISTURBANCE_KINDS = ("constant", "sinusoid", "step")
_AXES = {"x": 0, "y": 1, "z": 2}

DIVERGENCE_LIMIT = 1.0

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
EXTRA_COLUMNS = (
    "command_acc_x",
    "command_acc_y",
    "dcm_err_x",
    "dcm_err_y",
    "zmp_saturated",
    "cop_clamped",
    "zmp_clamped",
    "com_acc_x^a",
    "com_acc_y^a",
)

@dataclass(frozen=True, eq=False)
class PlantState:
    """Plant truth at one instant; zmp_clamped marks a support-edge event."""

    com: CoMState
    zmp_actual: np.ndarray
    time: float
    zmp_clamped: bool = False


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

    def value(self, t: float) -> float:
        if t < self.start_time or t >= self.end_time:
            return 0.0
        if self.kind == "sinusoid":
            phase = 2.0 * math.pi * (t - self.start_time) / self.period
            return self.amplitude * math.sin(phase)
        return self.amplitude


def disturbed_rows(rows: tuple, profiles, t: float) -> tuple:
    """True contacts at time t as contact_rows: desired rows plus disturbances.

    Returns rows itself when no disturbance is active. A contact_index beyond
    the contacts present raises IndexError.
    """
    deltas = None
    for prof in profiles:
        v = prof.value(t)
        if v == 0.0:
            continue
        if deltas is None:
            deltas = [[0.0, 0.0, 0.0] for _ in rows]
        ax = _AXES[prof.axis]
        if prof.contact_index is None:
            for d in deltas:
                d[ax] += v
        else:
            deltas[prof.contact_index][ax] += v
    if deltas is None:
        return rows
    return tuple(
        (r[0] + d[0], r[1] + d[1], r[2] + d[2]) + r[3:] for r, d in zip(rows, deltas)
    )


def apply_disturbances(contacts, profiles, t: float):
    """True contacts at time t: desired contacts plus active disturbances."""
    rows = contact_rows(contacts)
    out = disturbed_rows(rows, profiles, t)
    if out is rows:
        return contacts
    return tuple(
        ExternalContact(force=r[:3], moment=con.moment, position=con.position)
        for con, r in zip(contacts, out)
    )


def plant_law(px, py, vx, vy, zx, zy, cx, cy, decay, bounds, omega, kappa, gx, gy, dt):
    """step_plant on floats.

    (px, py), (vx, vy) are the CoM position and velocity, (zx, zy) the
    realized and (cx, cy) the commanded ZMP. decay is the lag factor
    exp(-rho dt), or None for direct actuation; bounds is (xmin, xmax, ymin,
    ymax) of the clamp rectangle, or None. omega, kappa, (gx, gy) are the
    true contacts' coefficients. Returns the new (px, py, vx, vy, ax, ay,
    zx, zy, zmp_clamped); a non-finite CoM state raises ValueError.
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
    w2 = omega**2
    ax = w2 * (px - kappa * zx + gx)
    ay = w2 * (py - kappa * zy + gy)
    vx = vx + ax * dt
    vy = vy + ay * dt
    px = px + vx * dt
    py = py + vy * dt
    for name, a, b in (("position", px, py), ("velocity", vx, vy), ("acceleration", ax, ay)):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"{name}: components must be finite")
    return px, py, vx, vy, ax, ay, zx, zy, clamped


def step_plant(
    state: PlantState,
    command_zmp: np.ndarray,
    true_contacts,
    params: RobotParams,
    rho: float,
    dt: float,
    direct_zmp: bool = False,
    clamp_rect: SoleRect | None = None,
) -> PlantState:
    """Advance the plant one control period.

    The realized ZMP relaxes toward the command through an exact exponential
    first-order lag (or copies it in direct mode), is hard-clamped into the
    enlarged support rectangle, and drives a semi-implicit update of the CoM
    under the true contact forces.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    coeff = compute_coefficients(params, true_contacts)
    bounds = None
    if clamp_rect is not None:
        bounds = (clamp_rect.xmin, clamp_rect.xmax, clamp_rect.ymin, clamp_rect.ymax)
    px, py, vx, vy, ax, ay, zx, zy, clamped = plant_law(
        *state.com.position.tolist(),
        *state.com.velocity.tolist(),
        *np.asarray(state.zmp_actual, dtype=float).tolist(),
        *np.asarray(command_zmp, dtype=float).tolist(),
        None if direct_zmp else math.exp(-rho * dt),
        bounds,
        coeff.omega,
        coeff.kappa,
        *coeff.gamma.tolist(),
        dt,
    )
    return PlantState(
        com=CoMState(position=(px, py), velocity=(vx, vy), acceleration=(ax, ay)),
        zmp_actual=np.array([zx, zy]),
        time=state.time + dt,
        zmp_clamped=clamped,
    )


@dataclass(eq=False)
class TraceLog:
    """Per-step record of one closed-loop run.

    columns maps every CSV column name to a 1-D array; extra carries
    internal diagnostics that are not part of the CSV schema. A diverged
    trace is truncated at the step the divergence was detected.
    """

    dt: float
    columns: dict
    extra: dict = field(default_factory=dict)
    diverged: bool = False
    diverged_at: float | None = None
    zmp_clamp_count: int = 0

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


def run_closed_loop(
    traj: DesiredTrajectory,
    stabilizer: Stabilizer,
    params: RobotParams,
    rho: float,
    disturbances=(),
    direct_zmp: bool = False,
    initial: PlantState | None = None,
    com_noise: float = 0.0,
    force_noise: float = 0.0,
    rng: np.random.Generator | None = None,
    divergence_limit: float = DIVERGENCE_LIMIT,
) -> TraceLog:
    """Simulate the stabilized plant along a planned trajectory.

    Per step: read the plant, optionally corrupt the measurements with white
    noise, run the stabilizer law (without the foot-wrench split, which the
    plant never reads), log, then advance the plant under the true
    (disturbed) contacts. Aborts and marks the trace when the actual CoM
    leaves the desired one by more than divergence_limit. The stabilizer's
    state advances in place, so a reused Stabilizer continues from where
    the run left it.
    """
    timeline = traj.timeline
    dt = timeline.dt
    n = len(traj.time)
    noisy = (com_noise > 0.0 or force_noise > 0.0) and rng is not None
    omega = timeline.omega

    if initial is None:
        px, py = traj.com_pos[0].tolist()
        vx, vy = traj.com_vel[0].tolist()
        ax, ay = traj.com_acc[0].tolist()
        zax, zay = traj.zmp[0].tolist()
        plant_time = float(traj.time[0])
    else:
        px, py = initial.com.position.tolist()
        vx, vy = initial.com.velocity.tolist()
        ax, ay = initial.com.acceleration.tolist()
        zax, zay = np.asarray(initial.zmp_actual, dtype=float).tolist()
        plant_time = initial.time

    # one preallocated array per column: the plan's columns are copied, the
    # others written per step through memoryviews. One 2-D buffer would hold
    # the same bytes, but once freed it raises glibc's dynamic mmap threshold
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
    step_views = [
        memoryview(columns[name])
        for name in columns
        if name not in plan_columns and name != "zmp_clamped"
    ]
    clamp_view = memoryview(columns["zmp_clamped"])

    plan_mv = [
        memoryview(a[:, i])
        for a in (traj.com_pos, traj.com_acc, traj.dcm, traj.zmp)
        for i in (0, 1)
    ]
    desired_x = plan_mv[0]
    desired_y = plan_mv[1]

    state = stabilizer.state
    gains = stabilizer.gains
    stab_params = stabilizer.params
    stab_dt = stabilizer.dt
    compensate = stabilizer.compensate_forces
    decay = None if direct_zmp else math.exp(-rho * dt)
    unloaded = compute_coefficients(params)
    com_vel_noise = com_noise * omega

    contacts = region = true_rows = None
    diverged = False
    diverged_at = None
    clamp_count = 0
    last = n

    for k, frame, t, *plan in zip(range(n), timeline.frames, memoryview(traj.time), *plan_mv):
        if frame.contacts is not contacts:
            contacts = frame.contacts
            desired_rows = contact_rows(contacts)
        rows = disturbed_rows(desired_rows, disturbances, t)
        if rows is not true_rows:
            true_rows = rows
            fsx, fsy, fsz, kappa, gx, gy = contact_terms(
                rows, unloaded.zeta, params.zmp_height
            )
        if frame.support_region is not region:
            region = frame.support_region
            edges = hull_edges(support_hull(region))
            base = SoleRect.bounding(region)
            m = ZMP_CLAMP_MARGIN
            bounds = (base.xmin - m, base.xmax + m, base.ymin - m, base.ymax + m)

        com = (px, py)
        vel = (vx, vy)
        meas_rows = true_rows
        if noisy:
            nx, ny = rng.standard_normal(2).tolist()
            com = (px + com_noise * nx, py + com_noise * ny)
            nx, ny = rng.standard_normal(2).tolist()
            vel = (vx + com_vel_noise * nx, vy + com_vel_noise * ny)
            if force_noise > 0.0:
                meas_rows = tuple(
                    tuple(
                        f + force_noise * e
                        for f, e in zip(r[:3], rng.standard_normal(3).tolist())
                    )
                    + r[3:]
                    for r in true_rows
                )

        coeff = frame.coefficients
        (zcx, zcy), (acx, acy), _, (dex, dey), (gex, gey), sat, cop, _ = stabilizer_law(
            state,
            gains,
            stab_params,
            stab_dt,
            compensate,
            coeff.kappa,
            coeff.omega,
            plan,
            desired_rows,
            com,
            vel,
            meas_rows,
            edges,
        )
        hx, hy = state.gamma_high
        lx, ly = state.gamma_low
        stepped = plant_law(
            px, py, vx, vy, zax, zay, zcx, zcy, decay, bounds,
            unloaded.omega, kappa, gx, gy, dt,
        )
        # this step's values, in the order of step_views
        for view, value in zip(
            step_views,
            (
                px, py, px + vx / omega, py + vy / omega, zcx, zcy, zax, zay,
                gex, gey, hx, hy, lx, ly, fsx, fsy, fsz,
                acx, acy, dex, dey, sat, cop, ax, ay,
            ),
        ):
            view[k] = value
        px, py, vx, vy, ax, ay, zax, zay, clamped = stepped
        plant_time = plant_time + dt
        if clamped:
            clamp_count += 1
            clamp_view[k] = 1.0

        j = min(k + 1, n - 1)
        if (
            abs(px - desired_x[j]) > divergence_limit
            or abs(py - desired_y[j]) > divergence_limit
        ):
            diverged = True
            diverged_at = plant_time
            last = k + 1
            break

    if last < n:
        columns = {name: col[:last].copy() for name, col in columns.items()}
    return TraceLog(
        dt=dt,
        columns={name: columns[name] for name in CSV_COLUMNS},
        extra={name: columns[name] for name in EXTRA_COLUMNS},
        diverged=diverged,
        diverged_at=diverged_at,
        zmp_clamp_count=clamp_count,
    )
