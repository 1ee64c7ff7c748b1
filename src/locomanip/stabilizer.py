"""DCM feedback stabilizer with frequency-separated force-error compensation.

Closes the loop around the pattern generator output. Contact-force error
enters as a ZMP-offset error gamma_err; its low-frequency band is absorbed by
shifting the desired CoM (the pendulum leans against the force), the
high-frequency band by shifting the commanded ZMP within the support region.
DCM error is regulated by PID feedback on top. The command ZMP is saturated
into the support hull, and the flag ``cop_clamped`` records when the ground
wrench the feet must realize has its pressure point outside that hull.

Each law runs on Python floats and is written once: stabilizer_law chains
them for one sample, and both the per-sample API (Stabilizer.step) and the
closed loop of plant_sim call it. Foot-wrench distribution
(distribute_wrench, an active-set split under sole limits) is a per-sample
API feature: Stabilizer.step returns the per-foot wrenches, while the
closed loop, which never reads them, does not compute them.

All gains are stated in conventional (no-external-force) terms; the control
law divides by the ZMP scale kappa so the closed-loop response matches the
conventional tuning regardless of vertical contact forces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core_dynamics import (
    DEGENERATE_KAPPA,
    LipmCoefficients,
    RobotParams,
    compute_coefficients,
    contact_rows,
    contact_terms,
    foot_wrench_terms,
    # perfbench/tracer.py wraps stabilizer.net_foot_wrench
    net_foot_wrench,  # noqa: F401
    pressure_point,
    wrench_zmp,
)
from .errors import DegenerateScale, Infeasible
from .reference_builder import SoleRect

# Rate estimates use a first-order smoother this many samples wide.
_RATE_SMOOTHING_STEPS = 5.0
_BETA = 1.0 / (_RATE_SMOOTHING_STEPS + 1.0)

_ACTIVE_SET_CAP = 50


@dataclass(frozen=True)
class StabilizerGains:
    """Feedback and filter settings of the stabilizer.

    k_p/k_i/k_d are conventional DCM PID gains (the law scales them by 1/kappa
    internally); rho is the ZMP actuation-lag parameter in 1/s; cutoff_period
    sets the frequency split of the force-error compensation; integrator_limit
    clamps the DCM error integral, in meter-seconds.
    """

    k_p: float = 1.25
    k_i: float = 0.0
    k_d: float = 0.0
    rho: float = 20.0
    cutoff_period: float = 1.0
    integrator_limit: float = 0.05

    def __post_init__(self):
        vals = (
            self.k_p,
            self.k_i,
            self.k_d,
            self.rho,
            self.cutoff_period,
            self.integrator_limit,
        )
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("stabilizer gains must be finite")
        if self.rho <= 0.0:
            raise ValueError("rho must be positive")
        if self.cutoff_period <= 0.0:
            raise ValueError("cutoff_period must be positive")
        if self.integrator_limit < 0.0:
            raise ValueError("integrator_limit must be non-negative")

    def closed_loop_poles(self, omega: float) -> np.ndarray:
        """Sorted eigenvalues of the conventional closed loop at this omega."""
        m = conventional_closed_loop_matrix(
            self.rho, omega, self.k_p, self.k_i, self.k_d
        )
        if self.k_i == 0.0:
            # integrator decoupled: ignore its structural zero eigenvalue
            m = m[1:, 1:]
        return np.sort_complex(np.linalg.eigvals(m))

    def check_stable(self, omega: float):
        """Raise ValueError unless the closed loop is Hurwitz at this omega.

        Needs the pendulum frequency, so it cannot run in __post_init__;
        Stabilizer construction calls it.
        """
        eig = self.closed_loop_poles(omega)
        if not (eig.real < 0.0).all():
            raise ValueError(
                f"gains are unstable for omega={omega:g}, rho={self.rho:g}: "
                f"closed-loop eigenvalues {eig}"
            )


def scaled_closed_loop_matrix(
    kappa: float, rho: float, omega: float, kt_p: float, kt_i: float, kt_d: float
) -> np.ndarray:
    """Closed-loop matrix of the DCM-error system under the kappa-scaled law.

    State is (integral of DCM error, DCM error, DCM error rate).
    """
    return np.array(
        [
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [
                -kappa * rho * omega * kt_i,
                rho * omega * (1.0 - kappa * kt_p),
                omega - rho - kappa * rho * omega * kt_d,
            ],
        ]
    )


def conventional_closed_loop_matrix(
    rho: float, omega: float, k_p: float, k_i: float, k_d: float
) -> np.ndarray:
    """Closed-loop matrix of the conventional DCM PID law (no external forces)."""
    return scaled_closed_loop_matrix(1.0, rho, omega, k_p, k_i, k_d)


@dataclass
class StabilizerState:
    """Filter and integrator memory of one stabilizer instance.

    Every field is an (x, y) pair of floats; each step replaces the pairs.
    """

    dcm_error_integral: tuple = (0.0, 0.0)
    gamma_low: tuple = (0.0, 0.0)
    gamma_high: tuple = (0.0, 0.0)
    gamma_high_rate: tuple = (0.0, 0.0)
    dcm_err_prev: tuple = (0.0, 0.0)
    dcm_err_rate: tuple = (0.0, 0.0)


def _xy(vec) -> tuple:
    x, y = np.asarray(vec, dtype=float).tolist()
    return x, y


def _force_error(actual_rows, desired_rows, zeta: float, zmp_height: float):
    """measure_gamma_error on contact_rows: (gamma_err_x, gamma_err_y)."""
    actual = contact_terms(actual_rows, zeta, zmp_height)
    desired = contact_terms(desired_rows, zeta, zmp_height)
    return actual[4] - desired[4], actual[5] - desired[5]


def measure_gamma_error(
    desired_contacts, actual_contacts, params: RobotParams
) -> np.ndarray:
    """ZMP-offset error gamma(actual) - gamma(desired) of the hand contacts."""
    err = _force_error(
        contact_rows(actual_contacts),
        contact_rows(desired_contacts),
        params.mass * params.gravity,
        params.zmp_height,
    )
    return np.array(err)


def _split(state: StabilizerState, ex, ey, dt, cutoff_period):
    """split_frequency on floats: replaces the three band pairs of state."""
    tau = cutoff_period / (2.0 * math.pi)
    alpha = dt / (tau + dt)
    lx, ly = state.gamma_low
    hx, hy = state.gamma_high
    rx, ry = state.gamma_high_rate
    lx = lx + alpha * (ex - lx)
    ly = ly + alpha * (ey - ly)
    new_hx = ex - lx
    new_hy = ey - ly
    state.gamma_low = (lx, ly)
    state.gamma_high = (new_hx, new_hy)
    state.gamma_high_rate = (
        rx + _BETA * ((new_hx - hx) / dt - rx),
        ry + _BETA * ((new_hy - hy) / dt - ry),
    )


def split_frequency(
    state: StabilizerState, gamma_err: np.ndarray, dt: float, cutoff_period: float
):
    """Advance the low/high frequency split of the force-error offset.

    The low band is a first-order low-pass with time constant
    cutoff_period / (2 pi); the high band is the exact complement, so
    gamma_low + gamma_high always reconstructs the input. The high-band rate
    is a smoothed backward difference. Returns the three bands as arrays.
    """
    _split(state, *_xy(gamma_err), dt, cutoff_period)
    return (
        np.array(state.gamma_low),
        np.array(state.gamma_high),
        np.array(state.gamma_high_rate),
    )


@dataclass
class DesiredSample:
    """One sample of the planned trajectory, as consumed by the stabilizer."""

    com_pos: np.ndarray
    com_acc: np.ndarray
    dcm: np.ndarray
    zmp: np.ndarray
    coefficients: LipmCoefficients
    contacts: tuple
    support_region: tuple
    support_feet: tuple


@dataclass
class ActualSample:
    """Measured plant quantities: horizontal CoM state and true contacts."""

    com_pos: np.ndarray
    com_vel: np.ndarray
    contacts: tuple


def _plan_floats(desired: DesiredSample) -> tuple:
    return (
        *_xy(desired.com_pos),
        *_xy(desired.com_acc),
        *_xy(desired.dcm),
        *_xy(desired.zmp),
    )


def _dcm_law(state: StabilizerState, gains, dt, kappa, omega, plan, xi_x, xi_y):
    """dcm_feedback on floats; plan as in stabilizer_law, (xi_x, xi_y) the
    actual DCM. Returns the command ZMP, command acceleration, shifted
    desired CoM and DCM error as one flat tuple of 8 floats."""
    if kappa <= DEGENERATE_KAPPA:
        raise DegenerateScale(f"ZMP scale kappa={kappa:.4f} too small to command")
    cx, cy, ax, ay, dx, dy, zx, zy = plan
    lx, ly = state.gamma_low
    ex = xi_x - (dx - lx)
    ey = xi_y - (dy - ly)
    ix, iy = state.dcm_error_integral
    lim = gains.integrator_limit
    # min(max()) gives np.clip's result bit for bit, signed zeros and NaN too
    ix = min(max(ix + ex * dt, -lim), lim)
    iy = min(max(iy + ey * dt, -lim), lim)
    px, py = state.dcm_err_prev
    rx, ry = state.dcm_err_rate
    rx = rx + _BETA * ((ex - px) / dt - rx)
    ry = ry + _BETA * ((ey - py) / dt - ry)
    state.dcm_error_integral = (ix, iy)
    state.dcm_err_rate = (rx, ry)
    state.dcm_err_prev = (ex, ey)

    hx, hy = state.gamma_high
    hrx, hry = state.gamma_high_rate
    k_p, k_i, k_d, rho = gains.k_p, gains.k_i, gains.k_d, gains.rho
    corr_x = k_p * ex + k_i * ix + k_d * rx + hx + hrx / rho
    corr_y = k_p * ey + k_i * iy + k_d * ry + hy + hry / rho
    w2 = omega * omega
    return (
        zx + corr_x / kappa,
        zy + corr_y / kappa,
        ax - w2 * corr_x,
        ay - w2 * corr_y,
        cx - lx,
        cy - ly,
        ex,
        ey,
    )


def dcm_feedback(
    desired: DesiredSample,
    actual_dcm: np.ndarray,
    state: StabilizerState,
    gains: StabilizerGains,
    dt: float,
):
    """PID DCM regulation plus force-error compensation terms.

    Returns (command_zmp, command_com_accel, state, shifted_desired_com,
    dcm_err); the integrator and derivative filter advance in place. The
    low-band offset shifts the desired CoM and DCM; the high-band offset and
    its rate enter the ZMP command as feedforward. All ZMP-shift terms are
    scaled by 1/kappa so the closed loop matches the conventional tuning.
    """
    coeff = desired.coefficients
    zcx, zcy, acx, acy, csx, csy, ex, ey = _dcm_law(
        state,
        gains,
        dt,
        coeff.kappa,
        coeff.omega,
        _plan_floats(desired),
        *_xy(actual_dcm),
    )
    return (
        np.array([zcx, zcy]),
        np.array([acx, acy]),
        state,
        np.array([csx, csy]),
        np.array([ex, ey]),
    )


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Counter-clockwise convex hull by monotone chain; returns (m, 2)."""
    pts = np.unique(points, axis=0)
    if len(pts) <= 2:
        return pts

    def half(iterable):
        chain = []
        for p in iterable:
            while len(chain) >= 2:
                a, b = chain[-2], chain[-1]
                if (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) <= 0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def hull_edges(hull: np.ndarray) -> tuple:
    """Edges of a CCW hull as float tuples (ax, ay, ex, ey, |e|^2).

    Each edge runs from vertex a along e to the next vertex. A 2-vertex hull
    is one segment, a 1-vertex hull one edge of zero length.
    """
    verts = hull.tolist()
    n = len(verts)
    edges = []
    for i in range(n if n > 2 else 1):
        (ax, ay), (bx, by) = verts[i], verts[(i + 1) % n]
        ex = bx - ax
        ey = by - ay
        edges.append((ax, ay, ex, ey, ex * ex + ey * ey))
    return tuple(edges)


def _clamp_xy(px, py, edges):
    """Nearest point (x, y) of a convex polygon, given by hull_edges, to (px, py).

    A point inside the polygon comes back unchanged; a 2-vertex hull is one
    segment. Float arithmetic rounds every product the same way on every
    CPU (numpy's 2-vector dot goes through BLAS, which may fuse
    multiply-adds).
    """
    if len(edges) > 2:
        for ax, ay, ex, ey, _ in edges:
            if ex * (py - ay) - ey * (px - ax) < 0.0:
                break
        else:
            return px, py
    best = None
    best_d = math.inf
    for ax, ay, ex, ey, ee in edges:
        if ee == 0.0:  # a single-vertex hull
            return ax, ay
        t = min(max(((px - ax) * ex + (py - ay) * ey) / ee, 0.0), 1.0)
        qx = ax + t * ex
        qy = ay + t * ey
        d = (px - qx) * (px - qx) + (py - qy) * (py - qy)
        # the first edge always counts, so an overflowing or NaN distance
        # still yields a point (a NaN one for a NaN input)
        if best is None or d < best_d:
            best_d = d
            best = (qx, qy)
    return best


def _clamp_to_hull(point: np.ndarray, hull: np.ndarray) -> np.ndarray:
    """Nearest point of a convex polygon (CCW vertices) to the given point."""
    return np.array(_clamp_xy(*_xy(point), hull_edges(hull)))


@functools.lru_cache(maxsize=256)
def _hull_of(region: tuple) -> np.ndarray:
    hull = _convex_hull(np.vstack([r.corners() for r in region]))
    hull.flags.writeable = False
    return hull


def support_hull(region) -> np.ndarray:
    """Convex hull of the support sole rectangles' corners, read-only.

    Memoised by the rectangles' values, so equal regions share one hull.
    """
    return _hull_of(tuple(region))


@dataclass(frozen=True, eq=False)
class Wrench:
    """Force and moment, world frame; moment about the world origin unless noted."""

    force: np.ndarray
    moment: np.ndarray


def zero_wrench() -> Wrench:
    return Wrench(force=np.zeros(3), moment=np.zeros(3))


def _rect_center3(rect: SoleRect, zmp_height: float) -> np.ndarray:
    return np.array(
        [0.5 * (rect.xmin + rect.xmax), 0.5 * (rect.ymin + rect.ymax), zmp_height]
    )


def _clamped_single(net: Wrench, rect: SoleRect, zmp_height: float) -> Wrench:
    cop = wrench_zmp(net.force, net.moment, zmp_height)
    px, py = rect.clamp(cop).tolist()
    fx, fy, fz = net.force.tolist()
    cx = 0.5 * (rect.xmin + rect.xmax)
    cy = 0.5 * (rect.ymin + rect.ymax)
    zh = zmp_height
    # moment about the sole center: the clamped-CoP moment minus center x force
    moment = np.array(
        [
            (py * fz - zh * fy) - (cy * fz - zh * fy),
            (zh * fx - px * fz) - (zh * fx - cx * fz),
            net.moment[2] - (cx * fy - cy * fx),
        ]
    )
    return Wrench(force=net.force.copy(), moment=moment)


def _within_sole(force, moment, half_x, half_y, tol=1e-9):
    fz = force[2]
    if fz < -tol:
        return False
    # homogeneous form of the CoP bounds, still valid at fz = 0
    return abs(moment[1]) <= half_x * fz + tol and abs(moment[0]) <= half_y * fz + tol


def distribute_wrench(
    net: Wrench,
    left_foot: SoleRect | None,
    right_foot: SoleRect | None,
    zmp_height: float = 0.0,
    vertical_ratio_hint: float | None = None,
) -> tuple[Wrench, Wrench]:
    """Split a net contact wrench between the support feet under sole limits.

    net.moment is about the world origin; the returned wrenches carry moments
    about the respective foot centers (at zmp_height). A foot passed as None
    is out of support and receives a zero wrench. Each supporting foot gets a
    non-negative vertical force with its center of pressure inside its sole
    rectangle; among such splits the one closest (least squares) to a nominal
    share split is returned. vertical_ratio_hint is the left foot's share of
    the vertical force (default: split by pressure-point proximity).

    Single support clamps the pressure point into the sole, altering the
    realized moment if the request is infeasible. Double support raises
    Infeasible when the net pressure point lies outside the support hull; the
    caller clamps and retries.
    """
    if left_foot is None and right_foot is None:
        raise Infeasible("no support feet")
    if not net.force[2] > 0.0:
        raise Infeasible("net wrench must press downward on the ground")

    if left_foot is None or right_foot is None:
        rect = left_foot if right_foot is None else right_foot
        placed = _clamped_single(net, rect, zmp_height)
        if right_foot is None:
            return placed, zero_wrench()
        return zero_wrench(), placed

    cop = wrench_zmp(net.force, net.moment, zmp_height)
    rects = (left_foot, right_foot)
    hull = support_hull(rects)
    clamped = _clamp_to_hull(cop, hull)
    if math.hypot(clamped[0] - cop[0], clamped[1] - cop[1]) > 1e-12:
        raise Infeasible("pressure point outside the double-support hull")

    centers = [_rect_center3(r, zmp_height) for r in rects]
    halves = [(0.5 * (r.xmax - r.xmin), 0.5 * (r.ymax - r.ymin)) for r in rects]

    if vertical_ratio_hint is None:
        # share by proximity of the pressure point along the feet axis
        axis = centers[1][:2] - centers[0][:2]
        denom = float(axis @ axis)
        toward_right = (
            0.5 if denom == 0.0 else float((cop - centers[0][:2]) @ axis) / denom
        )
        s_left = 1.0 - toward_right
    else:
        s_left = float(vertical_ratio_hint)
    s_left = min(max(s_left, 0.0), 1.0)
    share = (s_left, 1.0 - s_left)

    forces = [s * net.force for s in share]
    mx, my, mz = net.moment.tolist()
    for c, f in zip(centers, forces):
        cx, cy, cz = c.tolist()
        fx, fy, fz = f.tolist()
        mx -= cy * fz - cz * fy
        my -= cz * fx - cx * fz
        mz -= cx * fy - cy * fx
    moment_rest = np.array([mx, my, mz])
    moments = [s * moment_rest for s in share]

    ok = all(
        _within_sole(f, m, hx, hy) for f, m, (hx, hy) in zip(forces, moments, halves)
    )
    if ok:
        return (
            Wrench(force=forces[0], moment=moments[0]),
            Wrench(force=forces[1], moment=moments[1]),
        )

    w0 = np.concatenate(forces + moments)
    sol = _active_set_qp(w0, net, centers, halves)
    return (
        Wrench(force=sol[0:3], moment=sol[6:9]),
        Wrench(force=sol[3:6], moment=sol[9:12]),
    )


def _cross_matrix(p):
    return np.array([[0.0, -p[2], p[1]], [p[2], 0.0, -p[0]], [-p[1], p[0], 0.0]])


def _active_set_qp(w0, net, centers, halves):
    """min ||w - w0||^2 over recombination equalities and sole inequalities.

    Unknowns w = (f_left, f_right, m_left, m_right), moments about the foot
    centers. w0 already satisfies the equalities; the working set grows by
    the worst violated sole constraint and sheds constraints with negative
    multipliers. Feasibility is guaranteed by the caller's hull pre-check.
    """
    E = np.zeros((6, 12))
    E[0:3, 0:3] = np.eye(3)
    E[0:3, 3:6] = np.eye(3)
    E[3:6, 0:3] = _cross_matrix(centers[0])
    E[3:6, 3:6] = _cross_matrix(centers[1])
    E[3:6, 6:9] = np.eye(3)
    E[3:6, 9:12] = np.eye(3)
    h = np.concatenate([net.force, net.moment])

    # rows g with g @ w <= 0: per-foot CoP bounds and vertical force sign
    rows = []
    for i, (hx, hy) in enumerate(halves):
        fz = 3 * i + 2
        mx = 6 + 3 * i
        my = 6 + 3 * i + 1
        for sign in (1.0, -1.0):
            row = np.zeros(12)
            row[my] = sign
            row[fz] = -hx
            rows.append(row)
            row = np.zeros(12)
            row[mx] = sign
            row[fz] = -hy
            rows.append(row)
        row = np.zeros(12)
        row[fz] = -1.0
        rows.append(row)
    G = np.array(rows)

    active: list[int] = []
    for _ in range(_ACTIVE_SET_CAP):
        na = len(active)
        kkt = np.zeros((18 + na, 18 + na))
        kkt[0:12, 0:12] = 2.0 * np.eye(12)
        kkt[0:12, 12:18] = E.T
        kkt[12:18, 0:12] = E
        rhs = np.concatenate([2.0 * w0, h, np.zeros(na)])
        if na:
            Ga = G[active]
            kkt[0:12, 18:] = Ga.T
            kkt[18:, 0:12] = Ga
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        w = sol[0:12]
        viol = G @ w
        worst = int(np.argmax(viol))
        if viol[worst] > 1e-10 and worst not in active:
            active.append(worst)
            continue
        if na:
            mu = sol[18:]
            drop = int(np.argmin(mu))
            if mu[drop] < -1e-10:
                active.pop(drop)
                continue
        return w
    raise Infeasible("wrench distribution active set did not settle")


@dataclass(frozen=True, eq=False)
class StabilizerOutput:
    """Commands and diagnostics of one stabilizer step.

    Foot wrench moments are about the respective foot centers; the net
    wrench moment is about the world origin.
    """

    command_zmp: np.ndarray
    command_com_accel: np.ndarray
    shifted_com_des: np.ndarray
    net_wrench: Wrench
    left_wrench: Wrench
    right_wrench: Wrench
    dcm_err: np.ndarray
    gamma_err: np.ndarray
    gamma_low: np.ndarray
    gamma_high: np.ndarray
    gamma_high_rate: np.ndarray
    zmp_saturated: bool
    cop_clamped: bool


def stabilizer_law(
    state: StabilizerState,
    gains: StabilizerGains,
    params: RobotParams,
    dt: float,
    compensate_forces: bool,
    kappa: float,
    omega: float,
    plan: tuple,
    desired_rows: tuple,
    com: tuple,
    vel: tuple,
    rows: tuple,
    edges: tuple,
):
    """One stabilizer cycle on floats, up to the net ground wrench.

    Chains the force-error measurement, the frequency split, the DCM feedback
    law, command-ZMP saturation into the support hull and the net ground
    wrench against the measured CoM, whose pressure point is clamped into
    the hull. With compensate_forces False both offset bands stay zero
    (ablation mode); gamma_err is still measured for logging.

    kappa and omega are the planned sample's coefficients; plan is its
    (c_x, c_y, a_x, a_y, xi_x, xi_y, z_x, z_y): CoM position and
    acceleration, DCM and ZMP. desired_rows and rows are the planned and the
    measured contacts as contact_rows; com and vel the measured CoM (x, y)
    position and velocity; edges the support hull as hull_edges. The state
    advances in place.

    Returns (command_zmp, command_acc, shifted_com, dcm_err, gamma_err,
    zmp_saturated, cop_clamped, wrench): (x, y) pairs, two flags and the net
    ground wrench (fx, fy, fz, mx, my, mz) with its moment about the world
    origin. Raises NonPhysical when the wrench has no vertical force and
    Infeasible when it pulls the feet off the ground.
    """
    zmp_height = params.zmp_height
    ex, ey = _force_error(rows, desired_rows, params.mass * params.gravity, zmp_height)
    if compensate_forces:
        _split(state, ex, ey, dt, gains.cutoff_period)

    cx, cy = com
    vx, vy = vel
    zcx, zcy, acx, acy, csx, csy, dex, dey = _dcm_law(
        state, gains, dt, kappa, omega, plan, cx + vx / omega, cy + vy / omega
    )

    qx, qy = _clamp_xy(zcx, zcy, edges)
    zmp_saturated = qx != zcx or qy != zcy
    if zmp_saturated:
        zcx, zcy = qx, qy
        w2k = omega * omega * kappa
        acx = plan[2] - w2k * (zcx - plan[6])
        acy = plan[3] - w2k * (zcy - plan[7])

    fx, fy, fz, mx, my, mz = foot_wrench_terms(
        params, cx, cy, params.com_height, acx, acy, 0.0, rows
    )
    # the wrench the feet can realize is capped by the support hull: clamp
    # its pressure point and rebuild the horizontal moment to match
    px, py = pressure_point(fx, fy, fz, mx, my, zmp_height)
    qx, qy = _clamp_xy(px, py, edges)
    cop_clamped = qx != px or qy != py
    if cop_clamped:
        mx = qy * fz - zmp_height * fy
        my = zmp_height * fx - qx * fz
    if not fz > 0.0:
        raise Infeasible("net wrench must press downward on the ground")
    return (
        (zcx, zcy),
        (acx, acy),
        (csx, csy),
        (dex, dey),
        (ex, ey),
        zmp_saturated,
        cop_clamped,
        (fx, fy, fz, mx, my, mz),
    )


class Stabilizer:
    """Stateful DCM stabilizer bound to one robot, gain set and control rate.

    omega is the robot's; gains.rho is also the closed loop's plant lag.
    Checks closed-loop stability of the gains at construction. Calls must be
    serialized per instance; construct separate instances for parallel runs.
    compensate_forces=False disables the force-error compensation (both
    bands forced to zero) for ablation studies.
    """

    def __init__(
        self,
        params: RobotParams,
        gains: StabilizerGains,
        dt: float,
        compensate_forces: bool = True,
        check_stability: bool = True,
    ):
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError("dt must be positive")
        omega = compute_coefficients(params).omega
        if check_stability:
            gains.check_stable(omega)
        self.params = params
        self.gains = gains
        self.omega = omega
        self.dt = dt
        self.compensate_forces = compensate_forces
        self.state = StabilizerState()

    def step(self, desired: DesiredSample, actual: ActualSample) -> StabilizerOutput:
        """One full stabilizer cycle: stabilizer_law, then the per-foot split.

        The net wrench comes from stabilizer_law; distribute_wrench splits it
        between the support feet. The state advances in place.
        """
        state = self.state
        params = self.params
        coeff = desired.coefficients
        zc, acc, shifted, dcm_err, gamma_err, saturated, cop_clamped, w = stabilizer_law(
            state,
            self.gains,
            params,
            self.dt,
            self.compensate_forces,
            coeff.kappa,
            coeff.omega,
            _plan_floats(desired),
            contact_rows(desired.contacts),
            _xy(actual.com_pos),
            _xy(actual.com_vel),
            contact_rows(actual.contacts),
            hull_edges(support_hull(desired.support_region)),
        )
        net = Wrench(force=np.array(w[:3]), moment=np.array(w[3:]))
        by_name = dict(zip(desired.support_feet, desired.support_region))
        left_wrench, right_wrench = distribute_wrench(
            net, by_name.get("left"), by_name.get("right"), params.zmp_height
        )
        return StabilizerOutput(
            command_zmp=np.array(zc),
            command_com_accel=np.array(acc),
            shifted_com_des=np.array(shifted),
            net_wrench=net,
            left_wrench=left_wrench,
            right_wrench=right_wrench,
            dcm_err=np.array(dcm_err),
            gamma_err=np.array(gamma_err),
            gamma_low=np.array(state.gamma_low),
            gamma_high=np.array(state.gamma_high),
            gamma_high_rate=np.array(state.gamma_high_rate),
            zmp_saturated=saturated,
            cop_clamped=cop_clamped,
        )
