"""DCM feedback stabilizer with frequency-separated force-error compensation.

Closes the loop around the pattern generator output. Contact-force error
enters as a ZMP-offset error gamma_err; its low-frequency band is absorbed by
shifting the desired CoM (the pendulum leans against the force), the
high-frequency band by shifting the commanded ZMP within the support region.
DCM error is regulated by PID feedback on top. The command ZMP is saturated
into the support hull, and the flag ``cop_clamped`` records when the ground
wrench the feet must realize has its pressure point outside that hull.

Each law has one definition. The step has two halves. The force-measurement
half reads no robot state: Stabilizer.measure_forces runs measure_gamma_error
elementwise and split_frequency as one float recursion over a block of
samples. The feedback half, Stabilizer.step, takes one sample's bands and
runs dcm_feedback, the saturation and the wrench stage on Python floats; the
closed loop of plant_sim calls it once per step. Stabilizer.step ends at the
net ground wrench; distribute_wrench (an active-set split under sole limits)
splits such a wrench between the feet, and the closed loop, which never
reads the per-foot wrenches, does not call it.

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
    RobotParams,
    compute_coefficients,
    contact_terms,
    dcm_of,
    net_foot_wrench,
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

    Every field is an (x, y) pair of floats. split_frequency replaces the
    three band pairs, dcm_feedback the three DCM-error pairs.
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


def measure_gamma_error(actual_rows, desired_rows, zeta: float, zmp_height: float):
    """ZMP-offset error gamma(actual) - gamma(desired) of the hand contacts.

    Both contact sets are given as contact_rows; zeta is the normalizing
    vertical force m g. Returns (gamma_err_x, gamma_err_y). Row values may
    be arrays of many samples, as for contact_terms; the errors then come
    out elementwise.
    """
    actual = contact_terms(actual_rows, zeta, zmp_height)
    desired = contact_terms(desired_rows, zeta, zmp_height)
    return actual[4] - desired[4], actual[5] - desired[5]


def split_frequency(state: StabilizerState, ex, ey, dt, cutoff_period) -> np.ndarray:
    """Run the low/high frequency split of the force-error offset over samples.

    ex and ey are the offsets of successive samples, as 1-D arrays or as
    floats for one sample. The low band is a first-order low-pass with time
    constant cutoff_period / (2 pi); the high band is the exact complement,
    so gamma_low + gamma_high always reconstructs the input. The high-band
    rate is a smoothed backward difference. The recursion runs on Python
    floats, one sample after the other. Returns a (6, samples) array of the
    bands after each sample, rows (low_x, low_y, high_x, high_y, rate_x,
    rate_y), and leaves the three band pairs of state at the last sample's.
    """
    tau = cutoff_period / (2.0 * math.pi)
    alpha = dt / (tau + dt)
    lx, ly = state.gamma_low
    hx, hy = state.gamma_high
    rx, ry = state.gamma_high_rate
    xs = np.atleast_1d(ex).tolist()
    bands = np.empty((6, len(xs)))
    low_x, low_y, high_x, high_y, rate_x, rate_y = map(memoryview, bands)
    for k, x, y in zip(range(len(xs)), xs, np.atleast_1d(ey).tolist()):
        lx = lx + alpha * (x - lx)
        ly = ly + alpha * (y - ly)
        new_hx = x - lx
        new_hy = y - ly
        rx = rx + _BETA * ((new_hx - hx) / dt - rx)
        ry = ry + _BETA * ((new_hy - hy) / dt - ry)
        hx = new_hx
        hy = new_hy
        low_x[k] = lx
        low_y[k] = ly
        high_x[k] = hx
        high_y[k] = hy
        rate_x[k] = rx
        rate_y[k] = ry
    state.gamma_low = (lx, ly)
    state.gamma_high = (hx, hy)
    state.gamma_high_rate = (rx, ry)
    return bands


def dcm_feedback(
    state: StabilizerState, gains, dt, kappa, omega, plan, xi_x, xi_y, bands
):
    """PID DCM regulation plus force-error compensation terms.

    plan is the planned sample as in Stabilizer.step, (xi_x, xi_y) the actual
    DCM and bands the sample's (low_x, low_y, high_x, high_y, rate_x,
    rate_y) from split_frequency. Returns the command ZMP, command CoM
    acceleration, shifted desired CoM and DCM error as one flat tuple of 8
    floats; the integrator and derivative filter advance in place. The
    low-band offset shifts the desired CoM and DCM; the high-band offset and
    its rate enter the ZMP command as feedforward. All ZMP-shift terms are
    scaled by 1/kappa so the closed loop matches the conventional tuning.
    """
    if kappa <= DEGENERATE_KAPPA:
        raise DegenerateScale(f"ZMP scale kappa={kappa:.4f} too small to command")
    cx, cy, ax, ay, dx, dy, zx, zy = plan
    lx, ly, hx, hy, hrx, hry = bands
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
    fx, fy, fz = net.force.tolist()
    mx, my, _ = net.moment.tolist()
    px, py = rect.clamp(wrench_zmp(fx, fy, fz, mx, my, zmp_height)).tolist()
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

    fx, fy, fz = net.force.tolist()
    mx, my, _ = net.moment.tolist()
    cop = np.array(wrench_zmp(fx, fy, fz, mx, my, zmp_height))
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


class Stabilizer:
    """Stateful DCM stabilizer bound to one robot, gain set and control rate.

    omega is the robot's; gains.rho is also the closed loop's plant lag.
    Gains that are not stable at omega (StabilizerGains.check_stable) raise
    ValueError at construction. Calls must be serialized per instance;
    construct separate instances for parallel runs. compensate_forces=False
    disables the force-error compensation (both bands forced to zero) for
    ablation studies.
    """

    def __init__(
        self,
        params: RobotParams,
        gains: StabilizerGains,
        dt: float,
        compensate_forces: bool = True,
    ):
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError("dt must be positive")
        omega = compute_coefficients(params).omega
        gains.check_stable(omega)
        self.params = params
        self.gains = gains
        self.omega = omega
        self.dt = dt
        self.compensate_forces = compensate_forces
        self.state = StabilizerState()

    def measure_forces(self, rows, desired_rows, samples: int):
        """The force-measurement half of the cycle, over successive samples.

        rows and desired_rows are the measured and the planned contacts as
        contact_rows whose values are arrays of `samples` values (or floats
        for one sample, and () for no contact). Measures gamma_err with
        measure_gamma_error and splits it into bands with split_frequency;
        the state's bands advance to the last sample. With compensate_forces
        False both bands stay where they are (zero, in ablation mode);
        gamma_err is still measured for logging. None of this reads the
        robot's state.

        Returns (gamma_err_x, gamma_err_y, bands): two arrays of `samples`
        values and the (6, samples) array of split_frequency, whose columns
        are the bands argument of step.
        """
        params = self.params
        state = self.state
        ex, ey = measure_gamma_error(
            rows, desired_rows, params.mass * params.gravity, params.zmp_height
        )
        ex = np.broadcast_to(ex, samples)
        ey = np.broadcast_to(ey, samples)
        if self.compensate_forces:
            bands = split_frequency(state, ex, ey, self.dt, self.gains.cutoff_period)
        else:
            held = (*state.gamma_low, *state.gamma_high, *state.gamma_high_rate)
            bands = np.repeat(np.array(held)[:, None], samples, axis=1)
        return ex, ey, bands

    def step(self, kappa, omega, plan, com, vel, rows, edges, bands):
        """The feedback half of one stabilizer cycle on floats, up to the net
        ground wrench.

        Chains dcm_feedback, command-ZMP saturation into the support hull and
        the net ground wrench against the measured CoM (net_foot_wrench),
        whose pressure point (wrench_zmp) is clamped into the hull. The
        force-error bands come in from measure_forces.

        kappa and omega are the planned sample's coefficients; plan is its
        (c_x, c_y, a_x, a_y, xi_x, xi_y, z_x, z_y): CoM position and
        acceleration, DCM and ZMP. com and vel are the measured CoM (x, y)
        position and velocity, rows the measured contacts as contact_rows,
        edges the support hull as hull_edges and bands the sample's (low_x,
        low_y, high_x, high_y, rate_x, rate_y). The DCM integrator and
        derivative filter advance in place.

        Returns (command_zmp, command_acc, shifted_com, dcm_err,
        zmp_saturated, cop_clamped, wrench): (x, y) pairs, two flags and the
        net ground wrench (fx, fy, fz, mx, my, mz) with its moment about the
        world origin; distribute_wrench splits that wrench between the feet.
        Raises NonPhysical when the wrench has no vertical force and
        Infeasible when it pulls the feet off the ground.
        """
        params = self.params
        zmp_height = params.zmp_height
        cx, cy = com
        vx, vy = vel
        zcx, zcy, acx, acy, csx, csy, dex, dey = dcm_feedback(
            self.state, self.gains, self.dt, kappa, omega, plan,
            dcm_of(cx, vx, omega), dcm_of(cy, vy, omega), bands,
        )

        qx, qy = _clamp_xy(zcx, zcy, edges)
        zmp_saturated = qx != zcx or qy != zcy
        if zmp_saturated:
            zcx, zcy = qx, qy
            w2k = omega * omega * kappa
            acx = plan[2] - w2k * (zcx - plan[6])
            acy = plan[3] - w2k * (zcy - plan[7])

        fx, fy, fz, mx, my, mz = net_foot_wrench(
            params, cx, cy, params.com_height, acx, acy, 0.0, rows
        )
        # the wrench the feet can realize is capped by the support hull: clamp
        # its pressure point and rebuild the horizontal moment to match
        px, py = wrench_zmp(fx, fy, fz, mx, my, zmp_height)
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
            zmp_saturated,
            cop_clamped,
            (fx, fy, fz, mx, my, mz),
        )
