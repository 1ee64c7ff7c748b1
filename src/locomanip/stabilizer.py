"""DCM feedback stabilizer with frequency-separated force-error compensation.

Closes the loop around the pattern generator output. Contact-force error
enters as a ZMP-offset error gamma_err; its low-frequency band is absorbed by
shifting the desired DCM, so the CoM settles where the pendulum leans against
the force, the high-frequency band by shifting the commanded ZMP within the
support region. DCM error is regulated by PID feedback on top. The command
ZMP is saturated into the support hull, and the flag ``cop_clamped`` records
when the ground wrench the command asks of the feet has its pressure point
outside that hull.

Each law has one definition. The step has three parts. The force-measurement
half reads no robot state: Stabilizer.measure_forces runs measure_gamma_error
elementwise, the measured contacts' gamma against the planned gamma the
timeline holds, and split_frequency as one float recursion over a block of
samples, continuing from the bands it is given. The feedback half,
Stabilizer.step, takes one sample's bands and its DCM memory and runs
dcm_feedback and the command saturation on Python floats, up to the command
ZMP; the closed loop of plant_sim calls it once per step. Of the plan it reads
the DCM and the ZMP; the command acceleration, where a check needs it, is
lipm_accel of the command ZMP. The bands and the memory are the caller's,
which carries them from sample to sample: a Stabilizer holds no run state. The
support hull (support_hull) comes in compiled (compile_hull): its bounding box
stands for its axis-aligned edges in the inside test, so the hull of SoleRects
is four comparisons and the cross products of its oblique edges. The closed
loop compiles each support phase's hull once per run, and no hull outlives the
run. The ground-wrench stage feeds nothing back: Stabilizer.ground_wrench
takes the pressure point (wrench_zmp) of the ground wrench at the planned CoM
once over a block of samples, tests it against each phase's hull on arrays
(_clamped) for the cop_clamped flag, and raises when the feet are unloaded
(check_feet_loaded). distribute_wrench (a least-distance split under sole
limits) splits such a wrench between the feet; the closed loop, which never
reads the per-foot wrenches, does not call it.

All gains are stated in conventional (no-external-force) terms; the control
law divides by the ZMP scale kappa so the closed-loop response matches the
conventional tuning regardless of vertical contact forces.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core_dynamics import (
    DEGENERATE_KAPPA,
    RobotParams,
    check_vertical_force,
    compute_coefficients,
    dcm_of,
    net_foot_wrench,  # unused here: perfbench's tracer wraps this module's name
    wrench_zmp,
)
from .errors import DegenerateScale, Infeasible
from .reference_builder import SoleRect

# Rate estimates use a first-order smoother this many samples wide.
_RATE_SMOOTHING_STEPS = 5.0
_BETA = 1.0 / (_RATE_SMOOTHING_STEPS + 1.0)

_NNLS_CAP = 100

_DBL_MAX = sys.float_info.max
# (xmin, xmax, ymin, ymax) of no bound: also the direction beyond each side
_UNBOUNDED = (-math.inf, math.inf, -math.inf, math.inf)


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

    @functools.cached_property
    def pid(self) -> tuple:
        """(k_p, k_i, k_d, rho, integrator_limit), as dcm_feedback takes them."""
        return self.k_p, self.k_i, self.k_d, self.rho, self.integrator_limit

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


def measure_gamma_error(gamma_x, gamma_y, desired_gamma):
    """ZMP-offset error gamma(actual) - gamma(desired) of the hand contacts.

    gamma_x and gamma_y are the actual contacts' gamma, as contact_terms
    gives it; desired_gamma is the planned gamma, a (..., 2) array such as
    the timeline's, for one sample or many. Returns (gamma_err_x,
    gamma_err_y). The actual gamma may be arrays of many samples; the
    errors then come out elementwise.
    """
    return gamma_x - desired_gamma[..., 0], gamma_y - desired_gamma[..., 1]


def split_frequency(start, ex, ey, dt, cutoff_period) -> list:
    """Run the low/high frequency split of the force-error offset over samples.

    start is the bands to continue from, (low_x, low_y, high_x, high_y,
    rate_x, rate_y): the previous sample's, or zeros for the first. ex and
    ey are the offsets of successive samples, as 1-D arrays. The low band
    is a first-order low-pass with time constant cutoff_period / (2 pi);
    the high band is the exact complement, so gamma_low + gamma_high always
    reconstructs the input. The high-band rate is a smoothed backward
    difference. The recursion runs on Python floats, one sample after the
    other. Returns the bands after each sample, one tuple like start per
    sample.
    """
    tau = cutoff_period / (2.0 * math.pi)
    alpha = dt / (tau + dt)
    lx, ly, hx, hy, rx, ry = start
    bands = []
    append = bands.append
    for x, y in zip(ex.tolist(), ey.tolist()):
        lx = lx + alpha * (x - lx)
        ly = ly + alpha * (y - ly)
        new_hx = x - lx
        new_hy = y - ly
        rx = rx + _BETA * ((new_hx - hx) / dt - rx)
        ry = ry + _BETA * ((new_hy - hy) / dt - ry)
        hx = new_hx
        hy = new_hy
        append((lx, ly, hx, hy, rx, ry))
    return bands


def dcm_feedback(pid, dt, kappa, plan, xi_x, xi_y, bands, memory):
    """PID DCM regulation plus force-error compensation, up to the command ZMP.

    pid is StabilizerGains.pid, plan the planned sample's (xi_x, xi_y, z_x,
    z_y), its DCM and ZMP, (xi_x, xi_y) the actual DCM, bands the sample's
    (low_x, low_y, high_x, high_y, rate_x, rate_y) from split_frequency and
    memory the DCM-error memory (integral_x, integral_y, prev_x, prev_y,
    rate_x, rate_y), zeros for the first sample. Returns two tuples: the
    command ZMP (z_x, z_y) and the new memory, whose prev pair is this
    sample's DCM error. The low-band offset shifts the desired DCM; the
    high-band offset and its rate enter the ZMP command as feedforward. All
    ZMP-shift terms are scaled by 1/kappa so the closed loop matches the
    conventional tuning.
    """
    if kappa <= DEGENERATE_KAPPA:
        raise DegenerateScale(f"ZMP scale kappa={kappa:.4f} too small to command")
    dx, dy, zx, zy = plan
    lx, ly, hx, hy, hrx, hry = bands
    ix, iy, px, py, rx, ry = memory
    k_p, k_i, k_d, rho, lim = pid
    ex = xi_x - (dx - lx)
    ey = xi_y - (dy - ly)
    # min(max(i, -lim), lim) written out with the same comparisons, so
    # np.clip's result bit for bit, signed zeros and NaN too
    low = -lim
    ix = ix + ex * dt
    ix = low if low > ix else ix
    ix = lim if lim < ix else ix
    iy = iy + ey * dt
    iy = low if low > iy else iy
    iy = lim if lim < iy else iy
    rx = rx + _BETA * ((ex - px) / dt - rx)
    ry = ry + _BETA * ((ey - py) / dt - ry)

    corr_x = k_p * ex + k_i * ix + k_d * rx + hx + hrx / rho
    corr_y = k_p * ey + k_i * iy + k_d * ry + hy + hry / rho
    return (zx + corr_x / kappa, zy + corr_y / kappa), (ix, iy, ex, ey, rx, ry)


def check_feet_loaded(fz):
    """Raise unless fz, the net vertical force the feet must realize (a
    float, or an array of samples), presses on the ground at every sample:
    NonPhysical where it is 0 or NaN (check_vertical_force), else Infeasible
    where it is negative. fz reads neither the CoM nor its horizontal
    acceleration (net_foot_force), so the contacts alone decide."""
    check_vertical_force(fz)
    if not np.all(fz > 0.0):
        raise Infeasible("net wrench must press downward on the ground")


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Counter-clockwise convex hull by monotone chain; returns (m, 2)."""
    # sorted distinct corners, as np.unique(axis=0) gives them: of equal
    # corners (0.0 == -0.0) the set keeps the first seen. np.unique's axis
    # form would import numpy.ma on the first run of a process.
    pts = sorted(set(map(tuple, points.tolist())))
    if len(pts) <= 2:
        return np.array(pts)

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
    """Edges of a CCW hull as float tuples (ax, ay, ex, ey, |e|^2), the
    edges of its CompiledHull.

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


class CompiledHull(NamedTuple):
    """A convex support hull as _clamp_xy and _clamped read it.

    A point is outside the hull when an edge (ax, ay, ex, ey) has it on its
    right: ex (py - ay) - ey (px - ax) < 0. For an axis-aligned edge that
    test is a bound on one coordinate, so box holds those bounds (xmin,
    xmax, ymin, ymax), +-inf on a side with no such edge, and oblique the
    other edges, whose cross products are still taken. A hull of one or two
    vertices has no inside point: its box is None and oblique empty. edges
    (hull_edges) are every edge, for _clamp_xy's projection. reach is the
    hull's bounding box (xmin, xmax, ymin, ymax) grown by 8 ULPs of its
    largest coordinate M, which every point the projection computes lies in:
    such a point a + t e, t in [0, 1], lies between a and fl(a + fl(b -
    a)), which is within 3 ULPs of M of the next vertex b.
    """

    box: tuple | None
    oblique: tuple
    edges: tuple
    reach: tuple


def _outside(edge, px, py) -> bool:
    ax, ay, ex, ey, _ = edge
    return ex * (py - ay) - ey * (px - ax) < 0.0


def compile_hull(hull: np.ndarray) -> CompiledHull:
    """The CompiledHull of a CCW hull (support_hull).

    An axis-aligned edge enters the box only when its own test is exactly
    the bound for every point whose other coordinate is finite. Where that
    coordinate is inf or NaN the edge's test is NaN (0 * inf) and rejects
    nothing, so _clamp_xy counts a bound only where it is finite. The test
    is monotone in the distance from the line, so it is the bound when it
    rejects the point one ULP beyond the line at the other coordinate
    +-DBL_MAX. An edge whose product underflows to zero there (a line at
    0.0: 0.22 * -5e-324 is -0.0) or whose difference overflows stays
    oblique. A hull of SoleRects has an axis-aligned edge on every side of
    its bounding box, so its inside test is four comparisons and the cross
    products of its oblique edges, if any.
    """
    edges = hull_edges(hull)
    lo = hull.min(axis=0).tolist()
    hi = hull.max(axis=0).tolist()
    r = 8.0 * math.ulp(max(map(abs, lo + hi)))
    reach = (lo[0] - r, hi[0] + r, lo[1] - r, hi[1] + r)
    if len(edges) <= 2:
        return CompiledHull(None, (), edges, reach)
    box = list(_UNBOUNDED)
    oblique = []
    for edge in edges:
        ax, ay, ex, ey, _ = edge
        if ey == 0.0:  # bottom (ex > 0, ymin) or top (ymax)
            side = 2 if ex > 0.0 else 3
            line = ay
            beyond = math.nextafter(line, _UNBOUNDED[side])
            points = ((-_DBL_MAX, beyond), (_DBL_MAX, beyond))
        elif ex == 0.0:  # right (ey > 0, xmax) or left (xmin)
            side = 1 if ey > 0.0 else 0
            line = ax
            beyond = math.nextafter(line, _UNBOUNDED[side])
            points = ((beyond, -_DBL_MAX), (beyond, _DBL_MAX))
        else:
            oblique.append(edge)
            continue
        if all(_outside(edge, x, y) for x, y in points):
            box[side] = line
        else:
            oblique.append(edge)
    return CompiledHull(tuple(box), tuple(oblique), edges, reach)


def _clamp_xy(px, py, hull: CompiledHull):
    """Nearest point (x, y) of a convex polygon, given by its CompiledHull,
    to (px, py).

    A point inside the polygon comes back unchanged; a 2-vertex hull is one
    segment. The inside test is the box's bounds, each counted only where
    the other coordinate is finite, then the oblique edges' cross products:
    the same answer as every edge's cross product, for every float and NaN
    (a NaN point is inside). Float arithmetic rounds every product the same
    way on every CPU (numpy's 2-vector dot goes through BLAS, which may
    fuse multiply-adds).
    """
    box, oblique, edges, _ = hull
    if box is not None:
        xmin, xmax, ymin, ymax = box
        # x - x is 0.0 for a finite x and NaN otherwise
        if not (
            (px < xmin or px > xmax) and py - py == 0.0
            or (py < ymin or py > ymax) and px - px == 0.0
        ):
            for ax, ay, ex, ey, _ in oblique:
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


def _clamped(px, py, hull: CompiledHull):
    """Whether _clamp_xy moves each point of the arrays (px, py), on arrays.

    The inside test is _clamp_xy's, elementwise. A point it finds outside
    is moved if it lies beyond the hull's reach, where no projected point
    can equal it; the few others go through _clamp_xy one at a time. So
    each flag is the float call's bit for bit. An inside point comes back
    unchanged: not moved, unless it is NaN (NaN != NaN).
    """
    box, oblique, _, reach = hull
    with np.errstate(all="ignore"):
        if box is None:
            out = np.ones(len(px), dtype=bool)
        else:
            xmin, xmax, ymin, ymax = box
            # np.isfinite(y) is _clamp_xy's y - y == 0.0
            out = ((px < xmin) | (px > xmax)) & np.isfinite(py)
            out |= ((py < ymin) | (py > ymax)) & np.isfinite(px)
            for ax, ay, ex, ey, _ in oblique:
                out |= ex * (py - ay) - ey * (px - ax) < 0.0
        flags = (px != px) | (py != py)
        xmin, xmax, ymin, ymax = reach
        far = out & ((px < xmin) | (px > xmax) | (py < ymin) | (py > ymax))
        flags |= far
        near = np.flatnonzero(out & ~far)
    for i, x, y in zip(near.tolist(), px[near].tolist(), py[near].tolist()):
        # coordinate by coordinate: a tuple comparison would find a NaN
        # point equal to itself
        qx, qy = _clamp_xy(x, y, hull)
        flags[i] = qx != x or qy != y
    return flags


def _clamp_to_hull(point: np.ndarray, hull: np.ndarray) -> np.ndarray:
    """Nearest point of a convex polygon (CCW vertices) to the given point."""
    x, y = np.asarray(point, dtype=float).tolist()
    return np.array(_clamp_xy(x, y, compile_hull(hull)))


def support_hull(region) -> np.ndarray:
    """Convex hull of the support sole rectangles' corners."""
    return _convex_hull(np.vstack([r.corners() for r in region]))


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
    check_feet_loaded(net.force[2])

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
    sol = _sole_limited_split(w0, centers, halves)
    return (
        Wrench(force=sol[0:3], moment=sol[6:9]),
        Wrench(force=sol[3:6], moment=sol[9:12]),
    )


def _cross_matrix(p):
    return np.array([[0.0, -p[2], p[1]], [p[2], 0.0, -p[0]], [-p[1], p[0], 0.0]])


def _sole_limited_split(w0, centers, halves):
    """min ||w - w0||^2 over recombination equalities and sole inequalities.

    Unknowns w = (f_left, f_right, m_left, m_right), moments about the foot
    centers. w0 already satisfies the equalities E w = (net force, net
    moment), so w = w0 + N z with N an orthonormal basis of E's null space,
    and the split is the least-distance program: the shortest z with
    G N z <= -G w0, G w <= 0 being the sole limits. The equalities then hold
    to rounding whatever the inequalities' solve does. Feasibility is
    guaranteed by the caller's hull pre-check.
    """
    E = np.zeros((6, 12))
    E[0:3, 0:3] = np.eye(3)
    E[0:3, 3:6] = np.eye(3)
    E[3:6, 0:3] = _cross_matrix(centers[0])
    E[3:6, 3:6] = _cross_matrix(centers[1])
    E[3:6, 6:9] = np.eye(3)
    E[3:6, 9:12] = np.eye(3)
    null = np.linalg.svd(E)[2][6:].T

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
    return w0 + null @ _least_distance(G @ null, -(G @ w0))


def _least_distance(a, b):
    """The shortest z with a z <= b, by Lawson and Hanson's reduction to
    non-negative least squares (Solving Least Squares Problems, 1974,
    ch. 23): with u >= 0 minimizing ||[-a, -b]^T u - e_n+1||, the residual
    r gives z = -r[:n] / r[n]; r[n] < 0 unless the constraints are
    inconsistent. b is scaled to unit size for the solve."""
    scale = float(np.abs(b).max())
    if not np.any(b < 0.0):
        return np.zeros(a.shape[1])
    lhs = np.vstack([-a.T, -b / scale])
    target = np.zeros(len(lhs))
    target[-1] = 1.0
    r = lhs @ _nnls(lhs, target) - target
    if not r[-1] < 0.0:
        raise Infeasible("sole limits admit no split of the net wrench")
    return scale * (-r[:-1] / r[-1])


def _nnls(a, b):
    """x >= 0 minimizing ||a x - b||, by Lawson and Hanson's active-set
    method (ch. 23): grow the passive set by the largest positive gradient
    entry, solve on it, and step back to the boundary where a passive
    entry would turn non-positive."""
    n = a.shape[1]
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    tol = 10.0 * np.finfo(float).eps * max(a.shape) * float(np.abs(a).sum(axis=0).max())
    for _ in range(_NNLS_CAP):
        grad = a.T @ (b - a @ x)
        grad[passive] = -np.inf
        j = int(np.argmax(grad))
        if not grad[j] > tol:
            return x
        passive[j] = True
        for _ in range(_NNLS_CAP):
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if np.all(z[passive] > 0.0):
                break
            down = passive & (z <= 0.0)
            alpha = np.min(x[down] / (x[down] - z[down]))
            x = x + alpha * (z - x)
            passive &= x > tol
        else:
            break
        x = z
    raise Infeasible("wrench distribution did not settle")


class Stabilizer:
    """DCM stabilizer bound to one robot, gain set and control rate.

    omega is the robot's; gains.rho is also the closed loop's plant lag.
    Gains that are not stable at omega (StabilizerGains.check_stable) raise
    ValueError at construction. A Stabilizer holds no run state: the
    force-error bands and the DCM-error memory come in with each call and
    go out with its result, so one instance may drive any number of runs,
    one after the other or interleaved. compensate_forces=False disables the
    force-error compensation (both bands held at zero) for ablation studies.
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

    def measure_forces(self, gamma_x, gamma_y, desired_gamma, samples: int, start):
        """The force-measurement half of the cycle, over successive samples.

        gamma_x and gamma_y are the measured contacts' gamma (contact_terms),
        arrays of `samples` values (or floats for one sample or no contact),
        desired_gamma the planned gamma of those samples, an (samples, 2)
        array (or (2,) for one sample), and start the bands to continue
        from: the previous sample's, or zeros for the first. Measures
        gamma_err with measure_gamma_error and splits it into bands with
        split_frequency. With compensate_forces False the bands stay at
        start (zeros, in ablation mode); gamma_err is still measured for
        logging. None of this reads the robot's state.

        Returns (gamma_err_x, gamma_err_y, bands): two arrays of `samples`
        values and the list of split_frequency, whose tuples are the bands
        argument of step.
        """
        ex, ey = measure_gamma_error(gamma_x, gamma_y, desired_gamma)
        ex = np.broadcast_to(ex, samples)
        ey = np.broadcast_to(ey, samples)
        if self.compensate_forces:
            bands = split_frequency(start, ex, ey, self.dt, self.gains.cutoff_period)
        else:
            bands = [start] * samples
        return ex, ey, bands

    def step(
        self, kappa, omega, plan, com_x, com_y, vel_x, vel_y, hull, bands, memory
    ):
        """The feedback half of one stabilizer cycle on floats, up to the
        command ZMP.

        Chains dcm_feedback and the command-ZMP saturation into the support
        hull. The force-error bands come in from measure_forces, the
        DCM-error memory from the previous step (zeros for the first).

        kappa and omega are the planned sample's coefficients; plan is its
        (xi_x, xi_y, z_x, z_y): DCM and ZMP. (com_x, com_y) and (vel_x,
        vel_y) are the measured CoM position and velocity, whose DCM
        (dcm_of at omega) the feedback regulates, hull the support hull as
        its CompiledHull and bands the sample's (low_x, low_y, high_x,
        high_y, rate_x, rate_y).

        Returns (zmp_x, zmp_y, zmp_saturated, memory): the command ZMP,
        whether the saturation moved the command, and the new memory.
        """
        (zcx, zcy), memory = dcm_feedback(
            self.gains.pid, self.dt, kappa, plan,
            dcm_of(com_x, vel_x, omega), dcm_of(com_y, vel_y, omega), bands, memory,
        )
        qx, qy = _clamp_xy(zcx, zcy, hull)
        if qx != zcx or qy != zcy:
            return qx, qy, True, memory
        return zcx, zcy, False, memory

    def ground_wrench(self, zmp_x, zmp_y, kappa, err_x, err_y, fz, hulls, phase):
        """The ground-wrench stage: whether the pressure point of the ground
        wrench the command asks for lies outside the support hull.

        At the planned CoM c the command acceleration omega^2 (c - kappa z +
        gamma) of the command ZMP z cancels c: against the measured contacts
        the wrench has their vertical force fz and the moment zeta (kappa z +
        gamma_err) x e_z about the ground origin, zeta = m g, so its pressure
        point is z where the contacts are as planned. The inputs are arrays
        of samples, z (zmp_x, zmp_y), kappa, gamma_err (err_x, err_y) and fz
        (net_foot_force), with hulls a table of CompiledHulls and phase each
        sample's index into it. Returns cop_clamped, a bool array: whether
        _clamp_xy moves each sample's pressure point (_clamped, per run of
        equal phase). Raises as check_feet_loaded where feet are unloaded.
        """
        params = self.params
        zeta = params.mass * params.gravity
        with np.errstate(all="ignore"):
            check_feet_loaded(fz)
            px, py = wrench_zmp(
                0.0, 0.0, fz, zeta * (kappa * zmp_y + err_y),
                -(zeta * (kappa * zmp_x + err_x)), params.zmp_height,
            )
        flags = np.empty(len(px), dtype=bool)
        cuts = (np.flatnonzero(np.diff(phase)) + 1).tolist()
        for s, e in zip([0, *cuts], [*cuts, len(px)]):
            flags[s:e] = _clamped(px[s:e], py[s:e], hulls[int(phase[s])])
        return flags
