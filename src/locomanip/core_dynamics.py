"""Point-mass pendulum dynamics of a biped exchanging forces with its environment.

All quantities are SI, expressed in a fixed world frame with z up. CoM height
and ground height are constant within a scenario, so the pendulum frequency is
a scenario constant and the two horizontal axes decouple.

External hand contacts enter the horizontal dynamics through two aggregate
coefficients: a dimensionless scale ``kappa`` on the ZMP (vertical force
component) and a 2D offset ``gamma`` (horizontal forces and moments). With no
contacts, kappa = 1 and gamma = 0 and the classic pendulum model is recovered.

Every law is written once and takes Python floats: the pendulum laws
(ext_zmp, lipm_accel, dcm_of, dcm_rate) one axis at a time, the contact and
wrench laws (contact_terms, net_foot_wrench, wrench_zmp) with a contact set
given as contact_rows. The pendulum laws and contact_terms also take numpy
arrays and then apply elementwise, with the same operations in the same
order, so an array call gives the per-sample float calls bit for bit. The
plant, the stabilizer, the closed loop, the reference build, the rollout
and the tests all call these functions by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPhysical

# Scale factors at or below this raise DegenerateScale in planning and
# feedback: the vertical contact forces come close to carrying the robot's
# full weight and the 1/kappa gain scaling of the stabilizer degenerates.
DEGENERATE_KAPPA = 0.05


def _finite_vec(value, size: int, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float).reshape(-1)
    if arr.size != size:
        raise ValueError(f"{name}: expected {size} components, got {arr.size}")
    # same test as np.isfinite(arr).all(), at a fraction of its call cost on
    # the 2- and 3-vectors built every control step
    if not all(map(math.isfinite, arr.tolist())):
        raise ValueError(f"{name}: components must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class RobotParams:
    """Mass, gravity and the constant CoM / ground heights."""

    mass: float
    gravity: float = 9.81
    com_height: float = 0.8
    zmp_height: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0.0):
            raise NonPhysical("mass must be positive and finite")
        if not (math.isfinite(self.gravity) and self.gravity > 0.0):
            raise NonPhysical("gravity must be positive and finite")
        if not (math.isfinite(self.com_height) and math.isfinite(self.zmp_height)):
            raise NonPhysical("heights must be finite")
        if not self.com_height > self.zmp_height:
            raise NonPhysical("com_height must exceed zmp_height")


@dataclass(frozen=True, eq=False)
class ExternalContact:
    """Force, moment and application point of one manipulation contact (world frame)."""

    force: np.ndarray
    moment: np.ndarray
    position: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "force", _finite_vec(self.force, 3, "force"))
        object.__setattr__(self, "moment", _finite_vec(self.moment, 3, "moment"))
        object.__setattr__(self, "position", _finite_vec(self.position, 3, "position"))


@dataclass(frozen=True, eq=False)
class LipmCoefficients:
    """Pendulum frequency plus the contact-induced ZMP scale and offset.

    Attributes
    ----------
    omega : pendulum frequency sqrt(g / pendulum height), 1/s
    kappa : dimensionless ZMP scale, 1 with no vertical contact force
    gamma : 2D ZMP offset induced by contact forces and moments, m
    zeta : normalizing vertical force m g, N
    """

    omega: float
    kappa: float
    gamma: np.ndarray
    zeta: float

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise NonPhysical("omega must be positive and finite")
        if not (math.isfinite(self.zeta) and self.zeta > 0.0):
            raise NonPhysical("zeta must be positive and finite")
        if not math.isfinite(self.kappa):
            raise NonPhysical("kappa must be finite")
        object.__setattr__(self, "gamma", _finite_vec(self.gamma, 2, "gamma"))


def contact_rows(contacts) -> tuple:
    """Each contact as one flat float tuple (fx, fy, fz, mx, my, mz, px, py, pz)."""
    return tuple(
        tuple(c.force.tolist() + c.moment.tolist() + c.position.tolist())
        for c in contacts
    )


def contact_terms(rows, zeta: float, zmp_height: float) -> tuple:
    """Summed force, ZMP scale and ZMP offset of contacts given as contact_rows.

    Returns (fx, fy, fz, kappa, gamma_x, gamma_y): the force components
    summed over the contacts, kappa = 1 - fz / zeta, and the offset gamma.
    Horizontal contact forces act on gamma through their lever arm above the
    ground, vertical forces through their horizontal offset, and contact
    moments directly; the sum is normalized by zeta. The nine values of a
    row may also be arrays of one shape: the terms of many contact sets then
    come out elementwise, with the same operations in the same order.
    """
    fx = fy = fz = gx = gy = 0.0
    for cfx, cfy, cfz, mx, my, _, px, py, pz in rows:
        fx += cfx
        fy += cfy
        fz += cfz
        arm = pz - zmp_height
        gx += arm * cfx - px * cfz + my
        gy += arm * cfy - py * cfz - mx
    return fx, fy, fz, 1.0 - fz / zeta, gx / zeta, gy / zeta


def compute_coefficients(params: RobotParams, contacts=()) -> LipmCoefficients:
    """Pendulum coefficients for a robot subject to the given external contacts.

    The CoM height is constant (no vertical CoM acceleration), so only
    gravity enters omega and zeta.
    """
    g = params.gravity
    omega = math.sqrt(g / (params.com_height - params.zmp_height))
    zeta = params.mass * g
    *_, kappa, gx, gy = contact_terms(contact_rows(contacts), zeta, params.zmp_height)
    return LipmCoefficients(omega=omega, kappa=kappa, gamma=(gx, gy), zeta=zeta)


def ext_zmp(kappa, z, gamma):
    """Scaled-and-offset ZMP kappa z - gamma that drives the pendulum."""
    return kappa * z - gamma


def lipm_accel(omega, kappa, c, z, gamma):
    """Horizontal CoM acceleration omega^2 (c - kappa z + gamma)."""
    # omega**2 and omega * omega differ in the last bit for some omega (the
    # 0.868 m digest pins which one the plant uses)
    return omega**2 * (c - kappa * z + gamma)


def dcm_of(c, v, omega):
    """Divergent component of motion xi = c + v / omega."""
    return c + v / omega


def dcm_rate(omega, kappa, xi, z, gamma):
    """DCM velocity omega (xi - kappa z + gamma)."""
    return omega * (xi - kappa * z + gamma)


def net_foot_wrench(params: RobotParams, cx, cy, cz, ax, ay, az, rows) -> tuple:
    """Ground reaction wrench the feet must realize, moment about the world origin.

    The gravito-inertial wrench of the point mass at CoM (cx, cy, cz) with
    acceleration (ax, ay, az), minus every external contact wrench (rows as
    contact_rows). Assumes zero rate of angular momentum about the CoM, so
    the gravito-inertial part acts along the line through the CoM. Returns
    (fx, fy, fz, mx, my, mz), in N and N m.
    """
    # the order of operations is that of the cross products in array form
    # (adding 0.0 keeps the sign of zero identical)
    m = params.mass
    fx = m * (ax + 0.0)
    fy = m * (ay + 0.0)
    fz = m * (az + params.gravity)
    for gx, gy, gz, _, _, _, _, _, _ in rows:
        fx = fx - gx
        fy = fy - gy
        fz = fz - gz
    mx = cy * fz - cz * fy
    my = cz * fx - cx * fz
    mz = cx * fy - cy * fx
    for gx, gy, gz, tx, ty, tz, px, py, pz in rows:
        rx = px - cx
        ry = py - cy
        rz = pz - cz
        mx = mx - (ry * gz - rz * gy) - tx
        my = my - (rz * gx - rx * gz) - ty
        mz = mz - (rx * gy - ry * gx) - tz
    return fx, fy, fz, mx, my, mz


def wrench_zmp(fx, fy, fz, mx, my, zmp_height: float = 0.0) -> tuple:
    """(x, y) on the ground plane where the wrench's horizontal moment vanishes.

    Raises NonPhysical when the wrench has no vertical force.
    """
    if not abs(fz) > 0.0:
        raise NonPhysical("wrench has no vertical force; ZMP undefined")
    return (-my + zmp_height * fx) / fz, (mx + zmp_height * fy) / fz
