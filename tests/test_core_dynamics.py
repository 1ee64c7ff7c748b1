"""Pendulum coefficient and wrench identities against hand-computed values."""

import math

import numpy as np
import pytest

from locomanip.core_dynamics import (
    ExternalContact,
    RobotParams,
    compute_coefficients,
    contact_rows,
    dcm_of,
    dcm_rate,
    ext_zmp,
    lipm_accel,
    net_foot_wrench,
    wrench_zmp,
)
from locomanip.errors import NonPhysical

PARAMS = RobotParams(mass=100.0, gravity=9.81, com_height=0.8, zmp_height=0.0)


def contact(force, position, moment=(0.0, 0.0, 0.0)):
    return ExternalContact(force=force, moment=moment, position=position)


def test_no_contact_reduces_to_classic_pendulum():
    coeff = compute_coefficients(PARAMS)
    # omega = sqrt(9.81 / 0.8), zeta = m g, hand-computed
    assert math.isclose(coeff.omega, 3.5017852589786256, rel_tol=0, abs_tol=1e-15)
    assert coeff.kappa == 1.0
    assert coeff.gamma[0] == 0.0 and coeff.gamma[1] == 0.0
    assert coeff.zeta == 981.0
    for z, g in ((0.03, coeff.gamma[0]), (-0.11, coeff.gamma[1])):
        assert ext_zmp(coeff.kappa, z, g) == z


def test_vertical_contact_force_scales_zmp():
    # two hands each pushing 100 N upward on the robot
    cons = [
        contact((0.0, 0.0, 100.0), (0.0, 0.25, 1.0)),
        contact((0.0, 0.0, 100.0), (0.0, -0.25, 1.0)),
    ]
    coeff = compute_coefficients(PARAMS, cons)
    assert math.isclose(coeff.kappa, 0.7961264016309888, rel_tol=0, abs_tol=1e-15)
    # symmetric placement at x=0 leaves no offset
    np.testing.assert_allclose(coeff.gamma, [0.0, 0.0], atol=1e-18)


def test_horizontal_contact_force_offsets_zmp():
    # pulling backward with 50 N at 1 m height shifts gamma_x by -50/981
    cons = [contact((-50.0, 0.0, 0.0), (0.4, 0.0, 1.0))]
    coeff = compute_coefficients(PARAMS, cons)
    assert coeff.kappa == 1.0
    assert math.isclose(coeff.gamma[0], -0.0509683995922528, rel_tol=0, abs_tol=1e-16)
    assert coeff.gamma[1] == 0.0


def test_mixed_contact_offsets_both_axes():
    cons = [contact((-60.0, 10.0, 0.0), (0.4, -0.25, 1.0))]
    coeff = compute_coefficients(PARAMS, cons)
    assert math.isclose(coeff.gamma[0], -0.06116207951070336, rel_tol=0, abs_tol=1e-16)
    assert math.isclose(coeff.gamma[1], 0.010193679918450561, rel_tol=0, abs_tol=1e-16)


def test_vertical_force_with_moment():
    # vertical force through an offset point plus a pure moment
    cons = [contact((0.0, 0.0, 100.0), (0.5, -0.2, 1.0), moment=(1.5, -2.0, 0.7))]
    coeff = compute_coefficients(PARAMS, cons)
    assert math.isclose(coeff.kappa, 0.8980632008154944, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(coeff.gamma[0], -0.053007135575942915, rel_tol=0, abs_tol=1e-16)
    assert math.isclose(coeff.gamma[1], 0.018858307849133536, rel_tol=0, abs_tol=1e-16)


def test_ext_zmp_scale_and_offset():
    assert math.isclose(ext_zmp(0.9, 0.1, 0.02), 0.07, rel_tol=0, abs_tol=1e-17)
    assert math.isclose(ext_zmp(0.9, -0.05, -0.01), -0.035, rel_tol=0, abs_tol=1e-17)


def test_accel_vanishes_at_shifted_equilibrium():
    cons = [contact((-50.0, 20.0, 30.0), (0.4, 0.1, 1.0))]
    coeff = compute_coefficients(PARAMS, cons)
    # equilibrium sits at kappa z - gamma, not at z
    for z, g in zip((0.02, -0.03), coeff.gamma.tolist()):
        c = ext_zmp(coeff.kappa, z, g)
        assert abs(lipm_accel(coeff.omega, coeff.kappa, c, z, g)) <= 1e-15


def test_dcm_rate_matches_accel_dynamics():
    rng = np.random.default_rng(7)
    for _ in range(20):
        cons = [
            contact(rng.normal(size=3) * 40.0, rng.normal(size=3), rng.normal(size=3))
        ]
        coeff = compute_coefficients(PARAMS, cons)
        w, kappa, gamma = coeff.omega, coeff.kappa, coeff.gamma
        pos = rng.normal(size=2) * 0.1
        vel = rng.normal(size=2) * 0.3
        z = rng.normal(size=2) * 0.05
        acc = lipm_accel(w, kappa, pos, z, gamma)
        # d(xi)/dt = cdot + cddot/omega must equal omega (xi - kappa z + gamma)
        lhs = dcm_of(vel, acc, w)
        rhs = dcm_rate(w, kappa, dcm_of(pos, vel, w), z, gamma)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-15)


def test_net_wrench_without_contacts_recovers_lipm_zmp():
    rng = np.random.default_rng(11)
    coeff = compute_coefficients(PARAMS)
    for _ in range(20):
        pos = rng.normal(size=2) * 0.1
        rng.normal(size=2)  # a velocity, which the wrench does not read
        z = rng.normal(size=2) * 0.05
        acc = lipm_accel(coeff.omega, coeff.kappa, pos, z, coeff.gamma)
        w = net_foot_wrench(
            PARAMS, *pos.tolist(), PARAMS.com_height, *acc.tolist(), 0.0, ()
        )
        np.testing.assert_allclose(
            wrench_zmp(*w[:5], PARAMS.zmp_height), z, rtol=0, atol=1e-15
        )


def test_net_wrench_cop_is_the_driving_zmp():
    # the foot wrench acts at the real ZMP z itself, contacts or not: folding
    # the external wrenches back out of the gravito-inertial wrench undoes the
    # kappa/gamma reshaping of the dynamics
    rng = np.random.default_rng(13)
    for _ in range(30):
        cons = [
            contact(rng.normal(size=3) * 50.0, rng.normal(size=3), rng.normal(size=3)),
            contact(rng.normal(size=3) * 50.0, rng.normal(size=3), rng.normal(size=3)),
        ]
        coeff = compute_coefficients(PARAMS, cons)
        pos = rng.normal(size=2) * 0.1
        z = rng.normal(size=2) * 0.05
        acc = lipm_accel(coeff.omega, coeff.kappa, pos, z, coeff.gamma)
        w = net_foot_wrench(
            PARAMS,
            *pos.tolist(),
            PARAMS.com_height,
            *acc.tolist(),
            0.0,
            contact_rows(cons),
        )
        np.testing.assert_allclose(
            wrench_zmp(*w[:5], PARAMS.zmp_height), z, rtol=0, atol=1e-12
        )


def test_net_wrench_moment_round_trip():
    # foot wrench plus all contact wrenches reproduce the gravito-inertial wrench
    rng = np.random.default_rng(17)
    for _ in range(30):
        cons = [
            contact(rng.normal(size=3) * 80.0, rng.normal(size=3), rng.normal(size=3))
            for _ in range(3)
        ]
        c3 = rng.normal(size=3)
        a3 = rng.normal(size=3)
        w = net_foot_wrench(PARAMS, *c3.tolist(), *a3.tolist(), contact_rows(cons))
        total_f = np.array(w[:3])
        total_m = np.array(w[3:])
        for con in cons:
            total_f += con.force
            total_m += np.cross(con.position, con.force) + con.moment
        gi = PARAMS.mass * (a3 + np.array([0.0, 0.0, PARAMS.gravity]))
        np.testing.assert_allclose(total_f, gi, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(total_m, np.cross(c3, gi), rtol=1e-12, atol=1e-10)


def test_net_wrench_matches_array_form_bit_for_bit():
    """The scalar implementation repeats the np.cross arithmetic exactly."""

    def reference(c3, a3, cons):
        force = PARAMS.mass * (a3 + np.array([0.0, 0.0, PARAMS.gravity]))
        for con in cons:
            force = force - con.force
        moment = np.cross(c3, force)
        for con in cons:
            moment = moment - np.cross(con.position - c3, con.force) - con.moment
        return force, moment

    rng = np.random.default_rng(23)
    cases = [(np.array([0.0, -0.0, 0.8]), np.array([-0.0, -0.0, 0.0]), [])]
    for n in (0, 1, 2, 3):
        for _ in range(50):
            cons = [
                contact(rng.normal(size=3) * 80.0, rng.normal(size=3), rng.normal(size=3))
                for _ in range(n)
            ]
            cases.append((rng.normal(size=3), rng.normal(size=3), cons))
    for c3, a3, cons in cases:
        w = net_foot_wrench(PARAMS, *c3.tolist(), *a3.tolist(), contact_rows(cons))
        got = np.array(w[:3]), np.array(w[3:])
        want = reference(c3, a3, cons)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def test_wrench_zmp_honors_ground_height():
    force = np.array([10.0, -4.0, 200.0])
    moment = np.array([3.0, 2.0, 0.0])
    z0 = np.array(wrench_zmp(*force.tolist(), *moment[:2].tolist(), 0.0))
    z1 = np.array(wrench_zmp(*force.tolist(), *moment[:2].tolist(), 0.2))
    np.testing.assert_allclose(z1 - z0, 0.2 * force[:2] / force[2], rtol=1e-14)


def test_wrench_zmp_requires_vertical_force():
    with pytest.raises(NonPhysical):
        wrench_zmp(10.0, 0.0, 0.0, 0.0, 0.0)


def test_rejects_nonphysical_params():
    with pytest.raises(NonPhysical):
        RobotParams(mass=-1.0)
    with pytest.raises(NonPhysical):
        RobotParams(mass=100.0, gravity=0.0)
    with pytest.raises(NonPhysical):
        RobotParams(mass=100.0, com_height=0.1, zmp_height=0.1)


def test_rejects_malformed_vectors():
    with pytest.raises(ValueError):
        contact((1.0, 2.0), (0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        contact((1.0, 2.0, np.nan), (0.0, 0.0, 1.0))


def test_states_are_read_only():
    src = np.zeros(3)
    con = contact(src, (0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        con.force[0] = 1.0
    src[0] = 99.0  # later mutation of the source must not leak in
    assert con.force[0] == 0.0


@pytest.mark.parametrize("scalar_omega", [False, True], ids=["omega-array", "omega-float"])
def test_pendulum_laws_on_arrays_match_float_calls_bit_for_bit(scalar_omega):
    """Each pendulum law on arrays gives its per-sample float calls bit for
    bit, signed zeros included."""
    rng = np.random.default_rng(29)
    n = 300
    omega = 3.3618214286265045 if scalar_omega else rng.uniform(0.5, 20.0, n)
    kappa = rng.uniform(0.05, 1.5, n)
    c, v, z, g, xi = (rng.normal(size=n) * s for s in (0.2, 0.5, 0.1, 0.05, 0.2))
    # the first 32 samples run through every sign pattern of zeros, where a
    # change in the order of operations shows in the sign bit
    for bit, a in enumerate((c, v, z, g, xi)):
        a[:32] = np.where(np.arange(32) >> bit & 1, -0.0, 0.0)
    kappa[:32:3] = -0.0
    columns = [np.broadcast_to(omega, n).tolist()] + [
        a.tolist() for a in (kappa, c, v, z, g, xi)
    ]
    cases = (
        (ext_zmp, (kappa, z, g), (1, 4, 5)),
        (lipm_accel, (omega, kappa, c, z, g), (0, 1, 2, 4, 5)),
        (dcm_of, (c, v, omega), (2, 3, 0)),
        (dcm_rate, (omega, kappa, xi, z, g), (0, 1, 6, 4, 5)),
    )
    for law, args, picks in cases:
        got = law(*args)
        want = [law(*row) for row in zip(*(columns[i] for i in picks))]
        assert got.tobytes() == np.array(want).tobytes(), law.__name__
