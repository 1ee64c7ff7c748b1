"""Gait and contact timeline construction against hand-worked examples."""

import math

import numpy as np
import pytest

from locomanip import reference_builder
from locomanip.core_dynamics import ExternalContact, RobotParams
from locomanip.errors import InvalidSchedule
from locomanip.reference_builder import (
    ContactBreakpoint,
    ContactSchedule,
    Footstep,
    SoleRect,
    build_reference_frames,
    standing_reference,
    stepping_reference,
)

PARAMS = RobotParams(mass=100.0, gravity=9.81, com_height=0.8, zmp_height=0.0)


def hands(fx, fz, px=0.0):
    return (
        ExternalContact(force=(fx, 0.0, fz), moment=(0, 0, 0), position=(px, 0.25, 1.0)),
        ExternalContact(force=(fx, 0.0, fz), moment=(0, 0, 0), position=(px, -0.25, 1.0)),
    )


def in_place_steps(n, width=0.1, duration=1.0):
    steps = []
    for i in range(n):
        foot = "left" if i % 2 == 0 else "right"
        y = width if foot == "left" else -width
        steps.append(
            Footstep(foot, (0.0, y), start_time=i * duration, end_time=(i + 1) * duration)
        )
    return steps


def test_standing_reference_pins_midpoint():
    times, zmp, supports = standing_reference(
        {"left": (0.0, 0.1), "right": (0.0, -0.1)}, dt=0.25, n_samples=5
    )
    np.testing.assert_allclose(times, [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_array_equal(zmp, np.zeros((5, 2)))
    for sup in supports:
        assert tuple(f for f, _ in sup) == ("left", "right")
    # every sample shares the same stance tuple, so the frames share one region
    assert all(sup is supports[0] for sup in supports)


def test_stepping_zmp_ramps_and_holds():
    # two steps, 0.4 double-support fraction, hand-interpolated expectations
    steps = in_place_steps(2)
    times, zmp, _ = stepping_reference(steps, 0.4, dt=0.25, n_samples=11)
    expect_y = [
        0.0,  # t=0.00 midpoint, ramp starts here
        0.0625,  # t=0.25 five-eighths into the [0,0.4) ramp
        0.1,  # t=0.50 on the left foot
        0.1,  # t=0.75
        0.1,  # t=1.00 ramp toward right foot starts
        -0.025,  # t=1.25
        -0.1,  # t=1.50
        -0.1,  # t=1.75
        -0.1,  # t=2.00 wind-down ramp starts
        -0.0375,  # t=2.25
        0.0,  # t=2.50 back at midpoint
    ]
    np.testing.assert_allclose(zmp[:, 1], expect_y, rtol=0, atol=1e-15)
    np.testing.assert_allclose(zmp[:, 0], 0.0, atol=1e-15)


def test_stepping_support_sets():
    steps = in_place_steps(2)
    _, _, supports = stepping_reference(steps, 0.4, dt=0.25, n_samples=11)
    feet = [tuple(f for f, _ in sup) for sup in supports]
    assert feet == [
        ("left", "right"),  # 0.00 double support
        ("left", "right"),  # 0.25
        ("left",),  # 0.50 single support on left
        ("left",),  # 0.75
        ("left", "right"),  # 1.00
        ("left", "right"),  # 1.25
        ("right",),  # 1.50
        ("right",),  # 1.75
        ("left", "right"),  # 2.00 plan over, standing
        ("left", "right"),
        ("left", "right"),
    ]
    # positions carried along with the feet
    sup = dict(supports[2])
    np.testing.assert_array_equal(sup["left"], [0.0, 0.1])


def test_zero_double_support_jumps_right_continuously():
    steps = in_place_steps(2)
    times, zmp, _ = stepping_reference(steps, 0.0, dt=0.5, n_samples=5)
    np.testing.assert_allclose(zmp[:, 1], [0.1, 0.1, -0.1, -0.1, 0.0], atol=1e-15)


def test_rejects_bad_plans():
    a = Footstep("left", (0, 0.1), 0.0, 1.0)
    with pytest.raises(InvalidSchedule):
        stepping_reference([a, Footstep("right", (0, -0.1), 0.5, 1.5)], 0.2, 0.1, 10)
    with pytest.raises(InvalidSchedule):
        stepping_reference([a, Footstep("right", (0, -0.1), 1.2, 2.0)], 0.2, 0.1, 10)
    with pytest.raises(InvalidSchedule):
        stepping_reference([a], 1.0, 0.1, 10)
    with pytest.raises(InvalidSchedule):
        stepping_reference([], 0.2, 0.1, 10)
    with pytest.raises(InvalidSchedule):
        Footstep("other", (0, 0), 0.0, 1.0)
    with pytest.raises(InvalidSchedule):
        Footstep("left", (0, 0), 1.0, 1.0)
    # single-foot plan leaves the other foot's stance unknown
    with pytest.raises(InvalidSchedule):
        stepping_reference([a], 0.2, 0.1, 10)
    # but an explicit initial position fixes it
    stepping_reference([a], 0.2, 0.1, 10, initial_positions={"right": (0, -0.1)})


def test_contact_schedule_hold_and_ramp():
    sched = ContactSchedule(
        [
            ContactBreakpoint(0.0, hands(0.0, 0.0), mode="linear"),
            ContactBreakpoint(1.0, hands(-50.0, 0.0), mode="hold"),
        ]
    )
    assert sched.sample(-0.5) is sched.sample(-1.0)  # pre-plan hold
    mid = sched.sample(0.5)
    assert math.isclose(mid[0].force[0], -25.0, rel_tol=0, abs_tol=1e-12)
    late = sched.sample(3.0)
    assert late is sched.sample(99.0)  # hold tuples keep identity
    assert late[0].force[0] == -50.0


def test_contact_schedule_validation():
    with pytest.raises(InvalidSchedule):
        ContactSchedule([])
    with pytest.raises(InvalidSchedule):
        ContactSchedule(
            [ContactBreakpoint(0.0, ()), ContactBreakpoint(0.0, hands(0, 0))]
        )
    with pytest.raises(InvalidSchedule):
        ContactSchedule([ContactBreakpoint(0.0, hands(0, 0), mode="linear")])
    with pytest.raises(InvalidSchedule):
        ContactSchedule(
            [
                ContactBreakpoint(0.0, (), mode="linear"),
                ContactBreakpoint(1.0, hands(0, 0)),
            ]
        )
    with pytest.raises(InvalidSchedule):
        ContactBreakpoint(0.0, hands(0, 0), mode="smooth")


def test_sole_rect_geometry():
    r = SoleRect.centered((0.0, 0.1), 0.1, 0.03)
    assert r.contains((0.05, 0.09))
    assert not r.contains((0.11, 0.1))
    assert r.contains((0.11, 0.1), margin=0.02)
    np.testing.assert_allclose(r.clamp((0.2, 0.0)), [0.1, 0.07])
    both = SoleRect.bounding([r, SoleRect.centered((0.0, -0.1), 0.1, 0.03)])
    assert (both.ymin, both.ymax) == (-0.13, 0.13)
    with pytest.raises(ValueError):
        SoleRect(0.1, 0.1, 0.0, 1.0)


def test_frames_carry_coefficients_and_regions():
    steps = in_place_steps(2)
    times, zmp, supports = stepping_reference(steps, 0.4, dt=0.25, n_samples=11)
    sched = ContactSchedule([ContactBreakpoint(0.0, hands(-50.0, 0.0))])
    tl = build_reference_frames(
        times, zmp, supports, sched, PARAMS, sole_half_x=0.1, sole_half_y=0.03
    )
    assert len(tl) == 11 and tl.dt == 0.25
    # two hands pulling -50 N each at 1 m: gamma_x = -100/981, kappa = 1
    np.testing.assert_allclose(tl.kappa, 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(tl.gamma[:, 0], -100.0 / 981.0, rtol=1e-15)
    np.testing.assert_allclose(tl.ext_zmp_ref, tl.kappa[:, None] * tl.zmp_ref - tl.gamma)
    f = tl.frames[2]
    assert f.support_feet == ("left",)
    assert len(f.support_region) == 1
    assert f.support_region[0].contains(f.zmp_ref)
    assert all(fr.coefficients is tl.frames[0].coefficients for fr in tl.frames)


def test_frames_interpolated_schedule_tracks_ramp():
    times, zmp, supports = standing_reference(
        {"left": (0.0, 0.1), "right": (0.0, -0.1)}, dt=0.25, n_samples=9
    )
    sched = ContactSchedule(
        [
            ContactBreakpoint(0.0, hands(0.0, 0.0), mode="linear"),
            ContactBreakpoint(1.0, hands(0.0, 200.0), mode="hold"),
        ]
    )
    tl = build_reference_frames(
        times, zmp, supports, sched, PARAMS, sole_half_x=0.1, sole_half_y=0.03
    )
    # kappa falls linearly from 1 to 1 - 400/981 as the hands load up
    np.testing.assert_allclose(tl.kappa[0], 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(tl.kappa[2], 1.0 - 200.0 / 981.0, rtol=1e-14)
    np.testing.assert_allclose(tl.kappa[4:], 1.0 - 400.0 / 981.0, rtol=1e-14)


def test_force_kappa_one_keeps_gamma():
    times, zmp, supports = standing_reference(
        {"left": (0.0, 0.1), "right": (0.0, -0.1)}, dt=0.25, n_samples=3
    )
    sched = ContactSchedule([ContactBreakpoint(0.0, hands(-30.0, 150.0))])
    tl = build_reference_frames(
        times, zmp, supports, sched, PARAMS, 0.1, 0.03, force_kappa_one=True
    )
    np.testing.assert_array_equal(tl.kappa, 1.0)
    np.testing.assert_allclose(tl.gamma[:, 0], -60.0 / 981.0, rtol=1e-15)
    true = build_reference_frames(times, zmp, supports, sched, PARAMS, 0.1, 0.03)
    np.testing.assert_allclose(true.kappa, 1.0 - 300.0 / 981.0, rtol=1e-15)


def test_hold_after_long_ramp_computes_coefficients_once(monkeypatch):
    """A ramp of many samples must not make every later hold sample recompute."""
    calls = []
    real = reference_builder.compute_coefficients

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(reference_builder, "compute_coefficients", counting)
    # 40 ramp samples over [0, 1) s, then 60 hold samples
    times, zmp, supports = standing_reference(
        {"left": (0.0, 0.1), "right": (0.0, -0.1)}, dt=0.025, n_samples=100
    )
    sched = ContactSchedule(
        [
            ContactBreakpoint(0.0, hands(0.0, 0.0), mode="linear"),
            ContactBreakpoint(1.0, hands(-20.0, 100.0), mode="hold"),
        ]
    )
    tl = build_reference_frames(times, zmp, supports, sched, PARAMS, 0.1, 0.03)
    assert len(calls) == 41
    assert calls[-1] is sched.breakpoints[1].contacts
    hold = tl.frames[40:]
    assert all(f.coefficients is hold[0].coefficients for f in hold)
    assert all(f.support_region is tl.frames[0].support_region for f in tl.frames)
