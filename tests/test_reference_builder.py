"""Gait and contact timeline construction against hand-worked examples."""

import math

import numpy as np
import pytest

from locomanip import reference_builder
from locomanip.core_dynamics import (
    ExternalContact,
    LipmCoefficients,
    RobotParams,
    ZmpPoint,
    compute_coefficients,
    contact_rows,
    ext_zmp,
)
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
    # every sample shares the same stance tuple, so the samples share one region
    assert all(sup is supports[0] for sup in supports)
    np.testing.assert_array_equal(supports.phase, 0)


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
    f = tl.frame(2)
    assert f.support_feet == ("left",)
    assert len(f.support_region) == 1
    assert f.support_region[0].contains(f.zmp_ref)
    # one hold span: every sample reads the one contact set and its terms
    np.testing.assert_array_equal(tl.contact_index, tl.contact_index[0])
    assert f.coefficients.kappa == tl.kappa[0]
    np.testing.assert_array_equal(f.coefficients.gamma, tl.gamma[0])
    np.testing.assert_array_equal(tl.gamma, np.tile(tl.gamma[0], (11, 1)))


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
    """Neither a ramp of many samples nor a long hold recomputes coefficients."""
    calls = []
    real = reference_builder.compute_coefficients

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(reference_builder, "compute_coefficients", counting)
    sched = ContactSchedule(
        [
            ContactBreakpoint(0.0, hands(0.0, 0.0), mode="linear"),
            ContactBreakpoint(1.0, hands(-20.0, 100.0), mode="hold"),
        ]
    )
    for n in (100, 1000):
        calls.clear()
        # 40 ramp samples over [0, 1) s, then the rest hold
        times, zmp, supports = standing_reference(
            {"left": (0.0, 0.1), "right": (0.0, -0.1)}, dt=0.025, n_samples=n
        )
        tl = build_reference_frames(times, zmp, supports, sched, PARAMS, 0.1, 0.03)
        # one call per plan, for omega and zeta, whatever the sample count
        assert calls == [()]
        # one contact set per ramp sample, then one for the whole hold
        np.testing.assert_array_equal(tl.contact_index[:40], np.arange(40))
        np.testing.assert_array_equal(tl.contact_index[40:], 40)
        assert len(tl.contact_start) == 42
        np.testing.assert_array_equal(tl.kappa[40:], tl.kappa[40])
        np.testing.assert_array_equal(tl.gamma[40:], np.tile(tl.gamma[40], (n - 40, 1)))
        np.testing.assert_array_equal(tl.phase, 0)


# ---------------------------------------------------------------------------
# the array plan against the per-sample path, bit for bit


def contact(force, position=(0.3, 0.25, 1.0), moment=(0.0, 0.0, 0.0)):
    return ExternalContact(force=force, moment=moment, position=position)


NEG = contact((-0.0, -0.0, -0.0), position=(-0.0, -0.0, -0.0), moment=(-0.0, -0.0, -0.0))

EDGE_SCHEDULES = {
    # the first breakpoint holds before its time, and its ramp starts there
    "before-first": [
        ContactBreakpoint(0.3, hands(0.0, 0.0), mode="linear"),
        ContactBreakpoint(0.8, hands(-40.0, 120.0)),
    ],
    # dt = 0.125 puts samples exactly on 0.5 and 1.25
    "on-breakpoint": [
        ContactBreakpoint(0.0, hands(-10.0, 50.0)),
        ContactBreakpoint(0.5, hands(-30.0, 80.0), mode="linear"),
        ContactBreakpoint(1.25, hands(20.0, -60.0)),
    ],
    "back-to-back-linear": [
        ContactBreakpoint(0.0, hands(0.0, 0.0), mode="linear"),
        ContactBreakpoint(0.55, hands(-25.0, 90.0, px=0.2), mode="linear"),
        ContactBreakpoint(1.1, hands(15.0, 130.0, px=-0.1), mode="linear"),
        ContactBreakpoint(1.6, hands(0.0, 0.0)),
    ],
    "no-contacts": [ContactBreakpoint(0.0, ())],
    "contact-count-changes": [
        ContactBreakpoint(0.0, hands(-20.0, 40.0)),
        ContactBreakpoint(0.4, (contact((5.0, -3.0, 70.0), moment=(1.0, -2.0, 0.5)),)),
        ContactBreakpoint(0.9, ()),
        ContactBreakpoint(1.3, hands(0.0, 10.0) + (NEG,), mode="linear"),
        ContactBreakpoint(1.9, hands(-60.0, 150.0) + (contact((1.0, 2.0, 3.0)),)),
    ],
    "negative-zero": [
        ContactBreakpoint(0.0, (NEG, NEG), mode="linear"),
        ContactBreakpoint(0.7, (NEG, NEG)),
        ContactBreakpoint(1.2, (NEG, contact((-0.0, 0.0, -0.0), position=(0.0, -0.0, 0.0)))),
    ],
}

# uneven steps: durations differ and one foot steps twice; with fraction
# 0.25 and dt 0.125 the first step starts, leaves double support and ends
# exactly on samples
UNEVEN_STEPS = [
    Footstep("left", (0.05, 0.12), 0.25, 0.75),
    Footstep("right", (0.2, -0.09), 0.75, 1.4),
    Footstep("right", (0.3, -0.11), 1.4, 1.5),
    Footstep("left", (0.4, 0.1), 1.5, 2.1),
]


def per_sample_stances(steps, fraction, times, initial):
    """Support stance of each sample, walking the steps from the start."""
    out = []
    for t in times:
        pos = dict(initial)
        current = None
        for s in steps:
            if s.start_time <= t:
                pos[s.foot] = tuple(s.position.tolist())
                current = s
        feet = ("left", "right")
        if current is not None:
            ds_end = current.start_time + fraction * (current.end_time - current.start_time)
            if ds_end <= t < current.end_time:
                feet = (current.foot,)
        out.append(tuple((f, pos[f]) for f in feet))
    return out


def assert_same_bits(got, want):
    want = np.asarray(want, dtype=float)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("force_kappa_one", [False, True], ids=["kappa", "kappa-one"])
@pytest.mark.parametrize("gait", ["standing", "uneven"])
@pytest.mark.parametrize("name", sorted(EDGE_SCHEDULES))
def test_array_plan_matches_per_sample_path(name, gait, force_kappa_one):
    dt, n = 0.125, 20
    initial = {"left": (0.0, 0.1), "right": (0.0, -0.1)}
    if gait == "standing":
        times, zmp, supports = standing_reference(initial, dt, n)
        stances = per_sample_stances([], 0.25, times, initial)
    else:
        times, zmp, supports = stepping_reference(
            UNEVEN_STEPS, 0.25, dt, n, initial_positions=initial
        )
        stances = per_sample_stances(UNEVEN_STEPS, 0.25, times, initial)
    sched = ContactSchedule(EDGE_SCHEDULES[name])
    tl = build_reference_frames(
        times, zmp, supports, sched, PARAMS, 0.1, 0.03, force_kappa_one=force_kappa_one
    )

    kappa, gamma, exz = [], [], []
    for k, t in enumerate(times.tolist()):
        contacts = sched.sample(t)
        coeff = compute_coefficients(PARAMS, contacts)
        if force_kappa_one:
            coeff = LipmCoefficients(coeff.omega, 1.0, coeff.gamma, coeff.zeta)
        kappa.append(coeff.kappa)
        gamma.append(coeff.gamma)
        exz.append(ext_zmp(coeff, ZmpPoint(zmp[k])).position)
        got = tl.contact_rows(tl.contact_index[k])
        assert_same_bits(np.array(got).reshape(-1), np.array(contact_rows(contacts)).reshape(-1))
        assert tl.omega == coeff.omega
    assert_same_bits(tl.kappa, kappa)
    assert_same_bits(tl.gamma, gamma)
    assert_same_bits(tl.ext_zmp_ref, exz)

    got = [tuple((f, tuple(p.tolist())) for f, p in supports[k]) for k in range(n)]
    assert got == stances
    for k in range(n):
        f = tl.frame(k)
        assert f.support_feet == tuple(foot for foot, _ in stances[k])
        assert [(r.xmin + r.xmax) / 2 for r in f.support_region] == pytest.approx(
            [p[0] for _, p in stances[k]], abs=1e-15
        )
    if gait == "uneven":
        # the plan passes through single support on both feet
        assert {tl.support_feet[p] for p in tl.phase.tolist()} >= {("left",), ("right",)}
