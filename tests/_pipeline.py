"""Shared builders for closed-loop tests: in-place gait, hands, full stack."""

import functools
import math

import numpy as np

from locomanip.core_dynamics import ExternalContact, RobotParams
from locomanip.pattern_generator import (
    PreviewWeights,
    generate_trajectory,
    synthesize_gains,
)
from locomanip.reference_builder import (
    ContactBreakpoint,
    ContactSchedule,
    Footstep,
    build_reference_frames,
    stepping_reference,
    standing_reference,
)
from locomanip.stabilizer import Stabilizer, StabilizerGains

PARAMS = RobotParams(mass=100.0)
OMEGA = math.sqrt(9.81 / 0.8)
DT = 0.002
SOLE_HALF_X = 0.1
SOLE_HALF_Y = 0.05
FOOT_POS = {"left": (0.0, 0.1), "right": (0.0, -0.1)}


def hand_pair(fx=0.0, fz=0.0, reach=0.3, half_span=0.25, height=1.0):
    """Two symmetric hand contacts; gamma_y cancels by construction."""
    return (
        ExternalContact(
            force=(fx, 0.0, fz),
            moment=(0.0, 0.0, 0.0),
            position=(reach, half_span, height),
        ),
        ExternalContact(
            force=(fx, 0.0, fz),
            moment=(0.0, 0.0, 0.0),
            position=(reach, -half_span, height),
        ),
    )


def constant_schedule(contacts=()):
    return ContactSchedule(
        breakpoints=(ContactBreakpoint(time=0.0, contacts=tuple(contacts), mode="hold"),)
    )


def hand_ramp_schedule(contacts, start=0.5, end=1.0):
    """No hand forces until start, then a linear ramp to contacts by end."""
    idle = tuple(
        ExternalContact(force=(0.0, 0.0, 0.0), moment=(0.0, 0.0, 0.0), position=c.position)
        for c in contacts
    )
    return ContactSchedule(
        breakpoints=(
            ContactBreakpoint(time=0.0, contacts=idle, mode="hold"),
            ContactBreakpoint(time=start, contacts=idle, mode="linear"),
            ContactBreakpoint(time=end, contacts=tuple(contacts), mode="hold"),
        )
    )


def inplace_steps(first=1.8, period=0.8, until=8.0):
    """Alternating stance episodes on the spot, starting with the left foot."""
    steps = []
    t = first
    foot = "left"
    while t + period <= until + 1e-9:
        steps.append(Footstep(foot, FOOT_POS[foot], t, t + period))
        foot = "right" if foot == "left" else "left"
        t += period
    return steps


@functools.lru_cache(maxsize=4)
def preview_gains(dt=DT, window=1.6):
    return synthesize_gains(PreviewWeights(), OMEGA, dt, window)


def inplace_timeline(
    duration=10.0,
    schedule=None,
    dt=DT,
    first=1.8,
    period=0.8,
    until=8.0,
    force_kappa_one=False,
):
    n = int(round(duration / dt))
    times, zmp, supports = stepping_reference(
        inplace_steps(first, period, until),
        0.35,
        dt,
        n,
        initial_positions=FOOT_POS,
    )
    return build_reference_frames(
        times,
        zmp,
        supports,
        schedule or constant_schedule(),
        PARAMS,
        SOLE_HALF_X,
        SOLE_HALF_Y,
        force_kappa_one=force_kappa_one,
    )


def standing_timeline(duration=2.0, schedule=None, dt=DT):
    n = int(round(duration / dt))
    times, zmp, supports = standing_reference(FOOT_POS, dt, n)
    return build_reference_frames(
        times,
        zmp,
        supports,
        schedule or constant_schedule(),
        PARAMS,
        SOLE_HALF_X,
        SOLE_HALF_Y,
    )


def plan_trajectory(timeline, dt=DT, window=1.6):
    return generate_trajectory(timeline, preview_gains(dt, window))


def make_stabilizer(dt=DT, compensate_forces=True, gains=None, **kwargs):
    return Stabilizer(
        PARAMS,
        gains or StabilizerGains(),
        dt,
        compensate_forces=compensate_forces,
        **kwargs,
    )
