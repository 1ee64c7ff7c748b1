"""Step in place while both hands pull backward on a fixed object.

Drives every layer of the stack by hand: pendulum coefficients from the
contact set, a stepping ZMP reference, the preview plan, and the stabilized
closed loop. A steady horizontal pull shifts the balanced CoM away from the
ZMP by exactly -gamma, so the run ends by printing the measured offset next
to that prediction.

Run from the repository root after installing the package:

    python3 demos/walk_with_hand_forces.py
"""

import math

import numpy as np

from locomanip.core_dynamics import ExternalContact, RobotParams, compute_coefficients
from locomanip.pattern_generator import (
    PreviewWeights,
    generate_trajectory,
    synthesize_gains,
)
from locomanip.plant_sim import run_closed_loop
from locomanip.reference_builder import (
    ContactBreakpoint,
    ContactSchedule,
    Footstep,
    build_reference_frames,
    stepping_reference,
)
from locomanip.stabilizer import Stabilizer, StabilizerGains

MASS = 100.0
DT = 0.002
DURATION = 10.0
FOOT_POS = {"left": (0.0, 0.1), "right": (0.0, -0.1)}
SOLE_HALF_X, SOLE_HALF_Y = 0.1, 0.05
PULL_N = -50.0  # per hand, along x


def hand_contacts(fx):
    """Two symmetric grasps at 0.3 m reach; the lateral offsets cancel."""
    return tuple(
        ExternalContact(
            force=(fx, 0.0, 0.0),
            moment=(0.0, 0.0, 0.0),
            position=(0.3, side * 0.25, 0.3),
        )
        for side in (+1.0, -1.0)
    )


def inplace_steps(first=1.8, period=1.0, until=8.0):
    steps, t, foot = [], first, "left"
    while t + period <= until:
        steps.append(Footstep(foot, FOOT_POS[foot], t, t + period))
        foot = "right" if foot == "left" else "left"
        t += period
    return steps


def main():
    params = RobotParams(mass=MASS)
    contacts = hand_contacts(PULL_N)
    coeff = compute_coefficients(params, contacts)
    print("pendulum frequency  omega = %.4f 1/s" % coeff.omega)
    print("ZMP scale           kappa = %.4f (no vertical hand force)" % coeff.kappa)
    print("ZMP offset          gamma = (%.4f, %.4f) m" % tuple(coeff.gamma))

    n = int(round(DURATION / DT))
    times, zmp_ref, supports = stepping_reference(
        inplace_steps(), 0.2, DT, n, initial_positions=FOOT_POS
    )
    schedule = ContactSchedule(
        breakpoints=(ContactBreakpoint(time=0.0, contacts=contacts, mode="hold"),)
    )
    timeline = build_reference_frames(
        times, zmp_ref, supports, schedule, params, SOLE_HALF_X, SOLE_HALF_Y
    )

    gains = synthesize_gains(PreviewWeights(), coeff.omega, DT, 1.6)
    traj = generate_trajectory(timeline, gains)
    print("preview window      %d samples (%.1f s)" % (gains.n_preview, 1.6))

    # the stabilizer carries the robot, the ZMP actuation lag rho and the
    # control rate; the closed loop gives its plant the same robot and lag
    stabilizer = Stabilizer(params, StabilizerGains(rho=20.0), DT)
    trace = run_closed_loop(traj, stabilizer)

    t = np.arange(len(trace)) * trace.dt
    # y carries the +-0.1 m gait sway through the first order ankle lag,
    # so its deviation is actuation delay, not force response
    for axis, note in (("x", "force axis"), ("y", "sway axis, lag bound")):
        dev = trace[f"z_{axis}^a"] - trace[f"z_{axis}^d"]
        print(
            "ZMP tracking        rms |z^a - z^d| on %s = %.3f mm (%s)"
            % (axis, 1e3 * math.sqrt(float(np.mean(dev**2))), note)
        )

    tail = t >= 9.0  # quiet stance after the last step
    offset = float(np.mean(trace["c_x^a"][tail] - trace["z_x^a"][tail]))
    predicted = -coeff.gamma[0]
    print("steady CoM lead     measured %.4f m, predicted -gamma_x = %.4f m"
          % (offset, predicted))
    print("the pull is leaned against rather than fought with the ankles")


if __name__ == "__main__":
    main()
