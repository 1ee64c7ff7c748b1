"""Preview-control pattern generator for the walking references.

Plans a CoM jerk trajectory whose implied pendulum ZMP tracks the reference.
External contacts are handled upstream: the generator tracks the scaled and
offset ZMP (kappa z - gamma), for which the pendulum dynamics look classic,
then maps its own output back to a real ZMP command for the stabilizer. The
plan holds what the stabilizer reads: CoM position, velocity and
acceleration, DCM and real ZMP. The jerk and the scaled output stay inside
the rollout: the output C x is computed into the ZMP array and turned into
the real ZMP in place.

State per axis is (position, velocity, acceleration); the control is jerk.
The infinite-horizon tracking law splits into state feedback from a Riccati
solution plus a finite window of feedforward gains over future references.
The Riccati equation is solved by structure-preserving doubling, polished
by one Newton step, on 3x3 float matrices. The gains and the per-axis state
recursion run on Python floats; the implied output C x is then computed on
the logged state arrays. The feedforward is a correlation of the gains with
the padded reference: each value is added in the pairwise order that np.sum
uses for a row of its window's products, written out over shifted slices of
the reference. So the plan's bytes rest on elementwise IEEE multiply and
add, not on numpy's reduction internals. The reference of sustained hand
forces holds one value for long stretches, so a block of outputs whose
windows all hold the bits of the window before them shares that window's
sum instead of recomputing it. Nothing on the way to the plan calls BLAS,
so its bytes do not depend on the BLAS kernel; only PreviewGains.pole_abs,
the closed-loop poles its stability check reads, calls LAPACK.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core_dynamics import DEGENERATE_KAPPA, dcm_of
from .errors import DegenerateScale, RiccatiDivergence
from .reference_builder import MAX_SAMPLES, ReferenceTimeline, sample_index

# Feedforward weight decay required of a usable preview window: the last
# tenth of the gains must carry under 1% of the total weight.
_TAIL_FRACTION = 0.1
_TAIL_BUDGET = 0.01

# shortest preview window synthesize_gains accepts; the config schema's
# floor for controller.preview_window_s
MIN_PREVIEW_WINDOW = 1.0  # s

# stopping rule of _doubling
_DARE_TOL = 1e-15
_DARE_MAX_STEPS = 50

# Outputs per feedforward block: a (2, block) float64 array is 128,000
# bytes, under glibc's 128 KiB default mmap threshold, so the block
# temporaries neither map pages per block nor, once freed, raise the
# dynamic threshold for later arrays.
_FF_BLOCK = 8000


def discretize(omega: float, dt: float):
    """Triple-integrator step matrices and the ZMP output row for frequency omega."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be positive")
    if not (math.isfinite(omega) and omega > 0.0):
        raise ValueError("omega must be positive")
    A = np.array([[1.0, dt, dt * dt / 2.0], [0.0, 1.0, dt], [0.0, 0.0, 1.0]])
    B = np.array([dt**3 / 6.0, dt * dt / 2.0, dt])
    C = np.array([1.0, 0.0, -1.0 / (omega * omega)])
    return A, B, C


def _mul(X, Y):
    """3x3 float product, each entry summed left to right."""
    return [
        [X[i][0] * Y[0][j] + X[i][1] * Y[1][j] + X[i][2] * Y[2][j] for j in range(3)]
        for i in range(3)
    ]


def _t(X):
    return [list(col) for col in zip(*X)]


def _sym_sum(X, Y):
    """(X + Y) with its two triangles averaged."""
    S = [[x + y for x, y in zip(rx, ry)] for rx, ry in zip(X, Y)]
    return [[0.5 * (S[i][j] + S[j][i]) for j in range(3)] for i in range(3)]


def _solve(W, R):
    """W^-1 R for a 3x3 W by Gaussian elimination with partial pivoting.

    R is a list of three rows of any width. Raises RiccatiDivergence on a
    zero pivot.
    """
    M = [list(W[i]) + list(R[i]) for i in range(3)]
    for c in range(3):
        p = max(range(c, 3), key=lambda i: abs(M[i][c]))
        M[c], M[p] = M[p], M[c]
        pivot = M[c][c]
        if pivot == 0.0:
            raise RiccatiDivergence("doubling step met a singular matrix")
        for i in range(c + 1, 3):
            f = M[i][c] / pivot
            M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    X = [None, None, None]
    for i in (2, 1, 0):
        row = M[i]
        X[i] = [
            (row[3 + j] - sum(row[k] * X[k][j] for k in range(i + 1, 3))) / row[i]
            for j in range(len(R[0]))
        ]
    return X


def _doubling(a, G, H):
    """Structure-preserving doubling on 3x3 float matrices; returns H.

    From A0 = a, G0 = G and H0 = H, each step sets W = I + GH and
        H <- H + A'H W^-1 A,  G <- G + A W^-1 G A',  A <- A W^-1 A,
    so step k sums 2^k sweeps of the underlying fixed-point map. W^-1 A and
    W^-1 G come from one elimination; H and G are kept symmetric. Stops
    when H changes by at most _DARE_TOL relative to its largest entry.
    Raises RiccatiDivergence if W is singular, a value is not finite or
    _DARE_MAX_STEPS steps do not settle.
    """
    for _ in range(_DARE_MAX_STEPS):
        GH = _mul(G, H)
        W = [[float(i == j) + GH[i][j] for j in range(3)] for i in range(3)]
        S = _solve(W, [ra + rg for ra, rg in zip(a, G)])
        WA = [row[:3] for row in S]
        WG = [row[3:] for row in S]
        H_next = _sym_sum(H, _mul(_t(a), _mul(H, WA)))
        G = _sym_sum(G, _mul(_mul(a, WG), _t(a)))
        a = _mul(a, WA)
        if not all(math.isfinite(v) for X in (H_next, G, a) for row in X for v in row):
            raise RiccatiDivergence("Riccati doubling produced non-finite values")
        change = max(abs(x - y) for rx, ry in zip(H_next, H) for x, y in zip(rx, ry))
        H = H_next
        if change <= _DARE_TOL * max(abs(v) for row in H for v in row):
            return H
    raise RiccatiDivergence(f"Riccati doubling did not settle in {_DARE_MAX_STEPS} steps")


def _feedback(a, b, P, r: float):
    """State feedback k = B'PA / s and s = r + B'PB, on floats."""
    bp = [b[0] * P[0][j] + b[1] * P[1][j] + b[2] * P[2][j] for j in range(3)]
    s = r + (bp[0] * b[0] + bp[1] * b[1] + bp[2] * b[2])
    return [(bp[0] * a[0][j] + bp[1] * a[1][j] + bp[2] * a[2][j]) / s for j in range(3)], s


def _closed_loop(a, b, k):
    """A - B k for float rows a, column b and row k."""
    return [[a[i][j] - b[i] * k[j] for j in range(3)] for i in range(3)]


def solve_dare_fixed_point(
    A: np.ndarray, B: np.ndarray, q_state: np.ndarray, r: float
) -> np.ndarray:
    """Discrete-time Riccati solution by doubling plus one Newton step.

    The fixed point P = A'PA - A'PB (r + B'PB)^-1 B'PA + q_state of a 3-state
    system with one input. The structure-preserving doubling algorithm of
    Lin and Xu (SIAM J. Matrix Anal. Appl. 28, 2006), started from
    G0 = BB'/r and H0 = q_state, gives P. One Newton step (Hewer) then adds
    the E solving the Stein equation E = Ac'E Ac + R, where R is the
    residual of P and Ac = A - Bk its closed loop, found by the same
    doubling with G = 0. The step matters where r is small and dt large:
    at q/r = 1e12 and dt = 5 ms doubling alone is 2e-11 off in relative
    terms, with the step 4e-15. Raises RiccatiDivergence as _doubling does.
    """
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError("r must be positive")
    a = np.asarray(A, dtype=float).tolist()
    b = np.asarray(B, dtype=float).reshape(3).tolist()
    Q = np.asarray(q_state, dtype=float).tolist()
    P = _doubling(a, [[bi * bj / r for bj in b] for bi in b], Q)
    k, s = _feedback(a, b, P, r)
    closed = _closed_loop(a, b, k)
    AtPA = _mul(_t(a), _mul(P, a))
    R = _sym_sum(
        [[Q[i][j] + AtPA[i][j] - s * k[i] * k[j] for j in range(3)] for i in range(3)],
        [[-v for v in row] for row in P],
    )
    E = _doubling(closed, [[0.0] * 3 for _ in range(3)], R)
    return np.array(_sym_sum(P, E))


@dataclass(frozen=True)
class PreviewWeights:
    """Tracking-vs-smoothness trade-off of the preview law."""

    q_zmp: float = 1.0
    r_jerk: float = 1e-8

    def __post_init__(self):
        if not (self.q_zmp > 0.0 and self.r_jerk > 0.0):
            raise ValueError("preview weights must be positive")


@dataclass(frozen=True, eq=False)
class PreviewGains:
    """Synthesized preview law: state feedback plus feedforward over the window."""

    k_fb: np.ndarray
    k_ff: np.ndarray
    dt: float
    omega: float
    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    C: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("k_fb", "k_ff", "A", "B", "C"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        rho = self.pole_abs[0]
        if not rho < 1.0:
            raise ValueError(f"closed loop unstable, spectral radius {rho:.6f}")
        total = np.sum(np.abs(self.k_ff))
        tail = np.sum(np.abs(self.k_ff[-max(1, int(len(self.k_ff) * _TAIL_FRACTION)):]))
        if not tail < _TAIL_BUDGET * total:
            raise ValueError(
                "preview window too short: feedforward tail carries "
                f"{tail / total:.2%} of the weight (budget {_TAIL_BUDGET:.0%})"
            )

    @property
    def n_preview(self) -> int:
        return len(self.k_ff)

    @functools.cached_property
    def pole_abs(self) -> np.ndarray:
        """Absolute eigenvalues of the closed loop A - B k_fb, largest first."""
        closed = self.A - np.outer(self.B, self.k_fb)
        poles = np.sort(np.abs(np.linalg.eigvals(closed)))[::-1]
        poles.flags.writeable = False
        return poles


def synthesize_gains(
    weights: PreviewWeights, omega: float, dt: float, preview_window: float
) -> PreviewGains:
    """Solve the tracking problem and package feedback plus feedforward gains."""
    if not (math.isfinite(omega) and omega > 0.0):
        raise ValueError("omega must be positive")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be positive")
    n = sample_index(preview_window, dt, MAX_SAMPLES + 1)
    if preview_window < MIN_PREVIEW_WINDOW or n > MAX_SAMPLES:
        raise ValueError(f"preview_window must be {MIN_PREVIEW_WINDOW} s to {MAX_SAMPLES} samples")
    A, B, C = discretize(omega, dt)
    q, r = weights.q_zmp, weights.r_jerk
    P = solve_dare_fixed_point(A, B, q * np.outer(C, C), r).tolist()
    a = A.tolist()
    b = b0, b1, b2 = B.tolist()
    k_fb, s = _feedback(a, b, P, r)
    # k_ff[j] = B' w_j / s with w_0 = q C and w_{j+1} = (A - B k_fb)' w_j
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = _closed_loop(a, b, k_fb)
    w0, w1, w2 = (c * q for c in C.tolist())
    k_ff = []
    for _ in range(n):
        k_ff.append((b0 * w0 + b1 * w1 + b2 * w2) / s)
        w0, w1, w2 = (
            c00 * w0 + c10 * w1 + c20 * w2,
            c01 * w0 + c11 * w1 + c21 * w2,
            c02 * w0 + c12 * w1 + c22 * w2,
        )
    return PreviewGains(k_fb=k_fb, k_ff=k_ff, dt=dt, omega=omega, A=A, B=B, C=C)


def initial_state(com_pos) -> np.ndarray:
    """PG state (3, 2) at rest at the given horizontal CoM position."""
    state = np.zeros((3, 2))
    state[0] = np.asarray(com_pos, dtype=float).reshape(2)
    return state


def _pairwise(k_ff, ref, lo: int, n: int, b0: int, m: int) -> np.ndarray:
    """Terms lo .. lo+n-1 of the preview sums of outputs b0 .. b0+m-1.

    Term j of output k is k_ff[j] * ref[..., k + j], so term j of the whole
    block is one slice of ref shifted by j. The terms are added in numpy's
    pairwise order for a row of n values: more than 128 split at n // 2,
    rounded down to a multiple of 8; 8 to 128 go in 8 interleaved lanes,
    combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and the
    leftover terms are then added in order; fewer than 8 are added in order
    from -0.0, which is the same as from the first term.
    """

    def term(j):
        return k_ff[j] * ref[..., b0 + j : b0 + j + m]

    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise(k_ff, ref, lo, half, b0, m) + _pairwise(
            k_ff, ref, lo + half, n - half, b0, m
        )
    if n < 8:
        res = term(lo)
        for j in range(lo + 1, lo + n):
            res += term(j)
        return res
    r = [term(lo + j) for j in range(8)]
    lanes_end = lo + n - n % 8
    for i in range(lo + 8, lanes_end, 8):
        for j in range(8):
            r[j] += term(i + j)
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for j in range(lanes_end, lo + n):
        res += term(j)
    return res


def _feedforward(k_ff: np.ndarray, ref: np.ndarray, out: np.ndarray):
    """out[i, k] = sum_j k_ff[j] ref[i, k + j]: the preview term of step k.

    ref and out are 2-D, one row per axis; a row of ref is len(k_ff) - 1
    samples longer than a row of out. Each value has the bits of np.sum
    over its window's products: the terms are added in np.sum's order (see
    _pairwise), and the sum starts from +0.0 as np.sum's does, so a sum of
    -0.0 terms is +0.0. Goes in blocks of at most _FF_BLOCK outputs. An
    output depends on its window's bits alone, so in a block after the
    first, a row whose reference holds one bit pattern over the windows of
    the output before the block and of every output in it copies that
    output across the block; the other rows are summed.
    """
    k_ff = k_ff.tolist()
    npv = len(k_ff)
    bits = ref.view(np.int64)
    total = out.shape[-1]
    for b0 in range(0, total, _FF_BLOCK):
        m = min(_FF_BLOCK, total - b0)
        rows = [slice(None)]
        if b0:
            windows = bits[:, b0 - 1 : b0 + m - 1 + npv]
            held = (windows == windows[:, :1]).all(axis=1)
            if held.any():
                out[held, b0 : b0 + m] = out[held, b0 - 1 : b0]
                rows = np.flatnonzero(~held)
        for i in rows:
            block = _pairwise(k_ff, ref[i], 0, npv, b0, m)
            np.add(block, 0.0, out=out[i, b0 : b0 + m])


def _preview_law(gains: PreviewGains, state, jerk, pos, vel, acc, zmp_out):
    """Run the preview law on one axis from state (p, v, a).

    jerk holds the feedforward term of each step on entry and the jerk on
    return. Step k logs the state it starts from in pos, vel and acc, then
    advances by A x + B u with u = feedforward - k_fb x. After the
    recursion, zmp_out gets each step's implied output C x, computed on the
    arrays as (c0 p + c1 v) + c2 a, one IEEE operation per pass, so each
    value has the bits of that float expression. All 1-D float64 arrays of
    one length; returns the final (p, v, a).
    """
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = gains.A.tolist()
    b0, b1, b2 = gains.B.tolist()
    c0, c1, c2 = gains.C.tolist()
    k0, k1, k2 = gains.k_fb.tolist()
    p, v, a = state
    pos_m, vel_m, acc_m, jerk_m = map(memoryview, (pos, vel, acc, jerk))
    for k, ff in enumerate(jerk_m):
        pos_m[k] = p
        vel_m[k] = v
        acc_m[k] = a
        u = ff - (k0 * p + k1 * v + k2 * a)
        jerk_m[k] = u
        p, v, a = (
            a00 * p + a01 * v + a02 * a + b0 * u,
            a10 * p + a11 * v + a12 * a + b1 * u,
            a20 * p + a21 * v + a22 * a + b2 * u,
        )
    np.multiply(pos, c0, out=zmp_out)
    zmp_out += c1 * vel
    zmp_out += c2 * acc
    return p, v, a


@dataclass(frozen=True, eq=False)
class DesiredTrajectory:
    """Open-loop plan: CoM motion, DCM and ZMP commands over the timeline."""

    timeline: ReferenceTimeline
    time: np.ndarray
    com_pos: np.ndarray
    com_vel: np.ndarray
    com_acc: np.ndarray
    dcm: np.ndarray
    zmp: np.ndarray

    def __post_init__(self):
        for name in ("time", "com_pos", "com_vel", "com_acc", "dcm", "zmp"):
            getattr(self, name).flags.writeable = False

    def __len__(self):
        return len(self.time)

    @property
    def dt(self) -> float:
        return self.timeline.dt

    @property
    def omega(self) -> float:
        return self.timeline.omega


def generate_trajectory(
    timeline: ReferenceTimeline, gains: PreviewGains
) -> DesiredTrajectory:
    """Roll the preview law over a reference timeline.

    Starts at rest with the CoM over the first reference ZMP; schedules
    whose contacts ramp in from zero make that a transient-free equilibrium
    start. References past the end of the timeline hold the final value.
    Raises DegenerateScale if any frame's vertical contact force comes close
    to cancelling the robot's weight, since the real-ZMP command divides by
    kappa.
    """
    if abs(gains.dt - timeline.dt) > 1e-12:
        raise ValueError("gains and timeline sample at different rates")
    if abs(gains.omega - timeline.omega) > 1e-9 * timeline.omega:
        raise ValueError("gains synthesized for a different pendulum frequency")
    if np.min(timeline.kappa) <= DEGENERATE_KAPPA:
        raise DegenerateScale(
            "vertical contact forces nearly cancel the weight; ZMP scale "
            f"kappa reaches {np.min(timeline.kappa):.4f}"
        )
    n = len(timeline)
    npv = gains.n_preview
    ref = timeline.ext_zmp_ref
    state = initial_state(timeline.zmp_ref[0])
    com_pos = np.empty((n, 2))
    com_vel = np.empty((n, 2))
    com_acc = np.empty((n, 2))
    zmp = np.empty((n, 2))
    jerks = np.empty((n, 2))  # scratch: the feedforward terms, then the jerk
    # the window of step k covers samples k+1 .. k+npv, holding the final value
    padded = np.empty((2, n - 1 + npv))
    padded[:, : n - 1] = ref[1:].T
    padded[:, n - 1 :] = ref[-1, :, None]
    _feedforward(gains.k_ff, padded, jerks.T)
    for i in (0, 1):
        _preview_law(
            gains,
            state[:, i].tolist(),
            jerks[:, i],
            com_pos[:, i],
            com_vel[:, i],
            com_acc[:, i],
            zmp[:, i],
        )
    # the planned output C x tracks kappa z - gamma: map it to the real ZMP
    zmp += timeline.gamma
    zmp /= timeline.kappa[:, None]
    return DesiredTrajectory(
        timeline=timeline,
        time=timeline.time,
        com_pos=com_pos,
        com_vel=com_vel,
        com_acc=com_acc,
        dcm=dcm_of(com_pos, com_vel, timeline.omega),
        zmp=zmp,
    )
