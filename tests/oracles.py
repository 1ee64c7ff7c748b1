"""Independent reference implementations the acceptance tests check against.

classical_preview_rollout integrates the textbook cart-table preview loop
with explicit scalar updates, so it shares nothing with the package's
trajectory generator except the synthesized gains. finite_horizon_ls_inputs
solves the same tracking problem as a dense least-squares program with a
Riccati tail cost from scipy, which is an entirely different solution path
than the recursive preview law. solve_dare_nested and
synthesize_gains_nested are the earlier gain synthesis on nested-list 3x3
matrices, whose Riccati solution, gains and errors the package's flat-tuple
solver must match bit for bit. step_pg is one sample of the package's
preview law with the feedforward as a plain np.sum per window, which the
package's rollout must match to the last bit. convex_hull_np_unique and
write_trace_savetxt are the earlier whole-array forms of the support hull
and of the trace CSV writer, which the package's must match byte for byte.
disturbed_rows and closed_loop_by_sample are the closed loop one sample at a
time on Python floats, which the package's blocked loop must match bit for
bit: trace columns, flags and the stop. clamp_xy_edge_loop is the earlier
inside test and projection of the support hull clamp, a cross product per
edge, which the compiled hull's must match bit for bit. sample_schedule is
a contact schedule at one time, which the timeline's contact sets must
match bit for bit.
"""

import bisect
import math
from types import SimpleNamespace

import numpy as np
import scipy.linalg

from locomanip.core_dynamics import (
    ExternalContact,
    compute_coefficients,
    contact_terms,
    dcm_of,
    net_foot_force,
    wrench_zmp,
)
from locomanip.errors import RiccatiDivergence
from locomanip.pattern_generator import (
    _DARE_MAX_STEPS,
    _DARE_TOL,
    MIN_PREVIEW_WINDOW,
    PreviewGains,
    discretize,
)
from locomanip.plant_sim import (
    CSV_COLUMNS,
    DIVERGENCE_LIMIT,
    EXTRA_COLUMNS,
    STEP_FAILURES,
    ZMP_CLAMP_MARGIN,
    step_plant,
)
from locomanip.reference_builder import MAX_SAMPLES, SoleRect, sample_index
from locomanip.stabilizer import (
    _clamp_xy,
    check_feet_loaded,
    compile_hull,
    support_hull,
)


def classical_preview_rollout(gains, zmp_ref):
    """Roll the classical preview law over a raw ZMP reference.

    zmp_ref is (n, 2). Returns dict of (n, 2) arrays: com_pos, com_vel,
    com_acc, dcm, zmp. State updates are written out as the cart-table
    polynomial instead of reusing the gain object's matrices.
    """
    zmp_ref = np.asarray(zmp_ref, dtype=float)
    n = len(zmp_ref)
    dt = gains.dt
    w2 = gains.omega * gains.omega
    k1, k2, k3 = (float(v) for v in gains.k_fb)
    k_ff = np.asarray(gains.k_ff, dtype=float)
    npv = len(k_ff)

    out = {
        key: np.empty((n, 2))
        for key in ("com_pos", "com_vel", "com_acc", "dcm", "zmp")
    }
    for ax in range(2):
        ref = zmp_ref[:, ax]
        # the preview window for step k covers samples k+1 .. k+npv and
        # holds the last reference beyond the end
        padded = np.concatenate([ref[1:], np.full(npv, ref[-1])])
        pos, vel, acc = float(ref[0]), 0.0, 0.0
        for k in range(n):
            out["com_pos"][k, ax] = pos
            out["com_vel"][k, ax] = vel
            out["com_acc"][k, ax] = acc
            out["dcm"][k, ax] = pos + vel / gains.omega
            out["zmp"][k, ax] = pos - acc / w2
            u = float(k_ff @ padded[k : k + npv]) - (k1 * pos + k2 * vel + k3 * acc)
            pos = pos + dt * vel + (dt * dt / 2.0) * acc + (dt**3 / 6.0) * u
            vel = vel + dt * acc + (dt * dt / 2.0) * u
            acc = acc + dt * u
    return out


def clamp_xy_edge_loop(px, py, edges):
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
    """Structure-preserving doubling on nested-list 3x3 matrices; returns H."""
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


def _feedback(a, b, P, r):
    """State feedback k = B'PA / s and s = r + B'PB, on floats."""
    bp = [b[0] * P[0][j] + b[1] * P[1][j] + b[2] * P[2][j] for j in range(3)]
    s = r + (bp[0] * b[0] + bp[1] * b[1] + bp[2] * b[2])
    return [(bp[0] * a[0][j] + bp[1] * a[1][j] + bp[2] * a[2][j]) / s for j in range(3)], s


def _closed_loop(a, b, k):
    """A - B k for float rows a, column b and row k."""
    return [[a[i][j] - b[i] * k[j] for j in range(3)] for i in range(3)]


def solve_dare_nested(A, B, q_state, r):
    """Riccati solution by doubling plus one Newton step, on nested lists.

    The same law as pattern_generator.solve_dare_fixed_point: doubling from
    G0 = BB'/r and H0 = q_state, then the Stein correction E of the
    residual R of P through the closed loop A - Bk, as P + E symmetrized.
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


def synthesize_gains_nested(weights, omega, dt, preview_window):
    """pattern_generator.synthesize_gains with the nested-list solver."""
    if not (math.isfinite(omega) and omega > 0.0):
        raise ValueError("omega must be positive")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be positive")
    n = sample_index(preview_window, dt, MAX_SAMPLES + 1)
    if preview_window < MIN_PREVIEW_WINDOW or n > MAX_SAMPLES:
        raise ValueError(f"preview_window must be {MIN_PREVIEW_WINDOW} s to {MAX_SAMPLES} samples")
    A, B, C = discretize(omega, dt)
    q, r = weights.q_zmp, weights.r_jerk
    P = solve_dare_nested(A, B, q * np.outer(C, C), r).tolist()
    a = A.tolist()
    b = b0, b1, b2 = B.tolist()
    k_fb, s = _feedback(a, b, P, r)
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


def step_pg(state, gains, refs):
    """Advance the preview law one sample against the upcoming window.

    state is (3, 2) with rows position/velocity/acceleration and columns
    x/y; refs is (n_preview, 2), the scaled-offset ZMP references of the
    next n_preview samples. Returns (next_state, jerk (2,), zmp_out (2,)),
    where zmp_out is the scaled-offset ZMP implied by the current state.
    The feedforward of each axis is one np.sum over the window's products;
    the state update adds its terms in the order generate_trajectory does.
    """
    state = np.asarray(state, dtype=float)
    refs = np.asarray(refs, dtype=float)
    assert refs.shape == (gains.n_preview, 2), refs.shape
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = gains.A.tolist()
    b0, b1, b2 = gains.B.tolist()
    c0, c1, c2 = gains.C.tolist()
    k0, k1, k2 = gains.k_fb.tolist()
    nxt = np.empty((3, 2))
    jerk = np.empty(2)
    zmp_out = np.empty(2)
    for i in (0, 1):
        p, v, a = state[:, i].tolist()
        ff = float(np.sum(refs[:, i] * gains.k_ff))
        zmp_out[i] = c0 * p + c1 * v + c2 * a
        u = jerk[i] = ff - (k0 * p + k1 * v + k2 * a)
        nxt[:, i] = (
            a00 * p + a01 * v + a02 * a + b0 * u,
            a10 * p + a11 * v + a12 * a + b1 * u,
            a20 * p + a21 * v + a22 * a + b2 * u,
        )
    return nxt, jerk, zmp_out


def finite_horizon_ls_inputs(omega, dt, zmp_ref, q_zmp, r_jerk):
    """Optimal jerk sequence of the finite-horizon tracking problem.

    Minimizes sum_k q (z_k - r_k)^2 + r u_k^2 plus the infinite-horizon tail
    cost x_n' P x_n with P from scipy's Riccati solver, by stacking the
    whole horizon into one least-squares solve. Valid as a preview-control
    oracle when the reference is zero long before the horizon ends.
    """
    ref = np.asarray(zmp_ref, dtype=float)
    n = len(ref)
    A = np.array([[1.0, dt, dt * dt / 2.0], [0.0, 1.0, dt], [0.0, 0.0, 1.0]])
    B = np.array([dt**3 / 6.0, dt * dt / 2.0, dt])
    C = np.array([1.0, 0.0, -1.0 / (omega * omega)])
    P = scipy.linalg.solve_discrete_are(
        A, B.reshape(3, 1), q_zmp * np.outer(C, C), np.array([[r_jerk]])
    )
    tail = np.linalg.cholesky(P).T

    # powers[k] = A^k B and drifts[k] = C A^k x0 pieces
    pow_b = np.empty((n, 3))
    pow_b[0] = B
    for k in range(1, n):
        pow_b[k] = A @ pow_b[k - 1]
    x0 = np.array([ref[0], 0.0, 0.0])
    states_free = np.empty((n + 1, 3))
    states_free[0] = x0
    for k in range(n):
        states_free[k + 1] = A @ states_free[k]

    sq = np.sqrt(q_zmp)
    # output rows for k = 1 .. n-1: z_k depends on u_0 .. u_{k-1}
    impulse = pow_b @ C
    h = scipy.linalg.toeplitz(impulse, np.zeros(n))[: n - 1]
    rows_out = sq * h
    rhs_out = sq * (ref[1:] - states_free[1:n] @ C)
    # effort rows
    rows_u = np.sqrt(r_jerk) * np.eye(n)
    rhs_u = np.zeros(n)
    # tail rows on x_n = A^n x0 + sum A^{n-1-j} B u_j
    g_n = pow_b[::-1].T
    rows_tail = tail @ g_n
    rhs_tail = -tail @ states_free[n]

    lhs = np.vstack([rows_out, rows_u, rows_tail])
    rhs = np.concatenate([rhs_out, rhs_u, rhs_tail])
    u, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    return u


def convex_hull_np_unique(points):
    """Counter-clockwise convex hull by monotone chain, with the corners
    deduplicated and sorted by np.unique(axis=0); returns (m, 2)."""
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


def write_trace_savetxt(trace, path, columns):
    """Write a trace's columns as one stacked array through one np.savetxt."""
    data = np.column_stack([trace.columns[c] for c in columns])
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=",".join(columns), comments="")


def sample_schedule(schedule, t):
    """The contacts of a ContactSchedule active at time t.

    Before the first breakpoint the first one holds. A "hold" segment gives
    the breakpoint's own contact tuple (the same object at every t); a
    "linear" one interpolates a + s * (b - a), s = (t - t0) / (t1 - t0),
    on each contact's force, moment and position.
    """
    bps = schedule.breakpoints
    idx = bisect.bisect_right([bp.time for bp in bps], t) - 1
    if idx < 0:
        return bps[0].contacts
    bp = bps[idx]
    if bp.mode == "hold" or idx + 1 >= len(bps):
        return bp.contacts
    nxt = bps[idx + 1]
    s = (t - bp.time) / (nxt.time - bp.time)
    return tuple(
        ExternalContact(
            force=a.force + s * (b.force - a.force),
            moment=a.moment + s * (b.moment - a.moment),
            position=a.position + s * (b.position - a.position),
        )
        for a, b in zip(bp.contacts, nxt.contacts)
    )


def profile_value(prof, t):
    """A DisturbanceProfile's signal at one float time t: 0.0 outside
    [start_time, end_time), else the amplitude, or for a sinusoid amplitude
    * sin(2 pi (t - start_time) / period), with a ValueError where that
    phase overflows."""
    if t < prof.start_time or t >= prof.end_time:
        return 0.0
    if prof.kind != "sinusoid":
        return prof.amplitude
    phase = 2.0 * math.pi * (t - prof.start_time) / prof.period
    if not math.isfinite(phase):
        raise ValueError(f"sinusoid period {prof.period!r} too short: the phase overflows")
    return prof.amplitude * math.sin(phase)


def cop_moved(params, zx, zy, kappa, ex, ey, rows, hull):
    """Whether _clamp_xy moves the pressure point of the ground wrench the
    command asks for at one sample, on floats. (zx, zy) is the command ZMP,
    kappa the planned one, (ex, ey) the force error gamma_err and rows the
    measured contacts. The wrench of the command acceleration at the
    planned CoM has the vertical force fz of net_foot_force and the moment
    zeta (kappa z + gamma_err) x e_z about the ground origin: then
    check_feet_loaded, wrench_zmp, and _clamp_xy into the CompiledHull
    hull. Each coordinate is compared on its own, so a NaN point counts as
    moved."""
    fz = net_foot_force(params, 0.0, 0.0, 0.0, rows)[2]
    check_feet_loaded(fz)
    zeta = params.mass * params.gravity
    px, py = wrench_zmp(
        0.0, 0.0, fz, zeta * (kappa * zy + ey), -(zeta * (kappa * zx + ex)),
        params.zmp_height,
    )
    qx, qy = _clamp_xy(px, py, hull)
    return qx != px or qy != py


def disturbed_rows(rows, profiles, t):
    """The true contacts at one time t: contact_rows of floats plus the
    profiles' values, rows itself when none is active.

    Each contact's force gets the sum of the active profiles on each axis,
    summed from 0.0 in profile order and then added to the desired force,
    as apply_disturbances does on arrays.
    """
    axes = {"x": 0, "y": 1, "z": 2}
    deltas = [[0.0, 0.0, 0.0] for _ in rows]
    active = False
    for prof in profiles:
        v = profile_value(prof, t)
        if v == 0.0:
            continue
        active = True
        hit = deltas if prof.contact_index is None else [deltas[prof.contact_index]]
        for d in hit:
            d[axes[prof.axis]] += v
    if not active:
        return rows
    return tuple(
        (r[0] + d[0], r[1] + d[1], r[2] + d[2]) + tuple(r[3:])
        for r, d in zip(rows, deltas)
    )


def closed_loop_by_sample(
    traj,
    stabilizer,
    disturbances=(),
    direct_zmp=False,
    com_noise=0.0,
    force_noise=0.0,
    seed=None,
    divergence_limit=DIVERGENCE_LIMIT,
):
    """run_closed_loop one sample at a time, every law on floats.

    Per sample: the true contacts (disturbed_rows), the noise drawn in the
    order CoM (2), velocity (2), then 3 per contact with force noise,
    Stabilizer.measure_forces over the one sample from the bands of the
    sample before, against the planned gamma that contact_terms gives for
    the sample's planned contacts, Stabilizer.step with the DCM memory of
    the step before, the cop_clamped flag (cop_moved), then step_plant. The
    bands and the memory start at zero and are local variables. The
    compiled hull, clamp bounds, contact rows and planned gamma are rebuilt
    at every sample.

    Returns a namespace: columns (every CSV column and the bool extra
    flags over the steps taken), diverged_at (the plant's clock at the
    divergence, or None), failure (the STEP_FAILURES exception that stopped
    the run, or None) and failed_at (the time of the failed sample, or
    None).
    """
    timeline = traj.timeline
    omega = timeline.omega
    dt = timeline.dt
    params = stabilizer.params
    memory = bands = (0.0,) * 6
    unloaded = compute_coefficients(params)
    decay = None if direct_zmp else math.exp(-stabilizer.gains.rho * dt)
    rng = np.random.default_rng(seed) if com_noise > 0.0 or force_noise > 0.0 else None
    px, py = traj.com_pos[0].tolist()
    vx, vy = traj.com_vel[0].tolist()
    zx, zy = traj.zmp[0].tolist()
    clock = float(traj.time[0])
    logged = {name: [] for name in CSV_COLUMNS + EXTRA_COLUMNS}
    failure = diverged_at = None
    k = 0
    for k in range(len(timeline)):
        desired = timeline.contact_rows(int(timeline.contact_index[k]))
        region = timeline.support_regions[int(timeline.phase[k])]
        hull = compile_hull(support_hull(region))
        true = disturbed_rows(desired, disturbances, float(traj.time[k]))
        cx, cy, wx, wy, measured = px, py, vx, vy, true
        if rng is not None:
            nx, ny = rng.standard_normal(2).tolist()
            cx, cy = px + com_noise * nx, py + com_noise * ny
            nx, ny = rng.standard_normal(2).tolist()
            wx, wy = vx + com_noise * omega * nx, vy + com_noise * omega * ny
            if force_noise > 0.0:
                measured = tuple(
                    tuple(
                        f + force_noise * e
                        for f, e in zip(r[:3], rng.standard_normal(3).tolist())
                    )
                    + tuple(r[3:])
                    for r in true
                )
        plan = (*traj.dcm[k].tolist(), *traj.zmp[k].tolist())
        # the planned gamma from the sample's contacts, not timeline.gamma,
        # whose equality with it the loop relies on
        *_, dgx, dgy = contact_terms(desired, unloaded.zeta, params.zmp_height)
        *_, mgx, mgy = contact_terms(measured, unloaded.zeta, params.zmp_height)
        gamma_x, gamma_y, (bands,) = stabilizer.measure_forces(
            mgx, mgy, np.array([dgx, dgy]), 1, bands
        )
        fsx, fsy, fsz, kappa, gx, gy = contact_terms(
            true, unloaded.zeta, params.zmp_height
        )
        base = SoleRect.bounding(region)
        m = ZMP_CLAMP_MARGIN
        try:
            kappa_d = float(timeline.kappa[k])
            zcx, zcy, saturated, memory = stabilizer.step(
                kappa_d, omega, plan, cx, cy, wx, wy, hull, bands, memory
            )
            cop_clamped = cop_moved(
                params, zcx, zcy, kappa_d, float(gamma_x[0]), float(gamma_y[0]),
                measured, hull,
            )
            npx, npy, nvx, nvy, nzx, nzy, zmp_clamped = step_plant(
                px, py, vx, vy, zx, zy, zcx, zcy, decay,
                (base.xmin - m, base.xmax + m, base.ymin - m, base.ymax + m),
                unloaded.omega, kappa, gx, gy, dt,
            )
        except STEP_FAILURES as exc:
            failure = exc
            break
        lx, ly, hx, hy, _, _ = bands
        for name, value in (
            ("c_x^a", px), ("c_y^a", py),
            ("xi_x^a", dcm_of(px, vx, omega)), ("xi_y^a", dcm_of(py, vy, omega)),
            ("z_x^c", zcx), ("z_y^c", zcy), ("z_x^a", zx), ("z_y^a", zy),
            ("gamma_err_x", float(gamma_x[0])), ("gamma_err_y", float(gamma_y[0])),
            ("gammaH_x", hx), ("gammaH_y", hy), ("gammaL_x", lx), ("gammaL_y", ly),
            ("fext_sum_x", fsx), ("fext_sum_y", fsy), ("fext_sum_z", fsz),
            ("zmp_saturated", bool(saturated)), ("cop_clamped", bool(cop_clamped)),
            ("zmp_clamped", bool(zmp_clamped)),
        ):
            logged[name].append(value)
        px, py, vx, vy, zx, zy = npx, npy, nvx, nvy, nzx, nzy
        clock = clock + dt
        ahead = min(k + 1, len(timeline) - 1)
        if (
            abs(px - traj.com_pos[ahead, 0]) > divergence_limit
            or abs(py - traj.com_pos[ahead, 1]) > divergence_limit
        ):
            diverged_at = clock
            break
    steps = len(logged["c_x^a"])
    for name, values in (
        ("time", traj.time),
        ("c_x^d", traj.com_pos[:, 0]), ("c_y^d", traj.com_pos[:, 1]),
        ("xi_x^d", traj.dcm[:, 0]), ("xi_y^d", traj.dcm[:, 1]),
        ("z_x^d", traj.zmp[:, 0]), ("z_y^d", traj.zmp[:, 1]),
        ("extzmp_x^ref", timeline.ext_zmp_ref[:, 0]),
        ("extzmp_y^ref", timeline.ext_zmp_ref[:, 1]),
    ):
        logged[name] = values[:steps]
    columns = {
        name: np.array(values, dtype=bool if name in EXTRA_COLUMNS else float)
        for name, values in logged.items()
    }
    return SimpleNamespace(
        columns=columns,
        diverged_at=diverged_at,
        failure=failure,
        failed_at=None if failure is None else float(traj.time[k]),
    )
