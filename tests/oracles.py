"""Independent reference implementations the acceptance tests check against.

classical_preview_rollout integrates the textbook cart-table preview loop
with explicit scalar updates, so it shares nothing with the package's
trajectory generator except the synthesized gains. finite_horizon_ls_inputs
solves the same tracking problem as a dense least-squares program with a
Riccati tail cost from scipy, which is an entirely different solution path
than the recursive preview law. step_pg is one sample of the package's
preview law with the feedforward as a plain np.sum per window, which the
package's rollout must match to the last bit.
"""

import numpy as np
import scipy.linalg


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
