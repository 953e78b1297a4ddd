"""Independent reference implementations used as test oracles.

Nothing here calls into the package's QP solver or controller: the MPC
oracle condenses the horizon problem onto the input sequence and solves it
with scipy's bounded least squares, and the rollout helpers step the state
equations directly. The soft-arm reference steps one control period at a
time on numpy 3-vectors, with its own least-squares bending inverse; it
shares only the forward tip map with the package.
"""

import numpy as np
from scipy.optimize import lsq_linear

from softdeepc.kinematics import cc_forward


def random_minimal_lti(rng, n, m, p, spectral_radius=0.85, d_scale=0.1):
    """Random stable LTI realization, redrawn until controllable/observable."""
    for _ in range(50):
        A = rng.standard_normal((n, n))
        radius = max(abs(np.linalg.eigvals(A)))
        if radius == 0:
            continue
        A *= spectral_radius / radius
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((p, n))
        D = d_scale * rng.standard_normal((p, m))
        ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
        obsv = np.vstack([C @ np.linalg.matrix_power(A, k) for k in range(n)])
        if (np.linalg.matrix_rank(ctrb) == n and np.linalg.matrix_rank(obsv) == n):
            return A, B, C, D
    raise RuntimeError("could not draw a minimal realization")


def rollout(A, B, C, D, u_seq, x0=None):
    """Outputs for an input sequence; y(t) uses the pre-update state."""
    n = A.shape[0]
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    ys = []
    for u in np.atleast_2d(u_seq):
        ys.append(C @ x + D @ u)
        x = A @ x + B @ u
    return np.array(ys), x


def prediction_matrices(A, B, C, D, N):
    """y_stack = Phi x0 + Gamma u_stack over an N-step horizon."""
    n = A.shape[0]
    m = B.shape[1]
    p = C.shape[0]
    Phi = np.zeros((N * p, n))
    Gamma = np.zeros((N * p, N * m))
    Ak = np.eye(n)
    powers = [Ak]
    for _ in range(N):
        Ak = A @ Ak
        powers.append(Ak)
    for k in range(N):
        Phi[k * p : (k + 1) * p] = C @ powers[k]
        Gamma[k * p : (k + 1) * p, k * m : (k + 1) * m] = D
        for j in range(k):
            blk = C @ powers[k - 1 - j] @ B
            Gamma[k * p : (k + 1) * p, j * m : (j + 1) * m] = blk
    return Phi, Gamma


def model_mpc(A, B, C, D, x0, Q, R, refs, u_lower, u_upper):
    """Model-based horizon QP: min sum ||y-r||_Q^2 + ||u||_R^2, box on u.

    Condensed onto the stacked input vector and solved with bounded least
    squares; Q must be positive definite and R positive definite for the
    square-root weighting.
    """
    refs = np.atleast_2d(np.asarray(refs, dtype=float))
    N, p = refs.shape
    m = B.shape[1]
    Phi, Gamma = prediction_matrices(A, B, C, D, N)
    Wy = np.kron(np.eye(N), np.linalg.cholesky(np.atleast_2d(Q)).T)
    Wu = np.kron(np.eye(N), np.linalg.cholesky(np.atleast_2d(R)).T)
    target = refs.reshape(-1) - Phi @ np.asarray(x0, dtype=float)
    G = np.vstack([Wy @ Gamma, Wu])
    h = np.concatenate([Wy @ target, np.zeros(N * m)])
    lb = np.tile(np.broadcast_to(np.asarray(u_lower, dtype=float), (m,)), N)
    ub = np.tile(np.broadcast_to(np.asarray(u_upper, dtype=float), (m,)), N)
    if np.all(np.isinf(lb)) and np.all(np.isinf(ub)):
        u, *_ = np.linalg.lstsq(G, h, rcond=None)
    else:
        res = lsq_linear(G, h, bounds=(lb, ub), tol=1e-14, lsq_solver="exact",
                         max_iter=500)
        u = res.x
    return u.reshape(N, m)


def collect_lti_dataset(A, B, C, D, rng, T, amplitude=1.0, x0=None):
    """Open-loop random-input experiment on the true plant."""
    m = B.shape[1]
    u = amplitude * rng.standard_normal((T, m))
    y, _ = rollout(A, B, C, D, u, x0=x0)
    return u, y


def bending_lstsq(lengths, geom):
    """(phi_b, gamma_g) from cable lengths by the least-squares normal equations.

    The numpy form c = (2/3) M' delta with M = [cos(theta), sin(theta)], as
    a vectorized reference for the package's float bending_from_lengths.
    """
    lengths = np.asarray(lengths, dtype=float).reshape(3)
    theta = np.asarray(geom.cable_angles)
    delta = (geom.segment_length - lengths) / geom.cable_offset
    c1 = (2.0 / 3.0) * float(np.cos(theta) @ delta)
    c2 = (2.0 / 3.0) * float(np.sin(theta) @ delta)
    phi_b = float(np.hypot(c1, c2))
    gamma_g = float(np.arctan2(c2, c1)) if phi_b > 1e-12 else 0.0
    if gamma_g < 0.0:
        gamma_g += 2.0 * np.pi
    return min(phi_b, np.pi * (1.0 - 1e-12)), gamma_g


def arm_step_reference(lag_lengths, u, dt, geom, tau, disturbances, rng):
    """One control period of the soft-arm surrogate, on numpy 3-vectors.

    The per-period form of the plant: clamp u to [0, 90], the exact
    first-order lag toward the commanded lengths, the least-squares
    bending, sag and stiffness distortion, the tip, then three noise
    draws. Returns (lag_lengths, phi_b, gamma_g, tip). The tip comes from
    cc_forward, whose series branch covers the straight arm.
    """
    u = np.clip(np.asarray(u, dtype=float).reshape(3), 0.0, 90.0)
    l_cmd = geom.segment_length - geom.u_to_length_gain * u
    l_new = l_cmd + (np.asarray(lag_lengths, dtype=float) - l_cmd) * np.exp(-dt / tau)
    phi_nom, gamma = bending_lstsq(l_new, geom)
    sagged = phi_nom + disturbances.gravity_sag * np.sin(phi_nom)
    phi = sagged * (1.0 + disturbances.stiffness_eps * np.cos(3.0 * gamma))
    phi = float(min(max(phi, 0.0), np.pi * (1.0 - 1e-12)))
    tip = cc_forward(phi, gamma, geom.segment_length)
    if disturbances.noise_std > 0.0:
        tip = tip + rng.normal(0.0, disturbances.noise_std, size=3)
    return l_new, phi, gamma, tip
