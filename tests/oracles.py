"""Independent reference implementations used as test oracles.

Nothing here calls into the package's QP solver or controller: the MPC
oracle condenses the horizon problem onto the input sequence and solves it
with scipy's bounded least squares, the DeePC oracle eliminates the
combination vector g by a null-space method and solves what is left the
same way, and the rollout helpers step the state equations directly. The soft-arm reference steps one control period at a
time on numpy 3-vectors, with its own least-squares bending inverse; it
shares only the forward tip map with the package. The KKT-residual
reference is the solver certifier's definition written out densely, one
array operation per term. stored_cost_matrix reads P back out of a built
solver, for tests of what the solver keeps.
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


def _weight_root(value, dim):
    """A root W^1/2 of a scalar or (dim, dim) PSD weight, by eigenvalues."""
    w = np.asarray(value, dtype=float)
    w = w * np.eye(dim) if w.ndim == 0 else 0.5 * (w + w.T)
    eigs, V = np.linalg.eigh(w)
    return np.sqrt(np.maximum(eigs, 0.0))[:, None] * V.T


def _range_and_null(M, scale=None):
    """(range basis, singular values, row-space basis, null basis) of M by SVD.

    Singular values below 1e-9 of scale (default: the largest) count as
    zero: noiseless Hankel data leaves its zero ones at round-off, up to
    about 1e-13 of the largest.
    """
    U, s, Vt = np.linalg.svd(M)
    rank = int(np.count_nonzero(s > 1e-9 * (s[0] if scale is None else scale)))
    return U[:, :rank], s[:rank], Vt[:rank].T, Vt[rank:].T


def deepc_input_space(data, cfg, u_ini, y_ini, refs):
    """The DeePC plan as a bounded least-squares problem in the future inputs.

    For fixed (u_ini, y_ini), every g with A g = b(u_f) (A = [Up; Uf], plus
    Yp under hard history, lambda_y = inf) is A^+ b(u_f) + N z with N a
    null-space basis of A from its SVD. The DeePC cost is ||M g - t||^2,
    so minimizing over z projects onto the complement of range(M N), which
    leaves a linear least-squares problem in u_f alone; the input box is its
    bound, and scipy's BVLS solves it. Returns (planned inputs (N, m), the
    DeePC cost at the optimum). A must have full row rank or b(u_f) must be
    consistent; nothing here reads the structure of a condensed matrix.
    """
    m, p, N = data.input_dim, data.output_dim, cfg.horizon
    hard = np.isinf(cfg.lambda_y)
    A = np.vstack([data.Up, data.Uf] + ([data.Yp] if hard else []))
    # b(u_f) = b0 + Sel u_f
    b0 = np.concatenate([u_ini, np.zeros(N * m)] + ([y_ini] if hard else []))
    Sel = np.zeros((len(b0), N * m))
    Sel[len(u_ini) : len(u_ini) + N * m] = np.eye(N * m)
    # the cost ||M g - t||^2, term by term
    Qr = np.kron(np.eye(N), _weight_root(cfg.Q, p))
    Rr = np.kron(np.eye(N), _weight_root(cfg.R, m))
    M_rows = [Qr @ data.Yf, Rr @ data.Uf]
    t_rows = [Qr @ np.asarray(refs, dtype=float).reshape(-1), np.zeros(N * m)]
    if not hard and cfg.lambda_y > 0:
        M_rows.append(np.sqrt(cfg.lambda_y) * data.Yp)
        t_rows.append(np.sqrt(cfg.lambda_y) * np.asarray(y_ini, dtype=float))
    if cfg.lambda_g > 0:
        M_rows.append(np.sqrt(cfg.lambda_g) * np.eye(A.shape[1]))
        t_rows.append(np.zeros(A.shape[1]))
    M, t = np.vstack(M_rows), np.concatenate(t_rows)

    W, s, V, Nb = _range_and_null(A)
    pinv = V @ (W.T / s[:, None])  # A^+
    G = M @ Nb
    # M N can vanish to round-off (noiseless data fixes Yf g from A g), so
    # its rank is judged against the scale of M
    B = (_range_and_null(G, np.linalg.norm(M, 2))[0] if G.size
         else np.zeros((len(t), 0)))

    def project(x):
        return x - B @ (B.T @ x)

    J = project(M @ (pinv @ Sel))
    h = project(t - M @ (pinv @ b0))
    lb = np.tile(np.broadcast_to(np.asarray(cfg.u_lower, dtype=float), (m,)), N)
    ub = np.tile(np.broadcast_to(np.asarray(cfg.u_upper, dtype=float), (m,)), N)
    if np.all(np.isinf(lb)) and np.all(np.isinf(ub)):
        u, *_ = np.linalg.lstsq(J, h, rcond=None)
    else:
        u = lsq_linear(J, h, bounds=(lb, ub), method="bvls", tol=1e-14,
                       lsq_solver="exact", max_iter=2000).x
    resid = J @ u - h
    return u.reshape(N, m), float(resid @ resid)


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


def kkt_residual_reference(P, A_eq, A_in, z, nu, y, q, b_eq, lower, upper):
    """(KKT residual, objective) of a QP point, densely.

    The certifier's definition, kept as a reference formula: stationarity,
    equality, box and complementarity residuals, each unscaled and relative
    with a floor of 1 in the denominator. A_eq or A_in may be None.
    """
    def _amax(x):
        return abs(x).max(initial=0.0)

    Pz = P @ z
    grad = Pz + q
    terms = [_amax(Pz), _amax(q)]
    if A_eq is not None:
        Ae_nu = A_eq.T @ nu
        grad += Ae_nu
        terms.append(_amax(Ae_nu))
    if A_in is not None:
        Ai_y = A_in.T @ y
        grad += Ai_y
        terms.append(_amax(Ai_y))
    r_stat = _amax(grad) / max(1.0, *terms)

    r_eq = 0.0
    if A_eq is not None:
        Az = A_eq @ z
        r_eq = _amax(Az - b_eq) / max(1.0, _amax(Az), _amax(b_eq))

    r_box = 0.0
    r_comp = 0.0
    if A_in is not None:
        Az = A_in @ z
        az = _amax(Az)
        fin_l, fin_u = np.isfinite(lower), np.isfinite(upper)
        # no bound is +inf below or -inf above, so viol is finite
        viol = np.maximum(np.maximum(lower - Az, Az - upper), 0.0)
        bound_mag = max(abs(lower).max(initial=0.0, where=fin_l),
                        abs(upper).max(initial=0.0, where=fin_u))
        r_box = viol.max(initial=0.0) / max(1.0, az, bound_mag)

        # complementarity: positive multiplier needs the upper gap closed,
        # negative the lower gap; min(|y|, gap) vanishes iff one of them does
        gap_u = np.where(fin_u, np.maximum(upper - Az, 0.0), np.inf)
        gap_l = np.where(fin_l, np.maximum(Az - lower, 0.0), np.inf)
        comp = np.where(y > 0, np.minimum(y, gap_u),
                        np.where(y < 0, np.minimum(-y, gap_l), 0.0))
        r_comp = comp.max(initial=0.0) / max(1.0, _amax(y), az)

    kkt = max(r_stat, r_eq, r_box, r_comp)
    return kkt, float(0.5 * z @ Pz + q @ z)


def stored_cost_matrix(solver):
    """P as a QpSolver keeps it, rebuilt from the buffer it shares with U.

    The strict lower triangle of that buffer holds P off the diagonal, and
    the solver keeps diag(P) on its own.
    """
    L = np.tril(solver._PU, -1)
    P = L + L.T
    P[np.diag_indices(solver.n)] = solver._diag_P
    return P
