"""Dense convex QP solver with exact equalities and two-sided bound rows.

    minimize    0.5 z' P z + q' z
    subject to  A_eq z = b_eq
                lower <= A_in z <= upper

Method: an active-set solve in the multiplier space, started from the
working set of the last certified solve on the same solver. This is the
online active-set idea of qpOASES (Ferreau, Bock & Diehl, 2008) applied to
the polish step of OSQP (Stellato et al., 2020): in a receding-horizon loop
the active set moves little between solves, so the previous working set is
a close start. With P > 0 a sweep factors only the working-set block of the
cached Gram matrix A P^-1 A' and reads the bound rows off the multipliers;
z is formed once at the end. A singular P takes a regularized KKT solve
instead.

Operator-splitting ADMM (Ruiz equilibration, per-row step sizes) is the
fallback: it runs when there is no certified previous working set or the
warm result does not certify, and its multiplier signs seed the same
active-set solve. Plain ADMM iterates are accepted only if they certify on
their own.

Every "optimal" result is certified by the KKT residual. All residuals are
reported unscaled and relative with a floor of 1 in the denominator, so
well-scaled problems see absolute tolerances and large problems are judged
proportionally.

A QpSolver instance caches factorizations for a fixed (P, A_eq, A_in)
structure so a receding-horizon loop pays the dense factorization once.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, lu_factor, lu_solve
from scipy.linalg.lapack import dpotrf, dpotrs

__all__ = ["QpSolution", "QpSolver"]

_SIGMA = 1e-6       # primal regularization inside ADMM
_ALPHA = 1.6        # over-relaxation
_RHO0 = 0.1         # base step size (scaled space)
_RHO_EQ_SCALE = 1e3  # stiffer step on equality rows
_POLISH_DELTA = 1e-9
_CHECK_EVERY = 25
_POLISH_EVERY = 250  # periodic polish attempt on ill-conditioned problems
_RHO_UPDATE_EVERY = 100
_MAX_REFACTOR = 10


def _vec(x, n, name):
    arr = np.asarray(x, dtype=float).reshape(-1)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got shape {np.shape(x)}")
    return arr


def _rows(A, n, name):
    """A read-only (rows, n) copy of a constraint matrix, or None.

    A copy, so that freezing it leaves the caller's array writable.
    """
    if A is None:
        return None
    A = np.array(A, dtype=float, order="C")
    if A.ndim != 2 or A.shape[1] != n:
        raise ValueError(f"{name} must be (rows, {n}), got {A.shape}")
    A.flags.writeable = False
    return A


@dataclass(frozen=True)
class QpSolution:
    """Result of one solve.

    iterations counts ADMM iterations, so it is 0 on the warm path. path
    names how the result was reached: "warm" when the active-set solve from
    the previous working set certified without ADMM, "admm" when ADMM ran and
    its result (or its seeded active-set solve) certified, and "uncertified"
    when status is not "optimal".
    """

    z_star: np.ndarray
    objective: float
    status: str
    kkt_residual: float
    iterations: int
    multipliers_eq: np.ndarray
    multipliers_in: np.ndarray
    path: str


def _ruiz_equilibrate(P, A, iterations=10):
    """Diagonal scalings D (primal) and E (rows of A) balancing the KKT matrix."""
    n = P.shape[0]
    m = A.shape[0]
    D = np.ones(n)
    E = np.ones(m)
    Ps = P.copy()
    As = A.copy()
    for _ in range(iterations):
        cp = np.maximum(
            np.max(np.abs(Ps), axis=0, initial=0.0),
            np.max(np.abs(As), axis=0, initial=0.0) if m else 0.0,
        )
        dp = 1.0 / np.sqrt(np.where(cp > 1e-12, cp, 1.0))
        if m:
            cd = np.max(np.abs(As), axis=1, initial=0.0)
            de = 1.0 / np.sqrt(np.where(cd > 1e-12, cd, 1.0))
        else:
            de = np.ones(0)
        Ps = dp[:, None] * Ps * dp[None, :]
        if m:
            As = de[:, None] * As * dp[None, :]
        D *= dp
        E *= de
    return D, E


def _finite(x, name):
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    return x


class QpSolver:
    """Solver bound to fixed (P, A_eq, A_in); q, b_eq and bounds vary per solve.

    Reusing one instance across a receding-horizon loop amortizes the Ruiz
    scaling, the ADMM factorization and the polish Gram matrix, and lets each
    solve start from the working set of the last certified one.
    """

    def __init__(self, P, A_eq=None, A_in=None):
        P = np.asarray(P, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError(f"P must be square, got shape {P.shape}")
        asym = np.max(np.abs(P - P.T), initial=0.0)
        if asym > 1e-10 * max(1.0, np.max(np.abs(P), initial=0.0)):
            raise ValueError(f"P is not symmetric (max asymmetry {asym:.3e})")
        self.P = 0.5 * (P + P.T)
        self.P.flags.writeable = False
        self.n = P.shape[0]
        self.A_eq = _rows(A_eq, self.n, "A_eq")
        self.A_in = _rows(A_in, self.n, "A_in")
        self.n_e = 0 if self.A_eq is None else self.A_eq.shape[0]
        self.n_i = 0 if self.A_in is None else self.A_in.shape[0]

        blocks = [M for M in (self.A_eq, self.A_in) if M is not None and len(M)]
        self.A_all = np.vstack(blocks) if blocks else np.zeros((0, self.n))
        self.m_rows = self.A_all.shape[0]

        if self.m_rows:
            self.D, self.E = _ruiz_equilibrate(self.P, self.A_all)
            self.P_s = self.D[:, None] * self.P * self.D[None, :]
            self.A_s = self.E[:, None] * self.A_all * self.D[None, :]
        else:
            self.D = np.ones(self.n)
            self.E = np.zeros(0)
            self.P_s = self.P
            self.A_s = self.A_all

        self._admm_factor_cache: dict[bytes, tuple] = {}

        # polish in multiplier space on the Gram matrix A P^-1 A' when P > 0
        self._chol_P = None
        self._polish_Y = None
        self._polish_gram = None
        try:
            self._chol_P = cho_factor(self.P)
        except (np.linalg.LinAlgError, ValueError):
            self._chol_P = None
        if self._chol_P is not None:
            self._polish_Y = cho_solve(self._chol_P, self.A_all.T)
            self._polish_gram = self.A_all @ self._polish_Y

        # orthonormal basis of range(A_eq) and its largest singular value,
        # kept only when A_eq has dependent rows: otherwise every b_eq is
        # consistent
        self._eq_range = None
        if self.n_e:
            U, s, _ = np.linalg.svd(self.A_eq, full_matrices=False)
            rank = int(np.count_nonzero(s > s[0] * max(self.A_eq.shape)
                                        * np.finfo(float).eps))
            if rank < self.n_e:
                self._eq_range = (U[:, :rank], s[0])

        # warm-start memory for repeated solves: the ADMM iterate and the
        # working set (rows held at lower, rows held at upper) of the last
        # certified solve
        self._last_x = None
        self._last_y = None
        self._working_set = None

    # ---------------- residual bookkeeping ----------------

    def _kkt_residual(self, z, nu, y, q, b_eq, lower, upper):
        """Relative KKT residual with floor 1, plus the feasibility part alone."""
        Pz = self.P @ z
        grad = Pz + q
        terms = [np.max(np.abs(Pz), initial=0.0), np.max(np.abs(q), initial=0.0)]
        if self.n_e:
            Ae_nu = self.A_eq.T @ nu
            grad = grad + Ae_nu
            terms.append(np.max(np.abs(Ae_nu), initial=0.0))
        if self.n_i:
            Ai_y = self.A_in.T @ y
            grad = grad + Ai_y
            terms.append(np.max(np.abs(Ai_y), initial=0.0))
        r_stat = np.max(np.abs(grad), initial=0.0) / max(1.0, *terms)

        r_eq = 0.0
        if self.n_e:
            Az = self.A_eq @ z
            scale = max(1.0, np.max(np.abs(Az), initial=0.0),
                        np.max(np.abs(b_eq), initial=0.0))
            r_eq = np.max(np.abs(Az - b_eq), initial=0.0) / scale

        r_box = 0.0
        r_comp = 0.0
        if self.n_i:
            Az = self.A_in @ z
            viol = np.maximum(np.maximum(lower - Az, Az - upper), 0.0)
            viol = np.where(np.isfinite(viol), viol, 0.0)
            bound_mag = np.abs(np.concatenate([lower[np.isfinite(lower)],
                                               upper[np.isfinite(upper)]]))
            scale = max(1.0, np.max(np.abs(Az), initial=0.0),
                        np.max(bound_mag, initial=0.0))
            r_box = np.max(viol, initial=0.0) / scale

            # complementarity: positive multiplier needs the upper gap closed,
            # negative the lower gap; min(|y|, gap) vanishes iff one of them does
            gap_u = np.where(np.isfinite(upper), np.maximum(upper - Az, 0.0), np.inf)
            gap_l = np.where(np.isfinite(lower), np.maximum(Az - lower, 0.0), np.inf)
            comp = np.where(y > 0, np.minimum(y, gap_u),
                            np.where(y < 0, np.minimum(-y, gap_l), 0.0))
            cscale = max(1.0, np.max(np.abs(y), initial=0.0),
                         np.max(np.abs(Az), initial=0.0))
            r_comp = np.max(comp, initial=0.0) / cscale

        kkt = max(r_stat, r_eq, r_box, r_comp)
        feas = max(r_eq, r_box)
        return kkt, feas

    def _eq_consistent(self, b_eq):
        """Whether b_eq lies in range(A_eq), at the tolerance of matrix_rank."""
        if self._eq_range is None:
            return True
        B, s_max = self._eq_range
        resid = np.linalg.norm(b_eq - B @ (B.T @ b_eq))
        # the largest singular value of [A_eq | b_eq] is at most this
        s_aug = np.hypot(s_max, np.linalg.norm(b_eq))
        return resid <= s_aug * max(self.n_e, self.n + 1) * np.finfo(float).eps

    # ---------------- polish ----------------

    def _polish(self, q, b_eq, lower, upper, low, up, max_sweeps=25):
        """Active-set solve from a working set of inequality rows.

        low and up are boolean masks of the rows held at their lower and
        upper bound. Each sweep solves the equality-constrained QP on the
        working set, then adds rows the solution pushed out of the box and
        drops rows whose multiplier sign contradicts the side they are pinned
        to, until the set stops changing. With P > 0 a sweep works on the
        cached Gram matrix alone: it solves for the multipliers and reads
        A_in z off them, and z itself is formed once at the end. Returns
        (z, nu_eq, y, low, up) or None; the caller certifies the result, so a
        bad outcome is merely discarded.
        """
        pinned = lower == upper
        # a row cannot be held at an infinite bound
        low = (low & np.isfinite(lower)) | pinned
        up = up & np.isfinite(upper) & ~pinned
        gram = self._polish_gram
        if gram is not None:
            Pinv_q = cho_solve(self._chol_P, q, check_finite=False)
            a = self.A_all @ Pinv_q
        for sweep in range(max_sweeps):
            rows_l = np.flatnonzero(low)
            rows_u = np.flatnonzero(up)
            idx = np.concatenate([np.arange(self.n_e), self.n_e + rows_l,
                                  self.n_e + rows_u])
            h = np.concatenate([b_eq, lower[rows_l], upper[rows_u]])
            z = None
            nu = None if gram is None else self._gram_solve(idx, -a[idx] - h)
            if nu is None:
                z, nu = self._kkt_solve(q, idx, h)
                Az = self.A_in @ z if self.n_i else np.zeros(0)
            else:
                Az = -a[self.n_e:] - gram[self.n_e:, idx] @ nu
            if not np.all(np.isfinite(nu)):
                return None
            k_l = self.n_e + len(rows_l)
            y = np.zeros(self.n_i)
            y[rows_l] = nu[self.n_e : k_l]
            y[rows_u] = nu[k_l:]

            scale = max(1.0, float(np.max(np.abs(Az), initial=0.0)))
            tol = 1e-11 * scale
            # a low-pinned row wants y <= 0, an up-pinned row y >= 0
            new_low = (low & ~((y > tol) & ~pinned)) | (Az < lower - tol)
            new_up = ((up & ~(y < -tol)) | (Az > upper + tol)) & ~new_low
            if (sweep == max_sweeps - 1 or (np.array_equal(new_low, low)
                                            and np.array_equal(new_up, up))):
                break
            low, up = new_low, new_up

        if z is None:
            z = -Pinv_q - self._polish_Y[:, idx] @ nu
        if not np.all(np.isfinite(z)):
            return None
        return z, nu[: self.n_e], y, low, up

    def _gram_solve(self, idx, rhs):
        """Multipliers from S nu = rhs with S the Gram block of rows idx.

        S + delta I is factored and the solution refined against S itself;
        returns None when the factorization fails.
        """
        if not len(idx):
            return np.zeros(0)
        S = self._polish_gram[np.ix_(idx, idx)]
        # LAPACK directly: a sweep's blocks are small, so call overhead counts
        cS, info = dpotrf(S + _POLISH_DELTA * np.eye(len(idx)), clean=False)
        if info:
            return None
        nu = dpotrs(cS, rhs)[0]
        for _ in range(3):
            nu = nu + dpotrs(cS, rhs - S @ nu)[0]
        return nu

    def _kkt_solve(self, q, idx, h):
        """Regularized KKT solve with iterative refinement; returns (z, nu).

        The path for singular P, and for Gram blocks too ill-conditioned for
        a Cholesky factorization.
        """
        G = self.A_all[idx]
        k = len(idx)
        K = np.zeros((self.n + k, self.n + k))
        K[: self.n, : self.n] = self.P + _POLISH_DELTA * np.eye(self.n)
        K[: self.n, self.n :] = G.T
        K[self.n :, : self.n] = G
        K[self.n :, self.n :] = -_POLISH_DELTA * np.eye(k)
        lu = lu_factor(K, check_finite=False)
        sol = lu_solve(lu, np.concatenate([-q, h]), check_finite=False)
        z, nu = sol[: self.n], sol[self.n :]
        for _ in range(3):
            r1 = -q - self.P @ z - G.T @ nu
            r2 = h - G @ z
            d = lu_solve(lu, np.concatenate([r1, r2]), check_finite=False)
            z = z + d[: self.n]
            nu = nu + d[self.n :]
        return z, nu

    # ---------------- ADMM ----------------

    def _admm_factor(self, rho):
        key = rho.tobytes()
        hit = self._admm_factor_cache.get(key)
        if hit is None:
            M = self.P_s + _SIGMA * np.eye(self.n) + (self.A_s.T * rho) @ self.A_s
            hit = cho_factor(M)
            if len(self._admm_factor_cache) > 16:
                self._admm_factor_cache.clear()
            self._admm_factor_cache[key] = hit
        return hit

    def solve(self, q, b_eq=None, lower=None, upper=None, warm_start=None,
              tol_kkt=1e-8, tol_feas=1e-8, max_iter=20000):
        """Solve for one (q, b_eq, lower, upper) on the bound matrices.

        The active-set solve runs first, from the working set of the previous
        solve when that one certified, or from the empty set when there are
        no inequality rows. ADMM runs only when there is no such seed or its
        result does not certify; warm_start, if given, is the ADMM starting
        point. q, b_eq and warm_start must be finite, the bounds free of NaN;
        b_eq or bounds given to a solver without such rows are an error.
        """
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        q = _finite(_vec(q, self.n, "q"), "q")
        if self.n_e:
            if b_eq is None:
                raise ValueError("solver has equality rows but b_eq is None")
            b_eq = _finite(_vec(b_eq, self.n_e, "b_eq"), "b_eq")
        elif b_eq is not None and len(np.atleast_1d(b_eq)):
            raise ValueError("b_eq given but solver has no equality rows")
        else:
            b_eq = np.zeros(0)
        if self.n_i:
            lower = np.full(self.n_i, -np.inf) if lower is None else _vec(lower, self.n_i, "lower")
            upper = np.full(self.n_i, np.inf) if upper is None else _vec(upper, self.n_i, "upper")
            if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
                raise ValueError("bounds must not contain NaN")
            if np.any(lower > upper):
                raise ValueError("lower must be <= upper elementwise")
        elif any(b is not None and len(np.atleast_1d(b)) for b in (lower, upper)):
            raise ValueError("lower/upper given but solver has no inequality rows")
        else:
            lower = upper = np.zeros(0)
        if warm_start is not None:
            warm_start = _finite(_vec(warm_start, self.n, "warm_start"), "warm_start")

        def finish(z, nu, y, kkt, feas, iters, path, working_set=None,
                   failure="max_iterations"):
            # only a certified result seeds the next solve
            certified = kkt <= tol_kkt and feas <= tol_feas
            if not certified:
                path, working_set = "uncertified", None
            self._working_set = working_set
            return QpSolution(
                z_star=z, objective=float(0.5 * z @ self.P @ z + q @ z),
                status="optimal" if certified else failure,
                kkt_residual=float(kkt), iterations=iters,
                multipliers_eq=nu, multipliers_in=y, path=path,
            )

        # equality system consistency gates everything downstream
        if not self._eq_consistent(b_eq):
            z, *_ = np.linalg.lstsq(self.A_eq, b_eq, rcond=None)
            nu, y = np.zeros(self.n_e), np.zeros(self.n_i)
            kkt, _ = self._kkt_residual(z, nu, y, q, b_eq, lower, upper)
            return finish(z, nu, y, kkt, np.inf, 0, "uncertified", failure="infeasible")

        seed = self._working_set
        if not self.n_i:
            seed = (np.zeros(0, dtype=bool), np.zeros(0, dtype=bool))
        if seed is not None:
            polished = self._polish(q, b_eq, lower, upper, *seed)
            if polished is not None:
                z, nu, y, low, up = polished
                kkt, feas = self._kkt_residual(z, nu, y, q, b_eq, lower, upper)
                if kkt <= tol_kkt and feas <= tol_feas:
                    self._remember_iterate(z, nu, y)
                    return finish(z, nu, y, kkt, feas, 0, "warm", (low, up))

        l_all = np.concatenate([b_eq, lower])
        u_all = np.concatenate([b_eq, upper])
        l_s = self.E * np.where(np.isfinite(l_all), l_all, 0.0)
        l_s = np.where(np.isfinite(l_all), l_s, -np.inf)
        u_s = self.E * np.where(np.isfinite(u_all), u_all, 0.0)
        u_s = np.where(np.isfinite(u_all), u_s, np.inf)
        q_s = self.D * q

        eq_mask = np.isfinite(l_all) & np.isfinite(u_all) & (l_all == u_all)
        rho_base = _RHO0
        rho = np.where(eq_mask, _RHO_EQ_SCALE * rho_base, rho_base)

        if warm_start is not None:
            x = warm_start / self.D
            y = np.zeros(self.m_rows)
        elif self._last_x is not None:
            x = self._last_x.copy()
            y = self._last_y.copy()
        else:
            x = np.zeros(self.n)
            y = np.zeros(self.m_rows)
        zc = np.clip(self.A_s @ x, l_s, u_s)

        factor = self._admm_factor(rho)
        best = None
        refactors = 0
        polish_gate = max(1e3 * tol_kkt, 1e-6)
        iters_done = max_iter

        for it in range(1, max_iter + 1):
            rhs = _SIGMA * x - q_s + self.A_s.T @ (rho * zc - y)
            x_t = cho_solve(factor, rhs, check_finite=False)
            z_t = self.A_s @ x_t
            x = _ALPHA * x_t + (1.0 - _ALPHA) * x
            z_mix = _ALPHA * z_t + (1.0 - _ALPHA) * zc
            zc = np.clip(z_mix + y / rho, l_s, u_s)
            y = y + rho * (z_mix - zc)

            if it % _CHECK_EVERY == 0 or it == max_iter:
                z_u = self.D * x
                y_u = self.E * y
                nu_u = y_u[: self.n_e]
                yin_u = y_u[self.n_e :]
                kkt, feas = self._kkt_residual(z_u, nu_u, yin_u, q, b_eq, lower, upper)
                if best is None or kkt < best[0]:
                    best = (kkt, z_u.copy(), nu_u.copy(), yin_u.copy(),
                            (yin_u < 0, yin_u > 0))
                raw_ok = kkt <= tol_kkt and feas <= tol_feas
                # polish first: a certified polish is near-exact, while a raw
                # iterate merely sits at the tolerance boundary. Ill-conditioned
                # problems can plateau far above the gate with the active set
                # nearly correct, so also try on the first check (warm starts
                # land close) and periodically after that.
                if (raw_ok or kkt <= polish_gate or it == _CHECK_EVERY
                        or it % _POLISH_EVERY == 0):
                    polished = self._polish(q, b_eq, lower, upper,
                                            yin_u < 0, yin_u > 0)
                    if polished is not None:
                        pz, pnu, py, plow, pup = polished
                        pkkt, pfeas = self._kkt_residual(pz, pnu, py, q, b_eq,
                                                         lower, upper)
                        if pkkt <= tol_kkt and pfeas <= tol_feas:
                            best = (pkkt, pz, pnu, py, (plow, pup))
                            iters_done = it
                            break
                        if pkkt < best[0]:
                            best = (pkkt, pz, pnu, py, (plow, pup))
                    polish_gate = max(polish_gate / 10.0, tol_kkt)
                if raw_ok:
                    iters_done = it
                    break

            if it % _RHO_UPDATE_EVERY == 0 and refactors < _MAX_REFACTOR:
                r_prim = np.max(np.abs(self.A_s @ x - zc), initial=0.0)
                r_dual = np.max(np.abs(self.P_s @ x + q_s + self.A_s.T @ y),
                                initial=0.0)
                p_sc = max(np.max(np.abs(self.A_s @ x), initial=0.0),
                           np.max(np.abs(zc), initial=0.0), 1e-12)
                d_sc = max(np.max(np.abs(self.P_s @ x), initial=0.0),
                           np.max(np.abs(q_s), initial=0.0),
                           np.max(np.abs(self.A_s.T @ y), initial=0.0), 1e-12)
                ratio = np.sqrt((r_prim / p_sc) / max(r_dual / d_sc, 1e-16))
                if ratio > 5.0 or ratio < 0.2:
                    rho_base = float(np.clip(rho_base * ratio, 1e-6, 1e6))
                    rho = np.where(eq_mask, _RHO_EQ_SCALE * rho_base, rho_base)
                    factor = self._admm_factor(rho)
                    refactors += 1

        kkt, z_u, nu_u, yin_u, working_set = best
        _, feas = self._kkt_residual(z_u, nu_u, yin_u, q, b_eq, lower, upper)
        self._remember_iterate(z_u, nu_u, yin_u)
        return finish(z_u, nu_u, yin_u, kkt, feas, iters_done, "admm", working_set)

    def _remember_iterate(self, z, nu, y):
        """Keep a solution, in scaled space, as the next ADMM starting point."""
        self._last_x = z / self.D
        self._last_y = np.concatenate([nu, y]) / np.where(self.E > 0, self.E, 1.0)

