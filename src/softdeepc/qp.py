"""Dense convex QP solver with exact equalities and two-sided bound rows.

    minimize    0.5 z' P z + q' z
    subject to  A_eq z = b_eq
                lower <= A_in z <= upper

Method: an active-set solve in the multiplier space, after the online
active-set idea of qpOASES (Ferreau, Bock & Diehl, 2008). With P > 0 the
equality rows are eliminated once, at construction, in whitened coordinates:
with the Cholesky factor P = U'U and X = U^-T A' (A the equality rows over
the bound rows), the Gram matrix is S = A P^-1 A' = X'X. The solver factors
its equality block S_ee and keeps the Schur complement
C = S_ii - S_ie S_ee^-1 S_ei of the bound rows. Each sweep then
factors only the block of C on the working set (the rows held at a bound),
reads A_in z off the bound multipliers, and adds or drops rows until the
set stops changing; nu and z are formed once at the end. Dependent equality
rows are replaced by the same number of independent ones spanning their
range, and their multipliers are mapped back. A singular P, or a block whose
Cholesky factorization fails, takes a regularized KKT solve instead.

Construction reads P in one finiteness check and one exact-symmetry check,
keeps an exactly symmetric P as given (a nearly symmetric one costs one
n x n copy for its symmetric part), and then does one Cholesky factorization
(dpotrf), one triangular solve with the rows as right-hand sides (dtrsm)
and one symmetric product X'X. The factor U is the only n x n array of
floats it makes; X and the map of bound multipliers are n x rows.

With P > 0 a solve reads the n x n data in three level-2 BLAS passes and
copies nothing of that size: w = U^-T q and z = -U^-1 (w + X_e nu0 + X_W y)
are the two triangular solves on the cached factor, and the certifier's P z
is one symmetric product, which also gives the objective. The rest of the
solve works on the n x rows maps and the small blocks.

The working set of the last certified solve seeds the next solve ("warm"),
shifted forward by seed_shift rows. In a receding-horizon loop whose bound
rows are the future inputs, a shift of one input block lines the previous
plan up with the current one. A plan that stands still over the horizon (a
saturated steady state) does not move that way, so the set stays unshifted
when the step before matched it better unshifted. Without a seed the solve
starts from the empty working set ("cold").

Operator-splitting ADMM (Ruiz equilibration, per-row step sizes) is the
fallback: it runs only when the active-set result does not certify, and its
multiplier signs seed the same active-set solve. Its scalings and scaled
matrices are built on first use. Plain ADMM iterates are accepted only if
they certify on their own.

Every "optimal" result is certified by the KKT residual. All residuals are
reported unscaled and relative with a floor of 1 in the denominator, so
well-scaled problems see absolute tolerances and large problems are judged
proportionally.
"""

import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, lu_factor, lu_solve
from scipy.linalg.blas import dsymv, dtrsm, dtrsv
from scipy.linalg.lapack import dpotrf, dpotrs

from .hankel import singular_value_rank
from .reduction import left_singular

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
    """A read-only, finite (rows, n) copy of a constraint matrix, or None.

    A copy, so that freezing it leaves the caller's array writable.
    """
    if A is None:
        return None
    A = np.array(A, dtype=float, order="C")
    if A.ndim != 2 or A.shape[1] != n:
        raise ValueError(f"{name} must be (rows, {n}), got {A.shape}")
    _finite(A, name)
    A.flags.writeable = False
    return A


def _symmetric(P):
    """A read-only C-ordered view of a finite square P, or its symmetric part.

    An exactly symmetric P is kept as given, without a copy. Otherwise
    P - P' is formed once: it measures the asymmetry, which must be within
    1e-10 of max |P|, and its buffer then receives 0.5 (P + P').
    """
    if (P == P.T).all():
        S = np.ascontiguousarray(P).view()
    else:
        S = np.subtract(P, P.T, order="C")
        asym = max(S.max(), -S.min())
        if asym > 1e-10 * max(1.0, P.max(), -P.min()):
            raise ValueError(f"P is not symmetric (max asymmetry {asym:.3e})")
        S = np.add(P, P.T, out=S)
        S *= 0.5
    S.flags.writeable = False
    return S


def _spd_factor(S):
    """Cholesky factor of S + delta I for a PSD block S, or None on failure.

    LAPACK directly: a sweep's blocks are small, so call overhead counts.
    """
    if not len(S):
        return S
    cS, info = dpotrf(S + _POLISH_DELTA * np.eye(len(S)), clean=False)
    return None if info else cS


def _spd_solve(S, cS, rhs):
    """S x = rhs from the factor of S + delta I, refined against S itself."""
    if not len(S):
        return np.zeros(rhs.shape)
    x = dpotrs(cS, rhs)[0]
    for _ in range(3):
        x = x + dpotrs(cS, rhs - S @ x)[0]
    return x


@dataclass(frozen=True)
class QpSolution:
    """Result of one solve.

    path names how the result was reached: "warm" when the active-set solve
    from the shifted working set of the previous certified solve certified,
    "cold" when there was no such set and the active-set solve from the
    empty working set certified, "admm" when ADMM ran and its result (or its
    seeded active-set solve) certified, and "uncertified" when status is not
    "optimal". iterations counts ADMM iterations, so it is 0 on the warm and
    cold paths; sweeps counts active-set sweeps over all attempts in the
    solve, 0 if none ran.
    """

    z_star: np.ndarray
    objective: float
    status: str
    kkt_residual: float
    iterations: int
    multipliers_eq: np.ndarray
    multipliers_in: np.ndarray
    path: str
    sweeps: int


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


def _amax(x):
    """max |x|, 0 for an empty x; the ndarray method skips np.max's dispatch."""
    return abs(x).max(initial=0.0)


def _finite(x, name):
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
    return x


class QpSolver:
    """Solver bound to fixed (P, A_eq, A_in); q, b_eq and bounds vary per solve.

    Construction factors P, eliminates the equality rows and keeps the Schur
    complement of the bound rows, so each solve of a receding-horizon loop
    factors only small working-set blocks. Each solve starts from the
    working set of the last certified one, or from the empty set when there
    is none. With seed_shift > 0 that set is first moved forward by
    seed_shift rows, the last seed_shift rows repeating the ones before
    them, unless the step before matched it better unmoved. The ADMM
    fallback's state is built on its first use.
    """

    def __init__(self, P, A_eq=None, A_in=None, seed_shift=0):
        P = np.asarray(P, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError(f"P must be square, got shape {P.shape}")
        self.seed_shift = operator.index(seed_shift)
        if self.seed_shift < 0:
            raise ValueError(f"seed_shift must be >= 0, got {seed_shift}")
        # C-ordered, so that self.P.T is an F-ordered view BLAS reads in place
        self.P = _symmetric(_finite(P, "P"))
        self.n = P.shape[0]
        self.A_eq = _rows(A_eq, self.n, "A_eq")
        self.A_in = _rows(A_in, self.n, "A_in")
        self.n_e = 0 if self.A_eq is None else self.A_eq.shape[0]
        self.n_i = 0 if self.A_in is None else self.A_in.shape[0]
        A_i = self.A_in if self.n_i else np.zeros((0, self.n))

        # the equality rows the active-set solve works with: A_eq itself, or
        # W_r' A_eq when A_eq has dependent rows, with W_r an orthonormal
        # basis of range(A_eq). The basis and the largest singular value are
        # kept only then: otherwise every b_eq is consistent.
        self._eq_range = None
        A_e = np.zeros((0, self.n))
        if self.n_e:
            W, s = left_singular(self.A_eq)
            rank = singular_value_rank(s, self.A_eq.shape)
            A_e = self.A_eq
            if rank < self.n_e:
                self._eq_range = (W[:, :rank], s[0])
                A_e = W[:, :rank].T @ self.A_eq
        self._rows_kkt = np.vstack([A_e, A_i])
        self._n_e_solve = A_e.shape[0]

        # Schur complement of the bound rows in the Gram matrix A P^-1 A',
        # in whitened coordinates: with P = U'U and X = U^-T A', the Gram
        # matrix is S = X'X. T = S_ee^-1 S_ei, C = S_ii - S_ie T, and
        # X_W = X_i - X_e T maps bound multipliers to U z. Needs P > 0 and
        # S_ee > 0; otherwise every sweep takes the KKT solve. U is F-ordered
        # (dpotrf reads the F-ordered view P.T, equal to P) and only its upper
        # triangle is ever read, so it is not cleaned.
        self._C = None
        U, info = dpotrf(self.P.T, lower=0, clean=0)
        if not info:
            X = dtrsm(1.0, U, self._rows_kkt.T, lower=0, trans_a=1)
            S = X.T @ X
            k = self._n_e_solve
            S_ee, S_ei, S_ii = S[:k, :k], S[:k, k:], S[k:, k:]
            c_ee = _spd_factor(S_ee)
            if c_ee is not None:
                T = _spd_solve(S_ee, c_ee, S_ei)
                C = S_ii - S_ei.T @ T
                self._S_ee, self._c_ee = S_ee, c_ee
                self._S_ie = np.ascontiguousarray(S_ei.T)
                self._T = T
                self._C = 0.5 * (C + C.T)
                self._U = U
                self._X = X
                self._X_e = X[:, :k]
                self._X_W = X[:, k:] - self._X_e @ T

        # ADMM state (Ruiz scalings, scaled matrices, factor cache), built
        # on first ADMM use
        self._admm = None
        self._admm_factor_cache: dict[bytes, tuple] = {}

        # warm-start memory for repeated solves: the last solution (z and its
        # multipliers, as the next ADMM starting point) and the working set
        # (rows held at lower, rows held at upper) of the last certified solve
        self._last_iterate = None
        self._working_set = self._previous_set = None

    # ---------------- residual bookkeeping ----------------

    def _kkt_residual(self, z, nu, y, q, b_eq, lower, upper):
        """(KKT residual, its feasibility part, objective) at z.

        Residuals are relative with floor 1. P z is one dsymv on the
        F-ordered view of the symmetric P, and it gives the objective too.
        """
        Pz = dsymv(1.0, self.P.T, z)
        grad = Pz + q
        terms = [_amax(Pz), _amax(q)]
        if self.n_e:
            Ae_nu = self.A_eq.T @ nu
            grad += Ae_nu
            terms.append(_amax(Ae_nu))
        if self.n_i:
            Ai_y = self.A_in.T @ y
            grad += Ai_y
            terms.append(_amax(Ai_y))
        r_stat = _amax(grad) / max(1.0, *terms)

        r_eq = 0.0
        if self.n_e:
            Az = self.A_eq @ z
            r_eq = _amax(Az - b_eq) / max(1.0, _amax(Az), _amax(b_eq))

        r_box = 0.0
        r_comp = 0.0
        if self.n_i:
            Az = self.A_in @ z
            az = _amax(Az)
            fin_l, fin_u = np.isfinite(lower), np.isfinite(upper)
            viol = np.maximum(np.maximum(lower - Az, Az - upper), 0.0)
            viol = np.where(np.isfinite(viol), viol, 0.0)
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
        feas = max(r_eq, r_box)
        return kkt, feas, float(0.5 * z @ Pz + q @ z)

    def _eq_consistent(self, b_eq):
        """Whether b_eq lies in range(A_eq), at the tolerance of matrix_rank."""
        if self._eq_range is None:
            return True
        B, s_max = self._eq_range
        resid = np.linalg.norm(b_eq - B @ (B.T @ b_eq))
        # the largest singular value of [A_eq | b_eq] is at most this
        s_aug = np.hypot(s_max, np.linalg.norm(b_eq))
        return resid <= s_aug * max(self.n_e, self.n + 1) * np.finfo(float).eps

    # ---------------- active set ----------------

    def _shifted(self, working_set):
        """A working set moved forward by seed_shift rows, the last rows repeated."""
        s = self.seed_shift
        return tuple(np.concatenate([w[s:], w[-s:]]) for w in working_set)

    def _seed(self):
        """The working set the next solve starts from, or None.

        The last certified set, moved forward by seed_shift rows unless the
        step before matched it better unmoved: a plan that stands still over
        the horizon (a saturated steady state, say) keeps its set as it is.
        """
        current, previous = self._working_set, self._previous_set
        if current is None or not self.seed_shift:
            return current
        if previous is not None:
            def misses(seed):
                return sum(np.count_nonzero(a != b) for a, b in zip(seed, current))
            if misses(self._shifted(previous)) >= misses(previous):
                return current
        return self._shifted(current)

    def _active_set(self, q, b_e, lower, upper, low, up, max_sweeps=25):
        """Active-set solve from a working set of inequality rows.

        b_e is the right-hand side of the solve's equality rows. low and up
        are boolean masks of the rows held at their lower and upper bound.
        Each sweep solves the equality-constrained QP on the working set,
        then adds rows the solution pushed out of the box and drops rows
        whose multiplier sign contradicts the side they are pinned to, until
        the set stops changing. On the Schur complement a sweep solves for
        the bound multipliers alone and reads A_in z off them. Returns
        ((z, nu_eq, y, low, up) or None, sweeps); the caller certifies the
        result, so a bad outcome is merely discarded.
        """
        pinned = lower == upper
        # a row cannot be held at an infinite bound
        low = (low & np.isfinite(lower)) | pinned
        up = up & np.isfinite(upper) & ~pinned
        C = self._C
        k_e = self._n_e_solve
        if C is not None:
            # w = U^-T q, so that A P^-1 q = X'w. This and the solve for z
            # below are the two triangular solves on the cached upper factor
            # (P = U'U), each reading its triangle in place from the
            # F-ordered array
            w = dtrsv(self._U, q, trans=1)
            a = self._X.T @ w
            nu0 = _spd_solve(self._S_ee, self._c_ee, -a[:k_e] - b_e)
            r = -a[k_e:] - self._S_ie @ nu0
        for sweep in range(1, max_sweeps + 1):
            act = np.concatenate([np.flatnonzero(low), np.flatnonzero(up)])
            h = np.where(low, lower, upper)[act]
            z = None
            y = np.zeros(self.n_i)
            cC = None
            if C is not None:
                C_aa = C[act[:, None], act]
                cC = _spd_factor(C_aa)
            if cC is not None:
                y[act] = _spd_solve(C_aa, cC, r[act] - h)
                Az = r - C @ y
            else:
                z, nu, y[act] = self._kkt_solve(q, b_e, act, h)
                Az = self._rows_kkt[k_e:] @ z
            if not np.isfinite(y).all():
                return None, sweep

            scale = max(1.0, float(_amax(Az)))
            tol = 1e-11 * scale
            # a low-pinned row wants y <= 0, an up-pinned row y >= 0
            new_low = (low & ~((y > tol) & ~pinned)) | (Az < lower - tol)
            new_up = ((up & ~(y < -tol)) | (Az > upper + tol)) & ~new_low
            if sweep == max_sweeps or ((new_low == low).all() and (new_up == up).all()):
                break
            low, up = new_low, new_up

        if z is None:
            nu = nu0 - self._T @ y
            # z = -P^-1 (q + A_e' nu0 + (A_i - T' A_e)' y)
            z = -dtrsv(self._U, w + self._X_e @ nu0 + self._X_W @ y, overwrite_x=1)
        if not (np.isfinite(z).all() and np.isfinite(nu).all()):
            return None, sweep
        if self._eq_range is not None:
            nu = self._eq_range[0] @ nu
        return (z, nu, y, low, up), sweep

    def _kkt_solve(self, q, b_e, act, h):
        """Regularized KKT solve with iterative refinement; returns (z, nu, y_act).

        The path for singular P, and for blocks too ill-conditioned for a
        Cholesky factorization.
        """
        k_e = self._n_e_solve
        G = self._rows_kkt[np.concatenate([np.arange(k_e), k_e + act])]
        k = len(G)
        K = np.zeros((self.n + k, self.n + k))
        K[: self.n, : self.n] = self.P + _POLISH_DELTA * np.eye(self.n)
        K[: self.n, self.n :] = G.T
        K[self.n :, : self.n] = G
        K[self.n :, self.n :] = -_POLISH_DELTA * np.eye(k)
        h = np.concatenate([b_e, h])
        lu = lu_factor(K, check_finite=False)
        sol = lu_solve(lu, np.concatenate([-q, h]), check_finite=False)
        z, mult = sol[: self.n], sol[self.n :]
        for _ in range(3):
            r1 = -q - self.P @ z - G.T @ mult
            r2 = h - G @ z
            d = lu_solve(lu, np.concatenate([r1, r2]), check_finite=False)
            z = z + d[: self.n]
            mult = mult + d[self.n :]
        return z, mult[:k_e], mult[k_e:]

    # ---------------- ADMM ----------------

    def _admm_state(self):
        """(D, E, P_s, A_s): Ruiz scalings and the scaled matrices, built once."""
        if self._admm is None:
            blocks = [M for M in (self.A_eq, self.A_in) if M is not None and len(M)]
            A_all = np.vstack(blocks) if blocks else np.zeros((0, self.n))
            if len(A_all):
                D, E = _ruiz_equilibrate(self.P, A_all)
                P_s = D[:, None] * self.P * D[None, :]
                A_s = E[:, None] * A_all * D[None, :]
            else:
                D, E, P_s, A_s = np.ones(self.n), np.zeros(0), self.P, A_all
            self._admm = (D, E, P_s, A_s)
        return self._admm

    def _admm_factor(self, rho):
        key = rho.tobytes()
        hit = self._admm_factor_cache.get(key)
        if hit is None:
            _, _, P_s, A_s = self._admm_state()
            M = P_s + _SIGMA * np.eye(self.n) + (A_s.T * rho) @ A_s
            hit = cho_factor(M)
            if len(self._admm_factor_cache) > 16:
                self._admm_factor_cache.clear()
            self._admm_factor_cache[key] = hit
        return hit

    def solve(self, q, b_eq=None, lower=None, upper=None,
              tol_kkt=1e-8, tol_feas=1e-8, max_iter=20000):
        """Solve for one (q, b_eq, lower, upper) on the bound matrices.

        The active-set solve runs first, from the shifted working set of the
        previous solve when that one certified, and from the empty set
        otherwise. ADMM runs only when that result does not certify, from
        the last solution or from zero. q and b_eq must be finite, the
        bounds free of NaN; b_eq or bounds given to a solver without such
        rows are an error.
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
            if np.isnan(lower).any() or np.isnan(upper).any():
                raise ValueError("bounds must not contain NaN")
            if (lower > upper).any():
                raise ValueError("lower must be <= upper elementwise")
        elif any(b is not None and len(np.atleast_1d(b)) for b in (lower, upper)):
            raise ValueError("lower/upper given but solver has no inequality rows")
        else:
            lower = upper = np.zeros(0)

        sweeps = 0

        def finish(z, nu, y, kkt, feas, objective, iters, path, working_set=None,
                   failure="max_iterations"):
            # only a certified result seeds the next solve
            certified = kkt <= tol_kkt and feas <= tol_feas
            if not certified:
                path, working_set = "uncertified", None
            self._previous_set = None if working_set is None else self._working_set
            self._working_set = working_set
            return QpSolution(
                z_star=z, objective=objective,
                status="optimal" if certified else failure,
                kkt_residual=float(kkt), iterations=iters,
                multipliers_eq=nu, multipliers_in=y, path=path, sweeps=sweeps,
            )

        # equality system consistency gates everything downstream
        if not self._eq_consistent(b_eq):
            z, *_ = np.linalg.lstsq(self.A_eq, b_eq, rcond=None)
            nu, y = np.zeros(self.n_e), np.zeros(self.n_i)
            kkt, _, objective = self._kkt_residual(z, nu, y, q, b_eq, lower, upper)
            return finish(z, nu, y, kkt, np.inf, objective, 0, "uncertified",
                          failure="infeasible")
        b_e = b_eq if self._eq_range is None else self._eq_range[0].T @ b_eq

        seed = self._seed()
        path = "warm"
        if seed is None:
            seed = (np.zeros(self.n_i, dtype=bool),) * 2
            path = "cold"
        result, sweeps = self._active_set(q, b_e, lower, upper, *seed)
        if result is not None:
            z, nu, y, low, up = result
            kkt, feas, objective = self._kkt_residual(z, nu, y, q, b_eq, lower, upper)
            if kkt <= tol_kkt and feas <= tol_feas:
                self._remember_iterate(z, nu, y)
                return finish(z, nu, y, kkt, feas, objective, 0, path, (low, up))

        D, E, P_s, A_s = self._admm_state()
        l_all = np.concatenate([b_eq, lower])
        u_all = np.concatenate([b_eq, upper])
        l_s = E * np.where(np.isfinite(l_all), l_all, 0.0)
        l_s = np.where(np.isfinite(l_all), l_s, -np.inf)
        u_s = E * np.where(np.isfinite(u_all), u_all, 0.0)
        u_s = np.where(np.isfinite(u_all), u_s, np.inf)
        q_s = D * q

        eq_mask = np.isfinite(l_all) & np.isfinite(u_all) & (l_all == u_all)
        rho_base = _RHO0
        rho = np.where(eq_mask, _RHO_EQ_SCALE * rho_base, rho_base)

        if self._last_iterate is not None:
            x = self._last_iterate[0] / D
            y = self._last_iterate[1] / np.where(E > 0, E, 1.0)
        else:
            x = np.zeros(self.n)
            y = np.zeros(len(E))
        zc = np.clip(A_s @ x, l_s, u_s)

        factor = self._admm_factor(rho)
        best = None
        refactors = 0
        polish_gate = max(1e3 * tol_kkt, 1e-6)
        iters_done = max_iter

        for it in range(1, max_iter + 1):
            rhs = _SIGMA * x - q_s + A_s.T @ (rho * zc - y)
            x_t = cho_solve(factor, rhs, check_finite=False)
            z_t = A_s @ x_t
            x = _ALPHA * x_t + (1.0 - _ALPHA) * x
            z_mix = _ALPHA * z_t + (1.0 - _ALPHA) * zc
            zc = np.clip(z_mix + y / rho, l_s, u_s)
            y = y + rho * (z_mix - zc)

            if it % _CHECK_EVERY == 0 or it == max_iter:
                z_u = D * x
                y_u = E * y
                nu_u = y_u[: self.n_e]
                yin_u = y_u[self.n_e :]
                kkt, feas, _ = self._kkt_residual(z_u, nu_u, yin_u, q, b_eq,
                                                  lower, upper)
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
                    polished, k = self._active_set(q, b_e, lower, upper,
                                                   yin_u < 0, yin_u > 0)
                    sweeps += k
                    if polished is not None:
                        pz, pnu, py, plow, pup = polished
                        pkkt, pfeas, _ = self._kkt_residual(pz, pnu, py, q, b_eq,
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
                r_prim = np.max(np.abs(A_s @ x - zc), initial=0.0)
                r_dual = np.max(np.abs(P_s @ x + q_s + A_s.T @ y), initial=0.0)
                p_sc = max(np.max(np.abs(A_s @ x), initial=0.0),
                           np.max(np.abs(zc), initial=0.0), 1e-12)
                d_sc = max(np.max(np.abs(P_s @ x), initial=0.0),
                           np.max(np.abs(q_s), initial=0.0),
                           np.max(np.abs(A_s.T @ y), initial=0.0), 1e-12)
                ratio = np.sqrt((r_prim / p_sc) / max(r_dual / d_sc, 1e-16))
                if ratio > 5.0 or ratio < 0.2:
                    rho_base = float(np.clip(rho_base * ratio, 1e-6, 1e6))
                    rho = np.where(eq_mask, _RHO_EQ_SCALE * rho_base, rho_base)
                    factor = self._admm_factor(rho)
                    refactors += 1

        kkt, z_u, nu_u, yin_u, working_set = best
        _, feas, objective = self._kkt_residual(z_u, nu_u, yin_u, q, b_eq,
                                                lower, upper)
        self._remember_iterate(z_u, nu_u, yin_u)
        return finish(z_u, nu_u, yin_u, kkt, feas, objective, iters_done, "admm",
                      working_set)

    def _remember_iterate(self, z, nu, y):
        """Keep a solution, unscaled, as the next ADMM starting point."""
        self._last_iterate = (z, np.concatenate([nu, y]))
