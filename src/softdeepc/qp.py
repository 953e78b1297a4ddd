"""Dense convex QP solver with exact equalities and two-sided bound rows.

    minimize    0.5 z' P z + q' z
    subject to  A_eq z = b_eq
                lower <= A_in z <= upper

Method: active-set solves in the multiplier space, after the online
active-set idea of qpOASES (Ferreau, Bock & Diehl, 2008). P must be
positive definite: the solver raises ValueError at construction when its
Cholesky factorization fails or a pivot^2 is below 1e-11 of max diag(P).
A P singular to round-off can pass; then only the KKT certificate of each
solve keeps it from "optimal".
The equality rows are eliminated once, at construction, in whitened
coordinates: with the Cholesky factor P = U'U and X = U^-T A' (A the
equality rows over the bound rows), the Gram matrix is S = A P^-1 A' = X'X.
The solver factors its equality block S_ee and keeps the Schur complement
C = S_ii - S_ie S_ee^-1 S_ei of the bound rows. A solve then factors only
blocks of C on the working set (the rows held at a bound), reads A_in z off
the bound multipliers, and forms nu and z once at the end. Dependent equality
rows are replaced by the same number of independent ones spanning their
range, and their multipliers are mapped back.

Each block (S_ee once, at construction; a block of C per working set) is
factored as it is, and an unshifted Cholesky solve, being backward stable,
is used without refinement. A block whose factorization fails, or has a
pivot below 1e-10 of its diagonal entry (a repeated row makes one), is
factored again shifted by delta = 1e-9, and only then are its solves refined
against the block itself. An S_ee whose shifted factorization fails too is
an error at construction; a block of C that fails so ends the warm sweep,
and ends the dual solve "inaccurate".

Construction reads P in one pass over square tiles, which checks that it is
finite and exactly symmetric with no n x n temporary, and proves full row
rank of the equality rows from their Gram matrix (an SVD runs only when that
fails). It then does one Cholesky factorization (dpotrf), one triangular
solve with the rows as right-hand sides (dtrsm) and one symmetric product
X'X. P and its factor share one n x n buffer: dpotrf writes U over the
upper triangle and leaves the strict lower one, which still holds P, and
the solver keeps diag(P) as n floats. The buffer is a P handed over as
hankel._Made (no copy at all), the symmetric part of a nearly symmetric P,
or one copy of a caller's exactly symmetric P, which stays as it was. X is
n x rows, and the stacked rows [A_eq; A_in] are the solver's one copy of
the constraint matrices.

A solve copies no n-column array and reads each at most twice. The n x n
data takes three level-2 BLAS passes: w = U^-T q and z = -U^-1 (w + X [nu; y])
are the two triangular solves on the cached factor, and the certifier's P z
is one symmetric product on the lower triangle with the diagonal corrected
from diag(U) to diag(P), which also gives the objective. X takes two products, X'w and X [nu; y]; the stacked rows
take one for A z, and A_eq and A_in one each for the certifier's gradient.
The rest of the solve works on the small blocks.

The working set of the last certified solve seeds the next solve, shifted
forward by seed_shift rows, and sweeps from there ("warm"): each sweep holds
the set, then adds every row pushed out of the box and drops every
wrong-signed one, until the set stops changing or returns to a set it held
before (the sweeps cycle). In a receding-horizon loop whose bound rows are
the future inputs, a shift of one input block lines the previous plan up
with the current one. A plan that stands still over the horizon (a
saturated steady state) does not move that way, so the set stays unshifted
when the step before matched it better unshifted.

Without a seed, or when the seeded sweep does not certify, the dual
active-set method of Goldfarb & Idnani (Math. Prog. 27, 1983) runs on the
same Schur complement ("cold"). With the equalities eliminated, the dual is
a QP in the bound multipliers with sign constraints. It starts from the
unconstrained minimum (the empty working set), adds the pinned rows
(lower == upper), then adds the most violated row at each step with the
primal-dual step length, dropping a row whose multiplier reaches zero on
the way. It ends in a finite number of working-set changes, and reports
the problem infeasible when no step can reduce a violation.

Every "optimal" result is certified by the KKT residual: the largest of
the stationarity, equality, bound and complementarity residuals must be at
most _TOL_KKT = 1e-8. All residuals are reported unscaled and relative with
a floor of 1 in the denominator, so well-scaled problems see absolute
tolerances and large problems are judged proportionally. The tolerance and
the dual solve's cap of _MAX_CHANGES = 20000 working-set changes are the
solver's own constants, not settings: the dual solve ends in a finite number
of changes, so the cap is only a guard.
"""

import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsymv, dtrsm, dtrsv
from scipy.linalg.lapack import dpotrf, dpotrs

from .hankel import _gram_certifies, _Made, singular_value_rank
from .reduction import left_singular

__all__ = ["QpSolution", "QpSolver"]

_DELTA = 1e-9  # the shift of a block whose own factorization fails
_TOL_KKT = 1e-8  # a result certifies when its KKT residual is at most this
_MAX_CHANGES = 20000  # cap on the dual solve's working-set changes
# a row whose Schur complement pivot is below this share of its own Gram
# entry a' P^-1 a lies in the span of the equality rows and the working set
_DEPENDENT = 1e-10
# a P whose smallest Cholesky pivot^2 is below this share of max diag(P) is
# singular to round-off. Measured: P's with one free direction that factor
# read at most 2.0e-13 (50x below), the package's positive definite P's at
# least 4.2e-10 (42x above)
_SINGULAR = 1e-11


def _vec(x, n, name):
    arr = np.asarray(x, dtype=float).reshape(-1)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got shape {np.shape(x)}")
    return arr


def _stacked_rows(A_eq, A_in, n):
    """([A_eq; A_in], n_e, n_i): one read-only, finite C-ordered copy.

    A missing block (None) has no rows. A copy, so that freezing it leaves
    the caller's arrays writable.
    """
    parts, counts = [], []
    for name, A in (("A_eq", A_eq), ("A_in", A_in)):
        if A is None:
            counts.append(0)
            continue
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[1] != n:
            raise ValueError(f"{name} must be (rows, {n}), got {A.shape}")
        parts.append(_finite(A, name))
        counts.append(A.shape[0])
    rows = np.vstack(parts) if parts else np.zeros((0, n))
    rows.flags.writeable = False
    return rows, *counts


# _symmetric reads P in square tiles of this many rows and columns, so its
# checks make no n x n temporary
_TILE = 256


def _finite_and_exactly_symmetric(P):
    """Whether a square P equals P' exactly; ValueError if P is not finite.

    Each tile above the diagonal is compared with its mirror tile, and a
    tile equal to its finite mirror is finite too. So every entry is read
    at most twice, and the largest temporary is one tile's boolean mask.
    """
    n = P.shape[0]
    symmetric = True
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            upper, lower = P[i : i + _TILE, j : j + _TILE], P[j : j + _TILE, i : i + _TILE].T
            if symmetric and (upper == lower).all():
                _finite(upper, "P")
            else:
                symmetric = False
                _finite(upper, "P")
                _finite(lower, "P")
    return symmetric


def _symmetric(P, made):
    """A writable C-ordered buffer holding a finite square P or its symmetric part.

    An exactly symmetric P is the buffer itself when it was made for the
    solver (made) and is writable and C-ordered, else it is copied once: the
    f2py wrapper of dpotrf with overwrite_a writes into an F-ordered view
    even when it is read-only. Otherwise P - P' is formed once: it measures
    the asymmetry, which must be within 1e-10 of max |P|, and its buffer
    then receives 0.5 (P + P').
    """
    if _finite_and_exactly_symmetric(P):
        if made and P.flags.c_contiguous and P.flags.writeable:
            return P
        return np.array(P, order="C")
    S = np.subtract(P, P.T, order="C")
    asym = max(S.max(), -S.min())
    if asym > 1e-10 * max(1.0, P.max(), -P.min()):
        raise ValueError(f"P is not symmetric (max asymmetry {asym:.3e})")
    S = np.add(P, P.T, out=S)
    S *= 0.5
    return S


def _spd_factor(S):
    """Cholesky factor of a PSD block S as (factor, shifted), or None on failure.

    S itself is factored first. A factorization that fails, or that has a
    pivot below _DEPENDENT of its diagonal entry (S is singular to working
    precision: a repeated row, say), is redone on S + delta I, and only
    such a shifted factor is refined in _spd_solve. LAPACK directly: a
    sweep's blocks are small, so call overhead counts.
    """
    if not len(S):
        return S, False
    cS, info = dpotrf(S, clean=False)
    if not info:
        d = cS.diagonal()
        if (d * d > _DEPENDENT * S.diagonal()).all():
            return cS, False
    cS, info = dpotrf(S + _DELTA * np.eye(len(S)), clean=False)
    return None if info else (cS, True)


def _spd_solve(S, factor, rhs):
    """S x = rhs from _spd_factor's result.

    An unshifted Cholesky solve is backward stable and is used as it is; the
    factor of S + delta I is refined against S itself.
    """
    if not len(S):
        return np.zeros(rhs.shape)
    cS, shifted = factor
    x = dpotrs(cS, rhs)[0]
    if shifted:
        for _ in range(3):
            x = x + dpotrs(cS, rhs - S @ x)[0]
    return x


@dataclass(frozen=True)
class QpSolution:
    """Result of one solve.

    status is "optimal" when the result certifies, "infeasible" when the
    equalities are inconsistent or the dual solve finds that no step can
    reduce a bound violation, "max_iterations" when the dual solve reaches
    _MAX_CHANGES working-set changes, and "inaccurate" when a solve ended
    but its result does not certify.

    path names how the result was reached: "warm" when the sweep from the
    shifted working set of the previous certified solve certified, "cold"
    when the dual solve from the empty working set certified, and
    "uncertified" when status is not "optimal". iterations counts the dual
    solve's working-set changes, so it is 0 on the warm path; sweeps counts
    the warm try's active-set sweeps, so a "cold" result with sweeps > 0
    followed a warm try that did not certify.
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


def _amax(x):
    """max |x|, 0 for an empty x; the ndarray method skips np.max's dispatch."""
    return abs(x).max(initial=0.0)


def _bound_mag(lower, upper):
    """The largest finite |bound|, the certifier's bound scale (0 without one).

    Also the bounds' entry check: one pass per side when every bound is
    finite, and a ValueError for a NaN, a lower bound of +inf or an upper
    bound of -inf.
    """
    mag_l, mag_u = abs(lower).max(initial=0.0), abs(upper).max(initial=0.0)
    if mag_l < np.inf and mag_u < np.inf:
        return max(mag_l, mag_u)
    if np.isnan(lower).any() or np.isnan(upper).any():
        raise ValueError("bounds must not contain NaN")
    if not ((lower < np.inf).all() and (upper > -np.inf).all()):
        raise ValueError("no row can meet a lower bound of +inf or an "
                         "upper bound of -inf")
    return max(abs(lower).max(initial=0.0, where=lower > -np.inf),
               abs(upper).max(initial=0.0, where=upper < np.inf))


def _finite(x, name):
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
    return x


class QpSolver:
    """Solver bound to fixed (P, A_eq, A_in); q, b_eq and bounds vary per solve.

    Construction factors P, which must be positive definite, eliminates the
    equality rows and keeps the Schur complement of the bound rows, so each
    solve of a receding-horizon loop factors only small working-set blocks.
    A P whose Cholesky factorization fails or has a pivot singular to
    round-off, or equality rows whose Gram block does not factor even
    shifted, raise ValueError; a P singular to round-off can pass, and its
    solves then rest on the KKT certificate alone. P may be handed over as
    hankel._Made: the solver then factors that array in place and empties
    the wrapper. A caller's plain P is copied once and left as it was.
    Each solve first sweeps from the working set of the last certified one.
    With seed_shift > 0 that set is first moved forward by seed_shift rows,
    the last seed_shift rows repeating the ones before them, unless the step
    before matched it better unmoved. Without such a set, or when the sweep
    does not certify, the dual solve runs from the empty set.
    """

    def __init__(self, P, A_eq=None, A_in=None, seed_shift=0):
        made = isinstance(P, _Made)
        P = np.asarray(P.take() if made else P, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError(f"P must be square, got shape {P.shape}")
        self.seed_shift = operator.index(seed_shift)
        if self.seed_shift < 0:
            raise ValueError(f"seed_shift must be >= 0, got {seed_shift}")
        # C-ordered, so that its transpose is an F-ordered view that
        # LAPACK factors in place
        P = _symmetric(P, made)
        self.n = P.shape[0]
        # [A_eq; A_in] is the solver's one copy of the constraint rows: the
        # certifier reads A z off it in one product, and A_eq and A_in are
        # views of it (None without such rows)
        self._rows, self.n_e, self.n_i = _stacked_rows(A_eq, A_in, self.n)
        self.A_eq = self._rows[: self.n_e] if self.n_e else None
        self.A_in = self._rows[self.n_e :] if self.n_i else None

        # the equality rows the active-set solve works with: A_eq itself, or
        # W_r' A_eq when A_eq has dependent rows, with W_r an orthonormal
        # basis of range(A_eq). The basis and the largest singular value are
        # kept only then: otherwise every b_eq is consistent. The Gram
        # certificate proves full row rank without an SVD, which runs only
        # when it fails.
        self._eq_range = None
        rows = self._rows
        if self.n_e and not _gram_certifies(self.A_eq):
            W, s = left_singular(self.A_eq)
            rank = singular_value_rank(s, self.A_eq.shape)
            if rank < self.n_e:
                self._eq_range = (W[:, :rank], s[0])
                rows = np.vstack([W[:, :rank].T @ self.A_eq, self._rows[self.n_e :]])
        self._n_e_solve = k = rows.shape[0] - self.n_i

        # Schur complement of the bound rows in the Gram matrix A P^-1 A',
        # in whitened coordinates: with P = U'U and X = U^-T A', the Gram
        # matrix is S = X'X. T = S_ee^-1 S_ei and C = S_ii - S_ie T. dpotrf
        # factors the F-ordered view P.T, equal to P, in place: U over its
        # upper triangle, P left in its strict lower one, which the
        # certifier reads with the kept diag(P).
        self._diag_P = P.diagonal().copy()
        U, info = dpotrf(P.T, lower=0, clean=0, overwrite_a=1)
        if info:
            raise ValueError("P must be positive definite: its Cholesky "
                             f"factorization fails at column {info}")
        pivot = U.diagonal().min() ** 2 / self._diag_P.max()
        if pivot < _SINGULAR:
            raise ValueError("P must be positive definite: its smallest Cholesky "
                             f"pivot^2 is {pivot:.1e} of max diag(P), singular "
                             "to round-off")
        U.flags.writeable = False
        self._PU = U
        self._diag_gap = self._diag_P - U.diagonal()
        X = dtrsm(1.0, U, rows.T, lower=0, trans_a=1)
        S = X.T @ X
        S_ee, S_ei, S_ii = S[:k, :k], S[:k, k:], S[k:, k:]
        c_ee = _spd_factor(S_ee)
        if c_ee is None:
            raise ValueError("the equality rows' Gram matrix A_eq P^-1 A_eq' "
                             "does not factor, even shifted")
        T = _spd_solve(S_ee, c_ee, S_ei)
        C = S_ii - S_ei.T @ T
        self._S_ee, self._c_ee = S_ee, c_ee
        self._S_ie = np.ascontiguousarray(S_ei.T)
        self._T = T
        self._C = 0.5 * (C + C.T)
        self._X = X
        self._pivot_min = _DEPENDENT * np.diag(S_ii)

        # the working set (rows held at lower, rows held at upper) of the
        # last certified solve, and the one before it
        self._working_set = self._previous_set = None

    # ---------------- residual bookkeeping ----------------

    def _kkt_residual(self, z, nu, y, q, b_eq, lower, upper, bound_mag):
        """(KKT residual, objective) at z.

        Residuals are relative with floor 1; bound_mag is the largest finite
        |bound| (_bound_mag). P z is one dsymv on the lower triangle of the
        buffer P shares with U, whose diagonal holds diag(U), plus
        (diag P - diag U) z; it gives the objective too. A z is one product
        with the stacked rows.
        """
        Pz = dsymv(1.0, self._PU, z, lower=1)
        Pz += self._diag_gap * z
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

        Az = self._rows @ z
        r_eq = 0.0
        if self.n_e:
            Ae_z = Az[: self.n_e]
            r_eq = _amax(Ae_z - b_eq) / max(1.0, _amax(Ae_z), _amax(b_eq))

        r_box = 0.0
        r_comp = 0.0
        if self.n_i:
            Ai_z = Az[self.n_e :]
            az = _amax(Ai_z)
            # no bound is +inf below or -inf above: a gap is finite or +inf
            gap_u = upper - Ai_z
            gap_l = Ai_z - lower
            r_box = max(0.0, -gap_u.min(), -gap_l.min()) / max(1.0, az, bound_mag)

            # complementarity: positive multiplier needs the upper gap closed,
            # negative the lower gap; min(|y|, gap) vanishes iff one of them does
            gap = np.maximum(np.where(y > 0, gap_u, gap_l), 0.0)
            abs_y = abs(y)
            comp = np.minimum(abs_y, gap)
            r_comp = comp.max(initial=0.0) / max(1.0, abs_y.max(initial=0.0), az)

        kkt = max(r_stat, r_eq, r_box, r_comp)
        return kkt, float(0.5 * (z @ Pz) + q @ z)

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
        return np.concatenate([working_set[:, s:], working_set[:, -s:]], axis=1)

    def _seed(self):
        """The working set the next solve starts from, or None.

        The last certified set, moved forward by seed_shift rows unless the
        step before matched it better unmoved: a plan that stands still over
        the horizon (a saturated steady state, say) keeps its set as it is.
        A working set is one (2, n_i) boolean array: the rows held at their
        lower bound over those held at their upper bound.
        """
        current, previous = self._working_set, self._previous_set
        if current is None or not self.seed_shift:
            return current
        if previous is not None:
            if (np.count_nonzero(self._shifted(previous) != current)
                    >= np.count_nonzero(previous != current)):
                return current
        return self._shifted(current)

    def _reduced(self, q, b_e):
        """(w, nu0, r) on the Schur complement.

        w = U^-T q, so that A P^-1 q = X'w, one product over X; nu0 are the
        equality multipliers with no bound row held, from the factor of S_ee
        made at construction, and r = A_in z at them. With y the bound
        multipliers, A_in z = r - C y. The solve for w and the one for z in
        _primal are the two triangular solves on the cached upper factor
        (P = U'U), each reading its triangle in place from the F-ordered
        array.
        """
        k_e = self._n_e_solve
        w = dtrsv(self._PU, q, trans=1)
        a = self._X.T @ w
        nu0 = _spd_solve(self._S_ee, self._c_ee, -a[:k_e] - b_e)
        return w, nu0, -a[k_e:] - self._S_ie @ nu0

    def _hold(self, r, act, h):
        """Hold the rows act at h: (y, A_in z), or None.

        y comes from the factor of the block C[act, act], and A_in z is
        r - C y. None when the block does not factor, even shifted.
        """
        C_aa = self._C[act[:, None], act]
        cC = _spd_factor(C_aa)
        if cC is None:
            return None
        y = np.zeros(self.n_i)
        y[act] = _spd_solve(C_aa, cC, r[act] - h)
        return y, r - self._C @ y

    def _primal(self, w, nu0, y):
        """(z, nu) for the bound multipliers y, or None if not finite.

        nu = nu0 - T y and z = -P^-1 (q + A_e' nu + A_i' y), which is
        -U^-1 (w + X [nu; y]), one product and one triangular solve.
        """
        nu = nu0 - self._T @ y
        z = -dtrsv(self._PU, w + self._X @ np.concatenate([nu, y]), overwrite_x=1)
        if not (np.isfinite(z).all() and np.isfinite(nu).all()):
            return None
        if self._eq_range is not None:
            nu = self._eq_range[0] @ nu
        return z, nu

    def _active_set(self, q, b_e, lower, upper, low, up, max_sweeps=25):
        """Active-set sweeps from a working set of inequality rows.

        b_e is the right-hand side of the solve's equality rows. low and up
        are boolean masks of the rows held at their lower and upper bound.
        Each sweep solves the equality-constrained QP on the working set,
        then adds rows the solution pushed out of the box and drops rows
        whose multiplier sign contradicts the side they are pinned to, until
        the set stops changing. On the Schur complement a sweep solves for
        the bound multipliers alone and reads A_in z off them. A sweep is a
        fixed map of the working set, so a set seen before means the sweeps
        cycle: they stop there, as they do after max_sweeps. A block that
        does not factor ends the sweeps with no result. Returns
        ((z, nu_eq, y, low, up) or None, sweeps); the caller certifies the
        result, so a bad outcome is merely discarded.
        """
        pinned = lower == upper
        # a row cannot be held at an infinite bound
        low = (low & np.isfinite(lower)) | pinned
        up = up & np.isfinite(upper) & ~pinned
        w, nu0, r = self._reduced(q, b_e)
        seen = {low.tobytes() + up.tobytes()}
        for sweep in range(1, max_sweeps + 1):
            act = (low | up).nonzero()[0]
            held = self._hold(r, act, np.where(low, lower, upper)[act])
            if held is None or not np.isfinite(held[0]).all():
                return None, sweep
            y, Az = held

            scale = max(1.0, float(_amax(Az)))
            tol = 1e-11 * scale
            # a low-pinned row wants y <= 0, an up-pinned row y >= 0
            new_low = (low & ((y <= tol) | pinned)) | (Az < lower - tol)
            new_up = ((up & (y >= -tol)) | (Az > upper + tol)) & ~new_low
            key = new_low.tobytes() + new_up.tobytes()
            if sweep == max_sweeps or key in seen:
                break
            seen.add(key)
            low, up = new_low, new_up

        primal = self._primal(w, nu0, y)
        if primal is None:
            return None, sweep
        return (*primal, y, low, up), sweep

    def _dual(self, q, b_e, lower, upper):
        """Dual active-set solve (Goldfarb & Idnani) from the empty working set.

        y holds the bound multipliers (y > 0 at an upper bound), and
        A_in z = r - C y. Stepping row p towards its bound from side s (+1
        above, -1 below) moves y along d: d[p] = s, and d on the held rows
        is the held-row solve for the cost s a_p, which keeps them at their
        bounds. Row p then closes its gap at the rate kappa = s (C d)[p], its
        pivot in the Schur complement of the held block. A held block that
        does not factor ends the solve "inaccurate". Returns
        ((z, nu, y, low, up) or None, changes, the status if the result does
        not certify); a finished solve's multipliers are solved afresh on
        its final set.
        """
        w, nu0, r = self._reduced(q, b_e)
        C = self._C
        pinned = lower == upper
        y = np.zeros(self.n_i)
        # +1 held at the upper bound, -1 at the lower one (a pinned row
        # counts as lower), 0 not held
        side = np.zeros(self.n_i)
        changes, failure = 0, None
        # the pinned rows first, then the most violated row at each step
        queue = list(np.flatnonzero(pinned))
        while failure is None:
            Az = r - C @ y
            tol = 1e-11 * max(1.0, float(_amax(Az)))
            viol = np.maximum(Az - upper, lower - Az)
            if queue:
                p = queue.pop()
            else:
                viol[pinned] = viol[side != 0] = -np.inf
                if viol.max(initial=0.0) <= tol:
                    break
                p = int(np.argmax(viol))
            s = 1.0 if Az[p] > upper[p] else -1.0
            gap = viol[p]
            while True:
                if changes == _MAX_CHANGES:
                    failure = "max_iterations"
                    break
                act = np.flatnonzero(side)
                held = self._hold(-s * C[p], act, np.zeros(len(act)))
                if held is None:
                    failure = "inaccurate"
                    break
                d, dAz = held
                d[p] = s
                kappa = -s * dAz[p]
                # below this pivot p is a combination of the held rows
                t_add = gap / kappa if kappa > self._pivot_min[p] else np.inf
                # a held bound row's multiplier s_j y_j >= 0 shrinks where
                # s_j d_j < 0; a pinned row's takes either sign
                shrink = act[(side[act] * d[act] < 0) & ~pinned[act]]
                ratios = np.maximum(-y[shrink] / d[shrink], 0.0)
                t_drop = ratios.min(initial=np.inf)
                if min(t_add, t_drop) == np.inf:
                    # no step reduces the violation, unless p is a pinned
                    # row that the held rows already meet
                    if not (pinned[p] and gap <= tol):
                        failure = "infeasible"
                    break
                # p joins where it reaches its bound; a held row whose
                # multiplier reaches zero first leaves, and p steps again
                changes += 1
                if t_add <= t_drop:
                    y += t_add * d
                    side[p] = -1.0 if pinned[p] else s
                    break
                y += t_drop * d
                j = shrink[np.argmin(ratios)]
                y[j] = side[j] = 0.0
                gap -= t_drop * kappa

        low, up = side < 0, side > 0
        if failure is None:
            act = np.flatnonzero(side)
            held = self._hold(r, act, np.where(low, lower, upper)[act])
            if held is not None:
                y = held[0]
        primal = self._primal(w, nu0, y)
        result = None if primal is None else (*primal, y, low, up)
        return result, changes, failure or "inaccurate"

    def solve(self, q, b_eq=None, lower=None, upper=None):
        """Solve for one (q, b_eq, lower, upper) on the bound matrices.

        The sweep from the shifted working set of the previous solve runs
        first, when that solve certified. Without such a set, or when its
        result does not certify, the dual solve runs from the empty set, at
        most _MAX_CHANGES working-set changes. A result is "optimal" when its
        KKT residual is at most _TOL_KKT. q and b_eq must be finite, the
        bounds free of NaN, with no lower bound at +inf and no upper bound at
        -inf. b_eq or bounds given to a solver without such rows are an
        error.
        """
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
            bound_mag = _bound_mag(lower, upper)
            if (lower > upper).any():
                raise ValueError("lower must be <= upper elementwise")
        elif any(b is not None and len(np.atleast_1d(b)) for b in (lower, upper)):
            raise ValueError("lower/upper given but solver has no inequality rows")
        else:
            lower = upper = np.zeros(0)
            bound_mag = 0.0

        sweeps = 0

        def check(result):
            """(KKT residual, objective, whether the result certifies)."""
            kkt, objective = self._kkt_residual(*result[:3], q, b_eq,
                                                lower, upper, bound_mag)
            return kkt, objective, kkt <= _TOL_KKT

        def finish(result, kkt, objective, certified, path, failure, iterations=0):
            z, nu, y, low, up = result
            # only a certified result seeds the next solve
            working_set = np.array([low, up]) if certified else None
            self._previous_set = None if working_set is None else self._working_set
            self._working_set = working_set
            return QpSolution(
                z_star=z, objective=objective,
                status="optimal" if certified else failure,
                kkt_residual=float(kkt), iterations=iterations,
                multipliers_eq=nu, multipliers_in=y,
                path=path if certified else "uncertified", sweeps=sweeps,
            )

        # equality system consistency gates everything downstream
        if not self._eq_consistent(b_eq):
            z, *_ = np.linalg.lstsq(self.A_eq, b_eq, rcond=None)
            result = (z, np.zeros(self.n_e), np.zeros(self.n_i), None, None)
            kkt, objective, _ = check(result)
            return finish(result, kkt, objective, False, "uncertified", "infeasible")
        b_e = b_eq if self._eq_range is None else self._eq_range[0].T @ b_eq

        seed = self._seed()
        if seed is not None:
            result, sweeps = self._active_set(q, b_e, lower, upper, *seed)
            if result is not None:
                kkt, objective, certified = check(result)
                if certified:
                    return finish(result, kkt, objective, True, "warm", None)

        result, changes, failure = self._dual(q, b_e, lower, upper)
        if result is None:
            empty = np.zeros(self.n_i, dtype=bool)
            result = (np.zeros(self.n), np.zeros(self.n_e), np.zeros(self.n_i),
                      empty, empty)
        return finish(result, *check(result), "cold", failure, changes)
