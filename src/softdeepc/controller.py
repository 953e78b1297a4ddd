"""Data-enabled predictive control over recorded trajectory data.

Each control period solves, in the trajectory-combination variable g,

    min  (y - y_ref)' Qt (y - y_ref) + u' Rt u
         + lambda_y ||Yp g - y_ini||^2 + lambda_g ||g||^2
    s.t. Up g = u_ini,   u_lo <= Uf g <= u_hi

where u = Uf g and y = Yf g, and Qt/Rt repeat the per-step weights over the
horizon. The output-consistency slack sigma_y = Yp g - y_ini is eliminated
analytically, so the QP decision variable is g alone; lambda_y = inf turns
the slack off entirely and enforces Yp g = y_ini as a hard equality.

The data is one HankelPartition, raw (g has one entry per data window) or
condensed (g has r entries); only the column count differs.

On the lossless triangle (the partition reduction marks triangular, square,
lambda_g > 0) each step solves in the N m future inputs u_f instead, the
gamma-DDPC form of Breschi, Chiuso & Formentin (Automatica 2023). The
triangle's rows are [Up; Uf; Yp; Yf] and row i reads only its first i + 1
columns, so its first k rows, the equality rows and Uf, read only the first
k entries of g through the triangular block L_kk. When those rows have full
row rank (hankel's Gram certificate), L_kk is nonsingular and the first k
entries of g are L_kk^-1 [u_ini; u_f] (with y_ini appended under hard
history). The other entries meet no constraint and drop out in closed form
through the Cholesky factor of their block of P. What is left is a box QP
in u_f with a fixed Hessian and no equality rows; its linear cost is a
fixed map of (u_ini, y_ini, Q y_ref), and g is rebuilt from its solution.
Raw data, truncated data, lambda_g = 0 and a triangle that fails the
certificate solve in g.

With lambda_g = 0 the problem reads g only through the data matrix H, so
raw data is condensed at the numerical rank of H (g = V1 h), which loses
nothing, and the cost gets rho ||A_eq h||^2 on top, A_eq the equality rows
and rho = trace(P) / ||A_eq||_F^2. On the feasible set that term is the
constant rho ||b_eq||^2, so the plan stays as it is, and it makes the
reduced P positive definite whenever the weights fix the plan.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import dtrmm, dtrsv
from scipy.linalg.lapack import dpotrf, dtrtri

from .hankel import (HankelPartition, _gram_certifies, _Made, numerical_rank,
                     singular_value_rank)
from .qp import QpSolution, QpSolver
from .reduction import left_singular

__all__ = [
    "DeePCConfig",
    "HistoryBuffer",
    "DeePCStepResult",
    "DeePCTemplate",
    "assemble",
    "step",
    "DeePCController",
]


def _weight_matrix(value, dim: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    """A scalar or matrix weight as a symmetric PSD (dim, dim) W and a root L.

    L'L = W, with one row of L per positive eigenvalue of W: eigenvalues
    negative within round-off count as 0, so a singular W has fewer rows.
    """
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        if arr < 0:
            raise ValueError(f"{name} scalar weight must be >= 0, got {float(arr)}")
        arr = float(arr) * np.eye(dim)
    if arr.shape != (dim, dim):
        raise ValueError(f"{name} must be scalar or ({dim}, {dim}), got {arr.shape}")
    if np.max(np.abs(arr - arr.T), initial=0.0) > 1e-10 * max(1.0, np.max(np.abs(arr))):
        raise ValueError(f"{name} must be symmetric")
    arr = 0.5 * (arr + arr.T)
    eigs, V = np.linalg.eigh(arr)
    if eigs[0] < -1e-10 * max(1.0, eigs[-1]):
        raise ValueError(f"{name} must be positive semidefinite")
    keep = eigs > 0
    return arr, np.sqrt(eigs[keep])[:, None] * V[:, keep].T


@dataclass(frozen=True)
class DeePCConfig:
    """Controller weights, horizons, regularization, and actuation bounds.

    Q and R may be scalars (scaled identity) or full per-step matrices.
    lambda_y = inf removes the slack and enforces output history exactly.
    """

    t_ini: int
    horizon: int
    Q: object = 1.0
    R: object = 0.0
    lambda_g: float = 0.0
    lambda_y: float = math.inf
    u_lower: object = -math.inf
    u_upper: object = math.inf

    def __post_init__(self):
        if self.t_ini < 1:
            raise ValueError(f"t_ini must be >= 1, got {self.t_ini}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        # a NaN passes every comparison, so each field is checked for it
        for name in ("Q", "R", "lambda_g"):
            if not np.isfinite(np.asarray(getattr(self, name), dtype=float)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("lambda_y", "u_lower", "u_upper"):
            if np.isnan(np.asarray(getattr(self, name), dtype=float)).any():
                raise ValueError(f"{name} must not be NaN, got {getattr(self, name)}")
        if self.lambda_g < 0:
            raise ValueError(f"lambda_g must be >= 0, got {self.lambda_g}")
        if self.lambda_y < 0:
            raise ValueError(f"lambda_y must be >= 0, got {self.lambda_y}")

    def input_bounds(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        lo = np.broadcast_to(np.asarray(self.u_lower, dtype=float), (m,)).copy()
        hi = np.broadcast_to(np.asarray(self.u_upper, dtype=float), (m,)).copy()
        if np.any(lo > hi):
            raise ValueError("u_lower must be <= u_upper elementwise")
        if np.any(lo == math.inf) or np.any(hi == -math.inf):
            raise ValueError("no input can meet u_lower = +inf or u_upper = -inf")
        return lo, hi


class HistoryBuffer:
    """Rolling window of the last t_ini applied inputs and measured outputs.

    Each side is one flat array, oldest sample first, that a push shifts by
    one sample; u_ini and y_ini are one copy each.
    """

    def __init__(self, t_ini: int, input_dim: int, output_dim: int):
        if t_ini < 1:
            raise ValueError(f"t_ini must be >= 1, got {t_ini}")
        self.t_ini = t_ini
        self.input_dim = input_dim
        self.output_dim = output_dim
        self._u = np.zeros(t_ini * input_dim)
        self._y = np.zeros(t_ini * output_dim)
        self._count = 0

    def push(self, u, y):
        u = np.asarray(u, dtype=float).reshape(self.input_dim)
        y = np.asarray(y, dtype=float).reshape(self.output_dim)
        for buf, sample in ((self._u, u), (self._y, y)):
            d = len(sample)
            buf[:-d] = buf[d:]
            buf[-d:] = sample
        self._count = min(self._count + 1, self.t_ini)

    @property
    def full(self) -> bool:
        return self._count == self.t_ini

    def __len__(self) -> int:
        return self._count

    def _require_full(self):
        if not self.full:
            raise ValueError(
                f"history holds {self._count} of {self.t_ini} samples; "
                "push more before querying"
            )

    @property
    def u_ini(self) -> np.ndarray:
        """Stacked inputs, oldest first, length t_ini * m."""
        self._require_full()
        return self._u.copy()

    @property
    def y_ini(self) -> np.ndarray:
        self._require_full()
        return self._y.copy()


@dataclass(frozen=True)
class DeePCStepResult:
    """One receding-horizon solve: the plan read off the solver's result.

    solution is the QpSolution the solve returned: its z_star is the
    decision vector g (one entry per data column, raw or condensed), and
    its status, path, KKT residual, iterations and sweeps are the step's
    solver report. With lambda_g = 0, z_star is the reduced coordinate h of
    the data condensed at its numerical rank, and template.Uf @ z_star gives
    the planned inputs. On the input-space path (template.input_space) the
    solver's result is that of the box QP in u_f, with z_star replaced by
    g rebuilt from u_f: multipliers_eq is empty, multipliers_in holds the
    multipliers of the input box, and the solution's objective is the box
    QP's. objective is the DeePC cost of the plan, not the QP's.
    """

    optimal_inputs: np.ndarray      # (horizon, m)
    predicted_outputs: np.ndarray   # (horizon, p)
    sigma_y: np.ndarray             # Yp g - y_ini
    objective: float
    solution: QpSolution


class DeePCTemplate:
    """Reference-independent matrices for one controller configuration.

    Immutable after construction. A step reads the data rows [Uf; Yp; Yf]
    twice, once transposed for the linear cost and once for the plan, and
    otherwise runs one QP solve, whose dense factorizations are cached
    inside the bound QpSolver; the objective it reports is the cost
    evaluated on the plan with the per-step Q and R, so no horizon-sized
    weight matrix is kept. The cost matrix P is built here and handed over
    to the solver, which factors it in place: the solver's one n x n array
    holds both, and the template keeps no P. With lambda_g = 0 it keeps the
    data condensed at its numerical rank (module docstring) and raises
    ValueError when the plan is not unique.

    input_space says whether the steps solve in u_f (module docstring).
    Then the solver is that of the box QP, whose Hessian is built from the
    blocks of P, and no n x n array is kept: a step reads the map to the
    box QP's linear cost (N m rows), the tied block L_kk, and the map and
    triangular factor of the free entries, instead of the transposed data
    rows, and rebuilds g before the plan is read off it.
    """

    def __init__(self, config: DeePCConfig, data: HankelPartition):
        if not isinstance(data, HankelPartition):
            raise TypeError(f"data must be a HankelPartition, got {type(data).__name__}")
        if data.t_ini != config.t_ini or data.horizon != config.horizon:
            raise ValueError(
                f"data windows (t_ini={data.t_ini}, horizon={data.horizon}) do not "
                f"match config (t_ini={config.t_ini}, horizon={config.horizon})"
            )
        self.config = config
        unregularized = config.lambda_g == 0.0
        if unregularized:
            if data.condensed:
                raise ValueError(
                    "lambda_g must be positive with condensed data: the condensed "
                    "problem matches the raw one only when the regularizer keeps "
                    "the raw optimum in the span of the data"
                )
            # condensed at the numerical rank r (module docstring): W1 diag(s1)
            W, s = left_singular(data.matrix)
            r = singular_value_rank(s, data.matrix.shape)
            data = replace(data, matrix=_Made(W[:, :r] * s[:r]), condensed=True)
        self.condensed = data.condensed
        self.m = data.input_dim
        self.p = data.output_dim
        self.Up = np.asarray(data.Up)
        self.Uf = np.asarray(data.Uf)
        self.Yp = np.asarray(data.Yp)
        self.Yf = np.asarray(data.Yf)
        self.n_g = self.Up.shape[1]

        N, t_ini = config.horizon, config.t_ini
        # the per-step weights; the step's objective reads them
        self.Q, Q_root = _weight_matrix(config.Q, self.p, "Q")
        self.R, R_root = _weight_matrix(config.R, self.m, "R")
        self.hard_history = math.isinf(config.lambda_y)
        self._slack_cost = not self.hard_history and config.lambda_y > 0.0
        self.A_eq = np.vstack([self.Up, self.Yp]) if self.hard_history else self.Up

        def per_step(root, block):
            """(2 W)^1/2 applied to each step's rows of block, W = root' root."""
            steps = block.reshape(N, root.shape[1], self.n_g)
            return ((math.sqrt(2.0) * root) @ steps).reshape(-1, self.n_g)

        # P = Hw' Hw + 2 lambda_g I, with Hw stacking the weighted rows
        # (2R)^1/2 Uf, (2Q)^1/2 Yf, (2 lambda_y)^1/2 Yp and, with lambda_g = 0,
        # rho^1/2 A_eq (a zero weight adds no rows). numpy runs Hw.T @ Hw as
        # one SYRK, so P is exactly symmetric.
        blocks = [per_step(R_root, self.Uf), per_step(Q_root, self.Yf)]
        if self._slack_cost:
            blocks.append(math.sqrt(2.0 * config.lambda_y) * self.Yp)
        if unregularized:
            rho = sum(np.vdot(b, b) for b in blocks) / np.vdot(self.A_eq, self.A_eq)
            blocks.append(math.sqrt(rho) * self.A_eq)
        Hw = np.vstack(blocks)
        del blocks
        if unregularized and numerical_rank(Hw) < self.n_g:
            raise ValueError(
                "lambda_g = 0 needs weights Q, R and lambda_y that fix the plan "
                "together with the equality rows, and these leave a direction "
                "of the data free; make lambda_g or R positive"
            )
        P = Hw.T @ Hw
        del Hw
        P[np.diag_indices(self.n_g)] += 2.0 * config.lambda_g
        # [Uf; Yp; Yf], contiguous rows of the data matrix: one product with
        # the solution gives the planned inputs, the slack and the predictions.
        # The linear cost q = -2 (Yp' lambda_y y_ini + Yf' Qt y_ref) is one
        # product with the transpose of its last rows, [Yp; Yf] with a slack
        # cost and Yf without, so the step reads no other map of the data.
        self._plan_map = np.asarray(data.matrix)[self.m * t_ini :]
        self._cost_rows = self._plan_map[self.m * N + (0 if self._slack_cost
                                                       else self.p * t_ini) :]

        u_lo, u_hi = config.input_bounds(self.m)
        self.u_lower = u_lo
        self.u_upper = u_hi
        if np.all(np.isinf(u_lo)) and np.all(np.isinf(u_hi)):
            self.A_in = None
            self.box_lower = self.box_upper = None
        else:
            self.A_in = self.Uf
            self.box_lower = np.tile(u_lo, N)
            self.box_upper = np.tile(u_hi, N)

        # the triangle's first rows are the equality rows and Uf; with full
        # row rank, its leading block L_kk is nonsingular (module docstring)
        tied = self.A_eq.shape[0] + self.m * N
        L_tied = None
        if data.triangular and data.columns == data.matrix.shape[0]:
            # F-ordered, so that the step's triangular solve reads it in place
            L_tied = np.asfortranarray(data.matrix[:tied, :tied])
        self.input_space = L_tied is not None and _gram_certifies(L_tied)
        if self.input_space:
            self.solver = self._input_space_solver(P, L_tied, tied)
        else:
            # A_in is Uf: shifting the working set by one input block lines
            # the last plan up with this one. P is handed over: the solver
            # factors it in place, so the set-up holds one n x n array
            self.solver = QpSolver(_Made(P), self.A_eq, self.A_in, seed_shift=self.m)

    def _input_space_solver(self, P, L_tied, k):
        """The solver of the box QP in u_f, and the maps a step reads.

        L_tied is the triangle's leading block L_kk (F-ordered) over its k
        tied rows, the equality rows and Uf. g = [a; f]: the tied entries
        a = L_kk^-1 b, with b = [u_ini; u_f] (and y_ini under hard history),
        and the free entries f. The linear cost is q = Cq theta_q, theta_q
        the tail of theta = [u_ini; y_ini; Qt y_ref] from _q_start. With
        P_ff = U'U and [W | Om] = U^-T [P_fa | Cq_f], the f that minimizes
        the cost for fixed a is -U^-1 (W a + Om theta_q), and what is left
        is a'S a / 2 + (ell theta_q)'a, with S = P_aa - W'W and
        ell = Cq_a - W'Om. Putting in a = L_kk^-1 b gives the box QP's
        Hessian H and its linear cost c = K theta.
        """
        N, t_ini, m, p = self.config.horizon, self.config.t_ini, self.m, self.p
        m_ini, n_u = m * t_ini, m * N
        Cq = -2.0 * self._cost_rows.T
        if self._slack_cost:
            Cq[:, : p * t_ini] *= self.config.lambda_y
        self._q_start = m_ini + (0 if self._slack_cost else p * t_ini)

        Li, _ = dtrtri(L_tied, lower=1)
        self._L_tied = L_tied
        U, info = dpotrf(P[k:, k:])
        if info:
            raise ValueError("P must be positive definite: its block of the free "
                             f"entries does not factor at column {info}")
        # [W | Om] by an explicit U^-1 and a triangular product, in place on
        # an F-ordered [P_fa | Cq_f]: faster than dtrsm at these sizes
        WO = np.empty((len(U), k + Cq.shape[1]), order="F")
        WO[:, :k] = P[k:, :k]
        WO[:, k:] = Cq[k:]
        WO = dtrmm(1.0, dtrtri(U)[0], WO, trans_a=1, overwrite_b=1)
        # W'[W | Om] becomes [S | ell] in place
        G = WO[:, :k].T @ WO
        S, ell = G[:, :k], G[:, k:]
        np.subtract(P[:k, :k], S, out=S)
        np.subtract(Cq[:k], ell, out=ell)
        # a = Li b. Li is lower triangular, so its u_f columns vanish above
        # row m_ini: Au holds them from that row on
        Au = Li[m_ini:, m_ini : m_ini + n_u]
        SAu = S[:, m_ini:] @ Au
        self._K = np.zeros((n_u, m_ini + p * (t_ini + N)))
        self._K[:, : k - n_u] = SAu.T @ np.hstack([Li[:, :m_ini], Li[:, m_ini + n_u :]])
        self._K[:, self._q_start :] = Au.T @ ell[m_ini:]
        WO *= -1.0
        self._free_map = WO
        self._U_free = U
        H = Au.T @ SAu[m_ini:]
        # the input box rows are u_f itself, in time order: a shift of one
        # input block lines the last plan up with this one
        A_in = None if self.A_in is None else np.eye(n_u)
        return QpSolver(_Made(0.5 * (H + H.T)), None, A_in, seed_shift=m)

    def _combination(self, u, u_ini, y_ini, theta) -> np.ndarray:
        """g from the planned inputs u, on the input-space path."""
        b = np.concatenate([u_ini, u, y_ini] if self.hard_history else [u_ini, u])
        a = dtrsv(self._L_tied, b, lower=1, overwrite_x=1)
        f = self._free_map @ np.concatenate([a, theta[self._q_start :]])
        return np.concatenate([a, dtrsv(self._U_free, f, overwrite_x=1)])

    def make_history(self) -> HistoryBuffer:
        return HistoryBuffer(self.config.t_ini, self.m, self.p)


def assemble(config: DeePCConfig, data) -> DeePCTemplate:
    """Precompute all reference-independent controller matrices."""
    return DeePCTemplate(config, data)


def step(template: DeePCTemplate, history: HistoryBuffer,
         reference_window) -> DeePCStepResult:
    """Solve one receding-horizon problem; apply only the first input."""
    cfg = template.config
    N, m, p = cfg.horizon, template.m, template.p
    refs = np.asarray(reference_window, dtype=float).reshape(-1)
    if refs.shape != (N * p,):
        raise ValueError(
            f"reference_window must hold {N} outputs of dimension {p}, "
            f"got {np.shape(reference_window)}"
        )
    if not np.isfinite(refs).all():
        raise ValueError("reference_window must be finite")
    u_ini = history.u_ini
    y_ini = history.y_ini

    Qt_ref = (refs.reshape(N, p) @ template.Q).reshape(-1)
    if template.input_space:
        theta = np.concatenate([u_ini, y_ini, Qt_ref])
        sol = template.solver.solve(template._K @ theta, None,
                                    template.box_lower, template.box_upper)
        sol = replace(sol, z_star=template._combination(sol.z_star, u_ini, y_ini, theta))
    else:
        if template._slack_cost:
            q = template._cost_rows.T @ np.concatenate([(-2.0 * cfg.lambda_y) * y_ini,
                                                        -2.0 * Qt_ref])
        else:
            q = template._cost_rows.T @ (-2.0 * Qt_ref)
        b_eq = np.concatenate([u_ini, y_ini]) if template.hard_history else u_ini
        sol = template.solver.solve(q, b_eq, template.box_lower, template.box_upper)

    g = sol.z_star
    plan = template._plan_map @ g
    n_u, n_p = N * m, cfg.t_ini * p
    u = plan[:n_u].reshape(N, m)
    sigma_y = plan[n_u : n_u + n_p] - y_ini
    y = plan[n_u + n_p :].reshape(N, p)

    # the cost on the plan, term by term: the QP objective plus its terms
    # free of g would cancel digits, as y_ref' Qt y_ref and lambda_y ||y_ini||^2
    # can be far larger than the cost
    dy = y - refs.reshape(N, p)
    objective = float(np.vdot(dy @ template.Q, dy) + np.vdot(u @ template.R, u)
                      + cfg.lambda_g * (g @ g))
    if not template.hard_history:
        objective += cfg.lambda_y * float(sigma_y @ sigma_y)

    return DeePCStepResult(optimal_inputs=u, predicted_outputs=y, sigma_y=sigma_y,
                           objective=objective, solution=sol)


def _require_finite(inputs, outputs):
    if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(outputs))):
        raise ValueError("input and output samples must be finite")


class DeePCController:
    """Receding-horizon loop state: template, rolling history, fallback input."""

    def __init__(self, template: DeePCTemplate):
        self.template = template
        self.history = template.make_history()
        self._last_applied = None
        self.fallback_count = 0

    def prime(self, inputs, outputs):
        """Seed the history with t_ini (input, output) pairs, oldest first.

        Raises ValueError, with the history unchanged, on a non-finite sample.
        """
        inputs = np.asarray(inputs, dtype=float).reshape(-1, self.template.m)
        outputs = np.asarray(outputs, dtype=float).reshape(-1, self.template.p)
        if len(inputs) != len(outputs):
            raise ValueError("inputs and outputs must pair up")
        _require_finite(inputs, outputs)
        for u, y in zip(inputs, outputs):
            self.history.push(u, y)
        if self._last_applied is None and len(inputs):
            self._last_applied = inputs[-1].copy()

    def compute(self, reference_window) -> tuple[np.ndarray, DeePCStepResult, bool]:
        """One control period: returns (input to apply, step result, fell_back).

        On solver failure the previous applied input is reused (clamped to
        bounds); the caller logs the event. The returned input is always
        inside the actuation bounds.
        """
        result = step(self.template, self.history, reference_window)
        fell_back = result.solution.status != "optimal"
        if fell_back:
            self.fallback_count += 1
            base = (self._last_applied if self._last_applied is not None
                    else np.zeros(self.template.m))
        else:
            base = result.optimal_inputs[0]
        # np.minimum/np.maximum: np.clip costs about three times as much
        u0 = np.minimum(np.maximum(base, self.template.u_lower), self.template.u_upper)
        self._last_applied = u0.copy()
        return u0, result, fell_back

    def observe(self, applied_input, measured_output):
        """Record the applied input and the measured output.

        Raises ValueError, with the history unchanged, on a non-finite sample.
        """
        u = np.asarray(applied_input, dtype=float).reshape(self.template.m)
        y = np.asarray(measured_output, dtype=float).reshape(self.template.p)
        _require_finite(u, y)
        self.history.push(u, y)
        self._last_applied = u.copy()
