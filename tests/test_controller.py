"""Tests for the data-driven predictive controller."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import (collect_lti_dataset, deepc_input_space, model_mpc,
                     random_minimal_lti, rollout, stored_cost_matrix)

from softdeepc.controller import (
    DeePCConfig,
    DeePCController,
    HistoryBuffer,
    assemble,
    step,
)
from softdeepc.config import ExperimentConfig
from softdeepc.experiments import build_controller, collect_dataset
from softdeepc.hankel import TrajectoryDataset, numerical_rank, partition_past_future
from softdeepc.plants import LtiPlant
from softdeepc.reduction import condense_lossless, factorize_and_condense


def make_partition(u, y, t_ini, horizon):
    return partition_past_future(TrajectoryDataset(u, y), t_ini, horizon)


def primed_controller(template, u_hist, y_hist):
    ctrl = DeePCController(template)
    ctrl.prime(u_hist, y_hist)
    return ctrl


def lti_partition(seed, noise, T=120, t_ini=3, horizon=6):
    """(rng, plant, partition) of a 3-state, 2-input, 2-output plant's record."""
    rng = np.random.default_rng(seed)
    A, B, C, D = random_minimal_lti(rng, 3, 2, 2)
    u, y = collect_lti_dataset(A, B, C, D, rng, T)
    return rng, (A, B, C, D), make_partition(u, y + noise * rng.standard_normal(y.shape),
                                             t_ini, horizon)


def lti_config(lambda_g=1.0, lambda_y=1e3, t_ini=3, horizon=6):
    """Weights and a +-0.5 input box for lti_partition's plant."""
    return DeePCConfig(t_ini=t_ini, horizon=horizon, Q=2.0, R=0.05, lambda_g=lambda_g,
                       lambda_y=lambda_y, u_lower=-0.5, u_upper=0.5)


class TestConfig:
    @pytest.mark.parametrize("name", ["tol_kkt", "tol_feas", "max_iter"])
    def test_solver_settings_are_not_fields(self, name):
        # the controller configures the weights and bounds; the QP solver
        # owns its tolerance and cap
        assert name not in {f.name for f in dataclasses.fields(DeePCConfig)}
        with pytest.raises(TypeError, match=name):
            DeePCConfig(t_ini=2, horizon=2, **{name: 1})

    def test_paper_style_values_accepted(self):
        cfg = DeePCConfig(t_ini=20, horizon=30, Q=10.0, R=2e-3, lambda_g=300.0,
                          lambda_y=1000.0, u_lower=0.0, u_upper=90.0)
        assert cfg.t_ini == 20
        lo, hi = cfg.input_bounds(3)
        np.testing.assert_array_equal(lo, [0.0] * 3)
        np.testing.assert_array_equal(hi, [90.0] * 3)

    def test_bad_horizons_rejected(self):
        with pytest.raises(ValueError, match="t_ini"):
            DeePCConfig(t_ini=0, horizon=5)
        with pytest.raises(ValueError, match="horizon"):
            DeePCConfig(t_ini=5, horizon=0)

    def test_negative_regularizers_rejected(self):
        with pytest.raises(ValueError, match="lambda_g"):
            DeePCConfig(t_ini=2, horizon=2, lambda_g=-1.0)
        with pytest.raises(ValueError, match="lambda_y"):
            DeePCConfig(t_ini=2, horizon=2, lambda_y=-1.0)

    def test_bound_order_rejected(self):
        cfg = DeePCConfig(t_ini=2, horizon=2, u_lower=1.0, u_upper=0.0)
        with pytest.raises(ValueError, match="u_lower"):
            cfg.input_bounds(2)

    @pytest.mark.parametrize("bound", [math.inf, -math.inf])
    def test_unreachable_infinite_bounds_rejected(self, bound):
        # both bounds infinite used to drop the box, so u = [inf] was applied
        cfg = DeePCConfig(t_ini=3, horizon=5, lambda_g=1.0, lambda_y=1e4,
                          u_lower=bound, u_upper=bound)
        with pytest.raises(ValueError, match="inf"):
            cfg.input_bounds(1)

    @pytest.mark.parametrize("field, value", [
        ("Q", math.nan), ("Q", [[1.0, 0.0], [0.0, math.nan]]), ("R", math.nan),
        ("R", np.diag([1.0, math.nan, 1.0])), ("lambda_g", math.nan),
        ("lambda_y", math.nan), ("u_lower", math.nan), ("u_upper", math.nan),
        ("u_upper", [90.0, math.nan, 90.0])])
    def test_nan_settings_rejected(self, field, value):
        # a NaN weight used to drop out of the QP (R with m = 1), reach
        # numpy's eigensolver (R with m = 3), or fail only at the first solve
        with pytest.raises(ValueError, match=field):
            DeePCConfig(t_ini=2, horizon=2, **{field: value})

    def test_infinite_lambda_y_stays_legal(self):
        cfg = DeePCConfig(t_ini=2, horizon=2, lambda_g=1.0, lambda_y=math.inf)
        assert math.isinf(cfg.lambda_y)


class TestHistoryBuffer:
    def test_read_before_full_errors(self):
        buf = HistoryBuffer(t_ini=3, input_dim=1, output_dim=1)
        buf.push([1.0], [2.0])
        with pytest.raises(ValueError, match="push more"):
            _ = buf.u_ini

    def test_time_order_oldest_first(self):
        buf = HistoryBuffer(t_ini=3, input_dim=2, output_dim=1)
        for k in range(3):
            buf.push([k, 10 + k], [100 + k])
        np.testing.assert_array_equal(buf.u_ini, [0, 10, 1, 11, 2, 12])
        np.testing.assert_array_equal(buf.y_ini, [100, 101, 102])

    def test_eviction(self):
        buf = HistoryBuffer(t_ini=2, input_dim=1, output_dim=1)
        for k in range(3):
            buf.push([float(k)], [float(-k)])
        np.testing.assert_array_equal(buf.u_ini, [1.0, 2.0])
        np.testing.assert_array_equal(buf.y_ini, [-1.0, -2.0])

    def test_full_flag(self):
        buf = HistoryBuffer(t_ini=2, input_dim=1, output_dim=1)
        assert not buf.full
        buf.push([0.0], [0.0])
        buf.push([0.0], [0.0])
        assert buf.full
        assert len(buf) == 2


class TestAssemble:
    def setup_data(self, seed=0, t_ini=4, horizon=6, T=80, n=3, m=2, p=2):
        rng = np.random.default_rng(seed)
        A, B, C, D = random_minimal_lti(rng, n, m, p)
        u, y = collect_lti_dataset(A, B, C, D, rng, T)
        return (A, B, C, D), make_partition(u, y, t_ini, horizon)

    def test_dimension_mismatch_rejected(self):
        _, part = self.setup_data()
        cfg = DeePCConfig(t_ini=5, horizon=6)
        with pytest.raises(ValueError, match="data windows"):
            assemble(cfg, part)

    def test_bad_weight_shape_rejected(self):
        _, part = self.setup_data()
        cfg = DeePCConfig(t_ini=4, horizon=6, Q=np.eye(3))  # p is 2
        with pytest.raises(ValueError, match="Q"):
            assemble(cfg, part)

    def test_condensed_needs_lambda_g(self):
        _, part = self.setup_data()
        cond = factorize_and_condense(part, r=10)
        cfg = DeePCConfig(t_ini=4, horizon=6, lambda_g=0.0, lambda_y=1e4)
        with pytest.raises(ValueError, match="lambda_g"):
            assemble(cfg, cond)

    def test_cost_blocks_repeat_per_step(self, monkeypatch):
        # the template keeps the per-step weight Q; the step's linear cost
        # applies it to each step's rows of Yf, as the dense kron(I_N, Q) does
        _, part = self.setup_data()
        cfg = DeePCConfig(t_ini=4, horizon=6, Q=10.0, R=2e-3, lambda_g=300.0,
                          lambda_y=1000.0)
        tpl = assemble(cfg, part)
        p = part.output_dim
        np.testing.assert_array_equal(tpl.Q, 10.0 * np.eye(p))
        costs = []
        solve = tpl.solver.solve
        monkeypatch.setattr(tpl.solver, "solve",
                            lambda q, *args, **kw: costs.append(q) or solve(q, *args, **kw))
        rng = np.random.default_rng(5)
        hist = tpl.make_history()
        for _ in range(4):
            hist.push(rng.standard_normal(2), rng.standard_normal(p))
        refs = rng.standard_normal((6, p))
        step(tpl, hist, refs)
        Qt = np.kron(np.eye(6), 10.0 * np.eye(p))
        expected = -2.0 * (part.Yf.T @ Qt @ refs.reshape(-1) + 1000.0 * part.Yp.T @ hist.y_ini)
        np.testing.assert_allclose(costs[0], expected, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(expected)))

    def test_quadratic_term_formula(self):
        # (Q, R, lambda_y, the PSD weight the dense formula uses for Q); p = m = 2
        rot = np.array([[0.6, -0.8], [0.8, 0.6]])
        Q_full = np.array([[3.0, 1.2], [1.2, 0.8]])
        Q_rank_one = np.array([[1.0, -2.0], [-2.0, 4.0]])
        cases = {
            "scalar": (2.0, 0.5, 11.0, 2.0 * np.eye(2)),
            "non-diagonal": (Q_full, np.array([[0.5, 0.1], [0.1, 0.3]]), 11.0, Q_full),
            "singular Q": (Q_rank_one, 0.5, 11.0, Q_rank_one),
            "R = 0, lambda_y = 0": (2.0, 0.0, 0.0, 2.0 * np.eye(2)),
            "hard history": (2.0, 0.5, math.inf, 2.0 * np.eye(2)),
            # an eigenvalue of -1e-11 passes the PSD check as round-off; P is
            # built from the weight with it clipped to 0
            "negative within tolerance": (rot @ np.diag([-1e-11, 2.0]) @ rot.T, 0.5,
                                          11.0, rot @ np.diag([0.0, 2.0]) @ rot.T),
        }
        _, part = self.setup_data(seed=3)
        K = part.columns
        for case, (Q, R, lambda_y, Q_psd) in cases.items():
            cfg = DeePCConfig(t_ini=4, horizon=6, Q=Q, R=R, lambda_g=7.0,
                              lambda_y=lambda_y)
            tpl = assemble(cfg, part)
            R_mat = R * np.eye(2) if np.ndim(R) == 0 else R
            expected = 2.0 * (part.Yf.T @ np.kron(np.eye(6), Q_psd) @ part.Yf
                              + part.Uf.T @ np.kron(np.eye(6), R_mat) @ part.Uf
                              + 7.0 * np.eye(K))
            if not math.isinf(lambda_y):
                expected += 2.0 * lambda_y * part.Yp.T @ part.Yp
            P = stored_cost_matrix(tpl.solver)
            np.testing.assert_allclose(P, expected, rtol=1e-12, err_msg=case)
            assert (P == P.T).all(), case

    def test_raw_set_up_holds_one_cost_matrix(self):
        # P is handed over and factored in place, so assembling a raw
        # template holds one n x n array of floats: about 1.13 n^2 doubles
        # at its peak, against 2.10 when the solver factored a copy
        _, part = self.setup_data(seed=0, T=1100)
        n = part.columns
        assert n >= 1000
        cfg = DeePCConfig(t_ini=4, horizon=6, R=0.1, lambda_g=1.0,
                          lambda_y=1e3, u_lower=-1.0, u_upper=1.0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tpl = assemble(cfg, part)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8
        assert not hasattr(tpl, "P")

    def test_hard_history_moves_yp_to_equalities(self):
        _, part = self.setup_data()
        cfg = DeePCConfig(t_ini=4, horizon=6, lambda_g=1.0, lambda_y=math.inf)
        tpl = assemble(cfg, part)
        assert tpl.hard_history
        assert tpl.A_eq.shape[0] == part.Up.shape[0] + part.Yp.shape[0]

    def test_unbounded_inputs_drop_box_rows(self):
        _, part = self.setup_data()
        cfg = DeePCConfig(t_ini=4, horizon=6, lambda_g=1.0, lambda_y=1e3)
        tpl = assemble(cfg, part)
        assert tpl.A_in is None


class ScenarioMixin:
    """Noiseless LTI closed-loop scaffolding shared by the behavior tests."""

    def build(self, seed=0, n=3, m=1, p=1, t_ini=None, horizon=8, T=150,
              lambda_g=0.0, lambda_y=math.inf, u_lower=-math.inf,
              u_upper=math.inf, Q=1.0, R=0.1):
        rng = np.random.default_rng(seed)
        t_ini = t_ini if t_ini is not None else n
        A, B, C, D = random_minimal_lti(rng, n, m, p)
        u_d, y_d = collect_lti_dataset(A, B, C, D, rng, T)
        part = make_partition(u_d, y_d, t_ini, horizon)
        cfg = DeePCConfig(t_ini=t_ini, horizon=horizon, Q=Q, R=R,
                          lambda_g=lambda_g, lambda_y=lambda_y,
                          u_lower=u_lower, u_upper=u_upper)
        tpl = assemble(cfg, part)
        return rng, (A, B, C, D), part, tpl

    def run_history(self, sys, rng, t_ini, x_start=None):
        """Random warmup giving a consistent (u_ini, y_ini, current state)."""
        A, B, C, D = sys
        n = A.shape[0]
        x0 = rng.standard_normal(n) if x_start is None else x_start
        u_hist = rng.standard_normal((t_ini, B.shape[1]))
        y_hist, x_now = rollout(A, B, C, D, u_hist, x0=x0)
        return u_hist, y_hist, x_now


class TestStepBehavior(ScenarioMixin):
    def test_zero_equilibrium_zero_input(self):
        _, sys, part, tpl = self.build(seed=1, lambda_g=2.0, lambda_y=1e6)
        hist = tpl.make_history()
        for _ in range(tpl.config.t_ini):
            hist.push(np.zeros(1), np.zeros(1))
        res = step(tpl, hist, np.zeros((8, 1)))
        assert res.solution.status == "optimal"
        np.testing.assert_allclose(res.optimal_inputs, 0.0, atol=1e-7)
        assert res.objective == pytest.approx(0.0, abs=1e-10)

    def test_first_input_matches_model_mpc_integrator(self):
        # scalar integrator, hard history, step reference
        A, B, C, D = [[1.0]], [[1.0]], [[1.0]], [[0.0]]
        rng = np.random.default_rng(5)
        u_d = rng.standard_normal((120, 1))
        y_d, _ = rollout(np.array(A), np.array(B), np.array(C), np.array(D), u_d)
        part = make_partition(u_d, y_d, t_ini=2, horizon=8)
        cfg = DeePCConfig(t_ini=2, horizon=8, Q=1.0, R=0.1, lambda_g=0.0,
                          lambda_y=math.inf)
        tpl = assemble(cfg, part)
        hist = tpl.make_history()
        u_hist = np.array([[0.3], [-0.2]])
        y_hist, x_now = rollout(np.array(A), np.array(B), np.array(C),
                                np.array(D), u_hist, x0=np.array([0.5]))
        for u, y in zip(u_hist, y_hist):
            hist.push(u, y)
        refs = np.full((8, 1), 2.0)
        res = step(tpl, hist, refs)
        assert res.solution.status == "optimal"
        u_mpc = model_mpc(np.array(A), np.array(B), np.array(C), np.array(D),
                          x_now, [[1.0]], [[0.1]], refs, -np.inf, np.inf)
        assert res.optimal_inputs[0, 0] == pytest.approx(u_mpc[0, 0], abs=1e-6)

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_first_input_matches_model_mpc_random_plants(self, seed):
        rng, sys, part, tpl = self.build(seed=seed, n=3, m=2, p=2, horizon=6,
                                         lambda_g=0.0, lambda_y=math.inf,
                                         u_lower=-1.0, u_upper=1.0, R=0.05)
        A, B, C, D = sys
        u_hist, y_hist, x_now = self.run_history(sys, rng, tpl.config.t_ini)
        hist = tpl.make_history()
        for u, y in zip(u_hist, y_hist):
            hist.push(u, y)
        refs = 0.5 * rng.standard_normal((6, 2))
        res = step(tpl, hist, refs)
        assert res.solution.status == "optimal"
        u_mpc = model_mpc(A, B, C, D, x_now, np.eye(2), 0.05 * np.eye(2), refs,
                          -1.0, 1.0)
        np.testing.assert_allclose(res.optimal_inputs[0], u_mpc[0], atol=1e-6)

    def test_predictions_match_true_open_loop_response(self):
        rng, sys, part, tpl = self.build(seed=7, n=4, m=2, p=2, horizon=10,
                                         T=200, lambda_g=0.0, lambda_y=math.inf)
        A, B, C, D = sys
        u_hist, y_hist, x_now = self.run_history(sys, rng, tpl.config.t_ini)
        hist = tpl.make_history()
        for u, y in zip(u_hist, y_hist):
            hist.push(u, y)
        refs = rng.standard_normal((10, 2))
        res = step(tpl, hist, refs)
        assert res.solution.status == "optimal"
        y_true, _ = rollout(A, B, C, D, res.optimal_inputs, x0=x_now)
        np.testing.assert_allclose(res.predicted_outputs, y_true, atol=1e-6)

    def test_slack_quiescent_on_consistent_history(self):
        rng, sys, part, tpl = self.build(seed=9, lambda_g=1.0, lambda_y=1e6)
        u_hist, y_hist, _ = self.run_history(sys, rng, tpl.config.t_ini)
        hist = tpl.make_history()
        for u, y in zip(u_hist, y_hist):
            hist.push(u, y)
        res = step(tpl, hist, np.zeros((8, 1)))
        assert res.solution.status == "optimal"
        assert np.linalg.norm(res.sigma_y) <= 1e-6

    def test_inputs_respect_bounds(self):
        rng, sys, part, tpl = self.build(seed=11, lambda_g=0.5, lambda_y=1e5,
                                         u_lower=-0.3, u_upper=0.3)
        u_hist, y_hist, _ = self.run_history(sys, rng, tpl.config.t_ini)
        hist = tpl.make_history()
        for u, y in zip(u_hist, y_hist):
            hist.push(u, y)
        refs = np.full((8, 1), 5.0)  # aggressive reference saturates inputs
        res = step(tpl, hist, refs)
        assert res.solution.status == "optimal"
        assert np.all(res.optimal_inputs >= -0.3 - 1e-8)
        assert np.all(res.optimal_inputs <= 0.3 + 1e-8)
        assert np.max(res.optimal_inputs) == pytest.approx(0.3, abs=1e-6)

    def test_reference_window_shape_validated(self):
        _, sys, part, tpl = self.build(seed=13)
        hist = tpl.make_history()
        for _ in range(tpl.config.t_ini):
            hist.push([0.0], [0.0])
        with pytest.raises(ValueError, match="reference_window"):
            step(tpl, hist, np.zeros((3, 1)))


    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("lossless", [False, True], ids=["raw", "lossless"])
    def test_nonfinite_reference_window_rejected(self, value, lossless):
        # named before any product: the step used to pass it on, so the
        # solver raised "q must be finite" after a RuntimeWarning
        _, sys, part, tpl = self.build(seed=13, lambda_g=1.0, lambda_y=1e3)
        if lossless:
            tpl = assemble(tpl.config, condense_lossless(part))
            assert tpl.input_space
        hist = tpl.make_history()
        for _ in range(tpl.config.t_ini):
            hist.push([0.0], [0.0])
        refs = np.zeros((8, 1))
        refs[3] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="reference_window must be finite"):
                step(tpl, hist, refs)


class TestInputSpacePath:
    """Which templates solve the box QP in the future inputs, and what they hold."""

    @staticmethod
    def partition(noise=0.01, **kwargs):
        return lti_partition(47, noise, **kwargs)[2]

    def test_default_controller_build(self):
        cfg = ExperimentConfig()
        tpl = build_controller(cfg, collect_dataset(cfg, seed=0)).template
        assert tpl.input_space
        n_u = tpl.m * cfg.horizon
        assert (tpl.solver.n, tpl.solver.n_e, tpl.solver.n_i) == (n_u, 0, n_u)
        assert tpl.solver.seed_shift == tpl.m

    @pytest.mark.parametrize("lambda_y", [1e3, math.inf], ids=["soft", "hard"])
    def test_lossless_triangle(self, lambda_y):
        data = condense_lossless(self.partition())
        assert data.triangular
        tpl = assemble(lti_config(lambda_y=lambda_y), data)
        assert tpl.input_space and tpl.solver.n == 12 and tpl.solver.n_e == 0
        hist = tpl.make_history()
        rng = np.random.default_rng(3)
        for _ in range(3):
            hist.push(rng.uniform(-0.5, 0.5, 2), rng.standard_normal(2))
        res = step(tpl, hist, 2.0 * rng.standard_normal((6, 2)))
        sol = res.solution
        # z_star is g rebuilt from the planned inputs; no equality multipliers
        assert sol.status == "optimal" and sol.z_star.shape == (tpl.n_g,)
        assert sol.multipliers_eq.shape == (0,)
        np.testing.assert_allclose(res.optimal_inputs.reshape(-1), tpl.Uf @ sol.z_star,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(tpl.Up @ sol.z_star, hist.u_ini, atol=1e-12)
        assert np.abs(res.optimal_inputs).max() <= 0.5 + 1e-9

    def test_g_space_cases(self):
        part = self.partition()
        rows = part.matrix.shape[0]
        cases = {
            "raw": (lti_config(), part),
            "truncated": (lti_config(), factorize_and_condense(part, r=rows - 1)),
            # square but not the triangle: only the mark selects the path
            "svd at the row count": (lti_config(), factorize_and_condense(part, r=rows)),
            # noiseless: on noisy data lambda_g = 0 leaves the plan free
            "lambda_g = 0": (lti_config(lambda_g=0.0), self.partition(noise=0.0)),
            "fewer columns than rows": (lti_config(),
                                        condense_lossless(self.partition(T=40))),
        }
        for case, (cfg, data) in cases.items():
            tpl = assemble(cfg, data)
            assert not tpl.input_space, case
            assert tpl.solver.n == tpl.n_g, case
        assert cases["fewer columns than rows"][1].triangular

    def test_template_holds_no_n_by_n_array(self):
        # the g-space solver keeps P and its factor in one n x n array; the
        # input-space template's largest array is the free entries' map
        part = self.partition(T=400, t_ini=10, horizon=20)
        n = part.matrix.shape[0]
        cfg = lti_config(t_ini=10, horizon=20)
        largest = {}
        for name, data in (("input space", condense_lossless(part)),
                           ("g space", factorize_and_condense(part, r=n))):
            assert data.columns == n
            tracemalloc.start()
            try:
                tpl = assemble(cfg, data)
                traces = tracemalloc.take_snapshot().traces
            finally:
                tracemalloc.stop()
            assert tpl.input_space == (name == "input space")
            largest[name] = max(trace.size for trace in traces)
        assert largest["g space"] >= n * n * 8
        assert largest["input space"] <= 0.5 * n * n * 8


class TestReductionConsistency(ScenarioMixin):
    def test_condensed_matches_full_at_numerical_rank(self):
        rng, sys, part, tpl = self.build(seed=17, n=3, m=2, p=2, horizon=6,
                                         T=160, lambda_g=50.0, lambda_y=1e4,
                                         u_lower=-2.0, u_upper=2.0)
        r = numerical_rank(part.matrix)
        cond = factorize_and_condense(part, r=r)
        tpl_red = assemble(tpl.config, cond)
        u_hist, y_hist, _ = self.run_history(sys, rng, tpl.config.t_ini)
        for t, refs_seed in enumerate(range(3)):
            refs = 0.3 * np.random.default_rng(refs_seed).standard_normal((6, 2))
            hist_full = tpl.make_history()
            hist_red = tpl_red.make_history()
            for u, y in zip(u_hist, y_hist):
                hist_full.push(u, y)
                hist_red.push(u, y)
            res_full = step(tpl, hist_full, refs)
            res_red = step(tpl_red, hist_red, refs)
            assert res_full.solution.status == res_red.solution.status == "optimal"
            np.testing.assert_allclose(res_red.optimal_inputs,
                                       res_full.optimal_inputs, atol=1e-6)
            assert res_red.objective == pytest.approx(
                res_full.objective, rel=1e-6, abs=1e-9)

    def test_reduced_variable_has_rank_dimension(self):
        _, sys, part, tpl = self.build(seed=19, lambda_g=10.0, lambda_y=1e3)
        cond = factorize_and_condense(part, r=9)
        tpl_red = assemble(tpl.config, cond)
        hist = tpl_red.make_history()
        for _ in range(tpl.config.t_ini):
            hist.push([0.0], [0.0])
        res = step(tpl_red, hist, np.zeros((8, 1)))
        assert res.solution.z_star.shape == (9,)


class TestUnregularized(ScenarioMixin):
    """lambda_g = 0: the raw data condensed at its numerical rank."""

    def test_decision_vector_has_the_stack_rank(self):
        rng, sys, part, tpl = self.build(seed=7, n=4, m=2, p=2, horizon=10,
                                         T=200, u_lower=-1.0, u_upper=1.0)
        rank = numerical_rank(part.matrix)
        # noiseless data: the stack is rank deficient
        assert rank < min(part.matrix.shape)
        assert tpl.condensed and tpl.n_g == rank
        u_hist, y_hist, _ = self.run_history(sys, rng, tpl.config.t_ini)
        hist = tpl.make_history()
        for u, y in zip(u_hist, y_hist):
            hist.push(u, y)
        res = step(tpl, hist, rng.standard_normal((10, 2)))
        assert res.solution.status == "optimal"
        assert res.solution.z_star.shape == (rank,)
        np.testing.assert_allclose(res.optimal_inputs.reshape(-1),
                                   tpl.Uf @ res.solution.z_star, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("horizon", [1, 6])
    @pytest.mark.parametrize("lambda_y", [math.inf, 1e3])
    def test_cost_with_a_free_direction_rejected(self, horizon, lambda_y):
        # noisy data: the stack has full row rank, so with R = 0 neither the
        # cost nor the equality rows fix Uf g, and the plan is not unique.
        # With m = 1 and horizon = 1 that leaves one free direction, whose
        # Cholesky pivot is round-off of either sign
        rng = np.random.default_rng(37)
        A, B, C, D = random_minimal_lti(rng, 3, 1, 1)
        u, y = collect_lti_dataset(A, B, C, D, rng, 80)
        part = make_partition(u, y + 0.01 * rng.standard_normal(y.shape), 4, horizon)
        assert numerical_rank(part.matrix) == part.matrix.shape[0]
        cfg = DeePCConfig(t_ini=4, horizon=horizon, R=0.0, lambda_g=0.0,
                          lambda_y=lambda_y)
        with pytest.raises(ValueError, match="lambda_g = 0.* R "):
            assemble(cfg, part)
        assert assemble(dataclasses.replace(cfg, R=0.1), part).n_g == part.matrix.shape[0]


class TestClosedLoop(ScenarioMixin):
    def test_regulates_to_reference(self):
        rng, sys, part, tpl = self.build(seed=23, n=3, m=1, p=1, horizon=10,
                                         T=200, lambda_g=1.0, lambda_y=1e6,
                                         u_lower=-5.0, u_upper=5.0, R=0.01)
        A, B, C, D = sys
        plant = LtiPlant(A, B, C, D)
        ctrl = DeePCController(tpl)
        rng2 = np.random.default_rng(100)
        for _ in range(tpl.config.t_ini):
            u = 0.1 * rng2.standard_normal(1)
            ctrl.observe(u, plant.step(u))
        target = 1.5
        refs = np.full((10, 1), target)
        y = None
        for _ in range(60):
            u0, res, fell_back = ctrl.compute(refs)
            assert not fell_back
            y = plant.step(u0)
            ctrl.observe(u0, y)
        assert y[0] == pytest.approx(target, abs=0.02)

    def test_fallback_reuses_previous_input(self):
        # hard history over more output samples than the 3 states explain:
        # these outputs are no trajectory of the plant, so no g meets them
        _, sys, part, tpl = self.build(seed=29, t_ini=5, lambda_g=1.0,
                                       u_lower=-1.0, u_upper=1.0)
        ctrl = DeePCController(tpl)
        for y in [0.0, 1.0, -1.0, 0.5, 2.0]:
            ctrl.observe([0.25], [y])
        u0, res, fell_back = ctrl.compute(np.ones((8, 1)))
        assert fell_back
        assert res.solution.status == "infeasible"
        assert ctrl.fallback_count == 1
        np.testing.assert_allclose(u0, [0.25])

    def test_nonfinite_sample_rejected_at_observe(self):
        # a NaN measurement used to reach the solver and make the next
        # compute raise from inside scipy
        _, sys, part, tpl = self.build(seed=29, lambda_g=1.0, lambda_y=1e4,
                                       u_lower=-1.0, u_upper=1.0)
        ctrl = DeePCController(tpl)
        for _ in range(tpl.config.t_ini):
            ctrl.observe([0.25], [0.0])
        u_ini, y_ini = ctrl.history.u_ini, ctrl.history.y_ini
        with pytest.raises(ValueError, match="finite"):
            ctrl.observe([0.25], [np.nan])
        with pytest.raises(ValueError, match="finite"):
            ctrl.observe([np.inf], [0.0])
        np.testing.assert_array_equal(ctrl.history.u_ini, u_ini)
        np.testing.assert_array_equal(ctrl.history.y_ini, y_ini)
        u0, res, fell_back = ctrl.compute(np.ones((8, 1)))
        assert not fell_back
        assert res.solution.status == "optimal"
        assert -1.0 <= u0[0] <= 1.0

    def test_nonfinite_sample_rejected_at_prime(self):
        _, sys, part, tpl = self.build(seed=31)
        ctrl = DeePCController(tpl)
        outputs = np.zeros((tpl.config.t_ini, 1))
        outputs[1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            ctrl.prime(np.zeros((tpl.config.t_ini, 1)), outputs)
        assert len(ctrl.history) == 0

    def test_nonfinite_history_rejected_by_solver(self):
        _, sys, part, tpl = self.build(seed=31, lambda_g=1.0, lambda_y=1e4)
        hist = tpl.make_history()
        for _ in range(tpl.config.t_ini):
            hist.push([np.nan], [0.0])
        with pytest.raises(ValueError, match="b_eq must be finite"):
            step(tpl, hist, np.zeros((8, 1)))

    def test_step_reports_solver_path(self):
        _, sys, part, tpl = self.build(seed=29, lambda_g=1.0, lambda_y=1e4,
                                       u_lower=-1.0, u_upper=1.0)
        ctrl = DeePCController(tpl)
        for _ in range(tpl.config.t_ini):
            ctrl.observe([0.25], [0.0])
        _, first, _ = ctrl.compute(np.ones((8, 1)))
        _, second, _ = ctrl.compute(np.ones((8, 1)))
        first, second = first.solution, second.solution
        assert (first.path, second.path) == ("cold", "warm")
        assert second.iterations == 0
        # the dual solve sweeps nothing; the warm try at least once
        assert first.sweeps == 0 and second.sweeps > 0
        np.testing.assert_allclose(second.z_star, first.z_star, atol=1e-8)

    @pytest.mark.parametrize("status", ["optimal", "inaccurate"])
    def test_step_hands_on_the_solution(self, monkeypatch, status):
        # the step result holds the very object the solver returned, and
        # compute falls back exactly when its status is not "optimal"
        _, sys, part, tpl = self.build(seed=29, lambda_g=1.0, lambda_y=1e4,
                                       u_lower=-1.0, u_upper=1.0)
        ctrl = DeePCController(tpl)
        for _ in range(tpl.config.t_ini):
            ctrl.observe([0.25], [0.0])
        returned = []
        real_solve = tpl.solver.solve

        def solve(*args):
            sol = dataclasses.replace(real_solve(*args), status=status)
            returned.append(sol)
            return sol

        monkeypatch.setattr(tpl.solver, "solve", solve)
        u0, res, fell_back = ctrl.compute(np.ones((8, 1)))
        assert len(returned) == 1 and res.solution is returned[0]
        assert fell_back == (status != "optimal")
        assert ctrl.fallback_count == int(fell_back)
        expected = [0.25] if fell_back else np.clip(res.optimal_inputs[0], -1.0, 1.0)
        np.testing.assert_array_equal(u0, expected)
        # the plan is read off the solution's z_star
        np.testing.assert_allclose(res.optimal_inputs.reshape(-1),
                                   tpl.Uf @ res.solution.z_star, rtol=1e-12, atol=1e-12)

    def test_prime_fills_history(self):
        _, sys, part, tpl = self.build(seed=31)
        ctrl = DeePCController(tpl)
        ctrl.prime(np.zeros((tpl.config.t_ini, 1)),
                   np.zeros((tpl.config.t_ini, 1)))
        assert ctrl.history.full


class TestInputSpaceOracle:
    """The step's plan against the null-space oracle's box QP in the future inputs.

    With lambda_g > 0 the outputs carry noise, so that [Up; Uf; Yp] has full
    row rank and every history is feasible under hard history too. With
    lambda_g = 0 they are noiseless: noisy data would let g fit any output
    with zero input. References are large enough that the input box binds
    on some steps.
    """

    @staticmethod
    def check(tpl, data, history, refs):
        res = step(tpl, history, refs)
        assert res.solution.status == "optimal"
        u, cost = deepc_input_space(data, tpl.config, history.u_ini, history.y_ini, refs)
        np.testing.assert_allclose(res.optimal_inputs, u, rtol=0, atol=1e-6)
        assert res.objective == pytest.approx(cost, rel=1e-6, abs=1e-9)
        return res

    @pytest.mark.parametrize("lambda_g, condense", [(1.0, False), (1.0, True), (0.0, False)],
                             ids=["raw", "lossless", "unregularized"])
    @pytest.mark.parametrize("lambda_y", [1e3, math.inf], ids=["soft", "hard"])
    def test_lti(self, lambda_g, condense, lambda_y):
        noise = 0.01 if lambda_g > 0 else 0.0
        rng, sys, part = lti_partition(43, noise)
        data = condense_lossless(part) if condense else part
        tpl = assemble(lti_config(lambda_g, lambda_y), data)
        saturated = 0
        for _ in range(6):
            history = tpl.make_history()
            u_h = rng.uniform(-0.5, 0.5, (3, 2))
            y_h, _ = rollout(*sys, u_h, x0=rng.standard_normal(3))
            for u, y in zip(u_h, y_h + noise * rng.standard_normal(y_h.shape)):
                history.push(u, y)
            res = self.check(tpl, data, history, 2.0 * rng.standard_normal((6, 2)))
            saturated += int(np.any(np.abs(res.optimal_inputs) >= 0.5 - 1e-9))
        assert saturated > 0

    @pytest.mark.parametrize("lambda_y", ["default", math.inf])
    def test_soft_arm_default_template(self, lambda_y):
        cfg = ExperimentConfig()
        if lambda_y != "default":
            cfg = dataclasses.replace(cfg, lambda_y=lambda_y)
        dataset = collect_dataset(cfg, seed=0)
        tpl = build_controller(cfg, dataset).template
        data = condense_lossless(partition_past_future(dataset, cfg.t_ini, cfg.horizon))
        for start in (100, 700, 1200):
            history = tpl.make_history()
            for k in range(start, start + cfg.t_ini):
                history.push(dataset.inputs[k], dataset.outputs[k])
            refs = np.tile(dataset.outputs[start + cfg.t_ini + 40], (cfg.horizon, 1))
            self.check(tpl, data, history, refs)


class TestStepObjective:
    """The step's objective against the dense cost recomputed from g.

    The terms free of g, y_ref' Qt y_ref and lambda_y ||y_ini||^2, can be
    much larger than the cost (1.6e8 against 49 on the soft arm with a
    slack). The step evaluates the cost on its plan, so none of them enters
    and the error is bounded against the cost alone.
    """

    Q_MATRIX = np.array([[12.0, 2.0, 0.5], [2.0, 8.0, -1.0], [0.5, -1.0, 10.0]])
    R_MATRIX = np.array([[3e-3, 1e-3, 0.0], [1e-3, 2e-3, 0.0], [0.0, 0.0, 1e-3]])

    @staticmethod
    def dense_cost(tpl, data, g, refs, y_ini):
        cfg = tpl.config
        N = cfg.horizon

        def per_step(value, dim):
            w = np.asarray(value, dtype=float)
            return np.kron(np.eye(N), w * np.eye(dim) if w.ndim == 0 else w)

        Qt, Rt = per_step(cfg.Q, data.output_dim), per_step(cfg.R, data.input_dim)
        u, dy = data.Uf @ g, data.Yf @ g - refs.reshape(-1)
        cost = dy @ Qt @ dy + u @ Rt @ u + cfg.lambda_g * (g @ g)
        if not math.isinf(cfg.lambda_y):
            sigma = data.Yp @ g - y_ini
            cost += cfg.lambda_y * (sigma @ sigma)
        return cost

    def check(self, tpl, data, history, refs):
        res = step(tpl, history, refs)
        assert res.solution.status == "optimal"
        cost = self.dense_cost(tpl, data, res.solution.z_star, refs, history.y_ini)
        assert abs(res.objective - cost) <= 1e-12 * abs(cost)
        return res

    @pytest.mark.parametrize("weights", ["scalar", "matrix"])
    @pytest.mark.parametrize("lambda_y", [1e4, math.inf])
    def test_lti_fixture(self, weights, lambda_y):
        rng = np.random.default_rng(41)
        A, B, C, D = random_minimal_lti(rng, 4, 3, 3)
        u_d, y_d = collect_lti_dataset(A, B, C, D, rng, 200)
        data = make_partition(u_d, y_d, 4, 8)
        Q, R = (2.0, 0.1) if weights == "scalar" else (self.Q_MATRIX, self.R_MATRIX)
        tpl = assemble(DeePCConfig(t_ini=4, horizon=8, Q=Q, R=R, lambda_g=1.0,
                                   lambda_y=lambda_y, u_lower=-1.0, u_upper=1.0), data)
        history = tpl.make_history()
        u_hist = rng.standard_normal((4, 3))
        y_hist, _ = rollout(A, B, C, D, u_hist, x0=rng.standard_normal(4))
        for u, y in zip(u_hist, y_hist):
            history.push(u, y)
        # an offset reference makes the constant term large against the cost
        for offset in (0.0, 30.0):
            self.check(tpl, data, history, offset + rng.standard_normal((8, 3)))

    @pytest.fixture(scope="class")
    def soft_arm(self):
        cfg = ExperimentConfig()
        dataset = collect_dataset(cfg, seed=0)
        data = condense_lossless(partition_past_future(dataset, cfg.t_ini, cfg.horizon))
        return dataset, build_controller(cfg, dataset).template.config, data

    @pytest.mark.parametrize("weights", ["scalar", "matrix"])
    @pytest.mark.parametrize("lambda_y", ["default", math.inf])
    def test_soft_arm_controller(self, soft_arm, weights, lambda_y):
        dataset, shipped, data = soft_arm
        changes = {} if lambda_y == "default" else {"lambda_y": lambda_y}
        if weights == "matrix":
            changes.update(Q=self.Q_MATRIX, R=self.R_MATRIX)
        tpl = assemble(dataclasses.replace(shipped, **changes), data)
        t_ini, N = shipped.t_ini, shipped.horizon
        for start in (100, 700):
            history = tpl.make_history()
            for k in range(start, start + t_ini):
                history.push(dataset.inputs[k], dataset.outputs[k])
            # hold the output 40 steps ahead in the record: a reachable target
            refs = np.tile(dataset.outputs[start + t_ini + 40], (N, 1))
            self.check(tpl, data, history, refs)
