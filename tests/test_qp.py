"""Tests for the dense QP solver."""

import tracemalloc
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import (collect_lti_dataset, kkt_residual_reference, random_minimal_lti,
                     stored_cost_matrix)

from softdeepc import controller, experiments, qp
from softdeepc.config import ExperimentConfig
from softdeepc.controller import DeePCConfig, DeePCController, assemble
from softdeepc.hankel import _Made, build_hankel, partition_past_future
from softdeepc.plants import LtiPlant
from softdeepc.qp import QpSolver
from softdeepc.runlog import StageSpec


def solve_once(P, q, A_eq=None, b_eq=None, A_in=None, lower=None, upper=None):
    """One solve on a fresh solver, so no working set carries over."""
    return QpSolver(P, A_eq, A_in).solve(q, b_eq, lower, upper)


def assert_dense_objective(sol, P, q):
    """The reported objective is 0.5 z'Pz + q'z, recomputed densely, to 1e-12."""
    z = sol.z_star
    P, q = np.asarray(P, dtype=float), np.asarray(q, dtype=float)
    assert sol.objective == pytest.approx(0.5 * z @ P @ z + q @ z, rel=1e-12)


def active_set_oracle(P, q, A_eq, b_eq, A_in, lower, upper):
    """Brute-force optimum by enumerating active sets (small instances only).

    For a strictly convex QP any KKT-consistent active set gives the global
    optimum, so the scan stops at the first candidate whose inactive rows
    are feasible and whose pinned-row multipliers have admissible signs.
    """
    n = len(q)
    n_e = 0 if A_eq is None else len(A_eq)
    n_i = len(A_in)
    for k in range(n_i + 1):
        for rows in combinations(range(n_i), k):
            for sides in product((0, 1), repeat=k):
                G = [] if A_eq is None else [A_eq]
                h = [] if A_eq is None else [b_eq]
                skip = False
                for r, side in zip(rows, sides):
                    bound = lower[r] if side == 0 else upper[r]
                    if not np.isfinite(bound):
                        skip = True
                        break
                    G.append(A_in[r : r + 1])
                    h.append([bound])
                if skip:
                    continue
                if G:
                    Gm = np.vstack(G)
                    hv = np.concatenate([np.atleast_1d(x) for x in h])
                    K = np.block([
                        [P, Gm.T],
                        [Gm, np.zeros((len(hv), len(hv)))],
                    ])
                    rhs = np.concatenate([-q, hv])
                    try:
                        sol = np.linalg.solve(K, rhs)
                    except np.linalg.LinAlgError:
                        continue
                    z = sol[:n]
                    mults = sol[n + n_e :]
                else:
                    z = np.linalg.solve(P, -q)
                    mults = np.zeros(0)
                Az = A_in @ z
                if np.any(Az < lower - 1e-9) or np.any(Az > upper + 1e-9):
                    continue
                ok = True
                for j, (r, side) in enumerate(zip(rows, sides)):
                    # pinned-low rows need multiplier <= 0, pinned-high >= 0
                    if side == 0 and mults[j] > 1e-9:
                        ok = False
                    if side == 1 and mults[j] < -1e-9:
                        ok = False
                if ok:
                    return z, float(0.5 * z @ P @ z + q @ z)
    raise AssertionError("oracle found no KKT-consistent active set")


def random_strictly_convex(rng, n, n_e, n_i):
    M = rng.standard_normal((n, n))
    P = M @ M.T + n * np.eye(n)
    q = rng.standard_normal(n)
    A_eq = rng.standard_normal((n_e, n)) if n_e else None
    A_in = rng.standard_normal((n_i, n))
    # center bounds on a feasible point so a few rows end up active
    z0 = rng.standard_normal(n)
    b_eq = A_eq @ z0 if n_e else None
    mid = A_in @ z0
    lower = mid - rng.uniform(0.05, 0.5, size=n_i)
    upper = mid + rng.uniform(0.05, 0.5, size=n_i)
    return SimpleNamespace(P=P, q=q, A_eq=A_eq, b_eq=b_eq, A_in=A_in,
                           lower=lower, upper=upper)


class TestProblemValidation:
    def test_asymmetric_rejected(self):
        P = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            QpSolver(P)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            QpSolver(np.ones((2, 3)))

    def test_constraint_width_validated(self):
        with pytest.raises(ValueError, match="A_eq"):
            QpSolver(np.eye(2), A_eq=[[1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="A_in"):
            QpSolver(np.eye(2), A_in=[1.0, 0.0])

    def test_caller_matrices_stay_writable(self):
        A_eq, A_in = np.ones((1, 2)), np.eye(2)
        solver = QpSolver(np.eye(2), A_eq=A_eq, A_in=A_in)
        A_eq[0, 0] = A_in[0, 0] = 3.0
        assert solver.A_eq[0, 0] == solver.A_in[0, 0] == 1.0
        assert not solver.A_in.flags.writeable

    def test_tiny_asymmetry_symmetrized(self):
        P = np.eye(2)
        P[0, 1] = 1e-13
        solver = QpSolver(P)
        np.testing.assert_array_equal(stored_cost_matrix(solver), 0.5 * (P + P.T))
        assert P[0, 1] == 1e-13 and P[1, 0] == 0.0

    @staticmethod
    def spd(n, seed):
        M = np.random.default_rng(seed).standard_normal((n, n))
        P = M.T @ M + np.eye(n)
        assert (P == P.T).all()
        return P

    def test_caller_P_copied_and_left_as_given(self):
        P = self.spd(6, 4)
        before = P.copy()
        solver = QpSolver(P)
        assert P.tobytes() == before.tobytes()
        assert P.flags.writeable
        assert not np.shares_memory(solver._PU, P)
        np.testing.assert_array_equal(stored_cost_matrix(solver), before)

    def test_made_P_factored_in_place(self):
        # the handed-over array becomes the factor's buffer: U over its upper
        # triangle, bit-identical to a factorization of a copy, and P left
        # in its strict lower triangle
        n = 200
        P = self.spd(n, 5)
        before = P.copy()
        made = _Made(P)
        solver = QpSolver(made)
        assert np.shares_memory(solver._PU, P)
        assert not solver._PU.flags.writeable
        U, info = qp.dpotrf(before.T, lower=0, clean=1)
        assert info == 0
        np.testing.assert_array_equal(np.triu(solver._PU), U)
        np.testing.assert_array_equal(stored_cost_matrix(solver), before)
        # the wrapper is emptied, so the array cannot reach a second owner
        with pytest.raises(ValueError, match="already handed over"):
            QpSolver(made)

    def test_made_P_that_is_read_only_is_copied(self):
        # the dpotrf wrapper would factor a read-only array in place
        P = self.spd(6, 6)
        P.flags.writeable = False
        before = P.copy()
        solver = QpSolver(_Made(P))
        assert not np.shares_memory(solver._PU, P)
        np.testing.assert_array_equal(P, before)
        np.testing.assert_array_equal(stored_cost_matrix(solver), before)

    @pytest.mark.parametrize("where", [(0, 0), (299, 0), (0, 299), (299, 299), (260, 10)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("mirrored", [False, True])
    def test_nonfinite_P_rejected_in_every_tile(self, where, bad, mirrored):
        # 300 columns span two tiles per side of the tiled check
        P = self.spd(300, 7)
        P[where] = bad
        if mirrored:
            P[where[::-1]] = bad
        with pytest.raises(ValueError, match="^P must be finite"):
            QpSolver(P)

    def test_made_P_spanning_tiles_factored_in_place(self):
        P = self.spd(300, 9)
        assert np.shares_memory(QpSolver(_Made(P))._PU, P)

    def test_asymmetry_found_past_the_first_tile(self):
        P = self.spd(300, 8)
        P[10, 280] += 1e-13 * abs(P).max()
        solver = QpSolver(P)
        np.testing.assert_array_equal(stored_cost_matrix(solver), 0.5 * (P + P.T))
        P[10, 280] += 1.0
        with pytest.raises(ValueError, match="not symmetric"):
            QpSolver(P)

    @pytest.mark.parametrize("name", ["P", "A_eq", "A_in"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_matrix_rejected(self, name, bad):
        mats = {"P": np.eye(2), "A_eq": np.ones((1, 2)), "A_in": np.eye(2)}
        mats[name][-1, -1] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            QpSolver(**mats)

    def test_bound_order_rejected(self):
        with pytest.raises(ValueError, match="lower"):
            solve_once(np.eye(1), [0.0], A_in=[[1.0]], lower=[2.0], upper=[1.0])

    def test_nan_bounds_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            solve_once(np.eye(1), [0.0], A_in=[[1.0]], lower=[np.nan], upper=[1.0])

    @pytest.mark.parametrize("bound", [np.inf, -np.inf])
    def test_unreachable_infinite_bounds_rejected(self, bound):
        # a row held at both bounds of +inf (or -inf) has no feasible value;
        # the certifier must never see such a bound
        with pytest.raises(ValueError, match="inf"):
            solve_once(np.eye(1), [0.0], A_in=[[1.0]], lower=[bound], upper=[bound])
        with pytest.raises(ValueError, match="inf"):
            solve_once(np.eye(2), [0.0, 0.0], A_in=np.eye(2),
                       lower=[-1.0, bound], upper=[1.0, bound])

    def test_eq_pair_required(self):
        with pytest.raises(ValueError, match="b_eq"):
            solve_once(np.eye(1), [0.0], A_eq=[[1.0]])

    def test_bounds_require_matrix(self):
        # a box that excludes the unconstrained optimum must not be dropped
        with pytest.raises(ValueError, match="no inequality rows"):
            solve_once(np.eye(2), [1.0, -1.0], lower=[5.0, 5.0], upper=[6.0, 6.0])
        with pytest.raises(ValueError, match="no inequality rows"):
            solve_once(np.eye(1), [0.0], upper=[0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="q"):
            solve_once(np.eye(2), [0.0])


class TestBasicSolves:
    def test_unconstrained_origin(self):
        sol = solve_once(np.eye(2), np.zeros(2))
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.z_star, np.zeros(2), atol=1e-10)
        assert sol.objective == pytest.approx(0.0, abs=1e-12)

    def test_unconstrained_general(self):
        P = np.array([[3.0, 1.0], [1.0, 2.0]])
        q = np.array([-1.0, 4.0])
        sol = solve_once(P, q)
        np.testing.assert_allclose(sol.z_star, np.linalg.solve(P, -q), atol=1e-9)
        assert sol.status == "optimal"

    def test_scalar_clamp(self):
        # min (z-3)^2 on [0, 2]: quadratic form 0.5*2z^2 - 6z, optimum z=2
        sol = solve_once([[2.0]], [-6.0], A_in=[[1.0]], lower=[0.0], upper=[2.0])
        assert sol.status == "optimal"
        assert sol.z_star[0] == pytest.approx(2.0, abs=1e-8)
        # (z-3)^2 = quadratic-form objective + constant 9
        assert sol.objective + 9.0 == pytest.approx(1.0, abs=1e-8)

    def test_projection_onto_box(self):
        # min 0.5||z - c||^2 with identity rows: solution clips c to the box
        c = np.array([3.0, -2.0, 0.4])
        sol = solve_once(np.eye(3), -c, A_in=np.eye(3),
                         lower=[-1.0, -1.0, -1.0], upper=[1.0, 1.0, 1.0])
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.z_star, [1.0, -1.0, 0.4], atol=1e-8)

    def test_equality_only_matches_kkt(self):
        rng = np.random.default_rng(0)
        n, n_e = 8, 3
        M = rng.standard_normal((n, n))
        P = M @ M.T + n * np.eye(n)
        q = rng.standard_normal(n)
        A = rng.standard_normal((n_e, n))
        b = rng.standard_normal(n_e)
        K = np.block([[P, A.T], [A, np.zeros((n_e, n_e))]])
        expected = np.linalg.solve(K, np.concatenate([-q, b]))[:n]
        sol = solve_once(P, q, A_eq=A, b_eq=b)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.z_star, expected, atol=1e-8)
        np.testing.assert_allclose(A @ sol.z_star, b, atol=1e-8)

    def test_one_sided_bounds(self):
        # min 0.5 z^2 + z with z >= 0 -> z = 0; unconstrained would be -1
        sol = solve_once([[1.0]], [1.0], A_in=[[1.0]], lower=[0.0], upper=[np.inf])
        assert sol.status == "optimal"
        assert sol.z_star[0] == pytest.approx(0.0, abs=1e-8)

    def test_pinned_inequality_row(self):
        # lower == upper inside A_in behaves as an equality
        sol = solve_once(np.eye(2), np.zeros(2), A_in=[[1.0, 1.0]],
                         lower=[3.0], upper=[3.0])
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.z_star, [1.5, 1.5], atol=1e-8)

    @pytest.mark.parametrize("P", [np.diag([1.0, 0.0]), np.ones((2, 2)),
                                   np.diag([1.0, -1.0]),
                                   np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])],
                             ids=["singular", "rank_one", "indefinite",
                                  "singular_to_round_off"])
    def test_cost_that_is_not_positive_definite_rejected(self, P):
        # singular (a flat direction, even one a bound would pin) or
        # indefinite: P has no Cholesky factor, and the solver has no other
        # solve path. The last P factors, but its second pivot is round-off
        # (pivot^2 about 1e-13 of max diag(P))
        with pytest.raises(ValueError, match="P must be positive definite"):
            QpSolver(P, A_in=np.eye(2))

    def test_ill_conditioned_positive_definite_cost_accepted(self):
        # pivot^2 / max diag(P) = 1e-9: small, but above the singular P's
        sol = QpSolver(np.diag([1.0, 1e-9])).solve([-1.0, -1e-9], None, None, None)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.z_star, [1.0, 1.0], rtol=1e-9)

    @pytest.mark.parametrize("lambda_y", [np.inf, 1e3])
    def test_template_cost_with_a_free_direction_rejected(self, monkeypatch, lambda_y):
        # lambda_g = 0 and R = 0 with m = 1 and horizon = 1 leave the cost one
        # free direction on noisy data. With the template's own rank test
        # switched off, dpotrf finds a positive round-off pivot on about half
        # of these seeds; the solver rejects every such P itself
        monkeypatch.setattr(controller, "numerical_rank", lambda M: M.shape[1])
        cfg = DeePCConfig(t_ini=4, horizon=1, R=0.0, lambda_g=0.0, lambda_y=lambda_y)
        for seed in range(300):
            rng = np.random.default_rng(seed)
            A, B, C, D = random_minimal_lti(rng, 3, 1, 1)
            u, y = collect_lti_dataset(A, B, C, D, rng, 80)
            y = y + 0.01 * rng.standard_normal(y.shape)
            part = partition_past_future(build_hankel(u, 5), build_hankel(y, 5), 4, 1)
            with pytest.raises(ValueError, match="P must be positive definite"):
                assemble(cfg, part)

    def test_equality_gram_that_does_not_factor_rejected(self, monkeypatch):
        monkeypatch.setattr(qp, "_spd_factor", lambda S: None)
        with pytest.raises(ValueError, match="does not factor"):
            QpSolver(np.eye(2), A_eq=[[1.0, 1.0]])


class TestOracleComparison:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_active_set_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        prob = random_strictly_convex(rng, n=20, n_e=5, n_i=10)
        sol = solve_once(**vars(prob))
        assert sol.status == "optimal"
        z_ref, obj_ref = active_set_oracle(prob.P, prob.q, prob.A_eq, prob.b_eq,
                                           prob.A_in, prob.lower, prob.upper)
        assert sol.objective == pytest.approx(obj_ref, abs=1e-8)
        np.testing.assert_allclose(sol.z_star, z_ref, atol=1e-6)

    def test_matches_oracle_no_equalities(self):
        rng = np.random.default_rng(7)
        prob = random_strictly_convex(rng, n=12, n_e=0, n_i=8)
        sol = solve_once(**vars(prob))
        assert sol.status == "optimal"
        z_ref, obj_ref = active_set_oracle(prob.P, prob.q, None, None,
                                           prob.A_in, prob.lower, prob.upper)
        assert sol.objective == pytest.approx(obj_ref, abs=1e-8)
        np.testing.assert_allclose(sol.z_star, z_ref, atol=1e-6)


class TestStatusPaths:
    def test_infeasible_equalities(self):
        # rows demand z=1 and z=2 simultaneously
        sol = solve_once(np.eye(1), [0.3], A_eq=[[1.0], [1.0]], b_eq=[1.0, 2.0])
        assert sol.status == "infeasible"
        assert_dense_objective(sol, np.eye(1), [0.3])

    def test_consistent_redundant_equalities_ok(self):
        sol = solve_once(np.eye(1), [0.0], A_eq=[[1.0], [2.0]], b_eq=[1.0, 2.0])
        assert sol.status == "optimal"
        assert sol.z_star[0] == pytest.approx(1.0, abs=1e-8)

    def test_bound_equality_conflict_is_infeasible(self):
        # equality forces z=5 while the bound row caps z at 1: primal
        # infeasible but consistent equalities. The bound row repeats the
        # equality row, so no step of the dual solve can move it
        sol = solve_once(np.eye(1), [0.0], A_eq=[[1.0]], b_eq=[5.0],
                         A_in=[[1.0]], lower=[0.0], upper=[1.0])
        assert (sol.status, sol.path, sol.iterations) == (
            "infeasible", "uncertified", 0)

    def test_conflicting_bound_rows_are_infeasible_within_four_changes(self):
        # z >= 2 on one row and z <= 1 on another: once the first is held,
        # the second cannot move without releasing it
        sol = solve_once(np.eye(1), [0.0], A_in=[[1.0], [1.0]],
                         lower=[2.0, -1.0], upper=[3.0, 1.0])
        assert (sol.status, sol.path) == ("infeasible", "uncertified")
        assert sol.iterations <= 4

    def test_iteration_cap_reported(self, monkeypatch):
        # three rows to add, but only two working-set changes allowed
        monkeypatch.setattr(qp, "_MAX_CHANGES", 2)
        sol = solve_once(np.eye(3), [-2.0, -2.0, -2.0], A_in=np.eye(3),
                         lower=-np.ones(3), upper=np.ones(3))
        assert (sol.status, sol.path, sol.iterations) == (
            "max_iterations", "uncertified", 2)

    def test_kkt_residual_reported(self):
        sol = solve_once(np.eye(2), [1.0, -1.0])
        assert sol.status == "optimal"
        assert 0.0 <= sol.kkt_residual <= 1e-8


class TestOptimalityProperties:
    def feasible_directions(self, prob, z, rng, count=50, step=1e-4):
        dirs = []
        tries = 0
        while len(dirs) < count and tries < 4000:
            tries += 1
            d = rng.standard_normal(len(prob.q))
            if prob.A_eq is not None:
                # project onto the equality nullspace
                d = d - prob.A_eq.T @ np.linalg.lstsq(prob.A_eq.T, d, rcond=None)[0]
            if np.linalg.norm(d) < 1e-12:
                continue
            d = d / np.linalg.norm(d)
            z_new = z + step * d
            if prob.A_in is not None:
                Az = prob.A_in @ z_new
                if np.any(Az < prob.lower - 1e-12) or np.any(Az > prob.upper + 1e-12):
                    continue
            dirs.append(d)
        return dirs

    @pytest.mark.parametrize("seed", [11, 12])
    def test_no_feasible_descent_direction(self, seed):
        rng = np.random.default_rng(seed)
        prob = random_strictly_convex(rng, n=10, n_e=2, n_i=6)
        sol = solve_once(**vars(prob))
        assert sol.status == "optimal"
        for d in self.feasible_directions(prob, sol.z_star, rng):
            perturbed = sol.z_star + 1e-4 * d
            drop = sol.objective - (0.5 * perturbed @ prob.P @ perturbed
                                    + prob.q @ perturbed)
            assert drop <= 1e-8

    def test_warm_start_same_answer(self):
        # seeded from the working set of a perturbed cost, the solve ends
        # where the solve from the empty set does
        rng = np.random.default_rng(21)
        prob = random_strictly_convex(rng, n=15, n_e=4, n_i=8)
        cold = solve_once(**vars(prob))
        solver = QpSolver(prob.P, prob.A_eq, prob.A_in)
        solver.solve(prob.q + rng.standard_normal(15), prob.b_eq, prob.lower,
                     prob.upper)
        warm = solver.solve(prob.q, prob.b_eq, prob.lower, prob.upper)
        assert (cold.path, warm.path) == ("cold", "warm")
        assert cold.status == warm.status == "optimal"
        np.testing.assert_allclose(cold.z_star, warm.z_star, atol=1e-6)
        assert cold.objective == pytest.approx(warm.objective, abs=1e-8)

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(31)
        prob = random_strictly_convex(rng, n=12, n_e=3, n_i=6)
        a = solve_once(**vars(prob))
        b = solve_once(**vars(prob))
        np.testing.assert_array_equal(a.z_star, b.z_star)
        assert a.objective == b.objective
        assert (a.path, a.sweeps) == (b.path, b.sweeps) == ("cold", 0)
        assert a.iterations == b.iterations > 0

    def test_equalities_satisfied_at_optimum(self):
        rng = np.random.default_rng(41)
        for seed in range(5):
            prob = random_strictly_convex(np.random.default_rng(seed), 10, 3, 5)
            sol = solve_once(**vars(prob))
            assert sol.status == "optimal"
            resid = np.max(np.abs(prob.A_eq @ sol.z_star - prob.b_eq))
            scale = max(1.0, np.max(np.abs(prob.b_eq)))
            assert resid <= 1e-8 * scale

    def test_stationarity_with_returned_multipliers(self):
        rng = np.random.default_rng(51)
        prob = random_strictly_convex(rng, n=10, n_e=3, n_i=5)
        sol = solve_once(**vars(prob))
        grad = (prob.P @ sol.z_star + prob.q
                + prob.A_eq.T @ sol.multipliers_eq
                + prob.A_in.T @ sol.multipliers_in)
        assert np.max(np.abs(grad)) <= 1e-6 * max(1.0, np.max(np.abs(prob.q)))


class TestSolverReuse:
    def test_repeated_solves_match_one_shot(self):
        rng = np.random.default_rng(61)
        n, n_e, n_i = 12, 3, 6
        base = random_strictly_convex(rng, n, n_e, n_i)
        solver = QpSolver(base.P, base.A_eq, base.A_in)
        for seed in range(4):
            r2 = np.random.default_rng(100 + seed)
            q = r2.standard_normal(n)
            b = base.A_eq @ r2.standard_normal(n)
            reused = solver.solve(q, b, base.lower, base.upper)
            oneshot = solve_once(base.P, q, base.A_eq, b, base.A_in, base.lower,
                                 base.upper)
            assert reused.status == oneshot.status == "optimal"
            np.testing.assert_allclose(reused.z_star, oneshot.z_star, atol=1e-6)
            assert reused.objective == pytest.approx(oneshot.objective, abs=1e-8)

    @pytest.mark.parametrize("name", ["tol_kkt", "tol_feas", "max_iter"])
    def test_solver_settings_not_taken(self, name):
        # the tolerance and the cap are module constants; a caller that still
        # passes one is told so rather than silently ignored
        with pytest.raises(TypeError, match=name):
            QpSolver(np.eye(2)).solve(np.zeros(2), **{name: 1})

    def test_missing_b_eq_rejected(self):
        solver = QpSolver(np.eye(2), A_eq=[[1.0, 0.0]])
        with pytest.raises(ValueError, match="b_eq"):
            solver.solve(np.zeros(2))

    def test_nonfinite_inputs_rejected(self):
        solver = QpSolver(np.eye(2), A_eq=[[1.0, 0.0]], A_in=np.eye(2))
        with pytest.raises(ValueError, match="q must be finite"):
            solver.solve([np.nan, 0.0], [0.0])
        with pytest.raises(ValueError, match="b_eq must be finite"):
            solver.solve(np.zeros(2), [np.inf])
        with pytest.raises(ValueError, match="NaN"):
            solver.solve(np.zeros(2), [0.0], lower=[np.nan, 0.0])


class TestWarmPath:
    """Repeated solves seeded from the last certified working set."""

    @staticmethod
    def oracle_check(sol, P, q, A_eq, b_eq, A_in, lower, upper):
        assert sol.status == "optimal"
        z_ref, obj_ref = active_set_oracle(P, q, A_eq, b_eq, A_in, lower, upper)
        np.testing.assert_allclose(sol.z_star, z_ref, atol=1e-6)
        assert sol.objective == pytest.approx(obj_ref, abs=1e-8)

    def test_drifting_sequence_matches_one_shot_and_oracle(self):
        rng = np.random.default_rng(71)
        n, n_e, n_i = 10, 2, 6
        base = random_strictly_convex(rng, n, n_e, n_i)
        solver = QpSolver(base.P, base.A_eq, base.A_in)
        q = base.q.copy()
        z0 = rng.standard_normal(n)
        half_width = rng.uniform(0.05, 0.5, size=n_i)
        paths = []
        for _ in range(8):
            # bounds stay centred on a point that meets the equalities
            q = q + 0.2 * rng.standard_normal(n)
            z0 = z0 + 0.05 * rng.standard_normal(n)
            half_width = half_width * rng.uniform(0.9, 1.1, size=n_i)
            b = base.A_eq @ z0
            lower = base.A_in @ z0 - half_width
            upper = base.A_in @ z0 + half_width
            reused = solver.solve(q, b, lower, upper)
            paths.append(reused.path)
            oneshot = solve_once(base.P, q, base.A_eq, b, base.A_in, lower, upper)
            assert oneshot.path == "cold"
            np.testing.assert_allclose(reused.z_star, oneshot.z_star, atol=1e-6)
            assert reused.objective == pytest.approx(oneshot.objective, abs=1e-8)
            self.oracle_check(reused, base.P, q, base.A_eq, b, base.A_in,
                              lower, upper)
        assert paths[0] == "cold"
        assert paths.count("warm") >= 6
        assert all(p in ("warm", "cold") for p in paths)

    def test_warm_path_reports_zero_iterations(self):
        rng = np.random.default_rng(72)
        prob = random_strictly_convex(rng, n=8, n_e=2, n_i=5)
        solver = QpSolver(prob.P, prob.A_eq, prob.A_in)
        cold = solver.solve(prob.q, prob.b_eq, prob.lower, prob.upper)
        warm = solver.solve(prob.q, prob.b_eq, prob.lower, prob.upper)
        assert (cold.path, warm.path) == ("cold", "warm")
        # the dual solve changed the working set; the warm sweep did not
        assert cold.iterations > 0 and cold.sweeps == 0
        assert warm.iterations == 0 and warm.sweeps > 0
        np.testing.assert_allclose(warm.z_star, cold.z_star, atol=1e-8)
        assert_dense_objective(cold, prob.P, prob.q)
        assert_dense_objective(warm, prob.P, prob.q)

    def test_drastic_cost_change_takes_the_dual_solve(self):
        # seed 399 is the first of 16 in seeds 0-2999 whose warm sweep does
        # not certify on the flipped cost
        rng = np.random.default_rng(399)
        prob = random_strictly_convex(rng, n=10, n_e=2, n_i=8)
        solver = QpSolver(prob.P, prob.A_eq, prob.A_in)
        first = solver.solve(prob.q, prob.b_eq, prob.lower, prob.upper)
        assert (first.status, first.path) == ("optimal", "cold")
        q = -prob.q
        sol = solver.solve(q, prob.b_eq, prob.lower, prob.upper)
        # the previous working set is wrong for the new cost
        assert np.any(np.sign(sol.multipliers_in) != np.sign(first.multipliers_in))
        # the warm try ran first, then the dual solve from the empty set
        assert sol.path == "cold" and sol.sweeps > 0 and sol.iterations > 0
        self.oracle_check(sol, prob.P, q, prob.A_eq, prob.b_eq, prob.A_in,
                          prob.lower, prob.upper)
        assert_dense_objective(sol, prob.P, q)

    def test_drastic_cost_change_after_many_warm_solves_takes_the_dual_solve(self):
        # seed 413: after 11 warm solves, the sweep from the last set does
        # not certify on the flipped cost, so the dual solve has to run
        rng = np.random.default_rng(413)
        prob = random_strictly_convex(rng, n=10, n_e=2, n_i=8)
        solver = QpSolver(prob.P, prob.A_eq, prob.A_in)
        q = prob.q
        paths = []
        for _ in range(12):
            q = q + 0.05 * rng.standard_normal(10)
            paths.append(solver.solve(q, prob.b_eq, prob.lower, prob.upper).path)
        assert paths[0] == "cold" and paths[1:] == ["warm"] * 11
        q = -prob.q
        sol = solver.solve(q, prob.b_eq, prob.lower, prob.upper)
        assert (sol.status, sol.path) == ("optimal", "cold")
        assert sol.iterations > 0 and sol.sweeps > 0
        self.oracle_check(sol, prob.P, q, prob.A_eq, prob.b_eq, prob.A_in,
                          prob.lower, prob.upper)

    # every seed in 0-2999 whose warm try on the flipped cost does not certify
    CYCLING_SEEDS = [399, 413, 545, 658, 1022, 1496, 1517, 1601, 1774, 1826,
                     1921, 2058, 2167, 2256, 2260, 2585]

    @pytest.mark.parametrize("seed", CYCLING_SEEDS)
    def test_cycling_warm_try_stops_at_the_first_repeated_set(self, seed):
        # the batch sweep is a fixed map of the working set; on these seeds
        # it returns to an earlier set within 11 sweeps, where it used to run
        # all 25 before the dual solve took over
        rng = np.random.default_rng(seed)
        prob = random_strictly_convex(rng, n=10, n_e=2, n_i=8)
        solver = QpSolver(prob.P, prob.A_eq, prob.A_in)
        solver.solve(prob.q, prob.b_eq, prob.lower, prob.upper)
        q = -prob.q
        sol = solver.solve(q, prob.b_eq, prob.lower, prob.upper)
        assert sol.path == "cold" and 0 < sol.sweeps <= 11
        self.oracle_check(sol, prob.P, q, prob.A_eq, prob.b_eq, prob.A_in,
                          prob.lower, prob.upper)

    def test_uncertified_solve_does_not_seed_the_next(self):
        solver = QpSolver(np.eye(1), A_eq=[[1.0]], A_in=[[1.0]])
        first = solver.solve([0.0], [0.5], [0.0], [1.0])
        assert (first.status, first.path) == ("optimal", "cold")
        assert solver.solve([0.1], [0.5], [0.0], [1.0]).path == "warm"
        # the equality leaves the box: primal infeasible
        bad = solver.solve([0.0], [5.0], [0.0], [1.0])
        assert (bad.status, bad.path) == ("infeasible", "uncertified")
        again = solver.solve([0.0], [0.5], [0.0], [1.0])
        assert (again.status, again.path) == ("optimal", "cold")
        assert again.z_star[0] == pytest.approx(0.5, abs=1e-8)

    def test_warm_set_drops_rows_whose_bound_became_infinite(self):
        solver = QpSolver(np.eye(2), A_in=np.eye(2))
        q = np.array([-3.0, 0.5])
        first = solver.solve(q, lower=[-1.0, -1.0], upper=[1.0, 1.0])
        np.testing.assert_allclose(first.z_star, [1.0, -0.5], atol=1e-8)
        opened = solver.solve(q, lower=[-1.0, -1.0], upper=[np.inf, 1.0])
        assert (opened.status, opened.path) == ("optimal", "warm")
        np.testing.assert_allclose(opened.z_star, [3.0, -0.5], atol=1e-8)

    def test_rank_deficient_equalities_classified_after_warm_solve(self):
        # the second equality row is twice the first
        A_eq = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
        solver = QpSolver(np.eye(3), A_eq=A_eq, A_in=np.eye(3))
        lo, hi = -np.ones(3), np.ones(3)
        q = np.array([0.4, -0.2, 3.0])

        def expected(b):
            # z1 + z2 = b with z1 - z2 = q2 - q1; z3 clipped at its lower bound
            return np.array([(b + q[1] - q[0]) / 2, (b - q[1] + q[0]) / 2, -1.0])

        first = solver.solve(q + 0.1, [0.5, 1.0], lo, hi)
        assert (first.status, first.path) == ("optimal", "cold")
        warm = solver.solve(q, [0.4, 0.8], lo, hi)
        assert (warm.status, warm.path) == ("optimal", "warm")
        np.testing.assert_allclose(warm.z_star, expected(0.4), atol=1e-8)
        bad = solver.solve(q, [0.4, 1.0], lo, hi)
        assert (bad.status, bad.path) == ("infeasible", "uncertified")
        again = solver.solve(q, [0.3, 0.6], lo, hi)
        assert (again.status, again.path) == ("optimal", "cold")
        np.testing.assert_allclose(again.z_star, expected(0.3), atol=1e-8)
        assert solver.solve(q, [0.3, 0.6 + 1e-6], lo, hi).status == "infeasible"


class TestSchurSweep:
    """Solves on the Schur complement of the bound rows, against the oracle."""

    @pytest.mark.parametrize("seed, n_e, n_i", [(81, 4, 8), (82, 6, 7), (83, 1, 9),
                                                (84, 0, 8)])
    def test_random_problems_match_oracle(self, seed, n_e, n_i):
        prob = random_strictly_convex(np.random.default_rng(seed), 12, n_e, n_i)
        solver = QpSolver(prob.P, prob.A_eq, prob.A_in)
        sol = solver.solve(prob.q, prob.b_eq, prob.lower, prob.upper)
        assert (sol.status, sol.path, sol.sweeps) == ("optimal", "cold", 0)
        assert 1 <= sol.iterations <= 2 * n_i
        TestWarmPath.oracle_check(sol, prob.P, prob.q, prob.A_eq, prob.b_eq,
                                  prob.A_in, prob.lower, prob.upper)

    def test_dependent_equality_rows_with_positive_definite_cost(self):
        rng = np.random.default_rng(85)
        prob = random_strictly_convex(rng, n=10, n_e=2, n_i=6)
        # the third row is a combination of the first two, and b_eq with it
        A_eq = np.vstack([prob.A_eq, prob.A_eq[0] - 2.0 * prob.A_eq[1]])
        b_eq = np.append(prob.b_eq, prob.b_eq[0] - 2.0 * prob.b_eq[1])
        sol = QpSolver(prob.P, A_eq, prob.A_in).solve(prob.q, b_eq, prob.lower,
                                                      prob.upper)
        assert (sol.status, sol.path) == ("optimal", "cold")
        assert sol.multipliers_eq.shape == (3,)
        grad = (prob.P @ sol.z_star + prob.q + A_eq.T @ sol.multipliers_eq
                + prob.A_in.T @ sol.multipliers_in)
        assert np.max(np.abs(grad)) <= 1e-8 * max(1.0, np.max(np.abs(prob.q)))
        # the oracle needs independent rows: the first two carry the same set
        TestWarmPath.oracle_check(sol, prob.P, prob.q, prob.A_eq, prob.b_eq,
                                  prob.A_in, prob.lower, prob.upper)

    def test_failed_block_factorization_never_certifies(self, monkeypatch):
        prob = random_strictly_convex(np.random.default_rng(86), 10, 3, 8)
        args = (prob.q, prob.b_eq, prob.lower, prob.upper)
        warm, cold = (QpSolver(prob.P, prob.A_eq, prob.A_in) for _ in range(2))
        first = warm.solve(*args)
        assert first.status == "optimal"
        assert np.count_nonzero(first.multipliers_in) >= 2
        # from here on, blocks of two or more held rows fail to factor even
        # shifted (S_ee was factored at construction); smaller ones still do
        factor = qp._spd_factor
        monkeypatch.setattr(qp, "_spd_factor",
                            lambda S: None if len(S) >= 2 else factor(S))
        duals = []
        dual = warm._dual
        monkeypatch.setattr(warm, "_dual", lambda *a: duals.append(a) or dual(*a))
        # the warm try ends at its first sweep and hands over to the dual
        # solve, which ends "inaccurate" at the first such block
        sol = warm.solve(*args)
        assert (sol.status, sol.path, sol.sweeps) == ("inaccurate", "uncertified", 1)
        assert len(duals) == 1
        # without a seed the dual solve alone ends the same way
        sol = cold.solve(*args)
        assert (sol.status, sol.path, sol.sweeps) == ("inaccurate", "uncertified", 0)
        # an uncertified result seeds nothing: once blocks factor again, the
        # next solve runs cold and certifies
        monkeypatch.setattr(qp, "_spd_factor", factor)
        sol = warm.solve(*args)
        assert (sol.status, sol.path) == ("optimal", "cold")
        TestWarmPath.oracle_check(sol, prob.P, prob.q, prob.A_eq, prob.b_eq,
                                  prob.A_in, prob.lower, prob.upper)

    @pytest.mark.parametrize("seed", [85, 90, 93])
    def test_repeated_row_block_gets_a_shifted_refined_factor(self, monkeypatch, seed):
        # bound row 6 repeats row 0: a sweep that adds both holds a block of
        # C that is only semidefinite, and its factor must be the shifted one
        rng = np.random.default_rng(seed)
        n = 6
        M = rng.standard_normal((n, n))
        P = M @ M.T + n * np.eye(n)
        A_eq, b_eq = rng.standard_normal((1, n)), np.zeros(1)
        A_in = np.vstack([np.eye(n), np.eye(n)[:1]])
        lower, upper = -np.ones(n + 1), np.ones(n + 1)
        solver = QpSolver(P, A_eq, A_in)
        assert solver.solve(np.zeros(n), b_eq, lower, upper).path == "cold"
        factor = qp._spd_factor
        factors = []

        def factor_spy(S):
            result = factor(S)
            factors.append((S.copy(), result))
            return result

        monkeypatch.setattr(qp, "_spd_factor", factor_spy)
        # pushes z_0 past its upper bound, so both copies of row 0 enter at once
        q = -P @ np.array([3.0, 0.2, -0.1, 0.0, 0.1, -0.2])
        sol = solver.solve(q, b_eq, lower, upper)
        assert (sol.status, sol.path) == ("optimal", "warm")
        singular = [result for S, result in factors
                    if len(S) == 2 and np.array_equal(S[0], S[1])]
        assert singular and all(result is not None and result[1] for result in singular)
        TestWarmPath.oracle_check(sol, P, q, A_eq, b_eq, A_in[:n], lower[:n], upper[:n])

    @pytest.mark.parametrize("seed", [0, 16, 24, 33, 50, 55, 56])
    def test_first_solves_where_the_batch_sweep_cycles(self, seed):
        # from the empty set, the sweep that adds every violated row and
        # drops every wrong-signed one at once cycles on these instances;
        # the dual solve changes one row at a time and ends
        prob = random_strictly_convex(np.random.default_rng(seed), 10, 2, 8)
        sol = QpSolver(prob.P, prob.A_eq, prob.A_in).solve(prob.q, prob.b_eq,
                                                           prob.lower, prob.upper)
        assert (sol.status, sol.path) == ("optimal", "cold")
        assert sol.iterations <= 2 * 8
        TestWarmPath.oracle_check(sol, prob.P, prob.q, prob.A_eq, prob.b_eq,
                                  prob.A_in, prob.lower, prob.upper)

    def test_pinned_row_repeating_an_equality(self):
        # a pinned bound row that repeats an equality row, scaled by 1e5: its
        # Schur complement entry is zero up to round-off of either sign
        rng = np.random.default_rng(3)
        n = 5
        M = rng.standard_normal((n, n))
        P = M @ M.T + n * np.eye(n)
        A_eq = rng.standard_normal((2, n))
        A_in = np.vstack([np.eye(n), 1e5 * A_eq[0]])
        z0 = rng.standard_normal(n)
        b_eq = A_eq @ z0
        lower = np.append(z0 - 0.3, 1e5 * b_eq[0])
        upper = np.append(z0 + 0.3, 1e5 * b_eq[0])
        q = 5.0 * rng.standard_normal(n)
        sol = QpSolver(P, A_eq, A_in).solve(q, b_eq, lower, upper)
        assert sol.status == "optimal"
        z_ref, obj_ref = active_set_oracle(P, q, A_eq, b_eq, A_in[:n], lower[:n],
                                           upper[:n])
        np.testing.assert_allclose(sol.z_star, z_ref, atol=1e-6)
        assert sol.objective == pytest.approx(obj_ref, abs=1e-8)


class TestCertifier:
    """The solver's KKT residual and objective against the dense reference
    formula."""

    @staticmethod
    def instance(rng, n_e, n_i, variant):
        """A QP and a point (z, nu, y) that need not be optimal.

        Bound rows come in kinds: pinned, two-sided, lower only, upper only,
        free, and violated; multipliers are positive, negative or zero.
        "stationary" sets q so that the gradient vanishes, so that the
        equality or box term decides the residual. "feasible" also meets the
        equalities, puts every row inside its bounds and holds a free row's
        multiplier away from zero, so that complementarity decides it.
        """
        n = 12
        M = rng.standard_normal((n, n))
        P = M @ M.T + n * np.eye(n)
        A_eq = rng.standard_normal((n_e, n)) if n_e else None
        A_in = rng.standard_normal((n_i, n)) if n_i else None
        z = rng.standard_normal(n)
        nu = rng.standard_normal(n_e)
        y = rng.standard_normal(n_i) * rng.choice([0.0, 1.0, 3.0], size=n_i)
        q = rng.standard_normal(n)
        b_eq = np.zeros(0) if A_eq is None else A_eq @ z + 0.1 * rng.standard_normal(n_e)
        lower = upper = np.zeros(0)
        if n_i:
            Az = A_in @ z
            width = rng.uniform(0.1, 1.0, size=n_i)
            lower, upper = Az - width, Az + width
            kinds = np.arange(n_i) % 6
            lower[kinds == 0] = upper[kinds == 0] = Az[kinds == 0]   # pinned
            upper[kinds == 2] = np.inf
            lower[kinds == 3] = -np.inf
            lower[kinds == 4], upper[kinds == 4] = -np.inf, np.inf
            violated = kinds == 5
            lower[violated] = Az[violated] + width[violated]
            upper[violated] = Az[violated] + 2.0 * width[violated]
            if variant == "feasible":
                lower[violated] = Az[violated] - width[violated]
                y[kinds == 4] = 2.0
        if variant != "random":
            q = -(P @ z)
            if n_e:
                q -= A_eq.T @ nu
            if n_i:
                q -= A_in.T @ y
        if variant == "feasible" and n_e:
            b_eq = A_eq @ z
        return P, A_eq, A_in, z, nu, y, q, b_eq, lower, upper

    @pytest.mark.parametrize("n_e, n_i, variant", [
        (n_e, n_i, variant) for n_e, n_i in [(0, 12), (3, 12), (3, 0), (0, 7)]
        for variant in ("random", "stationary", "feasible") if n_i or variant != "feasible"])
    def test_matches_reference_formula(self, n_e, n_i, variant):
        rng = np.random.default_rng(1000 + 10 * n_e + n_i)
        for _ in range(20):
            P, A_eq, A_in, z, nu, y, q, b_eq, lower, upper = self.instance(
                rng, n_e, n_i, variant)
            # P as the solver stores it: a caller's array copied, one handed
            # over and factored in place, and the symmetric part of a nearly
            # symmetric one, which the reference sees as the solver forms it
            skew = np.triu(rng.uniform(-1e-14, 1e-14, P.shape), 1)
            P_near = P + skew - skew.T
            assert (P_near != P_near.T).any()
            for given, P_ref in ((P, P), (_Made(P.copy()), P),
                                 (P_near, 0.5 * np.add(P_near, P_near.T))):
                solver = QpSolver(given, A_eq, A_in)
                got = solver._kkt_residual(z, nu, y, q, b_eq, lower, upper,
                                           qp._bound_mag(lower, upper))
                want = kkt_residual_reference(P_ref, A_eq, A_in, z, nu, y, q,
                                              b_eq, lower, upper)
                # the residuals are relative, so a term that is zero in exact
                # arithmetic reads at round-off level, about 1e-16: the floor
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)


class TestSeedShift:
    """The working set moved forward one input block between receding-horizon
    solves, against the same solves seeded unmoved."""

    def test_seed_shift_validated(self):
        with pytest.raises(ValueError, match="seed_shift"):
            QpSolver(np.eye(2), seed_shift=-1)
        with pytest.raises(TypeError):
            QpSolver(np.eye(2), seed_shift=1.5)

    @staticmethod
    def twin_solver(pairs):
        """A QpSolver that also solves each problem on an unshifted twin."""

        class Twin(QpSolver):
            def __init__(self, P, A_eq=None, A_in=None, seed_shift=0):
                # a handed-over P goes to one solver: the twin gets a copy
                twin_P = np.array(P.array)
                super().__init__(P, A_eq, A_in, seed_shift=seed_shift)
                self.unshifted = QpSolver(twin_P, A_eq, A_in)

            def solve(self, *args, **kwargs):
                sol = super().solve(*args, **kwargs)
                pairs.append((sol, self.unshifted.solve(*args, **kwargs)))
                return sol

        return Twin

    @staticmethod
    def check_pairs(pairs):
        for shifted, unshifted in pairs:
            assert shifted.status == unshifted.status == "optimal"
            np.testing.assert_allclose(shifted.z_star, unshifted.z_star,
                                       rtol=0, atol=1e-9)

    def test_lti_loop_agrees_and_a_standing_plan_keeps_its_set(self, monkeypatch):
        # the closed loop of TestClosedLoop.test_regulates_to_reference, with
        # the input box narrowed to +-1 so that bounds bind
        pairs = []
        monkeypatch.setattr(controller, "QpSolver", self.twin_solver(pairs))
        rng = np.random.default_rng(23)
        A, B, C, D = random_minimal_lti(rng, 3, 1, 1)
        u_d, y_d = collect_lti_dataset(A, B, C, D, rng, 200)
        part = partition_past_future(build_hankel(u_d, 13), build_hankel(y_d, 13),
                                     3, 10)
        tpl = assemble(DeePCConfig(t_ini=3, horizon=10, R=0.01, lambda_g=1.0,
                                   lambda_y=1e6, u_lower=-1.0, u_upper=1.0), part)
        assert tpl.solver.seed_shift == 1
        plant = LtiPlant(A, B, C, D)
        ctrl = DeePCController(tpl)
        rng2 = np.random.default_rng(100)
        for _ in range(3):
            u = 0.1 * rng2.standard_normal(1)
            ctrl.observe(u, plant.step(u))
        for _ in range(40):
            u0, _, fell_back = ctrl.compute(np.full((10, 1), 1.5))
            assert not fell_back
            ctrl.observe(u0, plant.step(u0))
        self.check_pairs(pairs)
        # the plan saturates and then stands still over the horizon: moving
        # its working set would be wrong every step, so the seed stays put
        assert np.count_nonzero(pairs[-1][0].multipliers_in) >= 5
        assert [s.sweeps for s, _ in pairs[-20:]] == [1] * 20

    def test_soft_arm_loop_agrees_with_fewer_sweeps(self, monkeypatch):
        # the shipped lossless controller on two fixed-point stages
        pairs = []
        monkeypatch.setattr(controller, "QpSolver", self.twin_solver(pairs))
        cfg = ExperimentConfig()
        dataset = experiments.collect_dataset(cfg, seed=0)
        experiments.run_fixed_point(cfg, seed=1, dataset=dataset,
                                    stages=[StageSpec(20.0, 0.0, 60),
                                            StageSpec(40.0, 60.0, 60)])
        assert len(pairs) == 120
        self.check_pairs(pairs)
        shifted = sum(s.sweeps for s, _ in pairs)
        unshifted = sum(u.sweeps for _, u in pairs)
        assert shifted <= unshifted


class TestSolveCost:
    """Per solve: two triangular solves on P's factor, one product with P."""

    def test_no_rows_is_the_unconstrained_minimum(self):
        rng = np.random.default_rng(82)
        M = rng.standard_normal((50, 50))
        P = M @ M.T + 50 * np.eye(50)
        q = rng.standard_normal(50)
        sol = QpSolver(P).solve(q)
        assert (sol.status, sol.path) == ("optimal", "cold")
        z_ref = np.linalg.solve(P, -q)
        assert np.linalg.norm(sol.z_star - z_ref) <= 1e-12 * np.linalg.norm(z_ref)
        assert_dense_objective(sol, P, q)

    def test_warm_solve_allocates_less_than_one_matrix(self):
        # a C-ordered Cholesky factor, or P where its F-ordered view P.T is
        # meant, would make the BLAS wrapper copy an n x n matrix per call
        n = 600
        rng = np.random.default_rng(83)
        prob = random_strictly_convex(rng, n=n, n_e=20, n_i=40)
        solver = QpSolver(prob.P, prob.A_eq, prob.A_in)
        solver.solve(prob.q, prob.b_eq, prob.lower, prob.upper)
        q = prob.q + 0.01 * rng.standard_normal(n)
        tracemalloc.start()
        try:
            sol = solver.solve(q, prob.b_eq, prob.lower, prob.upper)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (sol.status, sol.path) == ("optimal", "warm")
        assert peak < n * n * 8

    @staticmethod
    def construction_peak(P, prob):
        tracemalloc.start()
        try:
            QpSolver(P, prob.A_eq, prob.A_in)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_construction_allocates_one_factor(self):
        # P and its Cholesky factor share one n x n buffer, a copy of a
        # caller's P (about 1.24 n^2 doubles in all); a second copy, a
        # symmetrized temporary or an n x n P^-1 product would each add
        # another
        n = 600
        prob = random_strictly_convex(np.random.default_rng(84), n=n, n_e=20, n_i=40)
        assert self.construction_peak(prob.P, prob) < 1.75 * n * n * 8

    def test_construction_copies_no_handed_over_P(self):
        # a handed-over P is factored in place: construction makes no n x n
        # array of floats (about 0.23 n^2 doubles: the stacked and the
        # whitened rows; 1.23 with a copy). P is checked in tiles, so no
        # n x n boolean array is made either
        n = 600
        prob = random_strictly_convex(np.random.default_rng(84), n=n, n_e=20, n_i=40)
        assert self.construction_peak(_Made(prob.P.copy()), prob) < 0.5 * n * n * 8
