"""Tests for lossless and SVD condensation of stacked Hankel data."""

import dataclasses

import numpy as np
import pytest
from oracles import collect_lti_dataset, random_minimal_lti, rollout
from scipy.linalg import qr

from softdeepc import experiments, reduction
from softdeepc.config import ExperimentConfig
from softdeepc.controller import DeePCConfig, assemble, step
from softdeepc.hankel import (
    HankelPartition,
    TrajectoryDataset,
    _Made,
    numerical_rank,
    partition_past_future,
    stacked_hankel,
)
from softdeepc.reduction import (
    condense_lossless,
    condense_stack,
    factorize_and_condense,
    select_rank,
)


def make_partition(m=2, p=1, t_ini=4, horizon=6, T=80, seed=0, plant=None):
    rng = np.random.default_rng(seed)
    L = t_ini + horizon
    u = rng.standard_normal((T, m))
    if plant is None:
        y = rng.standard_normal((T, p))
    else:
        A, B, C = plant
        x = np.zeros(A.shape[0])
        ys = []
        for uk in u:
            ys.append(C @ x)
            x = A @ x + B @ uk
        y = np.array(ys)
    return partition_past_future(TrajectoryDataset(u, y), t_ini, horizon)


class TestSelectRank:
    def test_single_nonzero_value(self):
        assert select_rank([10.0, 0.0, 0.0], 0.5) == 1
        assert select_rank([10.0, 0.0, 0.0], 1.0) == 1

    def test_documented_spectrum(self):
        # cumulative energy of [10,5,1,0.1]: 100/126.01, 125/126.01 ~ 0.9920, ...
        assert select_rank([10.0, 5.0, 1.0, 0.1], 0.99) == 2

    def test_fraction_one_needs_all_nonzero_values(self):
        assert select_rank([3.0, 2.0, 1.0], 1.0) == 3
        assert select_rank([3.0, 2.0, 1.0, 0.0], 1.0) == 3

    def test_not_descending_rejected(self):
        with pytest.raises(ValueError, match="descending"):
            select_rank([3.0, 4.0], 0.9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            select_rank([3.0, -1.0], 0.9)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            select_rank([0.0, 0.0], 0.9)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError, match="energy_fraction"):
            select_rank([1.0], 0.0)
        with pytest.raises(ValueError, match="energy_fraction"):
            select_rank([1.0], 1.1)

    def test_monotone_in_fraction(self):
        rng = np.random.default_rng(2)
        s = np.sort(rng.uniform(0.01, 10.0, size=20))[::-1]
        ranks = [select_rank(s, f) for f in (0.5, 0.9, 0.99, 0.999, 1.0)]
        assert ranks == sorted(ranks)

    def test_oracle_cumulative_scan(self):
        # brute-force scan oracle over random spectra
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = np.sort(rng.uniform(0.0, 5.0, size=8))[::-1]
            if s[0] == 0.0:
                continue
            frac = rng.uniform(0.05, 1.0)
            total = np.sum(s**2)
            expected = next(
                r for r in range(1, 9) if np.sum(s[:r] ** 2) / total >= frac - 1e-12
            )
            assert select_rank(s, frac) == expected


class TestFactorizeAndCondense:
    def test_shapes_and_rank(self):
        part = make_partition()
        cond = factorize_and_condense(part, r=5)
        q1 = (2 + 1) * 10
        assert cond.matrix.shape == (q1, 5)
        assert cond.rank_used == cond.columns == 5
        assert cond.singular_values.shape == (min(q1, part.columns),)
        assert cond.condensed and not part.condensed

    def test_two_formulas_agree(self):
        # W1 @ diag(s1) must match stack @ V1 to tight relative tolerance
        part = make_partition(seed=1)
        stack = part.matrix
        W, s, Vt = np.linalg.svd(stack, full_matrices=False)
        r = 7
        cond = factorize_and_condense(part, r=r)
        via_v = stack @ Vt[:r].T
        # singular vectors have sign freedom; compare magnitudes columnwise
        err = min(
            np.linalg.norm(cond.matrix - via_v),
            np.linalg.norm(cond.matrix + via_v),
        )
        # sign flips are per-column; do an exact per-column alignment too
        aligned = via_v * np.sign(np.sum(via_v * cond.matrix, axis=0))
        rel = np.linalg.norm(cond.matrix - aligned) / np.linalg.norm(stack)
        assert rel <= 1e-9 or err <= 1e-9 * np.linalg.norm(stack)

    def test_rank_one_stack(self):
        # outer-product data: one column reconstructs the column space
        col = np.arange(1.0, 31.0)
        coeffs = np.linspace(1.0, 2.0, 12)
        part_stack = np.outer(col, coeffs)
        # wrap in a partition: m=1, p=2, t_ini=4, horizon=6 -> q1=30
        m, p, t_ini, horizon = 1, 2, 4, 6
        part = HankelPartition(matrix=part_stack, input_dim=m, output_dim=p,
                               t_ini=t_ini, horizon=horizon)
        cond = factorize_and_condense(part, r=1)
        H = part.matrix
        Hbar = cond.matrix
        reconstructed = Hbar @ np.linalg.pinv(Hbar) @ H
        assert np.linalg.norm(reconstructed - H) <= 1e-9

    def test_full_rank_spans_every_column(self):
        # at numerical rank, every original column is representable
        A = np.diag([0.9, 0.5])
        B = np.array([[1.0], [0.3]])
        C = np.array([[1.0, 1.0]])
        part = make_partition(m=1, p=1, t_ini=4, horizon=6, T=60, seed=5,
                              plant=(A, B, C))
        stack = part.matrix
        r = numerical_rank(stack)
        assert r < min(stack.shape)  # LTI data is genuinely low-rank
        cond = factorize_and_condense(part, r=r)
        Hbar = cond.matrix
        residual, *_ = np.linalg.lstsq(Hbar, stack, rcond=None)
        err = np.linalg.norm(Hbar @ residual - stack, axis=0)
        assert np.max(err) <= 1e-8

    def test_identity_input(self):
        # identity stack: singular values all 1, condensed = first r columns
        n = 12
        m, p, t_ini, horizon = 1, 2, 2, 2
        part = HankelPartition(matrix=np.eye(n), input_dim=m, output_dim=p,
                               t_ini=t_ini, horizon=horizon)
        cond = factorize_and_condense(part, r=4)
        np.testing.assert_allclose(cond.singular_values, np.ones(n), atol=1e-12)
        # columns are scaled canonical directions (sign-ambiguous)
        np.testing.assert_allclose(np.abs(cond.matrix).sum(axis=0), np.ones(4),
                                   atol=1e-12)
        col_support = np.count_nonzero(np.abs(cond.matrix) > 1e-9, axis=0)
        np.testing.assert_array_equal(col_support, np.ones(4, dtype=int))

    def test_eckart_young(self):
        # projection error equals tail energy, non-increasing in r
        part = make_partition(seed=8, T=50)
        stack = part.matrix
        s = np.linalg.svd(stack, compute_uv=False)
        prev = np.inf
        for r in range(1, 8):
            cond = factorize_and_condense(part, r=r)
            Hbar = cond.matrix
            proj = Hbar @ np.linalg.lstsq(Hbar, stack, rcond=None)[0]
            err = np.linalg.norm(stack - proj)
            expected = np.sqrt(np.sum(s[r:] ** 2))
            assert err == pytest.approx(expected, rel=1e-9, abs=1e-9)
            assert err <= prev + 1e-12
            prev = err

    def test_rank_out_of_range(self):
        part = make_partition()
        with pytest.raises(ValueError, match="r must"):
            factorize_and_condense(part, r=0)
        with pytest.raises(ValueError, match="r must"):
            factorize_and_condense(part, r=10_000)

    def test_auto_rank_uses_energy_rule(self):
        part = make_partition(seed=12, T=120)
        s = np.linalg.svd(part.matrix, compute_uv=False)
        cond = factorize_and_condense(part, energy_fraction=0.9)
        assert cond.rank_used == select_rank(s, 0.9)

    def test_auto_rank_capped_at_numerical_rank(self):
        A = np.diag([0.8, 0.6, 0.4])
        B = np.array([[1.0], [0.5], [0.2]])
        C = np.array([[1.0, 0.5, 0.25]])
        part = make_partition(m=1, p=1, t_ini=5, horizon=5, T=100, seed=3,
                              plant=(A, B, C))
        cond = factorize_and_condense(part, energy_fraction=1.0)
        assert cond.rank_used == numerical_rank(part.matrix)

    def test_block_slices_match_partition_rows(self):
        part = make_partition(m=2, p=3, t_ini=3, horizon=4, T=60, seed=7)
        cond = factorize_and_condense(part, r=6)
        q = cond.matrix
        m, p, t_ini, N = 2, 3, 3, 4
        np.testing.assert_array_equal(cond.Up, q[: m * t_ini])
        np.testing.assert_array_equal(cond.Uf, q[m * t_ini : m * (t_ini + N)])
        np.testing.assert_array_equal(
            cond.Yp, q[m * (t_ini + N) : m * (t_ini + N) + p * t_ini]
        )
        np.testing.assert_array_equal(cond.Yf, q[m * (t_ini + N) + p * t_ini :])
        assert cond.Up.shape[0] + cond.Uf.shape[0] + cond.Yp.shape[0] + cond.Yf.shape[0] == q.shape[0]

    def test_condensed_immutable(self):
        part = make_partition()
        cond = factorize_and_condense(part, r=3)
        with pytest.raises(ValueError):
            cond.matrix[0, 0] = 5.0
        with pytest.raises(ValueError):
            cond.singular_values[0] = 5.0


def plain_svd(matrix):
    """(W, s) from np.linalg.svd of the matrix itself: the reference."""
    W, s, _ = np.linalg.svd(matrix, full_matrices=False)
    return W, s


class TestQrFirstSvd:
    """The QR-first factorization against np.linalg.svd of the stack itself."""

    @pytest.mark.parametrize("T, wide", [(200, True), (30, False)],
                             ids=["wide", "tall"])
    def test_matches_plain_svd(self, T, wide):
        part = make_partition(seed=21, T=T)
        stack = part.matrix
        assert (stack.shape[1] > stack.shape[0]) == wide
        W, s = plain_svd(stack)
        cond = factorize_and_condense(part, r=min(stack.shape))
        assert cond.singular_values.shape == (min(stack.shape),)
        np.testing.assert_allclose(cond.singular_values, s, rtol=1e-12)
        # singular vectors are defined up to sign: align each column first
        ref = W * s
        aligned = ref * np.sign(np.sum(ref * cond.matrix, axis=0))
        assert np.linalg.norm(cond.matrix - aligned) <= 1e-12 * np.linalg.norm(ref)

    def test_energy_rule_rank_matches_plain_svd_on_shipped_data(self, monkeypatch):
        cfg = ExperimentConfig()
        dataset = experiments.collect_dataset(cfg, seed=0)
        partition = partition_past_future(dataset, cfg.t_ini, cfg.horizon)
        picked = experiments._raise_rank_until_feasible(partition, cfg.reduction_energy)
        monkeypatch.setattr(reduction, "left_singular", plain_svd)
        reference = experiments._raise_rank_until_feasible(partition,
                                                           cfg.reduction_energy)
        assert picked.rank_used == reference.rank_used


class TestAutoRankFactorizesOnce:
    """r=None takes the rank cap from the singular values it already holds."""

    @pytest.fixture(scope="class")
    def stacks(self):
        cfg = ExperimentConfig()
        dataset = experiments.collect_dataset(cfg, seed=0)
        shipped = partition_past_future(dataset, cfg.t_ini, cfg.horizon)
        deficient = make_partition(m=1, p=1, t_ini=5, horizon=5, T=100, seed=3,
                                   plant=(np.diag([0.8, 0.6, 0.4]),
                                          np.array([[1.0], [0.5], [0.2]]),
                                          np.array([[1.0, 0.5, 0.25]])))
        return {"shipped": shipped, "rank_deficient": deficient}

    @pytest.mark.parametrize("energy_fraction", [0.999, 1.0])
    @pytest.mark.parametrize("which", ["shipped", "rank_deficient"])
    def test_one_svd_and_the_same_rank(self, stacks, which, energy_fraction,
                                       monkeypatch):
        part = stacks[which]
        stack = part.matrix
        # the rank the stack's own second SVD would have capped at
        _, s = reduction.left_singular(stack)
        expected = min(select_rank(s, energy_fraction), numerical_rank(stack))
        if which == "rank_deficient":
            assert numerical_rank(stack) < min(stack.shape)

        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        cond = factorize_and_condense(part, energy_fraction=energy_fraction)
        assert len(calls) == 1
        assert cond.rank_used == expected


class TestCondensedPartitionValidation:
    def test_singular_values_need_condensed_data(self):
        with pytest.raises(ValueError, match="condensed"):
            HankelPartition(matrix=np.zeros((4, 1)), input_dim=1, output_dim=1,
                            t_ini=1, horizon=1, singular_values=[1.0])

    @pytest.mark.parametrize("fields", [{}, {"condensed": True, "singular_values": [1.0]}],
                             ids=["raw", "svd"])
    def test_triangular_marks_only_the_lossless_triangle(self, fields):
        with pytest.raises(ValueError, match="triangular"):
            HankelPartition(matrix=np.zeros((4, 1)), input_dim=1, output_dim=1,
                            t_ini=1, horizon=1, triangular=True, **fields)

    def test_bad_singular_order_rejected(self):
        with pytest.raises(ValueError, match="descending"):
            HankelPartition(matrix=np.zeros((4, 1)), input_dim=1, output_dim=1,
                            t_ini=1, horizon=1, singular_values=[1.0, 2.0],
                            condensed=True)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="matrix has shape"):
            HankelPartition(matrix=np.zeros((5, 2)), input_dim=1, output_dim=1,
                            t_ini=1, horizon=1, singular_values=[2.0, 1.0],
                            condensed=True)
        with pytest.raises(ValueError, match="singular values"):
            HankelPartition(matrix=np.zeros((4, 3)), input_dim=1, output_dim=1,
                            t_ini=1, horizon=1, singular_values=[2.0, 1.0],
                            condensed=True)


def first_input(template, u_hist, y_hist, refs):
    history = template.make_history()
    for u, y in zip(u_hist, y_hist):
        history.push(u, y)
    result = step(template, history, refs)
    assert result.solution.status == "optimal"
    return result.optimal_inputs[0]


class TestLosslessCondensation:
    """The QR triangle R' of stack' = Q R stands in for the raw stack."""

    @pytest.mark.parametrize("T", [200, 30], ids=["wide", "tall"])
    def test_triangle_keeps_the_gram_matrix(self, T, monkeypatch):
        part = make_partition(seed=22, T=T)
        stack = part.matrix

        def no_svd(*args, **kwargs):
            raise AssertionError("the lossless condensation runs no SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        cond = condense_lossless(part)
        assert cond.matrix.shape == (stack.shape[0], min(stack.shape))
        assert cond.condensed and cond.singular_values is None
        assert (cond.t_ini, cond.horizon) == (part.t_ini, part.horizon)
        # stack = R' Q' with Q orthonormal, so stack stack' = R' R
        gram = stack @ stack.T
        np.testing.assert_allclose(cond.matrix @ cond.matrix.T, gram, rtol=0,
                                   atol=1e-12 * np.abs(gram).max())

    @pytest.mark.parametrize("T", [200, 30], ids=["wide", "tall"])
    def test_triangle_is_kept_as_one_c_ordered_array(self, T, monkeypatch):
        # R' is read off the raw factor as one C-ordered array, bit-identical
        # to the transpose of the R that scipy returns, and the condensed
        # partition keeps that array without a copy
        part = make_partition(seed=26, T=T)
        expected = qr(np.array(part.matrix).T, mode="raw", check_finite=False)[1].T
        made = []
        triangle = reduction._qr_triangle
        monkeypatch.setattr(reduction, "_qr_triangle",
                            lambda matrix: made.append(triangle(matrix)) or made[-1])
        cond = condense_lossless(part)
        assert made[0].flags.c_contiguous
        assert np.shares_memory(cond.matrix, made[0])
        assert cond.matrix.shape == expected.shape
        assert cond.matrix.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_only_the_lossless_condensations_mark_the_triangle(self):
        rng = np.random.default_rng(27)
        data = TrajectoryDataset(rng.standard_normal((80, 2)), rng.standard_normal((80, 1)))
        part = partition_past_future(data, 4, 6)
        lossless = condense_lossless(part)
        assert lossless.triangular
        assert condense_stack(_Made(stacked_hankel(data, 10)), input_dim=2, output_dim=1,
                              t_ini=4, horizon=6).triangular
        assert not part.triangular
        assert not factorize_and_condense(part).triangular
        # an SVD of the triangle is no triangle
        assert not factorize_and_condense(lossless, r=lossless.columns).triangular

    def test_caller_partition_left_as_it_was(self):
        part = make_partition(seed=23)
        before = part.matrix.tobytes()
        condense_lossless(part)
        assert part.matrix.tobytes() == before
        assert not part.matrix.flags.writeable

    @pytest.mark.parametrize("T", [200, 30], ids=["wide", "tall"])
    def test_handed_over_stack_factored_in_place(self, T):
        rng = np.random.default_rng(24)
        u, y = rng.standard_normal((T, 2)), rng.standard_normal((T, 1))
        layout = dict(input_dim=2, output_dim=1, t_ini=4, horizon=6)
        stack = stacked_hankel(TrajectoryDataset(u, y), 10)
        raw = stack.copy()
        cond = condense_stack(_Made(stack), **layout)
        # the QR overwrote the stack itself: no copy of it was factored
        assert not np.array_equal(stack, raw)
        expected = condense_lossless(HankelPartition(matrix=raw, **layout))
        assert cond.matrix.tobytes() == expected.matrix.tobytes()
        assert cond.condensed and cond.singular_values is None
        assert (cond.t_ini, cond.horizon) == (4, 6)

    def test_handed_over_read_only_stack_is_copied(self):
        # f2py's geqrf would overwrite an F-ordered array even when it is
        # read-only, so a frozen stack is never the target
        rng = np.random.default_rng(25)
        stack = stacked_hankel(TrajectoryDataset(*rng.standard_normal((2, 60))), 10)
        stack.flags.writeable = False
        raw = stack.copy()
        cond = condense_stack(_Made(stack), input_dim=1, output_dim=1, t_ini=4, horizon=6)
        np.testing.assert_array_equal(stack, raw)
        expected = condense_lossless(HankelPartition(matrix=raw, input_dim=1, output_dim=1,
                                                     t_ini=4, horizon=6))
        assert cond.matrix.tobytes() == expected.matrix.tobytes()

    @pytest.mark.parametrize("n, t_ini, horizon, full_row_rank",
                             [(6, 2, 3, True), (2, 3, 6, False)],
                             ids=["full_row_rank", "rank_deficient"])
    def test_noiseless_lti_first_inputs_match_raw(self, n, t_ini, horizon,
                                                  full_row_rank):
        rng = np.random.default_rng(n)
        A, B, C, D = random_minimal_lti(rng, n, 1, 1)
        u_d, y_d = collect_lti_dataset(A, B, C, D, rng, 200)
        part = partition_past_future(TrajectoryDataset(u_d, y_d), t_ini, horizon)
        assert (numerical_rank(part.matrix) == part.matrix.shape[0]) == full_row_rank
        cfg = DeePCConfig(t_ini=t_ini, horizon=horizon, Q=1.0, R=0.01,
                          lambda_g=1.0, lambda_y=1e4, u_lower=-0.5, u_upper=0.5)
        raw, lossless = assemble(cfg, part), assemble(cfg, condense_lossless(part))
        saturated = 0
        for _ in range(10):
            u_h = rng.uniform(-0.5, 0.5, (t_ini, 1))
            y_h, _ = rollout(A, B, C, D, u_h, x0=rng.standard_normal(n))
            refs = 2.0 * rng.standard_normal((horizon, 1))
            u_raw = first_input(raw, u_h, y_h, refs)
            np.testing.assert_allclose(first_input(lossless, u_h, y_h, refs), u_raw,
                                       rtol=0, atol=1e-8)
            saturated += int(abs(u_raw[0]) >= 0.5 - 1e-9)
        assert saturated > 0  # the input box binds on some cases

    def test_soft_arm_first_inputs_match_raw(self):
        # seed-0 dataset at the shipped config: 300 rows, 1451 columns. The
        # raw problem's conditioning limits agreement to about 5e-8 (inputs
        # range over [0, 90])
        cfg = ExperimentConfig()
        dataset = experiments.collect_dataset(cfg, seed=0)
        raw = experiments.build_controller(
            dataclasses.replace(cfg, use_reduction=False), dataset).template
        lossless = experiments.build_controller(cfg, dataset).template
        assert (raw.n_g, lossless.n_g) == (1451, 300) and lossless.condensed
        rng = np.random.default_rng(5)
        for _ in range(5):
            end = int(rng.integers(cfg.t_ini, dataset.length))
            window = slice(end - cfg.t_ini, end)
            target = dataset.outputs[int(rng.integers(dataset.length))]
            refs = np.tile(target, (cfg.horizon, 1))
            u_h, y_h = dataset.inputs[window], dataset.outputs[window]
            np.testing.assert_allclose(first_input(lossless, u_h, y_h, refs),
                                       first_input(raw, u_h, y_h, refs),
                                       rtol=0, atol=1e-6)
