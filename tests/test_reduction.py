"""Tests for SVD condensation of stacked Hankel data."""

import numpy as np
import pytest

from softdeepc import experiments, reduction
from softdeepc.config import ExperimentConfig
from softdeepc.hankel import (
    HankelPartition,
    build_hankel,
    numerical_rank,
    partition_past_future,
)
from softdeepc.reduction import factorize_and_condense, select_rank


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
    Hu = build_hankel(u, L)
    Hy = build_hankel(y, L)
    return partition_past_future(Hu, Hy, t_ini, horizon)


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
        depth = cfg.t_ini + cfg.horizon
        partition = partition_past_future(build_hankel(dataset.inputs, depth),
                                          build_hankel(dataset.outputs, depth),
                                          cfg.t_ini, cfg.horizon)
        picked = experiments._raise_rank_until_feasible(partition, cfg.reduction_energy)
        monkeypatch.setattr(reduction, "left_singular", plain_svd)
        reference = experiments._raise_rank_until_feasible(partition,
                                                           cfg.reduction_energy)
        assert picked.rank_used == reference.rank_used


class TestCondensedPartitionValidation:
    def test_bad_singular_order_rejected(self):
        with pytest.raises(ValueError, match="descending"):
            HankelPartition(matrix=np.zeros((4, 1)), input_dim=1, output_dim=1,
                            t_ini=1, horizon=1, singular_values=[1.0, 2.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="matrix has shape"):
            HankelPartition(matrix=np.zeros((5, 2)), input_dim=1, output_dim=1,
                            t_ini=1, horizon=1, singular_values=[2.0, 1.0])
        with pytest.raises(ValueError, match="singular values"):
            HankelPartition(matrix=np.zeros((4, 3)), input_dim=1, output_dim=1,
                            t_ini=1, horizon=1, singular_values=[2.0, 1.0])
