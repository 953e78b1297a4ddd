"""Tests for trajectory containers and block-Hankel construction."""

import numpy as np
import pytest

from softdeepc import hankel as hankel_module
from softdeepc.config import ExperimentConfig
from softdeepc.experiments import collect_dataset
from softdeepc.hankel import (
    BlockHankel,
    HankelPartition,
    TrajectoryDataset,
    build_hankel,
    is_persistently_exciting,
    numerical_rank,
    partition_past_future,
    representability_residual,
)


def naive_hankel(signal: np.ndarray, depth: int) -> np.ndarray:
    """Reference double-loop Hankel builder (oracle)."""
    signal = np.asarray(signal, dtype=float)
    if signal.ndim == 1:
        signal = signal.reshape(-1, 1)
    T, d = signal.shape
    cols = T - depth + 1
    out = np.zeros((depth * d, cols))
    for i in range(depth):
        for j in range(cols):
            out[i * d : (i + 1) * d, j] = signal[i + j]
    return out


def random_lti(rng, n, m, p):
    """Stable random LTI realization (A, B, C, D)."""
    A = rng.standard_normal((n, n))
    A *= 0.9 / max(abs(np.linalg.eigvals(A)))
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    D = 0.1 * rng.standard_normal((p, m))
    return A, B, C, D


def simulate_lti(A, B, C, D, u, x0=None):
    """Step the state equation directly; independent of any package code."""
    n = A.shape[0]
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    ys = []
    for uk in u:
        ys.append(C @ x + D @ uk)
        x = A @ x + B @ uk
    return np.array(ys)


class TestTrajectoryDataset:
    def test_shapes_and_dims(self):
        ds = TrajectoryDataset(inputs=np.zeros((40, 3)), outputs=np.ones((40, 2)))
        assert ds.length == 40
        assert ds.input_dim == 3
        assert ds.output_dim == 2

    def test_1d_signals_promoted(self):
        ds = TrajectoryDataset(inputs=[1.0, 2.0, 3.0], outputs=[4.0, 5.0, 6.0])
        assert ds.inputs.shape == (3, 1)
        assert ds.outputs.shape == (3, 1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="identical length"):
            TrajectoryDataset(inputs=np.zeros((10, 1)), outputs=np.zeros((11, 1)))

    def test_arrays_immutable(self):
        ds = TrajectoryDataset(inputs=np.zeros((5, 1)), outputs=np.zeros((5, 1)))
        with pytest.raises(ValueError):
            ds.inputs[0, 0] = 1.0

    def test_caller_arrays_stay_writable(self):
        # freezing used to flip the caller's own array to read-only
        u = np.zeros((10, 2))
        ds = TrajectoryDataset(u, np.zeros((10, 1)))
        u[0, 0] = 1.0
        assert ds.inputs[0, 0] == 0.0
        assert not ds.inputs.flags.writeable


class TestBuildHankel:
    def test_scalar_example(self):
        # [1,2,3,4] at depth 2 -> [[1,2,3],[2,3,4]]
        h = build_hankel([1.0, 2.0, 3.0, 4.0], depth=2)
        np.testing.assert_array_equal(h.matrix, [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])
        assert h.signal_dim == 1
        assert h.depth == 2

    def test_shape_contract(self):
        rng = np.random.default_rng(7)
        signal = rng.standard_normal((500, 3))
        h = build_hankel(signal, depth=50)
        assert h.matrix.shape == (150, 451)
        assert h.columns == 451

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(11)
        for d, T, L in [(1, 30, 5), (2, 41, 7), (3, 500, 50)]:
            signal = rng.standard_normal((T, d))
            h = build_hankel(signal, depth=L)
            np.testing.assert_allclose(h.matrix, naive_hankel(signal, L), rtol=0, atol=0)

    def test_block_row_layout_time_major(self):
        # column j must stack samples j..j+L-1 with all channels contiguous
        signal = np.arange(12.0).reshape(6, 2)
        h = build_hankel(signal, depth=3)
        np.testing.assert_array_equal(h.matrix[:, 1], signal[1:4].ravel())

    def test_depth_bounds(self):
        with pytest.raises(ValueError, match="depth"):
            build_hankel([1.0, 2.0], depth=3)
        with pytest.raises(ValueError, match="depth"):
            build_hankel([1.0, 2.0], depth=0)

    def test_full_depth_single_column(self):
        h = build_hankel([1.0, 2.0, 3.0], depth=3)
        assert h.matrix.shape == (3, 1)
        np.testing.assert_array_equal(h.matrix[:, 0], [1.0, 2.0, 3.0])

    def test_shift_property(self):
        # sliding the signal by one sample drops the first column
        rng = np.random.default_rng(23)
        signal = rng.standard_normal((60, 2))
        h_full = build_hankel(signal, depth=8)
        h_shift = build_hankel(signal[1:], depth=8)
        np.testing.assert_array_equal(h_shift.matrix, h_full.matrix[:, 1:])

    def test_row_count_validated(self):
        with pytest.raises(ValueError, match="rows"):
            BlockHankel(matrix=np.zeros((5, 3)), signal_dim=2, depth=3)


class TestPersistencyOfExcitation:
    def test_constant_signal_rank_one(self):
        flag, rank = is_persistently_exciting(np.ones(100), order=4)
        assert flag is False
        assert rank == 1

    def test_leading_impulse_insufficient(self):
        # spike in the first sample only ever lands in the first block row
        flag, rank = is_persistently_exciting([1.0, 0.0, 0.0, 0.0, 0.0], order=2)
        assert flag is False
        assert rank == 1

    def test_random_multichannel_full_rank(self):
        rng = np.random.default_rng(3)
        signal = rng.standard_normal((600, 3))
        flag, rank = is_persistently_exciting(signal, order=53)
        assert flag is True
        assert rank == 159

    def test_order_monotonicity(self):
        # losing PE at some order implies losing it at all higher orders
        rng = np.random.default_rng(5)
        # low-diversity signal: 4 distinct levels repeated
        levels = rng.standard_normal(4)
        signal = np.tile(levels, 30)
        flags = [is_persistently_exciting(signal, order=k)[0] for k in range(1, 10)]
        dropped = False
        for f in flags:
            if not f:
                dropped = True
            if dropped:
                assert not f

    def test_rank_definition_matches_numpy(self):
        rng = np.random.default_rng(9)
        signal = rng.standard_normal((80, 2))
        h = build_hankel(signal, depth=6)
        _, rank = is_persistently_exciting(signal, order=6)
        assert rank == np.linalg.matrix_rank(h.matrix)


def svd_excitation_oracle(signal, order):
    """(full row rank, rank) of the order-L Hankel matrix by a dense SVD."""
    matrix = naive_hankel(signal, order)
    rank = int(np.linalg.matrix_rank(matrix))
    return rank == matrix.shape[0], rank


class TestExcitationCertificate:
    """Both paths of the PE check against the dense-SVD oracle.

    The Gram certificate answers full row rank without an SVD; every other
    answer comes from the SVD, counted through hankel.numerical_rank.
    """

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []
        real = hankel_module.numerical_rank

        def counted(matrix):
            calls.append(matrix.shape)
            return real(matrix)

        monkeypatch.setattr(hankel_module, "numerical_rank", counted)
        return calls

    @pytest.fixture(scope="class")
    def stage_dither(self):
        cfg = ExperimentConfig()
        return collect_dataset(cfg, seed=0).inputs, cfg.pe_order()

    @staticmethod
    def check(signal, order, svd_calls, exciting, svd_runs):
        result = is_persistently_exciting(signal, order)
        assert result == svd_excitation_oracle(signal, order)
        assert result[0] is exciting
        assert len(svd_calls) == svd_runs

    def test_uniform_random_is_certified(self, svd_calls):
        signal = np.random.default_rng(21).uniform(-1.0, 1.0, (600, 3))
        self.check(signal, 40, svd_calls, exciting=True, svd_runs=0)

    def test_shipped_stage_dither_is_certified(self, stage_dither, svd_calls):
        inputs, order = stage_dither
        self.check(inputs, order, svd_calls, exciting=True, svd_runs=0)

    @pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-9])
    # at 1e160 the Gram matrix overflows, at 1e-160 its products underflow
    @pytest.mark.parametrize("magnitude", [1.0, 1e160, 1e-160])
    def test_duplicated_channel_takes_the_svd(self, svd_calls, scale, magnitude):
        base = magnitude * np.random.default_rng(22).uniform(-1.0, 1.0, (600, 2))
        signal = np.column_stack([base, scale * base[:, 1]])
        self.check(signal, 40, svd_calls, exciting=False, svd_runs=1)

    def test_full_rank_below_the_shift_takes_the_svd(self, svd_calls):
        # s_min(H)^2 / trace(H H') is about 4e-15 here, far below the 1e-8
        # shift, yet the SVD counts every row
        rng = np.random.default_rng(23)
        base = rng.uniform(-1.0, 1.0, (600, 2))
        signal = np.column_stack([base, base[:, 1] + 1e-6 * rng.standard_normal(600)])
        self.check(signal, 40, svd_calls, exciting=True, svd_runs=1)

    def test_short_signal_takes_the_svd(self, svd_calls):
        # 41 columns for 60 rows: never full row rank
        signal = np.random.default_rng(24).uniform(-1.0, 1.0, (60, 3))
        self.check(signal, 20, svd_calls, exciting=False, svd_runs=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, capfd, bad):
        signal = np.random.default_rng(25).uniform(-1.0, 1.0, (600, 3))
        signal[300, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            is_persistently_exciting(signal, 40)
        # rejected before any LAPACK call could print its DLASCL errors
        captured = capfd.readouterr()
        assert captured.out == captured.err == ""


class TestNumericalRank:
    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((4, 6))) == 0

    def test_known_rank(self):
        rng = np.random.default_rng(13)
        basis = rng.standard_normal((8, 3))
        coeffs = rng.standard_normal((3, 10))
        assert numerical_rank(basis @ coeffs) == 3

    def test_tiny_trailing_singular_values_ignored(self):
        U, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 6)))
        V, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((6, 6)))
        s = np.array([1.0, 0.5, 0.1, 1e-18, 0.0, 0.0])
        assert numerical_rank(U @ np.diag(s) @ V.T) == 3


class TestPartition:
    def make_partition(self, m=2, p=1, t_ini=20, horizon=30, T=200, seed=0):
        rng = np.random.default_rng(seed)
        L = t_ini + horizon
        u = rng.standard_normal((T, m))
        y = rng.standard_normal((T, p))
        Hu = build_hankel(u, L)
        Hy = build_hankel(y, L)
        return partition_past_future(Hu, Hy, t_ini, horizon), u, y

    def test_block_shapes(self):
        part, _, _ = self.make_partition()
        K = 200 - 50 + 1
        assert part.Up.shape == (2 * 20, K)
        assert part.Uf.shape == (2 * 30, K)
        assert part.Yp.shape == (1 * 20, K)
        assert part.Yf.shape == (1 * 30, K)
        assert part.depth == 50
        assert part.columns == K

    def test_scalar_split_values(self):
        # signal 1..10, t_ini=9, horizon=1: Up rows are samples 1..9 of each
        # window, Uf row is the last sample of each window
        u = np.arange(1.0, 11.0)
        y = 2.0 * u
        Hu = build_hankel(u, 10)
        Hy = build_hankel(y, 10)
        part = partition_past_future(Hu, Hy, t_ini=9, horizon=1)
        np.testing.assert_array_equal(part.Up[:, 0], np.arange(1.0, 10.0))
        np.testing.assert_array_equal(part.Uf, [[10.0]])
        np.testing.assert_array_equal(part.Yf, [[20.0]])

    def test_blocks_tile_the_hankel(self):
        part, u, y = self.make_partition(seed=4)
        Hu = build_hankel(u, 50)
        Hy = build_hankel(y, 50)
        np.testing.assert_array_equal(np.vstack([part.Up, part.Uf]), Hu.matrix)
        np.testing.assert_array_equal(np.vstack([part.Yp, part.Yf]), Hy.matrix)

    def test_stacked_order(self):
        part, _, _ = self.make_partition(seed=6)
        rows = 0
        for block in (part.Up, part.Uf, part.Yp, part.Yf):
            np.testing.assert_array_equal(part.matrix[rows : rows + block.shape[0]], block)
            rows += block.shape[0]

    def test_caller_matrix_stays_writable(self):
        matrix = np.arange(12.0).reshape(6, 2)
        sv = np.array([3.0, 1.0])
        part = HankelPartition(matrix=matrix, input_dim=1, output_dim=1, t_ini=2,
                               horizon=1, singular_values=sv, condensed=True)
        matrix[0, 0] = sv[0] = -1.0
        assert part.matrix[0, 0] == 0.0 and part.singular_values[0] == 3.0
        assert not part.matrix.flags.writeable
        assert not part.singular_values.flags.writeable

    def test_depth_mismatch_rejected(self):
        u = np.random.default_rng(0).standard_normal(40)
        Hu = build_hankel(u, 10)
        Hy = build_hankel(u, 9)
        with pytest.raises(ValueError, match="depth"):
            partition_past_future(Hu, Hy, t_ini=5, horizon=5)

    def test_zero_t_ini_rejected(self):
        u = np.random.default_rng(0).standard_normal(40)
        H = build_hankel(u, 10)
        with pytest.raises(ValueError, match="t_ini"):
            partition_past_future(H, H, t_ini=0, horizon=10)


class TestRepresentability:
    def test_recorded_column_is_representable(self):
        rng = np.random.default_rng(17)
        u = rng.standard_normal((120, 2))
        y = rng.standard_normal((120, 1))
        L = 12
        Hu = build_hankel(u, L)
        Hy = build_hankel(y, L)
        j = 37
        res = representability_residual(Hu, Hy, u[j : j + L], y[j : j + L])
        assert res <= 1e-10

    def test_zero_trajectory_exact(self):
        rng = np.random.default_rng(19)
        u = rng.standard_normal((80, 1))
        y = rng.standard_normal((80, 1))
        Hu = build_hankel(u, 8)
        Hy = build_hankel(y, 8)
        res = representability_residual(Hu, Hy, np.zeros((8, 1)), np.zeros((8, 1)))
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_fresh_lti_trajectory_representable(self):
        # fundamental property: with PE data from an LTI plant, any other
        # trajectory of the same plant lies in the Hankel column span
        rng = np.random.default_rng(21)
        A, B, C, D = random_lti(rng, n=4, m=2, p=2)
        u_data = rng.standard_normal((400, 2))
        y_data = simulate_lti(A, B, C, D, u_data)
        L = 14
        Hu = build_hankel(u_data, L)
        Hy = build_hankel(y_data, L)
        assert is_persistently_exciting(u_data, order=4 + L)[0]
        u_test = rng.standard_normal((L, 2))
        y_test = simulate_lti(A, B, C, D, u_test, x0=rng.standard_normal(4))
        res = representability_residual(Hu, Hy, u_test, y_test)
        scale = np.linalg.norm(np.concatenate([u_test.ravel(), y_test.ravel()]))
        assert res / scale <= 1e-8

    def test_mismatched_plant_not_representable(self):
        rng = np.random.default_rng(25)
        A, B, C, D = random_lti(rng, n=4, m=1, p=1)
        A2, B2, C2, D2 = random_lti(rng, n=4, m=1, p=1)
        u_data = rng.standard_normal((300, 1))
        y_data = simulate_lti(A, B, C, D, u_data)
        L = 12
        Hu = build_hankel(u_data, L)
        Hy = build_hankel(y_data, L)
        u_test = rng.standard_normal((L, 1))
        y_test = simulate_lti(A2, B2, C2, D2, u_test, x0=rng.standard_normal(4))
        res = representability_residual(Hu, Hy, u_test, y_test)
        scale = np.linalg.norm(np.concatenate([u_test.ravel(), y_test.ravel()]))
        assert res / scale > 1e-3

    def test_shape_validation(self):
        u = np.random.default_rng(0).standard_normal(40)
        H = build_hankel(u, 10)
        with pytest.raises(ValueError, match="trajectory"):
            representability_residual(H, H, np.zeros((9, 1)), np.zeros((10, 1)))
