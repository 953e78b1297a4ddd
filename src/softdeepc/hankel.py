"""Trajectory data containers and block-Hankel machinery.

Input/output records are stored as (T, dim) arrays, one row per sample.
Hankel columns stack L consecutive samples time-major: all channels of
sample i sit in rows [i*d, (i+1)*d) of the column.

HankelPartition is the one data-matrix type: the stacked [Up; Uf; Yp; Yf]
rows, either raw (one column per data window) or condensed to r columns by
the reduction module. Every raw partition is built from a TrajectoryDataset
by partition_past_future.

The containers hold read-only arrays. An array a caller passes in is
copied, so the caller's stays writable; one the package has just made
(partition_past_future's stack, a condensed matrix) is taken as it is.
stacked_hankel writes [Hu; Hy] straight into one writable array, so a raw
partition is one copy of the dataset, and the controller build's lossless
condensation factors that stack in place.

is_persistently_exciting certifies full row rank from the Gram matrix
H H' (one symmetric product and one Cholesky factorization) and runs the
SVD of H only when that certificate fails, so it returns what the SVD
would on every input.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf

__all__ = [
    "TrajectoryDataset",
    "HankelPartition",
    "build_hankel",
    "stacked_hankel",
    "numerical_rank",
    "singular_value_rank",
    "is_persistently_exciting",
    "partition_past_future",
    "representability_residual",
]


def _as_signal(signal) -> np.ndarray:
    """Coerce a sample sequence to a float (T, d) array."""
    arr = np.asarray(signal, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"signal must be 1-D or 2-D (T, d), got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"signal must contain at least one sample, got shape {arr.shape}")
    return arr


class _Made:
    """An array the package has just made and keeps no other reference to.

    Its one consumer takes the array out, which empties the wrapper: the
    consumer may then write to the array or keep it without a copy, and a
    second hand-over raises instead of sharing it.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array

    def take(self) -> np.ndarray:
        array, self.array = self.array, None
        if array is None:
            raise ValueError("this array was already handed over")
        return array


def _freeze(arr) -> np.ndarray:
    """A read-only C-ordered float array.

    A caller's array is copied, so it stays writable. One wrapped in _Made
    is taken as it is, and copied only if it is not C-ordered float.
    """
    if isinstance(arr, _Made):
        arr = np.ascontiguousarray(arr.take(), dtype=float)
    else:
        arr = np.array(arr, dtype=float, order="C")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TrajectoryDataset:
    """Paired input/output sample sequences from one experiment.

    inputs:  (T, m) array, one actuation vector per sample.
    outputs: (T, p) array, one measurement vector per sample.
    Every sample must be finite: the stack's QR does not check.
    """

    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inputs", _freeze(_as_signal(self.inputs)))
        object.__setattr__(self, "outputs", _freeze(_as_signal(self.outputs)))
        for name in ("inputs", "outputs"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"dataset {name} must be finite (found NaN or inf)")
        if len(self.inputs) != len(self.outputs):
            raise ValueError(
                f"inputs ({len(self.inputs)} samples) and outputs "
                f"({len(self.outputs)} samples) must have identical length"
            )

    @property
    def length(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def output_dim(self) -> int:
        return self.outputs.shape[1]


def _check_depth(signal: np.ndarray, depth: int) -> None:
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if depth > len(signal):
        raise ValueError(f"depth {depth} exceeds signal length {len(signal)}")


def _write_hankel(out: np.ndarray, signal: np.ndarray, depth: int) -> None:
    """Write the depth-L block Hankel matrix of a (T, d) signal into out.

    out is a C-ordered (depth * d, T - depth + 1) array, or a block of
    whole rows of one. windows[j, c, i] = signal[j + i, c]; row i*d + c of
    column j holds it, so one copy of the (depth, d, cols) view fills out.
    """
    windows = np.lib.stride_tricks.sliding_window_view(signal, depth, axis=0)
    out.reshape(depth, signal.shape[1], -1)[...] = windows.transpose(2, 1, 0)


def build_hankel(signal, depth: int) -> np.ndarray:
    """The depth-L block Hankel matrix of a (T, d) signal, as a new array.

    Column j stacks samples j .. j+L-1; time-major row ordering.
    """
    arr = _as_signal(signal)
    _check_depth(arr, depth)
    matrix = np.empty((depth * arr.shape[1], len(arr) - depth + 1))
    _write_hankel(matrix, arr, depth)
    return matrix


def stacked_hankel(data: TrajectoryDataset, depth: int) -> np.ndarray:
    """[Hu; Hy], the depth-L Hankels of a dataset's inputs over its outputs.

    Both Hankels are written straight into one new writable C-ordered
    (depth * (m + p), T - depth + 1) array, with no copy of either on its
    own. Raises TypeError for anything other than a TrajectoryDataset.
    """
    if not isinstance(data, TrajectoryDataset):
        raise TypeError(f"data must be a TrajectoryDataset, got {type(data).__name__}")
    _check_depth(data.inputs, depth)
    split = depth * data.input_dim
    stack = np.empty((split + depth * data.output_dim, data.length - depth + 1))
    _write_hankel(stack[:split], data.inputs, depth)
    _write_hankel(stack[split:], data.outputs, depth)
    return stack


def numerical_rank(matrix: np.ndarray) -> int:
    """Rank by singular values, tolerance max(shape) * sigma_max * eps."""
    return singular_value_rank(np.linalg.svd(matrix, compute_uv=False), matrix.shape)


def singular_value_rank(s: np.ndarray, shape: tuple[int, int]) -> int:
    """numerical_rank of a matrix of the given shape, from its singular values."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    tol = max(shape) * s[0] * np.finfo(float).eps
    return int(np.count_nonzero(s > tol))


# The Gram certificate shifts H H' by this share of its trace, or by 100x
# the rounding bound of the shape where that is larger (_gram_certifies).
_GRAM_SHIFT = 1e-8
# Within this range of trace(H H') no product in H H' over- or underflows
# by enough to matter against the shift, so the rounding bound holds.
_GRAM_TRACE_RANGE = (1e-150, 1e150)


def _gram_certifies(matrix: np.ndarray) -> bool:
    """True only if numerical_rank(matrix) is its row count, by a wide margin.

    G = H H' is one symmetric product, and the certificate is a Cholesky
    factorization of G - delta I, delta = share * trace G. The rounding of G
    and of that factorization is at most (K + n^2) eps trace G in the
    2-norm for an n x K matrix, and share is at least 100x that, so success
    gives s_min(H)^2 >= 0.99 delta >= 0.99 share s_max(H)^2. At share 1e-8
    that puts s_min(H) above 0.99e-4 s_max(H), orders of magnitude above
    numerical_rank's tolerance max(n, K) eps s_max(H). False says nothing:
    the caller runs the SVD.
    """
    n, K = matrix.shape
    # an overflow makes the trace non-finite, and the range check catches it
    with np.errstate(over="ignore", invalid="ignore"):
        gram = matrix @ matrix.T
    trace = float(np.trace(gram))
    if not _GRAM_TRACE_RANGE[0] < trace < _GRAM_TRACE_RANGE[1]:
        return False
    share = max(_GRAM_SHIFT, 100.0 * (K + n * n) * np.finfo(float).eps)
    gram[np.diag_indices(n)] -= share * trace
    # gram is symmetric, so its transpose is the Fortran-ordered array that
    # dpotrf factors in place
    _, info = dpotrf(gram.T, lower=False, clean=False, overwrite_a=True)
    return info == 0


def is_persistently_exciting(inputs, order: int) -> tuple[bool, int]:
    """Check persistency of excitation of a given order.

    Returns (flag, rank) where flag is True iff the order-L Hankel matrix
    of the input has full row rank m*L, and rank is its numerical_rank.
    The Gram certificate answers (True, m*L) without an SVD; the SVD runs
    when it fails or the matrix has fewer columns than rows. Raises
    ValueError on a non-finite sample.
    """
    signal = _as_signal(inputs)
    if not np.isfinite(signal).all():
        raise ValueError("input samples must be finite to check persistency of excitation")
    matrix = build_hankel(signal, order)
    rows, cols = matrix.shape
    if cols >= rows and _gram_certifies(matrix):
        return True, rows
    rank = numerical_rank(matrix)
    return rank == rows, rank


@dataclass(frozen=True)
class HankelPartition:
    """The data matrix [Up; Uf; Yp; Yf] of a past/future split.

    Rows stack the depth-(t_ini + horizon) input Hankel over the output
    Hankel, so Up/Yp are the first t_ini block rows of each and Uf/Yf the
    last `horizon`. Raw data has one column per data window (T - L + 1).

    Condensed data keeps the rows and has r columns: the raw matrix times
    an orthonormal V, so that its decision vector h stands for g = V h and
    ||g|| = ||h||. reduction.condense_lossless takes V from a QR and keeps
    everything; reduction.factorize_and_condense truncates an SVD, and only
    it sets singular_values, the spectrum of the raw matrix.

    triangular marks the QR triangle of the lossless condensation, which
    only reduction sets: row i of the matrix reads only its first i + 1
    columns. The controller reads the mark, never the zeros, to solve such
    data in input space.
    """

    matrix: np.ndarray
    input_dim: int
    output_dim: int
    t_ini: int
    horizon: int
    singular_values: np.ndarray | None = None
    condensed: bool = False
    triangular: bool = False

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))
        rows = (self.input_dim + self.output_dim) * self.depth
        if self.matrix.ndim != 2 or self.matrix.shape[0] != rows or self.columns < 1:
            raise ValueError(
                f"matrix has shape {self.matrix.shape}, expected ({rows}, K >= 1)"
            )
        if self.triangular and (not self.condensed or self.singular_values is not None):
            raise ValueError("triangular marks the lossless condensation's triangle")
        if self.singular_values is not None:
            if not self.condensed:
                raise ValueError("singular_values belong to condensed data")
            s = _freeze(self.singular_values)
            object.__setattr__(self, "singular_values", s)
            if s.ndim != 1:
                raise ValueError("singular_values must be a 1-D array")
            if np.any(s < 0) or np.any(np.diff(s) > 0):
                raise ValueError("singular_values must be nonnegative and descending")
            if self.columns > s.size:
                raise ValueError(
                    f"matrix has {self.columns} columns but only {s.size} singular values"
                )

    @property
    def Up(self) -> np.ndarray:
        return self.matrix[: self.input_dim * self.t_ini]

    @property
    def Uf(self) -> np.ndarray:
        return self.matrix[self.input_dim * self.t_ini : self.input_dim * self.depth]

    @property
    def Yp(self) -> np.ndarray:
        start = self.input_dim * self.depth
        return self.matrix[start : start + self.output_dim * self.t_ini]

    @property
    def Yf(self) -> np.ndarray:
        return self.matrix[self.input_dim * self.depth + self.output_dim * self.t_ini :]

    @property
    def depth(self) -> int:
        return self.t_ini + self.horizon

    @property
    def columns(self) -> int:
        return self.matrix.shape[1]

    @property
    def rank_used(self) -> int:
        """The column count: r for condensed data."""
        return self.columns


def partition_past_future(data: TrajectoryDataset, t_ini: int, horizon: int) -> HankelPartition:
    """The raw data matrix of a dataset, split into past (t_ini) and future (horizon).

    Its matrix is the depth-(t_ini + horizon) stacked_hankel, kept without a copy.
    """
    if t_ini < 1 or horizon < 1:
        raise ValueError(f"t_ini and horizon must be >= 1, got {t_ini} and {horizon}")
    return HankelPartition(
        matrix=_Made(stacked_hankel(data, t_ini + horizon)),
        input_dim=data.input_dim,
        output_dim=data.output_dim,
        t_ini=t_ini,
        horizon=horizon,
    )


def representability_residual(data: TrajectoryDataset, traj_u, traj_y) -> float:
    """Distance of a length-L trajectory from the span of the dataset's windows.

    Solves min_g || [Hu; Hy] g - [traj_u; traj_y] ||_2 on the depth-L
    stacked_hankel of the data by minimum-norm least squares; a residual
    near zero certifies the trajectory is representable as a linear
    combination of recorded behavior.
    """
    u, y = _as_signal(traj_u), _as_signal(traj_y)
    L = len(u)
    stack = stacked_hankel(data, L)
    if u.shape[1] != data.input_dim or y.shape != (L, data.output_dim):
        raise ValueError(f"trajectory shapes {u.shape} and {y.shape}, expected "
                         f"({L}, {data.input_dim}) and ({L}, {data.output_dim})")
    target = np.concatenate([u.ravel(), y.ravel()])
    g, *_ = np.linalg.lstsq(stack, target, rcond=None)
    return float(np.linalg.norm(stack @ g - target))
