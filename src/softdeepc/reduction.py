"""Condensation of the stacked Hankel data matrix [Up; Uf; Yp; Yf].

Both ways substitute g = V h for the decision vector of the downstream
predictive controller, with V orthonormal, and keep the data matrix
stack @ V: the same row blocks over fewer columns. Raw and condensed data
share one type, HankelPartition; the raw one is built from a dataset by
hankel.partition_past_future.

condense_lossless takes V from the QR factorization stack' = Q R. Then
stack @ Q = R', the triangle that qr(stack', mode="raw") returns without
forming Q (rows x rows for the usual wide stack; that mode triangularizes
only the top rows of the factored array), and range(Q) contains
range(stack'). The cost and every constraint read g only through stack @ g
and ||g||^2, so with lambda_g > 0 the optimum lies in range(stack') and the
condensed problem is the raw one
(the lossless case of Zhang, Zheng, Shang & Li, "Dimension reduction for
efficient data-enabled predictive control", IEEE L-CSS 2023). It holds
whether or not the stack has full row rank, and needs no SVD.

factorize_and_condense truncates: it keeps the top r left singular
directions of a thin SVD, stack @ V1 = W1 diag(s1), which spans the
trajectory space only approximately when r is below the stack's rank.
Only W and s are needed, so the right factor is never formed, and a wide
stack (more columns than rows, the usual case) is reduced to the triangle
R' of the same QR first: the SVD of R' has the same W and s.

The QR runs in place on a writable C-ordered array: the transpose is the
F-ordered array geqrf overwrites, so neither LAPACK's workspace query nor
the factorization copies it. condense_stack factors the stack that
hankel.stacked_hankel has just made, handed over as hankel._Made, with no
copy at all; this is the default controller build. condense_lossless and
factorize_and_condense copy a partition's read-only matrix once and leave
it as it was. A condensed matrix is made here and handed to HankelPartition
without a further copy.
"""

import dataclasses

import numpy as np
from scipy.linalg import qr

# numerical_rank is not called here, but stays importable under this name:
# the benchmark tracer wraps reduction.numerical_rank.
from .hankel import HankelPartition, _Made, numerical_rank, singular_value_rank  # noqa: F401

__all__ = ["select_rank", "condense_lossless", "condense_stack", "factorize_and_condense"]


def _qr_triangle(matrix) -> np.ndarray:
    """R' of the QR factorization matrix' = Q R, min(shape) columns.

    matrix = R' Q' with Q orthonormal. The matrix must be finite. A writable
    C-ordered float matrix handed over as hankel._Made is factored in place
    and holds Householder data afterwards; any other matrix is copied once
    and left as it was. Either way geqrf gets the F-ordered transpose of a
    writable C-ordered array, so neither the workspace query nor the
    factorization copies it (a frozen array is never the target: f2py
    overwrites an F-ordered array even when it is read-only). R' is read off
    the raw factor as one new C-ordered array, which HankelPartition keeps
    without a copy.
    """
    made = isinstance(matrix, _Made)
    if made:
        matrix = matrix.take()
    if not (made and matrix.dtype == float and matrix.flags.c_contiguous
            and matrix.flags.writeable):
        matrix = np.array(matrix, dtype=float, order="C")
    # only the raw factor is kept, so scipy's own copy of R is freed here
    factor = qr(matrix.T, mode="raw", overwrite_a=True, check_finite=False)[0][0]
    return np.tril(factor[: min(matrix.shape)].T)


def left_singular(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(W, s) of the thin SVD matrix = W diag(s) V', without forming V.

    A wide matrix is reduced to the triangle R' of the QR factorization of
    its transpose first. The matrix must be finite.
    """
    rows, cols = matrix.shape
    if cols > rows:
        matrix = _qr_triangle(matrix)
    W, s, _ = np.linalg.svd(matrix, full_matrices=False)
    return W, s


def select_rank(singular_values, energy_fraction: float = 0.999) -> int:
    """Smallest r whose leading singular values carry the energy fraction.

    Energy is measured in squared singular values: returns the least r with
    sum(s[:r]**2) / sum(s**2) >= energy_fraction.
    """
    s = np.asarray(singular_values, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("singular_values must be a nonempty 1-D array")
    if np.any(s < 0) or np.any(np.diff(s) > 0):
        raise ValueError("singular_values must be nonnegative and descending")
    if not 0.0 < energy_fraction <= 1.0:
        raise ValueError(f"energy_fraction must lie in (0, 1], got {energy_fraction}")
    energy = np.cumsum(s**2)
    if energy[-1] == 0.0:
        raise ValueError("all singular values are zero: degenerate data")
    cumulative = energy / energy[-1]  # last entry exactly 1.0 by construction
    return int(np.searchsorted(cumulative, energy_fraction, side="left")) + 1


def condense_lossless(partition: HankelPartition) -> HankelPartition:
    """The condensation that loses nothing: the triangle R' of stack' = Q R.

    Keeps min(rows, columns) columns, the row layout of the partition, and
    no singular values, and is marked triangular. With lambda_g > 0 a
    controller on it solves the same problem as one on the raw partition.
    The partition's matrix is copied once and left as it was.
    """
    return dataclasses.replace(partition, matrix=_Made(_qr_triangle(partition.matrix)),
                               condensed=True, triangular=True)


def condense_stack(stack: _Made, input_dim: int, output_dim: int, t_ini: int,
                   horizon: int) -> HankelPartition:
    """condense_lossless of the partition [Up; Uf; Yp; Yf] = stack, factored in place.

    The stack is a hankel.stacked_hankel array handed over as hankel._Made,
    so no copy of it is made: the QR overwrites it, and only the triangle
    R' is kept. The result equals condense_lossless of the partition with
    that matrix and layout.
    """
    return HankelPartition(matrix=_Made(_qr_triangle(stack)), input_dim=input_dim,
                           output_dim=output_dim, t_ini=t_ini, horizon=horizon,
                           condensed=True, triangular=True)


def factorize_and_condense(partition: HankelPartition, r: int | None = None,
                           energy_fraction: float = 0.999) -> HankelPartition:
    """Thin-SVD the stacked [Up; Uf; Yp; Yf] matrix and keep r columns.

    With r=None the rank is picked by the energy rule at energy_fraction,
    capped at the numerical rank of the stack, read off the same singular
    values (the stack is factorized once). The condensed matrix is
    materialized as W1 @ diag(s1), which equals (stack @ V1) up to SVD
    round-off; it keeps the row layout of the partition.
    """
    stack = partition.matrix
    max_r = min(stack.shape)
    W, s = left_singular(stack)
    if r is None:
        r = min(select_rank(s, energy_fraction), singular_value_rank(s, stack.shape))
    else:
        if not 1 <= r <= max_r:
            raise ValueError(f"r must lie in [1, {max_r}], got {r}")
    return dataclasses.replace(partition, matrix=_Made(W[:, :r] * s[:r]),
                               singular_values=s, condensed=True, triangular=False)
