"""SVD condensation of the stacked Hankel data matrix.

The data matrix [Up; Uf; Yp; Yf] is factorized with a thin SVD; keeping
the top r singular directions yields a condensed data matrix with r
columns that spans (approximately) the same trajectory space, shrinking
the decision variable of the downstream predictive controller from
T - L + 1 to r. Raw and condensed data share one type, HankelPartition:
condensation keeps the row blocks and cuts the columns.

Only the left singular vectors W and the singular values s are needed, so
the right factor is never formed. A wide stack (more columns than rows, the
usual case) is first reduced by a QR factorization of its transpose,
stack' = Q R: then stack = R' Q' with Q orthonormal, so the SVD of the
rows x rows triangle R' has the same W and s, and the columns enter only
through the QR (Zhang, Zheng, Shang & Li, "Dimension reduction for
efficient data-enabled predictive control", IEEE L-CSS 2023).
"""

import dataclasses

import numpy as np
from scipy.linalg import qr

from .hankel import HankelPartition, numerical_rank

__all__ = ["select_rank", "factorize_and_condense"]


def left_singular(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(W, s) of the thin SVD matrix = W diag(s) V', without forming V.

    A wide matrix is reduced to the triangle R' of the QR factorization of
    its transpose first. The matrix must be finite.
    """
    rows, cols = matrix.shape
    if cols > rows:
        matrix = qr(matrix.T, mode="r", check_finite=False)[0][:rows].T
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


def factorize_and_condense(partition: HankelPartition, r: int | None = None,
                           energy_fraction: float = 0.999) -> HankelPartition:
    """Thin-SVD the stacked [Up; Uf; Yp; Yf] matrix and keep r columns.

    With r=None the rank is picked by the energy rule at energy_fraction,
    capped at the numerical rank of the stack. The condensed matrix is
    materialized as W1 @ diag(s1), which equals (stack @ V1) up to SVD
    round-off; it keeps the row layout of the partition.
    """
    stack = partition.matrix
    max_r = min(stack.shape)
    W, s = left_singular(stack)
    if r is None:
        r = min(select_rank(s, energy_fraction), numerical_rank(stack))
    else:
        if not 1 <= r <= max_r:
            raise ValueError(f"r must lie in [1, {max_r}], got {r}")
    return dataclasses.replace(partition, matrix=W[:, :r] * s[:r], singular_values=s)
