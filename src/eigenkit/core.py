"""Dense complex matrix primitives: norms, structural edits, and balancing.

Everything operates on square (or rectangular, where noted) numpy arrays of
dtype complex128. All functions are pure; inputs are never mutated.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BalanceRecord",
    "as_matrix",
    "require_square",
    "frobenius_norm",
    "subdiagonal_norm",
    "remove_row_col",
    "balance",
]


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a validated complex128 matrix (2-D, nonempty, finite)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def require_square(a: np.ndarray) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def frobenius_norm(a) -> float:
    """sqrt of the sum of squared moduli of all entries, taken after scaling
    by a power of two near the largest part, so no square over- or underflows."""
    parts = np.abs(as_matrix(a).ravel().view(np.float64))
    exponent = np.frexp(parts.max())[1]
    return float(np.ldexp(np.linalg.norm(np.ldexp(parts, -exponent)), exponent))


def subdiagonal_norm(a) -> float:
    """Frobenius norm of the strictly lower-triangular part.

    Zero exactly when the matrix is upper triangular; this is the convergence
    metric of the QR iteration drivers.
    """
    m = require_square(a)
    return float(np.linalg.norm(np.tril(m, -1)))


def remove_row_col(a, j: int) -> np.ndarray:
    """Return a copy with row ``j`` and column ``j`` deleted."""
    m = require_square(a)
    n = m.shape[0]
    if n < 2:
        raise ValueError("cannot remove a row/column from a 1x1 matrix")
    if not 0 <= j <= n - 1:
        raise IndexError(f"index {j} out of range [0, {n - 1}]")
    return np.delete(np.delete(m, j, axis=0), j, axis=1)


@dataclass(frozen=True)
class BalanceRecord:
    """Result of a balancing pass.

    ``matrix`` equals D^-1 @ original @ D with D = diag(scale_factors); all
    scale factors are exact powers of two, so the similarity introduces no
    rounding and the diagonal (hence the trace) is untouched.
    """

    scale_factors: np.ndarray
    matrix: np.ndarray


def balance(a) -> BalanceRecord:
    """Equalize off-diagonal row/column 1-norms by powers-of-two scaling.

    Sweeps every index, rescaling row i by 1/f and column i by f with f a
    power of two chosen so the scaled row and column norms land within a
    factor of two of each other; a rescale is applied only when it shrinks
    the combined norm by at least 5% (this guarantees termination). Stops
    when a full sweep changes nothing. The eigenvalue multiset is preserved
    because the transform is a similarity.
    """
    m = require_square(a).copy()
    n = m.shape[0]
    scale = np.ones(n)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            # Sum and diagonal come from one np.abs array: a scalar abs can
            # differ from it in the last bit, and an off-diagonal mass of
            # +-1e-16 in place of 0 makes the loops below apply spurious
            # factors or never end.
            col = np.abs(m[:, i])
            row = np.abs(m[i, :])
            c = float(col.sum() - col[i])
            r = float(row.sum() - row[i])
            # Skip an index with no off-diagonal mass, or with a mass that
            # overflowed to inf: the loops below never end on an inf.
            if not (0.0 < c < np.inf and 0.0 < r < np.inf):
                continue
            s = c + r
            f = 1.0
            # Track c * f^2 against r: the post-scale norms are (c*f, r/f).
            while c < r / 2.0:
                f *= 2.0
                c *= 4.0
            while c >= r * 2.0:
                f /= 2.0
                c /= 4.0
            if f != 1.0 and (c + r) / f < 0.95 * s:
                scale[i] *= f
                m[i, :] *= 1.0 / f
                m[:, i] *= f
                changed = True
    return BalanceRecord(scale_factors=scale, matrix=m)
