"""Dense complex matrix primitives: norms, structural edits, and balancing.

Everything operates on square (or rectangular, where noted) complex128 arrays,
and no input is mutated. Every norm is ``_norm``, math.hypot of the parts, and
every pre-scale is 2^-``_exponent``, e of the largest part p = f * 2^e, 1/2 <= f < 1.
"""

import math
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


def _norm(x: np.ndarray) -> float:
    # Exact under power-of-two scaling; zero entries add nothing to the sum.
    return math.hypot(*np.ravel(x).view(np.float64).tolist())


def _exponent(x: np.ndarray) -> int:
    return math.frexp(float(np.abs(np.ravel(x).view(np.float64)).max()))[1]


def frobenius_norm(a) -> float:
    """sqrt of the sum of squared moduli of all entries; no square over- or underflows."""
    return _norm(as_matrix(a))


def subdiagonal_norm(a) -> float:
    """Frobenius norm of the strictly lower-triangular part.

    Zero exactly when the matrix is upper triangular; this is the convergence
    metric of the QR iteration drivers.
    """
    return _norm(np.tril(require_square(a), -1))


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

    Sweeps every index, rescaling row i by 2^-k and column i by 2^k. With c
    and r its off-diagonal column and row norms, k is read off their binary
    exponents as the unique integer with r/2 <= c * 4^k < 2r, so the scaled
    norms land within a factor of two of each other. A rescale is applied
    only when it shrinks the combined norm by at least 5% (this guarantees
    termination) and keeps the cumulative factor in [2^-1021, 2^1022], so
    every factor and its reciprocal are finite. The diagonal, which the
    similarity does not change, is left out of the update and comes back
    bit for bit. Stops when a full sweep changes nothing.
    """
    m = require_square(a).copy()
    n = m.shape[0]
    parts = m.view(np.float64)
    scale = np.ones(n)
    changed = True
    # A mass that overflows is skipped, and no update can overflow: no warning.
    with np.errstate(over="ignore"):
        while changed:
            changed = False
            for i in range(n):
                # Sum and diagonal come from one np.abs array: a scalar abs can
                # differ in the last bit, leaving a mass of +-1e-16 in place of 0.
                col = np.abs(m[:, i])
                row = np.abs(m[i, :])
                c = float(col.sum() - col[i])
                r = float(row.sum() - row[i])
                if not (0.0 < c < np.inf and 0.0 < r < np.inf):
                    continue
                (mc, ec), (mr, er) = math.frexp(c), math.frexp(r)
                k = -((ec - er) // 2) if mc < mr else (er - ec) // 2
                # New factor 2^(e-1); r/2 <= c * 4^k < 2r keeps each ldexp <= max(c, r).
                e = math.frexp(scale[i])[1] + k
                if not (-1020 <= e <= 1023 and math.ldexp(c, k) + math.ldexp(r, -k) < 0.95 * (c + r)):
                    continue
                scale[i] = math.ldexp(1.0, e - 1)
                d, m[i, i] = m[i, i], 0.0
                np.ldexp(parts[i], -k, out=parts[i])
                np.ldexp(parts[:, 2 * i:2 * i + 2], k, out=parts[:, 2 * i:2 * i + 2])
                m[i, i] = d
                changed = True
    return BalanceRecord(scale_factors=scale, matrix=m)
