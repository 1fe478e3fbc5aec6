"""QR factorization kernels: Householder, Givens, and Gram-Schmidt.

All kernels share one normalization: after factorizing, a diagonal phase
matrix is folded into Q and R so that every diagonal entry of R is real and
nonnegative. This removes the phase ambiguity of the decomposition and makes
results of different kernels directly comparable (QR is unique for
nonsingular input under this convention). R is returned with exact zeros
below the diagonal.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .core import frobenius_norm, require_square

__all__ = [
    "QRMethod",
    "QRFactors",
    "RankDeficiencyError",
    "householder_qr",
    "givens_qr",
    "gram_schmidt_qr",
    "factorize",
]


class QRMethod(enum.Enum):
    """Selectable decomposition kernel."""

    HOUSEHOLDER = "householder"
    GIVENS = "givens"
    GRAM_SCHMIDT_CLASSICAL = "cgs"
    GRAM_SCHMIDT_MODIFIED = "mgs"


@dataclass(frozen=True)
class QRFactors:
    """Unitary factor ``q`` and upper-triangular factor ``r`` with A = QR."""

    q: np.ndarray
    r: np.ndarray


class RankDeficiencyError(ArithmeticError):
    """Gram-Schmidt hit a pivot column too small, or too large, to normalize."""


_TINY = float(np.finfo(np.float64).tiny)


def _unit_phase(z) -> complex:
    """z/|z|, guarded at the extremes of the exponent range.

    The naive divide turns the phase into inf for denormal z (the scalar
    divide goes through a reciprocal that overflows) and into 0 when |z|
    itself overflows. Power-of-two rescales are exact and phase-preserving.
    """
    z = complex(z)
    m = max(abs(z.real), abs(z.imag))
    if m == 0.0:
        return 1.0 + 0.0j
    if m < _TINY:
        z *= 2.0 ** 600
    elif m > 2.0 ** 1000:
        z *= 2.0 ** -600
    return z / abs(z)


def _normalize_phases(q: np.ndarray, r: np.ndarray) -> None:
    # Fold diag(R) phases into Q so diag(R) is real nonnegative; QR invariant
    # because the phase matrix is unitary.
    for j in range(r.shape[0]):
        d = r[j, j]
        if d != 0.0 and (d.imag != 0.0 or d.real < 0.0):
            phase = _unit_phase(d)
            r[j, j:] *= phase.conjugate()
            q[:, j] *= phase
            r[j, j] = abs(d)


def householder_qr(a) -> QRFactors:
    """QR via complex Householder reflections (the numerically robust default).

    Each reflector uses the sign choice away from the pivot to avoid
    cancellation; a column with nothing below the diagonal (including an
    all-zero pivot column) gets no reflector at all.
    """
    m = require_square(a)
    n = m.shape[0]
    r = m.copy()
    q = np.eye(n, dtype=np.complex128)
    for k in range(n - 1):
        x = r[k:, k]
        if np.linalg.norm(x[1:]) == 0.0:
            continue
        norm_x = np.linalg.norm(x)
        phase = _unit_phase(x[0])
        v = x.copy()
        v[0] += phase * norm_x
        v /= np.linalg.norm(v)
        r[k:, k:] -= 2.0 * np.outer(v, v.conj() @ r[k:, k:])
        q[:, k:] -= 2.0 * np.outer(q[:, k:] @ v, v.conj())
    _normalize_phases(q, r)
    return QRFactors(q=q, r=np.triu(r))


def givens_qr(a) -> QRFactors:
    """QR via complex Givens rotations, eliminating subdiagonal entries
    column by column."""
    m = require_square(a)
    n = m.shape[0]
    r = m.copy()
    q = np.eye(n, dtype=np.complex128)
    for j in range(n - 1):
        for i in range(j + 1, n):
            b = r[i, j]
            if b == 0.0:
                continue
            p = r[j, j]
            if max(abs(p.real), abs(p.imag), abs(b.real), abs(b.imag)) < _TINY:
                # Denormal pair: the divides below would overflow. Exact
                # power-of-two upscale; the rotation is scale-invariant.
                p = p * 2.0 ** 600
                b = b * 2.0 ** 600
            rho = np.hypot(abs(p), abs(b))
            ca = p / rho
            cb = b / rho
            # G = [[conj(ca), conj(cb)], [-cb, ca]] maps (p, b) -> (rho, 0).
            row_j = ca.conjugate() * r[j, j:] + cb.conjugate() * r[i, j:]
            row_i = -cb * r[j, j:] + ca * r[i, j:]
            r[j, j:] = row_j
            r[i, j:] = row_i
            r[i, j] = 0.0
            col_j = q[:, j] * ca + q[:, i] * cb
            col_i = -q[:, j] * cb.conjugate() + q[:, i] * ca.conjugate()
            q[:, j] = col_j
            q[:, i] = col_i
    _normalize_phases(q, r)
    return QRFactors(q=q, r=np.triu(r))


def gram_schmidt_qr(a, variant: str = "modified") -> QRFactors:
    """QR via Gram-Schmidt orthogonalization.

    ``variant`` is ``"classical"`` (projections against the original column)
    or ``"modified"`` (projections against the running residual, which loses
    far less orthogonality). Column norms are scaled like
    :func:`~eigenkit.core.frobenius_norm`, so no square over- or underflows.
    Raises :class:`RankDeficiencyError` when a pivot column norm is not above
    1e-14 * ||A||_F, since the column then carries no usable direction, or is
    not finite.
    """
    if variant not in ("classical", "modified"):
        raise ValueError(f"unknown Gram-Schmidt variant: {variant!r}")
    m = require_square(a)
    n = m.shape[0]
    q = np.zeros((n, n), dtype=np.complex128)
    r = np.zeros((n, n), dtype=np.complex128)
    tol = 1e-14 * frobenius_norm(m)
    for j in range(n):
        v = m[:, j].copy()
        if variant == "classical":
            r[:j, j] = q[:, :j].conj().T @ m[:, j]
            v -= q[:, :j] @ r[:j, j]
        else:
            for i in range(j):
                r[i, j] = np.vdot(q[:, i], v)
                v -= r[i, j] * q[:, i]
        norm_v = frobenius_norm(v[:, None])
        if not tol < norm_v < np.inf:
            raise RankDeficiencyError(
                f"pivot column {j} has norm {norm_v:.3e} (threshold {tol:.3e})"
            )
        r[j, j] = norm_v
        q[:, j] = v / norm_v
    return QRFactors(q=q, r=r)


def factorize(a, method: QRMethod = QRMethod.HOUSEHOLDER) -> QRFactors:
    """Dispatch to the kernel selected by ``method``; the kernel validates ``a``."""
    if method is QRMethod.HOUSEHOLDER:
        return householder_qr(a)
    if method is QRMethod.GIVENS:
        return givens_qr(a)
    if method is QRMethod.GRAM_SCHMIDT_CLASSICAL:
        return gram_schmidt_qr(a, "classical")
    if method is QRMethod.GRAM_SCHMIDT_MODIFIED:
        return gram_schmidt_qr(a, "modified")
    raise ValueError(f"unknown QR method: {method!r}")
