"""QR factorization kernels: Householder, Givens, Gram-Schmidt; Hessenberg reduction.

All kernels share one normalization: after factorizing, a diagonal phase
matrix is folded into Q and R so that every diagonal entry of R is real and
nonnegative. This removes the phase ambiguity of the decomposition and makes
results of different kernels directly comparable (QR is unique for
nonsingular input under this convention). R is returned with exact zeros
below the diagonal.
"""

import enum
import math
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
    "hessenberg",
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
    # because the phase matrix is unitary. Only entries off the nonnegative
    # real axis need one.
    d = np.diagonal(r)
    for j in np.flatnonzero((d.imag != 0.0) | (d.real < 0.0)):
        phase = _unit_phase(r[j, j])
        r[j, j] = abs(r[j, j])
        r[j, j + 1:] *= phase.conjugate()
        q[:, j] *= phase


def _reflector(x: np.ndarray) -> np.ndarray | None:
    """Unit v with (I - 2vv^H) x a multiple of e_1, or None when x[1:] is zero.

    The sign choice away from x[0] avoids cancellation. x is first scaled by
    a power of two near its largest part: that is exact, v does not depend
    on it, and no norm can then over- or underflow.
    """
    v = np.array(x, dtype=np.complex128)
    if not v[1:].any():
        return None
    parts = v.view(np.float64)
    parts[:] = np.ldexp(parts, -np.frexp(np.abs(parts).max())[1])
    v[0] += _unit_phase(v[0]) * np.linalg.norm(v)
    v /= np.linalg.norm(v)
    return v


def householder_qr(a) -> QRFactors:
    """QR via complex Householder reflections (the numerically robust default).

    A column with nothing below the diagonal (including an all-zero pivot
    column) gets no reflector at all.
    """
    m = require_square(a)
    n = m.shape[0]
    r = m.copy()
    q = np.eye(n, dtype=np.complex128)
    for k in range(n - 1):
        v = _reflector(r[k:, k])
        if v is None:
            continue
        r[k:, k:] -= 2.0 * np.outer(v, v.conj() @ r[k:, k:])
        q[:, k:] -= 2.0 * np.outer(q[:, k:] @ v, v.conj())
    _normalize_phases(q, r)
    return QRFactors(q=q, r=np.triu(r))


def givens_qr(a) -> QRFactors:
    """QR via complex Givens rotations, eliminating the nonzero subdiagonal
    entries column by column: an upper-Hessenberg input takes at most n-1
    rotations, each on two adjacent rows, and its Q is Hessenberg too."""
    m = require_square(a)
    n = m.shape[0]
    r = m.copy()
    q = np.eye(n, dtype=np.complex128)
    for j in range(n - 1):
        for i in r[j + 1:, j].nonzero()[0] + j + 1:
            p = complex(r[j, j])
            b = complex(r[i, j])
            big = max(abs(p.real), abs(p.imag), abs(b.real), abs(b.imag))
            if not _TINY <= big <= 2.0 ** 1000:
                # Denormal or huge pair: the divides or the moduli below would
                # overflow. Exact power-of-two rescale; G is scale-invariant.
                s = 2.0 ** (600 if big < _TINY else -600)
                p, b = p * s, b * s
            rho = math.hypot(abs(p), abs(b))
            ca = p / rho
            cb = b / rho
            # G = [[conj(ca), conj(cb)], [-cb, ca]] maps (p, b) -> (rho, 0);
            # rows j and i of R take G, columns j and i of Q take G^H (their
            # entries below row i are still zero).
            rows = r[j:i + 1:i - j, j:]
            rows[:] = [[ca.conjugate(), cb.conjugate()], [-cb, ca]] @ rows
            r[i, j] = 0.0
            cols = q[:i + 1, j:i + 1:i - j]
            cols[:] = cols @ [[ca, -cb.conjugate()], [cb, ca.conjugate()]]
    _normalize_phases(q, r)
    return QRFactors(q=q, r=r)


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


def hessenberg(a) -> np.ndarray:
    """Upper-Hessenberg H = Q^H A Q (Q unitary) by Householder reflectors.

    Entries below the subdiagonal are exact zeros; a column already zero
    there gets no reflector, so Hessenberg, triangular and diagonal input
    comes back bit for bit.
    """
    h = require_square(a).copy()
    n = h.shape[0]
    for k in range(n - 2):
        v = _reflector(h[k + 1:, k])
        if v is None:
            continue
        h[k + 1:, k:] -= 2.0 * np.outer(v, v.conj() @ h[k + 1:, k:])
        h[:, k + 1:] -= 2.0 * np.outer(h[:, k + 1:] @ v, v.conj())
        h[k + 2:, k] = 0.0
    return h
