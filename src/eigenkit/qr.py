"""QR factorization kernels: Householder, Givens, Gram-Schmidt; Hessenberg reduction.

All kernels share one normalization: every diagonal entry of R is real and
nonnegative, any phase being folded into Q. This removes the phase ambiguity
of the decomposition and makes results of different kernels directly
comparable (QR is unique for nonsingular input under this convention). R is
returned with exact zeros below the diagonal.

The Householder and Givens kernels apply every transform to the rows of one
n x 2n array, [A | I] becoming [R | Q^H], and end in one phase fold. Givens
rotations leave their pivots real, so only rows no rotation pivoted (the last,
at least) take a fold there. Givens, which every QR step of the iteration
drivers uses, follows a fill envelope of the input and rotates no entry that is
negligible next to its pivot: that entry is set to zero, a backward error of at
most sqrt(2) u |pivot| (u = 2^-53), so on a stalled iterate every later step
skips it too.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import _exponent, _norm, frobenius_norm, require_square

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
# Unit roundoff u. A below-diagonal b with |Re b| + |Im b| <= u(|Re p| + |Im p|)
# next to its pivot p is set to zero (LAPACK ZLAHQR's CABS1 test).
_NEGLIGIBLE = 2.0 ** -53


def _unit_phase(z: complex) -> complex:
    """z/|z| (1 for z = 0), guarded at the extremes of the exponent range.

    The parts are divided by |z| one by one: a complex divide goes through a
    reciprocal, which overflows for denormal |z|. Denormal z would still lose
    digits in |z|, and |z| overflows for huge z, so both are first rescaled by
    a power of two, which is exact and phase-preserving. Moduli in this module
    are math.hypot of the parts, as abs(z) raises OverflowError past 1.8e308.
    """
    big = max(abs(z.real), abs(z.imag))
    if big == 0.0:
        return 1.0 + 0.0j
    if not _TINY <= big <= 2.0 ** 1000:
        z *= 2.0 ** (600 if big < _TINY else -600)
    modulus = math.hypot(z.real, z.imag)
    return complex(z.real / modulus, z.imag / modulus)


def _fold_phases(w: np.ndarray) -> None:
    # Fold diag(R) phases into Q so diag(R) is real nonnegative (QR invariant:
    # the phase matrix is unitary). w is [R | Q^H]: an entry off the
    # nonnegative real axis scales its whole row, which is its row of R (zero
    # left of the diagonal) and its row of Q^H, i.e. its column of Q.
    for j, z in enumerate(np.diagonal(w).tolist()):
        if z.imag == 0.0 and z.real >= 0.0:
            continue
        w[j] *= _unit_phase(z).conjugate()
        w[j, j] = math.hypot(z.real, z.imag)


def _reflector(x: np.ndarray) -> np.ndarray | None:
    """Unit v with (I - 2vv^H) x a multiple of e_1, or None when x[1:] is zero.

    The sign choice away from x[0] avoids cancellation. x is first scaled by
    2^-e, with e the exponent of its largest part (``core._exponent``): that
    is exact, v does not depend on it, and both norms are ``core._norm``.
    """
    v = np.array(x, dtype=np.complex128)
    if not v[1:].any():
        return None
    parts = v.view(np.float64)
    parts[:] = np.ldexp(parts, -_exponent(v))
    v[0] += _unit_phase(complex(v[0])) * _norm(v)
    v /= _norm(v)
    return v


def householder_qr(a) -> QRFactors:
    """QR via complex Householder reflections (the numerically robust default).

    R and Q^H are built side by side from [A | I]: each reflector is one
    update of rows k: of both. A column with nothing below the diagonal
    (including an all-zero pivot column) gets no reflector at all.
    """
    m = require_square(a)
    n = m.shape[0]
    w = np.eye(n, 2 * n, n, dtype=np.complex128)
    w[:, :n] = m
    for k in range(n - 1):
        v = _reflector(w[k:, k])
        if v is None:
            continue
        w[k:, k:] -= 2.0 * np.outer(v, v.conj() @ w[k:, k:])
        w[k + 1:, k] = 0.0
    _fold_phases(w)
    return QRFactors(q=w[:, n:].T.conj(), r=w[:, :n])


def givens_qr(a) -> QRFactors:
    """QR via complex Givens rotations, eliminating the nonzero subdiagonal
    entries column by column.

    R and Q^H are held side by side as one n x 2n array [R | Q^H], so a
    rotation is one two-row update of both. The rotations come from a fill
    envelope computed once: in column j only rows j+1..last can be nonzero,
    where ``last`` is the deepest subdiagonal nonzero of input columns 0..j
    (a rotation of rows j and i fills row i only to the right of column j).
    Exact zeros get no rotation, nor does an entry b negligible next to the
    current pivot p, |Re b| + |Im b| <= 2^-53 (|Re p| + |Im p|) (the CABS1 test
    of LAPACK's ZLAHQR): it is set to an exact zero, which moves A by at most
    sqrt(2) 2^-53 |p|. An upper-Hessenberg input thus takes at most n-1
    rotations, each on two adjacent rows, and its Q is Hessenberg too, with an
    exact zero below each skipped pivot.
    """
    m = require_square(a)
    n = m.shape[0]
    w = np.eye(n, 2 * n, n, dtype=np.complex128)
    w[:, :n] = m
    g = np.empty((2, 2), dtype=np.complex128)
    g_flat = g.reshape(4)
    # bound[j]: the last row of input column j holding a nonzero on or below
    # the diagonal. The diagonal counts as nonzero, so bound[j] >= j.
    nz = m != 0.0
    nz.flat[::n + 1] = True
    bound = (n - 1 - nz[::-1].argmax(axis=0)).tolist()
    last = 0
    for j in range(n):
        last = max(last, bound[j])
        for i in range(j + 1, last + 1):
            b = w.item(i, j)
            if b == 0.0:
                continue
            p = w.item(j, j)
            if abs(b.real) + abs(b.imag) <= _NEGLIGIBLE * (abs(p.real) + abs(p.imag)):
                # Negligible next to the pivot: zeroed, not rotated.
                w[i, j] = 0.0
                continue
            rho = pivot = math.hypot(p.real, p.imag, b.real, b.imag)
            if not 2.0 * _TINY <= pivot <= 2.0 ** 1000:
                # Denormal or huge pair: the divides below would lose digits
                # or overflow. Exact power-of-two rescale; G is scale-invariant.
                s = 2.0 ** (600 if pivot < 2.0 * _TINY else -600)
                p, b = p * s, b * s
                rho = math.hypot(p.real, p.imag, b.real, b.imag)
            ca, cb = p / rho, b / rho
            # g maps (p, b) to (rho, 0). Rows go in ascending i, never past
            # ``last``, so all rotations so far mixed rows 0..last: the Q^H
            # halves of rows j and i are zero beyond column ``last``.
            g_flat[:] = ca.conjugate(), cb.conjugate(), -cb, ca
            rows = w[j:i + 1:i - j, j:n + last + 1]
            rows[...] = g @ rows
            w[j, j] = pivot
            w[i, j] = 0.0
    # Only pivots no rotation made can be off the real axis.
    _fold_phases(w)
    return QRFactors(q=w[:, n:].T.conj(), r=w[:, :n])


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
