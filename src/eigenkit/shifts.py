"""Shift strategies for the shifted QR iteration."""

import cmath
import enum
import math

import numpy as np

from .core import require_square

__all__ = ["ShiftStrategy", "eigenvalues_2x2", "wilkinson_shift", "rayleigh_shift"]


class ShiftStrategy(enum.Enum):
    NO_SHIFT = "none"
    RAYLEIGH = "rayleigh"
    WILKINSON = "wilkinson"


def eigenvalues_2x2(b) -> tuple[complex, complex]:
    """Both eigenvalues of a 2x2 matrix via the stable quadratic formula.

    The larger-magnitude root comes from the non-cancelling branch of
    (tr/2) +- sqrt((tr/2)^2 - det), the other is det divided by it; both are of the
    block scaled by 2^-e, e the binary exponent of its largest part (as
    ``core._exponent`` reads it, here off the four entries as Python complexes),
    and scaled back in two halves (inf past DBL_MAX).
    """
    m = require_square(b)
    if m.shape[0] != 2:
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    entries = m.ravel().tolist()
    e = math.frexp(max([abs(x) for z in entries for x in (z.real, z.imag)]))[1]
    a_prev, b_super, b_sub, a_last = (
        complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for z in entries
    )
    half_tr = (a_prev + a_last) / 2.0
    det = a_prev * a_last - b_super * b_sub
    disc = cmath.sqrt(half_tr * half_tr - det)
    big = half_tr + disc if abs(half_tr + disc) >= abs(half_tr - disc) else half_tr - disc
    if big == 0.0:
        return 0.0j, 0.0j
    up, rest = 2.0 ** (e // 2), 2.0 ** (e - e // 2)
    return big * up * rest, det / big * up * rest


def wilkinson_shift(b) -> complex:
    """The eigenvalue of the trailing 2x2 block closer to its bottom-right
    entry.

    When both eigenvalues are equidistant from that entry, the root with the
    smaller real part (then smaller imaginary part) is returned; this total
    order makes the shift deterministic and, for the Hermitian-looking case,
    coincides with the classical closed form evaluated with sign(0) = +1.
    """
    lam1, lam2 = eigenvalues_2x2(b)
    a_last = complex(np.asarray(b)[1, 1])
    d1, d2 = (math.hypot(d.real, d.imag) for d in (lam1 - a_last, lam2 - a_last))
    if d1 < d2:
        return lam1
    if d2 < d1:
        return lam2
    return min(lam1, lam2, key=lambda z: (z.real, z.imag))


def rayleigh_shift(a) -> complex:
    """The bottom-right entry of the current iterate."""
    m = require_square(a)
    return complex(m[-1, -1])
