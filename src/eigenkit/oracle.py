"""Independent eigenvalue ground truth for small matrices.

The route is deliberately disjoint from the QR iteration: characteristic
polynomial coefficients come from the trace recurrence
M_1 = A, c_{n-1} = -tr(M_1), M_{k+1} = A (M_k + c_{n-k} I),
c_{n-k-1} = -tr(M_{k+1}) / (k+1), and the roots from simultaneous
fixed-point iteration. Both stages are exponentially ill-conditioned in the
degree, so the dimension is capped at ORACLE_MAX_DIM; above that, verify
with aggregate invariants (trace / second moment) instead.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from .core import require_square

__all__ = [
    "ORACLE_MAX_DIM",
    "PolySpec",
    "RootConvergenceError",
    "char_poly",
    "poly_roots",
    "eigenvalues_oracle",
    "match_eigenvalues",
]

ORACLE_MAX_DIM = 12

_ROOT_TOL = 1e-13
_ROOT_MAX_SWEEPS = 1000


class RootConvergenceError(ArithmeticError):
    """The root iteration failed to settle within the sweep cap, or the
    characteristic polynomial overflowed before it started."""


@dataclass(frozen=True)
class PolySpec:
    """Monic polynomial p(x) = x^n + c_{n-1} x^{n-1} + ... + c_0.

    ``coefficients`` stores (c_0, ..., c_{n-1}); the leading 1 is implicit.
    """

    coefficients: tuple[complex, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients)

    def __call__(self, x: complex) -> complex:
        value = 1.0 + 0.0j
        for c in reversed(self.coefficients):
            value = value * x + c
        return value


def char_poly(a) -> PolySpec:
    """Monic characteristic polynomial of a square matrix, n <= ORACLE_MAX_DIM.

    The recurrence forms powers of A unscaled. When they overflow, it raises
    :class:`RootConvergenceError` instead of returning non-finite coefficients.
    Scaling A first would not help: ``poly_roots`` stops on an absolute step,
    which would accept inaccurate roots of the scaled polynomial.
    """
    m = require_square(a)
    n = m.shape[0]
    if n > ORACLE_MAX_DIM:
        raise ValueError(
            f"characteristic-polynomial oracle is limited to n <= {ORACLE_MAX_DIM}, got {n}"
        )
    coeffs = np.zeros(n, dtype=np.complex128)
    work = m.copy()
    eye = np.eye(n, dtype=np.complex128)
    # An overflow is reported below, as a non-finite coefficient, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs[n - 1] = -np.trace(work)
        for k in range(1, n):
            work = m @ (work + coeffs[n - k] * eye)
            coeffs[n - k - 1] = -np.trace(work) / (k + 1)
    if not np.isfinite(coeffs).all():
        raise RootConvergenceError(
            "characteristic polynomial overflowed: its coefficients are not finite"
        )
    return PolySpec(tuple(complex(c) for c in coeffs))


def poly_roots(p: PolySpec) -> list[complex]:
    """All roots of a monic polynomial by simultaneous iteration.

    Starts every root guess at (0.4 + 0.9i)^k so the guesses are distinct
    and non-real; a sweep updates each root in place by the standard
    correction p(z_i) / prod(z_i - z_j). Converged when the largest
    per-root update falls below 1e-13; raises :class:`RootConvergenceError`
    when it does not within the sweep cap, or when a root is not finite.
    """
    n = p.degree
    if n < 1:
        raise ValueError("polynomial degree must be >= 1")
    if n == 1:
        return [-p.coefficients[0]]
    roots = [(0.4 + 0.9j) ** k for k in range(n)]
    for _ in range(_ROOT_MAX_SWEEPS):
        max_step = 0.0
        for i in range(n):
            z = roots[i]
            denom = 1.0 + 0.0j
            for j in range(n):
                if j != i:
                    denom *= z - roots[j]
            if denom == 0.0:
                # Collided guesses: nudge apart and retry next sweep.
                roots[i] = z + 1e-12 * (1.0 + abs(z))
                max_step = max(max_step, abs(roots[i] - z))
                continue
            step = p(z) / denom
            roots[i] = z - step
            max_step = max(max_step, abs(step))
        if max_step < _ROOT_TOL:
            # A nan step compares false and so passes the test above.
            if not all(cmath.isfinite(z) for z in roots):
                raise RootConvergenceError("root iteration overflowed: its roots are not finite")
            return roots
    raise RootConvergenceError(
        f"root iteration did not converge within {_ROOT_MAX_SWEEPS} sweeps"
    )


def eigenvalues_oracle(a) -> list[complex]:
    """Ground-truth eigenvalues via the polynomial route (n <= ORACLE_MAX_DIM)."""
    return poly_roots(char_poly(a))


def match_eigenvalues(computed, reference) -> float:
    """Distance between two eigenvalue multisets under the best pairing.

    This is the exact minimum over all one-to-one pairings of the largest
    pairwise distance (a bottleneck assignment), for every n: a binary
    search over the distinct distances for the smallest one under which a
    perfect pairing exists.
    """
    left = [complex(z) for z in computed]
    right = [complex(z) for z in reference]
    if len(left) != len(right):
        raise ValueError(
            f"cardinality mismatch: {len(left)} vs {len(right)} eigenvalues"
        )
    if not left:
        return 0.0
    dist = np.abs(np.subtract.outer(np.array(left), np.array(right)))
    levels = np.unique(dist)
    lo, hi = 0, len(levels) - 1  # the largest distance always admits a pairing
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_perfect_matching(dist <= levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


def _has_perfect_matching(allowed: np.ndarray) -> bool:
    """Whether every row of the boolean n x n ``allowed`` can be paired with
    its own allowed column: augmenting paths, each found breadth-first from
    one unpaired row (no recursion, so any n is safe)."""
    n = allowed.shape[0]
    row_of = [-1] * n  # the row paired with each column
    col_of = [-1] * n  # the column paired with each row
    for root in range(n):
        reached_from = [-1] * n  # the row from which each column was reached
        frontier = [root]
        free = -1
        while frontier and free < 0:
            next_frontier = []
            for i in frontier:
                for j in np.flatnonzero(allowed[i]):
                    if reached_from[j] >= 0:
                        continue
                    reached_from[j] = i
                    if row_of[j] < 0:
                        free = j
                        break
                    next_frontier.append(row_of[j])
                if free >= 0:
                    break
            frontier = next_frontier
        if free < 0:
            return False
        j = free
        while j >= 0:  # flip the path's pairs back to the root
            i = reached_from[j]
            next_j = col_of[i]
            row_of[j], col_of[i] = i, j
            j = next_j
    return True
