"""Output checks of the benchmark, independent of eigenkit.

References come from LAPACK (``numpy.linalg.eigvals``), eigenvalues are
paired by ``scipy.optimize.linear_sum_assignment`` and CSV row totals are
counted by reading the file back. eigenkit's own ``match_eigenvalues`` is not
used: it pairs greedily above n = 8.

A check returns a :class:`Verdict` with two lists of messages. ``failed``
marks the operation as failed; the run goes on. ``wrong`` marks an invariant
that holds even under the known interior-deflation fault (the count of
eigenvalues, their sum against the trace, the CSV row total); any such
message makes the whole run report ``correct: false``.
"""

from dataclasses import dataclass, field

import numpy as np

# Relative to ||R||_F, and to ||R||_F**2 for the second moment. Worst cases
# seen on the benchmark pools: 6e-14 for the enhanced solver and 1.5e-11 for
# a converged no-deflation baseline, whose stopping test is an absolute 1e-10
# on the strict lower triangle. The interior-deflation fault gives 1e-1 on
# the solve-n50 pool; errors of 5.9e-4 and up have been seen elsewhere.
TOL = 1e-9


@dataclass
class Verdict:
    failed: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)

    def extend(self, other: "Verdict") -> None:
        self.failed.extend(other.failed)
        self.wrong.extend(other.wrong)


@dataclass(frozen=True)
class Reference:
    """What a correct spectrum of the matrix R must match."""

    spectrum: np.ndarray
    scale: float
    trace: complex
    trace_sq: complex

    @property
    def n(self) -> int:
        return len(self.spectrum)


def reference(r) -> Reference:
    r = np.asarray(r, dtype=np.complex128)
    return Reference(
        spectrum=np.linalg.eigvals(r),
        scale=float(np.linalg.norm(r)) or 1.0,
        trace=complex(np.trace(r)),
        trace_sq=complex(np.sum(r * r.T)),
    )


def paired_distance(values, spectrum) -> float:
    """Largest distance under the assignment of least total distance."""
    # Imported here so that scipy's import stays out of the timed set-up.
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(np.subtract.outer(np.asarray(values), np.asarray(spectrum)))
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _count_and_sum(vals: np.ndarray, ref: Reference, label: str, verdict: Verdict) -> bool:
    if vals.shape != (ref.n,):
        verdict.wrong.append(f"{label}: {vals.size} values for n={ref.n}")
        return False
    if not np.isfinite(vals).all():
        verdict.failed.append(f"{label}: non-finite values")
        return False
    err = abs(complex(vals.sum()) - ref.trace) / ref.scale
    if not err <= TOL:
        verdict.wrong.append(f"{label}: sum misses tr A by {err:.2e} ||A||_F")
    return True


def check_spectrum(values, ref: Reference, label: str) -> Verdict:
    """Eigenvalues against LAPACK and the first two trace moments."""
    verdict = Verdict()
    vals = np.asarray(values, dtype=np.complex128)
    if not _count_and_sum(vals, ref, label, verdict):
        return verdict
    dist = paired_distance(vals, ref.spectrum) / ref.scale
    if not dist <= TOL:
        verdict.failed.append(f"{label}: LAPACK pairing distance {dist:.2e} ||A||_F")
    err2 = abs(complex(np.sum(vals * vals)) - ref.trace_sq) / ref.scale**2
    if not err2 <= TOL:
        verdict.failed.append(f"{label}: sum of squares misses tr A^2 by {err2:.2e} ||A||_F^2")
    return verdict


def check_capped(diagonal, iterations: int, k_max: int, ref: Reference, label: str) -> Verdict:
    """A run that reports no convergence: it must have used its whole budget,
    and its final diagonal, the diagonal of a similarity of A, still sums to
    tr A."""
    verdict = Verdict()
    if iterations != k_max:
        verdict.failed.append(f"{label}: unconverged after {iterations} of {k_max} iterations")
    _count_and_sum(np.asarray(diagonal, dtype=np.complex128), ref, label, verdict)
    return verdict


def csv_data_rows(path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle) - 1


def check_csv_rows(path, expected: int, label: str) -> Verdict:
    verdict = Verdict()
    rows = csv_data_rows(path)
    if rows != expected:
        verdict.wrong.append(f"{label}: {rows} CSV data rows, {expected} iterations reported")
    return verdict
