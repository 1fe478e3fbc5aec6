"""Iteration drivers for eigenvalue computation.

One shifted-QR pass loop serves two public entry points, which differ only
in whether the loop deflates:

``enhanced_shifted_qr``
    Deflating. Each pass first runs the deflation sweep; a hit extracts one
    converged eigenvalue and shrinks the active block by one, otherwise the
    pass performs a single shifted QR step. Balancing is on by default. The
    run ends when the active block is 1x1 (one last extraction pass), when
    its strictly-lower-triangular norm drops below ``eps``, or when
    ``k_max`` passes are exhausted.

``baseline_qr``
    Not deflating: one shifted QR step per pass on the full matrix, no
    balancing unless asked, stopping on the same norm test. The test also
    runs before the first step, so triangular input takes zero passes.

Either way the eigenvalues are the extracted values followed by the
diagonal of the final iterate. Reports are deterministic: identical input
and config produce bit-identical eigenvalues, counters, and traces.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from .core import (
    balance,
    offdiagonal_norm,
    remove_row_col,
    require_square,
    row_left_norm,
    subdiagonal_norm,
    trailing_2x2,
)
from .qr import QRMethod, factorize
from .shifts import ShiftStrategy, rayleigh_shift, wilkinson_shift

__all__ = [
    "DeflationMode",
    "SolverConfig",
    "TraceRecord",
    "EigenReport",
    "NumericalBreakdownError",
    "qr_step",
    "deflation_sweep",
    "enhanced_shifted_qr",
    "baseline_qr",
]


class NumericalBreakdownError(ArithmeticError):
    """An iterate stopped being finite; the solve cannot continue."""


class DeflationMode(enum.Enum):
    """How aggressively the deflation sweep scans.

    TRAILING_ONLY (the default) tests just the trailing row, which is the
    only position where a small row is a mathematically safe deflation for
    a general dense matrix. PAPER scans every row from the trailing one
    upward and deflates at the first hit, interior rows included. That is
    unsound on a dense iterate: a small strictly-left row part does not
    decouple the row, so the extracted diagonal entry need not be an
    eigenvalue, yet the solve still reports convergence.
    """

    PAPER = "paper"
    TRAILING_ONLY = "trailing"


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by both drivers.

    ``do_balance`` is tri-state: None means "driver default" (on for the
    enhanced driver, off for baselines); an explicit bool wins either way.
    """

    k_max: int = 1000
    eps: float = 1e-10
    deflation_tol: float = 1e-12
    shift: ShiftStrategy = ShiftStrategy.WILKINSON
    qr_method: QRMethod = QRMethod.HOUSEHOLDER
    deflation_mode: DeflationMode = DeflationMode.TRAILING_ONLY
    do_balance: bool | None = None

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if not self.deflation_tol > 0.0:
            raise ValueError("deflation_tol must be positive")
        if self.deflation_tol > self.eps:
            raise ValueError("deflation_tol must not exceed eps")


@dataclass(frozen=True)
class TraceRecord:
    """One outer-loop pass: what the active block looked like afterwards."""

    iteration: int
    dimension: int
    subdiag_norm: float
    offdiag_norm: float
    shift: complex
    deflated: bool


@dataclass(frozen=True)
class EigenReport:
    """Outcome of one solve.

    ``eigenvalues`` holds n values on convergence; on a capped run it still
    holds n values (deflated ones plus the current diagonal) but
    ``converged`` is False. ``max_trace_drift`` is the largest per-step
    change of the active block's trace, a similarity-conservation diagnostic.
    """

    eigenvalues: list[complex]
    iterations: int
    deflations: int
    converged: bool
    trace: list[TraceRecord] = field(default_factory=list)
    qr_steps: int = 0
    max_trace_drift: float = 0.0


def qr_step(a, shift: complex = 0.0, method: QRMethod = QRMethod.HOUSEHOLDER) -> np.ndarray:
    """One shifted QR step: factor (A - mu*I) = QR, return RQ + mu*I.

    The result equals Q^H A Q, a unitary similarity, so the spectrum and the
    trace are preserved.
    """
    m = require_square(a)
    n = m.shape[0]
    mu = complex(shift)
    eye = np.eye(n, dtype=np.complex128)
    factors = factorize(m - mu * eye, method)
    return factors.r @ factors.q + mu * eye


def deflation_sweep(a, deflation_tol: float, mode: DeflationMode = DeflationMode.TRAILING_ONLY):
    """Extract at most one converged eigenvalue from the active block.

    Tests just row n-1 (or, in PAPER mode, every row from n-1 down to 1);
    at the first row whose strictly-left part has norm below
    ``deflation_tol``, its diagonal entry is extracted and the row/column
    removed. Returns ``(matrix, extracted)`` where ``extracted`` is empty or
    a single-element list.
    """
    m = require_square(a)
    n = m.shape[0]
    if n < 2:
        return m, []
    indices = range(n - 1, 0, -1) if mode is DeflationMode.PAPER else (n - 1,)
    for j in indices:
        if row_left_norm(m, j) < deflation_tol:
            return remove_row_col(m, j), [complex(m[j, j])]
    return m, []


def _shift_value(work: np.ndarray, strategy: ShiftStrategy) -> complex:
    if strategy is ShiftStrategy.NO_SHIFT:
        return 0.0j
    if strategy is ShiftStrategy.RAYLEIGH:
        return rayleigh_shift(work)
    if strategy is ShiftStrategy.WILKINSON:
        return wilkinson_shift(trailing_2x2(work))
    raise ValueError(f"unknown shift strategy: {strategy!r}")


def _checked_step(work, mu, cfg, iteration):
    if not (np.isfinite(mu.real) and np.isfinite(mu.imag)):
        raise NumericalBreakdownError(f"non-finite shift at iteration {iteration}")
    stepped = qr_step(work, mu, cfg.qr_method)
    if not np.isfinite(stepped).all():
        raise NumericalBreakdownError(
            f"non-finite iterate at iteration {iteration}"
        )
    return stepped


def _iterate(a, cfg: SolverConfig | None, deflate: bool) -> EigenReport:
    cfg = cfg or SolverConfig()
    work = require_square(a)
    do_balance = deflate if cfg.do_balance is None else cfg.do_balance
    if do_balance:
        work = balance(work).matrix
    extracted: list[complex] = []
    trace: list[TraceRecord] = []
    iterations = 0
    deflations = 0
    qr_steps = 0
    max_drift = 0.0
    # Without deflation, convergence is tested before the first step, so a
    # triangular input costs no pass; with it, such input deflates row by row.
    converged = not deflate and subdiagonal_norm(work) < cfg.eps
    while not converged and iterations < cfg.k_max:
        iterations += 1
        if deflate and work.shape[0] >= 2:
            work, vals = deflation_sweep(work, cfg.deflation_tol, cfg.deflation_mode)
            if vals:
                extracted.extend(vals)
                deflations += 1
                trace.append(TraceRecord(
                    iteration=iterations,
                    dimension=work.shape[0],
                    subdiag_norm=subdiagonal_norm(work),
                    offdiag_norm=offdiagonal_norm(work),
                    shift=0.0j,
                    deflated=True,
                ))
                continue
        if deflate and work.shape[0] == 1:
            trace.append(TraceRecord(
                iteration=iterations,
                dimension=1,
                subdiag_norm=0.0,
                offdiag_norm=0.0,
                shift=0.0j,
                deflated=False,
            ))
            converged = True
            break
        mu = _shift_value(work, cfg.shift)
        trace_before = complex(np.trace(work))
        work = _checked_step(work, mu, cfg, iterations)
        qr_steps += 1
        max_drift = max(max_drift, abs(complex(np.trace(work)) - trace_before))
        sub_norm = subdiagonal_norm(work)
        trace.append(TraceRecord(
            iteration=iterations,
            dimension=work.shape[0],
            subdiag_norm=sub_norm,
            offdiag_norm=offdiagonal_norm(work),
            shift=mu,
            deflated=False,
        ))
        converged = sub_norm < cfg.eps
    return EigenReport(
        eigenvalues=extracted + [complex(z) for z in np.diag(work)],
        iterations=iterations,
        deflations=deflations,
        converged=converged,
        trace=trace,
        qr_steps=qr_steps,
        max_trace_drift=max_drift,
    )


def enhanced_shifted_qr(a, cfg: SolverConfig | None = None) -> EigenReport:
    """Shifted QR with per-pass deflation and a balancing pre-pass.

    Parameters
    ----------
    a : array_like
        Square matrix with finite entries. Real input is promoted to
        complex; single-shift iterations need complex arithmetic to reach
        complex eigenvalues at all.
    cfg : SolverConfig, optional
        Defaults to ``SolverConfig()`` (Wilkinson shift, Householder kernel,
        balancing on).

    Returns
    -------
    EigenReport
        Eigenvalues, pass/deflation counters, convergence flag, and the
        per-pass trace. Iteration counting includes deflation-only passes
        and the final 1x1 extraction pass.
    """
    return _iterate(a, cfg, deflate=True)


def baseline_qr(a, cfg: SolverConfig | None = None) -> EigenReport:
    """Plain shifted QR loop: no deflation, no balancing unless asked.

    Convergence is tested before each step, so an already-triangular input
    reports zero iterations. The diagonal of the final iterate is reported
    as the eigenvalue multiset whether or not the loop converged.
    """
    return _iterate(a, cfg, deflate=False)
