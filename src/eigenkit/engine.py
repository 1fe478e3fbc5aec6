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

Both drivers reduce the (balanced) input once with ``hessenberg`` and step
with ``givens_qr``: n-1 rotations on the Hessenberg iterate, which the step
and trailing deflation keep exactly Hessenberg, so the convergence norm reads
its subdiagonal. Only the deflating driver reads ``deflation_mode``: under
``DeflationMode.PAPER`` it skips the reduction and steps on the dense iterate.
Either way the eigenvalues are the extracted values followed by the
diagonal of the final iterate. Reports are deterministic: identical input
and config produce bit-identical eigenvalues, counters, and traces.
"""

import cmath
import enum
from dataclasses import dataclass, field

import numpy as np

from .core import (
    balance,
    remove_row_col,
    require_square,
    subdiagonal_norm,
)
from .qr import givens_qr, hessenberg
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
    eigenvalue, yet the solve still reports convergence. The CLI offers
    no way to pick PAPER; the enum stays in the library only because
    perfbench's self-tests pin PAPER's wrong answer. Only
    ``enhanced_shifted_qr`` reads the mode; ``baseline_qr`` never deflates
    and ignores it.
    """

    PAPER = "paper"
    TRAILING_ONLY = "trailing"


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by both drivers: the iteration cap ``k_max``, the
    convergence and deflation tolerances ``eps`` and ``deflation_tol``
    (absolute, positive and finite), the ``shift`` strategy, the
    ``deflation_mode`` and ``do_balance``. The QR kernel is not a knob: steps
    always use Givens rotations on the Hessenberg iterate (on the dense
    iterate for the enhanced driver under ``DeflationMode.PAPER``, which
    skips the reduction; baselines ignore ``deflation_mode``).

    ``do_balance`` is tri-state: None means "driver default" (on for the
    enhanced driver, off for baselines); an explicit bool wins either way.
    A value of the wrong type, such as ``shift="wilkinson"`` for
    ``ShiftStrategy.WILKINSON``, raises ``ValueError`` here, as a bad number does.
    """

    k_max: int = 1000
    eps: float = 1e-10
    deflation_tol: float = 1e-12
    shift: ShiftStrategy = ShiftStrategy.WILKINSON
    deflation_mode: DeflationMode = DeflationMode.TRAILING_ONLY
    do_balance: bool | None = None

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if not 0.0 < self.eps < np.inf:
            raise ValueError("eps must be positive and finite")
        if not self.deflation_tol > 0.0:
            raise ValueError("deflation_tol must be positive")
        if self.deflation_tol > self.eps:
            raise ValueError("deflation_tol must not exceed eps")
        if not isinstance(self.shift, ShiftStrategy):
            raise ValueError(f"shift must be a ShiftStrategy, got {self.shift!r}")
        if not isinstance(self.deflation_mode, DeflationMode):
            raise ValueError(f"deflation_mode must be a DeflationMode, got {self.deflation_mode!r}")
        if not (self.do_balance is None or isinstance(self.do_balance, bool)):
            raise ValueError(f"do_balance must be None, True or False, got {self.do_balance!r}")


@dataclass(frozen=True)
class TraceRecord:
    """One outer-loop pass: what the active block looked like afterwards.

    ``iteration`` is the 1-based pass number, ``dimension`` the active block's
    size after the pass, ``subdiag_norm`` the Frobenius norm of its strictly
    lower triangle (0 for the final 1x1 pass), ``shift`` the shift used (0 on
    a pass that only deflated) and ``deflated`` whether the pass extracted an
    eigenvalue instead of stepping.
    """

    iteration: int
    dimension: int
    subdiag_norm: float
    shift: complex
    deflated: bool


@dataclass(frozen=True)
class EigenReport:
    """Outcome of one solve.

    ``eigenvalues`` holds n values on convergence; on a capped run it still
    holds n values (deflated ones plus the current diagonal) but
    ``converged`` is False. ``max_trace_drift`` is the largest per-step
    change of the active block's trace, a similarity-conservation diagnostic.
    The counters are read off ``trace``, one record per pass: ``iterations``
    counts all records, ``deflations`` the deflating ones and ``qr_steps``
    the others whose block is at least 2x2.
    """

    eigenvalues: list[complex]
    iterations: int
    deflations: int
    converged: bool
    trace: list[TraceRecord] = field(default_factory=list)
    qr_steps: int = 0
    max_trace_drift: float = 0.0


def qr_step(a, shift: complex = 0.0) -> np.ndarray:
    """One shifted QR step: factor (A - mu*I) = QR by Givens rotations, return RQ + mu*I.

    The result equals Q^H A Q, a unitary similarity, so the spectrum and the
    trace are preserved. An upper-Hessenberg ``a`` takes n-1 rotations and
    gives an upper-Hessenberg result, with exact zeros below the subdiagonal.
    """
    shifted = require_square(a).copy()
    mu = complex(shift)
    shifted.flat[::len(shifted) + 1] -= mu
    factors = givens_qr(shifted)
    out = factors.r @ factors.q
    out.flat[::len(out) + 1] += mu
    return out


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
        if np.linalg.norm(m[j, :j]) < deflation_tol:
            return remove_row_col(m, j), [complex(m[j, j])]
    return m, []


def _shift_value(work: np.ndarray, strategy: ShiftStrategy) -> complex:
    if strategy is ShiftStrategy.NO_SHIFT:
        return 0.0j
    if strategy is ShiftStrategy.RAYLEIGH:
        return rayleigh_shift(work)
    return wilkinson_shift(work[-2:, -2:])


def _finite(work: np.ndarray, iteration: int) -> np.ndarray:
    if not np.isfinite(work).all():
        raise NumericalBreakdownError(f"non-finite iterate at iteration {iteration}")
    return work


def _iterate(a, cfg: SolverConfig | None, deflate: bool) -> EigenReport:
    cfg = cfg or SolverConfig()
    work = require_square(a)
    do_balance = deflate if cfg.do_balance is None else cfg.do_balance
    if do_balance:
        work = balance(work).matrix
    paper = deflate and cfg.deflation_mode is DeflationMode.PAPER
    if not paper:
        # PAPER's interior deflation needs the dense iterate (see DeflationMode).
        work = _finite(hessenberg(work), 1)
    sub_norm_of = subdiagonal_norm if paper else lambda h: float(np.linalg.norm(np.diagonal(h, -1)))
    extracted: list[complex] = []
    trace: list[TraceRecord] = []
    max_drift = 0.0
    # Without deflation, convergence is tested before the first step, so a
    # triangular input costs no pass; with it, such input deflates row by row.
    converged = not deflate and sub_norm_of(work) < cfg.eps
    while not converged and len(trace) < cfg.k_max:
        # A pass deflates, steps, or (deflating, once down to 1x1) only
        # records the final block, whose zero norm then ends the loop.
        hit = False
        if deflate and work.shape[0] >= 2:
            work, vals = deflation_sweep(work, cfg.deflation_tol, cfg.deflation_mode)
            extracted.extend(vals)
            hit = bool(vals)
        mu = 0.0j
        if not hit and not (deflate and work.shape[0] == 1):
            mu = _shift_value(work, cfg.shift)
            if not cmath.isfinite(mu):
                raise NumericalBreakdownError(f"non-finite shift at iteration {len(trace) + 1}")
            trace_before = complex(work.trace())
            work = _finite(qr_step(work, mu), len(trace) + 1)
            max_drift = max(max_drift, abs(complex(work.trace()) - trace_before))
        sub_norm = sub_norm_of(work)
        trace.append(TraceRecord(len(trace) + 1, work.shape[0], sub_norm, mu, hit))
        converged = not hit and sub_norm < cfg.eps
    return EigenReport(
        eigenvalues=extracted + [complex(z) for z in np.diag(work)],
        iterations=len(trace),
        deflations=len(extracted),
        converged=converged,
        trace=trace,
        qr_steps=sum(not r.deflated and r.dimension > 1 for r in trace),
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
        Defaults to ``SolverConfig()`` (Wilkinson shift, trailing-row
        deflation, balancing on).

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
