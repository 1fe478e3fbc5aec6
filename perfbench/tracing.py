"""Per-layer tracing from outside the program.

:class:`Tracer` rebinds the public functions of ``eigenkit.core``, ``qr``,
``shifts``, ``engine``, ``oracle``, ``bench`` and ``matio`` to timing
wrappers, in every eigenkit module that holds them (``engine`` calls
``core.subdiagonal_norm`` through its own global, for instance). Each call
records a span: name, start, end, parent span and the operation it belongs
to. A span's self time is its duration minus the time of its child spans.
Spans and counts stay in memory and are written out at the end.

Layer groups: the metric prefix on the left, the wrapped functions on the
right. A function in no group still gets spans, so its time is not charged
to its caller.
"""

import functools
import inspect
import os
import statistics
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("core", "qr", "shifts", "engine", "oracle", "bench", "matio")

GROUPS = {
    "qr.factor": ("qr.factorize", "qr.householder_qr", "qr.givens_qr", "qr.gram_schmidt_qr"),
    "core.validate": ("core.as_matrix", "core.require_square"),
    "engine.deflate": ("engine.deflation_sweep", "core.row_left_norm", "core.remove_row_col"),
    "engine.step": ("engine.qr_step",),
    "engine.driver": ("engine.enhanced_shifted_qr", "engine.baseline_qr"),
    "core.norms": ("core.subdiagonal_norm", "core.offdiagonal_norm", "core.frobenius_norm"),
    "shifts.shift": ("shifts.wilkinson_shift", "shifts.rayleigh_shift",
                     "shifts.eigenvalues_2x2", "core.trailing_2x2"),
    "core.balance": ("core.balance",),
    "bench.compare": ("bench.run_comparison",),
    "bench.csv": ("bench.emit_trace_csv",),
    "oracle": ("oracle.char_poly", "oracle.poly_roots", "oracle.eigenvalues_oracle",
               "oracle.match_eigenvalues"),
    "matio.read": ("matio.read_matrix",),
    "matio.write": ("matio.write_matrix",),
}

# Which span's calls a "<group>.calls" metric counts.
CALLS = {
    "qr.factor.calls": ("qr.householder_qr", "qr.givens_qr", "qr.gram_schmidt_qr"),
    "core.validate.calls": ("core.as_matrix",),
    "engine.deflate.sweeps": ("engine.deflation_sweep",),
    "engine.deflate.row_tests": ("core.row_left_norm",),
    "engine.deflate.hits": ("core.remove_row_col",),
    "engine.step.calls": ("engine.qr_step",),
    "core.norms.calls": ("core.subdiagonal_norm", "core.offdiagonal_norm", "core.frobenius_norm"),
    "shifts.shift.calls": ("shifts.wilkinson_shift", "shifts.rayleigh_shift"),
    "core.balance.calls": ("core.balance",),
}

SOLVERS = ("enhanced", "wilkinson-nodeflate", "rayleigh", "plain")
_BASELINE_LABEL = {"wilkinson": "wilkinson-nodeflate", "rayleigh": "rayleigh", "none": "plain"}

# Every per-layer metric: name, unit, better. Values are per operation of the
# traced rounds, except matio.write.self_s (the whole set-up) and the
# per-solver figures (over the solves of the traced rounds).
PER_LAYER = (
    [
        ("qr.factor.calls", "count", "lower"),
        ("qr.factor.self_s", "s", "lower"),
        ("qr.factor.flop_computed", "flop", "lower"),
        ("core.validate.calls", "count", "lower"),
        ("core.validate.self_s", "s", "lower"),
        ("engine.deflate.sweeps", "count", "lower"),
        ("engine.deflate.row_tests", "count", "lower"),
        ("engine.deflate.hits", "count", "higher"),
        ("engine.deflate.hit_ratio", "ratio", "higher"),
        ("engine.deflate.self_s", "s", "lower"),
        ("engine.step.calls", "count", "lower"),
        ("engine.step.self_s", "s", "lower"),
        ("engine.driver.self_s", "s", "lower"),
        ("core.norms.calls", "count", "lower"),
        ("core.norms.self_s", "s", "lower"),
        ("shifts.shift.calls", "count", "lower"),
        ("shifts.shift.self_s", "s", "lower"),
    ]
    + [(f"engine.{s}.qr_steps_p50", "count", "lower") for s in SOLVERS]
    + [(f"engine.{s}.converged_ratio", "ratio", "higher") for s in SOLVERS]
    + [
        ("core.balance.calls", "count", "lower"),
        ("core.balance.self_s", "s", "lower"),
        ("bench.compare.self_s", "s", "lower"),
        ("bench.csv.self_s", "s", "lower"),
        ("bench.csv.rows", "count", "lower"),
        ("bench.csv.bytes", "bytes", "lower"),
        ("oracle.self_s", "s", "lower"),
        ("matio.read.self_s", "s", "lower"),
        ("matio.read.bytes", "bytes", "lower"),
        ("matio.write.self_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def householder_flops(n: int) -> int:
    """Nominal real flops of ``qr.householder_qr`` at size n, as computed from
    its loop: per column k, with m = n - k, the R update costs 2 m^2 and the
    Q update 2 n m complex multiply-adds, at 8 real flops each."""
    return sum(16 * (m * m + n * m) for m in range(2, n + 1))


class Tracer:
    """Rebinds eigenkit's public functions to span-recording wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = -1
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: Counter = Counter()
        self.solves: list[tuple[str, int, bool]] = []
        self._stack: list[list] = []
        self._wrappers: dict[int, tuple] = {}
        self._bindings: list[tuple] = []
        self._build()

    def _build(self) -> None:
        hooks = {
            "qr.householder_qr": self._after_householder,
            "matio.read_matrix": self._after_read,
            "bench.emit_trace_csv": self._after_csv,
            "engine.enhanced_shifted_qr": self._after_enhanced,
            "engine.baseline_qr": self._after_baseline,
        }
        for short in MODULES:
            mod = sys.modules[f"eigenkit.{short}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    self.names.append(name)
                    self.calls.append(0)
                    self.self_s.append(0.0)
                    wrapper = self._wrap(fn, len(self.names) - 1, hooks.get(name))
                    self._wrappers[id(fn)] = (fn, wrapper)

    def _wrap(self, fn, name_id: int, after):
        stack = self._stack
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        calls, selfs = self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [len(starts), 0.0]
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(frame)
            t0 = perf_counter()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                ends[frame[0]] = t1
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                selfs[name_id] += duration - frame[1]
                calls[name_id] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every reference an eigenkit module holds to a wrapped function."""
        for modname, mod in list(sys.modules.items()):
            if modname != "eigenkit" and not modname.startswith("eigenkit."):
                continue
            for attr, value in list(vars(mod).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._bindings.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in self._bindings:
            setattr(mod, attr, value)
        self._bindings.clear()

    def reset_totals(self) -> None:
        """Zero calls, self times and counts; spans are kept."""
        self.calls[:] = [0] * len(self.calls)
        self.self_s[:] = [0.0] * len(self.self_s)
        self.counts.clear()
        self.solves.clear()

    # Hooks run after the span has ended, so their time is nobody's self time.
    def _after_householder(self, args, kwargs, result) -> None:
        self.counts["qr.factor.flop_computed"] += householder_flops(result.r.shape[0])

    def _after_read(self, args, kwargs, result) -> None:
        self.counts["matio.read.bytes"] += os.path.getsize(args[0])

    def _after_csv(self, args, kwargs, result) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        with open(path, "rb") as handle:
            self.counts["bench.csv.rows"] += sum(1 for _ in handle) - 1
        self.counts["bench.csv.bytes"] += os.path.getsize(path)

    def _after_enhanced(self, args, kwargs, result) -> None:
        self.solves.append(("enhanced", result.qr_steps, result.converged))

    def _after_baseline(self, args, kwargs, result) -> None:
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        shift = cfg.shift.value if cfg is not None else "wilkinson"
        self.solves.append((_BASELINE_LABEL[shift], result.qr_steps, result.converged))

    def _total(self, table, names) -> float:
        return sum(table[self.names.index(n)] for n in names if n in self.names)

    def group_self(self, group: str) -> float:
        return self._total(self.self_s, GROUPS[group])

    def metrics(self, ops: int, write_self_s: float, overhead_s: float) -> dict[str, float]:
        """Every PER_LAYER value for the totals gathered over ``ops`` operations."""
        out = {}
        for name, spans in CALLS.items():
            out[name] = self._total(self.calls, spans) / ops
        for group in GROUPS:
            out[f"{group}.self_s"] = self.group_self(group) / ops
        for key in ("qr.factor.flop_computed", "bench.csv.rows", "bench.csv.bytes", "matio.read.bytes"):
            out[key] = self.counts[key] / ops
        sweeps = self._total(self.calls, CALLS["engine.deflate.sweeps"])
        hits = self._total(self.calls, CALLS["engine.deflate.hits"])
        out["engine.deflate.hit_ratio"] = hits / sweeps if sweeps else 0.0
        for solver in SOLVERS:
            mine = [s for s in self.solves if s[0] == solver]
            out[f"engine.{solver}.qr_steps_p50"] = (
                float(statistics.median(s[1] for s in mine)) if mine else 0.0
            )
            out[f"engine.{solver}.converged_ratio"] = (
                sum(1 for s in mine if s[2]) / len(mine) if mine else 0.0
            )
        out["matio.write.self_s"] = write_self_s
        out["trace.overhead_s"] = overhead_s
        return {name: out[name] for name, _, _ in PER_LAYER}

    def dump(self, path: str) -> None:
        """Write the spans and the span-name table as one ``.npz`` file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
