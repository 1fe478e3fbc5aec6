"""eigenkit benchmark: one closed-loop workload per run, end to end or traced.

    python3 perfbench/run.py --workload solve-n50 --seed 1 --seconds 20 --trace 0

One process, one thread, one operation at a time: each operation starts when
the previous one ends. The run visits the workload's whole pool in rounds
until the operations have taken ``--seconds``. Every operation is checked
after its timer stops. The last line of standard output is one JSON object:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See README.md in this directory.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="order in which a run visits the pool")
    p.add_argument("--seconds", type=float, required=True, help="operation time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pool-seed", type=int, default=workloads.POOL_SEED,
                   help=f"seed of the input pool; {workloads.CONFIRM_SEED} confirms a claimed gain")
    return p.parse_args(argv)


def import_eigenkit():
    """Import eigenkit from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "eigenkit", "__init__.py")):
        sys.exit(f"perfbench: no eigenkit sources under {SRC}")
    sys.path.insert(0, SRC)
    import eigenkit

    if os.path.dirname(os.path.dirname(os.path.abspath(eigenkit.__file__))) != SRC:
        sys.exit(f"perfbench: eigenkit imported from {eigenkit.__file__}, not {SRC}")
    return eigenkit


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_revision": git_revision(),
    }


class Runner:
    """Runs rounds over the pool, times each operation and checks it."""

    def __init__(self, ek, workload, pool, refs, order, workdir, tracer=None):
        self.ek, self.workload, self.pool, self.refs = ek, workload, pool, refs
        self.order, self.workdir, self.tracer = order, workdir, tracer
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.failures: dict[int, list] = {}

    def round(self) -> list[float]:
        times = []
        for k in self.order:
            if self.tracer is not None:
                self.tracer.op = self.attempted
            start = time.perf_counter()
            try:
                out = self.workload.operate(self.ek, self.pool[k], self.workdir)
                error = None
            except Exception as exc:  # the run goes on; the operation is counted as failed
                error = f"raised {type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - start)
            self.attempted += 1
            if error is None:
                verdict = self.workload.check(self.pool[k], self.refs[k], out, self.workdir)
                messages = verdict.failed
                self.wrong.extend(verdict.wrong)
            else:
                messages = [error]
            if messages:
                self.failed += 1
                self.failures.setdefault(k, [0, messages])[0] += 1
        return times


def main(argv=None) -> int:
    args = parse_args(argv)
    import numpy as np

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    pool = workload.make_pool(args.pool_seed)
    ek = import_eigenkit()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        workload.prepare(ek, pool, workdir)
        setup_s = time.perf_counter() - _T0
        write_self_s = 0.0
        if tracer is not None:
            tracer.uninstall()
            write_self_s = tracer.group_self("matio.write")
            tracer.reset_totals()

        import checks

        refs = [checks.reference(item.reference_of) for item in pool]
        order = [int(k) for k in np.random.default_rng(args.seed).permutation(len(pool))]
        runner = Runner(ek, workload, pool, refs, order, workdir, tracer)
        if tracer is None:
            times = []
            while sum(times) < args.seconds:
                times.extend(runner.round())
            metrics = {
                "setup_s": setup_s,
                "op_p50_s": statistics.median(times),
                "ops_per_s": len(times) / sum(times),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
        else:
            plain, traced = [], []
            while sum(plain) + sum(traced) < args.seconds:
                plain.extend(runner.round())
                tracer.install()
                traced.extend(runner.round())
                tracer.uninstall()
            overhead_s = (sum(traced) - sum(plain)) / len(traced)
            metrics = tracer.metrics(len(traced), write_self_s, overhead_s)
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(np)
    print("env: " + json.dumps(env, sort_keys=True))
    for k, (count, messages) in sorted(runner.failures.items()):
        print(f"failed: pool item {k}, {count} of {runner.attempted} operations: {'; '.join(messages)}")
    for message in dict.fromkeys(runner.wrong):
        print(f"wrong output: {message}")
    if tracer is not None:
        print(f"{'per-layer metric (per operation)':<40} {'value':>16} unit")
        for name, value in metrics.items():
            print(f"{name:<40} {value:>16.6g} {units[name]}")
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.npz"))
    result = {
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "pool_seed": args.pool_seed,
                   "env": env, **result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
