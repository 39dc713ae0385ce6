"""One benchmark process: set up one workload, then measure it.

``run.py`` starts this script in a fresh interpreter for every set-up
sample, every measured run and every traced run, one at a time, so that
set-up time and peak memory belong to one workload alone.  The last line
of standard output is one JSON object.

Modes:
  setup    imports, input generation and one untimed warm-up op, then exit
  measure  set-up, then two passes over the op panel with tracing off,
           the reference kernel timed after every op
  trace    set-up, then one pass in which every op runs once untraced and
           once traced, alternating which goes first
"""

import os

# single-threaded BLAS for repeatable timings and bit-identical results;
# must be set before numpy loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import convrelax  # noqa: E402

if not os.path.abspath(convrelax.__file__).startswith(SRC + os.sep):
    sys.exit(f"convrelax was imported from {convrelax.__file__}, not from {SRC}")

import tracing  # noqa: E402
import workloads  # noqa: E402


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "convrelax": convrelax.__version__,
        "commit": git_commit(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
    }


RUNS_PER_OP = 2  # measure: two passes; trace: once untraced, once traced
SETUP_REF_RUNS = 9  # kernel runs that gauge the machine speed right after set-up
REF_NOMINAL_S = 0.0075  # median Reference.run time on the 2-core host of workloads.panel_size


class Reference:
    """Fixed work that never touches convrelax, timed after every op.

    Other tenants of a shared host change the machine speed by 10-25% over
    seconds to minutes, and uniformly: on a 2-core host, mean op time
    over 10 s windows varied by 9.7% (coefficient of variation) while its
    ratio to this kernel's time varied by 2.4%.  Times are reported scaled
    to the speed at which the kernel takes ``REF_NOMINAL_S``.
    """

    def __init__(self):
        self.a = np.random.default_rng(0).standard_normal((150, 150))
        self.spd = self.a @ self.a.T + 150.0 * np.eye(150)
        self.samples: list[float] = []
        self.run()  # first-call costs are not machine speed
        self.samples.clear()

    def run(self) -> None:
        start = time.perf_counter()
        for _ in range(5):
            np.linalg.cholesky(self.spd)
            self.spd @ self.a
        total = 0
        for i in range(60000):
            total += i * i
        self.samples.append(time.perf_counter() - start)

    def speed(self) -> float:
        """Machine speed relative to nominal; above 1 when faster."""
        return REF_NOMINAL_S / statistics.median(self.samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Run:
    """Per-op outcomes of one process: checks, digest and recovery counts."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.fingerprints = [None] * len(inputs)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.fits = 0
        self.recovered = 0
        self.mismatches = 0

    def op(self, i: int, tracer=None) -> float:
        """Run op i, check it and return its wall time in seconds."""
        inp = self.inputs[i]
        if tracer is not None:
            tracer.install(i)
        start = time.perf_counter()
        try:
            result = self.workload.run(inp)
        except Exception as exc:  # a crashing op is a failed op; the run goes on
            outcome = workloads.failed(f"{type(exc).__name__}: {exc}")
        else:
            outcome = None
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        self.record(i, outcome or workloads.checked(self.workload, inp, result))
        return elapsed

    def record(self, i: int, outcome) -> None:
        self.attempted += 1
        first = self.fingerprints[i] is None
        if first:
            self.fingerprints[i] = outcome.fingerprint
            self.fits += outcome.fits
            self.recovered += outcome.recovered
            self.mismatches += outcome.mismatches
        elif outcome.fingerprint != self.fingerprints[i]:
            outcome = workloads.failed("outcome differs from the first pass on the same input")
        if not outcome.ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"op {i}: {outcome.reason}")

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_frac": self.failed / self.attempted,
            "failures": self.failures,
            "fits": self.fits,
            "recovered": self.recovered,
            "recovered_frac": self.recovered / self.fits if self.fits else 0.0,
            "digest": workloads.digest(self.fingerprints),
            "panel": len(self.inputs),
        }


def measure(run: Run, ref: Reference) -> dict:
    latencies = []
    for _ in range(RUNS_PER_OP):
        for i in range(len(run.inputs)):
            latencies.append(run.op(i))
            ref.run()
    speed = ref.speed()
    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    ops_per_s = len(latencies) / sum(latencies)
    return {
        "ops_per_s": ops_per_s / speed,
        "op_p50_ms": 1e3 * p50 * speed,
        "op_p90_ms": 1e3 * p90 * speed,
        "peak_rss_mb": peak_rss_mb(),
        "speed": speed,
        "raw": {"ops_per_s": ops_per_s, "op_p50_ms": 1e3 * p50, "op_p90_ms": 1e3 * p90},
        "latency_samples": len(latencies),
        "samples_beyond_p90": sum(t > p90 for t in latencies),
    }


def trace(run: Run, spans_path: str) -> dict:
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    for i in range(len(run.inputs)):
        if i % 2:
            traced += run.op(i, tracer)
            untraced += run.op(i)
        else:
            untraced += run.op(i)
            traced += run.op(i, tracer)
    tracer.write_spans(spans_path)
    traced_ops = len(run.inputs)

    calls, self_s = tracer.self_times()
    counts = tracer.counts
    metrics = {}
    for name in tracing.TRACED:
        metrics[f"{name}.calls"] = calls[name] / traced_ops
        metrics[f"{name}.self_ms"] = 1e3 * self_s[name] / traced_ops
    for name in ("qpsolve.solve.iters", "qpsolve.solve.non_optimal", "baseline.gd_fit.iters",
                 "certify.check_cone_condition.boundary", "sweep.run_grid.failures"):
        metrics[name] = counts[name] / traced_ops
    solves = calls["qpsolve.solve"]
    metrics["qpsolve.program.bytes"] = counts["qpsolve.program.bytes"] / solves if solves else 0.0
    stored = counts["qpsolve.program.stored"]
    metrics["qpsolve.program.nnz_frac"] = counts["qpsolve.program.nonzero"] / stored if stored else 0.0
    metrics["certify.verdict_mismatch"] = run.mismatches / len(run.inputs)
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    # self times partition the top-level spans, so what they leave of the
    # traced op wall time is the benchmark's own call overhead
    metrics["trace.unattributed_frac"] = 1.0 - sum(self_s.values()) / traced
    return {
        "metrics": metrics,
        "traced_ops": traced_ops,
        "traced_s": traced,
        "untraced_s": untraced,
        "spans": len(tracer.spans),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sets the work of one run, see workloads.panel_size")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--spans", help="where trace mode writes its spans")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    size = workloads.panel_size(workload, args.seconds / RUNS_PER_OP)
    work_root = os.path.join(HERE, "results", "work")
    os.makedirs(work_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        run = Run(workload, workload.prepare(args.seed, size, workdir))
        run.op(0)  # warm-up: caches and lazy imports settle before timing
        setup_s = time.monotonic() - args.t0
        ref = Reference()
        for _ in range(SETUP_REF_RUNS):
            ref.run()
        result = {"setup_s": setup_s, "setup_speed": ref.speed(), "env": environment(args)}
        if args.mode == "measure":
            run = Run(workload, run.inputs)  # the warm-up op is not counted
            result.update(measure(run, Reference()))
        elif args.mode == "trace":
            run = Run(workload, run.inputs)
            result.update(trace(run, args.spans))
        result.update(run.summary())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
