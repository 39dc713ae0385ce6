"""Benchmark of the convrelax user commands: a k=1 phase sweep, ``convrelax
fit`` on lifted programs, and ``convrelax certify``.

    python3 bench/run.py --workload sweep-k1 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json,
``--trace 1`` the per-layer metrics of a traced run, and ``--workload all``
runs every workload both ways, one after another.  ``--seconds`` sets the
work of one run (see ``workloads.panel_size``).  Each measurement runs in a
fresh interpreter (``worker.py``), one at a time.  The program under test
is imported from ``src/`` next to this directory; without it the benchmark
fails.  Results and spans are written under ``bench/results/``; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")

SETUP_SAMPLES = 5  # set-up is timed in this many fresh processes; the median is reported
TIME_LIMIT_S = 170.0  # one workload run must end within 180 s


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def spawn(mode: str, args, deadline: float, *extra: str) -> dict:
    """Run one worker process to completion and return its result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"time limit reached before the {mode} process")
    cmd = [sys.executable, WORKER, "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    t0 = time.monotonic()
    try:
        proc = subprocess.run([*cmd, "--t0", repr(t0)], cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    setups = [spawn("setup", args, deadline) for _ in range(SETUP_SAMPLES - 1)]
    main = spawn("measure", args, deadline)
    metrics = {name: main[name] for name in ("ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")}
    main["setup_samples_s"] = [s["setup_s"] for s in (*setups, main)]
    metrics["setup_s"] = statistics.median(s["setup_s"] * s["setup_speed"] for s in (*setups, main))
    # a failed warm-up op makes the run incorrect without being a measured op
    main["failures"] += [f"warm-up {f}" for s in setups for f in s["failures"]]
    return metrics, main


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    spans = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-spans.jsonl")
    result = spawn("trace", args, deadline, "--spans", spans)
    metrics = result.pop("metrics")
    # top-level self times must add up to the traced op wall time within
    # the tracing overhead
    unattributed = metrics["trace.unattributed_frac"]
    if not 0.0 <= unattributed <= max(abs(metrics["trace.overhead_frac"]), 0.01):
        result["failures"].append(f"self times leave {unattributed:.3%} of op time unattributed")
    result["spans_file"] = os.path.relpath(spans, ROOT)
    return metrics, result


def run_one(args, spec: dict) -> dict:
    """Measure one workload in one mode; print and save its result."""
    listed = spec["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + TIME_LIMIT_S
    metrics, info = (per_layer if args.trace else end_to_end)(args, deadline)
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics missing from the {args.workload} run: {missing}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed}
    if not all(math.isfinite(v["value"]) for v in out.values()):
        raise BenchError(f"non-finite metric in the {args.workload} run: {out}")
    env = info.pop("env")
    env.update(setup_samples=SETUP_SAMPLES, seconds=args.seconds, trace=args.trace)
    print("env " + json.dumps(env))
    print("info " + json.dumps(info))
    for name, m in out.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": info["failed"] == 0 and not info["failures"],
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": out,
    }
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({**result, "env": env, "info": info}, f, indent=1)
    return result


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*names, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="ignored with --workload all, which runs both")
    args = parser.parse_args()
    os.makedirs(RESULTS, exist_ok=True)

    try:
        if args.workload != "all":
            result = run_one(args, spec)
        else:
            results = {}
            for args.workload in names:
                for args.trace in (0, 1):
                    results[(args.workload, args.trace)] = run_one(args, spec)
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}/{name}": m for (w, _), r in results.items()
                            for name, m in r["metrics"].items()},
            }
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
