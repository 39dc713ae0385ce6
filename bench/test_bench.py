"""Smoke test of the benchmark: every workload, untraced and traced, with a
tiny op count.  Every listed metric must be present, finite and carry its
unit, and the two runs, which share seed and ops, must agree on the digest.

    python3 -m pytest bench/test_bench.py
"""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def run_bench(workload: str, trace: int) -> tuple[dict, dict]:
    """(last-line result, info line) of one short benchmark run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    info = next(line for line in lines if line.startswith("info "))
    return json.loads(lines[-1]), json.loads(info[len("info "):])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_complete_and_digest_repeats(workload):
    infos = []
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result, info = run_bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in listed}
        for m in listed:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        infos.append(info)
    # both modes run the same ops, so their outcomes must agree exactly
    measured, traced = infos
    assert traced["digest"] == measured["digest"]
    assert traced["recovered_frac"] == measured["recovered_frac"]
