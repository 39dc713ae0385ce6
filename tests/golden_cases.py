"""Small fixed-seed cases whose outputs are pinned under tests/golden/.

Each case runs a user-facing entry point (``convrelax fit --json``,
``convrelax certify --json``, ``sweep.run_grid``) on a dataset drawn from
a fixed seed and returns a JSON-ready record: the exit code and the
parsed output for CLI cases, the ``PhaseCell`` fields for sweeps.
``tests/test_golden.py`` regenerates every record and compares it with
the committed fixture.

Write the fixtures with ``PYTHONPATH=src python tests/golden_cases.py
[NAME ...]`` (all of them when no name is given).  A change that
rewrites them names the fields that moved, and why, in CHANGES.md.

The fixture ``acceptance_lines`` pins the verdict line that
``tests/test_acceptance.py`` prints for each criterion, keyed by its
label (``1``, ``6 (k=2)``, ...).  Naming it runs that suite with ``-s``
in a subprocess and keeps every line it prints, including those of
criteria that fail their pins; it is written only when named.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
ACCEPTANCE_LINES = "acceptance_lines"

# absolute tolerance for floating-point fields; everything else is exact
FLOAT_ATOL = 1e-9

# name -> ((n, d, k, data seed), CLI arguments after the subcommand)
CLI_CASES = {
    "fit_k1_lp": ((200, 10, 1, 3), ["fit", "--json", "--seed", "1"]),
    "fit_k2_lifted_lp": ((40, 8, 2, 4), ["fit", "--json", "--trials", "3", "--seed", "2"]),
    "fit_beta_qp": ((60, 10, 1, 5), ["fit", "--json", "--beta", "1e-3", "--seed", "3"]),
    "fit_k2_beta_qp": ((40, 8, 2, 7), ["fit", "--json", "--beta", "1e-3", "--trials", "2", "--seed", "5"]),
    "certify_k2": ((60, 8, 2, 6), ["certify", "--json", "--seed", "4"]),
    # n < d: the dual program is infeasible and its undefined fields print as null
    "certify_dual_infeasible": ((4, 10, 1, 1), ["certify", "--json"]),
    "certify_k2_dual_infeasible": ((4, 10, 2, 1), ["certify", "--json"]),
}

# name -> GridSpec keyword arguments (methods by their sweep constant names)
SWEEP_CASES = {
    "sweep_k1": dict(n_values=(40, 120), d_values=(4, 8), k=1, trials=3,
                     methods=("Relaxation", "GradientDescent"), master_seed=11),
    "sweep_k2": dict(n_values=(30, 60), d_values=(4,), k=2, trials=2,
                     methods=("Relaxation", "GradientDescent"), master_seed=12),
    "sweep_k1_amplified": dict(n_values=(60,), d_values=(6,), k=1, trials=2,
                               methods=("Relaxation",), master_seed=13, amplify=3),
    # n < d: wide relaxation LPs, unbounded and counted as failures; trial 1
    # of (50, 60) is one of the paper grid's
    "sweep_k1_wide": dict(n_values=(25, 50), d_values=(40, 60), k=1, trials=3,
                          methods=("Relaxation",), master_seed=0),
}


def strict_json(text: str):
    """Parse JSON, rejecting the NaN and Infinity tokens that the JSON
    grammar does not allow."""

    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=reject)


def write_planted_csv(path: str, n: int, d: int, k: int, seed: int, label: str | None = None) -> str:
    """Export a planted dataset to ``path``; ``label`` replaces the first
    sample's label text."""
    from convrelax import model

    model.export_csv(model.sample_planted(n, d, k, seed)[1], path)
    if label is not None:
        with open(path, encoding="ascii") as f:
            lines = f.read().splitlines()
        lines[2] = ",".join([label, *lines[2].split(",")[1:]])
        with open(path, "w", encoding="ascii") as f:
            f.write("\n".join(lines) + "\n")
    return path


def run_cli_case(name: str) -> dict:
    from convrelax import cli

    (n, d, k, seed), args = CLI_CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_planted_csv(os.path.join(tmp, "data.csv"), n, d, k, seed)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([args[0], "--in", path, *args[1:]])
    text = out.getvalue()
    return {"exit_code": code, "output": strict_json(text) if text.strip() else None}


def run_sweep_case(name: str) -> dict:
    from convrelax import sweep

    cells = sweep.run_grid(sweep.GridSpec(**SWEEP_CASES[name]))
    return {"cells": [dataclasses.asdict(c) for c in cells]}


def run_case(name: str) -> dict:
    return run_cli_case(name) if name in CLI_CASES else run_sweep_case(name)


def all_names() -> list[str]:
    return [*CLI_CASES, *SWEEP_CASES]


def fixture_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def load_fixture(name: str) -> dict:
    with open(fixture_path(name), encoding="utf-8") as f:
        return json.load(f)


def differences(expected, actual, where: str = "$") -> list[str]:
    """Every place where ``actual`` departs from ``expected``: floats by
    more than FLOAT_ATOL (NaN matches NaN), all other values exactly."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return [f"{where}: keys {sorted(expected)} != {sorted(actual)}"]
        return [m for key in expected for m in differences(expected[key], actual[key], f"{where}.{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(expected)} != {len(actual)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual)) for m in differences(e, a, f"{where}[{i}]")]
    if isinstance(expected, float) or isinstance(actual, float):
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (expected, actual))
        if numeric and (
            (math.isnan(expected) and math.isnan(actual)) or abs(expected - actual) <= FLOAT_ATOL
        ):
            return []
        return [f"{where}: {expected!r} != {actual!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{where}: {expected!r} != {actual!r}"]
    return []


def run_acceptance_lines() -> dict:
    """{criterion label: verdict line} from a ``-s`` run of the acceptance suite."""
    suite = os.path.join(os.path.dirname(os.path.abspath(__file__)), "test_acceptance.py")
    out = subprocess.run([sys.executable, "-m", "pytest", suite, "-s", "-q", "-p", "no:cacheprovider"],
                         capture_output=True, text=True, encoding="utf-8").stdout
    # a line may follow pytest's progress marks; a failure's traceback
    # quotes verdict lines indented or after "E ", and those are not kept
    return {m.group(2): m.group(1) for m in re.finditer(r"^[.sxXFE]*(ACCEPTANCE (.+?): .*)", out, re.M)}


def main(names: list[str]) -> int:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in names or all_names():
        record = run_acceptance_lines() if name == ACCEPTANCE_LINES else run_case(name)
        with open(fixture_path(name), "w", encoding="utf-8", newline="\n") as f:
            json.dump(record, f, indent=1, ensure_ascii=False)
            f.write("\n")
        print(f"wrote {fixture_path(name)}")
    return 0


if __name__ == "__main__":
    # before numpy loads: convrelax pins BLAS to one thread where unset
    import convrelax  # noqa: F401

    sys.exit(main(sys.argv[1:]))
