"""Run a fixed panel of solves through two source trees and compare bits.

    python scripts/bitwise_diff.py OLD_SRC NEW_SRC

Each SRC is a directory holding the ``convrelax`` package (a checkout's
``src``). Both trees run the same panel in separate interpreters with
BLAS pinned to one thread, and every ``SolveReport`` that
``qpsolve.solve`` returns is compared field by field, floats by their
bytes. The script prints the first field that differs, or "identical",
and exits 1 or 0 accordingly.

The panel: k=1 relaxation LPs at n=400 and n=2000 (the dual route),
lifted k=2 and k=5 LPs, the beta=1e-3 QP, certify's phase-1 cone program
and k=1/k=2 dual programs (the primal route), and presolve cases with
duplicate, zero, -0.0 and infeasible rows.

With a single SRC the script prints that tree's panel as JSON instead.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

FIELDS = ("status", "iterations", "x", "lam", "nu", "primal_residual", "dual_residual",
          "complementarity_gap")


def _presolve_programs():
    """Programs whose presolve drops rows, keeps -0.0 twins or is infeasible."""
    import numpy as np

    from convrelax.qpsolve import ConvexProgram

    rng = np.random.default_rng(20261018)
    g = rng.standard_normal((12, 3))
    h = np.abs(rng.standard_normal(12)) + 0.5
    signed_zero = g[2].copy()
    signed_zero[signed_zero.argmin()] = 0.0
    twin = signed_zero.copy()
    twin[twin == 0.0] = -0.0
    g_dup = np.vstack([g, g[[3, 7, 3]], np.zeros((2, 3)), signed_zero, twin, -np.eye(3)])
    h_dup = np.concatenate([h, h[[3, 7, 3]], [1.0, 0.0], [h[2], h[2]], np.zeros(3)])
    c = rng.standard_normal(3)
    yield "presolve-duplicates-zeros-signed-zero", ConvexProgram(c=c, a_ineq=g_dup, b_ineq=h_dup)
    yield "presolve-equality-duplicates", ConvexProgram(
        c=c, a_ineq=-np.eye(3), b_ineq=np.zeros(3),
        a_eq=np.vstack([g[:1], g[:1], np.zeros((1, 3))]), b_eq=[1.0, 1.0, 0.0])
    yield "presolve-infeasible-zero-ineq", ConvexProgram(c=c, a_ineq=np.vstack([g, np.zeros((1, 3))]),
                                                         b_ineq=np.concatenate([h, [-1.0]]))
    yield "presolve-infeasible-zero-eq", ConvexProgram(c=c, a_eq=np.zeros((1, 3)), b_eq=[2.0])
    yield "presolve-column-major", ConvexProgram(c=c, a_ineq=np.asfortranarray(g), b_ineq=h)


def run_panel() -> list[dict]:
    import numpy as np

    from convrelax import certify, model, qpsolve, relax

    records: list[dict] = []
    label = ["?"]
    solve = qpsolve.solve

    def recording_solve(program, *args, **kwargs):
        report = solve(program, *args, **kwargs)
        fields = {}
        for name in FIELDS:
            value = getattr(report, name)
            if name == "status":
                fields[name] = value.value
            elif name == "iterations":
                fields[name] = int(value)
            else:
                fields[name] = np.asarray(value, dtype=float).tobytes().hex()
        records.append({"case": label[0], "fields": fields})
        return report

    qpsolve.solve = recording_solve
    try:
        for n, d, seeds in ((400, 20, (1, 2, 3)), (2000, 10, (4, 5))):
            for seed in seeds:
                label[0] = f"k1-lp n={n} d={d} seed={seed}"
                relax.fit(model.sample_planted(n, d, 1, seed)[1], 0.0, seed)
        for k, n in ((2, 100), (5, 60)):
            label[0] = f"lifted-lp k={k} n={n} d=20"
            relax.fit(model.sample_planted(n, 20, k, 6)[1], 0.0, 7)
        label[0] = "beta-qp k=1 n=200 d=20"
        relax.fit(model.sample_planted(200, 20, 1, 8)[1], 1e-3, 9)
        for k, n, d in ((2, 120, 8), (1, 80, 6)):
            label[0] = f"certify k={k} n={n} d={d}"
            _, ds = model.sample_planted(n, d, k, 10)
            sets = certify.active_sets(ds.x, model.teacher_filter(ds), k)
            gens, _ = certify.cone_generators(ds, sets)
            r = model.substream(11, model.STREAM_PERTURBATION).standard_normal(ds.filter_size)
            certify.check_cone_condition(gens, -r)
            certify.dual_solve(ds, r, sets=sets)
        for name, program in _presolve_programs():
            label[0] = name
            qpsolve.solve(program)
    finally:
        qpsolve.solve = solve
    return records


def _panel_of(src: str) -> list[dict]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, os.path.abspath(__file__), src], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _describe(name: str, old, new) -> str:
    if not isinstance(old, str) or name == "status":
        return f"{old!r} != {new!r}"
    import numpy as np

    a, b = (np.frombuffer(bytes.fromhex(v), dtype=float) for v in (old, new))
    if a.shape != b.shape:
        return f"length {a.size} != {b.size}"
    j = int(np.flatnonzero(a.view(np.int64) != b.view(np.int64))[0])
    return f"entry {j}: {float(a[j])!r} != {float(b[j])!r}"


def first_difference(old: list[dict], new: list[dict]) -> str | None:
    for i, (a, b) in enumerate(zip(old, new)):
        if a["case"] != b["case"]:
            return f"report {i}: case {a['case']!r} != {b['case']!r}"
        for name in FIELDS:
            if a["fields"][name] != b["fields"][name]:
                detail = _describe(name, a["fields"][name], b["fields"][name])
                return f"report {i} ({a['case']}): field {name} differs, {detail}"
    if len(old) != len(new):
        return f"report count {len(old)} != {len(new)}"
    return None


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        import convrelax

        package_dir = os.path.dirname(os.path.abspath(convrelax.__file__))
        if os.path.dirname(package_dir) != os.path.abspath(argv[0]):
            raise SystemExit(f"convrelax was imported from {package_dir}, not from {argv[0]}")
        json.dump(run_panel(), sys.stdout)
        return 0
    if len(argv) != 2:
        print("usage: python scripts/bitwise_diff.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old, new = _panel_of(argv[0]), _panel_of(argv[1])
    diff = first_difference(old, new)
    cases = len({r["case"] for r in old})
    if diff is None:
        print(f"identical ({len(old)} reports over {cases} cases)")
        return 0
    print(diff)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
