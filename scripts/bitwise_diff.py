"""Run a fixed panel of solves through two source trees and compare bits.

    python scripts/bitwise_diff.py OLD_SRC NEW_SRC

Each SRC is a directory holding the ``convrelax`` package (a checkout's
``src``). Both trees run the same panel in separate interpreters with
BLAS pinned to one thread, and every ``SolveReport`` that
``qpsolve.solve`` returns is compared field by field, floats by their
bytes, case by case. The script prints one line for every report that
differs, naming its case, its first differing field and entry, and for
every differing float field how many entries differ and the largest
|delta| among them (and a line for every case whose number of reports
differs), then how many cases differ; or it prints "identical". It
exits 1 or 0 accordingly, so a deliberate re-numbering shows its whole
extent and size.

The panel: k=1 relaxation LPs at n=400 and n=2000 (the dual route),
the row-generated k=2 and k=5 relaxation LPs (one report per round), the
beta=1e-3 QP at k=1 and row-generated at k=2 and k=5, certify's
phase-1 cone program and the block-set LP that gives its primal fit and
dual at k=1, 2 and 5 and on a k=2 dataset whose dual is infeasible,
presolve cases with duplicate, zero, -0.0 and infeasible rows, the
beta=1e-3 QP at k=2 over all n·k slacks (no separable column), and
infeasible and unbounded LPs on the primal and on the dual route.

With a single SRC the script prints that tree's panel as JSON instead.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

FLOAT_FIELDS = ("x", "lam", "primal_residual", "dual_residual", "complementarity_gap")
FIELDS = ("status", "iterations", *FLOAT_FIELDS)


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
    yield "presolve-infeasible-zero-ineq", ConvexProgram(c=c, a_ineq=np.vstack([g, np.zeros((1, 3))]),
                                                         b_ineq=np.concatenate([h, [-1.0]]))
    yield "presolve-column-major", ConvexProgram(c=c, a_ineq=np.asfortranarray(g), b_ineq=h)


def _coupled_qp():
    """The beta=1e-3 relaxation at k=2 over the filter and all n·k slacks:
    Q couples the k slacks of each sample, so no column is separable and
    the QP step runs with none eliminated."""
    import numpy as np

    from convrelax import model
    from convrelax.qpsolve import ConvexProgram

    _, ds = model.sample_planted(10, 8, 2, 14)
    n, k, p = ds.n, ds.k, ds.filter_size
    nz = n * k
    slack = p + np.arange(nz)
    a = np.zeros((2 * nz, p + nz))
    a[:nz, :p] = ds.blocks().reshape(nz, p)
    a[np.arange(nz), slack] = -1.0
    a[nz + np.arange(nz), slack] = -1.0
    q = np.zeros((p + nz, p + nz))
    q[p:, p:] = np.kron(np.eye(n), np.ones((k, k)))
    r = model.substream(15, model.STREAM_PERTURBATION).standard_normal(p)
    c = np.concatenate([1e-3 * r, np.repeat(-ds.y, k)])
    return ConvexProgram(c=c, q=q, a_ineq=a, b_ineq=np.zeros(2 * nz))


def _small_programs():
    """A QP without separable columns, and infeasible and unbounded LPs
    small enough for the primal route and tall enough for the dual route
    (more than twice as many rows as variables)."""
    import numpy as np

    from convrelax.qpsolve import ConvexProgram

    yield "qp-coupled", _coupled_qp()
    # x1 <= -1 against x1 >= 0
    yield "lp-infeasible-primal-route", ConvexProgram(
        c=[1.0, 1.0, 0.5], a_ineq=[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], b_ineq=[-1.0, 0.0])
    # the ray x1 = x2 -> inf keeps x1 - x2 <= 1
    yield "lp-unbounded-primal-route", ConvexProgram(
        c=[-1.0, 0.0, 0.0], a_ineq=[[1.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]],
        b_ineq=[1.0, 0.0, 0.0])
    tall = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]])
    yield "lp-infeasible-dual-route", ConvexProgram(c=[1.0, 2.0], a_ineq=tall,
                                                    b_ineq=[-1.0, 0.0, 1.0, 1.0, 5.0])
    yield "lp-unbounded-dual-route", ConvexProgram(
        c=[-1.0, -1.0], a_ineq=[[-1.0, 0.0], [0.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]],
        b_ineq=[0.0, 0.0, 1.0, 1.0, 0.0])


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
            label[0] = f"block-set-lp k={k} n={n} d=20"
            relax.fit(model.sample_planted(n, 20, k, 6)[1], 0.0, 7)
        label[0] = "beta-qp k=1 n=200 d=20"
        relax.fit(model.sample_planted(200, 20, 1, 8)[1], 1e-3, 9)
        for k, n in ((2, 100), (5, 60)):
            label[0] = f"beta-qp k={k} n={n} d=20"
            relax.fit(model.sample_planted(n, 20, k, 12)[1], 1e-3, 13)
        # the last case has fewer block rows than filter entries: its dual
        # is infeasible
        for k, n, d, seed in ((2, 120, 8, 10), (1, 80, 6, 10), (5, 60, 20, 10), (2, 4, 10, 1)):
            label[0] = f"certify k={k} n={n} d={d}"
            _, ds = model.sample_planted(n, d, k, seed)
            sets = certify.active_sets(ds.x, model.teacher_filter(ds), k)
            gens, _ = certify.cone_generators(ds, sets)
            r = model.substream(11, model.STREAM_PERTURBATION).standard_normal(ds.filter_size)
            certify.check_cone_condition(gens, -r)
            certify.dual_solve(ds, r, sets=sets)
        for name, program in (*_presolve_programs(), *_small_programs()):
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


def _extent(name: str, old: str, new: str) -> str:
    """How many entries of a float field differ, and by how much at most."""
    import numpy as np

    a, b = (np.frombuffer(bytes.fromhex(v), dtype=float) for v in (old, new))
    if a.shape != b.shape:
        return f"{name}: length {a.size} != {b.size}"
    differ = a.view(np.int64) != b.view(np.int64)
    delta = float(np.max(np.abs(a[differ] - b[differ])))
    return f"{name}: {np.count_nonzero(differ)} of {a.size} entries differ, max |delta| {delta:.3g}"


def _by_case(records: list[dict]) -> dict[str, list[dict]]:
    cases: dict[str, list[dict]] = {}
    for record in records:
        cases.setdefault(record["case"], []).append(record["fields"])
    return cases


def differences(old: list[dict], new: list[dict]) -> tuple[list[str], int]:
    """One line per differing report and per case whose report count
    differs, and the number of cases with any difference."""
    old_cases, new_cases = _by_case(old), _by_case(new)
    lines: list[str] = []
    differing = 0
    for case in dict.fromkeys([*old_cases, *new_cases]):
        a, b = old_cases.get(case, []), new_cases.get(case, [])
        found = len(lines)
        if len(a) != len(b):
            lines.append(f"{case}: report count {len(a)} != {len(b)}")
        for i, (fa, fb) in enumerate(zip(a, b)):
            name = next((name for name in FIELDS if fa[name] != fb[name]), None)
            if name is not None:
                detail = _describe(name, fa[name], fb[name])
                extents = [_extent(f, fa[f], fb[f]) for f in FLOAT_FIELDS if fa[f] != fb[f]]
                extent = f" ({'; '.join(extents)})" if extents else ""
                lines.append(f"{case}, report {i}: field {name} differs, {detail}{extent}")
        differing += len(lines) > found
    return lines, differing


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
    lines, differing = differences(old, new)
    cases = len(_by_case(old))
    if not lines:
        print(f"identical ({len(old)} reports over {cases} cases)")
        return 0
    print("\n".join(lines))
    print(f"{differing} of {cases} cases differ")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
