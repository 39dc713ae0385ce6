"""Check the solver's verdicts on three seeded panels against HiGHS.

    PYTHONPATH=src python scripts/fuzz_verdicts.py

The panels, each numbered from 0:

- *LP*: 6,000 LPs from ``np.random.default_rng(12)``.  Per LP, in order:
  ``m = rng.integers(1, 7)``, ``rows = rng.integers(1, 9)``, then G
  ``(rows, m)``, h ``(rows,)`` and c ``(m,)``, each
  ``rng.integers(-3, 4, ...)``; then, if ``rng.random() < 0.25``, the
  row scales ``10.0 ** rng.integers(-6, 7, rows)`` multiply G's rows
  and h.
- *dense QP*: 3,000 QPs from ``np.random.default_rng(13)``, drawn as the
  LPs are, with ``B = rng.integers(-2, 3, (rng.integers(1, m + 1), m))``
  and Q = BᵀB drawn after c and before the row scales.
- *split QP*: the 3,000 QPs of ``tests/test_qpsolve.py::_split_panel``
  (``default_rng(14)``).

Each program is solved by ``qpsolve.solve`` as drawn, and its verdict is
compared with HiGHS's on its *unscaled* twin: ``tests/oracles.highs_lp``
for an LP, ``highs_qp_verdict`` on the dense twin for a QP.  HiGHS is no
oracle on row-scaled programs, so the twin's verdict is the truth.  The
script prints one table row per panel: right (the status is HiGHS's
verdict), wrong (a verdict that is not), MaxIterations,
NumericalFailure, and SolverError (a QP with no nonzero row, which the
solver rejects); then the index of every program outside "right", with
the solver's and HiGHS's verdicts for a wrong one.  The three panels
take about 50 s on a 2-core x86 host.
"""

from __future__ import annotations

import argparse
import os
import sys

_TESTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests")
sys.path.insert(0, _TESTS)

# convrelax first: it pins BLAS to one thread before numpy loads
from convrelax import qpsolve  # noqa: E402
from convrelax.qpsolve import ConvexProgram, SolverError, SolveStatus  # noqa: E402

import numpy as np  # noqa: E402

from oracles import highs_lp, highs_qp_verdict  # noqa: E402
from test_qpsolve import STATUS_OF_HIGHS, _split_panel  # noqa: E402

COLUMNS = ("right", "wrong", "MaxIterations", "NumericalFailure", "SolverError")


def _row_scaled(rng, g, h):
    """G and h with each row scaled by 10^(−6..6), one time in four."""
    if rng.random() < 0.25:
        scale = 10.0 ** rng.integers(-6, 7, h.size)
        return g * scale[:, None], h * scale
    return g, h


def lp_panel():
    """(index, program, verdict of the unscaled twin) of the LP panel."""
    rng = np.random.default_rng(12)
    for i in range(6000):
        m, rows = rng.integers(1, 7), rng.integers(1, 9)
        g, h, c = rng.integers(-3, 4, (rows, m)), rng.integers(-3, 4, rows), rng.integers(-3, 4, m)
        verdict = lambda c=c, g=g, h=h: highs_lp(c, g, h)[0]
        g_s, h_s = _row_scaled(rng, g, h)
        yield i, ConvexProgram(c=c, a_ineq=g_s, b_ineq=h_s), verdict


def dense_qp_panel():
    """(index, program, verdict of the unscaled twin) of the dense QP panel."""
    rng = np.random.default_rng(13)
    for i in range(3000):
        m, rows = rng.integers(1, 7), rng.integers(1, 9)
        g, h, c = rng.integers(-3, 4, (rows, m)), rng.integers(-3, 4, rows), rng.integers(-3, 4, m)
        b = rng.integers(-2, 3, (rng.integers(1, m + 1), m))
        q = (b.T @ b).astype(float)
        verdict = lambda q=q, c=c, g=g, h=h: highs_qp_verdict(q, c, g, h)
        g_s, h_s = _row_scaled(rng, g, h)
        yield i, ConvexProgram(c=c, q=q, a_ineq=g_s, b_ineq=h_s), verdict


def split_qp_panel():
    """(index, program, verdict of the unscaled dense twin) of the split QP panel."""
    for i, program, twin in _split_panel():
        yield i, program, lambda t=twin: highs_qp_verdict(t.q, t.c, t.a_ineq, t.b_ineq)


PANELS = {"LP": lp_panel, "dense QP": dense_qp_panel, "split QP": split_qp_panel}


def run(panel) -> dict[str, list[str]]:
    """The programs of a panel by column, each as "#index"; a wrong
    verdict also names the solver's status and HiGHS's verdict."""
    found = {column: [] for column in COLUMNS}
    for i, program, verdict in panel():
        try:
            status = qpsolve.solve(program).status
        except SolverError:
            found["SolverError"].append(f"#{i}")
            continue
        if status in (SolveStatus.MAX_ITERATIONS, SolveStatus.NUMERICAL_FAILURE):
            found[status.value].append(f"#{i}")
            continue
        truth = verdict()
        if STATUS_OF_HIGHS[truth] == status:
            found["right"].append(f"#{i}")
        else:
            found["wrong"].append(f"#{i} ({status.value}; HiGHS {truth})")
    return found


def main(argv: list[str]) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    results = {name: run(panel) for name, panel in PANELS.items()}
    print(f"{'panel':<18}" + "".join(f"{column:>18}" for column in COLUMNS))
    for name, found in results.items():
        label = f"{name} ({sum(map(len, found.values())):,})"
        print(f"{label:<18}" + "".join(f"{len(found[column]):>18,}" for column in COLUMNS))
    for name, found in results.items():
        for column in COLUMNS[1:]:
            if found[column]:
                print(f"{name} {column}: {', '.join(found[column])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
