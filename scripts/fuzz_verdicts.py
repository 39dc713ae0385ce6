"""Check the solver's verdicts on three seeded panels against HiGHS.

    PYTHONPATH=src python scripts/fuzz_verdicts.py

The panels, each numbered from 0, are drawn in ``tests/oracles.py``:

- *LP*: 6,000 LPs from ``np.random.default_rng(12)``.  Per LP, in order:
  ``m = rng.integers(1, 7)``, ``rows = rng.integers(1, 9)``, then G
  ``(rows, m)``, h ``(rows,)`` and c ``(m,)``, each
  ``rng.integers(-3, 4, ...)``; then, if ``rng.random() < 0.25``, the
  row scales ``10.0 ** rng.integers(-6, 7, rows)`` multiply G's rows
  and h.
- *dense QP*: 3,000 QPs from ``np.random.default_rng(13)``, drawn as the
  LPs are, with ``B = rng.integers(-2, 3, (rng.integers(1, m + 1), m))``
  and Q = BᵀB drawn after c and before the row scales.
- *split QP*: 3,000 split QPs from ``np.random.default_rng(14)``
  (``oracles.split_qp_panel``).

Each program is solved by ``qpsolve.solve`` as drawn, and its verdict is
compared with HiGHS's on its *unscaled* twin: ``oracles.highs_lp`` for
an LP, ``highs_qp_verdict`` on the dense twin for a QP.  HiGHS is no
oracle on row-scaled programs, so the twin's verdict is the truth.  The
script prints, as JSON, one table per panel: the number of programs and
of right verdicts (the status is HiGHS's verdict), and the index of
every other program by column: wrong (a verdict that is not HiGHS's),
MaxIterations, NumericalFailure, and SolverError (a QP with no nonzero
row, which the solver rejects).  ``tests/golden/fuzz_verdicts.json``
pins that output, and tier-1 checks a prefix of each panel against it.
The three panels take about 50 s on a 2-core x86 host.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))

# convrelax first: it pins BLAS to one thread before numpy loads
from convrelax import qpsolve  # noqa: E402
from convrelax.qpsolve import SolverError, SolveStatus  # noqa: E402

from oracles import STATUS_OF_HIGHS, VERDICT_PANELS  # noqa: E402

COLUMNS = ("right", "wrong", "MaxIterations", "NumericalFailure", "SolverError")


def run(programs) -> dict:
    """The table of (index, program, verdict) triples: how many programs
    and right verdicts, and the index of every other program by column."""
    table = {"programs": 0, "right": 0, **{column: [] for column in COLUMNS[1:]}}
    for i, program, verdict in programs:
        table["programs"] += 1
        try:
            status = qpsolve.solve(program).status
        except SolverError:
            table["SolverError"].append(i)
            continue
        if status in (SolveStatus.MAX_ITERATIONS, SolveStatus.NUMERICAL_FAILURE):
            table[status.value].append(i)
        elif STATUS_OF_HIGHS[verdict()] == status:
            table["right"] += 1
        else:
            table["wrong"].append(i)
    return table


def main(argv: list[str]) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    print(json.dumps({name: run(panel()) for name, panel in VERDICT_PANELS.items()}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
