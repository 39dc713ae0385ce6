"""Timing wrappers at the public functions of convrelax's layers.

The tracer replaces each traced function in every ``convrelax`` module
namespace that holds it (``sweep.sample_planted`` as well as
``model.sample_planted``; the ``relax`` globals ``build`` and
``fit_with_perturbation``), so calls between layers are seen too.  Spans
are kept in memory: name, start, end, parent span and op id.  Counts are
recorded at the same boundaries.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.sparse as sp

# module.function, in layer order
TRACED = (
    "cli.main",
    "model.sample_planted",
    "model.import_csv",
    "relax.fit_amplified",
    "relax.fit_with_perturbation",
    "relax.build",
    "relax.assess",
    "qpsolve.solve",
    "certify.active_sets",
    "certify.cone_generators",
    "certify.check_cone_condition",
    "certify.dual_solve",
    "baseline.default_config",
    "baseline.gd_fit",
    "sweep.run_grid",
)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


def matrix_storage(a) -> tuple[int, int, int]:
    """(bytes, stored entries, nonzero entries) of a dense or sparse matrix."""
    if sp.issparse(a):
        arrays = [getattr(a, attr) for attr in ("data", "indices", "indptr", "row", "col", "offsets")
                  if isinstance(getattr(a, attr, None), np.ndarray)]
        return sum(x.nbytes for x in arrays), a.nnz, int(np.count_nonzero(a.data))
    a = np.asarray(a)
    return a.nbytes, a.size, int(np.count_nonzero(a))


def _count_solve(counts, args, kwargs, report):
    program = kwargs.get("program", args[0] if args else None)
    counts["qpsolve.solve.iters"] += report.iterations
    counts["qpsolve.solve.non_optimal"] += report.status.value != "Optimal"
    for a in (program.q, program.a_ineq, program.a_eq):
        nbytes, stored, nonzero = matrix_storage(a)
        counts["qpsolve.program.bytes"] += nbytes
        counts["qpsolve.program.stored"] += stored
        counts["qpsolve.program.nonzero"] += nonzero


def _count_gd(counts, args, kwargs, result):
    counts["baseline.gd_fit.iters"] += result.iters_used


def _count_cone(counts, args, kwargs, cert):
    counts["certify.check_cone_condition.boundary"] += bool(cert.boundary)


def _count_grid(counts, args, kwargs, cells):
    counts["sweep.run_grid.failures"] += sum(c.failures for c in cells)


AFTER = {
    "qpsolve.solve": _count_solve,
    "baseline.gd_fit": _count_gd,
    "certify.check_cone_condition": _count_cone,
    "sweep.run_grid": _count_grid,
}


class Tracer:
    """Collects spans and counts while installed; ``install`` and
    ``uninstall`` swap the wrappers in and out of the module namespaces."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._patches = []  # (namespace, attribute, original, wrapper)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "convrelax" or name.startswith("convrelax.")]
        for qualified in TRACED:
            module_name, func_name = qualified.split(".")
            original = getattr(sys.modules[f"convrelax.{module_name}"], func_name)
            wrapper = self._wrap(qualified, original, AFTER.get(qualified))
            for m in modules:
                for attr, value in vars(m).items():
                    if value is original:
                        self._patches.append((m, attr, original, wrapper))

    def _wrap(self, name, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self._op)
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self, op: int) -> None:
        self._op = op
        for namespace, attr, _, wrapper in self._patches:
            setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, original, _ in self._patches:
            setattr(namespace, attr, original)

    def self_times(self) -> tuple[Counter, dict[str, float]]:
        """(calls per name, self seconds per name).

        A span's self time is its duration minus the part its child spans
        cover; children of one span run one after another, so that part is
        the sum of their durations.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            calls[s.name] += 1
            self_s[s.name] += (s.end - s.start) - child_time[i]
        return calls, self_s

    def write_spans(self, path: str) -> None:
        """One JSON object per span; ``parent`` is the parent's line index."""
        with open(path, "w", encoding="ascii") as f:
            for s in self.spans:
                f.write(json.dumps(dataclasses.asdict(s)) + "\n")

