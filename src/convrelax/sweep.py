"""Phase-transition experiment grid over (n, d) for a fixed block count.

Each grid cell draws fresh planted instances and runs one method per
trial; cells aggregate the recovery errors into plot-ready rows.  Cell
and trial seeds are hashed from (method, n, d, trial), so results are
independent of execution order and stable under grid extension.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import baseline, relax
from .model import _fmt, sample_planted
from .qpsolve import SolveStatus

METHOD_RELAXATION = "Relaxation"
METHOD_GRADIENT_DESCENT = "GradientDescent"

CSV_HEADER = "method,k,n,d,trials,min_err,mean_err,success_rate,failures"

_HEAT_GLYPHS = " .:-=+*#%@"


class SweepError(ValueError):
    pass


@dataclass
class GridSpec:
    n_values: tuple[int, ...]
    d_values: tuple[int, ...]
    k: int
    trials: int = 100
    methods: tuple[str, ...] = (METHOD_RELAXATION, METHOD_GRADIENT_DESCENT)
    tau: float = relax.DEFAULT_TAU
    master_seed: int = 0
    amplify: int = 1  # >1 runs that many perturbation trials per fit

    def __post_init__(self):
        self.n_values = tuple(int(v) for v in self.n_values)
        self.d_values = tuple(int(v) for v in self.d_values)
        self.methods = tuple(self.methods)
        if not self.n_values or not self.d_values:
            raise SweepError("grid axes must be non-empty")
        if list(self.n_values) != sorted(self.n_values) or any(v <= 0 for v in self.n_values):
            raise SweepError("n_values must be ascending positive integers")
        if list(self.d_values) != sorted(self.d_values) or any(v <= 0 for v in self.d_values):
            raise SweepError("d_values must be ascending positive integers")
        if any(d % self.k != 0 for d in self.d_values):
            raise SweepError("every d value must be divisible by k")
        if self.trials < 1 or self.amplify < 1:
            raise SweepError("trials and amplify must be positive")
        bad = set(self.methods) - {METHOD_RELAXATION, METHOD_GRADIENT_DESCENT}
        if bad or not self.methods:
            raise SweepError(f"unknown methods: {sorted(bad)}")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self))


@dataclass
class PhaseCell:
    method: str
    k: int
    n: int
    d: int
    trials_run: int
    min_err: float
    mean_err: float
    success_rate: float
    failures: int = 0


def cell_trial_seed(master_seed: int, method: str, n: int, d: int, trial: int) -> int:
    """Stable 64-bit seed for one trial, independent of grid layout."""
    key = f"{master_seed}|{method}|{n}|{d}|{trial}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def _run_trial(method: str, n: int, d: int, k: int, seed: int, tau: float, amplify: int):
    """Returns (l2_error or nan, success, failed)."""
    pm, ds = sample_planted(n, d, k, seed)
    if method == METHOD_RELAXATION:
        if amplify > 1:
            try:
                out = relax.fit_amplified(ds, amplify, seed, w_star=pm.w_star, tau=tau)
            except relax.AllTrialsFailedError:
                return float("nan"), False, True
            return out.l2_error, out.success, False
        res = relax.fit(ds, 0.0, seed)
        if res.report.status != SolveStatus.OPTIMAL:
            return float("nan"), False, True
        verdict = relax.assess(res.w_hat, pm.w_star, tau)
        return verdict.l2_error, verdict.success, False
    cfg = baseline.default_config(ds, seed=seed)
    res = baseline.gd_fit(ds, cfg)
    if res.status == baseline.GD_DIVERGED:
        return float("nan"), False, True
    verdict = relax.assess(res.w_hat, pm.w_star, tau)
    return verdict.l2_error, verdict.success, False


def _run_cell(args) -> PhaseCell:
    spec_dict, method, n, d = args
    spec = GridSpec(**spec_dict)
    errs = []
    successes = 0
    failures = 0
    for trial in range(spec.trials):
        seed = cell_trial_seed(spec.master_seed, method, n, d, trial)
        err, success, failed = _run_trial(method, n, d, spec.k, seed, spec.tau, spec.amplify)
        if failed:
            failures += 1
        else:
            errs.append(err)
            successes += success
    return PhaseCell(
        method=method,
        k=spec.k,
        n=n,
        d=d,
        trials_run=spec.trials,
        min_err=float(np.min(errs)) if errs else float("nan"),
        mean_err=float(np.mean(errs)) if errs else float("nan"),
        success_rate=successes / spec.trials,
        failures=failures,
    )


def run_grid(spec: GridSpec, workers: int = 1) -> list[PhaseCell]:
    """Run every (method, d, n) cell; output order is canonical and the
    results do not depend on the execution schedule."""
    spec_dict = dataclasses.asdict(spec)
    jobs = [
        (spec_dict, method, n, d)
        for method in spec.methods
        for d in spec.d_values
        for n in spec.n_values
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_run_cell, jobs))
    else:
        cells = [_run_cell(job) for job in jobs]
    return cells


def write_csv(cells: list[PhaseCell], path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(CSV_HEADER + "\n")
        for c in cells:
            f.write(
                f"{c.method},{c.k},{c.n},{c.d},{c.trials_run},"
                f"{_fmt(c.min_err)},{_fmt(c.mean_err)},{_fmt(c.success_rate)},{c.failures}\n"
            )


def read_csv(path: str) -> list[PhaseCell]:
    with open(path, "r", encoding="ascii") as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise SweepError(f"expected header '{CSV_HEADER}'")
    cells = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 9:
            raise SweepError(f"malformed row: {line!r}")
        cells.append(
            PhaseCell(
                method=parts[0],
                k=int(parts[1]),
                n=int(parts[2]),
                d=int(parts[3]),
                trials_run=int(parts[4]),
                min_err=float(parts[5]),
                mean_err=float(parts[6]),
                success_rate=float(parts[7]),
                failures=int(parts[8]),
            )
        )
    return cells


def estimate_boundary(cells: list[PhaseCell], threshold: float) -> dict[tuple[str, int], int | None]:
    """Per (method, d): the smallest grid n whose success rate clears the
    threshold, or None when no cell does."""
    out: dict[tuple[str, int], int | None] = {}
    by_key: dict[tuple[str, int], list[PhaseCell]] = {}
    for c in cells:
        by_key.setdefault((c.method, c.d), []).append(c)
    for key, group in by_key.items():
        hits = [c.n for c in group if c.success_rate >= threshold]
        out[key] = min(hits) if hits else None
    return out


def ascii_heatmap(cells: list[PhaseCell], method: str) -> str:
    """Success-rate preview, one glyph per cell over ten levels."""
    sub = [c for c in cells if c.method == method]
    if not sub:
        return f"{method}: no cells"
    n_values = sorted({c.n for c in sub})
    d_values = sorted({c.d for c in sub})
    grid = {(c.d, c.n): c.success_rate for c in sub}
    width = max(len(str(d)) for d in d_values)
    lines = [f"{method} success rate (rows: d, cols: n={n_values})"]
    for d in reversed(d_values):
        row = []
        for n in n_values:
            rate = grid.get((d, n))
            if rate is None:
                row.append("?")
            else:
                row.append(_HEAT_GLYPHS[min(9, int(rate * 10))])
        lines.append(f"d={d:<{width}} |" + "".join(row) + "|")
    return "\n".join(lines)
