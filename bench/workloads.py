"""The three benchmark workloads: inputs drawn from the workload seed, the
operation under measurement, and the output checks applied to every op.

Each workload is a closed loop with one client: an op starts when the
previous one ends.  An op is one call a user makes (``sweep.run_grid`` or
``cli.main``); the checks run after the op and are not timed.  The program
sees only the generated inputs: op seeds are hashed here from the workload
seed, never drawn through the program's own seed derivation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from convrelax import cli, model, relax, sweep

SOLVE_TOL = 1e-8  # qpsolve.DEFAULT_TOL: every Optimal report meets it
DUALITY_GAP_TOL = 1e-6  # acceptance criterion 7


def op_seed(workload: str, seed: int, index: int, tag: str = "data") -> int:
    """32-bit seed for one op, a pure function of (workload, seed, index)."""
    key = f"{workload}|{seed}|{index}|{tag}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=4).digest(), "big")


@dataclass
class Outcome:
    """Verdict of the output checks on one op.

    ``fingerprint`` holds the op's statuses, iteration counts and verdicts;
    the run's digest hashes the fingerprints of its panel in order.
    """

    ok: bool
    reason: str = ""
    fingerprint: list = field(default_factory=list)
    fits: int = 0
    recovered: int = 0
    mismatches: int = 0


def failed(reason: str) -> Outcome:
    return Outcome(ok=False, reason=reason, fingerprint=["failed", reason])


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One in-process ``convrelax`` invocation with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_cli(result: tuple[int, str, str]) -> dict:
    code, out, err = result
    if code != cli.EXIT_OK:
        raise CheckFailure(f"exit code {code}: {err.strip()[-200:]}")
    try:
        return json.loads(out)
    except ValueError as exc:
        raise CheckFailure(f"output is not JSON: {exc}") from exc


class CheckFailure(Exception):
    pass


@dataclass
class CliInput:
    argv: list[str]
    w_star: np.ndarray


class SweepK1:
    """One k=1 phase-sweep call: 2 n values x 2 d values x 2 methods, one trial each."""

    name = "sweep-k1"
    ops_per_s = 9.5
    grid = dict(n_values=(400, 2000), d_values=(10, 20), k=1, trials=1)

    def prepare(self, seed: int, size: int, workdir: str) -> list[sweep.GridSpec]:
        return [
            sweep.GridSpec(**self.grid, master_seed=op_seed(self.name, seed, i))
            for i in range(size)
        ]

    def run(self, spec: sweep.GridSpec):
        return sweep.run_grid(spec, workers=1)

    def check(self, spec: sweep.GridSpec, cells) -> Outcome:
        expected = len(spec.methods) * len(spec.n_values) * len(spec.d_values)
        if len(cells) != expected:
            raise CheckFailure(f"{len(cells)} cells, expected {expected}")
        fingerprint = []
        recovered = 0
        for c in cells:
            if c.failures:
                raise CheckFailure(f"{c.method} n={c.n} d={c.d}: {c.failures} failed trials")
            if c.trials_run != 1 or c.success_rate not in (0.0, 1.0):
                raise CheckFailure(f"{c.method} n={c.n} d={c.d}: malformed cell")
            # the sweep hides w_hat, so apply relax.assess's threshold to the
            # reported error against the regenerated teacher
            trial_seed = sweep.cell_trial_seed(spec.master_seed, c.method, c.n, c.d, 0)
            w_star = model.substream(trial_seed, model.STREAM_FILTER).standard_normal(c.d)
            limit = spec.tau * (1.0 + float(np.linalg.norm(w_star)))
            if not math.isfinite(c.mean_err) or (c.mean_err <= limit) != (c.success_rate == 1.0):
                raise CheckFailure(f"{c.method} n={c.n} d={c.d}: success disagrees with error")
            recovered += int(c.success_rate)
            fingerprint.append([c.method, c.n, c.d, c.success_rate, c.failures])
        return Outcome(ok=True, fingerprint=fingerprint, fits=len(cells), recovered=recovered)


class FitLifted:
    """``convrelax fit --json``, round-robin over two lifted LPs and one QP."""

    name = "fit-lifted"
    ops_per_s = 4.0
    # (n, d, k, extra arguments)
    shapes = (
        (100, 20, 2, ["--trials", "3"]),
        (60, 20, 5, ["--trials", "3"]),
        (200, 20, 1, ["--beta", "1e-3"]),
    )

    def prepare(self, seed: int, size: int, workdir: str) -> list[CliInput]:
        inputs = []
        for i in range(size):
            n, d, k, extra = self.shapes[i % len(self.shapes)]
            _, ds = model.sample_planted(n, d, k, op_seed(self.name, seed, i))
            path = os.path.join(workdir, f"fit-{i}.csv")
            model.export_csv(ds, path)
            perturb = str(op_seed(self.name, seed, i, "perturbation"))
            argv = ["fit", "--in", path, *extra, "--seed", perturb, "--json"]
            inputs.append(CliInput(argv, model.teacher_filter(ds)))
        return inputs

    def run(self, inp: CliInput):
        return run_cli(inp.argv)

    def check(self, inp: CliInput, result) -> Outcome:
        doc = parse_cli(result)
        best = doc["best"]
        report = best["report"]
        if report["status"] != "Optimal":
            raise CheckFailure(f"best report is {report['status']}")
        worst = max(report["primal_residual"], report["dual_residual"],
                    report["complementarity_gap"])
        if not worst <= SOLVE_TOL:
            raise CheckFailure(f"best report residual {worst:.3g} above {SOLVE_TOL:g}")
        verdict = relax.assess(np.asarray(best["w_hat"], dtype=float), inp.w_star)
        if verdict.success != doc["success"]:
            raise CheckFailure("reported success disagrees with relax.assess")
        fingerprint = [report["status"], report["iterations"],
                       [t["status"] for t in doc["trials"]], doc["success"]]
        return Outcome(ok=True, fingerprint=fingerprint, fits=1, recovered=int(doc["success"]))


class Certify:
    """``convrelax certify --json`` on k=2, n=120, d=8 datasets."""

    name = "certify"
    ops_per_s = 5.8
    shape = (120, 8, 2)

    def prepare(self, seed: int, size: int, workdir: str) -> list[CliInput]:
        inputs = []
        for i in range(size):
            _, ds = model.sample_planted(*self.shape, op_seed(self.name, seed, i))
            path = os.path.join(workdir, f"certify-{i}.csv")
            model.export_csv(ds, path)
            perturb = str(op_seed(self.name, seed, i, "perturbation"))
            argv = ["certify", "--in", path, "--seed", perturb, "--json"]
            inputs.append(CliInput(argv, model.teacher_filter(ds)))
        return inputs

    def run(self, inp: CliInput):
        return run_cli(inp.argv)

    def check(self, inp: CliInput, result) -> Outcome:
        doc = parse_cli(result)
        cert, dual = doc["certificate"], doc["dual"]
        if dual["status"] != "Optimal":
            raise CheckFailure(f"dual program is {dual['status']}")
        if not dual["duality_gap"] <= DUALITY_GAP_TOL:
            raise CheckFailure(f"duality gap {dual['duality_gap']:.3g} above {DUALITY_GAP_TOL:g}")
        recovered = relax.assess(np.asarray(dual["w_hat"], dtype=float), inp.w_star).success
        mismatch = cert["exists"] != recovered
        # acceptance criterion 5: only boundary-degenerate certificates may disagree
        if mismatch and not cert["boundary"]:
            raise CheckFailure("cone verdict disagrees with primal recovery off the boundary")
        fingerprint = [cert["exists"], cert["boundary"], dual["status"], recovered,
                       doc["r1_singleton_fraction"]]
        return Outcome(ok=True, fingerprint=fingerprint, fits=1, recovered=int(recovered),
                       mismatches=int(mismatch))


WORKLOADS = {w.name: w for w in (SweepK1(), FitLifted(), Certify())}
MIN_PANEL = 3  # one op of each fit-lifted shape


def panel_size(workload, seconds: float) -> int:
    """Distinct ops that take ``seconds`` at the speed the benchmark's first
    commit reached on a 2-core machine with BLAS on one thread (the
    ``ops_per_s`` of each workload).  The work is fixed rather than the
    time, so two commits measured with the same seed run the same ops."""
    return max(MIN_PANEL, math.ceil(seconds * workload.ops_per_s))


def checked(workload, inp, result) -> Outcome:
    """Apply the workload's checks; malformed output counts as a failure."""
    try:
        return workload.check(inp, result)
    except CheckFailure as exc:
        return failed(str(exc))
    except (KeyError, TypeError, ValueError) as exc:
        return failed(f"malformed output: {exc!r}")


def digest(fingerprints: list) -> str:
    text = json.dumps(fingerprints, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
