"""Randomized convex relaxations of the block-ReLU regression problem.

The naive relaxation replaces the ReLU equality by an inequality and is
degenerate: the zero filter with slack equal to the labels is always
optimal.  A random linear perturbation of the objective selects a
nontrivial vertex instead.  With a positive perturbation weight the
program is a QP; in the vanishing-weight limit it collapses to an LP
(for one neuron the slack is pinned to the labels and eliminated).
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from . import qpsolve
from .model import (
    STREAM_PERTURBATION,
    Dataset,
    block_responses,
    derived_seed,
    residual,
    substream,
    teacher_filter,
)
from .qpsolve import ConvexProgram, SolveReport, SolveStatus

DEFAULT_TAU = 1e-4

VARIANT_SINGLE = "SingleNeuron"
VARIANT_MULTI = "MultiNeuron"


class RelaxError(ValueError):
    pass


class AllTrialsFailedError(RuntimeError):
    """Every perturbation trial ended with a non-optimal solver status."""


@dataclass
class VarMap:
    """Index ranges locating the filter and slack blocks in the program."""

    w: slice
    z: slice  # empty when the slack was eliminated
    n: int
    k: int


@dataclass
class RelaxationInstance:
    variant: str
    beta: float
    r: np.ndarray
    program: ConvexProgram
    var_map: VarMap


@dataclass
class FitResult:
    w_hat: np.ndarray
    z_hat: np.ndarray
    train_residual: float
    report: SolveReport
    r_used: np.ndarray
    trial_seed: int

    def to_dict(self) -> dict:
        return {
            "w_hat": self.w_hat.tolist(),
            "z_hat": self.z_hat.tolist(),
            "train_residual": self.train_residual,
            "report": self.report.to_dict(),
            "r_used": self.r_used.tolist(),
            "trial_seed": self.trial_seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@dataclass
class TrialRecord:
    seed: int
    l2_error: float
    train_residual: float
    status: SolveStatus


@dataclass
class RecoveryOutcome:
    best: FitResult
    l2_error: float
    rel_error: float
    success: bool
    trials: list[TrialRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "best": self.best.to_dict(),
            "l2_error": self.l2_error,
            "rel_error": self.rel_error,
            "success": self.success,
            "trials": [
                {
                    "seed": t.seed,
                    "l2_error": t.l2_error,
                    "train_residual": t.train_residual,
                    "status": t.status.value,
                }
                for t in self.trials
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@dataclass
class Assessment:
    l2_error: float
    rel_error: float
    success: bool


def assess(w_hat: np.ndarray, w_star: np.ndarray, tau: float = DEFAULT_TAU) -> Assessment:
    """Recovery verdict: ‖ŵ−w*‖₂ against the threshold τ·(1+‖w*‖₂)."""
    w_hat = np.asarray(w_hat, dtype=float)
    w_star = np.asarray(w_star, dtype=float)
    if w_hat.shape != w_star.shape:
        raise RelaxError("filter length mismatch")
    if tau <= 0:
        raise RelaxError("tau must be positive")
    l2 = float(np.linalg.norm(w_hat - w_star))
    norm_star = float(np.linalg.norm(w_star))
    rel = l2 / norm_star if norm_star > 0 else np.inf
    return Assessment(l2, rel, l2 <= tau * (1.0 + norm_star))


def build(dataset: Dataset, beta: float, r: np.ndarray) -> RelaxationInstance:
    """Assemble the perturbed relaxation as an explicit LP or QP.

    beta > 0 keeps the quadratic data term with cost beta·rᵀw; beta == 0
    builds the vanishing-weight limit, an LP whose only cost is rᵀw.
    """
    if beta < 0:
        raise RelaxError("beta must be nonnegative")
    n, k, p = dataset.n, dataset.k, dataset.filter_size
    r = np.asarray(r, dtype=float)
    if r.shape != (p,):
        raise RelaxError(f"perturbation must have length d/k={p}")
    variant = VARIANT_SINGLE if k == 1 else VARIANT_MULTI
    x, y = dataset.x, dataset.y
    xb = dataset.blocks()

    c = _cost(dataset, beta, r)
    if beta == 0.0 and k == 1:
        # the quadratic pins z = y, leaving an LP in the filter alone
        program = ConvexProgram(c=c, a_ineq=x.copy(), b_ineq=y.copy())
        vm = VarMap(w=slice(0, p), z=slice(p, p), n=n, k=k)
        return RelaxationInstance(variant, beta, r, program, vm)

    nz = n * k
    m = p + nz
    # response constraints X_ij·w − z_ij ≤ 0, then slack nonnegativity
    a_resp = np.zeros((nz, m))
    a_resp[:, :p] = xb.reshape(nz, p)
    a_resp[np.arange(nz), p + np.arange(nz)] = -1.0
    a_nonneg = np.zeros((nz, m))
    a_nonneg[np.arange(nz), p + np.arange(nz)] = -1.0
    a_ineq = np.vstack([a_resp, a_nonneg])
    b_ineq = np.zeros(2 * nz)

    if beta == 0.0:
        a_eq = np.zeros((n, m))
        for i in range(n):
            a_eq[i, p + i * k : p + (i + 1) * k] = 1.0
        program = ConvexProgram(c=c, a_ineq=a_ineq, b_ineq=b_ineq, a_eq=a_eq, b_eq=y.copy())
    else:
        q = np.zeros((m, m))
        for i in range(n):
            q[p + i * k : p + (i + 1) * k, p + i * k : p + (i + 1) * k] = 1.0
        program = ConvexProgram(c=c, q=q, a_ineq=a_ineq, b_ineq=b_ineq)

    vm = VarMap(w=slice(0, p), z=slice(p, p + nz), n=n, k=k)
    return RelaxationInstance(variant, beta, r, program, vm)


def _cost(dataset: Dataset, beta: float, r: np.ndarray) -> np.ndarray:
    """Linear cost of the relaxation: beta·r on the filter and −yᵢ on each
    slack of sample i for the QP; r on the filter alone in the LP limit."""
    if beta == 0.0:
        if dataset.k == 1:
            return r.copy()
        return np.concatenate([r, np.zeros(dataset.n * dataset.k)])
    return np.concatenate([beta * r, np.repeat(-dataset.y, dataset.k)])


def fit(
    dataset: Dataset,
    beta: float,
    seed: int,
    tol: float = qpsolve.DEFAULT_TOL,
    max_iter: int = qpsolve.DEFAULT_MAX_ITER,
) -> FitResult:
    """Draw a Gaussian perturbation from the seed, build and solve."""
    p = dataset.filter_size
    r = substream(seed, STREAM_PERTURBATION).standard_normal(p)
    return fit_with_perturbation(dataset, beta, r, trial_seed=seed, tol=tol, max_iter=max_iter)


def fit_with_perturbation(
    dataset: Dataset,
    beta: float,
    r: np.ndarray,
    trial_seed: int = 0,
    tol: float = qpsolve.DEFAULT_TOL,
    max_iter: int = qpsolve.DEFAULT_MAX_ITER,
) -> FitResult:
    instance = build(dataset, beta, r)
    return _solve_instance(dataset, instance, trial_seed, tol, max_iter)


def _solve_instance(
    dataset: Dataset, instance: RelaxationInstance, trial_seed: int, tol: float, max_iter: int
) -> FitResult:
    report = qpsolve.solve(instance.program, tol=tol, max_iter=max_iter)
    w_hat = report.x[instance.var_map.w].copy()
    if instance.var_map.z.stop > instance.var_map.z.start:
        z_hat = report.x[instance.var_map.z].copy()
    else:
        z_hat = dataset.y.copy()  # eliminated slack sits at the labels
    return FitResult(
        w_hat=w_hat,
        z_hat=z_hat,
        train_residual=residual(dataset, w_hat),
        report=report,
        r_used=instance.r.copy(),
        trial_seed=trial_seed,
    )


def fit_amplified(
    dataset: Dataset,
    num_trials: int,
    seed: int,
    beta: float = 0.0,
    w_star: np.ndarray | None = None,
    tau: float = DEFAULT_TAU,
    tol: float = qpsolve.DEFAULT_TOL,
    max_iter: int = qpsolve.DEFAULT_MAX_ITER,
) -> RecoveryOutcome:
    """Run independent perturbation trials and keep the smallest residual.

    Trial t uses the derived master seed ``derived_seed(seed, t)``, so one
    trial reproduces ``fit`` exactly.  The winner is the optimal-status
    trial with minimum recomputed training residual, ties broken by the
    lower trial index.  The program is built once; trials differ only in
    its cost vector.  Recovery error is measured against ``w_star``,
    regenerated from the dataset seed when not supplied.
    """
    if num_trials < 1:
        raise RelaxError("num_trials must be positive")
    if w_star is None and dataset.seed is not None:
        w_star = teacher_filter(dataset)

    results: list[FitResult] = []
    records: list[TrialRecord] = []
    instance = None
    for t in range(num_trials):
        ts = derived_seed(seed, t)
        r = substream(ts, STREAM_PERTURBATION).standard_normal(dataset.filter_size)
        if instance is None:
            instance = build(dataset, beta, r)
        else:
            # a shallow copy keeps the constraint arrays and skips the
            # program's validation, which the first build already ran
            program = copy.copy(instance.program)
            program.c = _cost(dataset, beta, r)
            instance = dataclasses.replace(instance, r=r, program=program)
        res = _solve_instance(dataset, instance, ts, tol, max_iter)
        results.append(res)
        l2 = (
            float(np.linalg.norm(res.w_hat - w_star))
            if w_star is not None
            else float("nan")
        )
        records.append(TrialRecord(ts, l2, res.train_residual, res.report.status))

    optimal = [t for t, res in enumerate(results) if res.report.status == SolveStatus.OPTIMAL]
    if not optimal:
        raise AllTrialsFailedError(
            f"all {num_trials} trials failed: "
            + ", ".join(res.report.status.value for res in results)
        )
    best_idx = min(optimal, key=lambda t: (results[t].train_residual, t))
    best = results[best_idx]
    if w_star is not None:
        verdict = assess(best.w_hat, w_star, tau)
        l2, rel, success = verdict.l2_error, verdict.rel_error, verdict.success
    else:
        l2, rel, success = float("nan"), float("nan"), False
    return RecoveryOutcome(best=best, l2_error=l2, rel_error=rel, success=success, trials=records)


def pseudoinverse_recovery(dataset: Dataset) -> np.ndarray:
    """Least-squares solve restricted to the strictly positive labels."""
    if dataset.k != 1:
        raise RelaxError("pseudoinverse recovery is defined for k=1 only")
    mask = dataset.y > 0
    if not np.any(mask):
        raise RelaxError("no strictly positive labels; recovery undefined")
    return qpsolve.least_squares(dataset.x[mask], dataset.y[mask])


@dataclass
class NaiveDegeneracyReport:
    trivial_feasible: bool
    trivial_objective: float
    planted_feasible: bool
    planted_objective: float
    max_violation: float


def check_naive_degeneracy(
    dataset: Dataset, w_star: np.ndarray | None = None, feas_tol: float = 1e-12
) -> NaiveDegeneracyReport:
    """Verify by direct evaluation that the unperturbed relaxation is
    degenerate: the zero filter with label slacks and the planted filter
    with its rectified responses are both feasible at objective zero."""
    if w_star is None:
        w_star = teacher_filter(dataset)
    y, k = dataset.y, dataset.k

    def violation(w, z):
        resp = block_responses(dataset.x, w, k)
        v = max(float(np.max(resp - z)), float(np.max(-z)), 0.0)
        return max(v, float(np.max(np.abs(z.sum(axis=1) - y))))

    def quad_objective(z):
        diff = z.sum(axis=1) - y
        return 0.5 * float(diff @ diff)

    # put each label on the first slack: sums are exact and all slacks
    # dominate the zero responses of w = 0
    z_trivial = np.zeros((dataset.n, k))
    z_trivial[:, 0] = y
    z_planted = np.maximum(block_responses(dataset.x, w_star, k), 0.0)
    v_trivial = violation(np.zeros(dataset.filter_size), z_trivial)
    v_planted = violation(w_star, z_planted)
    return NaiveDegeneracyReport(
        trivial_feasible=v_trivial <= feas_tol,
        trivial_objective=quad_objective(z_trivial),
        planted_feasible=v_planted <= feas_tol,
        planted_objective=quad_objective(z_planted),
        max_violation=max(v_trivial, v_planted),
    )
