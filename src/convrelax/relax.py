"""Randomized convex relaxations of the block-ReLU regression problem.

The naive relaxation replaces the ReLU equality by an inequality and is
degenerate: the zero filter with slack equal to the labels is always
optimal.  A random linear perturbation of the objective selects a
nontrivial vertex instead.  The relaxation keeps one slack z_ij ≥ 0 per
sample i and block j, with z_ij ≥ X_ij·w; only the slack sums enter the
objective, and eliminating the slacks leaves a program over w (and the
sums) with a row per sample and nonempty block set S:

- With a positive perturbation weight β it is a QP over w and
  uᵢ = Σ_j z_ij: minimize β·rᵀw + ½‖u‖² − yᵀu subject to
  Σ_{j∈S} X_ij·w − uᵢ ≤ 0 and −u ≤ 0, since the slacks project to
  uᵢ ≥ Σ_j (X_ij·w)₊.  Its value is the lifted QP's over (w, z).
- In the vanishing-weight limit the slacks only have to sum to the
  labels, which leaves one LP in w with rows Σ_{j∈S} X_ij·w ≤ yᵢ.  At
  k>1 the slacks are nonnegative, so a negative label enters as its
  empty-set row 0·w ≤ yᵢ and makes the LP infeasible; at k=1 it is only
  a tighter row.

At k=1 the singletons are all the sets.  At k>1 both programs start
from the n·k singleton sets and ``block_set_lp`` generates the rest.

The slacks are not unique, so the fit rebuilds them from ŵ:
z_ij = (X_ij·ŵ)₊ for j ≥ 1 and z_i0 = tᵢ − Σ_{j≥1} z_ij, with tᵢ = ûᵢ
for the QP and yᵢ for the LP.  They sum to tᵢ, and a feasible point
makes them feasible for the lifted program (z_i0 ≥ (X_i0·ŵ)₊ because
Σ_j (X_ij·ŵ)₊ ≤ tᵢ).  At k=1 z_hat is û or y.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
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

# Solves allowed in the β=0 row generation; each adds at least one block
# set the earlier rows lacked, so the cap only ends runaway cases.
MAX_ROW_ROUNDS = 100

# the largest violation a point of the naive relaxation counts as feasible with
DEGENERACY_FEAS_TOL = 1e-12


class RelaxError(ValueError):
    pass


class AllTrialsFailedError(RuntimeError):
    """Every perturbation trial ended with a non-optimal solver status."""


@dataclass
class FitResult:
    w_hat: np.ndarray
    z_hat: np.ndarray
    train_residual: float
    report: SolveReport
    r_used: np.ndarray
    trial_seed: int


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


@dataclass
class Assessment:
    l2_error: float
    rel_error: float
    success: bool


def check_tau(tau: float) -> None:
    """Reject a recovery threshold that is not positive and finite."""
    if not 0.0 < tau < math.inf:
        raise RelaxError("tau must be positive and finite")


def assess(w_hat: np.ndarray, w_star: np.ndarray, tau: float = DEFAULT_TAU) -> Assessment:
    """Recovery verdict: ‖ŵ−w*‖₂ against the threshold τ·(1+‖w*‖₂)."""
    w_hat = np.asarray(w_hat, dtype=float)
    w_star = np.asarray(w_star, dtype=float)
    if w_hat.shape != w_star.shape:
        raise RelaxError("filter length mismatch")
    check_tau(tau)
    l2 = float(np.linalg.norm(w_hat - w_star))
    norm_star = float(np.linalg.norm(w_star))
    rel = l2 / norm_star if norm_star > 0 else np.inf
    return Assessment(l2, rel, l2 <= tau * (1.0 + norm_star))


def build(dataset: Dataset, beta: float, r: np.ndarray) -> ConvexProgram:
    """The first round of the perturbed relaxation (see the module
    docstring), whose variables are w, then u when beta > 0;
    ``block_set_lp`` solves it.

    Its rows, laid out by ``_first_round``, are the n·k singleton sets in
    the sample-major order of ``dataset.blocks()``, then the empty-set
    rows.  beta > 0 builds the QP over (w, u), cost (beta·r, −y) and
    curvature I on u, with rows X_ij·w − uᵢ ≤ 0, then −u ≤ 0, split
    (``qpsolve.Separable``): its dense part is the rows' X_ij or 0 on w,
    and the u columns are separable, each row holding −1 on its sample's
    uᵢ.  beta == 0 builds the LP over w, cost r, with rows X_ij·w ≤ yᵢ,
    then at k>1 the empty-set row of each negative label.  Without such
    a row (always at k=1) the LP's rows are a view of ``dataset.x`` in
    its own layout; the solver's presolve copies rows that are not
    row-major.  A beta·r that overflows raises RelaxError.
    """
    if not 0.0 <= beta < math.inf:
        raise RelaxError("beta must be nonnegative and finite")
    n, k, p = dataset.n, dataset.k, dataset.filter_size
    r = np.asarray(r, dtype=float)
    if r.shape != (p,):
        raise RelaxError(f"perturbation must have length d/k={p}")
    # a Python float product overflows to inf without a numpy warning
    if not math.isfinite(beta * float(np.abs(r).max())):
        raise RelaxError("beta times the perturbation is not finite")
    y = dataset.y
    sample = _first_round(y, k, beta > 0.0)
    rows = dataset.blocks().reshape(n * k, p)
    empty = sample.size - n * k
    a_w = np.vstack([rows, np.zeros((empty, p))]) if empty else rows
    if beta == 0.0:
        return ConvexProgram(c=r.copy(), a_ineq=a_w, b_ineq=y[sample])
    sep = qpsolve.Separable(q=np.ones(n), col=sample, coef=np.full(sample.size, -1.0))
    return ConvexProgram(c=np.concatenate([beta * r, -y]), a_ineq=a_w, b_ineq=np.zeros(sample.size), sep=sep)


def _first_round(y: np.ndarray, k: int, with_u: bool) -> np.ndarray:
    """The sample of each first-round row: the n·k singleton rows, then
    the empty-set rows, which are every sample's −uᵢ ≤ 0 in the QP (with
    ``with_u``) and, in the LP at k>1, each negative label's, which no
    nonnegative slacks sum to."""
    n = y.size
    empty = np.arange(n) if with_u else np.flatnonzero(y < 0.0) if k > 1 else np.zeros(0, dtype=int)
    return np.concatenate([np.repeat(np.arange(n), k), empty])


def block_set_lp(dataset: Dataset, program: ConvexProgram) -> tuple[SolveReport, np.ndarray, np.ndarray]:
    """Solve a relaxation over every block-set row by row generation.

    ``program`` is ``build(dataset, beta, r)`` with any cost; it
    is not modified.  After each solve, every sample with a positively
    responding block at ŵ gets the row of those blocks (its most
    violated set) when that row is violated by more than the solver's
    tolerance ``qpsolve.DEFAULT_TOL``: the row Σ_{j∈S} X_ij·w ≤ yᵢ of
    the LP, or Σ_{j∈S} X_ij·w − uᵢ ≤ 0 of the QP, appended by
    ``ConvexProgram.with_rows``.  A sample without one has a singleton
    or empty-set row as its most violated set, and an Optimal report
    meets each present row within that tolerance, so only new sets are
    added; at k=1, where the singletons are all the sets, the first
    report is the last.  Returns the last report and, per row, its
    sample and block set (all False for an empty-set row), the first
    round's as ``build`` laid them out.  When MAX_ROW_ROUNDS solves
    leave a row violated, the last report comes back with status
    MaxIterations and a RuntimeWarning.
    """
    xb, y = dataset.blocks(), dataset.y
    n, k, p = xb.shape
    with_u = program.sep.q.size > 0  # the QP over (w, u), its slack sums u separable
    sample = _first_round(y, k, with_u)
    blocks = np.vstack([np.tile(np.eye(k, dtype=bool), (n, 1)),
                        np.zeros((sample.size - n * k, k), dtype=bool)])
    for _ in range(MAX_ROW_ROUNDS):
        report = qpsolve.solve(program)
        if report.status != SolveStatus.OPTIMAL or k == 1:
            return report, sample, blocks
        resp = xb @ report.x[:p]
        pos = resp > 0.0
        bound = report.x[p:] if with_u else y
        violated = np.where(pos, resp, 0.0).sum(axis=1) - bound > qpsolve.DEFAULT_TOL
        new = np.flatnonzero(violated & pos.any(axis=1))
        if new.size == 0:
            return report, sample, blocks
        rows = (xb[new] * pos[new, :, None]).sum(axis=1)
        # each new row's entry on U: −uᵢ in the QP, none in the LP
        program = (program.with_rows(rows, np.zeros(new.size), new, -1.0) if with_u
                   else program.with_rows(rows, y[new]))
        sample = np.concatenate([sample, new])
        blocks = np.vstack([blocks, pos[new]])
    warnings.warn(f"block-set row generation stopped at the round cap MAX_ROW_ROUNDS="
                  f"{MAX_ROW_ROUNDS} with a violated row left", RuntimeWarning, stacklevel=2)
    m = report.lam.size  # the rows of the last solve
    return dataclasses.replace(report, status=SolveStatus.MAX_ITERATIONS), sample[:m], blocks[:m]


def fit(dataset: Dataset, beta: float, seed: int) -> FitResult:
    """Draw a Gaussian perturbation from the seed, build and solve."""
    p = dataset.filter_size
    r = substream(seed, STREAM_PERTURBATION).standard_normal(p)
    return fit_with_perturbation(dataset, beta, r, trial_seed=seed)


def fit_with_perturbation(dataset: Dataset, beta: float, r: np.ndarray, trial_seed: int = 0) -> FitResult:
    p = dataset.filter_size
    report = block_set_lp(dataset, build(dataset, beta, r))[0]
    w_hat = report.x[:p].copy()
    # rebuild the slacks from ŵ and the slack sums (module docstring)
    z = np.maximum(block_responses(dataset.x, w_hat, dataset.k), 0.0)
    z[:, 0] = (dataset.y if beta == 0.0 else report.x[p:]) - z[:, 1:].sum(axis=1)
    z_hat = z.reshape(-1)
    return FitResult(
        w_hat=w_hat,
        z_hat=z_hat,
        train_residual=residual(dataset, w_hat),
        report=report,
        r_used=np.array(r, dtype=float),
        trial_seed=trial_seed,
    )


def fit_amplified(
    dataset: Dataset,
    num_trials: int,
    seed: int,
    beta: float = 0.0,
    w_star: np.ndarray | None = None,
    tau: float = DEFAULT_TAU,
) -> RecoveryOutcome:
    """Run independent perturbation trials and keep the smallest residual.

    Trial t is ``fit(dataset, beta, derived_seed(seed, t))``, built and
    solved afresh.  The winner is the optimal-status trial with minimum
    recomputed training residual, ties broken by the lower trial index.
    Recovery error is measured against ``w_star``, regenerated from the
    dataset seed when not supplied.
    """
    if num_trials < 1:
        raise RelaxError("num_trials must be positive")
    check_tau(tau)
    if w_star is None and dataset.seed is not None:
        w_star = teacher_filter(dataset)

    results: list[FitResult] = []
    records: list[TrialRecord] = []
    for t in range(num_trials):
        res = fit(dataset, beta, derived_seed(seed, t))
        results.append(res)
        l2 = (
            float(np.linalg.norm(res.w_hat - w_star))
            if w_star is not None
            else float("nan")
        )
        records.append(TrialRecord(res.trial_seed, l2, res.train_residual, res.report.status))

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


def check_naive_degeneracy(dataset: Dataset, w_star: np.ndarray | None = None) -> NaiveDegeneracyReport:
    """Verify by direct evaluation that the unperturbed relaxation is
    degenerate: the zero filter with label slacks and the planted filter
    with its rectified responses are both feasible (within
    DEGENERACY_FEAS_TOL) at objective zero."""
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
        trivial_feasible=v_trivial <= DEGENERACY_FEAS_TOL,
        trivial_objective=quad_objective(z_trivial),
        planted_feasible=v_planted <= DEGENERACY_FEAS_TOL,
        planted_objective=quad_objective(z_planted),
        max_violation=max(v_trivial, v_planted),
    )
