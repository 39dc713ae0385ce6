"""Active sets, dual programs, and geometric optimality certificates.

The planted filter solves the perturbed LP exactly when the perturbation
sits inside the conic hull of the active generators: for each sample,
the sum of its active block rows.  Membership is decided by a phase-1
elastic LP; the dual program supplies the matching multiplier witness
and the strong-duality cross-check.

Orientation note: the fit minimizes rᵀw, so the planted filter is
optimal iff −r lies in the generator cone.  ``check_cone_condition``
tests literal membership of its argument; callers certifying a
minimizing fit pass the negated perturbation.  ``dual_solve`` takes the
drawn perturbation directly and handles the sign internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qpsolve, relax
from .model import Dataset
from .qpsolve import ConvexProgram, SolveStatus

DEFAULT_CONE_TOL = 1e-7


class CertifyError(ValueError):
    pass


@dataclass
class ActiveSets:
    """Active samples per block (s) and active blocks per sample (r_sets)."""

    s: list[np.ndarray]
    r_sets: list[np.ndarray]
    n: int
    k: int


def active_sets(x: np.ndarray, w_star: np.ndarray, k: int) -> ActiveSets:
    """Strictly positive block responses define membership."""
    x = np.asarray(x, dtype=float)
    w_star = np.asarray(w_star, dtype=float)
    n, d = x.shape
    if k <= 0 or d % k != 0 or w_star.shape != (d // k,):
        raise CertifyError("w_star must have length d/k")
    active = (x.reshape(n, k, d // k) @ w_star) > 0.0
    s = [np.flatnonzero(active[:, j]) for j in range(k)]
    r_sets = [np.flatnonzero(active[i, :]) for i in range(n)]
    return ActiveSets(s=s, r_sets=r_sets, n=n, k=k)


def sets_from_r(r_sets: list[np.ndarray], n: int, k: int) -> ActiveSets:
    """Rebuild the per-block representation from the per-sample one."""
    s = [np.asarray([i for i in range(n) if j in r_sets[i]], dtype=int) for j in range(k)]
    return ActiveSets(s=s, r_sets=[np.asarray(r, dtype=int) for r in r_sets], n=n, k=k)


def cone_generators(dataset: Dataset, sets: ActiveSets) -> tuple[np.ndarray, np.ndarray]:
    """One generator per sample with a nonempty active block set.

    Returns (generators, sample_indices); generator i is the sum of the
    sample's active block rows, a vector of the filter length.
    """
    if sets.n != dataset.n or sets.k != dataset.k:
        raise CertifyError("active sets were computed for a different dataset shape")
    xb = dataset.blocks()
    rows = []
    indices = []
    for i, r_i in enumerate(sets.r_sets):
        if len(r_i) == 0:
            continue
        rows.append(xb[i, r_i, :].sum(axis=0))
        indices.append(i)
    gens = np.asarray(rows, dtype=float).reshape(len(rows), dataset.filter_size)
    return gens, np.asarray(indices, dtype=int)


@dataclass
class Certificate:
    exists: bool
    coefficients: np.ndarray
    equality_residual: float
    min_coefficient: float
    elastic_value: float
    boundary: bool


class IndeterminateCertificate(RuntimeError):
    """The phase-1 solve failed; membership is undecided."""


def check_cone_condition(
    generators: np.ndarray, r: np.ndarray, tol: float = DEFAULT_CONE_TOL
) -> Certificate:
    """Decide r ∈ cone(generators) through a phase-1 elastic LP.

    Finds v ≥ 0 minimizing the elastic violation ‖Σ v_i g_i − r‖₁;
    membership holds iff the optimal violation is at most tol.  Elastic
    values within a factor ten of tol are flagged boundary-degenerate.
    """
    if not 0.0 < tol < math.inf:
        raise CertifyError("tol must be positive and finite")
    generators = np.atleast_2d(np.asarray(generators, dtype=float))
    r = np.asarray(r, dtype=float)
    m, p = generators.shape
    if r.shape != (p,):
        raise CertifyError("generators and r disagree on dimension")
    n_var = m + 2 * p
    c = np.concatenate([np.zeros(m), np.ones(2 * p)])
    a_eq = np.hstack([generators.T, np.eye(p), -np.eye(p)])
    program = ConvexProgram(
        c=c,
        a_ineq=-np.eye(n_var),
        b_ineq=np.zeros(n_var),
        a_eq=a_eq,
        b_eq=r,
    )
    report = qpsolve.solve(program)
    if report.status != SolveStatus.OPTIMAL:
        raise IndeterminateCertificate(f"phase-1 solve ended with {report.status.value}")
    v = report.x[:m]
    elastic = float(c @ report.x)
    resid = float(np.max(np.abs(generators.T @ v - r))) if m else float(np.max(np.abs(r)))
    return Certificate(
        exists=elastic <= tol,
        coefficients=v.copy(),
        equality_residual=resid,
        min_coefficient=float(v.min()) if m else 0.0,
        elastic_value=elastic,
        boundary=(tol / 10.0 < elastic < tol * 10.0),
    )


def r1_singleton_fraction(sets: ActiveSets) -> float:
    """Fraction of samples with exactly one active block."""
    if sets.n == 0:
        return 0.0
    return sum(1 for r_i in sets.r_sets if len(r_i) == 1) / sets.n


DUAL_OPTIMAL = "Optimal"
DUAL_INFEASIBLE = "DualInfeasible"
DUAL_FAILED = "Failed"


@dataclass
class DualSolveResult:
    status: str
    dual_objective: float
    primal_objective: float
    duality_gap: float
    duals: np.ndarray  # u for one neuron, flattened λ_ij for several
    v: np.ndarray  # per-sample dual bound (equals u for one neuron)
    complementarity: float
    structure_off_violation: float  # max |λ_ij| over inactive (i, j)
    structure_on_violation: float  # max |λ_ij − v_i| over active (i, j)
    w_hat: np.ndarray


def dual_solve(
    dataset: Dataset,
    r: np.ndarray,
    sets: ActiveSets | None = None,
    tol: float = qpsolve.DEFAULT_TOL,
) -> DualSolveResult:
    """Solve the dual of the vanishing-weight LP and cross-check it.

    The primal minimizes rᵀw, so the dual seeks nonnegative multipliers
    with Σ X_ijᵀ λ_ij = −r and reports objective −yᵀv.  When both sides
    are optimal their objectives must agree; the complementary-slackness
    products and, when active sets are supplied, the multiplier
    structure (λ zero off the active sets, equal to v on them) are
    recomputed from the returned solutions.
    """
    r = np.asarray(r, dtype=float)
    n, k, p = dataset.n, dataset.k, dataset.filter_size
    if r.shape != (p,):
        raise CertifyError(f"perturbation must have length d/k={p}")
    y = dataset.y
    xb = dataset.blocks()

    primal = relax.fit_with_perturbation(dataset, 0.0, r, tol=tol)
    primal_obj = (
        float(r @ primal.w_hat)
        if primal.report.status == SolveStatus.OPTIMAL
        else float("nan")
    )

    if k == 1:
        program = ConvexProgram(
            c=y.copy(),
            a_ineq=-np.eye(n),
            b_ineq=np.zeros(n),
            a_eq=dataset.x.T.copy(),
            b_eq=-r,
        )
    else:
        nz = n * k
        m = n + nz  # v block then λ block, λ_ij at n + i·k + j
        c = np.concatenate([y, np.zeros(nz)])
        a_bound = np.zeros((nz, m))
        a_bound[np.arange(nz), n + np.arange(nz)] = 1.0
        a_bound[np.arange(nz), np.repeat(np.arange(n), k)] = -1.0
        a_nonneg = np.zeros((nz, m))
        a_nonneg[np.arange(nz), n + np.arange(nz)] = -1.0
        a_eq = np.zeros((p, m))
        a_eq[:, n:] = xb.reshape(nz, p).T
        program = ConvexProgram(
            c=c,
            a_ineq=np.vstack([a_bound, a_nonneg]),
            b_ineq=np.zeros(2 * nz),
            a_eq=a_eq,
            b_eq=-r,
        )

    report = qpsolve.solve(program, tol=tol)
    if report.status == SolveStatus.PRIMAL_INFEASIBLE:
        status = DUAL_INFEASIBLE
    elif report.status == SolveStatus.OPTIMAL:
        status = DUAL_OPTIMAL
    else:
        status = DUAL_FAILED

    nan = float("nan")
    if status != DUAL_OPTIMAL:
        return DualSolveResult(
            status=status,
            dual_objective=nan,
            primal_objective=primal_obj,
            duality_gap=nan,
            duals=np.zeros(0),
            v=np.zeros(0),
            complementarity=nan,
            structure_off_violation=nan,
            structure_on_violation=nan,
            w_hat=primal.w_hat,
        )

    if k == 1:
        u = report.x
        v = u.copy()
        lam = u.reshape(n, 1)
        dual_obj = -float(y @ u)
    else:
        v = report.x[:n].copy()
        lam = report.x[n:].reshape(n, k)
        dual_obj = -float(y @ v)

    # complementary slackness of the dual multipliers against the primal
    # slacks z_ij − X_ij·ŵ at the fitted filter
    slack = primal.z_hat.reshape(n, k) - xb @ primal.w_hat
    complementarity = float(np.max(np.abs(lam * slack)))

    off_viol = 0.0
    on_viol = 0.0
    if sets is not None:
        active = np.zeros((n, k), dtype=bool)
        for j, s_j in enumerate(sets.s):
            active[s_j, j] = True
        if np.any(~active):
            off_viol = float(np.max(np.abs(lam[~active])))
        if np.any(active):
            on_viol = float(np.max(np.abs((lam - v[:, None])[active])))

    gap = abs(primal_obj - dual_obj) if np.isfinite(primal_obj) else nan
    return DualSolveResult(
        status=DUAL_OPTIMAL,
        dual_objective=dual_obj,
        primal_objective=primal_obj,
        duality_gap=gap,
        duals=u.copy() if k == 1 else lam.reshape(-1).copy(),
        v=v,
        complementarity=complementarity,
        structure_off_violation=off_viol,
        structure_on_violation=on_viol,
        w_hat=primal.w_hat,
    )
