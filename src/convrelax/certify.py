"""Active sets, dual programs, and geometric optimality certificates.

The planted filter solves the perturbed LP exactly when the perturbation
sits inside the conic hull of the active generators: for each sample,
the sum of its active block rows.  Membership is decided by a phase-1
elastic LP; the dual program supplies the matching multiplier witness
and the duality cross-check.

Orientation note: the fit minimizes rᵀw, so the planted filter is
optimal iff −r lies in the generator cone.  ``check_cone_condition``
tests literal membership of its argument; callers certifying a
minimizing fit pass the negated perturbation.  ``dual_solve`` takes the
drawn perturbation directly and handles the sign internally.

``dual_solve`` makes one solve at every k, of the relaxation's
vanishing-weight LP by ``relax.block_set_lp``: one row
Σ_{j∈S} X_ij·w ≤ yᵢ per sample i and block set S, generated as needed.
Its solution is the primal fit ŵ; its row multipliers μ_iS map to the
lifted dual (0 ≤ λ_ij ≤ vᵢ, Σ X_ijᵀλ_ij = −r, objective −yᵀv) by
λ_ij = Σ_{S∋j} μ_iS and vᵢ = Σ_S μ_iS, a feasible point with the same
objective.
"""

from __future__ import annotations

import math
import warnings
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

    Finds v ≥ 0 minimizing the elastic violation ‖Gᵀv − r‖₁, G holding
    the generators as rows, by the LP over (v, t), t free: minimize 1ᵀt
    subject to −v ≤ 0, Gᵀv − t ≤ r and −Gᵀv − t ≤ −r.  The elastic value
    and the residual are the sum and the max of |Gᵀv − r|, recomputed
    from the solution's v.  Membership holds iff the elastic value is at
    most tol; values within a factor ten of tol are flagged
    boundary-degenerate.
    """
    if not 0.0 < tol < math.inf:
        raise CertifyError("tol must be positive and finite")
    generators = np.atleast_2d(np.asarray(generators, dtype=float))
    r = np.asarray(r, dtype=float)
    m, p = generators.shape
    if r.shape != (p,):
        raise CertifyError("generators and r disagree on dimension")
    eye = np.eye(p)
    a_ineq = np.block([[-np.eye(m), np.zeros((m, p))],
                       [generators.T, -eye],
                       [-generators.T, -eye]])
    program = ConvexProgram(c=np.concatenate([np.zeros(m), np.ones(p)]), a_ineq=a_ineq,
                            b_ineq=np.concatenate([np.zeros(m), r, -r]))
    report = qpsolve.solve(program)
    if report.status != SolveStatus.OPTIMAL:
        raise IndeterminateCertificate(f"phase-1 solve ended with {report.status.value}")
    v = report.x[:m]
    gap = np.abs(generators.T @ v - r)
    elastic = float(gap.sum())
    return Certificate(
        exists=elastic <= tol,
        coefficients=v.copy(),
        equality_residual=float(gap.max()),
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
    """Solve the vanishing-weight LP and its dual, and cross-check them.

    The primal minimizes rᵀw, so the dual seeks nonnegative multipliers
    with Σ X_ijᵀ λ_ij = −r and reports objective −yᵀv; both come from one
    block-set solve (see the module docstring).  Primal feasibility of ŵ
    and lifted-dual feasibility of (λ, v) are recomputed from x, y and r,
    not from the generated rows, so the duality gap bounds the distance
    to the optimum; a residual above tol ends Failed with a
    RuntimeWarning, as does the round cap relax.MAX_ROW_ROUNDS.  An
    infeasible LP (a negative label at k>1) ends Failed.  Reported too:
    complementary slackness over the solved rows and, when active sets
    are supplied, the multiplier structure (λ zero off the active sets,
    equal to v on them).  Results that are not Optimal carry NaN
    objectives and a zero ŵ.
    """
    r = np.asarray(r, dtype=float)
    n, k, p = dataset.n, dataset.k, dataset.filter_size
    if r.shape != (p,):
        raise CertifyError(f"perturbation must have length d/k={p}")
    y = dataset.y
    xb = dataset.blocks()

    program = relax.build(dataset, 0.0, r).program
    report, sample, blocks = relax.block_set_lp(dataset, program, tol)
    status = {SolveStatus.OPTIMAL: DUAL_OPTIMAL,
              SolveStatus.DUAL_UNBOUNDED: DUAL_INFEASIBLE}.get(report.status, DUAL_FAILED)

    if status == DUAL_OPTIMAL:
        w_hat, mu = report.x, report.lam
        # μ of row (i, S) adds to λ_ij for j ∈ S and to vᵢ
        lam = np.zeros((n, k))
        np.add.at(lam, sample, mu[:, None] * blocks)
        v = np.bincount(sample, weights=mu, minlength=n)
        resp = xb @ w_hat
        # the largest row of sample i over nonempty block sets S
        top = np.maximum(resp, 0.0).sum(axis=1) + np.minimum(resp.max(axis=1), 0.0)
        stationarity = np.abs(np.einsum("ij,ijp->p", lam, xb) + r)
        residuals = {
            "primal feasibility": np.max(top - y),
            "lifted-dual feasibility": max(-lam.min(), np.max(lam - v[:, None]), stationarity.max()),
        }
        for name, value in residuals.items():
            if value > tol:
                warnings.warn(f"{name} residual {value:.3g} of the block-set solution exceeds "
                              f"tol={tol:g}", RuntimeWarning, stacklevel=2)
                status = DUAL_FAILED

    nan = float("nan")
    if status != DUAL_OPTIMAL:
        return DualSolveResult(
            status=status,
            dual_objective=nan,
            primal_objective=nan,
            duality_gap=nan,
            duals=np.zeros(0),
            v=np.zeros(0),
            complementarity=nan,
            structure_off_violation=nan,
            structure_on_violation=nan,
            w_hat=np.zeros(p),
        )

    primal_obj = float(r @ w_hat)
    dual_obj = -float(y @ v)
    # complementary slackness of each row multiplier against its row's
    # slack yᵢ − Σ_{j∈S} X_ij·ŵ
    slack = y[sample] - np.where(blocks, resp[sample], 0.0).sum(axis=1)
    complementarity = float(np.max(np.abs(mu * slack)))

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

    return DualSolveResult(
        status=DUAL_OPTIMAL,
        dual_objective=dual_obj,
        primal_objective=primal_obj,
        duality_gap=abs(primal_obj - dual_obj),
        duals=lam.reshape(-1),
        v=v,
        complementarity=complementarity,
        structure_off_violation=off_viol,
        structure_on_violation=on_viol,
        w_hat=w_hat,
    )
