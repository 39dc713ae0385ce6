"""Active sets, dual programs, and geometric optimality certificates.

The planted filter solves the perturbed LP exactly when the perturbation
sits inside the conic hull of the active generators: for each sample,
the sum of its active block rows.  Membership is decided by a phase-1
LP, the Farkas LP whose dual is the elastic LP (see
``check_cone_condition``); the dual program supplies the matching
multiplier witness and the duality cross-check.

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
from dataclasses import dataclass, field

import numpy as np

from . import qpsolve, relax
from .model import Dataset
from .qpsolve import ConvexProgram, SolveStatus

DEFAULT_CONE_TOL = 1e-7


class CertifyError(ValueError):
    pass


@dataclass
class ActiveSets:
    """The (n, k) mask ``active`` of the active (sample, block) pairs,
    read as the active samples per block (``s``) and the active blocks
    per sample (``r_sets``)."""

    active: np.ndarray

    def __post_init__(self):
        self.n, self.k = self.active.shape

    @property
    def s(self) -> list[np.ndarray]:
        return [np.flatnonzero(self.active[:, j]) for j in range(self.k)]

    @property
    def r_sets(self) -> list[np.ndarray]:
        # r_sets[i] is sample i's run of the row-major nonzero columns
        bounds = np.concatenate(([0], np.cumsum(self.active.sum(axis=1)))).tolist()
        cols = self.active.nonzero()[1]
        return [cols[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    def mask_for(self, dataset: Dataset) -> np.ndarray:
        """The mask, which must have the dataset's (n, k)."""
        if self.active.shape != (dataset.n, dataset.k):
            raise CertifyError("active sets were computed for a different dataset shape")
        return self.active


def active_sets(x: np.ndarray, w_star: np.ndarray, k: int) -> ActiveSets:
    """Strictly positive block responses define membership."""
    x = np.asarray(x, dtype=float)
    w_star = np.asarray(w_star, dtype=float)
    n, d = x.shape
    if k <= 0 or d % k != 0 or w_star.shape != (d // k,):
        raise CertifyError("w_star must have length d/k")
    return ActiveSets((x.reshape(n, k, d // k) @ w_star) > 0.0)


def cone_generators(dataset: Dataset, sets: ActiveSets) -> tuple[np.ndarray, np.ndarray]:
    """One generator per sample with a nonempty active block set.

    Returns (generators, sample_indices); generator i is the sum of the
    sample's active block rows, a vector of the filter length.
    """
    active = sets.mask_for(dataset)
    xb = dataset.blocks()
    counts = active.sum(axis=1)
    gens = np.empty((dataset.n, dataset.filter_size))
    # the samples with m active blocks at once: their (g, m, p) rows summed
    # over m, the reduction a single sample's (m, p) rows get, in the same
    # block order, so the generators keep their bits
    for m in np.unique(counts[counts > 0]).tolist():
        samples = np.flatnonzero(counts == m)
        blocks = active[samples].nonzero()[1].reshape(-1, m)
        gens[samples] = xb[samples[:, None], blocks, :].sum(axis=1)
    indices = np.flatnonzero(counts)
    return gens[indices], indices


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
    the generators as rows.  v is read off the multipliers of the rows
    G·y ≤ 0 of the Farkas LP over y: maximize rᵀy subject to G·y ≤ 0
    and −1 ≤ y ≤ 1.  That LP is feasible at y = 0 and bounded by its
    box, and its dual is the minimization over v, so by strong duality
    both have the same value.  The elastic value and the residual are
    the sum and the max of |Gᵀv − r|, recomputed from v.  Membership
    holds iff the elastic value is at most tol; values within a factor
    ten of tol are flagged boundary-degenerate.
    """
    if not 0.0 < tol < math.inf:
        raise CertifyError("tol must be positive and finite")
    generators = np.atleast_2d(np.asarray(generators, dtype=float))
    r = np.asarray(r, dtype=float)
    m, p = generators.shape
    if r.shape != (p,):
        raise CertifyError("generators and r disagree on dimension")
    eye = np.eye(p)
    program = ConvexProgram(c=-r, a_ineq=np.vstack([generators, eye, -eye]),
                            b_ineq=np.concatenate([np.zeros(m), np.ones(2 * p)]))
    report = qpsolve.solve(program)
    if report.status != SolveStatus.OPTIMAL:
        raise IndeterminateCertificate(f"phase-1 solve ended with {report.status.value}")
    v = report.lam[:m]
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
    return np.count_nonzero(sets.active.sum(axis=1) == 1) / sets.n


DUAL_OPTIMAL = "Optimal"
DUAL_INFEASIBLE = "DualInfeasible"
DUAL_FAILED = "Failed"


@dataclass(kw_only=True)
class DualSolveResult:
    """A result that is not Optimal sets only its status and a zero ŵ:
    its objectives and measures are NaN and its multipliers empty."""

    status: str
    dual_objective: float = math.nan
    primal_objective: float = math.nan
    duality_gap: float = math.nan
    # lifted λ_ij = Σ_{S∋j} μ_iS, flattened sample-major, and the
    # per-sample dual bound vᵢ = Σ_S μ_iS (equals λ at k=1)
    duals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    complementarity: float = math.nan
    structure_off_violation: float = math.nan  # max |λ_ij| over inactive (i, j)
    structure_on_violation: float = math.nan  # max |λ_ij − v_i| over active (i, j)
    w_hat: np.ndarray


def dual_solve(dataset: Dataset, r: np.ndarray, sets: ActiveSets | None = None) -> DualSolveResult:
    """Solve the vanishing-weight LP and its dual, and cross-check them.

    The primal minimizes rᵀw, so the dual seeks nonnegative multipliers
    with Σ X_ijᵀ λ_ij = −r and reports objective −yᵀv; both come from one
    block-set solve (see the module docstring).  Primal feasibility of ŵ
    and lifted-dual feasibility of (λ, v) are recomputed from x, y and r,
    not from the generated rows, so the duality gap bounds the distance
    to the optimum; a residual above the solver's tolerance
    ``qpsolve.DEFAULT_TOL`` ends Failed with a RuntimeWarning, as does
    the round cap relax.MAX_ROW_ROUNDS.  An infeasible LP (a negative
    label at k>1) ends Failed.  Reported too:
    complementary slackness over the solved rows and, when active sets
    are supplied, the multiplier structure (λ zero off the active sets,
    equal to v on them); sets of another (n, k) than the dataset's raise
    CertifyError, as ``cone_generators`` raises.  Results that are not
    Optimal carry NaN objectives and a zero ŵ.
    """
    r = np.asarray(r, dtype=float)
    n, k, p = dataset.n, dataset.k, dataset.filter_size
    if r.shape != (p,):
        raise CertifyError(f"perturbation must have length d/k={p}")
    active = None if sets is None else sets.mask_for(dataset)
    y = dataset.y
    xb = dataset.blocks()

    report, sample, blocks = relax.block_set_lp(dataset, relax.build(dataset, 0.0, r))
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
            if value > qpsolve.DEFAULT_TOL:
                warnings.warn(f"{name} residual {value:.3g} of the block-set solution exceeds "
                              f"tol={qpsolve.DEFAULT_TOL:g}", RuntimeWarning, stacklevel=2)
                status = DUAL_FAILED

    if status != DUAL_OPTIMAL:
        return DualSolveResult(status=status, w_hat=np.zeros(p))

    primal_obj = float(r @ w_hat)
    dual_obj = -float(y @ v)
    # complementary slackness of each row multiplier against its row's
    # slack yᵢ − Σ_{j∈S} X_ij·ŵ
    slack = y[sample] - np.where(blocks, resp[sample], 0.0).sum(axis=1)
    complementarity = float(np.max(np.abs(mu * slack)))

    off_viol = 0.0
    on_viol = 0.0
    if active is not None:
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
