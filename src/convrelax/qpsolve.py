"""Dense convex solver for linearly constrained LPs and QPs.

This is the single numerical engine used by the rest of the package.
Linear programs run through a homogeneous self-dual embedding with
Mehrotra predictor-corrector steps, which gives clean certificates of
infeasibility and unboundedness.  Quadratic programs (PSD curvature)
run an infeasible-start predictor-corrector on the slack KKT system
with static regularization.  Candidate optima are refined by an
active-set polish solve, and a report is declared Optimal only after
the KKT residuals have been recomputed from scratch and verified
against the requested tolerance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf, dpotrs

# Static Tikhonov term added to every factorized KKT/normal system.
KKT_REGULARIZATION = 1e-10

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200

_TOL_RANGE = (1e-12, 1e-2)


class SolveStatus(str, Enum):
    OPTIMAL = "Optimal"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    DUAL_UNBOUNDED = "DualUnbounded"  # objective unbounded below
    MAX_ITERATIONS = "MaxIterations"
    NUMERICAL_FAILURE = "NumericalFailure"


class SolverError(RuntimeError):
    """Raised for malformed solver inputs (not for solve outcomes)."""


def _as_matrix(a, cols: int | None, name: str) -> np.ndarray:
    if a is None:
        a = np.zeros((0, cols if cols is not None else 0))
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        a = a.reshape(0, cols if cols is not None else a.shape[1] if a.ndim == 2 else 0)
    if not np.all(np.isfinite(a)):
        raise SolverError(f"{name} contains non-finite entries")
    return a


def _as_vector(v, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.ndim != 1:
        raise SolverError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(v)):
        raise SolverError(f"{name} contains non-finite entries")
    return v


@dataclass
class ConvexProgram:
    """min ½ xᵀQx + cᵀx  s.t.  A_ineq·x ≤ b_ineq,  A_eq·x = b_eq."""

    c: np.ndarray
    q: np.ndarray | None = None
    a_ineq: np.ndarray | None = None
    b_ineq: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    def __post_init__(self):
        self.c = _as_vector(self.c, "c")
        m = self.c.shape[0]
        if m == 0:
            raise SolverError("program needs at least one variable")
        if self.q is None:
            self.q = np.zeros((m, m))
        else:
            self.q = _as_matrix(self.q, m, "q")
            if self.q.shape != (m, m):
                raise SolverError(f"q must be {m}x{m}, got {self.q.shape}")
            if not np.allclose(self.q, self.q.T, atol=1e-12, rtol=0.0):
                raise SolverError("q must be symmetric within 1e-12")
        self.a_ineq = _as_matrix(self.a_ineq, m, "a_ineq")
        self.a_eq = _as_matrix(self.a_eq, m, "a_eq")
        if self.a_ineq.shape[1] != m or self.a_eq.shape[1] != m:
            raise SolverError("constraint matrices must have one column per variable")
        self.b_ineq = _as_vector(self.b_ineq if self.b_ineq is not None else [], "b_ineq")
        self.b_eq = _as_vector(self.b_eq if self.b_eq is not None else [], "b_eq")
        if self.b_ineq.shape[0] != self.a_ineq.shape[0]:
            raise SolverError("a_ineq and b_ineq disagree on row count")
        if self.b_eq.shape[0] != self.a_eq.shape[0]:
            raise SolverError("a_eq and b_eq disagree on row count")

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    @property
    def n_ineq(self) -> int:
        return self.a_ineq.shape[0]

    @property
    def n_eq(self) -> int:
        return self.a_eq.shape[0]

    @property
    def is_lp(self) -> bool:
        return not self.q.any()

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.q @ x + self.c @ x)

    def to_json(self) -> str:
        return json.dumps(
            {
                "q": self.q.tolist(),
                "c": self.c.tolist(),
                "a_ineq": self.a_ineq.tolist(),
                "b_ineq": self.b_ineq.tolist(),
                "a_eq": self.a_eq.tolist(),
                "b_eq": self.b_eq.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ConvexProgram":
        d = json.loads(text)
        return cls(
            c=d["c"],
            q=d["q"],
            a_ineq=d["a_ineq"],
            b_ineq=d["b_ineq"],
            a_eq=d["a_eq"],
            b_eq=d["b_eq"],
        )


@dataclass
class SolveReport:
    status: SolveStatus
    x: np.ndarray
    lam: np.ndarray  # inequality multipliers (the "lambda" block), >= 0
    nu: np.ndarray  # equality multipliers
    primal_residual: float
    dual_residual: float
    complementarity_gap: float
    iterations: int

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "x": np.asarray(self.x).tolist(),
            "lambda": np.asarray(self.lam).tolist(),
            "nu": np.asarray(self.nu).tolist(),
            "primal_residual": self.primal_residual,
            "dual_residual": self.dual_residual,
            "complementarity_gap": self.complementarity_gap,
            "iterations": self.iterations,
        }


@dataclass
class KktSummary:
    stationarity: float
    feasibility: float
    complementarity: float
    passed: bool


def _kkt_measures(program: ConvexProgram, x, lam, nu) -> tuple[float, float, float]:
    """(stationarity, feasibility incl. λ sign, complementarity), ∞-norms."""
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    nu = np.asarray(nu, dtype=float)
    grad = program.q @ x + program.c
    if program.n_ineq:
        grad = grad + program.a_ineq.T @ lam
    if program.n_eq:
        grad = grad + program.a_eq.T @ nu
    stationarity = float(np.max(np.abs(grad)))
    feas = 0.0
    comp = 0.0
    if program.n_ineq:
        slack_violation = program.a_ineq @ x - program.b_ineq
        feas = max(feas, float(np.max(slack_violation)), float(np.max(-lam)))
        comp = float(np.max(np.abs(lam * slack_violation)))
    if program.n_eq:
        feas = max(feas, float(np.max(np.abs(program.a_eq @ x - program.b_eq))))
    return stationarity, max(feas, 0.0), comp


def check_kkt(program: ConvexProgram, report: SolveReport, tol: float) -> KktSummary:
    """Recompute the KKT residuals of a primal-dual pair from scratch."""
    if len(report.x) != program.n_vars:
        raise SolverError("report.x length does not match program")
    if len(report.lam) != program.n_ineq or len(report.nu) != program.n_eq:
        raise SolverError("multiplier lengths do not match program")
    stat, feas, comp = _kkt_measures(program, report.x, report.lam, report.nu)
    return KktSummary(stat, feas, comp, passed=max(stat, feas, comp) <= tol)


def least_squares(a, b) -> np.ndarray:
    """Minimum-norm least-squares solution of a·x ≈ b (pseudoinverse solve)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    if a.size == 0:
        raise SolverError("least_squares needs a nonempty matrix")
    return np.linalg.lstsq(a, b, rcond=None)[0]


# ---------------------------------------------------------------------------
# presolve: drop zero rows and exact duplicate rows, nothing else, so the
# multiplier indexing of callers stays aligned (dropped rows get zero duals).
# ---------------------------------------------------------------------------


@dataclass
class _Presolved:
    program: ConvexProgram
    keep_ineq: np.ndarray  # indices into the original inequality rows
    keep_eq: np.ndarray
    infeasible: bool = False


def _dedup_rows(a: np.ndarray, b: np.ndarray, is_eq: bool):
    """Indices of the first occurrence of each distinct nonzero row of
    [a | b], ascending, and whether a zero row is infeasible.

    Rows are distinct when their bytes differ, so -0.0 and 0.0 entries
    tell rows apart, while a row whose entries are all ±0.0 counts as zero.
    Rows are first grouped by a signature that byte-equal rows share
    (nonzero count, first nonzero column, the bits of its value and of
    b); only rows whose signatures collide are compared byte for byte.
    """
    nonzero = a != 0.0
    is_zero_row = ~nonzero.any(axis=1)
    b_zero = b[is_zero_row]
    infeasible = bool(np.any(b_zero != 0.0) if is_eq else np.any(b_zero < 0.0))
    rows = np.flatnonzero(~is_zero_row)
    if rows.size < 2:
        return rows, infeasible
    nonzero = nonzero[rows]
    first = nonzero.argmax(axis=1)
    signature = (nonzero.sum(axis=1), first, a[rows, first].view(np.int64), b[rows].view(np.int64))
    order = np.lexsort(signature)
    ordered = np.stack(signature)[:, order]
    starts = np.flatnonzero(np.r_[True, (ordered[:, 1:] != ordered[:, :-1]).any(axis=0), True])
    group_size = np.diff(starts)
    shared = np.zeros(rows.size, dtype=bool)
    shared[order] = np.repeat(group_size > 1, group_size)
    keep = ~shared
    if shared.any():
        candidates = np.flatnonzero(shared)
        pairs = np.column_stack([a[rows[candidates]], b[rows[candidates]]])
        keys = pairs.view(np.dtype((np.void, pairs.itemsize * pairs.shape[1]))).ravel()
        _, first_of_key = np.unique(keys, return_index=True)
        keep[candidates[first_of_key]] = True
    return rows[keep], infeasible


def _presolve(program: ConvexProgram) -> _Presolved:
    keep_ineq, bad_ineq = _dedup_rows(program.a_ineq, program.b_ineq, is_eq=False)
    keep_eq, bad_eq = _dedup_rows(program.a_eq, program.b_eq, is_eq=True)
    unchanged = (
        keep_ineq.size == program.n_ineq
        and keep_eq.size == program.n_eq
        # a reduced program holds row-major copies, and BLAS may round a
        # product differently on another layout
        and program.a_ineq.flags.c_contiguous
        and program.a_eq.flags.c_contiguous
    )
    if unchanged:
        reduced = program
    else:
        reduced = ConvexProgram(
            c=program.c,
            q=program.q,
            a_ineq=program.a_ineq[keep_ineq],
            b_ineq=program.b_ineq[keep_ineq],
            a_eq=program.a_eq[keep_eq],
            b_eq=program.b_eq[keep_eq],
        )
    return _Presolved(reduced, keep_ineq, keep_eq, infeasible=bad_ineq or bad_eq)


# ---------------------------------------------------------------------------
# homogeneous self-dual interior point for standard-form LPs
#   min cᵀx  s.t.  Ax = b, x >= 0
# ---------------------------------------------------------------------------

_HSD_OPTIMAL = 0
_HSD_MAXITER = 1
_HSD_INFEASIBLE = 2
_HSD_UNBOUNDED = 3
_HSD_FAILURE = 4


def _max_step(v, dv):
    """Largest α with v + α·dv ≥ 0, from the entries where dv < 0 (∞ if none)."""
    i = np.flatnonzero(dv < 0)
    return (v[i] / -dv[i]).min(initial=np.inf)


def _hsd_step_length(x, d_x, z, d_z, tau, d_tau, kappa, d_kappa, alpha0):
    alpha = min(1.0, _max_step(x, d_x), _max_step(z, d_z))
    if d_tau < 0:
        alpha = min(alpha, tau / -d_tau)
    if d_kappa < 0:
        alpha = min(alpha, kappa / -d_kappa)
    return alpha0 * alpha


def _hsd(A, b, c, tol, max_iter):
    """Mehrotra predictor-corrector on the homogeneous self-dual embedding.

    Returns (x, y, z, tau, kappa, hsd_status, iterations); on optimal
    termination x/tau is the primal solution and y/tau, z/tau the duals.
    """
    m, n = A.shape
    x = np.ones(n)
    y = np.zeros(m)
    z = np.ones(n)
    tau, kappa = 1.0, 1.0

    r_p0 = max(1.0, np.linalg.norm(b - A @ x))
    r_d0 = max(1.0, np.linalg.norm(c - A.T @ y - z))
    r_g0 = max(1.0, abs(1.0 + c @ x - b @ y))
    mu_0 = (x @ z + tau * kappa) / (n + 1)

    scaled_A = np.empty_like(A)  # A·diag(x/z), rewritten every iteration
    status = _HSD_MAXITER
    iteration = 0
    while True:
        r_P = b * tau - A @ x
        r_D = c * tau - A.T @ y - z
        r_G = kappa + c @ x - b @ y
        mu = (x @ z + tau * kappa) / (n + 1)

        rho_p = np.linalg.norm(r_P) / r_p0
        rho_d = np.linalg.norm(r_D) / r_d0
        rho_g = abs(r_G) / r_g0
        rho_A = abs(c @ x - b @ y) / (tau + abs(b @ y))
        rho_mu = mu / mu_0

        if rho_p <= tol and rho_d <= tol and rho_A <= tol:
            status = _HSD_OPTIMAL
            break
        inf1 = rho_p <= tol and rho_d <= tol and rho_g <= tol and tau <= tol * max(1.0, kappa)
        inf2 = rho_mu <= tol and tau <= tol * min(1.0, kappa)
        if inf1 or inf2:
            status = _HSD_INFEASIBLE if b @ y > tol else _HSD_UNBOUNDED
            break
        if iteration >= max_iter:
            break
        iteration += 1

        d_inv = x / z
        M = np.multiply(A, d_inv, out=scaled_A) @ A.T
        M.reshape(-1)[:: m + 1] += KKT_REGULARIZATION  # the diagonal, in place
        # the LAPACK calls behind scipy.linalg.cho_factor and cho_solve,
        # without their per-call argument checks
        factor, info = dpotrf(M, lower=False, clean=False)
        if info == 0:

            def lin_solve(rhs, factor=factor):
                return dpotrs(factor, rhs, lower=False)[0]

        else:

            def lin_solve(rhs, M=M):
                return np.linalg.lstsq(M, rhs, rcond=None)[0]

        def sym_solve(r1, r2):
            # block elimination of the (x, y) system through the normal matrix
            v = lin_solve(r2 + A @ (d_inv * r1))
            u = d_inv * (A.T @ v - r1)
            return u, v

        try:
            p, q = sym_solve(c, b)
            denom_base = kappa / tau + (-c @ p + b @ q)

            d_x = d_z = np.zeros(n)
            d_tau = d_kappa = 0.0
            alpha = 0.0
            gamma = 0.0
            failed = False
            for stage in range(2):
                eta = 1.0 - gamma
                rhatp = eta * r_P
                rhatd = eta * r_D
                rhatg = eta * r_G
                rhatxs = gamma * mu - x * z
                rhattk = gamma * mu - tau * kappa
                if stage == 1:
                    rhatxs = rhatxs - d_x * d_z
                    rhattk = rhattk - d_tau * d_kappa
                u, v = sym_solve(rhatd - rhatxs / x, rhatp)
                if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
                    failed = True
                    break
                d_tau = (rhatg + rhattk / tau - (-c @ u + b @ v)) / denom_base
                d_x = u + p * d_tau
                d_y = v + q * d_tau
                d_z = (rhatxs - z * d_x) / x
                d_kappa = (rhattk - kappa * d_tau) / tau
                alpha = _hsd_step_length(x, d_x, z, d_z, tau, d_tau, kappa, d_kappa, 1.0)
                gamma = (1.0 - alpha) ** 2 * min(0.1, 1.0 - alpha)
            if failed:
                status = _HSD_FAILURE
                break
        except (scipy.linalg.LinAlgError, FloatingPointError, ZeroDivisionError):
            status = _HSD_FAILURE
            break

        alpha = _hsd_step_length(x, d_x, z, d_z, tau, d_tau, kappa, d_kappa, 0.99995)
        x = x + alpha * d_x
        y = y + alpha * d_y
        z = z + alpha * d_z
        tau = tau + alpha * d_tau
        kappa = kappa + alpha * d_kappa
        if not np.all(np.isfinite(x)) or tau <= 0 or kappa < 0:
            status = _HSD_FAILURE
            break

    return x, y, z, tau, kappa, status, iteration


# ---------------------------------------------------------------------------
# LP path: conversion to standard form (primal or dualized), mapping back
# ---------------------------------------------------------------------------


@dataclass
class _StdForm:
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    col: np.ndarray  # original var -> its standard col (the plus part if split)
    split: np.ndarray  # original var is free: plus part in col, minus in col + 1
    bound_rows: np.ndarray  # original ineq rows read as sign bounds, one per var
    bound_vars: np.ndarray  # the var each bound row keeps nonnegative
    bound_scales: np.ndarray  # −G[row, var] > 0 of each bound row
    generic_rows: np.ndarray  # original ineq rows kept as slack rows, in order
    n_eq: int


def _lp_standard_form(program: ConvexProgram) -> _StdForm:
    m = program.n_vars
    G, h = program.a_ineq, program.b_ineq
    A, b = program.a_eq, program.b_eq

    # a row −s·x_j ≤ 0 with s > 0 is the sign bound x_j ≥ 0; the first
    # such row of each variable becomes its bound, later ones stay generic
    nonzero = G != 0.0
    first = nonzero.argmax(axis=1)
    lead = G[np.arange(G.shape[0]), first]
    candidates = np.flatnonzero((h == 0.0) & (nonzero.sum(axis=1) == 1) & (lead < 0))
    bound_vars, first_row = np.unique(first[candidates], return_index=True)
    bound_rows = candidates[first_row]
    is_generic = np.ones(G.shape[0], dtype=bool)
    is_generic[bound_rows] = False
    generic = np.flatnonzero(is_generic)

    split = np.ones(m, dtype=bool)
    split[bound_vars] = False
    width = np.where(split, 2, 1)
    col = np.cumsum(width) - width
    next_col = int(width.sum())
    n_std = next_col + generic.size

    q_eq = A.shape[0]
    rows = q_eq + generic.size
    A_std = np.zeros((rows, n_std))
    b_std = np.concatenate([b, h[generic]])
    c_std = np.zeros(n_std)

    stacked = np.vstack([A, G[generic]]) if rows else np.zeros((0, m))
    A_std[:, col] = stacked
    A_std[:, col[split] + 1] = -stacked[:, split]
    c_std[col] = program.c
    c_std[col[split] + 1] = -program.c[split]
    slack = np.arange(generic.size)
    A_std[q_eq + slack, next_col + slack] = 1.0

    return _StdForm(A_std, b_std, c_std, col, split, bound_rows, bound_vars, -lead[bound_rows],
                    generic, q_eq)


def _lp_solve_primal_route(program: ConvexProgram, tol, max_iter):
    sf = _lp_standard_form(program)
    if sf.A.shape[0] == 0:
        # only sign bounds remain: the optimum sits at the origin whenever
        # every bounded direction has nonnegative cost and every free
        # direction has zero cost, otherwise the objective is unbounded
        c = program.c
        zero = np.zeros(program.n_vars)
        lam = np.zeros(program.n_ineq)
        if np.any(c[~sf.split] < 0) or np.any(c[sf.split] != 0):
            return SolveStatus.DUAL_UNBOUNDED, zero, lam, np.zeros(program.n_eq), 0
        lam[sf.bound_rows] = c[sf.bound_vars] / sf.bound_scales
        return SolveStatus.OPTIMAL, zero, lam, np.zeros(program.n_eq), 0

    inner_tol = max(tol * 1e-2, 1e-13)
    x, y, z, tau, kappa, hsd_status, iters = _hsd(sf.A, sf.b, sf.c, inner_tol, max_iter)

    m = program.n_vars
    if hsd_status in (_HSD_OPTIMAL, _HSD_MAXITER):
        xs = x / tau
        zs = z / tau
        ys = y / tau
        x_orig = xs[sf.col]
        plus = sf.col[sf.split]
        x_orig[sf.split] = xs[plus] - xs[plus + 1]
        lam = np.zeros(program.n_ineq)
        lam[sf.bound_rows] = zs[sf.col[sf.bound_vars]] / sf.bound_scales
        y_in = ys[sf.n_eq :]
        lam[sf.generic_rows] = -y_in
        nu = -ys[: sf.n_eq]
        status = SolveStatus.OPTIMAL if hsd_status == _HSD_OPTIMAL else SolveStatus.MAX_ITERATIONS
        return status, x_orig, lam, nu, iters

    zeros = (np.zeros(m), np.zeros(program.n_ineq), np.zeros(program.n_eq))
    if hsd_status == _HSD_INFEASIBLE:
        return SolveStatus.PRIMAL_INFEASIBLE, *zeros, iters
    if hsd_status == _HSD_UNBOUNDED:
        return SolveStatus.DUAL_UNBOUNDED, *zeros, iters
    return SolveStatus.NUMERICAL_FAILURE, *zeros, iters


def _lp_solve_dual_route(program: ConvexProgram, tol, max_iter):
    """Solve the LP through its dual, which has one constraint per variable.

    Pays off when the program has many more constraints than variables.
    Returns None when the outcome is ambiguous and the primal route must
    decide (the dual being infeasible does not separate an unbounded
    original from an infeasible one).
    """
    G, h = program.a_ineq, program.b_ineq
    A, b = program.a_eq, program.b_eq
    m = program.n_vars
    p, q = G.shape[0], A.shape[0]
    blocks = []
    costs = []
    if p:
        blocks.append(-G.T)
        costs.append(h)
    if q:
        blocks.append(-A.T)
        blocks.append(A.T)
        costs.append(b)
        costs.append(-b)
    A_std = np.hstack(blocks)
    c_std = np.concatenate(costs)
    b_std = program.c.copy()

    inner_tol = max(tol * 1e-2, 1e-13)
    x, y, z, tau, kappa, hsd_status, iters = _hsd(A_std, b_std, c_std, inner_tol, max_iter)
    if hsd_status == _HSD_OPTIMAL:
        xs = x / tau
        ys = y / tau
        lam = xs[:p]
        nu = xs[p : p + q] - xs[p + q : p + 2 * q] if q else np.zeros(0)
        x_orig = -ys
        return SolveStatus.OPTIMAL, x_orig, lam, nu, iters
    if hsd_status == _HSD_UNBOUNDED:
        # the dual improving ray certifies that the original is infeasible
        zeros = (np.zeros(m), np.zeros(p), np.zeros(q))
        return SolveStatus.PRIMAL_INFEASIBLE, *zeros, iters
    return None


# ---------------------------------------------------------------------------
# QP path: infeasible-start Mehrotra predictor-corrector on the KKT system
# ---------------------------------------------------------------------------


def _qp_equality_only(program: ConvexProgram, tol):
    m, q = program.n_vars, program.n_eq
    K = np.zeros((m + q, m + q))
    K[:m, :m] = program.q
    if q:
        K[:m, m:] = program.a_eq.T
        K[m:, :m] = program.a_eq
    rhs = np.concatenate([-program.c, program.b_eq])
    sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    x, nu = sol[:m], sol[m:]
    stat, feas, _ = _kkt_measures(program, x, np.zeros(0), nu)
    scale = 1.0 + float(np.max(np.abs(program.c))) + (float(np.max(np.abs(program.b_eq))) if q else 0.0)
    if feas > tol * scale:
        return SolveStatus.PRIMAL_INFEASIBLE, x, nu
    if stat > tol * scale:
        # consistent constraints but no stationary point: curvature is flat
        # along a descent direction, so the objective is unbounded below
        return SolveStatus.DUAL_UNBOUNDED, x, nu
    return SolveStatus.OPTIMAL, x, nu


def _qp_mehrotra(program: ConvexProgram, tol, max_iter):
    Q, c = program.q, program.c
    G, h = program.a_ineq, program.b_ineq
    A, b = program.a_eq, program.b_eq
    m, p, q = program.n_vars, program.n_ineq, program.n_eq

    x = least_squares(A, b) if q else np.zeros(m)
    s_hat = h - G @ x
    s = s_hat + max(-1.5 * float(np.min(s_hat)), 0.0) + 1.0
    lam = np.ones(p)
    shift = 0.5 * (s @ lam)
    s = s + shift / lam.sum()
    lam = lam + shift / s.sum()
    nu = np.zeros(q)

    status = SolveStatus.MAX_ITERATIONS
    iteration = 0
    delta = KKT_REGULARIZATION
    stalled = 0
    while iteration < max_iter:
        iteration += 1
        r_dual = Q @ x + c + G.T @ lam + (A.T @ nu if q else 0.0)
        r_eq = A @ x - b if q else np.zeros(0)
        r_in = G @ x + s - h
        mu = (s @ lam) / p

        prim = max(
            float(np.max(np.abs(r_in))) if p else 0.0,
            float(np.max(np.abs(r_eq))) if q else 0.0,
        )
        dual = float(np.max(np.abs(r_dual)))
        comp = float(np.max(s * lam))
        # multipliers scale with the objective's linear part, which can be
        # tiny; squeezing mu well below the multiplier scale keeps the
        # active set identifiable for the polish step
        mu_target = max(1e-13, 0.01 * tol * min(1.0, float(np.max(lam))))
        if max(prim, dual, comp) <= 0.5 * tol and (mu <= mu_target or stalled >= 3):
            status = SolveStatus.OPTIMAL
            break
        if not np.isfinite(mu) or np.max(np.abs(x)) > 1e13:
            status = SolveStatus.DUAL_UNBOUNDED
            break
        if program.objective(x) < -1e16:
            status = SolveStatus.DUAL_UNBOUNDED
            break

        d = lam / s
        K = np.zeros((m + q, m + q))
        K[:m, :m] = Q + (G.T * d) @ G
        K[np.diag_indices(m)] += delta
        if q:
            K[:m, m:] = A.T
            K[m:, :m] = A
            K[m + np.arange(q), m + np.arange(q)] -= delta

        lu = None
        for attempt in range(3):
            try:
                lu = scipy.linalg.lu_factor(K, check_finite=False)
                break
            except scipy.linalg.LinAlgError:
                bump = KKT_REGULARIZATION * (100.0 ** (attempt + 1))
                K[np.diag_indices(m)] += bump
                K[m + np.arange(q), m + np.arange(q)] -= bump
        if lu is None:
            status = SolveStatus.NUMERICAL_FAILURE
            break

        def newton(r_comp):
            rhs_x = -r_dual + G.T @ ((r_comp - lam * r_in) / s)
            rhs = np.concatenate([rhs_x, -r_eq]) if q else rhs_x
            sol = scipy.linalg.lu_solve(lu, rhs, check_finite=False)
            dx = sol[:m]
            dnu = sol[m:] if q else np.zeros(0)
            ds = -r_in - G @ dx
            dlam = (-r_comp - lam * ds) / s
            return dx, dnu, ds, dlam

        # predictor
        dx, dnu, ds, dlam = newton(s * lam)
        alpha_aff = min(1.0, _max_step(s, ds), _max_step(lam, dlam))
        mu_aff = ((s + alpha_aff * ds) @ (lam + alpha_aff * dlam)) / p
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

        # corrector
        dx, dnu, ds, dlam = newton(s * lam + ds * dlam - sigma * mu)
        alpha = 0.9995 * min(1.0, _max_step(s, ds), _max_step(lam, dlam))
        stalled = stalled + 1 if alpha < 1e-3 else 0
        x = x + alpha * dx
        nu = nu + alpha * dnu
        s = s + alpha * ds
        lam = lam + alpha * dlam
        if not np.all(np.isfinite(x)):
            status = SolveStatus.NUMERICAL_FAILURE
            break

    return status, x, lam, nu, iteration


# ---------------------------------------------------------------------------
# active-set polish and the public entry point
# ---------------------------------------------------------------------------


def _polish(program: ConvexProgram, x, lam, nu, skippable: bool):
    """Refine a near-optimal pair by solving the KKT system of the guessed
    active set; returns the refined triple or None when the guess fails.

    Massively degenerate solutions (think the zero vertex with every
    zero-label row tight) would make this cubic-cost solve dominate the
    whole run, so a large system is skipped when the iterate is already
    within tolerance (``skippable``)."""
    m, p, q = program.n_vars, program.n_ineq, program.n_eq
    if p:
        slack = program.b_ineq - program.a_ineq @ x
        active = np.flatnonzero((slack < lam) | (slack <= 1e-7 * (1.0 + np.abs(program.b_ineq))))
    else:
        active = np.zeros(0, dtype=int)
    n_a = active.size
    if skippable and m + n_a + q > 600:
        return None
    K = np.zeros((m + n_a + q, m + n_a + q))
    K[:m, :m] = program.q
    rhs = np.concatenate([-program.c, program.b_ineq[active], program.b_eq])
    if n_a:
        K[:m, m : m + n_a] = program.a_ineq[active].T
        K[m : m + n_a, :m] = program.a_ineq[active]
    if q:
        K[:m, m + n_a :] = program.a_eq.T
        K[m + n_a :, :m] = program.a_eq
    try:
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(sol)):
        return None
    x_new = sol[:m]
    lam_new = np.zeros(p)
    lam_new[active] = sol[m : m + n_a]
    nu_new = sol[m + n_a :]
    return x_new, lam_new, nu_new


def _refine(program: ConvexProgram, status, x, lam, nu, tol):
    """Apply the polish when optimal and keep whichever pair is cleaner."""
    if status != SolveStatus.OPTIMAL:
        return x, lam, nu
    raw = _kkt_measures(program, x, lam, nu)
    candidate = _polish(program, x, lam, nu, skippable=max(raw) <= tol)
    if candidate is None:
        return x, lam, nu
    if max(_kkt_measures(program, *candidate)) < max(raw):
        return candidate
    return x, lam, nu


def _finalize(program: ConvexProgram, status, x, lam, nu, iterations, tol) -> SolveReport:
    stat, feas, comp = _kkt_measures(program, x, lam, nu)
    if status == SolveStatus.OPTIMAL and max(stat, feas, comp) > tol:
        status = SolveStatus.MAX_ITERATIONS
    return SolveReport(
        status=status,
        x=np.asarray(x, dtype=float),
        lam=np.asarray(lam, dtype=float),
        nu=np.asarray(nu, dtype=float),
        primal_residual=feas,
        dual_residual=stat,
        complementarity_gap=comp,
        iterations=iterations,
    )


def solve(program: ConvexProgram, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> SolveReport:
    """Solve the program to the requested absolute KKT tolerance.

    Optimal reports carry a primal-dual pair whose recomputed stationarity,
    feasibility and complementarity residuals are all at most ``tol``.
    Infeasible and unbounded LPs are detected through the self-dual
    embedding; the iteration cap and numerical breakdowns are reported
    through the status field, never as exceptions.
    """
    if not (_TOL_RANGE[0] <= tol <= _TOL_RANGE[1]):
        raise SolverError(f"tol must lie in [{_TOL_RANGE[0]}, {_TOL_RANGE[1]}]")
    if max_iter < 1:
        raise SolverError("max_iter must be positive")

    pre = _presolve(program)
    if pre.infeasible:
        zero = np.zeros(program.n_vars)
        lam0 = np.zeros(program.n_ineq)
        nu0 = np.zeros(program.n_eq)
        return _finalize(program, SolveStatus.PRIMAL_INFEASIBLE, zero, lam0, nu0, 0, tol)
    red = pre.program

    if red.is_lp:
        rows = red.n_ineq + red.n_eq
        result = None
        if rows > 2 * red.n_vars and rows > 0:
            result = _lp_solve_dual_route(red, tol, max_iter)
        if result is None:
            result = _lp_solve_primal_route(red, tol, max_iter)
        status, x, lam_red, nu_red, iters = result
    else:
        if red.n_ineq == 0:
            status, x, nu_red = _qp_equality_only(red, tol)
            lam_red, iters = np.zeros(0), 1
        else:
            status, x, lam_red, nu_red, iters = _qp_mehrotra(red, tol, max_iter)

    x, lam_red, nu_red = _refine(red, status, x, lam_red, nu_red, tol)
    lam = np.zeros(program.n_ineq)
    nu = np.zeros(program.n_eq)
    lam[pre.keep_ineq] = lam_red
    nu[pre.keep_eq] = nu_red
    return _finalize(program, status, x, lam, nu, iters, tol)
