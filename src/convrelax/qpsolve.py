"""Dense convex solver for LPs and QPs over inequality rows.

This is the single numerical engine used by the rest of the package.
Every constraint is an inequality row, for LPs and QPs alike.  Linear
programs run through a homogeneous self-dual embedding with Mehrotra
predictor-corrector steps, which gives clean certificates of
infeasibility and unboundedness.  Quadratic programs (PSD curvature, at
least one inequality row left after presolve) run an infeasible-start
predictor-corrector on the slack KKT system with static regularization,
stepping on the Cholesky factor of the Schur complement left by
eliminating the separable columns (diagonal curvature, at most one per
row).  Candidate optima are refined by an active-set polish, which
eliminates the same columns and those fixed at 0 by active sign bounds
before its lstsq.  A report is declared Optimal only after the KKT
residuals have been recomputed from scratch and verified against the
requested tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
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


def _as_matrix(a, cols: int, name: str) -> np.ndarray:
    a = np.zeros((0, cols)) if a is None else np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        a = a.reshape(0, cols)
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
    """min ½ xᵀQx + cᵀx  s.t.  A_ineq·x ≤ b_ineq."""

    c: np.ndarray
    q: np.ndarray | None = None
    a_ineq: np.ndarray | None = None
    b_ineq: np.ndarray | None = None

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
        if self.a_ineq.shape[1] != m:
            raise SolverError("the constraint matrix must have one column per variable")
        self.b_ineq = _as_vector(self.b_ineq if self.b_ineq is not None else [], "b_ineq")
        if self.b_ineq.shape[0] != self.a_ineq.shape[0]:
            raise SolverError("a_ineq and b_ineq disagree on row count")

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    @property
    def n_ineq(self) -> int:
        return self.a_ineq.shape[0]

    @property
    def a_eq(self) -> np.ndarray:
        # read only by bench/tracing.py's program-size counters
        return np.zeros((0, self.n_vars))

    @property
    def is_lp(self) -> bool:
        return not self.q.any()

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.q @ x + self.c @ x)


@dataclass
class SolveReport:
    status: SolveStatus
    x: np.ndarray
    lam: np.ndarray = field(metadata={"json": "lambda"})  # inequality multipliers, >= 0
    primal_residual: float
    dual_residual: float
    complementarity_gap: float
    iterations: int


@dataclass
class KktSummary:
    stationarity: float
    feasibility: float
    complementarity: float
    passed: bool


def _kkt_measures(program: ConvexProgram, x, lam) -> tuple[float, float, float]:
    """(stationarity, feasibility incl. λ sign, complementarity), ∞-norms."""
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    grad = program.q @ x + program.c
    if program.n_ineq:
        grad = grad + program.a_ineq.T @ lam
    stationarity = float(np.max(np.abs(grad)))
    feas = 0.0
    comp = 0.0
    if program.n_ineq:
        slack_violation = program.a_ineq @ x - program.b_ineq
        feas = max(feas, float(np.max(slack_violation)), float(np.max(-lam)))
        comp = float(np.max(np.abs(lam * slack_violation)))
    return stationarity, max(feas, 0.0), comp


def check_kkt(program: ConvexProgram, report: SolveReport, tol: float) -> KktSummary:
    """Recompute the KKT residuals of a primal-dual pair from scratch."""
    if len(report.x) != program.n_vars:
        raise SolverError("report.x length does not match program")
    if len(report.lam) != program.n_ineq:
        raise SolverError("multiplier length does not match program")
    stat, feas, comp = _kkt_measures(program, report.x, report.lam)
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


def _dedup_rows(a: np.ndarray, b: np.ndarray):
    """Indices of the first occurrence of each distinct nonzero row of
    [a | b], ascending, and whether a zero row is infeasible (b < 0).

    Rows are distinct when their bytes differ, so -0.0 and 0.0 entries
    tell rows apart, while a row whose entries are all ±0.0 counts as zero.
    Rows are first grouped by a signature that byte-equal rows share
    (nonzero count, first nonzero column, the bits of its value and of
    b); only rows whose signatures collide are compared byte for byte.
    """
    nonzero = a != 0.0
    is_zero_row = ~nonzero.any(axis=1)
    infeasible = bool(np.any(b[is_zero_row] < 0.0))
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


def _presolve(program: ConvexProgram) -> tuple[ConvexProgram, np.ndarray, bool]:
    """(the reduced program, the indices of its rows in the original,
    whether a zero row is infeasible)."""
    keep, infeasible = _dedup_rows(program.a_ineq, program.b_ineq)
    # a reduced program holds row-major copies, and BLAS may round a
    # product differently on another layout
    unchanged = keep.size == program.n_ineq and program.a_ineq.flags.c_contiguous
    reduced = program if unchanged else replace(
        program, a_ineq=program.a_ineq[keep], b_ineq=program.b_ineq[keep])
    return reduced, keep, infeasible


# ---------------------------------------------------------------------------
# homogeneous self-dual interior point for standard-form LPs
#   min cᵀx  s.t.  Ax = b, x >= 0
# ---------------------------------------------------------------------------

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

    Returns (x, y, z, tau, kappa, status, iterations), the status being
    that of the standard-form program; on optimal termination x/tau is
    the primal solution and y/tau, z/tau the duals.
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
    status = SolveStatus.MAX_ITERATIONS
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
            status = SolveStatus.OPTIMAL
            break
        inf1 = rho_p <= tol and rho_d <= tol and rho_g <= tol and tau <= tol * max(1.0, kappa)
        inf2 = rho_mu <= tol and tau <= tol * min(1.0, kappa)
        if inf1 or inf2:
            status = SolveStatus.PRIMAL_INFEASIBLE if b @ y > tol else SolveStatus.DUAL_UNBOUNDED
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
                status = SolveStatus.NUMERICAL_FAILURE
                break
        except (np.linalg.LinAlgError, FloatingPointError, ZeroDivisionError):
            status = SolveStatus.NUMERICAL_FAILURE
            break

        alpha = _hsd_step_length(x, d_x, z, d_z, tau, d_tau, kappa, d_kappa, 0.99995)
        x = x + alpha * d_x
        y = y + alpha * d_y
        z = z + alpha * d_z
        tau = tau + alpha * d_tau
        kappa = kappa + alpha * d_kappa
        if not np.all(np.isfinite(x)) or tau <= 0 or kappa < 0:
            status = SolveStatus.NUMERICAL_FAILURE
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


def _sign_bounds(G: np.ndarray, h: np.ndarray):
    """(variables j, rows, scales s) of the sign bounds x_j ≥ 0 in G·x ≤ h:
    the first row −s·x_j ≤ 0 with s > 0 of each variable."""
    nonzero = G != 0.0
    first = nonzero.argmax(axis=1)
    lead = G[np.arange(G.shape[0]), first]
    candidates = np.flatnonzero((h == 0.0) & (nonzero.sum(axis=1) == 1) & (lead < 0))
    bound_vars, first_row = np.unique(first[candidates], return_index=True)
    bound_rows = candidates[first_row]
    return bound_vars, bound_rows, -lead[bound_rows]


def _lp_standard_form(program: ConvexProgram) -> _StdForm:
    m = program.n_vars
    G, h = program.a_ineq, program.b_ineq

    # each sign bound makes its variable nonnegative; later rows of the
    # same variable stay generic
    bound_vars, bound_rows, bound_scales = _sign_bounds(G, h)
    generic = np.flatnonzero(np.bincount(bound_rows, minlength=G.shape[0]) == 0)

    split = np.bincount(bound_vars, minlength=m) == 0
    width = np.where(split, 2, 1)
    col = np.cumsum(width) - width
    next_col = int(width.sum())
    n_std = next_col + generic.size

    A_std = np.zeros((generic.size, n_std))
    b_std = h[generic]
    c_std = np.zeros(n_std)

    rows = G[generic]
    A_std[:, col] = rows
    A_std[:, col[split] + 1] = -rows[:, split]
    c_std[col] = program.c
    c_std[col[split] + 1] = -program.c[split]
    slack = np.arange(generic.size)
    A_std[slack, next_col + slack] = 1.0

    return _StdForm(A_std, b_std, c_std, col, split, bound_rows, bound_vars, bound_scales, generic)


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
            return SolveStatus.DUAL_UNBOUNDED, zero, lam, 0
        lam[sf.bound_rows] = c[sf.bound_vars] / sf.bound_scales
        return SolveStatus.OPTIMAL, zero, lam, 0

    inner_tol = max(tol * 1e-2, 1e-13)
    x, y, z, tau, kappa, status, iters = _hsd(sf.A, sf.b, sf.c, inner_tol, max_iter)

    m = program.n_vars
    if status in (SolveStatus.OPTIMAL, SolveStatus.MAX_ITERATIONS):
        xs = x / tau
        zs = z / tau
        x_orig = xs[sf.col]
        plus = sf.col[sf.split]
        x_orig[sf.split] = xs[plus] - xs[plus + 1]
        lam = np.zeros(program.n_ineq)
        lam[sf.bound_rows] = zs[sf.col[sf.bound_vars]] / sf.bound_scales
        lam[sf.generic_rows] = -(y / tau)
        return status, x_orig, lam, iters
    return status, np.zeros(m), np.zeros(program.n_ineq), iters


def _lp_solve_dual_route(program: ConvexProgram, tol, max_iter):
    """Solve the LP through its dual, which has one constraint per variable.

    Pays off when the program has many more constraints than variables.
    Returns None when the outcome is ambiguous and the primal route must
    decide (the dual being infeasible does not separate an unbounded
    original from an infeasible one).
    """
    # min hᵀλ s.t. −Gᵀλ = c, λ ≥ 0; −Gᵀ stays column-major, since BLAS
    # may round a product differently on another layout
    A_std = -program.a_ineq.T

    inner_tol = max(tol * 1e-2, 1e-13)
    x, y, z, tau, kappa, status, iters = _hsd(A_std, program.c, program.b_ineq, inner_tol, max_iter)
    if status == SolveStatus.OPTIMAL:
        return SolveStatus.OPTIMAL, -(y / tau), x / tau, iters
    if status == SolveStatus.DUAL_UNBOUNDED:
        # the dual improving ray certifies that the original is infeasible
        return SolveStatus.PRIMAL_INFEASIBLE, np.zeros(program.n_vars), np.zeros(program.n_ineq), iters
    return None


# ---------------------------------------------------------------------------
# QP path: infeasible-start Mehrotra predictor-corrector on the KKT system
# ---------------------------------------------------------------------------


def _separable_columns(program: ConvexProgram) -> np.ndarray:
    """The separable columns U of a QP, as a mask over its columns.

    A column is separable when its diagonal entry of Q is positive and
    the rest of its row and column of Q is zero.  U must also hold at
    most one nonzero of every inequality row, so that the U-block of
    Q + GᵀDG is diagonal; when a row holds two, U is empty.
    """
    Q = program.q
    single = (np.count_nonzero(Q, axis=0) == 1) & (np.count_nonzero(Q, axis=1) == 1)
    sep = single & (Q.diagonal() > 0.0)
    if np.any(np.count_nonzero((program.a_ineq != 0.0) & sep, axis=1) > 1):
        sep[:] = False
    return sep


class _SchurKkt:
    """The Newton step on K = Q + GᵀDG + δI, separable columns U eliminated.

    G is held as dense G_w on the other columns plus one (column,
    coefficient) entry per row on U, so the products scatter with
    ``np.bincount``; a row without a nonzero on U has coefficient 0 and
    the spare column n_u, a bin that is dropped.  The U-block of K is a
    vector K_uu, and the step solves the Schur complement
    S = K_ww − K_wu·K_uu⁻¹·K_uw by Cholesky; with U empty, S is K itself.
    """

    def __init__(self, program: ConvexProgram, sep: np.ndarray):
        Q, G = program.q, program.a_ineq
        self.c = program.c
        self.w, self.u = np.flatnonzero(~sep), np.flatnonzero(sep)
        self.n_w, self.n_u = self.w.size, self.u.size
        self.q_ww = Q[np.ix_(self.w, self.w)]
        self.q_u = Q.diagonal()[self.u]
        self.g_w = G[:, self.w]
        on_u = (G != 0.0) & sep
        self.x_col = on_u.argmax(axis=1)  # the entry's column of x (0 if none)
        rows = np.arange(G.shape[0])
        has = on_u[rows, self.x_col]
        self.coef = np.where(has, G[rows, self.x_col], 0.0)
        self.col = np.where(has, (np.cumsum(sep) - 1)[self.x_col], self.n_u)
        # the rows on U grouped by their column, for K_uw
        self.order = np.argsort(self.col, kind="stable")[: np.count_nonzero(has)]
        grouped = self.col[self.order]
        self.starts = np.flatnonzero(np.diff(grouped, prepend=-1))
        self.group_col = grouped[self.starts]
        self.g_w_grouped = self.g_w[self.order]

    def _join(self, x_w, x_u):
        x = np.empty(self.n_w + self.n_u)
        x[self.w] = x_w
        x[self.u] = x_u
        return x

    def _on_u(self, weights):
        return np.bincount(self.col, weights=weights, minlength=self.n_u + 1)[: self.n_u]

    def g_dot(self, x):
        return self.g_w @ x[self.w] + self.coef * x[self.x_col]

    def gt_dot(self, v):
        return self._join(self.g_w.T @ v, self._on_u(self.coef * v))

    def q_dot(self, x):
        return self._join(self.q_ww @ x[self.w], self.q_u * x[self.u])

    def objective(self, x):
        x_w, x_u = x[self.w], x[self.u]
        return float(0.5 * (x_w @ self.q_ww @ x_w + self.q_u @ (x_u * x_u)) + self.c @ x)

    def factor(self, d, delta):
        """A solve rhs -> dx of the step system with D = diag(d), or None
        when no regularization makes S factorable."""
        dc = d * self.coef
        k_uu = self._on_u(dc * self.coef) + self.q_u + delta
        k_uw = np.zeros((self.n_u, self.n_w))
        k_uw[self.group_col] = np.add.reduceat(self.g_w_grouped * dc[self.order, None], self.starts, axis=0)
        k_ww = self.q_ww + (self.g_w.T * d) @ self.g_w
        k_ww.reshape(-1)[:: self.n_w + 1] += delta
        for attempt in range(3):
            scaled = k_uw / k_uu[:, None]
            S = k_ww - k_uw.T @ scaled
            chol, info = dpotrf(S, lower=False, clean=False) if self.n_w else (S, 0)
            if info == 0:
                break
            bump = KKT_REGULARIZATION * (100.0 ** (attempt + 1))
            k_ww.reshape(-1)[:: self.n_w + 1] += bump
            k_uu = k_uu + bump
        else:
            return None

        def solve(rhs):
            rhs_w, t = rhs[self.w], rhs[self.u] / k_uu
            dx_w = dpotrs(chol, rhs_w - k_uw.T @ t, lower=False)[0] if self.n_w else rhs_w
            return self._join(dx_w, t - scaled @ dx_w)

        return solve


def _qp_step_length(s, ds, lam, dlam):
    # on an unbounded QP a ratio can pass the float range: ∞ is its bound
    with np.errstate(over="ignore"):
        return min(1.0, _max_step(s, ds), _max_step(lam, dlam))


def _qp_mehrotra(program: ConvexProgram, sep, tol, max_iter):
    c, h = program.c, program.b_ineq
    m, p = program.n_vars, program.n_ineq
    kkt = _SchurKkt(program, sep)

    x = np.zeros(m)
    s_hat = h - kkt.g_dot(x)
    s = s_hat + max(-1.5 * float(np.min(s_hat)), 0.0) + 1.0
    lam = np.ones(p)
    shift = 0.5 * (s @ lam)
    s = s + shift / lam.sum()
    lam = lam + shift / s.sum()

    status = SolveStatus.MAX_ITERATIONS
    iteration = 0
    delta = KKT_REGULARIZATION
    stalled = 0
    while iteration < max_iter:
        iteration += 1
        r_dual = kkt.q_dot(x) + c + kkt.gt_dot(lam)
        r_in = kkt.g_dot(x) + s - h
        mu = (s @ lam) / p

        prim = float(np.max(np.abs(r_in)))
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
        if kkt.objective(x) < -1e16:
            status = SolveStatus.DUAL_UNBOUNDED
            break

        lin_solve = kkt.factor(lam / s, delta)
        if lin_solve is None:
            status = SolveStatus.NUMERICAL_FAILURE
            break

        def newton(r_comp):
            dx = lin_solve(-r_dual + kkt.gt_dot((r_comp - lam * r_in) / s))
            ds = -r_in - kkt.g_dot(dx)
            dlam = (-r_comp - lam * ds) / s
            return dx, ds, dlam

        # predictor
        dx, ds, dlam = newton(s * lam)
        alpha_aff = _qp_step_length(s, ds, lam, dlam)
        mu_aff = ((s + alpha_aff * ds) @ (lam + alpha_aff * dlam)) / p
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

        # corrector
        dx, ds, dlam = newton(s * lam + ds * dlam - sigma * mu)
        alpha = 0.9995 * _qp_step_length(s, ds, lam, dlam)
        stalled = stalled + 1 if alpha < 1e-3 else 0
        x = x + alpha * dx
        s = s + alpha * ds
        lam = lam + alpha * dlam
        if not np.all(np.isfinite(x)):
            status = SolveStatus.NUMERICAL_FAILURE
            break

    return status, x, lam, iteration


# ---------------------------------------------------------------------------
# active-set polish and the public entry point
# ---------------------------------------------------------------------------


def _polish(program: ConvexProgram, sep, x, lam, skippable: bool):
    """Refine a near-optimal pair by solving the KKT system of the guessed
    active set; returns the refined pair or None when the guess fails.

    Columns leave the system in closed form before lstsq: a column j
    fixed at 0 by a tight row −s·x_j ≤ 0, s > 0, with that row,
    whose multiplier comes from j's stationarity row; and a separable
    column of ``sep`` (the QP step's mask), x_U = −(c_U + R_Uᵀλ)/q_U over
    the kept rows R.  The core over the other columns W is
    [[Q_WW, R_Wᵀ], [R_W, −R_U·diag(q_U)⁻¹·R_Uᵀ]], the whole system if
    nothing leaves.  Massively degenerate solutions (think the zero
    vertex with every zero-label row tight) would make this solve
    dominate, so a system of over 600 rows before elimination is
    skipped when the iterate already meets tol (``skippable``)."""
    m = program.n_vars
    slack = program.b_ineq - program.a_ineq @ x
    active = np.flatnonzero((slack < lam) | (slack <= 1e-7 * (1.0 + np.abs(program.b_ineq))))
    n_a = active.size
    if skippable and m + n_a > 600:
        return None
    # the active rows, all tight
    g_a, h_a = program.a_ineq[active], program.b_ineq[active]
    fixed, bound_rows, scales = _sign_bounds(g_a, h_a)
    kept = np.bincount(bound_rows, minlength=n_a) == 0
    rows = g_a[kept]
    is_fixed = np.bincount(fixed, minlength=m) > 0
    w, u = np.flatnonzero(~(sep | is_fixed)), np.flatnonzero(sep & ~is_fixed)
    n_w = w.size
    q_u, r_u = program.q.diagonal()[u], rows[:, u]
    x_u0 = -program.c[u] / q_u  # x_U at λ = 0
    # the KKT system in (x_W, the kept rows' multipliers)
    K = np.zeros((n_w + rows.shape[0],) * 2)
    K[:n_w, :n_w] = program.q[w][:, w]
    K[:n_w, n_w:] = rows[:, w].T
    K[n_w:, :n_w] = rows[:, w]
    K[n_w:, n_w:] -= (r_u / q_u) @ r_u.T
    rhs = np.concatenate([-program.c[w], h_a[kept] - r_u @ x_u0])
    try:
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(sol)):
        return None
    x_new = np.zeros(m)
    x_new[w] = sol[:n_w]
    x_new[u] = x_u0 - (r_u.T @ sol[n_w:]) / q_u
    mult = np.zeros(n_a)
    mult[kept] = sol[n_w:]
    # a dropped row's −s·λ balances the rest of its column's stationarity row
    mult[bound_rows] = (program.q[fixed] @ x_new + program.c[fixed] + g_a[:, fixed].T @ mult) / scales
    lam_new = np.zeros(program.n_ineq)
    lam_new[active] = mult
    return x_new, lam_new


def _refine(program: ConvexProgram, sep, status, x, lam, tol):
    """Apply the polish when optimal and keep whichever pair is cleaner."""
    if status != SolveStatus.OPTIMAL:
        return x, lam
    raw = _kkt_measures(program, x, lam)
    candidate = _polish(program, sep, x, lam, skippable=max(raw) <= tol)
    if candidate is None:
        return x, lam
    if max(_kkt_measures(program, *candidate)) < max(raw):
        return candidate
    return x, lam


def _finalize(program: ConvexProgram, status, x, lam, iterations, tol) -> SolveReport:
    stat, feas, comp = _kkt_measures(program, x, lam)
    if status == SolveStatus.OPTIMAL and max(stat, feas, comp) > tol:
        status = SolveStatus.MAX_ITERATIONS
    return SolveReport(
        status=status,
        x=np.asarray(x, dtype=float),
        lam=np.asarray(lam, dtype=float),
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

    Every constraint is an inequality row, for LPs and QPs alike.  Any
    LP is accepted.  A QP is accepted only if, after presolve drops its
    zero and duplicate rows, it has at least one inequality row; any
    other QP, like a malformed ``tol`` or ``max_iter``, raises
    ``SolverError``.
    """
    if not (_TOL_RANGE[0] <= tol <= _TOL_RANGE[1]):
        raise SolverError(f"tol must lie in [{_TOL_RANGE[0]}, {_TOL_RANGE[1]}]")
    if max_iter < 1:
        raise SolverError("max_iter must be positive")

    red, keep, infeasible = _presolve(program)
    is_lp = red.is_lp
    if not is_lp and not red.n_ineq:
        raise SolverError("a QP needs at least one nonzero inequality row")
    if infeasible:
        zeros = (np.zeros(program.n_vars), np.zeros(program.n_ineq))
        return _finalize(program, SolveStatus.PRIMAL_INFEASIBLE, *zeros, 0, tol)

    if is_lp:
        result = None
        if red.n_ineq > 2 * red.n_vars:
            result = _lp_solve_dual_route(red, tol, max_iter)
        if result is None:
            result = _lp_solve_primal_route(red, tol, max_iter)
        status, x, lam_red, iters = result
        sep = np.zeros(red.n_vars, dtype=bool)
    else:
        sep = _separable_columns(red)
        status, x, lam_red, iters = _qp_mehrotra(red, sep, tol, max_iter)

    x, lam_red = _refine(red, sep, status, x, lam_red, tol)
    lam = np.zeros(program.n_ineq)
    lam[keep] = lam_red
    return _finalize(program, status, x, lam, iters, tol)
