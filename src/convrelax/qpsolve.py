"""Dense convex solver for LPs and QPs over inequality rows.

This is the single numerical engine used by the rest of the package.
Every constraint is an inequality row, for LPs and QPs alike.  Presolve
drops zero rows only; duplicate rows are solved as given.  Linear
programs run through a homogeneous self-dual embedding with Mehrotra
predictor-corrector steps, which gives clean certificates of
infeasibility and unboundedness.  Every LP with a row is solved through
its dual, whose zero-cost twin tells unbounded from infeasible and
whose normal matrix is vars×vars.  An LP with fewer rows than variables
is first written over an orthonormal basis of its rows' span, so that
it has no more variables than rows; a cost with a part off that span
makes it unbounded iff feasible.  Quadratic programs (PSD
curvature, at least one inequality row left after presolve) run an
infeasible-start predictor-corrector on the slack KKT system with static
regularization, stepping on the Cholesky factor of the Schur complement
left by eliminating the separable columns (diagonal curvature, at most
one per row).  Candidate optima are refined by an active-set polish,
which eliminates the same columns and those fixed at 0 by active sign
bounds before its lstsq, and is skipped when an LP's polished
multipliers, found first on their own, are negative beyond the raw
pair's residual; an LP pair that still misses the tolerance has
its multipliers refitted by nonnegative least squares on the active
rows.  A report is declared Optimal only after the KKT residuals have
been recomputed from scratch and verified against the requested
tolerance.

Products made on every interior-point iteration use ``ndarray.dot``:
on presolve's row-major rows and their transposes it makes ``@``'s
BLAS call without the dispatch of the ``matmul`` gufunc, which costs
more than the arithmetic here (``scripts/bitwise_diff.py`` checks bits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
from scipy.linalg import qr
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
            # on finite entries, allclose(q, q.T, atol=1e-12, rtol=0) at less cost
            if np.abs(self.q - self.q.T).max() > 1e-12:
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
# presolve: drop zero rows, nothing else, so the multiplier indexing of
# callers stays aligned (dropped rows get zero duals).  Duplicate rows are
# solved as given; their multipliers may split between them.
# ---------------------------------------------------------------------------


def _presolve(program: ConvexProgram) -> tuple[ConvexProgram, np.ndarray, bool]:
    """(the reduced program, the mask of its rows in the original,
    whether a zero row is infeasible).  A row of ±0.0 entries is zero."""
    nonzero = program.a_ineq.any(axis=1)
    infeasible = bool(np.any(program.b_ineq[~nonzero] < 0.0))
    # a reduced program holds row-major copies, and BLAS may round a
    # product differently on another layout
    unchanged = nonzero.all() and program.a_ineq.flags.c_contiguous
    reduced = program if unchanged else replace(
        program, a_ineq=program.a_ineq[nonzero], b_ineq=program.b_ineq[nonzero])
    if not reduced.n_ineq and not reduced.is_lp:
        raise SolverError("a QP needs at least one nonzero inequality row")
    return reduced, nonzero, infeasible


# ---------------------------------------------------------------------------
# homogeneous self-dual interior point for standard-form LPs
#   min cᵀx  s.t.  Ax = b, x >= 0
# ---------------------------------------------------------------------------

def _max_step(v, dv):
    """Largest α with v + α·dv ≥ 0, from the entries where dv < 0 (∞ if none)."""
    i = (dv < 0).nonzero()[0]
    return (v[i] / -dv[i]).min(initial=np.inf)


def _hsd(A, b, c, tol, max_iter):
    """Mehrotra predictor-corrector on the homogeneous self-dual embedding.

    Returns (x, y, z, tau, kappa, status, iterations), the status being
    that of the standard-form program; on optimal termination x/tau is
    the primal solution and y/tau, z/tau the duals.  ``tol`` is the
    caller's KKT tolerance: the embedding's residual ratios are driven
    to a hundredth of it, but not below 1e-13.
    """
    tol = max(tol * 1e-2, 1e-13)
    m, n = A.shape
    # x and z are the halves of one buffer, and so are their directions:
    # one ratio test (the minimum over both halves is the smaller of
    # theirs) and one update cover both
    xz = np.ones(2 * n)
    x, z = xz[:n], xz[n:]
    d_xz = np.empty(2 * n)
    d_x, d_z = d_xz[:n], d_xz[n:]
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0
    neg_c = -c
    AT = A.T

    # ‖r‖₂ is taken as np.linalg.norm takes it for a 1-D float array
    r_p, r_d = b - A.dot(x), c - AT.dot(y) - z
    r_p0, r_d0 = max(1.0, math.sqrt(r_p.dot(r_p))), max(1.0, math.sqrt(r_d.dot(r_d)))
    r_g0 = max(1.0, abs(1.0 + c.dot(x) - b.dot(y)))
    mu_0 = (x.dot(z) + tau * kappa) / (n + 1)

    scaled_A = np.empty_like(A)  # A·diag(x/z), rewritten every iteration
    status = SolveStatus.MAX_ITERATIONS
    iteration = 0
    while True:
        cx, by = c.dot(x), b.dot(y)
        r_P = b * tau - A.dot(x)
        r_D = c * tau - AT.dot(y) - z
        r_G = kappa + cx - by
        mu = (x.dot(z) + tau * kappa) / (n + 1)

        rho_p = math.sqrt(r_P.dot(r_P)) / r_p0
        rho_d = math.sqrt(r_D.dot(r_D)) / r_d0
        rho_g = abs(r_G) / r_g0
        rho_A = abs(cx - by) / (tau + abs(by))
        rho_mu = mu / mu_0

        if rho_p <= tol and rho_d <= tol and rho_A <= tol:
            status = SolveStatus.OPTIMAL
            break
        inf1 = rho_p <= tol and rho_d <= tol and rho_g <= tol and tau <= tol * max(1.0, kappa)
        inf2 = rho_mu <= tol and tau <= tol * min(1.0, kappa)
        if inf1 or inf2:
            status = SolveStatus.PRIMAL_INFEASIBLE if by > tol else SolveStatus.DUAL_UNBOUNDED
            break
        if iteration >= max_iter:
            break
        iteration += 1

        d_inv = x / z
        M = np.multiply(A, d_inv, out=scaled_A).dot(AT)
        M.reshape(-1)[:: m + 1] += KKT_REGULARIZATION  # the diagonal, in place
        # the LAPACK calls behind scipy.linalg.cho_factor and cho_solve,
        # without their per-call argument checks
        if not np.isfinite(M).all():
            # an overflowed M can factor with info 0, and LAPACK's least
            # squares does not return on a non-finite matrix
            status = SolveStatus.NUMERICAL_FAILURE
            break
        factor, info = dpotrf(M, lower=False, clean=False)

        def sym_solve(r1, r2):
            # block elimination of the (x, y) system through the normal matrix
            rhs = r2 + A.dot(d_inv * r1)
            v = dpotrs(factor, rhs, lower=False)[0] if info == 0 else np.linalg.lstsq(M, rhs, rcond=None)[0]
            return d_inv * (AT.dot(v) - r1), v

        try:
            p, q = sym_solve(c, b)
            denom_base = kappa / tau + (neg_c.dot(p) + b.dot(q))

            # stage 0, the predictor, has γ = 0: η = 1 leaves the residuals as they are
            rhatp, rhatd, rhatg = r_P, r_D, r_G
            gamma = 0.0
            failed = False
            x_times_z = x * z
            for stage in range(2):
                rhatxs = gamma * mu - x_times_z
                rhattk = gamma * mu - tau * kappa
                if stage == 1:
                    eta = 1.0 - gamma
                    rhatp, rhatd, rhatg = eta * r_P, eta * r_D, eta * r_G
                    rhatxs -= d_x * d_z
                    rhattk = rhattk - d_tau * d_kappa
                u, v = sym_solve(rhatd - rhatxs / x, rhatp)
                if not (np.isfinite(u).all() and np.isfinite(v).all()):
                    failed = True
                    break
                d_tau = (rhatg + rhattk / tau - (neg_c.dot(u) + b.dot(v))) / denom_base
                np.add(u, np.multiply(p, d_tau, out=d_x), out=d_x)
                d_y = v + q * d_tau
                np.divide(np.subtract(rhatxs, np.multiply(z, d_x, out=d_z), out=d_z), x, out=d_z)
                d_kappa = (rhattk - kappa * d_tau) / tau
                alpha = min(1.0, _max_step(xz, d_xz))
                if d_tau < 0:
                    alpha = min(alpha, tau / -d_tau)
                if d_kappa < 0:
                    alpha = min(alpha, kappa / -d_kappa)
                gamma = (1.0 - alpha) ** 2 * min(0.1, 1.0 - alpha)
            if failed:
                status = SolveStatus.NUMERICAL_FAILURE
                break
        except (np.linalg.LinAlgError, FloatingPointError, ZeroDivisionError):
            status = SolveStatus.NUMERICAL_FAILURE
            break

        alpha = 0.99995 * alpha
        xz += alpha * d_xz
        y += alpha * d_y
        tau = tau + alpha * d_tau
        kappa = kappa + alpha * d_kappa
        if not np.isfinite(x).all() or tau <= 0 or kappa < 0:
            status = SolveStatus.NUMERICAL_FAILURE
            break

    return x, y, z, tau, kappa, status, iteration


# ---------------------------------------------------------------------------
# LP path: the dual route, and the column presolve that puts every LP
# with a row on it
# ---------------------------------------------------------------------------


def _lp_solve_dual_route(program: ConvexProgram, tol, max_iter):
    """Solve an LP with at least as many rows as variables through its
    dual, which has one constraint per variable, so its normal matrix is
    vars×vars whatever the row count.

    The dual's improving ray certifies that the original is infeasible.
    An infeasible dual leaves the original a descent ray, so it is
    unbounded iff feasible: the dual with zero cost, feasible at λ = 0,
    ends Optimal (DualUnbounded) or with an improving ray (PrimalInfeasible).
    """
    # min hᵀλ s.t. −Gᵀλ = c, λ ≥ 0; −Gᵀ stays column-major, since BLAS
    # may round a product differently on another layout
    A_std = -program.a_ineq.T
    x, y, z, tau, kappa, status, iters = _hsd(A_std, program.c, program.b_ineq, tol, max_iter)
    if status in (SolveStatus.OPTIMAL, SolveStatus.MAX_ITERATIONS):
        return status, -(y / tau), x / tau, iters
    if status == SolveStatus.PRIMAL_INFEASIBLE:
        # the dual is infeasible: is the original feasible?
        *_, status, more = _hsd(A_std, np.zeros(program.n_vars), program.b_ineq, tol, max_iter)
        iters += more
        if status == SolveStatus.OPTIMAL:
            return SolveStatus.DUAL_UNBOUNDED, np.zeros(program.n_vars), np.zeros(program.n_ineq), iters
    if status == SolveStatus.DUAL_UNBOUNDED:
        status = SolveStatus.PRIMAL_INFEASIBLE
    return status, np.zeros(program.n_vars), np.zeros(program.n_ineq), iters


def _lp_solve_wide(program: ConvexProgram, tol, max_iter):
    """Solve an LP with fewer rows than variables over x = V·u, V an
    orthonormal basis of its rows' span (pivoted QR of Gᵀ, rank by
    numpy's ``matrix_rank`` rule): rows G·V, cost Vᵀc, no more columns
    than rows, so the dual route takes it, and λ maps back unchanged.
    A cost off the span is a descent ray that leaves every row as it is,
    so the LP is unbounded iff the zero-cost LP over u is feasible."""
    G = program.a_ineq
    basis, r, _ = qr(G.T, mode="economic", pivoting=True)
    diag = np.abs(r.diagonal())
    V = basis[:, : np.count_nonzero(diag > max(G.shape) * np.finfo(float).eps * diag[0])]
    c_u = V.T @ program.c
    off_span = np.abs(program.c - V @ c_u).max() > tol
    reduced = ConvexProgram(c=np.zeros_like(c_u) if off_span else c_u, a_ineq=G @ V, b_ineq=program.b_ineq)
    status, u, lam, iters = _lp_solve_dual_route(reduced, tol, max_iter)
    if off_span:
        status = SolveStatus.DUAL_UNBOUNDED if status == SolveStatus.OPTIMAL else status
        return status, np.zeros(program.n_vars), np.zeros(program.n_ineq), iters
    return status, V @ u, lam, iters


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
        self.perm = np.argsort(np.concatenate([self.w, self.u]))  # (x_W, x_U) -> x
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
        return np.concatenate((x_w, x_u))[self.perm]

    def _on_u(self, weights):
        return np.bincount(self.col, weights=weights, minlength=self.n_u + 1)[: self.n_u]

    def g_dot(self, x):
        return self.g_w.dot(x[self.w]) + self.coef * x[self.x_col]

    def gt_dot(self, v):
        return self._join(self.g_w.T.dot(v), self._on_u(self.coef * v))

    def q_dot(self, x):
        return self._join(self.q_ww.dot(x[self.w]), self.q_u * x[self.u])

    def objective(self, x):
        x_w, x_u = x[self.w], x[self.u]
        return float(0.5 * (x_w.dot(self.q_ww).dot(x_w) + self.q_u.dot(x_u * x_u)) + self.c.dot(x))

    def factor(self, d, delta):
        """A solve rhs -> dx of the step system with D = diag(d), or None
        when no regularization makes S factorable."""
        dc = d * self.coef
        k_uu = self._on_u(dc * self.coef) + self.q_u + delta
        k_uw = np.zeros((self.n_u, self.n_w))
        k_uw[self.group_col] = np.add.reduceat(self.g_w_grouped * dc[self.order, None], self.starts, axis=0)
        k_ww = self.q_ww + (self.g_w.T * d).dot(self.g_w)
        k_ww.reshape(-1)[:: self.n_w + 1] += delta
        for attempt in range(3):
            scaled = k_uw / k_uu[:, None]
            S = k_ww - k_uw.T.dot(scaled)
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
            dx_w = dpotrs(chol, rhs_w - k_uw.T.dot(t), lower=False)[0] if self.n_w else rhs_w
            return self._join(dx_w, t - scaled.dot(dx_w))

        return solve


def _qp_mehrotra(program: ConvexProgram, sep, tol, max_iter):
    c, h = program.c, program.b_ineq
    m, p = program.n_vars, program.n_ineq
    kkt = _SchurKkt(program, sep)

    x = np.zeros(m)
    # s and λ are the halves of one buffer, and so are their directions,
    # as x and z are in _hsd
    s_lam, d_s_lam = np.empty(2 * p), np.empty(2 * p)
    s, lam = s_lam[:p], s_lam[p:]
    ds, dlam = d_s_lam[:p], d_s_lam[p:]
    s_hat = h - kkt.g_dot(x)
    s[:] = s_hat + max(-1.5 * float(np.min(s_hat)), 0.0) + 1.0
    lam[:] = 1.0
    shift = 0.5 * (s @ lam)
    s += shift / lam.sum()
    lam += shift / s.sum()

    status = SolveStatus.MAX_ITERATIONS
    iteration = 0
    delta = KKT_REGULARIZATION
    stalled = 0
    while iteration < max_iter:
        iteration += 1
        r_dual = kkt.q_dot(x) + c + kkt.gt_dot(lam)
        r_in = kkt.g_dot(x) + s - h
        s_times_lam = s * lam
        mu = s.dot(lam) / p

        prim = float(np.abs(r_in).max())
        dual = float(np.abs(r_dual).max())
        comp = float(s_times_lam.max())
        # multipliers scale with the objective's linear part, which can be
        # tiny; squeezing mu well below the multiplier scale keeps the
        # active set identifiable for the polish step
        mu_target = max(1e-13, 0.01 * tol * min(1.0, float(lam.max())))
        if max(prim, dual, comp) <= 0.5 * tol and (mu <= mu_target or stalled >= 3):
            status = SolveStatus.OPTIMAL
            break
        if not np.isfinite(mu) or np.abs(x).max() > 1e13:
            status = SolveStatus.DUAL_UNBOUNDED
            break
        if kkt.objective(x) < -1e16:
            status = SolveStatus.DUAL_UNBOUNDED
            break

        lin_solve = kkt.factor(lam / s, delta)
        if lin_solve is None:
            status = SolveStatus.NUMERICAL_FAILURE
            break
        neg_r_dual, neg_r_in, lam_r_in = -r_dual, -r_in, lam * r_in

        def newton(r_comp):
            """dx, with ds and dλ written into their halves of d_s_lam."""
            dx = lin_solve(neg_r_dual + kkt.gt_dot((r_comp - lam_r_in) / s))
            np.subtract(neg_r_in, kkt.g_dot(dx), out=ds)
            np.subtract(-r_comp, np.multiply(lam, ds, out=dlam), out=dlam)
            np.divide(dlam, s, out=dlam)
            return dx

        def step_length():
            # on an unbounded QP a ratio can pass the float range: ∞ is its bound
            with np.errstate(over="ignore"):
                return min(1.0, _max_step(s_lam, d_s_lam))

        # predictor
        newton(s_times_lam)
        alpha_aff = step_length()
        trial = s_lam + alpha_aff * d_s_lam
        mu_aff = trial[:p].dot(trial[p:]) / p
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

        # corrector
        dx = newton(s_times_lam + ds * dlam - sigma * mu)
        alpha = 0.9995 * step_length()
        stalled = stalled + 1 if alpha < 1e-3 else 0
        x += alpha * dx
        s_lam += alpha * d_s_lam
        if not np.isfinite(x).all():
            status = SolveStatus.NUMERICAL_FAILURE
            break

    return status, x, lam, iteration


# ---------------------------------------------------------------------------
# active-set polish and the public entry point
# ---------------------------------------------------------------------------


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


def _guess_active(program: ConvexProgram, x, lam) -> np.ndarray:
    """The rows taken as active at a near-optimal pair."""
    slack = program.b_ineq - program.a_ineq @ x
    return np.flatnonzero((slack < lam) | (slack <= 1e-7 * (1.0 + np.abs(program.b_ineq))))


def _polish(program: ConvexProgram, sep, x, lam, bar):
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
    skipped.  With Q_WW = 0 and U empty (an LP) the core decouples, and
    its λ is the min-norm solution of R_Wᵀλ = −c_W, an n_kept×n_w lstsq;
    when n_w < n_kept, R_W is well conditioned and that λ dips below
    −``bar`` (the raw pair's worst KKT measure) by more than rounding
    could explain, the polished pair would lose, and None is returned."""
    m = program.n_vars
    active = _guess_active(program, x, lam)
    n_a = active.size
    if m + n_a > 600:
        return None
    # the active rows, all tight
    g_a, h_a = program.a_ineq[active], program.b_ineq[active]
    fixed, bound_rows, scales = _sign_bounds(g_a, h_a)
    kept = np.bincount(bound_rows, minlength=n_a) == 0
    rows = g_a[kept]
    is_fixed = np.bincount(fixed, minlength=m) > 0
    w, u = np.flatnonzero(~(sep | is_fixed)), np.flatnonzero(sep & ~is_fixed)
    n_w, n_kept = w.size, rows.shape[0]
    q_ww, r_w = program.q[w][:, w], rows[:, w]
    if 0 < n_w < n_kept and not (u.size or q_ww.any()):
        left, sigma, right = np.linalg.svd(r_w, full_matrices=False)
        if sigma[-1] > 1e-6 * sigma[0]:
            est = -left @ ((right @ program.c[w]) / sigma)
            if est.min() < -(bar + 1e-6 * max(1.0, np.abs(est).max())):
                return None
    q_u, r_u = program.q.diagonal()[u], rows[:, u]
    x_u0 = -program.c[u] / q_u  # x_U at λ = 0
    # the KKT system in (x_W, the kept rows' multipliers)
    K = np.zeros((n_w + n_kept,) * 2)
    K[:n_w, :n_w] = q_ww
    K[:n_w, n_w:] = r_w.T
    K[n_w:, :n_w] = r_w
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


def _nnls_multipliers(program: ConvexProgram, x, lam):
    """Multipliers of an LP's x refitted on the guessed active rows R:
    λ_R ≥ 0 minimizing ‖Rᵀλ_R + c‖₂, zero elsewhere; None when no row
    is active or the fit hits its iteration cap."""
    # scipy.optimize takes longer to import than most solves take: only
    # the rare pair that misses tol pays for it
    from scipy.optimize import nnls

    active = _guess_active(program, x, lam)
    if not active.size:
        return None
    try:
        fitted = nnls(program.a_ineq[active].T, -program.c)[0]
    except RuntimeError:
        return None
    refit = np.zeros(program.n_ineq)
    refit[active] = fitted
    return refit


def _refine(program: ConvexProgram, sep, status, x, lam, tol):
    """Apply the polish when optimal and keep whichever pair is cleaner;
    returns the pair and its KKT measures (None when not optimal).

    When the kept pair of an LP misses tol, the multipliers are refitted
    by nonnegative least squares on its active rows, and that pair is
    taken if it meets tol: an x at the optimum can carry multipliers
    whose stationarity residual the polish's lstsq does not mend, since
    its λ may have negative entries."""
    if status != SolveStatus.OPTIMAL:
        return x, lam, None
    measures = _kkt_measures(program, x, lam)
    candidate = _polish(program, sep, x, lam, max(measures))
    if candidate is not None:
        polished = _kkt_measures(program, *candidate)
        if max(polished) < max(measures):
            (x, lam), measures = candidate, polished
    if max(measures) > tol and program.is_lp:
        refit = _nnls_multipliers(program, x, lam)
        if refit is not None:
            refitted = _kkt_measures(program, x, refit)
            if max(refitted) <= tol:
                return x, refit, refitted
    return x, lam, measures


def _finalize(program: ConvexProgram, status, x, lam, iterations, tol, measures=None) -> SolveReport:
    """The report of a pair; ``measures`` are its KKT measures on ``program``, if taken."""
    stat, feas, comp = measures or _kkt_measures(program, x, lam)
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
    zero rows, it has at least one inequality row; any other QP, like a
    malformed ``tol`` or ``max_iter``, raises ``SolverError``.  Presolve
    drops nothing else: duplicate rows are solved as given, and their
    multipliers may split between them.
    """
    if not (_TOL_RANGE[0] <= tol <= _TOL_RANGE[1]):
        raise SolverError(f"tol must lie in [{_TOL_RANGE[0]}, {_TOL_RANGE[1]}]")
    if max_iter < 1:
        raise SolverError("max_iter must be positive")

    red, keep, infeasible = _presolve(program)
    if infeasible:
        zeros = (np.zeros(program.n_vars), np.zeros(program.n_ineq))
        return _finalize(program, SolveStatus.PRIMAL_INFEASIBLE, *zeros, 0, tol)

    if red.is_lp and not red.n_ineq:
        # with no row every x is feasible: the optimum is 0 iff c is zero
        status = SolveStatus.OPTIMAL if not red.c.any() else SolveStatus.DUAL_UNBOUNDED
        return _finalize(program, status, np.zeros(program.n_vars), np.zeros(program.n_ineq), 0, tol)
    if red.is_lp:
        route = _lp_solve_wide if red.n_ineq < red.n_vars else _lp_solve_dual_route
        status, x, lam_red, iters = route(red, tol, max_iter)
        sep = np.zeros(red.n_vars, dtype=bool)
    else:
        sep = _separable_columns(red)
        status, x, lam_red, iters = _qp_mehrotra(red, sep, tol, max_iter)

    x, lam_red, measures = _refine(red, sep, status, x, lam_red, tol)
    lam = np.zeros(program.n_ineq)
    lam[keep] = lam_red
    # with every row kept, the measures on red are those on program
    return _finalize(program, status, x, lam, iters, tol, measures if red is program else None)
