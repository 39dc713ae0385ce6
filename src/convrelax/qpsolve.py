"""Dense convex solver for LPs and QPs over inequality rows.

This is the single numerical engine used by the rest of the package.
Every constraint is an inequality row, for LPs and QPs alike.  Presolve
drops zero rows only; duplicate rows are solved as given.  Every program
with a row is solved through its dual by one interior point: Mehrotra
predictor-corrector steps on the homogeneous self-dual embedding, which
carries a QP's curvature (PSD Q) into its gap and its normal matrix
Q + GᵀDG, factored with the separable columns (diagonal curvature, at
most one per row) eliminated.  Every program is held in one form: its
dense part and those columns (`Separable`), which come last.  The
relaxation QP is built so, and no dense Q or full row matrix is formed
for it; an LP or a QP given densely has no separable column, and a
dense Q is factored whole.  The embedding's τ → 0 exits give the
program's own statuses, an LP's and a QP's alike, each on a certificate
checked against the norms of the rows, so that scaling a row leaves the
verdict as it is: a Farkas vector λ makes it PrimalInfeasible, and a
descent ray x leaves it unbounded iff its rows are feasible, which a
zero-cost LP over its dense twin's rows decides; that LP must also find
a QP's rows infeasible before its Farkas exit is a verdict.  A program
with fewer rows than variables has its dense columns written over an
orthonormal basis of the span of their part of its rows and of Q's, its
separable columns left as they are; a cost with a part off that span
makes it unbounded iff feasible.
Presolve's decisions and every route end in one outcome record, and one
exit turns it into the report: it refines candidate optima by an
active-set polish, which eliminates the same separable columns before
its lstsq, skipped when an LP's polished multipliers, found first on
their own, are negative beyond the raw pair's residual; it refits by
nonnegative least squares on the active rows the multipliers of an LP
pair that still misses the tolerance; and it declares a report Optimal
only after its KKT residuals are recomputed from scratch and verified
against the requested tolerance.

One operator, `_Rows`, makes every product of a program's rows and
curvature, G·x, Gᵀv and Q·x, and its row norms, for the interior point,
its certificates, the polish's active rows and the KKT measures.  Its
dense part's products are ``ndarray.dot``, which makes ``@``'s BLAS call
without the dispatch of the ``matmul`` gufunc, costlier here than the
arithmetic, and ``@`` itself on a strided array, which ``dot`` would
copy; with no separable column (an LP, or a QP given densely) each
product is the dense part's own, with no separable work.  A QP's
operator, `_SchurKkt`, builds on it over a column-major copy of G
(``scripts/bitwise_diff.py`` checks bits).  Each program's Newton step
is its operator's ``factor``: an LP's normal matrix (GᵀD)·G + δI, a
QP's Schur complement with its separable columns eliminated.

The Cholesky solves call dpotrf and dpotrs from scipy's own LAPACK
extension, ``scipy.linalg._flapack``, as ``scipy.linalg`` calls them; the
other factorizations are numpy's.  The extension is loaded without the
``scipy.linalg`` package, whose import would take over half the time of
``import convrelax`` and a third of its memory.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np


def _load_flapack():
    """scipy's LAPACK extension, loaded from its file without running
    ``scipy/linalg/__init__.py``, which pulls in ``numpy.f2py`` and
    ``numpy.testing`` too.  It is registered under its own name, so that
    ``scipy.linalg``, imported before or after, shares the module; where
    the file is not found, the package import loads it."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.machinery.PathFinder.find_spec(
        name, importlib.util.find_spec("scipy.linalg").submodule_search_locations)
    if spec is None:
        from scipy.linalg import _flapack
        return _flapack
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs

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
    if a.size == 0 and a.shape[1:] != (cols,):
        a = a.reshape(0, cols)
    if not np.isfinite(a).all():
        raise SolverError(f"{name} contains non-finite entries")
    return a


def _as_vector(v, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.ndim != 1:
        raise SolverError(f"{name} must be one-dimensional")
    if not np.isfinite(v).all():
        raise SolverError(f"{name} contains non-finite entries")
    return v


@dataclass
class Separable:
    """The separable part of a program: its columns U, the last |U| =
    ``q.size`` of the variables, have diagonal curvature ``q`` > 0 and no
    other entry of Q, and every inequality row has at most one entry on
    U, ``coef`` at column ``col`` of U; a row without one has coef 0 and
    col |U|.  An LP's or a dense QP's U is empty."""

    q: np.ndarray
    col: np.ndarray
    coef: np.ndarray


def _check_separable(sep: Separable, m: int, rows: int) -> Separable:
    q = _as_vector(sep.q, "the separable curvature")
    n_u = q.size
    if n_u > m or not (q > 0.0).all():
        raise SolverError(f"the separable curvature must be positive with at most {m} entries, "
                          "one per separable column")
    col, coef = np.asarray(sep.col), _as_vector(sep.coef, "the separable coefficients")
    if col.size == 0:
        col = col.astype(int)  # JSON reads an empty list back as float
    if col.shape != (rows,) or coef.shape != (rows,) or col.dtype.kind not in "iu":
        raise SolverError("the separable part needs one column index and coefficient per row")
    if ((col < 0) | (col > n_u)).any() or ((col == n_u) & (coef != 0.0)).any():
        raise SolverError("a separable column index is out of range")
    return Separable(q, col, coef)


def _parts(program: ConvexProgram) -> tuple[slice, slice]:
    """The slices (W, U) of a program's variables."""
    n_w = program.a_ineq.shape[1]
    return slice(0, n_w), slice(n_w, None)


@dataclass
class ConvexProgram:
    """min ½ xᵀQx + cᵀx  s.t.  A_ineq·x ≤ b_ineq.

    ``q`` and ``a_ineq`` hold only Q_WW and the rows' part on the
    columns W before the separable ones, the last ``sep.q.size`` (see
    `Separable`), so that a split QP forms no dense (vars × vars) Q or
    (rows × vars) matrix; ``dense()`` builds its dense twin, and
    ``with_rows`` appends rows.  Given without ``sep``, a program has no
    separable column, and ``sep`` is set so."""

    c: np.ndarray
    q: np.ndarray | None = None
    a_ineq: np.ndarray | None = None
    b_ineq: np.ndarray | None = None
    sep: Separable | None = None

    def __post_init__(self):
        self.c = _as_vector(self.c, "c")
        m = self.c.shape[0]
        if m == 0:
            raise SolverError("program needs at least one variable")
        if isinstance(self.sep, dict):  # as a program's JSON gives it
            self.sep = Separable(**self.sep)
        self.b_ineq = _as_vector(self.b_ineq if self.b_ineq is not None else [], "b_ineq")
        rows = self.b_ineq.shape[0]
        self.sep = (Separable(np.zeros(0), np.zeros(rows, int), np.zeros(rows))
                    if self.sep is None else _check_separable(self.sep, m, rows))
        n_w = m - self.sep.q.size
        if self.q is None:
            self.q = np.zeros((n_w, n_w))
        else:
            self.q = _as_matrix(self.q, n_w, "q")
            if self.q.shape != (n_w, n_w):
                raise SolverError(f"q must be {n_w}x{n_w}, got {self.q.shape}")
            # on finite entries, allclose(q, q.T, atol=1e-12, rtol=0) at less cost
            if self.q.size and np.abs(self.q - self.q.T).max() > 1e-12:
                raise SolverError("q must be symmetric within 1e-12")
        self.a_ineq = _as_matrix(self.a_ineq, n_w, "a_ineq")
        if self.a_ineq.shape[1] != n_w:
            raise SolverError("the constraint matrix must have one column per variable")
        if rows != self.n_ineq:
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
        return not self.sep.q.size and not self.q.any()

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        w, u = _parts(self)
        return float(0.5 * (x[w] @ self.q @ x[w] + self.sep.q @ (x[u] * x[u])) + self.c @ x)

    def dense(self) -> ConvexProgram:
        """The program with Q and A_ineq over all its variables: itself
        when it has no separable column."""
        sep, m = self.sep, self.n_vars
        if not sep.q.size:
            return self
        n_w = m - sep.q.size
        q = np.zeros((m, m))
        q[:n_w, :n_w] = self.q
        diagonal = np.arange(n_w, m)
        q[diagonal, diagonal] = sep.q
        a = np.zeros((self.n_ineq, m))
        a[:, :n_w] = self.a_ineq
        on_u = np.flatnonzero(sep.col < sep.q.size)
        a[on_u, n_w + sep.col[on_u]] = sep.coef[on_u]
        return ConvexProgram(c=self.c, q=q, a_ineq=a, b_ineq=self.b_ineq)

    def with_rows(self, a, b, col=None, coef=0.0) -> ConvexProgram:
        """The program with the rows a·x_W + coef·x_U[col] ≤ b appended:
        each has the entry ``coef`` at column ``col`` of U, or none when
        ``col`` is None.  It is validated as the constructor validates."""
        col = np.full(len(b), self.sep.q.size) if col is None else col
        return replace(self, a_ineq=np.vstack([self.a_ineq, a]), b_ineq=np.concatenate([self.b_ineq, b]),
                       sep=replace(self.sep, col=np.concatenate([self.sep.col, col]),
                                   coef=np.concatenate([self.sep.coef, np.full(len(b), coef)])))


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
class _Outcome:
    """How a route or presolve ends: status, iterations, and x and λ where it has a pair (Optimal or cut off)."""

    status: SolveStatus
    x: np.ndarray | None = None
    lam: np.ndarray | None = None
    iterations: int = 0


@dataclass
class KktSummary:
    stationarity: float
    feasibility: float
    complementarity: float
    passed: bool


# ---------------------------------------------------------------------------
# the products of a program's rows G and curvature Q, in its split form
# ---------------------------------------------------------------------------


def _product(a):
    """v -> a·v: ``ndarray.dot`` on a contiguous array, where it makes
    ``@``'s BLAS call without the dispatch of the ``matmul`` gufunc, which
    costs more than the arithmetic here; ``@`` on a strided one, which
    ``dot`` would copy, rounding otherwise."""
    return a.dot if a.flags.c_contiguous or a.flags.f_contiguous else a.__matmul__


class _Rows:
    """The products of a program in its split form: G·x, Gᵀv, Q·x, and the
    largest |entry| of each row of G.  Its dense part is ``g`` and ``q``,
    the program's own unless given in another layout; its separable
    columns U enter through one (column, coefficient) entry per row (see
    `Separable`), scattered with ``np.bincount``, a row without one in
    the spare column n_u, a bin that is dropped.  With U empty (an LP or
    a QP given densely) each product is the dense part's own, and none
    does separable work."""

    def __init__(self, program: ConvexProgram, g=None, q=None):
        sep = self.sep = program.sep
        self.program = program
        self.g = program.a_ineq if g is None else g
        self.q_ww = program.q if q is None else q
        self.w, self.u = _parts(program)
        self.n_w, self.n_u = self.g.shape[1], sep.q.size
        self._g, self._gt, self._q = _product(self.g), _product(self.g.T), _product(self.q_ww)
        if not self.n_u:
            self.g_dot, self.gt_dot, self.q_dot = self._g, self._gt, self._q
        else:
            # the entry's column of x (0 if none)
            self.x_col = np.append(np.arange(self.n_w, program.n_vars), 0)[sep.col]

    def _on_u(self, weights):
        return np.bincount(self.sep.col, weights=weights, minlength=self.n_u + 1)[: self.n_u]

    def g_dot(self, x):
        return self._g(x[self.w]) + self.sep.coef * x[self.x_col]

    def gt_dot(self, v):
        return np.concatenate((self._gt(v), self._on_u(self.sep.coef * v)))

    def q_dot(self, x):
        return np.concatenate((self._q(x[self.w]), self.sep.q * x[self.u]))

    def row_norms(self):
        norms = np.abs(self.g).max(axis=1, initial=0.0)
        return np.maximum(norms, np.abs(self.sep.coef)) if self.n_u else norms

    def factor(self, d, delta):
        """An LP's Newton step: a solve rhs -> M⁻¹·rhs of the normal matrix
        M = (Gᵀ·diag(d))·G + δI (see `_normal_solver`); `_SchurKkt` makes a QP's."""
        M = (self.g.T * d).dot(self.g)
        M.reshape(-1)[:: self.n_w + 1] += delta  # the diagonal, in place
        return _normal_solver(M)


def _kkt_measures(program: ConvexProgram, x, lam) -> tuple[float, float, float]:
    """(stationarity, feasibility incl. λ sign, complementarity), ∞-norms,
    stationarity on Q·x + c + Gᵀ·λ, the gradient of the Lagrangian."""
    rows = _Rows(program)
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    stationarity = float(np.max(np.abs(rows.q_dot(x) + program.c + rows.gt_dot(lam))))
    feas = 0.0
    comp = 0.0
    if program.n_ineq:
        slack_violation = rows.g_dot(x) - program.b_ineq
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


def _presolve(program: ConvexProgram) -> tuple[ConvexProgram, np.ndarray, _Outcome | None]:
    """(the reduced program, the mask of its rows in the original, the
    outcome where it decides: an infeasible zero row, or an LP with no row
    left).  A row is zero when its part on W is all ±0.0 and none on U."""
    sep = program.sep
    nonzero = program.a_ineq.any(axis=1) | (sep.coef != 0.0)
    # a reduced program holds row-major copies, and BLAS may round a
    # product differently on another layout
    unchanged = nonzero.all() and program.a_ineq.flags.c_contiguous
    reduced = program if unchanged else replace(
        program, a_ineq=program.a_ineq[nonzero], b_ineq=program.b_ineq[nonzero],
        sep=replace(sep, col=sep.col[nonzero], coef=sep.coef[nonzero]))
    if not reduced.n_ineq and not reduced.is_lp:
        raise SolverError("a QP needs at least one nonzero inequality row")
    if np.any(program.b_ineq[~nonzero] < 0.0):
        return reduced, nonzero, _Outcome(SolveStatus.PRIMAL_INFEASIBLE)
    if not reduced.n_ineq:
        # with no row every x is feasible: the optimum is 0 iff c is zero
        return reduced, nonzero, _Outcome(SolveStatus.DUAL_UNBOUNDED if reduced.c.any() else SolveStatus.OPTIMAL)
    return reduced, nonzero, None


# ---------------------------------------------------------------------------
# homogeneous self-dual interior point on a program's dual, in the
# standard form  min cᵀx + ½yᵀQy  s.t.  Ax + Qy = b, x >= 0
# ---------------------------------------------------------------------------

def _max_step(v, dv):
    """Largest α with v + α·dv ≥ 0, from the entries where dv < 0 (∞ if none)."""
    i = (dv < 0).nonzero()[0]
    return (v[i] / -dv[i]).min(initial=np.inf)


def _normal_solver(M):
    """rhs -> M⁻¹·rhs by Cholesky, or by least squares where that fails;
    None when M is not finite, since an overflowed M can factor with
    info 0, and LAPACK's least squares does not return on it."""
    if not np.isfinite(M).all():
        return None
    # dpotrf and dpotrs as scipy.linalg.cho_factor and cho_solve call
    # them, without their checks: M is finite, and dpotrs fails only on
    # an illegal argument
    factor, info = dpotrf(M, lower=False, clean=False)
    if info == 0:
        return lambda rhs: dpotrs(factor, rhs, lower=False)[0]
    return lambda rhs: np.linalg.lstsq(M, rhs, rcond=None)[0]


def _hsd(program: ConvexProgram, tol, max_iter) -> _Outcome:
    """Mehrotra predictor-corrector on the homogeneous self-dual embedding
    of a program's dual, min hᵀλ + ½xᵀQx s.t. Gᵀλ + Qx = −c, λ ≥ 0, posed
    as min cᵀx + ½yᵀQy s.t. Ax + Qy = b, x ≥ 0 with its dual
    max bᵀy − ½yᵀQy s.t. Aᵀy + z = c, z ≥ 0, for A = Gᵀ, b = −c and c = h:
    the embedding's x is the program's λ and its y the program's x.

    Returns the program's outcome: on optimal termination x = y/τ and
    λ = x/τ, and so at the iteration cap; a numerical failure; or τ → 0
    on a certificate that `_certificate` checks, for LPs and QPs alike,
    a Farkas vector (PrimalInfeasible) or a descent ray (DualUnbounded,
    which the caller must still find feasible).  ``tol`` is the caller's
    KKT tolerance: the embedding's residual ratios are driven to a
    hundredth of it, but not below 1e-13.

    Every product and the Newton step are the program's operator's: an
    LP's `_Rows`, on its row-major G and the view Gᵀ, column-major (BLAS
    may round a product differently on another layout), which factors
    A·diag(x/z)·Aᵀ.  A QP's is its `_SchurKkt` (Goulart and Chen,
    arXiv:2405.12762): r_P gains −Q·y, the gap yᵀQy/τ, the τ row
    b − 2Q·y/τ and yᵀQy/τ², and the normal matrix Q + A·diag(x/z)·Aᵀ is
    factored with its separable columns eliminated.  A QP starts at
    y = Q⁺b, z = max(c − Aᵀy, 1); its corrector gets one refinement step
    on the r_P row, which the normal-matrix solve loses as x/z spreads;
    its Optimal exit also needs μ/τ² ≤ max(1e-13, tol·min(1, max x/τ))
    for the caller's tol, so that the polish can tell the active rows
    when multipliers are small.
    """
    tol = max(tol * 1e-2, 1e-13)
    lp = program.is_lp
    rows = _Rows(program) if lp else _SchurKkt(program)
    a_dot, at_dot, b, c = rows.gt_dot, rows.g_dot, -program.c, program.b_ineq
    m, n = b.shape[0], c.shape[0]
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
    # an LP's Optimal exit needs no squeeze on μ
    squeeze = math.inf if lp else 100.0 * tol
    if not lp:
        try:
            y = rows.q_pinv_dot(b)
        except np.linalg.LinAlgError:  # Q_ww's SVD did not converge
            return _Outcome(SolveStatus.NUMERICAL_FAILURE)
        np.maximum(c - at_dot(y), 1.0, out=z)

    # ‖r‖₂ is taken as np.linalg.norm takes it for a 1-D float array
    qy = np.zeros(m) if lp else rows.q_dot(y)
    r_p, r_d = b - a_dot(x) - qy, c - at_dot(y) - z
    r_p0, r_d0 = max(1.0, math.sqrt(r_p.dot(r_p))), max(1.0, math.sqrt(r_d.dot(r_d)))

    iteration = 0
    while True:
        cx, by = c.dot(x), b.dot(y)
        r_P = b * tau - a_dot(x)
        r_D = c * tau - at_dot(y) - z
        yqy, b_tau = 0.0, b
        if not lp:
            qy = rows.q_dot(y)
            r_P -= qy
            yqy = y.dot(qy) / tau
            b_tau = b - (2.0 / tau) * qy
        r_G = kappa + cx - by + yqy
        mu = (x.dot(z) + tau * kappa) / (n + 1)

        rho_p = math.sqrt(r_P.dot(r_P)) / r_p0
        rho_d = math.sqrt(r_D.dot(r_D)) / r_d0
        rho_A = abs(cx - by + yqy) / (tau + abs(by))

        if rho_p <= tol and rho_d <= tol and rho_A <= tol and (
                mu <= tau * max(1e-13 * tau, squeeze * min(tau, x.max()))):
            return _Outcome(SolveStatus.OPTIMAL, y / tau, x / tau, iteration)
        status = _certificate(rows, y, x, tau, 100.0 * tol)
        if status is not None:
            return _Outcome(status, iterations=iteration)
        if iteration >= max_iter:
            return _Outcome(SolveStatus.MAX_ITERATIONS, y / tau, x / tau, iteration)
        iteration += 1

        d_inv = x / z
        normal_solve = rows.factor(d_inv, KKT_REGULARIZATION)
        if normal_solve is None:
            return _Outcome(SolveStatus.NUMERICAL_FAILURE, iterations=iteration)

        def sym_solve(r1, r2):
            # block elimination of the (x, y) system through the normal matrix
            v = normal_solve(r2 + a_dot(d_inv * r1))
            return d_inv * (at_dot(v) - r1), v

        try:
            p, q = sym_solve(c, b)
            if lp:
                denom_base = kappa / tau + (neg_c.dot(p) + b_tau.dot(q))
            else:
                # −cᵀp + b_τᵀq + yᵀQy/τ² without its cancellation, as
                # pᵀ·diag(z/x)·p + (q − y/τ)ᵀQ(q − y/τ)
                off = q - y / tau
                denom_base = kappa / tau + p.dot(p / d_inv) + off.dot(rows.q_dot(off))

            # stage 0, the predictor, has γ = 0: η = 1 leaves the residuals as they are
            rhatp, rhatd, rhatg = r_P, r_D, r_G
            gamma = 0.0
            x_times_z = x * z
            for stage in range(2):
                rhatxs = gamma * mu - x_times_z
                rhattk = gamma * mu - tau * kappa
                if stage == 1:
                    eta = 1.0 - gamma
                    rhatp, rhatd, rhatg = eta * r_P, eta * r_D, eta * r_G
                    rhatxs -= d_x * d_z
                    rhattk = rhattk - d_tau * d_kappa
                # a non-finite u or v makes d_τ, then x, non-finite: the
                # test on x that ends the iteration ends the solve
                u, v = sym_solve(rhatd - rhatxs / x, rhatp)
                d_tau = (rhatg + rhattk / tau - (neg_c.dot(u) + b_tau.dot(v))) / denom_base
                np.add(u, np.multiply(p, d_tau, out=d_x), out=d_x)
                d_y = v + q * d_tau
                if not lp and stage == 1:
                    correction = normal_solve(rhatp + b * d_tau - a_dot(d_x) - rows.q_dot(d_y))
                    d_y += correction
                    d_x += d_inv * at_dot(correction)
                np.divide(np.subtract(rhatxs, np.multiply(z, d_x, out=d_z), out=d_z), x, out=d_z)
                d_kappa = (rhattk - kappa * d_tau) / tau
                alpha = min(1.0, _max_step(xz, d_xz))
                if d_tau < 0:
                    alpha = min(alpha, tau / -d_tau)
                if d_kappa < 0:
                    alpha = min(alpha, kappa / -d_kappa)
                gamma = (1.0 - alpha) ** 2 * min(0.1, 1.0 - alpha)
        except np.linalg.LinAlgError:
            return _Outcome(SolveStatus.NUMERICAL_FAILURE, iterations=iteration)

        alpha = 0.99995 * alpha
        xz += alpha * d_xz
        y += alpha * d_y
        tau = tau + alpha * d_tau
        kappa = kappa + alpha * d_kappa
        if not np.isfinite(x).all() or tau <= 0 or kappa < 0:
            return _Outcome(SolveStatus.NUMERICAL_FAILURE, iterations=iteration)


def _certificate(rows: _Rows, x, lam, tau, tol):
    """The status of ``rows``' program that `_hsd`'s iterate certifies, or
    None.  τ must be at most tol/100 times ‖x‖ or ‖λ‖ (the iterate's scale
    may grow), and that direction a certificate within tol, measured
    against ‖g_i‖, the largest |entry| of row i of G, so that scaling a
    row leaves the verdict as it is: d = x/‖x‖ with g_iᵀd ≤ tol·‖g_i‖,
    ‖Q·d‖∞ ≤ tol and cᵀd < −tol, a descent ray (DualUnbounded, if the
    rows are feasible), or λ with ‖Gᵀλ‖∞ ≤ tol·Σ λ_i‖g_i‖ and
    hᵀλ < −tol·|h|ᵀλ, a Farkas vector (PrimalInfeasible)."""
    c, h = rows.program.c, rows.program.b_ineq
    norm_x, norm_lam = math.sqrt(x.dot(x)), math.sqrt(lam.dot(lam))
    if tau > 1e-2 * tol * max(norm_x, norm_lam):
        return None  # an Optimal solve never pays for the norms below
    norms = rows.row_norms()
    if tau <= 1e-2 * tol * norm_x:
        ray = x / norm_x
        if (c.dot(ray) < -tol and (rows.g_dot(ray) <= tol * norms).all()
                and np.abs(rows.q_dot(ray)).max() <= tol):
            return SolveStatus.DUAL_UNBOUNDED
    if (tau <= 1e-2 * tol * norm_lam and h.dot(lam) < -tol * np.abs(h).dot(lam)
            and np.abs(rows.gt_dot(lam)).max() <= tol * norms.dot(lam)):
        return SolveStatus.PRIMAL_INFEASIBLE
    return None


# ---------------------------------------------------------------------------
# the dual route, and the column presolve that puts a wide program on it
# ---------------------------------------------------------------------------


def _route(program: ConvexProgram, tol, max_iter) -> _Outcome:
    """The outcome of a program with a row: through its dual, first over
    its rows' span (`_solve_wide`) if it has fewer rows than variables."""
    return (_solve_wide if program.n_ineq < program.n_vars else _dual_route)(program, tol, max_iter)


def _dual_route(program: ConvexProgram, tol, max_iter) -> _Outcome:
    """Solve a program through its dual (`_hsd`), one constraint per
    variable, so that its normal matrix is vars×vars whatever the row
    count: a QP, or an LP with no fewer rows than variables.  A descent
    ray leaves the program unbounded iff its rows are feasible
    (`_unbounded_iff_feasible`); a QP's Farkas vector stands only if the
    zero-cost LP over its rows agrees, else the solve ends
    NumericalFailure."""
    out = _hsd(program, tol, max_iter)
    if out.status == SolveStatus.DUAL_UNBOUNDED:
        checked = _unbounded_iff_feasible(program, tol, max_iter)
    elif out.status == SolveStatus.PRIMAL_INFEASIBLE and not program.is_lp:
        # a QP's Farkas vector can pass its check on opposite rows that pin
        # an equality, their residuals cancelling: its rows must be infeasible
        checked = _unbounded_iff_feasible(program, tol, max_iter)
        if checked.status != SolveStatus.PRIMAL_INFEASIBLE:
            checked.status = SolveStatus.NUMERICAL_FAILURE
    else:
        return out
    return replace(checked, iterations=out.iterations + checked.iterations)


def _unbounded_iff_feasible(program, tol, max_iter) -> _Outcome:
    """The outcome of a program with a descent ray: DualUnbounded iff the
    zero-cost LP over its rows, written densely, ends Optimal, else the LP's status."""
    out = _route(replace(program.dense(), c=np.zeros(program.n_vars), q=None), tol, max_iter)
    return _Outcome(SolveStatus.DUAL_UNBOUNDED if out.status == SolveStatus.OPTIMAL else out.status,
                    iterations=out.iterations)


def _solve_wide(program: ConvexProgram, tol, max_iter) -> _Outcome:
    """Solve a program with fewer rows than variables over x_W = V·u, V an
    orthonormal basis of the span of [G_Wᵀ Q_WW] (of G_Wᵀ where Q_WW = 0),
    its rows' and Q's parts on the dense columns W: their left singular
    vectors whose σ exceeds max(shape)·eps·σ₀, numpy's ``matrix_rank``
    rule.  The separable columns U, in the span by their curvature, stay
    as they are.  Rows G_W·V, curvature VᵀQ_WWV and cost (Vᵀc_W, c_U) give
    a nonsingular normal matrix on the dual route; λ maps back unchanged.
    A cost with a part off the span is a descent ray that no row or
    curvature sees: unbounded iff feasible.  An SVD that does not
    converge ends the solve NumericalFailure."""
    G, (w, u), curved = program.a_ineq, _parts(program), program.q.any()
    spanning = np.hstack([G.T, program.q]) if curved else G.T
    try:
        basis, sigma, _ = np.linalg.svd(spanning, full_matrices=False)
    except np.linalg.LinAlgError:
        return _Outcome(SolveStatus.NUMERICAL_FAILURE)
    V = basis[:, : np.count_nonzero(sigma > max(spanning.shape) * np.finfo(float).eps * sigma.max(initial=0.0))]
    c_v = V.T @ program.c[w]
    q_v = V.T @ program.q @ V if curved else np.zeros((V.shape[1], V.shape[1]))
    reduced = replace(program, c=np.concatenate((c_v, program.c[u])), q=0.5 * (q_v + q_v.T), a_ineq=G @ V)
    if np.abs(program.c[w] - V @ c_v).max(initial=0.0) > tol:
        # the reduced rows decide feasibility: G_W·x_W depends only on x_W's part in the span
        return _unbounded_iff_feasible(reduced, tol, max_iter)
    out = _dual_route(reduced, tol, max_iter)
    if out.x is not None:
        out.x = np.concatenate((V @ out.x[: V.shape[1]], out.x[V.shape[1]:]))
    return out


# ---------------------------------------------------------------------------
# a QP's normal matrix Q + GᵀDG, with its separable columns eliminated
# ---------------------------------------------------------------------------


class _SchurKkt(_Rows):
    """The Newton step on K = Q + GᵀDG + δI of a QP, its separable columns
    U eliminated, over `_Rows`' products; the dual route gives it G = Aᵀ,
    the QP's rows as given.  Its G is a column-major copy, and Q_WW a
    row-major one: BLAS may round a product differently on another layout
    (``scripts/bitwise_diff.py`` checks the bits).  The U-block of K is a
    vector K_uu, and the step solves the Schur complement
    S = K_ww − K_wu·K_uu⁻¹·K_uw by Cholesky; with U empty (a QP given
    densely), S is K itself, factored whole.
    """

    def __init__(self, program: ConvexProgram):
        super().__init__(program, np.asfortranarray(program.a_ineq), np.ascontiguousarray(program.q))
        col, coef = self.sep.col, self.sep.coef
        # the rows with a part on W, and the bin of each entry of that part
        # in K_uw, whose rows are the columns of U and the spare column;
        # the other rows enter S through their column of U alone
        on_w = self.g.any(axis=1)
        self.on_w = np.flatnonzero(on_w)
        self.g_r, self.coef_r, self.col_r = self.g[self.on_w], coef[self.on_w], col[self.on_w]
        self.squares_off_w = np.where(on_w, 0.0, coef * coef)
        self.bins = (self.col_r[:, None] * self.n_w + np.arange(self.n_w)).ravel()

    def q_pinv_dot(self, v):
        """Q⁺·v: v_U/q_U on U, the min-norm least squares of Q_ww on W."""
        v_w = np.linalg.pinv(self.q_ww).dot(v[self.w]) if self.q_ww.any() else np.zeros(self.n_w)
        return np.concatenate((v_w, v[self.u] / self.sep.q))

    def factor(self, d, delta):
        """A solve rhs -> dx of the step system with D = diag(d), or None
        when S is not finite.  S is a sum of PSD terms, free of cancellation
        however far D spreads: with c_j = q_j + δ + Σ d_i·a_i² over the rows
        i on column j of U with no part on W, and h̄_j = K_uw[j]/K_uu[j],
        S = Q_ww + δI + Σ_j c_j·h̄_jh̄_jᵀ + Σ_i d_i·ĝ_iĝ_iᵀ over the rows with
        a part g_i on W, ĝ_i = g_i − a_i·h̄_j (g_i for a row off U)."""
        d_r = d[self.on_w]
        dc_r = d_r * self.coef_r
        c_u = self._on_u(d * self.squares_off_w) + self.sep.q + delta
        k_uu = c_u + np.bincount(self.col_r, weights=dc_r * self.coef_r, minlength=self.n_u + 1)[: self.n_u]
        k_uw = np.bincount(self.bins, weights=(self.g_r * dc_r[:, None]).ravel(),
                           minlength=(self.n_u + 1) * self.n_w).reshape(self.n_u + 1, self.n_w)
        means = k_uw / np.concatenate((k_uu, [1.0]))[:, None]  # the spare column's row is 0
        g_hat = self.g_r - self.coef_r[:, None] * means[self.col_r]
        means = means[: self.n_u]
        S = self.q_ww + (g_hat.T * d_r).dot(g_hat) + (means.T * c_u).dot(means)
        S.reshape(-1)[:: self.n_w + 1] += delta
        solve_w = _normal_solver(S) if self.n_w else (lambda rhs_w: rhs_w)
        if solve_w is None:
            return None

        def solve(rhs):
            rhs_u = rhs[self.u]
            dx_w = solve_w(rhs[self.w] - means.T.dot(rhs_u))
            return np.concatenate((dx_w, rhs_u / k_uu - means.dot(dx_w)))

        return solve


# ---------------------------------------------------------------------------
# active-set polish and the public entry point
# ---------------------------------------------------------------------------


def _guess_active(program: ConvexProgram, x, lam) -> np.ndarray:
    """The rows taken as active at a near-optimal pair."""
    slack = program.b_ineq - _Rows(program).g_dot(x)
    return np.flatnonzero((slack < lam) | (slack <= 1e-7 * (1.0 + np.abs(program.b_ineq))))


def _polish(program: ConvexProgram, x, lam, bar):
    """Refine a near-optimal pair by solving the KKT system of the guessed
    active set; returns the refined pair or None when the guess fails,
    and raises numpy's LinAlgError when its SVD or lstsq does not converge.

    The separable columns U leave the system in closed form before
    lstsq, x_U = −(c_U + R_Uᵀλ)/q_U over the active rows R.  The core over
    the other columns W is [[Q_WW, R_Wᵀ], [R_W, −R_U·diag(q_U)⁻¹·R_Uᵀ]];
    its lower block is nonzero only between rows on one column of U, each
    row having one entry there at most, and is written at those pairs
    alone, so that no n_a×n_a block is built when U is empty.  Massively
    degenerate solutions (think the zero vertex with every zero-label row
    tight) would make this solve dominate, so a system of over 600 rows
    before elimination is skipped.  With Q_WW = 0 and U empty (an LP) the
    core decouples, and its λ is the min-norm solution of R_Wᵀλ = −c_W,
    an n_a×n_w lstsq; when n_w < n_a, R_W is well conditioned and that λ
    dips below −``bar`` (the raw pair's worst KKT measure) by more than
    rounding could explain, the polished pair would lose, and None is
    returned."""
    m = program.n_vars
    active = _guess_active(program, x, lam)
    n_a = active.size
    if m + n_a > 600:
        return None
    # the active rows, all tight: R_W, and on U each one's column and entry
    sep = program.sep
    r_w, h_a = program.a_ineq[active], program.b_ineq[active]
    n_w, n_u, q_ww = r_w.shape[1], sep.q.size, program.q
    w, u = _parts(program)
    c_w = program.c[w]
    if 0 < n_w < n_a and program.is_lp:
        left, sigma, right = np.linalg.svd(r_w, full_matrices=False)
        if sigma[-1] > 1e-6 * sigma[0]:
            est = -left @ ((right @ c_w) / sigma)
            if est.min() < -(bar + 1e-6 * max(1.0, np.abs(est).max())):
                return None
    # the KKT system in (x_W, the active rows' multipliers)
    K = np.zeros((n_w + n_a,) * 2)
    K[:n_w, :n_w] = q_ww
    K[:n_w, n_w:] = r_w.T
    K[n_w:, :n_w] = r_w
    if n_u:
        # the lower block's nonzeros: the pairs (i, j) of active rows on one column of U
        col, coef = sep.col[active], sep.coef[active]
        on_u = np.flatnonzero(col < n_u)
        i, j = (on_u[pairs] for pairs in np.nonzero(col[on_u, None] == col[on_u]))
        K[n_w + i, n_w + j] -= coef[i] / sep.q[col[i]] * coef[j]
        x_u0 = -program.c[u] / sep.q  # x_U at λ = 0; the spare column's 0 follows
        h_a = h_a - coef * np.append(x_u0, 0.0)[col]
    sol = np.linalg.lstsq(K, np.concatenate([-c_w, h_a]), rcond=None)[0]
    if not np.all(np.isfinite(sol)):
        return None
    lam_new = np.zeros(program.n_ineq)
    lam_new[active] = sol[n_w:]
    if not n_u:
        return sol[:n_w], lam_new
    x_u = x_u0 - np.bincount(col, weights=coef * sol[n_w:], minlength=n_u + 1)[:-1] / sep.q
    return np.concatenate((sol[:n_w], x_u)), lam_new


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


def _finalize(program: ConvexProgram, red: ConvexProgram, keep, out: _Outcome, tol) -> SolveReport:
    """The report of ``out`` on ``red``, the caller's ``program`` less the
    rows presolve dropped (``keep`` False).  An Optimal pair is polished
    and the cleaner pair kept; an LP's that misses tol takes multipliers
    refitted by nonnegative least squares on its active rows if they meet
    tol: an x at the optimum can carry multipliers whose stationarity
    residual the polish's lstsq does not mend, since its λ may be negative."""
    status, x, lam, measures = out.status, out.x, out.lam, None
    if x is None:
        x, lam = np.zeros(program.n_vars), np.zeros(red.n_ineq)
    elif status == SolveStatus.OPTIMAL:
        measures = _kkt_measures(red, x, lam)
        try:
            candidate = _polish(red, x, lam, max(measures))
        except np.linalg.LinAlgError:  # its SVD or lstsq did not converge
            candidate = None
        if candidate is not None:
            polished = _kkt_measures(red, *candidate)
            if max(polished) < max(measures):
                (x, lam), measures = candidate, polished
        if max(measures) > tol and red.is_lp:
            refit = _nnls_multipliers(red, x, lam)
            if refit is not None:
                refitted = _kkt_measures(red, x, refit)
                if max(refitted) <= tol:
                    lam, measures = refit, refitted
    if not keep.all():
        # λ is 0 on the rows presolve dropped, and the report is measured on the caller's rows
        full = np.zeros(program.n_ineq)
        full[keep] = lam
        red, lam, measures = program, full, None
    stat, feas, comp = measures or _kkt_measures(red, x, lam)
    if status == SolveStatus.OPTIMAL and max(stat, feas, comp) > tol:
        status = SolveStatus.MAX_ITERATIONS
    return SolveReport(status=status, x=x, lam=lam, primal_residual=feas, dual_residual=stat,
                       complementarity_gap=comp, iterations=out.iterations)


def solve(program: ConvexProgram, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> SolveReport:
    """Solve the program to the requested absolute KKT tolerance.

    Optimal reports carry a primal-dual pair whose recomputed stationarity,
    feasibility and complementarity residuals are all at most ``tol``.
    Infeasible and unbounded programs are detected through the self-dual
    embedding, LPs and QPs alike, each on a certificate only once it is
    checked; the iteration cap and numerical breakdowns are reported
    through the status field, never as exceptions.

    Every constraint is an inequality row, for LPs and QPs alike, and a
    QP may be given densely or split (`Separable`).  Any LP is accepted.
    A QP is accepted only if, after presolve drops its zero rows, it has
    at least one inequality row; any other QP, like a malformed ``tol``
    or ``max_iter``, raises ``SolverError``.  Presolve drops nothing
    else: duplicate rows are solved as given, and their multipliers may
    split between them.  With every row kept, the report's residuals are
    measured on presolve's row-major rows, whatever the caller's layout.
    """
    if not (_TOL_RANGE[0] <= tol <= _TOL_RANGE[1]):
        raise SolverError(f"tol must lie in [{_TOL_RANGE[0]}, {_TOL_RANGE[1]}]")
    if max_iter < 1:
        raise SolverError("max_iter must be positive")

    # numpy's floating-point errors are the interior point's to turn into
    # a status: none reaches the caller as a warning or an exception,
    # whatever the caller's np.seterr
    with np.errstate(all="ignore"):
        red, keep, out = _presolve(program)
        return _finalize(program, red, keep, out or _route(red, tol, max_iter), tol)
