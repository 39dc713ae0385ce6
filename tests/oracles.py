"""Independent brute-force oracles used to pin expected test values.

Nothing here calls the package solver: small LPs are decided by vertex
enumeration over bounded-by-construction polytopes, small QPs by
exhaustive active-set search on the KKT equalities, cone membership
by scipy's NNLS with HiGHS near the boundary, and LPs in A_ub/A_eq form
by HiGHS itself, and a QP's verdict by HiGHS on its rows and its
recession cone.  ``lifted_lp`` is the vanishing-weight relaxation in
the lifted form the package solved before it eliminated the slacks,
solved by HiGHS, since its rows Σ_j z_ij = yᵢ are equalities, which the
package solver does not take; ``lifted_lp_rows`` gives its rows.
``lifted_qp`` only builds the β > 0 relaxation in that form, a program
of inequality rows for tests to solve.  ``full_polish`` is the solver's
active-set polish as it was before it eliminated columns: one lstsq
over the whole KKT system.  The verdict panels at the end draw the
programs that ``scripts/fuzz_verdicts.py`` and its pinned prefix in
tier-1 solve, each with HiGHS's verdict on its unscaled twin.
"""

from itertools import combinations

import numpy as np
from scipy.optimize import linprog, nnls

from convrelax.qpsolve import ConvexProgram, Separable, SolveStatus

FEAS_TOL = 1e-9


def enumerate_vertices(a, b, tol=FEAS_TOL):
    """All feasible basic solutions of {x : a·x <= b}."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p, m = a.shape
    verts = []
    for rows in combinations(range(p), m):
        sub = a[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        v = np.linalg.solve(sub, b[list(rows)])
        if np.all(a @ v <= b + tol * (1.0 + np.abs(b))):
            verts.append(v)
    return verts


def lp_vertex_oracle(c, a, b):
    """(status, value, x) for min c·x over a polytope known to be bounded.

    Only sound on bounded feasible sets: an empty vertex list then means
    the program is infeasible.
    """
    verts = enumerate_vertices(a, b)
    if not verts:
        return "infeasible", None, None
    c = np.asarray(c, dtype=float)
    vals = [float(c @ v) for v in verts]
    i = int(np.argmin(vals))
    return "optimal", vals[i], verts[i]


def qp_active_set_oracle(q, c, a, b, tol=1e-9):
    """Global minimizer of a strictly convex QP over {a·x <= b} by trying
    every active set; returns (x, lam) or None when no KKT point is found."""
    q = np.asarray(q, dtype=float)
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p, m = a.shape
    for size in range(0, min(m, p) + 1):
        for rows in combinations(range(p), size):
            rows = list(rows)
            k = np.zeros((m + size, m + size))
            k[:m, :m] = q
            if size:
                k[:m, m:] = a[rows].T
                k[m:, :m] = a[rows]
            rhs = np.concatenate([-c, b[rows]])
            try:
                sol = np.linalg.solve(k, rhs)
            except np.linalg.LinAlgError:
                continue
            x, lam_a = sol[:m], sol[m:]
            if size and np.min(lam_a) < -tol:
                continue
            if np.all(a @ x <= b + tol * (1.0 + np.abs(b))):
                lam = np.zeros(p)
                lam[rows] = np.maximum(lam_a, 0.0)
                return x, lam
    return None


def cone_membership(gens, v, inside=1e-9, outside=1e-5):
    """Whether v is a non-negative combination of the rows of gens.

    The NNLS residual relative to ‖v‖ decides: at most ``inside`` is in,
    at least ``outside`` is out.  HiGHS decides the residuals between;
    None when it cannot.
    """
    gens = np.asarray(gens, dtype=float)
    if len(gens) == 0:
        return False
    _, resid = nnls(gens.T, v)
    rel = resid / np.linalg.norm(v)
    if rel <= inside:
        return True
    if rel >= outside:
        return False
    res = linprog(np.zeros(len(gens)), A_eq=gens.T, b_eq=v, bounds=(0, None), method="highs")
    return {0: True, 2: False}.get(res.status)


HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def highs_lp(c, a, b, a_eq=None, b_eq=None):
    """(status, value, x) of min c·x over {a·x <= b, a_eq·x = b_eq}, x
    free, by HiGHS.

    HiGHS's presolve can report an unbounded program as infeasible, so an
    infeasible verdict is taken from a solve without presolve.  Where
    HiGHS gives no verdict (status 4), a feasible program with a descent
    ray d (a·d <= 0, a_eq·d = 0, |d| <= 1 and c·d < 0, found by HiGHS) is
    unbounded."""
    rows = dict(A_ub=a, b_ub=b, A_eq=a_eq, b_eq=b_eq, bounds=(None, None), method="highs")
    res = linprog(c, **rows)
    if res.status == 2:
        res = linprog(c, **rows, options={"presolve": False})
    if res.status == 4 and linprog(np.zeros(len(c)), **rows).status == 0:
        ray = linprog(c, A_ub=a, b_ub=np.zeros(len(b)), A_eq=a_eq, b_eq=None if a_eq is None else np.zeros(len(b_eq)),
                      bounds=(-1, 1), method="highs")
        if ray.status == 0 and ray.fun < -1e-9:
            return "unbounded", None, None
    return HIGHS_STATUS.get(res.status, f"status {res.status}"), res.fun, res.x


def highs_qp_verdict(q, c, a, b):
    """The verdict ("optimal", "infeasible" or "unbounded") on the convex
    QP min ½xᵀqx + c·x over {a·x <= b}, x free: infeasible iff HiGHS
    finds its rows infeasible, and otherwise unbounded iff its recession
    LP, min c·d s.t. a·d <= 0, q·d = 0, |d| <= 1, is below −1e-9."""
    if linprog(np.zeros(len(c)), A_ub=a, b_ub=b, bounds=(None, None), method="highs").status == 2:
        return "infeasible"
    ray = linprog(c, A_ub=a, b_ub=np.zeros(len(b)), A_eq=q, b_eq=np.zeros(len(c)), bounds=(-1, 1), method="highs")
    assert ray.status == 0
    return "unbounded" if ray.fun < -1e-9 else "optimal"


def block_set_expansion(xb, y):
    """Every row Σ_{j∈S} X_ij·w <= y_i of the k>1 LP with z eliminated:
    one per sample i and nonempty block set S, 2^k − 1 per sample."""
    xb = np.asarray(xb, dtype=float)
    n, k, p = xb.shape
    sets = (np.arange(1, 2**k)[:, None] >> np.arange(k)) & 1
    a = np.einsum("sj,ijp->isp", sets.astype(float), xb).reshape(-1, p)
    return a, np.repeat(np.asarray(y, dtype=float), len(sets))


def lifted_lp_rows(dataset, r):
    """The β=0 relaxation over the filter w and the n·k slacks z, with z
    ordered sample-major: min rᵀw subject to X_ij·w − z_ij ≤ 0, z ≥ 0
    and Σ_j z_ij = yᵢ.  Returns (c, a_ub, b_ub, a_eq, b_eq), dense, with
    p + nk columns, 2nk inequality rows and n equality rows (p = d/k)."""
    n, k, p = dataset.n, dataset.k, dataset.filter_size
    nz = n * k
    m = p + nz
    a_resp = np.zeros((nz, m))
    a_resp[:, :p] = dataset.blocks().reshape(nz, p)
    a_resp[np.arange(nz), p + np.arange(nz)] = -1.0
    a_nonneg = np.zeros((nz, m))
    a_nonneg[np.arange(nz), p + np.arange(nz)] = -1.0
    a_eq = np.zeros((n, m))
    a_eq[:, p:] = np.repeat(np.eye(n), k, axis=1)
    return (np.concatenate([r, np.zeros(nz)]), np.vstack([a_resp, a_nonneg]), np.zeros(2 * nz),
            a_eq, dataset.y.copy())


def lifted_lp(dataset, r):
    """(status, value, (w, z)) of ``lifted_lp_rows`` by HiGHS."""
    return highs_lp(*lifted_lp_rows(dataset, r))


def lifted_qp(dataset, beta, r):
    """The β > 0 relaxation over the filter w and the n·k slacks z, with z
    ordered sample-major: min β·rᵀw + ½ Σᵢ (Σ_j z_ij)² − Σᵢ yᵢ·Σ_j z_ij
    subject to X_ij·w − z_ij ≤ 0 and z ≥ 0.  A dense ConvexProgram with
    p + nk variables and 2nk inequality rows (p = d/k)."""
    n, k, p = dataset.n, dataset.k, dataset.filter_size
    nz = n * k
    m = p + nz
    a_resp = np.zeros((nz, m))
    a_resp[:, :p] = dataset.blocks().reshape(nz, p)
    a_resp[np.arange(nz), p + np.arange(nz)] = -1.0
    a_nonneg = np.zeros((nz, m))
    a_nonneg[np.arange(nz), p + np.arange(nz)] = -1.0
    q = np.zeros((m, m))
    q[p:, p:] = np.kron(np.eye(n), np.ones((k, k)))
    c = np.concatenate([beta * np.asarray(r, dtype=float), np.repeat(-dataset.y, k)])
    return ConvexProgram(c=c, q=q, a_ineq=np.vstack([a_resp, a_nonneg]), b_ineq=np.zeros(2 * nz))


def full_polish(program, x, lam, bar):
    """The active-set polish over the whole KKT system, in the call
    signature of ``qpsolve._polish``, which it replaces in tests: the
    (x, λ on the guessed active rows) system with those rows tight, on
    the program's dense twin, solved by one lstsq with no column
    eliminated (``bar`` unused, so it never skips a system)."""
    program = program.dense()
    m, p = program.n_vars, program.n_ineq
    if p:
        slack = program.b_ineq - program.a_ineq @ x
        active = np.flatnonzero((slack < lam) | (slack <= 1e-7 * (1.0 + np.abs(program.b_ineq))))
    else:
        active = np.zeros(0, dtype=int)
    n_a = active.size
    if m + n_a > 600:
        return None
    rows = program.a_ineq[active]
    K = np.zeros((m + n_a, m + n_a))
    K[:m, :m] = program.q
    K[:m, m:] = rows.T
    K[m:, :m] = rows
    rhs = np.concatenate([-program.c, program.b_ineq[active]])
    try:
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(sol)):
        return None
    lam_new = np.zeros(p)
    lam_new[active] = sol[m:]
    return sol[:m], lam_new


# ---------------------------------------------------------------------------
# random suites with outcomes known by construction
# ---------------------------------------------------------------------------


def bounded_feasible_lp(rng, m):
    """Nonnegative orthant capped by a simplex face plus random feasible
    cuts: always feasible and bounded, at most six rows for m <= 3."""
    cap = rng.uniform(1.0, 5.0)
    x0 = rng.uniform(0.05, 0.9, size=m)
    x0 *= min(1.0, cap / (x0.sum() * 1.2))
    rows = [-np.eye(m), np.ones((1, m))]
    rhs = [np.zeros(m), np.array([cap])]
    n_extra = 5 - m
    if n_extra > 0:
        extra = rng.standard_normal((n_extra, m))
        rows.append(extra)
        rhs.append(extra @ x0 + rng.uniform(0.05, 1.0, size=n_extra))
    a = np.vstack(rows)
    b = np.concatenate(rhs)
    c = rng.standard_normal(m)
    return c, a, b


def infeasible_lp(rng, m):
    """A random strip contradicted by its reverse."""
    g = rng.standard_normal(m)
    beta = rng.standard_normal()
    a = np.vstack([g, -g, rng.standard_normal((2, m))])
    b = np.concatenate([[beta], [-beta - 1.0], rng.uniform(1.0, 2.0, size=2)])
    c = rng.standard_normal(m)
    return c, a, b


def unbounded_lp(rng, m):
    """Orthant plus rows that never cut the e_j recession direction, with
    negative cost along it."""
    j = int(rng.integers(m))
    extra = rng.standard_normal((2, m))
    extra[:, j] = -np.abs(extra[:, j])
    a = np.vstack([-np.eye(m), extra])
    b = np.concatenate([np.zeros(m), rng.uniform(0.5, 2.0, size=2)])
    c = rng.standard_normal(m)
    c[j] = -abs(c[j]) - 0.1
    return c, a, b


def random_feasible_qp(rng, m, p):
    """Strictly convex QP with bounded feasible region (box included)."""
    root = rng.standard_normal((m, m))
    q = root @ root.T + np.eye(m)
    c = rng.standard_normal(m)
    x0 = rng.standard_normal(m) * 0.5
    a_extra = rng.standard_normal((p, m))
    b_extra = a_extra @ x0 + rng.uniform(0.1, 1.0, size=p)
    a = np.vstack([a_extra, np.eye(m), -np.eye(m)])
    b = np.concatenate([b_extra, np.full(2 * m, 10.0)])
    return q, c, a, b


# ---------------------------------------------------------------------------
# the verdict panels: seeded programs, each numbered from 0 and given with
# a callable that returns HiGHS's verdict on its unscaled twin.  Given
# ``only``, a panel yields only the programs of those indices, and builds
# no other, though it draws every one
# ---------------------------------------------------------------------------

STATUS_OF_HIGHS = {"optimal": SolveStatus.OPTIMAL, "infeasible": SolveStatus.PRIMAL_INFEASIBLE,
                   "unbounded": SolveStatus.DUAL_UNBOUNDED}


def _row_scaled(rng, g, h):
    """G and h with each row scaled by 10^(−6..6), one time in four."""
    if rng.random() < 0.25:
        scale = 10.0 ** rng.integers(-6, 7, h.size)
        return g * scale[:, None], h * scale
    return g, h


def lp_panel(only=None):
    """(index, program, verdict) of 6,000 LPs from ``default_rng(12)``:
    per LP, m = 1..6 variables and 1..8 rows, G, h and c with entries in
    −3..3, and one in four row-scaled."""
    rng = np.random.default_rng(12)
    for i in range(6000):
        m, rows = rng.integers(1, 7), rng.integers(1, 9)
        g, h, c = rng.integers(-3, 4, (rows, m)), rng.integers(-3, 4, rows), rng.integers(-3, 4, m)
        verdict = lambda c=c, g=g, h=h: highs_lp(c, g, h)[0]
        g_s, h_s = _row_scaled(rng, g, h)
        if only is None or i in only:
            yield i, ConvexProgram(c=c, a_ineq=g_s, b_ineq=h_s), verdict


def dense_qp_panel(only=None):
    """(index, program, verdict) of 3,000 QPs from ``default_rng(13)``,
    drawn as the LPs are, with Q = BᵀB for B of 1..m rows with entries in
    −2..2, drawn after c and before the row scales."""
    rng = np.random.default_rng(13)
    for i in range(3000):
        m, rows = rng.integers(1, 7), rng.integers(1, 9)
        g, h, c = rng.integers(-3, 4, (rows, m)), rng.integers(-3, 4, rows), rng.integers(-3, 4, m)
        b = rng.integers(-2, 3, (rng.integers(1, m + 1), m))
        q = (b.T @ b).astype(float)
        verdict = lambda q=q, c=c, g=g, h=h: highs_qp_verdict(q, c, g, h)
        g_s, h_s = _row_scaled(rng, g, h)
        if only is None or i in only:
            yield i, ConvexProgram(c=c, q=q, a_ineq=g_s, b_ineq=h_s), verdict


def split_qp_panel(only=None):
    """(index, program, verdict) of 3,000 split QPs from ``default_rng(14)``
    with 1..9 rows over 1..5 dense columns (Q_WW = 0) and 1..4 separable
    ones (q_U in 1..3), integer entries in −3..3, seven rows in ten with an
    entry on U; one in four has its rows scaled by 10^(−6..6).  The
    verdict is HiGHS's on the dense twin of the program unscaled."""
    rng = np.random.default_rng(14)
    for i in range(3000):
        nw, nu, rows = rng.integers(1, 6), rng.integers(1, 5), rng.integers(1, 10)
        g, h = rng.integers(-3, 4, (rows, nw)), rng.integers(-3, 4, rows)
        c, q_u = rng.integers(-3, 4, nw + nu), rng.integers(1, 4, nu)
        has = rng.random(rows) < 0.7
        col, coef = np.where(has, rng.integers(0, nu, rows), nu), np.where(has, rng.integers(-2, 3, rows), 0)
        col[coef == 0] = nu
        scale = 10.0 ** rng.integers(-6, 7, rows) if rng.random() < 0.25 else np.ones(rows)

        def verdict(c=c, g=g, h=h, sep=Separable(q_u, col, coef)):
            twin = ConvexProgram(c=c, a_ineq=g, b_ineq=h, sep=sep).dense()
            return highs_qp_verdict(twin.q, twin.c, twin.a_ineq, twin.b_ineq)

        if only is None or i in only:
            yield i, ConvexProgram(c=c, a_ineq=g * scale[:, None], b_ineq=h * scale,
                                   sep=Separable(q_u, col, coef * scale)), verdict


VERDICT_PANELS = {"LP": lp_panel, "dense QP": dense_qp_panel, "split QP": split_qp_panel}
