"""Independent brute-force oracles used to pin expected test values.

Nothing here calls the package solver: small LPs are decided by vertex
enumeration over bounded-by-construction polytopes, small QPs by
exhaustive active-set search on the KKT equalities, and cone membership
by scipy's NNLS with HiGHS near the boundary.
"""

from itertools import combinations

import numpy as np
from scipy.optimize import linprog, nnls

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
