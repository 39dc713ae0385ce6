import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import time

from convrelax import certify, model, qpsolve, relax
from convrelax.qpsolve import (
    ConvexProgram,
    SolveReport,
    SolverError,
    SolveStatus,
    _dedup_rows,
    _lp_standard_form,
    _max_step,
    _presolve,
    check_kkt,
    least_squares,
    solve,
)

from oracles import (
    bounded_feasible_lp,
    full_polish,
    highs_lp,
    infeasible_lp,
    lifted_lp_rows,
    lp_vertex_oracle,
    qp_active_set_oracle,
    random_feasible_qp,
    unbounded_lp,
)


def test_orthant_lp():
    rep = solve(ConvexProgram(c=[1.0, 1.0], a_ineq=-np.eye(2), b_ineq=[0.0, 0.0]))
    assert rep.status == SolveStatus.OPTIMAL
    np.testing.assert_allclose(rep.x, [0.0, 0.0], atol=1e-9)
    assert abs(rep.x @ [1.0, 1.0]) <= 1e-9


def _one_d_lp():
    return ConvexProgram(c=[-1.0], a_ineq=[[1.0], [-1.0]], b_ineq=[1.0, 0.0])


def test_one_d_lp_against_vertex_oracle():
    status, value, x = lp_vertex_oracle([-1.0], [[1.0], [-1.0]], [1.0, 0.0])
    assert status == "optimal" and value == -1.0 and x[0] == 1.0
    rep = solve(_one_d_lp())
    assert rep.status == SolveStatus.OPTIMAL
    np.testing.assert_allclose(rep.x, [1.0], atol=1e-9)
    np.testing.assert_allclose(rep.lam, [1.0, 0.0], atol=1e-8)


def test_check_kkt_hand_oracle():
    program = _one_d_lp()
    rep = solve(program)
    good = check_kkt(program, rep, tol=1e-9)
    assert good.passed
    # zeroing the multipliers uncovers the objective gradient
    rep.lam = np.zeros(2)
    bad = check_kkt(program, rep, tol=1e-9)
    assert not bad.passed
    assert bad.stationarity == pytest.approx(1.0)


def test_check_kkt_random_qp_at_ten_tol():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(2, 5))
        p = int(rng.integers(1, 7))
        q, c, a, b = random_feasible_qp(rng, m, p)
        program = ConvexProgram(c=c, q=q, a_ineq=a, b_ineq=b)
        rep = solve(program, tol=1e-8)
        assert rep.status == SolveStatus.OPTIMAL
        assert check_kkt(program, rep, tol=1e-7).passed
        oracle = qp_active_set_oracle(q, c, a, b)
        assert oracle is not None
        np.testing.assert_allclose(rep.x, oracle[0], atol=1e-6)


def test_check_kkt_dimension_mismatch():
    rep = solve(_one_d_lp())
    with pytest.raises(SolverError):
        check_kkt(ConvexProgram(c=[1.0, 2.0]), rep, tol=1e-8)


def test_least_squares_examples():
    np.testing.assert_allclose(least_squares(np.eye(3), [1.0, 2.0, 3.0]), [1, 2, 3])
    np.testing.assert_allclose(least_squares([[1.0], [1.0]], [1.0, 3.0]), [2.0])
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 3))
    x_true = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(least_squares(a, a @ x_true), x_true, atol=1e-10)
    with pytest.raises(SolverError):
        least_squares(np.zeros((0, 0)), [])


def test_infeasible_and_unbounded_detection():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = int(rng.integers(2, 4))
        c, a, b = infeasible_lp(rng, m)
        assert solve(ConvexProgram(c=c, a_ineq=a, b_ineq=b)).status == SolveStatus.PRIMAL_INFEASIBLE
        c, a, b = unbounded_lp(rng, m)
        assert solve(ConvexProgram(c=c, a_ineq=a, b_ineq=b)).status == SolveStatus.DUAL_UNBOUNDED


def test_strong_duality_invariant():
    rng = np.random.default_rng(21)
    tol = 1e-8
    for _ in range(40):
        m = int(rng.integers(2, 4))
        c, a, b = bounded_feasible_lp(rng, m)
        program = ConvexProgram(c=c, a_ineq=a, b_ineq=b)
        rep = solve(program, tol=tol)
        assert rep.status == SolveStatus.OPTIMAL
        primal = float(c @ rep.x)
        dual = float(-program.b_ineq @ rep.lam)
        assert abs(primal - dual) <= 10 * tol * (1.0 + abs(primal))


def test_qp_solution_unique_under_row_permutation():
    rng = np.random.default_rng(31)
    for _ in range(10):
        q, c, a, b = random_feasible_qp(rng, 3, 5)
        rep1 = solve(ConvexProgram(c=c, q=q, a_ineq=a, b_ineq=b))
        perm = rng.permutation(a.shape[0])
        rep2 = solve(ConvexProgram(c=c, q=q, a_ineq=a[perm], b_ineq=b[perm]))
        assert rep1.status == rep2.status == SolveStatus.OPTIMAL
        np.testing.assert_allclose(rep1.x, rep2.x, atol=1e-7)


def test_lp_scaling_covariance():
    # scaling the cost alone, or both right-hand sides alone, scales the
    # optimal value by the same factor (joint scaling would square it)
    rng = np.random.default_rng(41)
    tol = 1e-8
    for alpha in (0.5, 2.0, 7.5):
        c, a, b = bounded_feasible_lp(rng, 3)
        base = solve(ConvexProgram(c=c, a_ineq=a, b_ineq=b), tol=tol)
        scaled_c = solve(ConvexProgram(c=alpha * c, a_ineq=a, b_ineq=b), tol=tol)
        scaled_b = solve(ConvexProgram(c=c, a_ineq=a, b_ineq=alpha * b), tol=tol)
        v0 = float(c @ base.x)
        assert abs(float(alpha * c @ scaled_c.x) - alpha * v0) <= 10 * tol * (1 + abs(alpha * v0))
        assert abs(float(c @ scaled_b.x) - alpha * v0) <= 10 * tol * (1 + abs(alpha * v0))


def test_presolve_duplicate_and_zero_rows():
    # duplicated and all-zero rows are dropped; their multipliers read zero
    program = ConvexProgram(
        c=[-1.0],
        a_ineq=[[1.0], [1.0], [0.0], [-1.0]],
        b_ineq=[1.0, 1.0, 5.0, 0.0],
    )
    rep = solve(program)
    assert rep.status == SolveStatus.OPTIMAL
    np.testing.assert_allclose(rep.x, [1.0], atol=1e-9)
    assert rep.lam[1] == 0.0 and rep.lam[2] == 0.0
    assert check_kkt(program, rep, tol=1e-8).passed
    # a zero row with negative bound is infeasible outright
    bad = ConvexProgram(c=[1.0], a_ineq=[[0.0]], b_ineq=[-1.0])
    assert solve(bad).status == SolveStatus.PRIMAL_INFEASIBLE


def _dedup_rows_reference(a, b):
    """The row loop the vectorized presolve must reproduce index for index."""
    keep = []
    seen = set()
    infeasible = False
    for i in range(a.shape[0]):
        row = a[i]
        if not row.any():
            infeasible |= b[i] < 0.0
            continue
        key = row.tobytes() + np.float64(b[i]).tobytes()
        if key in seen:
            continue
        seen.add(key)
        keep.append(i)
    return np.asarray(keep, dtype=int), infeasible


def _program_with_redundant_rows(rng, rows, cols):
    """Random rows, then exact duplicates, zero rows (some of them -0.0),
    -0.0 twins of rows and twins that differ only in b, shuffled."""
    a = rng.standard_normal((rows, cols))
    a[rng.random((rows, cols)) < 0.3] = 0.0
    b = rng.standard_normal(rows)
    b[rng.random(rows) < 0.2] = 0.0
    pick = rng.integers(0, rows, size=rows // 2)
    twins = a[pick].copy()
    twins[twins == 0.0] = -0.0
    zeros = np.zeros((3, cols))
    zeros[1, 0] = -0.0
    a = np.vstack([a, a[pick], twins, a[pick[:2]], zeros])
    b = np.concatenate([b, b[pick], b[pick], b[pick[:2]] + 1.0, [0.0, -0.0, rng.choice([-1.0, 1.0])]])
    perm = rng.permutation(a.shape[0])
    return a[perm], b[perm]


@pytest.mark.parametrize("seed", range(12))
def test_dedup_rows_matches_reference_loop(seed):
    rng = np.random.default_rng(seed)
    a, b = _program_with_redundant_rows(rng, int(rng.integers(1, 40)), int(rng.integers(1, 6)))
    keep, infeasible = _dedup_rows(a, b)
    ref_keep, ref_infeasible = _dedup_rows_reference(a, b)
    np.testing.assert_array_equal(keep, ref_keep)
    assert keep.dtype == ref_keep.dtype
    assert infeasible == ref_infeasible
    # -0.0 and 0.0 tell rows apart; a row of signed zeros is still a zero row
    a = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, -0.0], [0.0, 1.0]])
    b = np.array([1.0, 1.0, 1.0, -2.0, -0.0])
    keep, infeasible = _dedup_rows(a, b)
    assert keep.tolist() == [0, 1, 4] and infeasible
    assert _dedup_rows(np.zeros((0, 3)), np.zeros(0))[0].size == 0


def _best_ms(fn, *args, reps):
    best = np.inf
    for _ in range(reps):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


@pytest.mark.parametrize("n, d, k", [(2000, 10, 1), (400, 20, 5)])
def test_dedup_rows_faster_than_reference_loop(n, d, k):
    # a tall k=1 program (2000x10) and a wide lifted one (4000x2004)
    _, ds = model.sample_planted(n, d, k, 1)
    r = np.ones(d // k)
    if k == 1:
        program = relax.build(ds, 0.0, r).program
        a, b = program.a_ineq, program.b_ineq
    else:
        _, a, b, _, _ = lifted_lp_rows(ds, r)
    reps = 15 if k == 1 else 3
    assert _best_ms(_dedup_rows, a, b, reps=reps) < _best_ms(_dedup_rows_reference, a, b, reps=reps)


def _standard_form_reference(program):
    """The per-row and per-column loops the vectorized standard form must
    reproduce: (A, b, c, nonneg, split, bound_row, generic rows)."""
    m = program.n_vars
    G, h = program.a_ineq, program.b_ineq
    nonneg = np.full(m, -1, dtype=int)
    bound_row = {}
    generic = []
    for i in range(G.shape[0]):
        nz = np.flatnonzero(G[i])
        if h[i] == 0.0 and nz.size == 1 and G[i, nz[0]] < 0 and nonneg[nz[0]] < 0:
            nonneg[nz[0]] = 0
            bound_row[i] = (int(nz[0]), float(-G[i, nz[0]]))
        else:
            generic.append(i)
    split = {}
    next_col = 0
    for j in range(m):
        if nonneg[j] == 0:
            nonneg[j] = next_col
            next_col += 1
        else:
            split[j] = (next_col, next_col + 1)
            next_col += 2
    stacked = G[generic]
    A = np.zeros((stacked.shape[0], next_col + len(generic)))
    c = np.zeros(A.shape[1])
    for j in range(m):
        if nonneg[j] >= 0:
            A[:, nonneg[j]] = stacked[:, j]
            c[nonneg[j]] = program.c[j]
        else:
            A[:, split[j][0]] = stacked[:, j]
            A[:, split[j][1]] = -stacked[:, j]
            c[split[j][0]] = program.c[j]
            c[split[j][1]] = -program.c[j]
    for r in range(len(generic)):
        A[r, next_col + r] = 1.0
    b = h[generic]
    return A, b, c, nonneg, split, bound_row, generic


@pytest.mark.parametrize("seed", range(8))
def test_lp_standard_form_matches_reference_loops(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    # sign-bound rows (some repeated with other scales, some with h != 0 or
    # a positive entry) mixed with dense rows
    bounds = []
    for _ in range(int(rng.integers(0, 2 * m + 1))):
        row = np.zeros(m)
        row[rng.integers(m)] = -rng.choice([1.0, 2.0]) * rng.choice([1.0, 1.0, -1.0])
        bounds.append(row)
    dense = rng.standard_normal((int(rng.integers(0, 4)), m))
    G = np.vstack([*bounds, dense]) if bounds or dense.size else np.zeros((0, m))
    G = G[rng.permutation(G.shape[0])]
    h = np.where(rng.random(G.shape[0]) < 0.8, 0.0, 1.0)
    program = ConvexProgram(c=rng.standard_normal(m), a_ineq=G, b_ineq=h)
    sf = _lp_standard_form(program)
    A, b, c, nonneg, split, bound_row, generic = _standard_form_reference(program)
    for got, want in ((sf.A, A), (sf.b, b), (sf.c, c)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert sf.generic_rows.tolist() == generic
    assert sf.split.tolist() == [j in split for j in range(m)]
    assert sf.col.tolist() == [split[j][0] if j in split else nonneg[j] for j in range(m)]
    got_bounds = dict(zip(sf.bound_rows.tolist(), zip(sf.bound_vars.tolist(), sf.bound_scales.tolist())))
    assert got_bounds == bound_row


def test_presolve_returns_the_program_when_no_row_drops():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 2))
    kept = ConvexProgram(c=[1.0, -1.0], a_ineq=a, b_ineq=np.ones(6))
    assert _presolve(kept)[0] is kept
    dropped = ConvexProgram(c=[1.0, -1.0], a_ineq=np.vstack([a, a[:1]]), b_ineq=np.ones(7))
    reduced = _presolve(dropped)[0]
    assert reduced is not dropped and reduced.n_ineq == 6
    # a column-major program is copied row-major, as every reduced one is
    fortran = ConvexProgram(c=[1.0, -1.0], a_ineq=np.asfortranarray(a), b_ineq=np.ones(6))
    assert _presolve(fortran)[0].a_ineq.flags.c_contiguous


def _max_step_reference(v, dv):
    # the interior point's former masked form; entries off ``neg`` are
    # never divided nor read
    neg = dv < 0
    return np.min(np.divide(v, -dv, out=None, where=neg), where=neg, initial=np.inf)


@pytest.mark.parametrize("seed", range(20))
def test_max_step_bitwise_matches_masked_divide(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 60))
    v = np.abs(rng.standard_normal(size)) * 10.0 ** rng.integers(-8, 8, size)
    for dv in (
        rng.standard_normal(size),
        np.abs(rng.standard_normal(size)),  # no negative entry: α = ∞
        -np.abs(rng.standard_normal(size)) - 1e-300,
        np.where(rng.random(size) < 0.3, 0.0, rng.standard_normal(size)),
        np.where(rng.random(size) < 0.3, -0.0, rng.standard_normal(size)),
    ):
        for vv in (v, np.where(rng.random(size) < 0.3, 0.0, v)):
            got, want = _max_step(vv, dv), _max_step_reference(vv, dv)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        # interior-point iterates are positive; with −0.0 entries the two
        # reductions may break a ±0 tie differently, but agree in value
        signed = np.where(rng.random(size) < 0.3, -0.0, v)
        assert _max_step(signed, dv) == _max_step_reference(signed, dv)
    assert _max_step(v, np.zeros(size)) == np.inf


def test_program_validation():
    with pytest.raises(SolverError):
        ConvexProgram(c=[])
    with pytest.raises(SolverError):
        ConvexProgram(c=[1.0, 2.0], q=[[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(SolverError):
        ConvexProgram(c=[1.0], a_ineq=[[1.0, 2.0]], b_ineq=[0.0])
    with pytest.raises(SolverError):
        solve(ConvexProgram(c=[1.0]), tol=1.0)
    with pytest.raises(SolverError):
        solve(ConvexProgram(c=[1.0]), max_iter=0)
    # every constraint is an inequality row
    with pytest.raises(TypeError):
        ConvexProgram(c=[1.0], a_eq=[[1.0]], b_eq=[0.0])


def test_program_json_round_trip():
    rng = np.random.default_rng(3)
    q, c, a, b = random_feasible_qp(rng, 3, 4)
    program = ConvexProgram(c=c, q=q, a_ineq=a, b_ineq=b)
    back = ConvexProgram(**json.loads(model.to_json(program)))
    np.testing.assert_array_equal(back.q, program.q)
    np.testing.assert_array_equal(back.c, program.c)
    np.testing.assert_array_equal(back.a_ineq, program.a_ineq)
    np.testing.assert_array_equal(back.b_ineq, program.b_ineq)


def test_solve_is_deterministic():
    rng = np.random.default_rng(7)
    c, a, b = bounded_feasible_lp(rng, 3)
    program = ConvexProgram(c=c, a_ineq=a, b_ineq=b)
    r1, r2 = solve(program), solve(program)
    assert np.array_equal(r1.x, r2.x) and np.array_equal(r1.lam, r2.lam)
    assert r1.iterations == r2.iterations


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), m=st.integers(2, 3))
def test_lp_matches_vertex_enumeration(seed, m):
    rng = np.random.default_rng(seed)
    c, a, b = bounded_feasible_lp(rng, m)
    status, value, _ = lp_vertex_oracle(c, a, b)
    assert status == "optimal"
    rep = solve(ConvexProgram(c=c, a_ineq=a, b_ineq=b))
    assert rep.status == SolveStatus.OPTIMAL
    assert float(c @ rep.x) == pytest.approx(value, abs=1e-7)
    assert check_kkt(ConvexProgram(c=c, a_ineq=a, b_ineq=b), rep, tol=1e-8).passed


# -- differential check against HiGHS -----------------------------------------

STATUS_OF_HIGHS = {"optimal": SolveStatus.OPTIMAL, "infeasible": SolveStatus.PRIMAL_INFEASIBLE,
                   "unbounded": SolveStatus.DUAL_UNBOUNDED}


def _assert_matches_highs(c, a, b):
    rep = solve(ConvexProgram(c=c, a_ineq=a, b_ineq=b))
    status, value, x = highs_lp(c, a, b)
    assert rep.status == STATUS_OF_HIGHS[status]
    if status == "optimal":
        assert abs(float(np.dot(c, rep.x)) - value) <= 1e-8 * (1.0 + abs(value))
        # random costs make the optimal vertex unique
        assert np.max(np.abs(rep.x - x)) <= 1e-7 * (1.0 + np.max(np.abs(x)))


@pytest.mark.parametrize("n, d, seed", [(400, 20, 1), (2000, 10, 2), (120, 10, 3), (40, 8, 4),
                                        (16, 8, 5), (6, 10, 6)])
def test_k1_relaxation_lp_matches_highs(n, d, seed):
    # tall LPs take the dual route, n <= 2d the primal one, and n < d is
    # unbounded
    _, ds = model.sample_planted(n, d, 1, seed)
    r = model.substream(seed, model.STREAM_PERTURBATION).standard_normal(d)
    program = relax.build(ds, 0.0, r).program
    _assert_matches_highs(program.c, program.a_ineq, program.b_ineq)


@pytest.mark.parametrize("make", [bounded_feasible_lp, infeasible_lp, unbounded_lp],
                         ids=lambda make: make.__name__)
def test_random_lps_match_highs(make):
    rng = np.random.default_rng(51)
    for _ in range(20):
        _assert_matches_highs(*make(rng, int(rng.integers(2, 4))))


# -- the QP step and the programs it takes -------------------------------------


def _unstructured_solve(monkeypatch, program):
    """The report of the QP step with no column eliminated, the reference
    for the Schur step: ``solve`` with separable-column detection
    switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(qpsolve, "_separable_columns", lambda program: np.zeros(program.n_vars, dtype=bool))
        return solve(program)


def _report_bits(report: SolveReport) -> bytes:
    arrays = (report.x, report.lam, report.primal_residual, report.dual_residual,
              report.complementarity_gap)
    return report.status.value.encode() + str(report.iterations).encode() + b"".join(
        np.asarray(a, dtype=float).tobytes() for a in arrays)


def _separable_qp(rng, n_w, n_u, rows, curved=True, untouched=False, shuffle=True):
    """A feasible QP whose columns U (n_u of them) have a positive
    diagonal curvature and nothing else in Q, and whose rows have a dense
    part on the other n_w columns and at most one nonzero on U.  With
    ``curved`` the other columns get a positive definite block of Q,
    otherwise none and a box; with ``untouched`` the last column of U
    appears in no row."""
    m = n_w + n_u
    perm = rng.permutation(m) if shuffle else np.arange(m)
    w, u = perm[:n_w], perm[n_w:]
    q = np.zeros((m, m))
    root = rng.standard_normal((n_w, n_w))
    q[np.ix_(w, w)] = root @ root.T + np.eye(n_w) if curved else 0.0
    q[u, u] = rng.uniform(0.5, 2.0, n_u)
    a = np.zeros((rows, m))
    a[:, w] = rng.standard_normal((rows, n_w))
    reach = n_u - 1 if untouched else n_u
    hit = np.flatnonzero(rng.uniform(size=rows) < 0.7) if reach else np.zeros(0, dtype=int)
    a[hit, u[rng.integers(reach, size=hit.size)]] = rng.choice([-1.0, 1.0], hit.size) * rng.uniform(
        0.5, 2.0, hit.size)
    x0 = 0.5 * rng.standard_normal(m)
    b = a @ x0 + rng.uniform(0.1, 1.0, rows)
    if not curved:
        a = np.vstack([a, np.eye(m)[w], -np.eye(m)[w]])
        b = np.concatenate([b, np.full(2 * n_w, 3.0)])
    return ConvexProgram(c=rng.standard_normal(m), q=q, a_ineq=a, b_ineq=b)


SEPARABLE_SHAPES = [  # (n_w, n_u, rows, curved, untouched, shuffle)
    (0, 3, 5, True, False, False),
    (0, 4, 6, True, True, True),
    (2, 2, 5, True, False, True),
    (3, 2, 6, True, True, False),
    (2, 3, 6, False, False, True),
    (3, 3, 4, False, True, True),
    (8, 40, 90, False, False, False),
    (6, 30, 70, True, True, True),
]


@pytest.mark.parametrize("shape", SEPARABLE_SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_schur_step_matches_the_dense_step(shape, monkeypatch):
    rng = np.random.default_rng(sum(map(int, shape)) * 7919)
    for _ in range(5):
        program = _separable_qp(rng, *shape)
        assert qpsolve._separable_columns(program).any()
        rep = solve(program)
        ref = _unstructured_solve(monkeypatch, program)
        assert rep.status == ref.status == SolveStatus.OPTIMAL
        assert abs(rep.iterations - ref.iterations) <= 2
        np.testing.assert_allclose(rep.x, ref.x, rtol=0.0, atol=1e-7 * (1.0 + np.max(np.abs(ref.x))))
        assert abs(program.objective(rep.x) - program.objective(ref.x)) <= 1e-8 * (
            1.0 + abs(program.objective(ref.x)))


@pytest.mark.parametrize("shape", [s for s in SEPARABLE_SHAPES if s[3] and s[0] + s[1] <= 5],
                         ids=lambda s: "-".join(map(str, s)))
def test_schur_step_matches_the_active_set_oracle(shape):
    rng = np.random.default_rng(sum(map(int, shape)) * 104729)
    for _ in range(5):
        program = _separable_qp(rng, *shape)
        rep = solve(program)
        assert rep.status == SolveStatus.OPTIMAL
        oracle = qp_active_set_oracle(program.q, program.c, program.a_ineq, program.b_ineq)
        assert oracle is not None
        np.testing.assert_allclose(rep.x, oracle[0], atol=1e-7)
        np.testing.assert_allclose(rep.lam, oracle[1], atol=1e-6)


def _unstructured_programs():
    """Programs that miss one condition of a separable column each."""
    rng = np.random.default_rng(61)
    base = _separable_qp(rng, 2, 3, 6, shuffle=False)
    two_on_u = base.a_ineq.copy()
    two_on_u[0, 2:4] = [1.0, -0.5]
    yield "row-with-two-separable-nonzeros", ConvexProgram(c=base.c, q=base.q, a_ineq=two_on_u,
                                                           b_ineq=base.b_ineq + 5.0)
    # a coupled column just leaves U, so all of U is coupled here
    coupled = base.q.copy()
    coupled[2:, 2:] += 0.1 * (np.ones((3, 3)) - np.eye(3))
    yield "off-diagonal-q-entry", ConvexProgram(c=base.c, q=coupled, a_ineq=base.a_ineq, b_ineq=base.b_ineq)


@pytest.mark.parametrize("program", [pytest.param(p, id=name) for name, p in _unstructured_programs()])
def test_programs_without_the_structure_take_the_dense_step(program, monkeypatch):
    assert not qpsolve._separable_columns(program).any()
    rep = solve(program)
    assert rep.status == SolveStatus.OPTIMAL
    assert _report_bits(rep) == _report_bits(_unstructured_solve(monkeypatch, program))
    oracle = qp_active_set_oracle(program.q, program.c, program.a_ineq, program.b_ineq)
    assert oracle is not None
    np.testing.assert_allclose(rep.x, oracle[0], atol=1e-7)
    np.testing.assert_allclose(rep.lam, oracle[1], atol=1e-6)


def test_relaxation_qp_takes_the_schur_step():
    _, ds = model.sample_planted(30, 8, 2, 3)
    program = relax.build(ds, 1e-3, np.ones(4)).program
    sep = qpsolve._separable_columns(program)
    kkt = qpsolve._SchurKkt(program, sep)
    assert kkt.n_w == 4 and kkt.n_u == 30


def _rejected_qps():
    """QPs outside ``solve``'s contract: no inequality row left after
    presolve."""
    yield "unconstrained-projection", ConvexProgram(c=[-3.0, 1.0], q=np.eye(2))
    # zero curvature along x2 with a pure linear pull
    yield "unbounded-flat-direction", ConvexProgram(c=[0.0, -1.0], q=np.diag([1.0, 0.0]))
    yield "inequality-rows-all-zero", ConvexProgram(c=[1.0, -1.0], q=np.eye(2), a_ineq=np.zeros((3, 2)),
                                                    b_ineq=[0.0, 1.0, 2.0])


@pytest.mark.parametrize("program", [pytest.param(p, id=name) for name, p in _rejected_qps()])
def test_qp_outside_the_contract_is_rejected(program):
    with pytest.raises(SolverError, match="QP needs"):
        solve(program)


# -- the polish's eliminated columns, against the full-system polish -----------


def _lstsq_orders(patch):
    """Record the order of every lstsq system solved under ``patch``."""
    orders = []
    lstsq = np.linalg.lstsq

    def recording(a, b, rcond=None):
        orders.append(a.shape[0])
        return lstsq(a, b, rcond=rcond)

    patch.setattr(np.linalg, "lstsq", recording)
    return orders


def _with_and_without_elimination(monkeypatch, run):
    """``run()`` and the orders of its lstsq systems, once as it is and
    once with ``oracles.full_polish`` in place of the polish."""
    results = []
    for polish in (qpsolve._polish, full_polish):
        with monkeypatch.context() as patch:
            patch.setattr(qpsolve, "_polish", polish)
            orders = _lstsq_orders(patch)
            results.append((run(), orders))
    return results


@pytest.mark.parametrize("k, n", [(1, 200), (2, 100), (5, 60)])
def test_relaxation_qp_polish_matches_the_full_polish(k, n, monkeypatch):
    for seed in range(3):
        _, ds = model.sample_planted(n, 20, k, 40 + seed)
        r = model.substream(seed, model.STREAM_PERTURBATION).standard_normal(ds.filter_size)
        program = relax.build(ds, 1e-3, r).program
        # one solve: the same iterate polished both ways
        (rep, core), (ref, full) = _with_and_without_elimination(monkeypatch, lambda: solve(program))
        assert rep.status == ref.status == SolveStatus.OPTIMAL
        np.testing.assert_allclose(rep.x, ref.x, rtol=0.0, atol=1e-9)
        # the n slack-sum columns leave the system, fixed or separable
        assert len(core) == len(full) == 1 and core[0] <= full[0] - n
        # the whole fit, whose generated rows follow the polished iterates
        (fit, _), (fit_ref, _) = _with_and_without_elimination(
            monkeypatch, lambda: relax.block_set_lp(ds, program)[0])
        assert fit.status == fit_ref.status == SolveStatus.OPTIMAL
        np.testing.assert_allclose(fit.x, fit_ref.x, rtol=0.0, atol=1e-9)


def test_phase1_polish_keeps_certificates_at_degenerate_vertices(monkeypatch):
    degenerate = 0
    for k, d in ((1, 6), (2, 8), (3, 12), (5, 20)):
        for n in (20, 40):
            for seed in range(6):
                _, ds = model.sample_planted(n, d, k, seed)
                sets = certify.active_sets(ds.x, model.teacher_filter(ds), k)
                gens, _ = certify.cone_generators(ds, sets)
                r = model.substream(seed + 100, model.STREAM_PERTURBATION).standard_normal(ds.filter_size)
                (cert, core), (ref, full) = _with_and_without_elimination(
                    monkeypatch, lambda: certify.check_cone_condition(gens, -r))
                assert (cert.exists, cert.boundary) == (ref.exists, ref.boundary)
                assert abs(cert.elastic_value - ref.elastic_value) <= 1e-10
                # every sign-bound row of a zero coefficient leaves the system
                # with its column; t is free, so with every coefficient
                # positive nothing leaves
                zero = np.count_nonzero(ref.coefficients <= 1e-9)
                assert core[-1] == full[-1] - 2 * zero
                degenerate += np.count_nonzero(ref.coefficients > 1e-9) < ds.filter_size
    assert degenerate >= 10


def test_polished_pairs_meet_stationarity_on_every_column(monkeypatch):
    """The eliminated columns' rows too: x_U from its closed form and the
    λ of a dropped sign-bound row from its column's stationarity row."""
    polished = []
    polish = qpsolve._polish

    def recording(program, *args, **kwargs):
        candidate = polish(program, *args, **kwargs)
        polished.append((program, candidate))
        return candidate

    monkeypatch.setattr(qpsolve, "_polish", recording)
    for k, n in ((1, 60), (2, 40), (5, 30)):
        _, ds = model.sample_planted(n, 20, k, 50)
        r = model.substream(k, model.STREAM_PERTURBATION).standard_normal(ds.filter_size)
        relax.block_set_lp(ds, relax.build(ds, 1e-3, r).program)
        sets = certify.active_sets(ds.x, model.teacher_filter(ds), k)
        certify.check_cone_condition(certify.cone_generators(ds, sets)[0], -r)
    assert len(polished) >= 6
    for program, candidate in polished:
        assert qpsolve._kkt_measures(program, *candidate)[0] <= 1e-12


def _unstructured_polish_programs():
    """Programs with no separable column and no sign-bound row."""
    _, ds = model.sample_planted(200, 20, 1, 3)
    r = model.substream(3, model.STREAM_PERTURBATION).standard_normal(20)
    yield "k1-relaxation-lp", relax.build(ds, 0.0, r).program
    q, c, a, b = random_feasible_qp(np.random.default_rng(71), 6, 8)
    yield "dense-qp", ConvexProgram(c=c, q=q, a_ineq=a, b_ineq=b)


@pytest.mark.parametrize("program", [pytest.param(p, id=name) for name, p in _unstructured_polish_programs()])
def test_polish_without_structure_is_the_full_polish(program, monkeypatch):
    (rep, core), (ref, full) = _with_and_without_elimination(monkeypatch, lambda: solve(program))
    assert rep.status == SolveStatus.OPTIMAL
    assert core == full and len(core) == 1
    assert _report_bits(rep) == _report_bits(ref)
