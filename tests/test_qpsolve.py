import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import time

from convrelax import model, relax
from convrelax.qpsolve import (
    ConvexProgram,
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
    infeasible_lp,
    lp_vertex_oracle,
    qp_active_set_oracle,
    random_feasible_qp,
    unbounded_lp,
)


def test_unconstrained_projection_qp():
    # min 1/2||x - y||^2 with y = [3, -1]
    rep = solve(ConvexProgram(c=[-3.0, 1.0], q=np.eye(2)))
    assert rep.status == SolveStatus.OPTIMAL
    np.testing.assert_allclose(rep.x, [3.0, -1.0], atol=1e-10)


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


def _dedup_rows_reference(a, b, is_eq):
    """The row loop the vectorized presolve must reproduce index for index."""
    keep = []
    seen = set()
    infeasible = False
    for i in range(a.shape[0]):
        row = a[i]
        if not row.any():
            if (is_eq and b[i] != 0.0) or (not is_eq and b[i] < 0.0):
                infeasible = True
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
    for is_eq in (False, True):
        keep, infeasible = _dedup_rows(a, b, is_eq)
        ref_keep, ref_infeasible = _dedup_rows_reference(a, b, is_eq)
        np.testing.assert_array_equal(keep, ref_keep)
        assert keep.dtype == ref_keep.dtype
        assert infeasible == ref_infeasible
    # -0.0 and 0.0 tell rows apart; a row of signed zeros is still a zero row
    a = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, -0.0], [0.0, 1.0]])
    b = np.array([1.0, 1.0, 1.0, -2.0, -0.0])
    keep, infeasible = _dedup_rows(a, b, is_eq=False)
    assert keep.tolist() == [0, 1, 4] and infeasible
    assert _dedup_rows(np.zeros((0, 3)), np.zeros(0), is_eq=True)[0].size == 0


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
    program = relax.build(ds, 0.0, np.ones(d // k)).program
    a, b = program.a_ineq, program.b_ineq
    reps = 15 if k == 1 else 3
    assert _best_ms(_dedup_rows, a, b, False, reps=reps) < _best_ms(_dedup_rows_reference, a, b, False, reps=reps)


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
    q_eq = program.n_eq
    stacked = np.vstack([program.a_eq, G[generic]])
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
        A[q_eq + r, next_col + r] = 1.0
    b = np.concatenate([program.b_eq, h[generic]])
    return A, b, c, nonneg, split, bound_row, generic


@pytest.mark.parametrize("seed", range(8))
def test_lp_standard_form_matches_reference_loops(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    # sign-bound rows (some repeated with other scales, some with h != 0 or
    # a positive entry) mixed with dense rows and a few equalities
    bounds = []
    for _ in range(int(rng.integers(0, 2 * m + 1))):
        row = np.zeros(m)
        row[rng.integers(m)] = -rng.choice([1.0, 2.0]) * rng.choice([1.0, 1.0, -1.0])
        bounds.append(row)
    dense = rng.standard_normal((int(rng.integers(0, 4)), m))
    G = np.vstack([*bounds, dense]) if bounds or dense.size else np.zeros((0, m))
    G = G[rng.permutation(G.shape[0])]
    h = np.where(rng.random(G.shape[0]) < 0.8, 0.0, 1.0)
    q = int(rng.integers(0, 3))
    program = ConvexProgram(c=rng.standard_normal(m), a_ineq=G, b_ineq=h,
                            a_eq=rng.standard_normal((q, m)), b_eq=rng.standard_normal(q))
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
    assert _presolve(kept).program is kept
    dropped = ConvexProgram(c=[1.0, -1.0], a_ineq=np.vstack([a, a[:1]]), b_ineq=np.ones(7))
    reduced = _presolve(dropped).program
    assert reduced is not dropped and reduced.n_ineq == 6
    # a column-major program is copied row-major, as every reduced one is
    fortran = ConvexProgram(c=[1.0, -1.0], a_ineq=np.asfortranarray(a), b_ineq=np.ones(6))
    assert _presolve(fortran).program.a_ineq.flags.c_contiguous


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


def test_equality_constrained_qp():
    # min 1/2 x^T x subject to x1 + x2 = 2 -> x = [1, 1]
    rep = solve(ConvexProgram(c=[0.0, 0.0], q=np.eye(2), a_eq=[[1.0, 1.0]], b_eq=[2.0]))
    assert rep.status == SolveStatus.OPTIMAL
    np.testing.assert_allclose(rep.x, [1.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(rep.nu, [-1.0], atol=1e-8)


def test_inconsistent_equalities_rejected():
    program = ConvexProgram(
        c=[0.0], q=[[1.0]], a_eq=[[1.0], [1.0]], b_eq=[0.0, 1.0]
    )
    assert solve(program).status == SolveStatus.PRIMAL_INFEASIBLE


def test_unbounded_qp_flat_direction():
    # zero curvature along x2 with a pure linear pull and no constraint
    program = ConvexProgram(c=[0.0, -1.0], q=np.diag([1.0, 0.0]))
    assert solve(program).status == SolveStatus.DUAL_UNBOUNDED


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


def test_program_json_round_trip():
    rng = np.random.default_rng(3)
    q, c, a, b = random_feasible_qp(rng, 3, 4)
    program = ConvexProgram(c=c, q=q, a_ineq=a, b_ineq=b, a_eq=[[1.0, 1.0, 1.0]], b_eq=[0.5])
    back = ConvexProgram.from_json(program.to_json())
    np.testing.assert_array_equal(back.q, program.q)
    np.testing.assert_array_equal(back.c, program.c)
    np.testing.assert_array_equal(back.a_ineq, program.a_ineq)
    np.testing.assert_array_equal(back.b_ineq, program.b_ineq)
    np.testing.assert_array_equal(back.a_eq, program.a_eq)
    np.testing.assert_array_equal(back.b_eq, program.b_eq)


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
