import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convrelax import certify, model, qpsolve, relax, sweep
from convrelax.qpsolve import (
    ConvexProgram,
    SolveReport,
    SolverError,
    SolveStatus,
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
    highs_qp_verdict,
    infeasible_lp,
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


def _unbounded_tall_lp(n, d, seed):
    """n rows over d variables, each turned against a direction u, with
    cost −u: feasible at 0, and unbounded along u."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(d)
    a = rng.standard_normal((n, d))
    a[a @ u > 0] *= -1.0
    return -u, a, rng.uniform(0.5, 2.0, n)


def _tall_lps():
    """(id, c, a, b, max_iter, status, _hsd calls) of LPs with at least as
    many rows as variables, covering every status."""
    rng = np.random.default_rng(17)
    a = rng.standard_normal((40, 3))
    b = a @ rng.standard_normal(3) + rng.uniform(0.1, 1.0, 40)
    c = rng.standard_normal(3)
    yield "optimal", c, a, b, 200, SolveStatus.OPTIMAL, 1
    yield "max-iterations", c, a, b, 2, SolveStatus.MAX_ITERATIONS, 1
    # one row scaled by 1e300 overflows the normal matrix
    huge = a.copy()
    huge[0] *= 1e300
    yield "numerical-failure", c, huge, b, 200, SolveStatus.NUMERICAL_FAILURE, 1
    # every row scaled, b left alone: the normal matrix overflows, and
    # OpenBLAS may still factor it with info 0
    for scale in (1e160, 1e200):
        yield f"rows-of-{scale:g}", c, a * scale, b, 200, SolveStatus.NUMERICAL_FAILURE, 1
    # x <= 1 and x >= 2 among four rows over one variable: the dual is
    # feasible for every cost, and its improving ray decides
    a1, b1 = np.array([[1.0], [-1.0], [1.0], [2.0]]), np.array([1.0, -2.0, 3.0, 5.0])
    for c1 in (1.0, -1.0, 0.0):
        yield f"infeasible-c={c1}", np.array([c1]), a1, b1, 200, SolveStatus.PRIMAL_INFEASIBLE, 1
    # x1 <= -1 and x1 >= 0 with a descent ray along x2: the dual is
    # infeasible, and the zero-cost dual decides
    a2 = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, -1.0]])
    b2 = np.array([-1.0, 0.0, 3.0, 0.0, 1.0])
    yield "infeasible-descent-ray", np.array([0.0, -1.0]), a2, b2, 200, SolveStatus.PRIMAL_INFEASIBLE, 2
    # the same LP without its row x2 >= 0: twice as many rows as variables
    yield ("infeasible-descent-ray-4x2", np.array([0.0, -1.0]), a2[[0, 1, 2, 4]], b2[[0, 1, 2, 4]], 200,
           SolveStatus.PRIMAL_INFEASIBLE, 2)
    # free variables, optimal at the vertex (0.8, 0.6)
    a3, b3 = np.array([[-1.0, -2.0], [-3.0, -1.0], [1.0, -1.0]]), np.array([-2.0, -3.0, 1.0])
    yield "optimal-3x2", np.array([1.0, 1.0]), a3, b3, 200, SolveStatus.OPTIMAL, 1
    # the ray x1 = x2 -> inf keeps x1 - x2 <= 1
    a4, b4 = np.array([[1.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]), np.array([1.0, 0.0, 0.0])
    yield "unbounded-3x3", np.array([-1.0, 0.0, 0.0]), a4, b4, 200, SolveStatus.DUAL_UNBOUNDED, 2
    for n, d in ((5, 2), (2000, 20)):
        yield f"unbounded-n={n}-d={d}", *_unbounded_tall_lp(n, d, 3), 200, SolveStatus.DUAL_UNBOUNDED, 2


def _row_scaled_tall_lps():
    """(id, c, a, b, scales, status, _hsd calls) of tall LPs that are
    solved with row i of a and b_i multiplied by scales[i].  The verdict
    is that of the unscaled twin: HiGHS calls the first two infeasible as
    scaled."""
    _, c, a, b, *_ = next(_tall_lps())
    for e in (50, 100):
        scales = np.ones(a.shape[0])
        scales[0] = 10.0**e
        yield f"optimal-row0-x1e+{e}", c, a, b, scales, SolveStatus.OPTIMAL, 1
    # three LPs of a seeded fuzz panel: integer entries in −3..3, each row
    # and its b_i scaled by 10^(−6..6)
    yield ("fuzz-544-optimal", np.array([-2.0, -2.0]), np.array([[-2.0, 0.0], [2.0, 2.0]]), np.array([1.0, 1.0]),
           10.0 ** np.array([-4, -5]), SolveStatus.OPTIMAL, 1)
    yield ("fuzz-1678-unbounded", np.array([1.0, 2.0, 1.0, -3.0, 0.0]),
           np.array([[-1, 0, -2, -3, 2], [-1, 2, -1, 2, 1], [1, 1, -3, 0, -2], [0, -2, 1, -1, 2],
                     [1, -1, 0, 0, 2], [-3, -3, 0, 3, -3], [0, -2, 1, -2, 0]], dtype=float),
           np.array([1.0, -3.0, 0.0, 0.0, -2.0, 2.0, -2.0]), 10.0 ** np.array([-4, 5, 2, 1, 3, -3, 6]),
           SolveStatus.DUAL_UNBOUNDED, 2)
    yield ("fuzz-3844-unbounded", np.array([-2.0, 3.0, -2.0, -2.0, -1.0]),
           np.array([[-3, 1, 0, 3, 2], [0, 3, -3, 2, 2], [-1, -1, 2, 1, 2], [-3, -2, 0, -2, 1],
                     [1, -3, -3, -3, 1], [0, -1, 0, 1, -3], [3, -2, -2, -3, 0]], dtype=float),
           np.array([0.0, 0.0, -3.0, -1.0, -3.0, -2.0, 3.0]), 10.0 ** np.array([6, -3, -1, 4, 5, -5, -3]),
           SolveStatus.DUAL_UNBOUNDED, 2)


_HIGHS_STATUS = {SolveStatus.OPTIMAL: "optimal", SolveStatus.PRIMAL_INFEASIBLE: "infeasible",
                 SolveStatus.DUAL_UNBOUNDED: "unbounded"}


@pytest.mark.parametrize(
    "c, a, b, max_iter, status, hsd_calls, scales",
    [pytest.param(*case[1:], None, id=case[0]) for case in _tall_lps()]
    + [pytest.param(c, a, b, 200, status, calls, scales, id=name)
       for name, c, a, b, scales, status, calls in _row_scaled_tall_lps()])
def test_dual_route_decides_every_tall_lp(monkeypatch, c, a, b, max_iter, status, hsd_calls, scales):
    # at least as many rows as variables pick the dual route, which decides
    # every outcome without the column presolve of wide LPs; only an
    # infeasible dual takes the zero-cost solve.  Scaling a row leaves the
    # verdict as it is: the row-scaled LPs are checked against their
    # unscaled twin
    def wide(*args):
        raise AssertionError("the wide LP solver ran")

    calls = []
    hsd = qpsolve._hsd

    def counted_hsd(*args):
        calls.append(args)
        return hsd(*args)

    monkeypatch.setattr(qpsolve, "_solve_wide", wide)
    monkeypatch.setattr(qpsolve, "_hsd", counted_hsd)
    program = ConvexProgram(c=c, a_ineq=a, b_ineq=b)
    assert program.n_ineq >= program.n_vars
    if scales is not None:
        program = ConvexProgram(c=c, a_ineq=a * scales[:, None], b_ineq=b * scales)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = solve(program, max_iter=max_iter)
    assert rep.status == status and len(calls) == hsd_calls
    if status == SolveStatus.MAX_ITERATIONS:
        # the iterate −y/τ, x/τ of the cut-off solve, not zeros
        assert rep.iterations == max_iter and np.all(np.isfinite(rep.x)) and np.all(np.isfinite(rep.lam))
        assert rep.lam.any()
    if status in _HIGHS_STATUS:
        highs_status, value, _ = highs_lp(c, a, b)
        assert highs_status == _HIGHS_STATUS[status]
    if status == SolveStatus.OPTIMAL:
        assert abs(c @ rep.x - value) <= 1e-7 * (1.0 + abs(value))
        if scales is not None:
            unscaled = solve(ConvexProgram(c=c, a_ineq=a, b_ineq=b))
            assert np.abs(rep.x - unscaled.x).max() <= 1e-9


@pytest.mark.parametrize("c, status", [(np.zeros(2), SolveStatus.OPTIMAL),
                                       (np.array([0.0, 1.0]), SolveStatus.DUAL_UNBOUNDED)])
def test_lp_with_no_row_is_decided_without_a_solve(monkeypatch, c, status):
    # every x is feasible: the optimum is 0 iff the cost is zero
    def hsd(*args):
        raise AssertionError("_hsd ran")

    monkeypatch.setattr(qpsolve, "_hsd", hsd)
    rep = solve(ConvexProgram(c=c, a_ineq=np.zeros((0, 2)), b_ineq=np.zeros(0)))
    assert rep.status == status and rep.iterations == 0 and not rep.x.any()


def _short_and_tall_lps():
    rng = np.random.default_rng(17)
    c, a, b = bounded_feasible_lp(rng, 3)
    yield "short", ConvexProgram(c=c, a_ineq=a, b_ineq=b)
    a = rng.standard_normal((40, 3))
    b = a @ rng.standard_normal(3) + rng.uniform(0.1, 1.0, 40)
    yield "tall", ConvexProgram(c=rng.standard_normal(3), a_ineq=a, b_ineq=b)
    # two rows over three variables, solved over their span: feasible at
    # 0, and bounded since c = −aᵀλ with λ > 0
    a = rng.standard_normal((2, 3))
    yield "wide", ConvexProgram(c=-a.T @ rng.uniform(0.5, 1.5, 2), a_ineq=a, b_ineq=rng.uniform(0.5, 2.0, 2))


@pytest.mark.parametrize("program", [pytest.param(p, id=name) for name, p in _short_and_tall_lps()])
def test_hsd_iteration_cap_is_max_iterations(program):
    assert solve(program).status == SolveStatus.OPTIMAL
    rep = solve(program, max_iter=1)
    assert rep.status == SolveStatus.MAX_ITERATIONS and rep.iterations == 1
    assert np.all(np.isfinite(rep.x)) and np.all(np.isfinite(rep.lam))


def test_overflow_ends_numerical_failure_without_a_warning():
    # every row of a feasible, bounded 40×3 LP multiplied by 1e200: its
    # normal matrix overflows; the solver's report is the outcome, with no
    # numpy warning on its way and none raised under the caller's seterr
    rng = np.random.default_rng(17)
    a = rng.standard_normal((40, 3))
    b = a @ rng.standard_normal(3) + rng.uniform(0.1, 1.0, 40)
    program = ConvexProgram(c=rng.standard_normal(3), a_ineq=a * 1e200, b_ineq=b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = solve(program)
        assert rep.status == SolveStatus.NUMERICAL_FAILURE
        with np.errstate(all="raise"):
            assert _report_bits(solve(program)) == _report_bits(rep)


def _not_converging(calls):
    """A stand-in for a numpy factorization that records its calls and
    raises LinAlgError."""
    def factorize(a, *args, **kwargs):
        calls.append(a)
        raise np.linalg.LinAlgError("did not converge")
    return factorize


def test_a_factorization_that_does_not_converge_ends_numerical_failure(monkeypatch):
    # a wide LP's span basis (an SVD) and a dense QP's start y = Q⁺b (a
    # pseudoinverse): numpy's LinAlgError is a ValueError, which a caller
    # would take for bad input
    wide = ConvexProgram(c=[-1.0, -1.0, 0.0], a_ineq=[[1.0, 1.0, 0.0]], b_ineq=[1.0])
    qp = ConvexProgram(c=[1.0, -1.0], q=[[2.0, 0.0], [0.0, 1.0]], a_ineq=-np.eye(2), b_ineq=[0.0, 0.0])
    assert solve(wide).status == solve(qp).status == SolveStatus.OPTIMAL
    calls = []
    monkeypatch.setattr(np.linalg, "svd", _not_converging(calls))
    monkeypatch.setattr(np.linalg, "pinv", _not_converging(calls))
    for program in (qp, wide):
        rep = solve(program)
        assert rep.status == SolveStatus.NUMERICAL_FAILURE and rep.iterations == 0
    assert len(calls) == 2


def test_a_polish_whose_svd_does_not_converge_is_skipped(monkeypatch):
    # three rows tight at the vertex x0, each given twice: the polish's
    # multiplier check takes the SVD of the six active rows
    rng = np.random.default_rng(27)
    x0, g_t, g_s = rng.standard_normal(3), rng.standard_normal((3, 3)), rng.standard_normal((4, 3))
    program = ConvexProgram(c=-g_t.T @ rng.uniform(0.5, 2.0, 3), a_ineq=np.vstack([g_t, g_t, g_s]),
                            b_ineq=np.concatenate([g_t @ x0, g_t @ x0, g_s @ x0 + rng.uniform(0.5, 2.0, 4)]))
    monkeypatch.setattr(qpsolve, "_polish", lambda *args: None)
    unpolished = _report_bits(solve(program))
    monkeypatch.undo()
    calls = []
    monkeypatch.setattr(np.linalg, "svd", _not_converging(calls))
    assert _report_bits(solve(program)) == unpolished
    assert [a.shape for a in calls] == [(6, 3)]


def _nan_step_programs():
    """(name, program, normal-matrix solves per iteration): an LP makes
    one for (p, q) and one per stage; the relaxation QP refines its
    corrector with one more."""
    yield "tall-lp", dict(_short_and_tall_lps())["tall"], 3
    _, ds = model.sample_planted(40, 5, 1, 3)
    yield "relaxation-qp", relax.build(ds, 1e-3, np.ones(5)), 4


@pytest.mark.parametrize("program, per_iter", [pytest.param(p, n, id=name) for name, p, n in _nan_step_programs()])
def test_non_finite_step_ends_numerical_failure_at_its_iteration(program, per_iter, monkeypatch):
    # one normal-matrix solve returns NaN: whichever of the iteration's
    # solves it is, the solve ends NumericalFailure in that iteration
    ref = solve(program)
    assert ref.status == SolveStatus.OPTIMAL and ref.iterations > 3
    dpotrs = qpsolve.dpotrs
    for call in range(per_iter + 1, 3 * per_iter + 1):
        calls = [0]

        def nan_on_one_call(*args, **kwargs):
            out, info = dpotrs(*args, **kwargs)
            calls[0] += 1
            return (np.full_like(out, np.nan) if calls[0] == call else out), info

        monkeypatch.setattr(qpsolve, "dpotrs", nan_on_one_call)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve(program)
        assert rep.status == SolveStatus.NUMERICAL_FAILURE, call
        assert rep.iterations == (call - 1) // per_iter + 1, call
        assert not rep.x.any() and not rep.lam.any()


def test_optimal_claim_that_misses_tol_is_downgraded(monkeypatch):
    # the embedding claims Optimal after one step and the polish gives up:
    # the recomputed KKT residuals decide the status
    hsd = qpsolve._hsd

    def one_step_claimed_optimal(A, b, c, tol, max_iter, kkt=None):
        *iterate, _, iters = hsd(A, b, c, tol, 1, kkt)
        return (*iterate, SolveStatus.OPTIMAL, iters)

    monkeypatch.setattr(qpsolve, "_hsd", one_step_claimed_optimal)
    monkeypatch.setattr(qpsolve, "_polish", lambda *args, **kwargs: None)
    for _, program in _short_and_tall_lps():
        rep = solve(program, tol=1e-8)
        assert rep.status == SolveStatus.MAX_ITERATIONS and rep.iterations == 1
        assert max(rep.primal_residual, rep.dual_residual, rep.complementarity_gap) > 1e-8


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
    # an all-zero row is dropped and its multiplier reads zero; a duplicated
    # row is solved as given, its multiplier split between the copies
    program = ConvexProgram(
        c=[-1.0],
        a_ineq=[[1.0], [1.0], [0.0], [-1.0]],
        b_ineq=[1.0, 1.0, 5.0, 0.0],
    )
    rep = solve(program)
    assert rep.status == SolveStatus.OPTIMAL
    np.testing.assert_allclose(rep.x, [1.0], atol=1e-9)
    assert rep.lam[2] == 0.0
    assert min(rep.lam[:2]) >= 0.0 and abs(rep.lam[0] + rep.lam[1] - 1.0) <= 1e-8
    assert check_kkt(program, rep, tol=1e-8).passed
    # a zero row with negative bound is infeasible outright, -0.0 entries
    # and all
    for row in ([0.0], [-0.0]):
        bad = solve(ConvexProgram(c=[1.0], a_ineq=[[1.0], row], b_ineq=[1.0, -1.0]))
        assert bad.status == SolveStatus.PRIMAL_INFEASIBLE and bad.iterations == 0


def _duplicated_row_programs():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 5))
    b = a @ rng.standard_normal(5) + rng.uniform(0.1, 1.0, 40)
    yield "lp-dual", ConvexProgram(c=rng.standard_normal(5), a_ineq=a, b_ineq=b)
    c, a, b = bounded_feasible_lp(rng, 6)
    yield "lp-primal", ConvexProgram(c=c, a_ineq=a, b_ineq=b)
    _, ds = model.sample_planted(30, 6, 1, 3)
    r = model.substream(3, model.STREAM_PERTURBATION).standard_normal(6)
    yield "relaxation-qp", relax.build(ds, 1e-3, r)


@pytest.mark.parametrize("program", [pytest.param(p, id=name) for name, p in _duplicated_row_programs()])
def test_duplicate_rows_are_solved_as_given(program):
    ref = solve(program)
    assert ref.status == SolveStatus.OPTIMAL
    active, inactive = np.flatnonzero(ref.lam > 1e-9), np.flatnonzero(ref.lam <= 1e-9)
    assert active.size >= 3 and inactive.size >= 1
    # three active rows twice, the first of them three times, and an
    # inactive row twice, shuffled; ``origin`` maps each row to its original
    extra = np.concatenate([active[:3], active[:1], inactive[:1]])
    origin = np.random.default_rng(4).permutation(np.concatenate([np.arange(program.n_ineq), extra]))
    # rows of the dense twin: a split QP's duplicates are split again by solve
    full = program.dense()
    dup = ConvexProgram(c=full.c, q=full.q, a_ineq=full.a_ineq[origin], b_ineq=full.b_ineq[origin])
    # the duplicates leave the route unchanged
    assert (dup.n_ineq < dup.n_vars) == (program.n_ineq < program.n_vars)
    rep = solve(dup)
    assert rep.status == ref.status
    np.testing.assert_allclose(rep.x, ref.x, rtol=0.0, atol=1e-9)
    assert rep.lam.min() >= 0.0
    group_sums = np.bincount(origin, weights=rep.lam, minlength=program.n_ineq)
    np.testing.assert_allclose(group_sums, ref.lam, rtol=0.0, atol=1e-8)
    assert check_kkt(dup, rep, tol=1e-8).passed


def test_presolve_returns_the_program_when_no_row_drops():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 2))
    kept = ConvexProgram(c=[1.0, -1.0], a_ineq=a, b_ineq=np.ones(6))
    assert _presolve(kept)[0] is kept
    duplicated = ConvexProgram(c=[1.0, -1.0], a_ineq=np.vstack([a, a[:1]]), b_ineq=np.ones(7))
    assert _presolve(duplicated)[0] is duplicated
    dropped = ConvexProgram(c=[1.0, -1.0], a_ineq=np.vstack([a, np.zeros((1, 2))]), b_ineq=np.ones(7))
    reduced = _presolve(dropped)[0]
    assert reduced is not dropped and reduced.n_ineq == 6
    assert reduced.a_ineq.tobytes() == a.tobytes()
    # a column-major program is copied row-major, as every reduced one is
    fortran = ConvexProgram(c=[1.0, -1.0], a_ineq=np.asfortranarray(a), b_ineq=np.ones(6))
    assert _presolve(fortran)[0].a_ineq.flags.c_contiguous


def test_report_reuses_the_measures_of_the_refined_pair(monkeypatch):
    # with every row kept, the report carries the KKT measures that
    # _finalize took on the pair it kept, on presolve's row-major rows
    # whatever the caller's layout; when presolve drops a row, they are
    # taken once more on the original program
    measures = qpsolve._kkt_measures
    calls = []

    def counted(program, x, lam):
        calls.append(program)
        return measures(program, x, lam)

    monkeypatch.setattr(qpsolve, "_kkt_measures", counted)
    rng = np.random.default_rng(5)
    a = np.vstack([np.eye(2), -np.eye(2), rng.standard_normal((3, 2))])
    kept = ConvexProgram(c=[1.0, -1.0], a_ineq=a, b_ineq=np.ones(7))
    fortran = ConvexProgram(c=[1.0, -1.0], a_ineq=np.asfortranarray(a), b_ineq=np.ones(7))
    dropped = ConvexProgram(c=[1.0, -1.0], a_ineq=np.vstack([a, np.zeros((1, 2))]), b_ineq=np.ones(8))
    # (program, the program the report is measured on, measures taken on
    # the program, measures taken in all): the raw and the polished pair,
    # and the report's when a row was dropped
    for program, measured, on_it, taken in ((kept, kept, 2, 2), (fortran, kept, 0, 2), (dropped, dropped, 1, 3)):
        calls.clear()
        rep = solve(program)
        assert rep.status == SolveStatus.OPTIMAL
        assert sum(p is program for p in calls) == on_it and len(calls) == taken
        stat, feas, comp = measures(measured, rep.x, rep.lam)
        assert (rep.dual_residual, rep.primal_residual, rep.complementarity_gap) == (stat, feas, comp)


def test_report_does_not_depend_on_the_row_layout():
    # the k=1 relaxation LP as built (row-major) and column-major: presolve
    # copies the latter row-major, and the report is measured on that copy
    for seed in range(10):
        _, ds = model.sample_planted(400, 20, 1, seed)
        r = model.substream(seed, model.STREAM_PERTURBATION).standard_normal(ds.filter_size)
        program = relax.build(ds, 0.0, r)
        fortran = ConvexProgram(c=program.c, a_ineq=np.asfortranarray(program.a_ineq), b_ineq=program.b_ineq)
        rep = solve(program)
        assert rep.status == SolveStatus.OPTIMAL
        assert _report_bits(solve(fortran)) == _report_bits(rep)


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


@pytest.mark.parametrize("seed", range(10))
def test_stacked_ratio_test_is_the_smaller_of_the_two(seed):
    # _hsd holds x and z as the halves of one buffer, and their directions
    # likewise, and takes one ratio test over both, for LPs and QPs alike
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    halves = [np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-8, 8, n) for _ in range(2)]
    halves[1] = np.where(rng.random(n) < 0.2, 0.0, halves[1])
    directions = [
        rng.standard_normal(n),
        np.abs(rng.standard_normal(n)),  # all positive: no bound
        -np.abs(rng.standard_normal(n)) - 1e-300,  # all negative
        np.where(rng.random(n) < 0.3, 0.0, rng.standard_normal(n)),
        np.where(rng.random(n) < 0.3, -0.0, rng.standard_normal(n)),
    ]
    for dx in directions:
        for dz in directions:
            stacked = _max_step(np.concatenate(halves), np.concatenate([dx, dz]))
            smaller = min(_max_step(halves[0], dx), _max_step(halves[1], dz))
            assert np.float64(stacked).tobytes() == np.float64(smaller).tobytes()


def test_q_symmetry_is_checked_to_1e_12():
    for gap in (1e-12, -1e-12, 2e-12, -2e-12):
        q = np.eye(3)
        q[0, 2] = gap
        if abs(gap) <= 1e-12:
            ConvexProgram(c=np.ones(3), q=q)
        else:
            with pytest.raises(SolverError, match="symmetric within 1e-12"):
                ConvexProgram(c=np.ones(3), q=q)
    # the same verdicts as allclose(q, q.T, atol=1e-12, rtol=0)
    rng = np.random.default_rng(5)
    verdicts = []
    for _ in range(200):
        q = rng.standard_normal((4, 4)) * 10.0 ** rng.integers(-3, 1)
        q = q + q.T
        i, j = rng.choice(4, size=2, replace=False)
        q[i, j] += rng.uniform(-3e-12, 3e-12)
        try:
            ConvexProgram(c=np.ones(4), q=q)
            verdicts.append(True)
        except SolverError:
            verdicts.append(False)
        assert verdicts[-1] == np.allclose(q, q.T, atol=1e-12, rtol=0.0)
    assert 0 < sum(verdicts) < len(verdicts)


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
    # a split program too, its separable part given back as a mapping
    _, ds = model.sample_planted(6, 4, 2, 3)
    split = relax.build(ds, 1e-3, np.ones(2))
    back = ConvexProgram(**json.loads(model.to_json(split)))
    for name in ("c", "q", "a_ineq", "b_ineq"):
        np.testing.assert_array_equal(getattr(back, name), getattr(split, name))
    for name in ("q", "col", "coef"):
        np.testing.assert_array_equal(getattr(back.sep, name), getattr(split.sep, name))
    # and a program with no row, whose empty column indices read back as floats
    rowless = ConvexProgram(c=[1.0, -1.0])
    back = ConvexProgram(**json.loads(model.to_json(rowless)))
    assert back.n_ineq == 0 and back.sep.col.dtype.kind == "i" and back.is_lp


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


# the seed of the k=1 relaxation trial at n=2000, d=20 that the bench's
# sweep-k1 panel draws at --seed 13: an Optimal x whose interior-point
# multipliers miss tol (stationarity 1.3e-8)
_REFIT_SEED = sweep.cell_trial_seed(2788924227, sweep.METHOD_RELAXATION, 2000, 20, 0)


@pytest.mark.parametrize("n, d, seed", [(400, 20, 1), (2000, 10, 2), (120, 10, 3), (40, 8, 4),
                                        (16, 8, 5), (6, 10, 6), (40, 40, 0), (80, 80, 2),
                                        (2000, 20, _REFIT_SEED),
                                        (50, 60, sweep.cell_trial_seed(0, sweep.METHOD_RELAXATION, 50, 60, 1)),
                                        (75, 80, sweep.cell_trial_seed(0, sweep.METHOD_RELAXATION, 75, 80, 0))])
def test_k1_relaxation_lp_matches_highs(n, d, seed):
    # n >= d takes the dual route, n < d first the column presolve; n < d
    # is unbounded, and so are the square (40, 40, 0) and (80, 80, 2),
    # feasible at w = 0.  The last two are trials of the paper's grid at
    # master seed 0 that the standard form called PrimalInfeasible
    _, ds = model.sample_planted(n, d, 1, seed)
    r = model.substream(seed, model.STREAM_PERTURBATION).standard_normal(d)
    program = relax.build(ds, 0.0, r)
    _assert_matches_highs(program.c, program.a_ineq, program.b_ineq)


def _wide_lps():
    """(id, program, status) of LPs with fewer rows than variables."""
    # x1 <= -1 against x1 >= 0, and x4, which no row holds, lowers the cost
    yield "infeasible-descent-ray-3x4", ConvexProgram(
        c=[0.0, 0.0, 0.0, -1.0], a_ineq=[[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
        b_ineq=[-1.0, 0.0, 2.0]), SolveStatus.PRIMAL_INFEASIBLE
    # c = −Gᵀλ with λ > 0 lies in the rows' span: the optimum is every row
    # tight, feasible at 0; the last row repeats the first, doubled, so G
    # has rank 3 over 4 rows
    rng = np.random.default_rng(29)
    g, h = rng.standard_normal((3, 7)), rng.uniform(0.5, 2.0, 3)
    for name, a, b in (("optimal-3x7", g, h),
                       ("optimal-rank-3-4x7", np.vstack([g, 2.0 * g[:1]]), np.append(h, 2.0 * h[0]))):
        c = -a.T @ rng.uniform(0.5, 1.5, a.shape[0])
        yield name, ConvexProgram(c=c, a_ineq=a, b_ineq=b), SolveStatus.OPTIMAL


@pytest.mark.parametrize("program, status", [pytest.param(*case[1:], id=case[0]) for case in _wide_lps()])
def test_wide_lp_matches_highs(program, status):
    assert program.n_ineq < program.n_vars
    rep = solve(program)
    highs_status, value, _ = highs_lp(program.c, program.a_ineq, program.b_ineq)
    assert rep.status == status == STATUS_OF_HIGHS[highs_status]
    if status == SolveStatus.OPTIMAL:
        assert check_kkt(program, rep, qpsolve.DEFAULT_TOL).passed
        assert abs(program.c @ rep.x - value) <= 1e-8 * (1.0 + abs(value))
        # every row is tight at the optimum, and x lies in the rows' span:
        # the minimum-norm solution of G·x = h
        np.testing.assert_allclose(rep.x, np.linalg.pinv(program.a_ineq) @ program.b_ineq, rtol=0.0, atol=1e-9)


def _wide_panel():
    """(index, row scale, program) of 121 programs with fewer rows than
    variables, 1..4 rows over 2..8 variables, at row scales 1, 1e100,
    1e200, 1e300 and 1e-300, h scaled on odd draws; one in three has a
    cost −Gᵀμ/max(scale, 1), μ > 0, and one in five a rank-2 Q."""
    rng = np.random.default_rng(0)
    index = 0
    for scale in (1.0, 1e100, 1e200, 1e300, 1e-300):
        for t in range(30):
            m, n = rng.integers(1, 5), rng.integers(2, 9)
            if not m < n:
                continue
            g = rng.standard_normal((m, n)) * scale
            h = rng.standard_normal(m) * (scale if t % 2 else 1.0)
            c = rng.standard_normal(n)
            if t % 3 == 0:
                c = -g.T @ rng.uniform(0.5, 2.0, m) / max(scale, 1.0)
            q = None
            if t % 5 == 0:
                b = rng.standard_normal((2, n))
                q = b.T @ b
            yield index, scale, ConvexProgram(c=c, q=q, a_ineq=g, b_ineq=h)
            index += 1


def test_wide_lps_with_rows_of_1e100_take_the_verdict_of_their_unscaled_twin():
    # three unbounded LPs and an optimal one, whose rows of 1e100 must
    # not keep their span basis from deciding them
    verdicts = []
    for i, scale, program in _wide_panel():
        if i in (23, 28, 35, 44):
            assert program.is_lp and scale == 1e100
            highs = STATUS_OF_HIGHS[highs_lp(program.c, program.a_ineq / scale, program.b_ineq / scale)[0]]
            assert solve(program).status == highs, i
            verdicts.append(highs)
    assert verdicts == [SolveStatus.DUAL_UNBOUNDED] * 3 + [SolveStatus.OPTIMAL]


@pytest.mark.parametrize("shape", ["wide", "tall"])
def test_lps_match_highs_on_a_seeded_panel(monkeypatch, shape):
    # 1,000 LPs of m variables with entries in −3..3, three in ten with a
    # cost in the rows' span: wide ones with 1..m−1 rows, and tall ones
    # with m..2m rows, whose τ → 0 exits on the dual route decide them;
    # every interior point they run solves the dual of an LP with no more
    # variables than rows
    hsd = qpsolve._hsd

    def not_wide(A, *args):
        assert A.shape[0] <= A.shape[1]
        return hsd(A, *args)

    monkeypatch.setattr(qpsolve, "_hsd", not_wide)
    rng = np.random.default_rng(2026)
    verdicts = dict.fromkeys(STATUS_OF_HIGHS, 0)
    for _ in range(1000):
        m = int(rng.integers(2, 8))
        rows = rng.integers(1, m) if shape == "wide" else rng.integers(m, 2 * m + 1)
        a = rng.integers(-3, 4, (int(rows), m)).astype(float)
        b = rng.integers(-3, 4, a.shape[0]).astype(float)
        c = a.T @ rng.integers(-3, 4, a.shape[0]) if rng.random() < 0.3 else rng.integers(-3, 4, m).astype(float)
        rep = solve(ConvexProgram(c=c, a_ineq=a, b_ineq=b))
        status, value, _ = highs_lp(c, a, b)
        assert rep.status == STATUS_OF_HIGHS[status], (c, a, b)
        if status == "optimal":
            assert abs(c @ rep.x - value) <= 1e-7 * (1.0 + abs(value)), (c, a, b)
        verdicts[status] += 1
    assert min(verdicts.values()) >= 1


def test_multipliers_are_refitted_only_when_the_kept_pair_misses_tol(monkeypatch):
    refit = qpsolve._nnls_multipliers
    calls = []

    def counted(program, x, lam):
        calls.append(program)
        return refit(program, x, lam)

    monkeypatch.setattr(qpsolve, "_nnls_multipliers", counted)
    pm, ds = model.sample_planted(2000, 20, 1, _REFIT_SEED)
    r = model.substream(_REFIT_SEED, model.STREAM_PERTURBATION).standard_normal(20)
    program = relax.build(ds, 0.0, r)
    rep = solve(program)
    assert rep.status == SolveStatus.OPTIMAL and len(calls) == 1
    assert check_kkt(program, rep, qpsolve.DEFAULT_TOL).passed
    assert np.max(np.abs(rep.x - pm.w_star)) <= 1e-9
    # without the refit the same x is downgraded
    monkeypatch.setattr(qpsolve, "_nnls_multipliers", lambda *args: None)
    downgraded = solve(program)
    assert downgraded.status == SolveStatus.MAX_ITERATIONS and downgraded.dual_residual > qpsolve.DEFAULT_TOL
    assert downgraded.x.tobytes() == rep.x.tobytes()
    # a pair that meets tol never reaches the refit
    calls.clear()
    monkeypatch.setattr(qpsolve, "_nnls_multipliers", counted)
    for _, lp in _short_and_tall_lps():
        assert solve(lp).status == SolveStatus.OPTIMAL
    assert solve(relax.build(ds, 0.0, -r)).status == SolveStatus.OPTIMAL
    assert not calls


@pytest.mark.parametrize("make", [bounded_feasible_lp, infeasible_lp, unbounded_lp],
                         ids=lambda make: make.__name__)
def test_random_lps_match_highs(make):
    rng = np.random.default_rng(51)
    for _ in range(20):
        _assert_matches_highs(*make(rng, int(rng.integers(2, 4))))


# -- the QP step and the programs it takes -------------------------------------


def _report_bits(report: SolveReport) -> bytes:
    arrays = (report.x, report.lam, report.primal_residual, report.dual_residual,
              report.complementarity_gap)
    return report.status.value.encode() + str(report.iterations).encode() + b"".join(
        np.asarray(a, dtype=float).tobytes() for a in arrays)


def _separable_qp(rng, n_w, n_u, rows, curved=True, untouched=False, shuffle=True):
    """(program, twin, perm): a feasible QP given split (`Separable`),
    whose last n_u columns U have a positive diagonal curvature and
    nothing else in Q, and whose rows have a dense part on the other n_w
    columns and at most one nonzero on U; and its dense twin with the
    columns in the order ``perm``, shuffled with ``shuffle`` (the twin's
    x is the program's x[perm]).  With ``curved`` the other columns get a
    positive definite block of Q, otherwise none and a box; with
    ``untouched`` the last column of U appears in no row."""
    m = n_w + n_u
    root = rng.standard_normal((n_w, n_w))
    q_ww = root @ root.T + np.eye(n_w) if curved else np.zeros((n_w, n_w))
    q_u = rng.uniform(0.5, 2.0, n_u)
    g_w = rng.standard_normal((rows, n_w))
    col, coef = np.full(rows, n_u), np.zeros(rows)
    reach = n_u - 1 if untouched else n_u
    hit = np.flatnonzero(rng.uniform(size=rows) < 0.7) if reach else np.zeros(0, dtype=int)
    col[hit] = rng.integers(reach, size=hit.size)
    coef[hit] = rng.choice([-1.0, 1.0], hit.size) * rng.uniform(0.5, 2.0, hit.size)
    x0 = 0.5 * rng.standard_normal(m)
    b = g_w @ x0[:n_w] + coef * np.append(x0[n_w:], 0.0)[col] + rng.uniform(0.1, 1.0, rows)
    if not curved:
        g_w = np.vstack([g_w, np.eye(n_w), -np.eye(n_w)])
        col, coef = np.append(col, np.full(2 * n_w, n_u)), np.append(coef, np.zeros(2 * n_w))
        b = np.concatenate([b, np.full(2 * n_w, 3.0)])
    program = ConvexProgram(c=rng.standard_normal(m), q=q_ww, a_ineq=g_w, b_ineq=b,
                            sep=qpsolve.Separable(q_u, col, coef))
    perm = rng.permutation(m) if shuffle else np.arange(m)
    dense = program.dense()
    twin = ConvexProgram(c=dense.c[perm], q=dense.q[np.ix_(perm, perm)], a_ineq=dense.a_ineq[:, perm],
                         b_ineq=dense.b_ineq)
    return program, twin, perm


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
def test_schur_step_matches_the_dense_step(shape):
    # the split program eliminates U; its dense twin, given densely,
    # factors Q + GᵀDG whole
    rng = np.random.default_rng(sum(map(int, shape)) * 7919)
    for _ in range(5):
        program, twin, perm = _separable_qp(rng, *shape)
        assert qpsolve._SchurKkt(program).n_u == shape[1] and qpsolve._SchurKkt(twin).n_u == 0
        rep, ref = solve(program), solve(twin)
        assert rep.status == ref.status == SolveStatus.OPTIMAL
        assert abs(rep.iterations - ref.iterations) <= 2
        np.testing.assert_allclose(rep.x[perm], ref.x, rtol=0.0, atol=1e-7 * (1.0 + np.max(np.abs(ref.x))))
        assert abs(program.objective(rep.x) - twin.objective(ref.x)) <= 1e-8 * (
            1.0 + abs(twin.objective(ref.x)))


@pytest.mark.parametrize("shape", [s for s in SEPARABLE_SHAPES if s[3] and s[0] + s[1] <= 5],
                         ids=lambda s: "-".join(map(str, s)))
def test_schur_step_matches_the_active_set_oracle(shape):
    rng = np.random.default_rng(sum(map(int, shape)) * 104729)
    for _ in range(5):
        program = _separable_qp(rng, *shape)[0]
        rep = solve(program)
        assert rep.status == SolveStatus.OPTIMAL
        dense = program.dense()
        oracle = qp_active_set_oracle(dense.q, dense.c, dense.a_ineq, dense.b_ineq)
        assert oracle is not None
        np.testing.assert_allclose(rep.x, oracle[0], atol=1e-7)
        np.testing.assert_allclose(rep.lam, oracle[1], atol=1e-6)


def test_relaxation_qp_takes_the_schur_step():
    _, ds = model.sample_planted(30, 8, 2, 3)
    program = relax.build(ds, 1e-3, np.ones(4))
    # built split: the 4 filter entries, then the 30 slack sums, separable
    assert program.n_vars == 34 and program.sep.q.size == 30
    kkt = qpsolve._SchurKkt(program)
    assert kkt.n_w == 4 and kkt.n_u == 30


def test_split_program_is_checked_and_presolved():
    sep = qpsolve.Separable(q=np.array([1.0, 2.0]), col=np.array([0, 2, 1]), coef=np.array([-1.0, 0.0, 3.0]))
    rows = np.array([[1.0], [0.0], [0.0]])
    program = ConvexProgram(c=[1.0, -1.0, 0.5], q=[[0.0]], a_ineq=rows, b_ineq=[0.0, 1.0, 2.0], sep=sep)
    dense = program.dense()
    np.testing.assert_array_equal(dense.q, np.diag([0.0, 1.0, 2.0]))
    np.testing.assert_array_equal(dense.a_ineq, [[1.0, -1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    x = np.array([0.5, -2.0, 3.0])
    assert program.objective(x) == dense.objective(x)
    # the middle row has no part on W and no entry on U: presolve drops it
    reduced, keep, decided = _presolve(program)
    assert keep.tolist() == [True, False, True] and decided is None
    np.testing.assert_array_equal(reduced.dense().a_ineq, dense.a_ineq[keep])
    assert _report_bits(solve(program)) == _report_bits(solve(dense))
    # a nonpositive curvature, more separable columns than variables, an
    # index past the spare column, and a coefficient at the spare column
    bad_parts = [("q", np.array([1.0, 0.0])), ("q", np.ones(4)), ("col", np.array([0, 3, 1])),
                 ("coef", np.array([-1.0, 1.0, 3.0]))]
    for name, value in bad_parts:
        with pytest.raises(SolverError):
            ConvexProgram(c=program.c, q=program.q, a_ineq=rows, b_ineq=program.b_ineq,
                          sep=qpsolve.Separable(**{**vars(sep), name: value}))
    with pytest.raises(SolverError, match="q must be 1x1"):
        ConvexProgram(c=program.c, q=np.eye(3), a_ineq=rows, b_ineq=program.b_ineq, sep=sep)
    # given without a separable part, an LP holds an empty U and no row an entry on it
    lp = ConvexProgram(c=[1.0, -1.0], a_ineq=[[1.0, 0.0], [0.0, 1.0]], b_ineq=[1.0, 1.0])
    assert lp.is_lp and lp.sep.q.size == 0
    assert lp.sep.col.tolist() == [0, 0] and lp.sep.coef.tolist() == [0.0, 0.0]


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
        program = relax.build(ds, 1e-3, r)
        # one solve: the same iterate polished both ways
        (rep, core), (ref, full) = _with_and_without_elimination(monkeypatch, lambda: solve(program))
        assert rep.status == ref.status == SolveStatus.OPTIMAL
        np.testing.assert_allclose(rep.x, ref.x, rtol=0.0, atol=1e-9)
        # the n slack-sum columns, separable, leave the system
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
                # the Farkas LP has no separable column, so nothing
                # leaves the system and the certificate is the full
                # polish's; the polish may skip its system, whose pair
                # would lose
                assert core in ([], full) and len(full) == 1
                assert (cert.exists, cert.boundary) == (ref.exists, ref.boundary)
                assert cert.elastic_value == ref.elastic_value
                assert cert.coefficients.tobytes() == ref.coefficients.tobytes()
                degenerate += np.count_nonzero(ref.coefficients > 1e-9) < ds.filter_size
    assert degenerate >= 10


def test_polished_pairs_meet_stationarity_on_every_column(monkeypatch):
    """The eliminated columns' rows too: x_U from its closed form."""
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
        relax.block_set_lp(ds, relax.build(ds, 1e-3, r))
        sets = certify.active_sets(ds.x, model.teacher_filter(ds), k)
        certify.check_cone_condition(certify.cone_generators(ds, sets)[0], -r)
    assert len(polished) >= 6
    for program, candidate in polished:
        assert qpsolve._kkt_measures(program, *candidate)[0] <= 1e-12


def _unstructured_polish_programs():
    """Programs with no separable column, so that nothing leaves the
    polish's system, among them LPs with sign-bound rows −x_j ≤ 0:
    criterion 8's orthant LPs, one or two of whose sign bounds are
    active at the optimum, and the 4×2 LP of ``scripts/bitwise_diff.py``,
    whose sign bounds are slack at its optimum (3, 1)."""
    _, ds = model.sample_planted(200, 20, 1, 3)
    r = model.substream(3, model.STREAM_PERTURBATION).standard_normal(20)
    yield "k1-relaxation-lp", relax.build(ds, 0.0, r)
    q, c, a, b = random_feasible_qp(np.random.default_rng(71), 6, 8)
    yield "dense-qp", ConvexProgram(c=c, q=q, a_ineq=a, b_ineq=b)
    for seed in (0, 3, 6, 11):
        rng = np.random.default_rng(seed)
        c, a, b = bounded_feasible_lp(rng, int(rng.integers(2, 4)))
        yield f"orthant-lp-{seed}", ConvexProgram(c=c, a_ineq=a, b_ineq=b)
    yield "sign-bounds-lp-4x2", ConvexProgram(
        c=[-1.0, -2.0], a_ineq=[[1.0, 1.0], [1.0, 3.0], [-1.0, 0.0], [0.0, -1.0]], b_ineq=[4.0, 6.0, 0.0, 0.0])


@pytest.mark.parametrize("program", [pytest.param(p, id=name) for name, p in _unstructured_polish_programs()])
def test_polish_without_structure_is_the_full_polish(program, monkeypatch):
    (rep, core), (ref, full) = _with_and_without_elimination(monkeypatch, lambda: solve(program))
    assert rep.status == SolveStatus.OPTIMAL
    assert core == full and len(core) == 1
    assert _report_bits(rep) == _report_bits(ref)


# -- the LP polish's multiplier check, against the polish without it ----------


def _lp_polish_outcomes(monkeypatch):
    """Record every LP polish as (skipped, lost, kept): whether the
    multiplier check skipped its system; whether the pairs of the polish
    without the check (bar = ∞) and, where it skipped, of
    ``oracles.full_polish`` would lose to the raw pair, whose worst KKT
    measure is bar; and whether the polish ran and its pair won."""
    outcomes = []
    polish = qpsolve._polish

    def recording(program, x, lam, bar):
        candidate = polish(program, x, lam, bar)
        if program.is_lp:
            unchecked = polish(program, x, lam, np.inf)
            if candidate is not None:
                # a polish the check lets run is the polish without it
                assert [a.tobytes() for a in candidate] == [a.tobytes() for a in unchecked]
            pairs = (unchecked,) if candidate is not None else (unchecked, full_polish(program, x, lam, bar))
            lost = [pair is None or max(qpsolve._kkt_measures(program, *pair)) >= bar for pair in pairs]
            outcomes.append((candidate is None and unchecked is not None, all(lost), not lost[0]))
        return candidate

    monkeypatch.setattr(qpsolve, "_polish", recording)
    return outcomes


def _k1_program(n, d, seed, scale=1.0):
    """The k=1 relaxation LP, its row of the largest label scaled."""
    _, ds = model.sample_planted(n, d, 1, seed)
    program = relax.build(ds, 0.0, model.substream(seed, model.STREAM_PERTURBATION).standard_normal(d))
    g, h = program.a_ineq.copy(), program.b_ineq.copy()
    g[ds.y.argmax()] *= scale
    h[ds.y.argmax()] *= scale
    return ConvexProgram(c=program.c, a_ineq=g, b_ineq=h)


def test_lp_polish_is_skipped_only_where_its_pair_would_lose(monkeypatch):
    outcomes = _lp_polish_outcomes(monkeypatch)
    # the k=1 grid's corners, then the shapes where most LPs recover w*
    # and their degenerate optima are skipped
    for shapes, seeds in ((((25, 5), (25, 80), (400, 5), (400, 80)), 10),
                          (((50, 5), (100, 5), (100, 10), (200, 5), (200, 10), (400, 10)), 30)):
        for n, d in shapes:
            for seed in range(seeds):
                relax.fit(model.sample_planted(n, d, 1, seed)[1], 0.0, seed)
    for k, n in ((2, 100), (5, 60)):
        for seed in range(10):
            relax.fit(model.sample_planted(n, 20, k, seed)[1], 0.0, seed)
    # certify's Farkas LPs
    for k, d in ((1, 6), (2, 8), (3, 12), (5, 20)):
        for n in (40, 120):
            for seed in range(10):
                _, ds = model.sample_planted(n, d, k, seed)
                sets = certify.active_sets(ds.x, model.teacher_filter(ds), k)
                r = model.substream(seed, model.STREAM_PERTURBATION).standard_normal(ds.filter_size)
                certify.check_cone_condition(certify.cone_generators(ds, sets)[0], -r)
    # a row scaled by 1e6 leaves R_W well conditioned or not
    for seed in range(10):
        solve(_k1_program(100, 5, seed, scale=1e6))
    skipped = [lost for skip, lost, _ in outcomes if skip]
    assert len(skipped) >= 100 and all(skipped)


def test_lp_polish_runs_where_the_check_cannot_judge(monkeypatch):
    outcomes = _lp_polish_outcomes(monkeypatch)
    # duplicated tight rows at a vertex: the min-norm multipliers split
    # the positive ones between the twins, so the polish runs and wins
    rng = np.random.default_rng(27)
    for _ in range(20):
        x0, g_t, g_s = rng.standard_normal(3), rng.standard_normal((3, 3)), rng.standard_normal((4, 3))
        c = -g_t.T @ rng.uniform(0.5, 2.0, 3)
        h_t = g_t @ x0
        solve(ConvexProgram(c=c, a_ineq=np.vstack([g_t, g_t, g_s]),
                            b_ineq=np.concatenate([h_t, h_t, g_s @ x0 + rng.uniform(0.5, 2.0, 4)])))
    assert len(outcomes) == 20 and all(kept for _, _, kept in outcomes)
    # three rows tight at (1, 1), whose min-norm multipliers for
    # c = −(1, 0.1) are (0.63, −0.27, 0.37): skipped; with the row
    # x1 + x2 ≤ 2 scaled by 1e6, σ_min/σ_max of R_W is 7e-7 and the
    # check does not judge
    g = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    h = np.array([1.0, 1.0, 2.0, 5.0, 5.0])
    scaled = np.array([1.0, 1.0, 1e6, 1.0, 1.0])
    for s in (np.ones(5), scaled):
        assert solve(ConvexProgram(c=[-1.0, -0.1], a_ineq=g * s[:, None], b_ineq=h * s)).status == SolveStatus.OPTIMAL
    assert [skip for skip, _, _ in outcomes[20:]] == [True, False]
    # both sign bounds and a third row tight at 0: R_W is 3×2 and well
    # conditioned, its min-norm multipliers (0, 1, 1) are nonnegative,
    # and the polish runs
    rep = solve(ConvexProgram(c=[1.0, 2.0], a_ineq=[[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0], [1.0, 1.0]],
                              b_ineq=[0.0, 0.0, 0.0, 5.0]))
    assert rep.status == SolveStatus.OPTIMAL and not outcomes[-1][0]
    assert all(lost for skip, lost, _ in outcomes if skip)


# ---------------------------------------------------------------------------
# LAPACK from scipy's extension, without the scipy.linalg package import
# ---------------------------------------------------------------------------


def _run_python(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports
    convrelax from this tree."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qpsolve.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_cli_import_leaves_the_scipy_linalg_package_out():
    loaded = _run_python(
        "import sys\n"
        "import convrelax.cli\n"
        "print(*[name for name in ('scipy.linalg', 'scipy.optimize', 'numpy.f2py', 'numpy.testing',\n"
        "                          'multiprocessing') if name in sys.modules])\n")
    assert loaded.split() == []


@pytest.mark.parametrize("first", ["convrelax.cli", "scipy.linalg"])
def test_scipy_linalg_shares_the_lapack_module_in_either_order(first):
    assert _run_python(
        "import importlib, sys\n"
        f"importlib.import_module({first!r})\n"
        "import scipy.linalg.lapack\n"
        "from convrelax import qpsolve\n"
        "assert qpsolve._flapack is sys.modules['scipy.linalg._flapack'] is scipy.linalg.lapack._flapack\n"
        "assert qpsolve.dpotrf is scipy.linalg.lapack.dpotrf and qpsolve.dpotrs is scipy.linalg.lapack.dpotrs\n"
        "print('shared')\n") == "shared\n"


def test_nnls_refit_imports_scipy_optimize_after_convrelax():
    # the lazy import of `_nnls_multipliers`, with both active rows
    # −x_j ≤ 0 tight at 0: −λ_1 = −1 and −λ_2 = −2
    assert _run_python(
        "import sys\n"
        "from convrelax import qpsolve\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "program = qpsolve.ConvexProgram(c=[1.0, 2.0], a_ineq=[[-1.0, 0.0], [0.0, -1.0]], b_ineq=[0.0, 0.0])\n"
        "print(*qpsolve._nnls_multipliers(program, [0.0, 0.0], [0.0, 0.0]))\n") == "1.0 2.0\n"


# a 4×7 LP whose last row repeats its first: its rank cut drops a singular value
_WIDE_SOLVE = """
import numpy as np
from convrelax.qpsolve import ConvexProgram, solve
rng = np.random.default_rng(32)
g = rng.standard_normal((3, 7))
h = g @ rng.standard_normal(7) + rng.uniform(0.5, 2.0, 3)
rep = solve(ConvexProgram(c=-g.T @ rng.uniform(0.5, 1.5, 3), a_ineq=np.vstack([g, g[:1]]),
                          b_ineq=np.append(h, h[0])))
print(rep.status.value, rep.x.tobytes().hex(), rep.lam.tobytes().hex())
"""


def test_lapack_falls_back_to_the_package_import_when_its_file_is_not_found():
    # the extension's first lookup finds nothing; the package import's finds it
    fallback = _run_python(
        "import importlib.machinery, sys\n"
        "find_spec = importlib.machinery.PathFinder.find_spec\n"
        "missed = []\n"
        "def find_spec_but_once(name, path=None, target=None):\n"
        "    if name == 'scipy.linalg._flapack' and not missed:\n"
        "        missed.append(name)\n"
        "        return None\n"
        "    return find_spec(name, path, target)\n"
        "importlib.machinery.PathFinder.find_spec = find_spec_but_once\n"
        "from convrelax import qpsolve\n"
        "import scipy.linalg.lapack\n"
        "assert missed and qpsolve._flapack is scipy.linalg.lapack._flapack\n"
        "assert qpsolve.dpotrf is scipy.linalg.lapack.dpotrf\n"
        + _WIDE_SOLVE)
    loaded = _run_python("import sys\n" + _WIDE_SOLVE + "assert 'scipy.linalg' not in sys.modules\n")
    assert fallback == loaded and loaded.startswith("Optimal ")


# ---------------------------------------------------------------------------
# the span basis of a program with fewer rows than variables
# ---------------------------------------------------------------------------


def _span_inputs():
    """(id, G, Q) of programs whose span [Gᵀ Q] has full rank or not:
    Gᵀ of each shape, Gᵀ with repeated, collinear and zero columns, and
    [Gᵀ Q] with Q of rank 3 and a separable column (Q None for an LP)."""
    rng = np.random.default_rng(32)
    for m, n in ((9, 4), (4, 9), (6, 6), (1, 7), (7, 1), (1, 1)):
        yield f"{m}x{n}", rng.standard_normal((m, n)).T, None
    g = rng.standard_normal((5, 8))
    yield "duplicate-columns-5x6", g[:, [0, 1, 1, 2, 0, 3]].T, None
    yield "rank-2-product-7x5", (rng.standard_normal((7, 2)) @ rng.standard_normal((2, 5))).T, None
    yield "rank-2-product-5x7", (rng.standard_normal((5, 2)) @ rng.standard_normal((2, 7))).T, None
    yield "zeros-3x4", np.zeros((4, 3)), None
    g = rng.standard_normal((4, 9))
    yield "G.T-9x4", g, None
    yield "G.T-duplicate-row-9x5", np.vstack([g, g[2:3]]), None
    low = rng.standard_normal((9, 2))
    q = low @ low.T
    q[8, :] = q[:, 8] = 0.0
    q[8, 8] = 3.0
    yield "[G.T Q]-9x13", g, q


@pytest.mark.parametrize("g, q", [pytest.param(g, q, id=name) for name, g, q in _span_inputs()])
def test_wide_program_is_solved_over_a_basis_of_matrix_rank(monkeypatch, g, q):
    # x = V·u, V as many columns as np.linalg.matrix_rank([Gᵀ Q]), the
    # cost in that span
    spanning = g.T if q is None else np.hstack([g.T, q])
    c = spanning @ np.random.default_rng(34).uniform(0.5, 2.0, spanning.shape[1])
    program = ConvexProgram(c=c, q=q, a_ineq=g, b_ineq=np.ones(g.shape[0]))
    seen = []

    def recording_route(program, tol, max_iter):
        seen.append(program)
        return qpsolve._Outcome(SolveStatus.OPTIMAL, np.zeros(program.n_vars), np.zeros(program.n_ineq))

    monkeypatch.setattr(qpsolve, "_dual_route", recording_route)
    rank = np.linalg.matrix_rank(spanning)
    if rank:
        qpsolve._solve_wide(program, qpsolve.DEFAULT_TOL, qpsolve.DEFAULT_MAX_ITER)
        assert [p.n_vars for p in seen] == [rank]
    else:
        # no program has a zero span: presolve drops zero rows, and an LP
        # left with none is solved without a route
        assert solve(program).status == SolveStatus.OPTIMAL and not seen


def test_wide_programs_whose_rank_cut_drops_a_direction_end_optimal():
    # a 3×8 QP over [Gᵀ Q], Q of rank 3, and a 4×7 LP whose last row
    # repeats its first
    rng = np.random.default_rng(33)
    low = rng.standard_normal((5, 2))
    q = np.zeros((8, 8))
    q[:5, :5] = low @ low.T
    q[5, 5] = 1.0
    g = rng.standard_normal((3, 8))
    h = g @ rng.standard_normal(8) + 1.0
    reports = [solve(ConvexProgram(c=q @ rng.standard_normal(8) - g.T @ rng.uniform(0.5, 2.0, 3), q=q,
                                   a_ineq=g, b_ineq=h)),
               solve(ConvexProgram(c=-g.T @ rng.uniform(0.5, 2.0, 3), a_ineq=np.vstack([g, g[:1]]),
                                   b_ineq=np.append(h, h[0])))]
    assert [rep.status for rep in reports] == [SolveStatus.OPTIMAL] * 2


def _split_panel():
    """(index, program, twin) of 3,000 split QPs with 1..9 rows over 1..5
    dense columns (Q_WW = 0) and 1..4 separable ones (q_U in 1..3),
    integer entries in −3..3, seven rows in ten with an entry on U; one
    in four has its rows scaled by 10^(−6..6).  ``twin`` is the dense
    twin of the program unscaled."""
    rng = np.random.default_rng(14)
    for i in range(3000):
        nw, nu, rows = rng.integers(1, 6), rng.integers(1, 5), rng.integers(1, 10)
        g, h = rng.integers(-3, 4, (rows, nw)), rng.integers(-3, 4, rows)
        c, q_u = rng.integers(-3, 4, nw + nu), rng.integers(1, 4, nu)
        has = rng.random(rows) < 0.7
        col, coef = np.where(has, rng.integers(0, nu, rows), nu), np.where(has, rng.integers(-2, 3, rows), 0)
        col[coef == 0] = nu
        twin = ConvexProgram(c=c, a_ineq=g, b_ineq=h, sep=qpsolve.Separable(q_u, col, coef)).dense()
        scale = 10.0 ** rng.integers(-6, 7, rows) if rng.random() < 0.25 else np.ones(rows)
        yield i, ConvexProgram(c=c, a_ineq=g * scale[:, None], b_ineq=h * scale,
                               sep=qpsolve.Separable(q_u, col, coef * scale)), twin


def test_wide_split_qps_take_the_verdict_of_their_dense_twin():
    # four unscaled programs of the split panel that ended MaxIterations
    # when a wide split QP was solved as its dense twin
    pinned = {1331: SolveStatus.OPTIMAL, 1436: SolveStatus.DUAL_UNBOUNDED, 2105: SolveStatus.DUAL_UNBOUNDED,
              2395: SolveStatus.DUAL_UNBOUNDED}
    for i, program, twin in _split_panel():
        if i in pinned:
            reduced = _presolve(program)[0]
            assert reduced.n_ineq < reduced.n_vars and reduced.sep.q.size
            verdict = STATUS_OF_HIGHS[highs_qp_verdict(twin.q, twin.c, twin.a_ineq, twin.b_ineq)]
            assert solve(program).status == verdict == pinned[i], i


def test_qp_farkas_exit_stands_only_on_rows_found_infeasible():
    # feasible, bounded QPs whose rows with h = 0 come in exact opposites
    # and pin an equality, so the feasible set has no interior: #1542
    # (row-scaled), #1641 and #1964 of the split panel, and #2429 of the
    # dense QP panel (scripts/fuzz_verdicts.py), whose rows 2 and 4 pin
    # x₁ + x₃ = 0.  The embedding exits on a Farkas vector whose residual
    # Gᵀλ cancels on the opposite rows; the zero-cost LP over the rows
    # finds them feasible, so no verdict is given
    dense = ConvexProgram(c=[2.0, -3.0, -2.0], q=[[4.0, -4.0, 0.0], [-4.0, 9.0, -4.0], [0.0, -4.0, 5.0]],
                          a_ineq=[[-2.0, 2.0, -1.0], [-2.0, 2.0, -1.0], [-2.0, 0.0, -2.0], [0.0, -1.0, 0.0],
                                  [2.0, 0.0, 2.0], [0.0, -2.0, 1.0]],
                          b_ineq=[-2.0, 0.0, 0.0, 1.0, 0.0, 1.0])
    pinned = [(i, program, twin) for i, program, twin in _split_panel() if i in (1542, 1641, 1964)]
    for i, program, twin in [*pinned, (2429, dense, dense)]:
        assert highs_qp_verdict(twin.q, twin.c, twin.a_ineq, twin.b_ineq) == "optimal", i
        assert solve(program).status == SolveStatus.NUMERICAL_FAILURE, i
    # x₁ ≤ −1 against x₁ ≥ 0: the LP over the rows agrees, and the verdict stands
    infeasible = ConvexProgram(c=[1.0, -1.0], q=np.eye(2), a_ineq=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
                               b_ineq=[-1.0, 0.0, 1.0])
    assert highs_qp_verdict(infeasible.q, infeasible.c, infeasible.a_ineq, infeasible.b_ineq) == "infeasible"
    assert solve(infeasible).status == SolveStatus.PRIMAL_INFEASIBLE


def _wide_split_qps():
    """(id, program) of split QPs with fewer rows than variables whose
    optimum is finite: 3 rows over 4 dense and 2 separable columns, a
    cost −G_Wᵀμ (+ Q_WW·u for a Q_WW of rank 1), μ > 0, in the span of
    [G_Wᵀ Q_WW]; and 4 rows, two of them zero, over 3 separable columns
    and no dense one."""
    rng = np.random.default_rng(40)
    g, mu = rng.standard_normal((3, 4)), rng.uniform(0.5, 2.0, 3)
    sep = qpsolve.Separable(q=np.array([1.0, 2.0]), col=np.array([0, 1, 2]), coef=np.array([1.0, -0.5, 0.0]))
    h = g @ rng.standard_normal(4) + rng.uniform(0.5, 2.0, 3)
    c_u = rng.standard_normal(2)
    yield "in-span-3x6", ConvexProgram(c=np.append(-g.T @ mu, c_u), a_ineq=g, b_ineq=h, sep=sep)
    low = rng.standard_normal(4)
    q = np.outer(low, low)
    yield "in-span-rank-1-3x6", ConvexProgram(c=np.append(q @ rng.standard_normal(4) - g.T @ mu, c_u), q=q,
                                              a_ineq=g, b_ineq=h, sep=sep)
    yield "no-dense-column-4x3", ConvexProgram(
        c=[1.0, -2.0, 0.5], a_ineq=np.zeros((4, 0)), b_ineq=[1.0, 0.0, 2.0, 1.0],
        sep=qpsolve.Separable(q=np.array([1.0, 2.0, 1.0]), col=np.array([0, 3, 1, 3]),
                              coef=np.array([1.0, 0.0, -1.0, 0.0])))


@pytest.mark.parametrize("program", [pytest.param(p, id=name) for name, p in _wide_split_qps()])
def test_wide_split_qp_is_solved_without_its_dense_twin(monkeypatch, program):
    twin = program.dense()
    ref = solve(twin)
    assert ref.status == SolveStatus.OPTIMAL and _presolve(program)[0].n_ineq < program.n_vars

    def no_twin(self):
        raise AssertionError("a dense twin was formed")

    monkeypatch.setattr(ConvexProgram, "dense", no_twin)
    rep = solve(program)
    assert rep.status == SolveStatus.OPTIMAL
    value = twin.objective(ref.x)
    assert abs(program.objective(rep.x) - value) <= 1e-8 * (1.0 + abs(value))
