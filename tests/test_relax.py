import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from convrelax import relax
from convrelax.model import (
    STREAM_PERTURBATION,
    Dataset,
    derived_seed,
    sample_planted,
    substream,
    to_json,
)
from convrelax.qpsolve import SolveStatus
from convrelax.relax import (
    AllTrialsFailedError,
    RelaxError,
    assess,
    build,
    check_naive_degeneracy,
    fit,
    fit_amplified,
    fit_with_perturbation,
    pseudoinverse_recovery,
)


def two_sample_d1() -> Dataset:
    return Dataset(x=np.array([[1.0], [-1.0]]), y=np.array([1.0, 0.0]), k=1)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def test_build_one_neuron_limit_lp():
    prog = build(two_sample_d1(), 0.0, np.array([0.5]))
    assert prog.is_lp and prog.n_vars == 1
    np.testing.assert_array_equal(prog.a_ineq, [[1.0], [-1.0]])
    np.testing.assert_array_equal(prog.b_ineq, [1.0, 0.0])
    np.testing.assert_array_equal(prog.c, [0.5])


def test_build_one_neuron_qp_counts():
    _, ds = sample_planted(3, 2, 1, 5)
    prog = build(ds, 0.5, np.array([0.1, 0.2]))
    assert prog.n_vars == 5  # w size 2 plus one slack sum u per sample
    assert prog.n_ineq == 6  # response rows then nonnegativity rows
    assert not prog.is_lp


def test_build_multi_neuron_lp_counts():
    _, ds = sample_planted(2, 2, 2, 5)
    prog = build(ds, 0.0, np.array([0.3]))
    # the slacks are eliminated: one singleton row X_ij·w ≤ yᵢ per block
    assert prog.n_vars == 1
    np.testing.assert_array_equal(prog.a_ineq, ds.x.reshape(4, 1))
    np.testing.assert_array_equal(prog.b_ineq, np.repeat(ds.y, 2))


def test_build_gives_a_negative_label_its_empty_set_row_at_k_above_one():
    _, ds = sample_planted(3, 4, 2, 5)
    y = np.array([1.0, -0.5, -2.0])
    prog = build(Dataset(x=ds.x, y=y, k=2), 0.0, np.ones(2))
    np.testing.assert_array_equal(prog.a_ineq[6:], np.zeros((2, 2)))
    np.testing.assert_array_equal(prog.b_ineq, [1.0, 1.0, -0.5, -0.5, -2.0, -2.0, -0.5, -2.0])
    one_neuron = build(Dataset(x=ds.x, y=y, k=1), 0.0, np.ones(4))
    np.testing.assert_array_equal(one_neuron.b_ineq, y)


def test_build_rejects_bad_inputs():
    ds = two_sample_d1()
    with pytest.raises(RelaxError):
        build(ds, -0.1, np.array([1.0]))
    with pytest.raises(RelaxError):
        build(ds, 0.0, np.array([1.0, 2.0]))


def test_build_rejects_a_beta_whose_perturbation_term_overflows():
    # beta·r would be infinite, and the solver would reject its cost as a
    # malformed program; the check itself prints no numpy warning
    _, ds = sample_planted(30, 8, 2, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RelaxError, match="beta times the perturbation is not finite"):
            build(ds, 1e308, np.array([1.0, -2.0, 0.5, 0.0]))
    assert build(ds, 1e308, np.array([1.0, -1.5, 0.5, 0.0])).c[1] == -1.5e308


# ---------------------------------------------------------------------------
# fit: the d=1 vertex oracle says the feasible set is [0, 1], so the sign
# of the perturbation decides between the planted vertex and the origin
# ---------------------------------------------------------------------------


def test_fit_forced_negative_sign_recovers():
    res = fit_with_perturbation(two_sample_d1(), 0.0, np.array([-1.0]))
    assert res.report.status == SolveStatus.OPTIMAL
    np.testing.assert_allclose(res.w_hat, [1.0], atol=1e-9)
    assert res.train_residual <= 1e-16
    np.testing.assert_array_equal(res.z_hat, [1.0, 0.0])


def test_fit_forced_positive_sign_collapses():
    res = fit_with_perturbation(two_sample_d1(), 0.0, np.array([1.0]))
    np.testing.assert_allclose(res.w_hat, [0.0], atol=1e-9)
    assert res.train_residual == pytest.approx(1.0, abs=1e-9)


def test_fit_draws_perturbation_from_named_substream():
    _, ds = sample_planted(12, 4, 1, 9)
    res = fit(ds, 0.0, 77)
    expected_r = substream(77, STREAM_PERTURBATION).standard_normal(4)
    np.testing.assert_array_equal(res.r_used, expected_r)
    assert res.trial_seed == 77
    # recomputed residual matches an independent evaluation
    diff = np.maximum(ds.x @ res.w_hat, 0.0) - ds.y
    assert res.train_residual == pytest.approx(float(diff @ diff), abs=1e-12)


def test_fit_amplified_single_trial_matches_fit():
    _, ds = sample_planted(30, 5, 1, 21)
    outcome = fit_amplified(ds, 1, 4)
    direct = fit(ds, 0.0, derived_seed(4, 0))
    assert np.array_equal(outcome.best.w_hat, direct.w_hat)
    assert outcome.best.trial_seed == direct.trial_seed
    assert len(outcome.trials) == 1


def _report_bytes(report) -> bytes:
    arrays = b"".join(np.asarray(a, dtype=float).tobytes() for a in (report.x, report.lam))
    return report.status.value.encode() + repr(dataclasses.astuple(report)).encode() + arrays


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("beta", [0.0, 1e-3])
def test_fit_amplified_builds_once_and_matches_independent_fits(monkeypatch, k, beta):
    _, ds = sample_planted(40, 8, k, 30 + k)
    reports, builds = [], []
    solve, build_fn = relax.qpsolve.solve, relax.build

    def recording_solve(program, **kwargs):
        reports.append(solve(program, **kwargs))
        return reports[-1]

    def counting_build(*args):
        builds.append(args)
        return build_fn(*args)

    monkeypatch.setattr(relax.qpsolve, "solve", recording_solve)
    monkeypatch.setattr(relax, "build", counting_build)
    outcome = fit_amplified(ds, 4, 17, beta=beta)
    assert len(builds) == 4  # each trial is a fit, built afresh
    amplified = [_report_bytes(report) for report in reports]
    # each trial makes the solves of an independent fit, so no generated
    # row carries over between trials, and its last report is the fit's
    last = 0
    for t, record in enumerate(outcome.trials):
        del reports[:]
        direct = fit(ds, beta, derived_seed(17, t))
        solves = [_report_bytes(report) for report in reports]
        assert amplified[last : last + len(solves)] == solves
        last += len(solves)
        assert solves[-1] == _report_bytes(direct.report)
        assert record.seed == direct.trial_seed
        assert record.train_residual == direct.train_residual
    assert last == len(amplified)
    monkeypatch.undo()
    best = fit(ds, beta, outcome.best.trial_seed)
    for name in ("w_hat", "z_hat", "r_used"):
        assert getattr(outcome.best, name).tobytes() == getattr(best, name).tobytes()


@pytest.mark.parametrize("beta", [0.0, 1e-3])
def test_k1_fit_makes_one_solve(monkeypatch, beta):
    _, ds = sample_planted(200, 20, 1, 8)
    programs = []
    solve = relax.qpsolve.solve

    def counting_solve(program, **kwargs):
        programs.append(program)
        return solve(program, **kwargs)

    monkeypatch.setattr(relax.qpsolve, "solve", counting_solve)
    assert fit(ds, beta, 9).report.status == SolveStatus.OPTIMAL
    assert len(programs) == 1


def test_fit_amplified_selects_minimum_residual():
    ds = two_sample_d1()
    outcome = fit_amplified(ds, 4, 3, w_star=np.array([1.0]))
    signs = [float(substream(t.seed, STREAM_PERTURBATION).standard_normal(1)[0]) for t in outcome.trials]
    assert any(s < 0 for s in signs), "chosen master seed must include a negative draw"
    assert float(outcome.best.r_used[0]) < 0
    assert outcome.l2_error <= 1e-9
    assert outcome.success
    assert outcome.best.train_residual <= min(t.train_residual for t in outcome.trials)


def test_fit_amplified_ties_break_on_lower_index():
    # all trials recover exactly on this easy instance; the winner must be
    # the first optimal trial
    pm, ds = sample_planted(80, 2, 1, 6)
    outcome = fit_amplified(ds, 3, 11)
    residuals = [t.train_residual for t in outcome.trials]
    best_idx = residuals.index(outcome.best.train_residual)
    assert outcome.best.trial_seed == outcome.trials[best_idx].seed


def test_fit_amplified_all_failed_raises():
    # n < d makes the limit LP unbounded for every perturbation
    _, ds = sample_planted(4, 12, 1, 13)
    with pytest.raises(AllTrialsFailedError):
        fit_amplified(ds, 3, 0)


def test_fit_amplified_num_trials_validation():
    _, ds = sample_planted(10, 2, 1, 0)
    with pytest.raises(RelaxError):
        fit_amplified(ds, 0, 0)


# ---------------------------------------------------------------------------
# pseudoinverse recovery and assessment
# ---------------------------------------------------------------------------


def test_pseudoinverse_recovery_planted():
    pm, ds = sample_planted(50, 5, 1, 8)
    w_hat = pseudoinverse_recovery(ds)
    # substitution check: strictly positive labels pin the filter exactly
    assert np.linalg.norm(w_hat - pm.w_star) <= 1e-8


def test_pseudoinverse_recovery_tiny_example():
    w_hat = pseudoinverse_recovery(two_sample_d1())
    np.testing.assert_allclose(w_hat, [1.0], atol=1e-12)


def test_pseudoinverse_recovery_rejects_degenerate():
    allzero = Dataset(x=np.array([[1.0], [2.0]]), y=np.zeros(2), k=1)
    with pytest.raises(RelaxError):
        pseudoinverse_recovery(allzero)
    _, multik = sample_planted(10, 4, 2, 0)
    with pytest.raises(RelaxError):
        pseudoinverse_recovery(multik)


def test_assess_examples():
    w = np.array([3.0, 4.0])
    exact = assess(w, w, tau=1e-12)
    assert exact.l2_error == 0.0 and exact.success
    miss = assess(np.zeros(2), w, tau=1e-4)
    assert miss.l2_error == pytest.approx(5.0) and not miss.success
    w1 = np.array([1.0, 0.0])
    near = assess(w1 + np.array([1e-6, 0.0]), w1, tau=1e-4)
    assert near.success
    with pytest.raises(RelaxError):
        assess(np.zeros(3), w)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_naive_degeneracy_direct_evaluation():
    for k, seed in ((1, 3), (2, 4), (5, 5)):
        pm, ds = sample_planted(40, 10, k, seed)
        report = check_naive_degeneracy(ds, pm.w_star)
        assert report.trivial_feasible and report.planted_feasible
        assert report.trivial_objective == 0.0
        assert report.planted_objective == 0.0
        assert report.max_violation <= 1e-12


def test_truth_is_feasible_in_every_built_instance():
    for k, beta in ((1, 0.0), (1, 0.5), (3, 0.0), (3, 0.5)):
        pm, ds = sample_planted(25, 6, k, 14)
        r = np.ones(ds.filter_size)
        # the QP's variables are w and the slack sums uᵢ = Σ_j z_ij
        u_true = np.maximum(ds.blocks() @ pm.w_star, 0.0).sum(axis=1)
        if beta > 0.0:
            point = np.concatenate([pm.w_star, u_true])
        else:
            point = pm.w_star
        prog = build(ds, beta, r).dense()
        assert np.max(prog.a_ineq @ point - prog.b_ineq) <= 1e-12


def test_beta_continuity_toward_the_limit_lp():
    # with a unique limit vertex, the QP path approaches it linearly in
    # the perturbation weight
    for s in range(4):
        seed = derived_seed(999, s)
        _, ds = sample_planted(120, 6, 1, seed)
        r = substream(seed, STREAM_PERTURBATION).standard_normal(6)
        w0 = fit_with_perturbation(ds, 0.0, r).w_hat
        devs = []
        for beta in (1e-2, 1e-4, 1e-6):
            res = fit_with_perturbation(ds, beta, r)
            assert res.report.status == SolveStatus.OPTIMAL
            devs.append(float(np.linalg.norm(res.w_hat - w0)))
        assert devs[0] >= devs[1] - 1e-9 >= devs[2] - 2e-9
        assert devs[2] <= 1e-3


def test_d1_law_recovery_iff_negative_perturbation():
    ds = two_sample_d1()
    w_star = np.array([1.0])
    hits = 0
    for seed in range(200):
        res = fit(ds, 0.0, seed)
        recovered = assess(res.w_hat, w_star).success
        assert recovered == (float(res.r_used[0]) < 0.0)
        hits += recovered
    assert 0.40 <= hits / 200 <= 0.60


def test_half_probability_plateau_far_from_transition():
    # single-trial recovery approaches one half deep in the many-sample
    # regime (n = 200·d); the plateau sits near 0.48 there (measured
    # 0.484 over 1500 independent trials)
    hits = 0
    trials = 300
    for t in range(trials):
        seed = derived_seed(424242, t)
        pm, ds = sample_planted(2000, 10, 1, seed)
        res = fit(ds, 0.0, seed)
        hits += (
            res.report.status == SolveStatus.OPTIMAL
            and assess(res.w_hat, pm.w_star).success
        )
    assert 0.42 <= hits / trials <= 0.58


def test_fit_result_json_round_trip():
    _, ds = sample_planted(10, 2, 1, 1)
    outcome = fit_amplified(ds, 2, 5)
    data = json.loads(to_json(outcome))
    assert set(data) == {"best", "l2_error", "rel_error", "success", "trials"}
    assert set(data["best"]) == {
        "w_hat",
        "z_hat",
        "train_residual",
        "report",
        "r_used",
        "trial_seed",
    }
    assert data["best"]["report"]["status"] == "Optimal"
    assert len(data["trials"]) == 2


def test_lp_rows_are_a_view_of_the_features():
    # without an empty-set row to append (always at k=1, and at k>1 when
    # no label is negative) the LP's rows are the features themselves
    for k in (1, 2):
        _, ds = sample_planted(40, 8, k, 3)
        assert np.shares_memory(build(ds, 0.0, np.ones(ds.filter_size)).a_ineq, ds.x)
    y = ds.y.copy()
    y[0] = -1.0
    rows = build(Dataset(ds.x, y, 2), 0.0, np.ones(4)).a_ineq
    assert rows.shape == (81, 4) and not rows[80].any() and not np.shares_memory(rows, ds.x)


def test_k1_lp_fit_holds_no_copy_of_the_features():
    # the 320 kB of features are the solve's rows: the fit adds the
    # interior point's scaled copy of them and vectors, not another copy
    _, ds = sample_planted(2000, 20, 1, 43)
    tracemalloc.start()
    try:
        res = fit(ds, 0.0, 44)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.report.status == SolveStatus.OPTIMAL
    assert peak <= 3 * ds.x.nbytes


def test_strided_features_fit_as_their_row_major_copy():
    # the report's residuals are measured on presolve's row-major copy of
    # the rows, and BLAS may round G·x differently on a strided G
    _, ds = sample_planted(400, 20, 1, 41)
    wide = np.zeros((ds.n, 2 * ds.d))
    wide[:, ::2] = ds.x
    strided = Dataset(wide[:, ::2], ds.y, 1)
    assert not strided.x.flags.c_contiguous
    want, got = fit(ds, 0.0, 42).report, fit(strided, 0.0, 42).report
    assert got.status == want.status == SolveStatus.OPTIMAL and got.iterations == want.iterations
    for name in ("x", "lam", "primal_residual", "dual_residual", "complementarity_gap"):
        assert np.asarray(getattr(got, name)).tobytes() == np.asarray(getattr(want, name)).tobytes(), name
