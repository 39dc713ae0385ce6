"""The β > 0 fit at every k against the lifted QP it replaced.

``relax.fit`` solves the β > 0 relaxation as a QP over the filter w and
the slack sums uᵢ = Σ_j z_ij by row generation: the n·k singleton rows
X_ij·w − uᵢ ≤ 0 and −u ≤ 0, then per sample the row
Σ_{j∈S} X_ij·w − uᵢ ≤ 0 of its positively responding blocks S while one
is violated.  Checked here against the dense lifted (p + nk)-variable QP,
``oracles.lifted_qp``, on status, exit code, ŵ, objective value and the
recovery verdict, and on the lifted QP's constraints for the
reconstructed slacks z_hat.  At k=1 the two programs are the same matrix.
Also checked: the QP ends Optimal at weights β from 1e-3 to 10, and it
ends DualUnbounded exactly when HiGHS finds the β=0 LP unbounded.
"""

import tracemalloc

import numpy as np
import pytest

from convrelax import qpsolve, relax
from convrelax.cli import EXIT_OK, EXIT_SOLVER, main
from convrelax.model import (
    STREAM_PERTURBATION,
    Dataset,
    derived_seed,
    export_csv,
    residual,
    sample_planted,
    substream,
)
from convrelax.qpsolve import SolveStatus
from oracles import block_set_expansion, highs_lp, lifted_qp

TOL = qpsolve.DEFAULT_TOL


def _panel():
    """11 cases at each k ∈ {1, 2, 3, 5}: planted data of several shapes,
    seeds and weights β; fewer samples than features (n < d); negative
    labels, which the QP accepts; all-zero labels."""
    shapes = [("planted", n, p, beta) for n, p, beta in ((10, 2, 1e-3), (20, 3, 1e-3), (30, 2, 1e-3),
                                                         (40, 4, 1e-3), (25, 3, 1e-2), (15, 2, 1e-1),
                                                         (35, 3, 1e-3))]
    shapes += [("negative-label", 30, 2, 1e-3), ("negative-label", 20, 3, 1e-2),
               ("zero-labels", 15, 2, 1e-3)]
    cases = []
    for k in (1, 2, 3, 5):
        # n < d = k·p; at k>1 with n·k ≥ 2p rows, which bound w here, and
        # at k=1 unbounded, where both programs are the same matrix
        wide = {1: ("n<d", 3, 4, 1e-3), 5: ("n<d", 4, 5, 1e-3)}.get(k, ("n<d", 5, 4, 1e-3))
        cases += [(kind, n, k * p, k, beta, 2000 * k + t)
                  for t, (kind, n, p, beta) in enumerate([*shapes, wide])]
    return cases


PANEL = _panel()


def _case_id(case):
    return "-".join(str(v) for v in case)


def _dataset(case):
    """(dataset, β, perturbation, planted filter).  The perturbation is
    what ``convrelax fit --trials 1 --seed <case seed>`` draws."""
    kind, n, d, k, beta, seed = case
    pm, ds = sample_planted(n, d, k, seed)
    y, w_star = ds.y.copy(), pm.w_star
    if kind == "negative-label":
        y[[0, 3]] = [-0.25, -1.5]
    elif kind == "zero-labels":
        y[:] = 0.0
        w_star = np.zeros(d // k)
    r = substream(derived_seed(seed, 0), STREAM_PERTURBATION).standard_normal(d // k)
    return Dataset(x=ds.x, y=y, k=k, seed=seed), beta, r, w_star


def test_panel_covers_every_kind():
    assert len(PANEL) >= 40
    assert {c[3] for c in PANEL} == {1, 2, 3, 5}
    assert {c[0] for c in PANEL} == {"planted", "n<d", "negative-label", "zero-labels"}


@pytest.mark.parametrize("case", PANEL, ids=_case_id)
def test_fit_matches_the_lifted_qp(case, tmp_path, capsys):
    ds, beta, r, w_star = _dataset(case)
    p = ds.filter_size
    fit = relax.fit_with_perturbation(ds, beta, r)
    lifted = lifted_qp(ds, beta, r)
    reference = qpsolve.solve(lifted)
    if case[0] == "negative-label" or (case[0] == "n<d" and ds.k > 1):
        assert reference.status == SolveStatus.OPTIMAL
    assert fit.report.status == reference.status
    assert len(fit.report.x) == p + ds.n

    path = str(tmp_path / "data.csv")
    export_csv(ds, path)
    code = main(["fit", "--in", path, "--beta", str(beta), "--trials", "1", "--seed", str(case[-1])])
    capsys.readouterr()
    assert code == (EXIT_OK if reference.status == SolveStatus.OPTIMAL else EXIT_SOLVER)
    if reference.status != SolveStatus.OPTIMAL:
        return

    w_ref = reference.x[:p]
    assert np.max(np.abs(fit.w_hat - w_ref)) <= 1e-6 * (1.0 + np.linalg.norm(w_star))
    assert relax.assess(fit.w_hat, w_star).success == relax.assess(w_ref, w_star).success
    value = relax.build(ds, beta, r).objective(fit.report.x)
    value_ref = lifted.objective(reference.x)
    assert abs(value - value_ref) <= TOL * (1.0 + abs(value_ref))

    # z_hat sums to û, so it is a feasible lifted point of the same value
    u_hat = fit.report.x[p:]
    np.testing.assert_allclose(fit.z_hat.reshape(ds.n, ds.k).sum(axis=1), u_hat, rtol=0.0,
                               atol=1e-12 * (1.0 + np.max(np.abs(u_hat))))
    point = np.concatenate([fit.w_hat, fit.z_hat])
    assert np.max(lifted.a_ineq @ point - lifted.b_ineq) <= TOL
    assert abs(lifted.objective(point) - value) <= TOL * (1.0 + abs(value))


def test_k1_program_is_the_lifted_matrix():
    ds, beta, r, _ = _dataset(PANEL[0])
    assert ds.k == 1
    program, lifted = relax.build(ds, beta, r), lifted_qp(ds, beta, r)
    # its dense twin is the lifted matrix
    dense = program.dense()
    for name in ("c", "q", "a_ineq", "b_ineq"):
        np.testing.assert_array_equal(getattr(dense, name), getattr(lifted, name))


def _solved_rounds(monkeypatch, ds, program):
    """(program, report) of every solve that ``block_set_lp`` makes."""
    rounds = []
    solve = qpsolve.solve

    def recording(program, *args, **kwargs):
        report = solve(program, *args, **kwargs)
        rounds.append((program, report))
        return report

    monkeypatch.setattr(qpsolve, "solve", recording)
    relax.block_set_lp(ds, program)
    monkeypatch.setattr(qpsolve, "solve", solve)
    return rounds


@pytest.mark.parametrize("beta", [1e-3, 1.0])
@pytest.mark.parametrize("k, n, d", [(1, 60, 10), (2, 40, 16)])
def test_split_qp_matches_its_dense_twin(k, n, d, beta, monkeypatch):
    # every round, the appended rows of the second one on included
    _, ds = sample_planted(n, d, k, 41)
    r = substream(42, STREAM_PERTURBATION).standard_normal(ds.filter_size)
    rounds = _solved_rounds(monkeypatch, ds, relax.build(ds, beta, r))
    assert len(rounds) >= (2 if k > 1 else 1)
    for program, report in rounds:
        assert program.sep.q.size == ds.n and program.a_ineq.shape == (program.n_ineq, ds.filter_size)
        twin = qpsolve.solve(program.dense())
        assert report.status == twin.status == SolveStatus.OPTIMAL
        assert report.iterations == twin.iterations
        np.testing.assert_allclose(report.x, twin.x, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(report.lam, twin.lam, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("beta", [0.0, 1e-3])
def test_generated_rows_extend_the_separable_part(beta, monkeypatch):
    # every round's program holds one separable entry per row: the QP's
    # new row Σ X_ij·w − uᵢ ≤ 0 its sample's −uᵢ, the LP's none
    _, ds = sample_planted(40, 16, 2, 41)
    r = substream(42, STREAM_PERTURBATION).standard_normal(ds.filter_size)
    first = relax.build(ds, beta, r)
    rounds = _solved_rounds(monkeypatch, ds, first)
    assert len(rounds) >= 2
    sample = relax.block_set_lp(ds, first)[1]
    for program, _ in rounds:
        rows = program.n_ineq
        assert program.sep.col.shape == program.sep.coef.shape == (rows,)
        if beta:
            assert program.sep.col.tolist() == sample[:rows].tolist()
            assert (program.sep.coef == -1.0).all()
        else:
            assert program.is_lp and not program.sep.col.any() and not program.sep.coef.any()


def test_large_qp_fit_forms_no_dense_matrix():
    # (p + n)² curvature alone would take 32 MB here, and the dense
    # (nk + n) × (p + n) rows 64 MB
    _, ds = sample_planted(2000, 20, 1, 43)
    tracemalloc.start()
    try:
        fit = relax.fit(ds, 1e-3, 44)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.report.status == SolveStatus.OPTIMAL
    assert peak <= 10e6


def test_fit_amplified_picks_the_lifted_winner():
    pm, ds = sample_planted(30, 8, 2, 77)
    beta, trials, seed = 1e-3, 4, 5
    outcome = relax.fit_amplified(ds, trials, seed, beta=beta)
    results = []
    for t in range(trials):
        r = substream(derived_seed(seed, t), STREAM_PERTURBATION).standard_normal(ds.filter_size)
        report = qpsolve.solve(lifted_qp(ds, beta, r))
        w = report.x[: ds.filter_size]
        results.append((report.status, residual(ds, w), w))
        record = outcome.trials[t]
        assert record.status == report.status
        if report.status == SolveStatus.OPTIMAL:
            assert abs(record.train_residual - residual(ds, w)) <= 1e-6 * (1.0 + record.train_residual)
    best = min((t for t in range(trials) if results[t][0] == SolveStatus.OPTIMAL),
               key=lambda t: (results[t][1], t))
    assert outcome.best.trial_seed == derived_seed(seed, best)
    assert np.max(np.abs(outcome.best.w_hat - results[best][2])) <= 1e-6 * (1.0 + np.linalg.norm(pm.w_star))
    assert outcome.success == relax.assess(results[best][2], pm.w_star).success


# one sample with fewer block rows than filter entries: w is unbounded
UNBOUNDED = [(2, 8), (3, 12), (5, 20)]


@pytest.mark.parametrize("k, d", UNBOUNDED)
def test_unbounded_qp_is_dual_unbounded(k, d, tmp_path, capsys):
    _, ds = sample_planted(1, d, k, 0)
    r = substream(0, STREAM_PERTURBATION).standard_normal(ds.filter_size)
    assert qpsolve.solve(relax.build(ds, 1e-3, r)).status == SolveStatus.DUAL_UNBOUNDED
    path = str(tmp_path / "one.csv")
    export_csv(ds, path)
    assert main(["fit", "--in", path, "--beta", "1e-3"]) == EXIT_SOLVER
    assert "DualUnbounded" in capsys.readouterr().err


def _beta_panel():
    """Planted relaxation QPs at k ∈ {1, 2} with n ≥ 4·d/k samples."""
    for k, d, n in ((1, 10, 40), (1, 20, 80), (2, 8, 16), (2, 20, 40)):
        for seed in (0, 1, 2, 3, 4, 909):
            _, ds = sample_planted(n, d, k, seed)
            yield ds, substream(seed, STREAM_PERTURBATION).standard_normal(ds.filter_size)


@pytest.mark.parametrize("beta", [1e-3, 1e-1, 1.0, 10.0])
def test_qp_is_optimal_at_every_weight(beta):
    for ds, r in _beta_panel():
        program = relax.build(ds, beta, r)
        report = qpsolve.solve(program)
        assert report.status == SolveStatus.OPTIMAL, (ds.k, ds.n, ds.seed)
        assert qpsolve.check_kkt(program, report, TOL).passed
        if ds.k > 1:
            assert relax.block_set_lp(ds, program)[0].status == SolveStatus.OPTIMAL


def _wide_cases():
    """The panel's n < d cases and the unbounded single samples."""
    for case in PANEL:
        if case[0] == "n<d":
            ds, beta, r, _ = _dataset(case)
            yield _case_id(case), ds, beta, r
    for k, d in UNBOUNDED:
        _, ds = sample_planted(1, d, k, 0)
        yield f"n=1-d={d}-k={k}", ds, 1e-3, substream(0, STREAM_PERTURBATION).standard_normal(ds.filter_size)


@pytest.mark.parametrize("ds, beta, r", [pytest.param(*case[1:], id=case[0]) for case in _wide_cases()])
def test_qp_is_unbounded_exactly_when_the_lp_is(ds, beta, r):
    # labels ≥ 0 make w = 0 feasible, and the QP's recession directions
    # are the LP's in w, so both are unbounded or neither
    assert np.all(ds.y >= 0.0)
    highs_status, _, _ = highs_lp(r, *block_set_expansion(ds.blocks(), ds.y))
    status = relax.fit_with_perturbation(ds, beta, r).report.status
    assert status in (SolveStatus.OPTIMAL, SolveStatus.DUAL_UNBOUNDED)
    assert (status == SolveStatus.DUAL_UNBOUNDED) == (highs_status == "unbounded")
