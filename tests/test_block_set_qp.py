"""The β > 0 fit at every k against the lifted QP it replaced.

``relax.fit`` solves the β > 0 relaxation as a QP over the filter w and
the slack sums uᵢ = Σ_j z_ij by row generation: the n·k singleton rows
X_ij·w − uᵢ ≤ 0 and −u ≤ 0, then per sample the row
Σ_{j∈S} X_ij·w − uᵢ ≤ 0 of its positively responding blocks S while one
is violated.  Checked here against the dense lifted (p + nk)-variable QP,
``oracles.lifted_qp``, on status, exit code, ŵ, objective value and the
recovery verdict, and on the lifted QP's constraints for the
reconstructed slacks z_hat.  At k=1 the two programs are the same matrix.
"""

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
from oracles import lifted_qp

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
    value = relax.build(ds, beta, r).program.objective(fit.report.x)
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
    program, lifted = relax.build(ds, beta, r).program, lifted_qp(ds, beta, r)
    for name in ("c", "q", "a_ineq", "b_ineq"):
        np.testing.assert_array_equal(getattr(program, name), getattr(lifted, name))


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
