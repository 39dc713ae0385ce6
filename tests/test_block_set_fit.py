"""The β=0 fit at every k against the lifted program it replaced.

``relax.fit`` solves the vanishing-weight relaxation as one LP in w by
row generation: the n·k singleton rows X_ij·w ≤ yᵢ, then per sample the
row Σ_{j∈S} X_ij·w ≤ yᵢ of its positively responding blocks S while one
is violated.  Checked here against

- the dense lifted (p + nk)-variable LP, ``oracles.lifted_lp``, solved
  by HiGHS, on status, exit code, ŵ and the recovery verdict;
- HiGHS on the full 2^k − 1 block-set expansion (k ≤ 4), on status and
  objective;
- the lifted LP's constraints, on the reconstructed slack z_hat;

and on its failure paths: negative labels and the round cap.
"""

import numpy as np
import pytest

from convrelax import certify, qpsolve, relax, sweep
from convrelax.cli import EXIT_OK, EXIT_SOLVER, main
from convrelax.model import (
    STREAM_PERTURBATION,
    Dataset,
    derived_seed,
    export_csv,
    sample_planted,
    substream,
)
from convrelax.qpsolve import SolveStatus
from golden_cases import CLI_CASES, SWEEP_CASES, write_planted_csv
from oracles import block_set_expansion, highs_lp, lifted_lp, lifted_lp_rows

STATUS_OF_HIGHS = {"optimal": SolveStatus.OPTIMAL, "unbounded": SolveStatus.DUAL_UNBOUNDED,
                   "infeasible": SolveStatus.PRIMAL_INFEASIBLE}

# -- failure paths ------------------------------------------------------------


def _fit_cli(tmp_path, n, d, k, seed, label=None, trials=2):
    path = write_planted_csv(str(tmp_path / "data.csv"), n, d, k, seed, label)
    return main(["fit", "--in", path, "--trials", str(trials), "--seed", "0"])


def test_negative_label_at_k2_makes_every_trial_primal_infeasible(tmp_path, capsys):
    # no z ≥ 0 sums to a negative label
    assert _fit_cli(tmp_path, 40, 8, 2, 3, label="-0.5") == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "all 2 trials failed: PrimalInfeasible, PrimalInfeasible" in err


def test_negative_label_at_k1_is_a_tighter_row(tmp_path, capsys):
    assert _fit_cli(tmp_path, 40, 8, 1, 3, label="-0.5") == EXIT_OK
    assert "status=Optimal" in capsys.readouterr().out


def test_negative_label_outranks_unbounded_rows():
    # with too few rows to bound w and a negative label, the program is
    # infeasible, as HiGHS finds for the lifted LP
    _, ds = sample_planted(4, 10, 2, 1)
    y = ds.y.copy()
    y[0] = -0.5
    neg = Dataset(x=ds.x, y=y, k=2)
    r = substream(0, STREAM_PERTURBATION).standard_normal(5)
    assert relax.fit_with_perturbation(neg, 0.0, r).report.status == SolveStatus.PRIMAL_INFEASIBLE
    assert lifted_lp(neg, r)[0] == "infeasible"
    assert relax.fit_with_perturbation(ds, 0.0, r).report.status == SolveStatus.DUAL_UNBOUNDED
    assert certify.dual_solve(neg, r).status == certify.DUAL_FAILED


def test_round_cap_ends_the_trial_max_iterations(tmp_path, capsys, monkeypatch):
    # trial 0 of seed 0 needs a second round on this dataset
    _, ds = sample_planted(40, 8, 2, 0)
    r = substream(derived_seed(0, 0), STREAM_PERTURBATION).standard_normal(4)
    _, sample, _ = relax.block_set_lp(ds, relax.build(ds, 0.0, r).program)
    assert len(sample) > ds.n * ds.k
    monkeypatch.setattr(relax, "MAX_ROW_ROUNDS", 1)
    with pytest.warns(RuntimeWarning, match="round cap MAX_ROW_ROUNDS=1"):
        res = relax.fit_with_perturbation(ds, 0.0, r)
    assert res.report.status == SolveStatus.MAX_ITERATIONS
    with pytest.warns(RuntimeWarning, match="round cap MAX_ROW_ROUNDS=1"):
        code = _fit_cli(tmp_path, 40, 8, 2, 0, trials=1)
    assert code == EXIT_SOLVER
    assert "all 1 trials failed: MaxIterations" in capsys.readouterr().err


# -- the panel ----------------------------------------------------------------


def _panel():
    """18 cases at each k ∈ {2, 3, 5}: planted data of several shapes and
    seeds; fewer block rows than filter entries (unbounded); a negative
    label (infeasible); a zero feature row; all-zero labels.  Then the
    trials of the golden k=2 fit and sweep cases."""
    cases = []
    for k in (2, 3, 5):
        shapes = [("planted", n, p) for n, p in ((10, 2), (20, 2), (30, 3), (40, 2), (40, 4),
                                                 (50, 3), (60, 4), (20, 4), (30, 2), (45, 3),
                                                 (60, 2), (25, 5))]
        shapes += [("thin", 1, 2 * k + 1), ("thin", 2, 3 * k), ("negative-label", 30, 3),
                   ("negative-label", 12, 2), ("zero-row", 30, 3), ("zero-labels", 20, 3)]
        cases += [(kind, n, k * p, k, 1000 * k + t) for t, (kind, n, p) in enumerate(shapes)]
    (n, d, k, data_seed), args = CLI_CASES["fit_k2_lifted_lp"]
    trials, seed = int(args[args.index("--trials") + 1]), int(args[args.index("--seed") + 1])
    cases += [("golden-fit", n, d, k, data_seed, derived_seed(seed, t)) for t in range(trials)]
    spec = SWEEP_CASES["sweep_k2"]
    cases += [("golden-sweep", n, d, spec["k"], s, s)
              for n in spec["n_values"] for d in spec["d_values"] for t in range(spec["trials"])
              for s in [sweep.cell_trial_seed(spec["master_seed"], sweep.METHOD_RELAXATION, n, d, t)]]
    return cases


PANEL = _panel()


def _case_id(case):
    return "-".join(str(v) for v in case)


def _dataset(case):
    """(dataset, perturbation, planted filter).  The perturbation is what
    ``convrelax fit --trials 1 --seed <case seed>`` draws for its trial."""
    kind, n, d, k, seed, *trial = case
    pm, ds = sample_planted(n, d, k, seed)
    x, y, w_star = ds.x, ds.y.copy(), pm.w_star
    if kind == "negative-label":
        y[0] = -0.25
    elif kind == "zero-row":
        x = x.copy()
        x[0] = 0.0
        y[0] = 0.0
    elif kind == "zero-labels":
        y[:] = 0.0
        w_star = np.zeros(d // k)
    r_seed = trial[0] if trial else derived_seed(seed, 0)
    r = substream(r_seed, STREAM_PERTURBATION).standard_normal(d // k)
    return Dataset(x=x, y=y, k=k, seed=seed), r, w_star


KINDS = ("planted", "thin", "negative-label", "zero-row", "zero-labels")


def test_panel_covers_every_kind():
    assert len([c for c in PANEL if c[0] in KINDS]) >= 54
    assert {c[3] for c in PANEL if c[0] in KINDS} == {2, 3, 5}
    assert {c[0] for c in PANEL} == {*KINDS, "golden-fit", "golden-sweep"}


@pytest.mark.parametrize("case", PANEL, ids=_case_id)
def test_fit_matches_the_lifted_reference(case, tmp_path, capsys):
    ds, r, w_star = _dataset(case)
    fit = relax.fit_with_perturbation(ds, 0.0, r)
    status, _, x_ref = lifted_lp(ds, r)
    assert fit.report.status == STATUS_OF_HIGHS[status]
    assert len(fit.report.x) == ds.filter_size
    if case[0] not in ("golden-fit", "golden-sweep"):
        path = str(tmp_path / "data.csv")
        export_csv(ds, path)
        code = main(["fit", "--in", path, "--trials", "1", "--seed", str(case[4])])
        capsys.readouterr()
        assert code == (EXIT_OK if status == "optimal" else EXIT_SOLVER)
    if status != "optimal":
        return
    w_ref = x_ref[: ds.filter_size]
    assert np.max(np.abs(fit.w_hat - w_ref)) <= 1e-6 * (1.0 + np.linalg.norm(w_star))
    assert relax.assess(fit.w_hat, w_star).success == relax.assess(w_ref, w_star).success


@pytest.mark.parametrize("case", [c for c in PANEL if c[3] <= 4], ids=_case_id)
def test_fit_matches_highs_on_full_expansion(case):
    ds, r, _ = _dataset(case)
    fit = relax.fit_with_perturbation(ds, 0.0, r)
    a, b = block_set_expansion(ds.blocks(), ds.y)
    if np.any(ds.y < 0.0):
        # no nonnegative slacks sum to a negative label: the empty set's row
        a, b = np.vstack([a, np.zeros((1, ds.filter_size))]), np.append(b, ds.y.min())
    status, value, _ = highs_lp(r, a, b)
    assert fit.report.status == STATUS_OF_HIGHS[status]
    if status == "optimal":
        assert abs(r @ fit.w_hat - value) <= 1e-8 * (1.0 + abs(value))


@pytest.mark.parametrize("case", PANEL, ids=_case_id)
def test_z_hat_is_feasible_for_the_lifted_program(case):
    ds, r, _ = _dataset(case)
    fit = relax.fit_with_perturbation(ds, 0.0, r)
    if fit.report.status != SolveStatus.OPTIMAL:
        return
    np.testing.assert_allclose(fit.z_hat.reshape(ds.n, ds.k).sum(axis=1), ds.y, rtol=0.0, atol=1e-12)
    _, a_ub, b_ub, a_eq, b_eq = lifted_lp_rows(ds, r)
    point = np.concatenate([fit.w_hat, fit.z_hat])
    assert np.max(a_ub @ point - b_ub) <= qpsolve.DEFAULT_TOL
    assert np.max(np.abs(a_eq @ point - b_eq)) <= 1e-12 * (1.0 + np.max(np.abs(ds.y)))
