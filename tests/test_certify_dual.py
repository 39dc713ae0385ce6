"""``certify.dual_solve`` against independent references.

``dual_solve`` solves one program at every k: the LP with z eliminated,
min rᵀw subject to Σ_{j∈S} X_ij·w ≤ yᵢ for every sample and nonempty
block set S, by row generation.  Its solution is the primal fit ŵ, and
its row multipliers μ map back to the lifted dual: λ_ij = Σ_{S∋j} μ_iS,
vᵢ = Σ_S μ_iS.  Checked here against

- the dual programs it replaced, kept below as the references and
  solved by HiGHS: the explicit k=1 dual and the lifted (n + nk)-variable
  dual at k>1, on status, objective, and lifted-dual feasibility of the
  mapped (λ, v);
- ``relax.fit_with_perturbation``, which makes the same solve, bit for
  bit, and the lifted k>1 LP it replaced (``oracles.lifted_lp``, by
  HiGHS), on ŵ, the primal objective and the recovery verdict;
- HiGHS on the full 2^k − 1 block-set expansion (k ≤ 4);
- HiGHS on the rows the generation ended with;

and on its failure paths: the round cap, negative labels, and a solve
whose primal or dual point does not pass the recheck.
"""

import dataclasses

import numpy as np
import pytest

from convrelax import certify, relax
from convrelax.cli import EXIT_OK, EXIT_SOLVER, main
from convrelax.model import (
    STREAM_PERTURBATION,
    Dataset,
    forward,
    sample_planted,
    substream,
)
from convrelax.qpsolve import SolveStatus
from golden_cases import strict_json, write_planted_csv
from oracles import block_set_expansion, highs_lp, lifted_lp

DUAL_STATUS_OF_HIGHS = {"optimal": certify.DUAL_OPTIMAL, "unbounded": certify.DUAL_INFEASIBLE}


def _dual_reference(c, a, b, a_eq, b_eq):
    """(status, objective) of the dual program max −cᵀx over {a·x ≤ b,
    a_eq·x = b_eq} by HiGHS, whose min cᵀx is the negated objective."""
    status, value, _ = highs_lp(c, a, b, a_eq, b_eq)
    if status == "infeasible":
        return certify.DUAL_INFEASIBLE, None
    if status != "optimal":
        return certify.DUAL_FAILED, None
    return certify.DUAL_OPTIMAL, -value


def explicit_dual_reference(dataset, r):
    """The k=1 dual program ``dual_solve`` solved next to the primal fit:
    max −yᵀu over u ≥ 0 with Xᵀu = −r.  Returns (status, objective)."""
    n = dataset.n
    return _dual_reference(dataset.y, -np.eye(n), np.zeros(n), dataset.x.T, -r)


def lifted_dual_reference(dataset, r):
    """The k>1 dual program ``dual_solve`` solved before row generation:
    max −yᵀv over v and λ with 0 ≤ λ_ij ≤ vᵢ and Σ X_ijᵀλ_ij = −r, as one
    dense (n + nk)-variable program.  Returns (status, objective)."""
    n, k, p = dataset.n, dataset.k, dataset.filter_size
    nz = n * k
    m = n + nz  # v block then λ block, λ_ij at n + i·k + j
    c = np.concatenate([dataset.y, np.zeros(nz)])
    a_bound = np.zeros((nz, m))
    a_bound[np.arange(nz), n + np.arange(nz)] = 1.0
    a_bound[np.arange(nz), np.repeat(np.arange(n), k)] = -1.0
    a_nonneg = np.zeros((nz, m))
    a_nonneg[np.arange(nz), n + np.arange(nz)] = -1.0
    a_eq = np.zeros((p, m))
    a_eq[:, n:] = dataset.blocks().reshape(nz, p).T
    return _dual_reference(c, np.vstack([a_bound, a_nonneg]), np.zeros(2 * nz), a_eq, -r)


def _panel():
    """65 cases over k ∈ {1, 2, 3, 4, 5}: planted data of several shapes;
    n < d with fewer block rows than filter entries (a dual-infeasible
    case) and, at k>1, with more; a zero feature row; all-zero labels.
    At k=1 the first thin case takes d = 3, so that n < d holds."""
    cases = []
    for k in (1, 2, 3, 4, 5):
        for t, (kind, n, p) in enumerate([
            ("planted", 8, 2), ("planted", 15, 3), ("planted", 30, 2), ("planted", 30, 4),
            ("planted", 45, 3), ("planted", 60, 2), ("planted", 60, 4), ("planted", 20, 4),
            ("planted", 40, 3), ("thin", 2, max(2 * k, 3)), ("thin", 2 * k - 1, 2),
            ("zero-row", 30, 3), ("zero-labels", 25, 3),
        ]):
            cases.append((kind, n, k * p, k, 100 * k + t))
    return cases


PANEL = _panel()


def _dataset(case):
    """(dataset, perturbation, the filter that made the labels)."""
    kind, n, d, k, seed = case
    pm, ds = sample_planted(n, d, k, seed)
    x, y, w_star = ds.x, ds.y, pm.w_star
    if kind == "zero-row":
        x = x.copy()
        x[0] = 0.0
        w_star = substream(seed, 2).standard_normal(d // k)
        y = forward(x, w_star, k)
    elif kind == "zero-labels":
        y = np.zeros(n)
        w_star = np.zeros(d // k)
    r = substream(seed, STREAM_PERTURBATION).standard_normal(d // k)
    return Dataset(x=x, y=y, k=k), r, w_star


def _case_id(case):
    kind, n, d, k, seed = case
    return f"{kind}-n{n}-d{d}-k{k}-s{seed}"


def test_panel_covers_every_outcome():
    kinds = {case[0] for case in PANEL}
    assert len(PANEL) >= 50 and kinds == {"planted", "thin", "zero-row", "zero-labels"}
    assert {case[3] for case in PANEL} == {1, 2, 3, 4, 5}
    assert all(n < d for kind, n, d, _, _ in PANEL if kind == "thin")


@pytest.mark.parametrize("case", PANEL, ids=_case_id)
def test_block_set_dual_matches_lifted_reference(case):
    ds, r, _ = _dataset(case)
    out = certify.dual_solve(ds, r)
    reference = explicit_dual_reference if ds.k == 1 else lifted_dual_reference
    status, obj = reference(ds, r)
    assert out.status == status
    if status != certify.DUAL_OPTIMAL:
        assert out.duals.size == 0 and np.isnan(out.dual_objective)
        return
    assert abs(out.dual_objective - obj) <= 1e-8 * (1.0 + abs(obj))
    # the mapped (λ, v) is a feasible point of the lifted dual with the
    # reported objective
    lam, v = out.duals.reshape(ds.n, ds.k), out.v
    assert lam.min() >= 0.0
    assert np.all(lam <= v[:, None] * (1.0 + 1e-12))
    assert np.max(np.abs(np.einsum("ij,ijp->p", lam, ds.blocks()) + r)) <= 1e-9
    assert out.dual_objective == -float(ds.y @ v)


@pytest.mark.parametrize("case", PANEL, ids=_case_id)
def test_primal_matches_relax_fit(case):
    ds, r, w_star = _dataset(case)
    out = certify.dual_solve(ds, r)
    fit = relax.fit_with_perturbation(ds, 0.0, r)
    # at k=1 the lifted program is the singleton-row LP itself
    if ds.k == 1:
        optimal, x_ref = fit.report.status == SolveStatus.OPTIMAL, fit.report.x
    else:
        status, _, x_ref = lifted_lp(ds, r)
        optimal = status == "optimal"
    if out.status != certify.DUAL_OPTIMAL:
        assert fit.report.status != SolveStatus.OPTIMAL
        assert not optimal
        assert np.isnan(out.primal_objective) and np.all(out.w_hat == 0.0)
        return
    assert fit.report.status == SolveStatus.OPTIMAL and optimal
    w_ref = x_ref[: ds.filter_size]
    np.testing.assert_array_equal(out.w_hat, fit.w_hat)
    obj = float(r @ w_ref)
    assert abs(out.primal_objective - obj) <= 1e-8 * (1.0 + abs(obj))
    assert np.max(np.abs(out.w_hat - w_ref)) <= 1e-6 * (1.0 + np.max(np.abs(w_ref)))
    assert relax.assess(out.w_hat, w_star).success == relax.assess(w_ref, w_star).success


@pytest.mark.parametrize("case", [c for c in PANEL if c[3] <= 4], ids=_case_id)
def test_block_set_dual_matches_highs_on_full_expansion(case):
    ds, r, _ = _dataset(case)
    out = certify.dual_solve(ds, r)
    status, value, _ = highs_lp(r, *block_set_expansion(ds.blocks(), ds.y))
    assert out.status == DUAL_STATUS_OF_HIGHS[status]
    if status == "optimal":
        assert abs(out.dual_objective - value) <= 1e-8 * (1.0 + abs(value))


@pytest.mark.parametrize("case", PANEL, ids=_case_id)
def test_generated_rows_are_exact_for_highs(case):
    ds, r, _ = _dataset(case)
    xb, y = ds.blocks(), ds.y
    report, sample, blocks = relax.block_set_lp(ds, relax.build(ds, 0.0, r))
    # the first n·k rows are the singletons; no block set comes twice
    np.testing.assert_array_equal(sample[: ds.n * ds.k], np.repeat(np.arange(ds.n), ds.k))
    keys = {(i, m.tobytes()) for i, m in zip(sample, blocks)}
    assert len(keys) == len(sample)
    a = np.einsum("rj,rjp->rp", blocks.astype(float), xb[sample])
    status, value, w = highs_lp(r, a, y[sample])
    assert status == {SolveStatus.OPTIMAL: "optimal", SolveStatus.DUAL_UNBOUNDED: "unbounded"}[report.status]
    if status == "optimal":
        assert abs(r @ report.x - value) <= 1e-8 * (1.0 + abs(value))
        # HiGHS's optimum over the generated rows meets every block-set
        # row, so the rows left out could not have moved the optimum
        assert np.all(np.maximum(xb @ w, 0.0).sum(axis=1) <= y + 1e-7 * (1.0 + y))


# -- failure paths ------------------------------------------------------------


def _write(tmp_path, n, d, k, seed, label=None):
    return write_planted_csv(str(tmp_path / "data.csv"), n, d, k, seed, label)


def test_negative_label_is_a_dual_program_failure(tmp_path, capsys):
    # no z ≥ 0 sums to a negative label, so the lifted primal is infeasible
    # and its dual unbounded
    path = _write(tmp_path, 30, 4, 2, 2, label="-0.5")
    assert main(["certify", "--in", str(path), "--json"]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "solver failure in the dual program" in captured.err
    _, ds = sample_planted(30, 4, 2, 2)
    y = ds.y.copy()
    y[0] = -0.5
    neg = Dataset(x=ds.x, y=y, k=2)
    r = substream(0, STREAM_PERTURBATION).standard_normal(2)
    assert certify.dual_solve(neg, r).status == certify.DUAL_FAILED
    assert lifted_dual_reference(neg, r)[0] == certify.DUAL_FAILED


def test_thin_k2_dataset_is_dual_infeasible(tmp_path, capsys):
    path = _write(tmp_path, 4, 10, 2, 1)
    assert main(["certify", "--in", str(path), "--json"]) == EXIT_OK
    assert strict_json(capsys.readouterr().out)["dual"]["status"] == certify.DUAL_INFEASIBLE


def test_round_cap_is_a_dual_program_failure(tmp_path, capsys, monkeypatch):
    # this case needs a second round: one block-set row is violated at the
    # singleton optimum
    _, ds = sample_planted(40, 8, 2, 0)
    r = substream(0, STREAM_PERTURBATION).standard_normal(4)
    _, sample, _ = relax.block_set_lp(ds, relax.build(ds, 0.0, r))
    assert len(sample) > ds.n * ds.k
    monkeypatch.setattr(relax, "MAX_ROW_ROUNDS", 2)
    assert certify.dual_solve(ds, r).status == certify.DUAL_OPTIMAL
    monkeypatch.setattr(relax, "MAX_ROW_ROUNDS", 1)
    with pytest.warns(RuntimeWarning, match="round cap MAX_ROW_ROUNDS=1"):
        assert certify.dual_solve(ds, r).status == certify.DUAL_FAILED
    path = _write(tmp_path, 40, 8, 2, 0)
    with pytest.warns(RuntimeWarning, match="round cap MAX_ROW_ROUNDS=1"):
        assert main(["certify", "--in", str(path), "--seed", "0", "--json"]) == EXIT_SOLVER
    assert "solver failure in the dual program" in capsys.readouterr().err


def test_negative_label_at_k1_keeps_the_lp_optimal(tmp_path, capsys):
    # the k=1 LP pins z = y and has no z ≥ 0 row, so a negative label is
    # only a tighter row xᵢ·w ≤ yᵢ and the label is not clipped
    path = _write(tmp_path, 30, 4, 1, 2, label="-0.5")
    assert main(["certify", "--in", str(path), "--json"]) == EXIT_OK
    assert strict_json(capsys.readouterr().out)["dual"]["status"] == certify.DUAL_OPTIMAL
    _, ds = sample_planted(30, 4, 1, 2)
    y = ds.y.copy()
    y[0] = -0.5
    neg = Dataset(x=ds.x, y=y, k=1)
    r = substream(0, STREAM_PERTURBATION).standard_normal(4)
    out = certify.dual_solve(neg, r)
    status, obj = explicit_dual_reference(neg, r)
    assert out.status == status == certify.DUAL_OPTIMAL
    assert abs(out.dual_objective - obj) <= 1e-8 * (1.0 + abs(obj))


def _spoil(monkeypatch, field):
    """Make the block-set solve return an Optimal report whose largest
    multiplier (field "lam") or whose ŵ entry along the largest |r|
    (field "x", moved to lower rᵀŵ) is off by 1e-6."""
    solve = relax.block_set_lp

    def spoiled(dataset, program):
        report, sample, blocks = solve(dataset, program)
        r = program.c
        assert report.status == SolveStatus.OPTIMAL
        value = getattr(report, field).copy()
        if field == "lam":
            value[np.argmax(value)] += 1e-6
        else:
            j = np.argmax(np.abs(r))
            value[j] -= 1e-6 * np.sign(r[j])
        return dataclasses.replace(report, **{field: value}), sample, blocks

    monkeypatch.setattr(relax, "block_set_lp", spoiled)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("field, residual", [("lam", "lifted-dual feasibility"),
                                              ("x", "primal feasibility")])
def test_recheck_fails_a_spoiled_solve(tmp_path, capsys, monkeypatch, k, field, residual):
    n, d = 40, 4 * k
    _, ds = sample_planted(n, d, k, 5)
    r = substream(0, STREAM_PERTURBATION).standard_normal(4)
    assert certify.dual_solve(ds, r).status == certify.DUAL_OPTIMAL
    _spoil(monkeypatch, field)
    with pytest.warns(RuntimeWarning, match=f"{residual} residual"):
        out = certify.dual_solve(ds, r)
    assert out.status == certify.DUAL_FAILED
    assert np.isnan(out.primal_objective) and np.all(out.w_hat == 0.0)
    path = _write(tmp_path, n, d, k, 5)
    with pytest.warns(RuntimeWarning, match=f"{residual} residual"):
        assert main(["certify", "--in", str(path), "--json"]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "solver failure in the dual program" in captured.err
