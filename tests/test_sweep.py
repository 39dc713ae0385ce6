import numpy as np
import pytest

from convrelax import sweep
from convrelax.model import sample_planted
from convrelax.relax import assess, fit
from convrelax.sweep import (
    METHOD_GRADIENT_DESCENT,
    METHOD_RELAXATION,
    GridSpec,
    PhaseCell,
    SweepError,
    ascii_heatmap,
    cell_trial_seed,
    estimate_boundary,
    read_csv,
    run_grid,
    write_csv,
)


def test_gridspec_validation():
    with pytest.raises(SweepError):
        GridSpec(n_values=(), d_values=(4,), k=1)
    with pytest.raises(SweepError):
        GridSpec(n_values=(10, 5), d_values=(4,), k=1)  # not ascending
    with pytest.raises(SweepError):
        GridSpec(n_values=(10,), d_values=(5,), k=2)  # k does not divide d
    with pytest.raises(SweepError):
        GridSpec(n_values=(10,), d_values=(4,), k=1, methods=("Nope",))


def test_single_cell_matches_direct_fit():
    spec = GridSpec(
        n_values=(40,), d_values=(4,), k=1, trials=1,
        methods=(METHOD_RELAXATION,), master_seed=5,
    )
    (cell,) = run_grid(spec)
    seed = cell_trial_seed(5, METHOD_RELAXATION, 40, 4, 0)
    pm, ds = sample_planted(40, 4, 1, seed)
    res = fit(ds, 0.0, seed)
    verdict = assess(res.w_hat, pm.w_star, spec.tau)
    assert cell.trials_run == 1
    assert cell.min_err == pytest.approx(verdict.l2_error, abs=1e-15)
    assert cell.success_rate == float(verdict.success)


def test_run_grid_deterministic_and_schedule_independent():
    spec = GridSpec(
        n_values=(20, 40), d_values=(2, 4), k=1, trials=3, master_seed=9,
    )
    a = run_grid(spec, workers=1)
    b = run_grid(spec, workers=2)
    assert a == b
    c = run_grid(spec, workers=1)
    assert a == c


def test_grid_extension_leaves_existing_cells_alone():
    base = GridSpec(n_values=(20,), d_values=(4,), k=1, trials=4, master_seed=3)
    bigger = GridSpec(n_values=(20, 30), d_values=(4, 8), k=1, trials=4, master_seed=3)
    cells_base = {(c.method, c.n, c.d): c for c in run_grid(base)}
    cells_big = {(c.method, c.n, c.d): c for c in run_grid(bigger)}
    for key, cell in cells_base.items():
        assert cells_big[key] == cell


def test_write_csv_empty_and_round_trip(tmp_path):
    path = tmp_path / "cells.csv"
    write_csv([], str(path))
    assert path.read_text() == sweep.CSV_HEADER + "\n"

    cell = PhaseCell(
        method=METHOD_RELAXATION, k=1, n=10, d=2, trials_run=7,
        min_err=1.25e-9, mean_err=0.5, success_rate=3 / 7,
    )
    write_csv([cell], str(path))
    (back,) = read_csv(str(path))
    assert back.method == cell.method
    assert (back.k, back.n, back.d, back.trials_run) == (1, 10, 2, 7)
    assert back.min_err == cell.min_err
    assert back.mean_err == cell.mean_err
    assert back.success_rate == cell.success_rate
    assert back.failures == 0


def test_csv_round_trips_an_all_failed_cell(tmp_path):
    # n < d: every relaxation trial fails, which must not read back as missed
    spec = GridSpec(n_values=(5,), d_values=(20,), k=1, trials=3,
                    methods=(METHOD_RELAXATION,), master_seed=1)
    cells = run_grid(spec)
    path = tmp_path / "failed.csv"
    write_csv(cells, str(path))
    (back,) = read_csv(str(path))
    assert back.failures == 3 and back.trials_run == 3
    assert np.isnan(back.min_err) and back.success_rate == 0.0
    row = path.read_text().splitlines()[1]
    assert row == "Relaxation,1,5,20,3,nan,nan,0,3"


def test_write_csv_byte_stable_golden(tmp_path):
    spec = GridSpec(
        n_values=(15, 30), d_values=(2, 4), k=1, trials=3, master_seed=11,
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_grid(spec), str(p1))
    write_csv(run_grid(spec), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_failures_counted_and_excluded_from_error_stats():
    # n < d: the limit LP is unbounded, every relaxation trial fails
    spec = GridSpec(
        n_values=(5,), d_values=(20,), k=1, trials=4,
        methods=(METHOD_RELAXATION,), master_seed=1,
    )
    (cell,) = run_grid(spec)
    assert cell.failures == 4
    assert np.isnan(cell.min_err) and np.isnan(cell.mean_err)
    assert cell.success_rate == 0.0


def test_estimate_boundary_monotone_synthetic():
    cells = [
        PhaseCell(METHOD_RELAXATION, 1, n, 4, 10, 0.0, 0.0, rate)
        for n, rate in ((10, 0.0), (20, 0.0), (30, 1.0), (40, 1.0))
    ]
    out = estimate_boundary(cells, 0.5)
    assert out[(METHOD_RELAXATION, 4)] == 30
    out_none = estimate_boundary(cells, 1.1)
    assert out_none[(METHOD_RELAXATION, 4)] is None


def test_success_rate_monotone_in_samples_up_to_noise():
    spec = GridSpec(
        n_values=(6, 60, 600), d_values=(6,), k=1, trials=40,
        methods=(METHOD_RELAXATION,), master_seed=7,
    )
    cells = run_grid(spec)
    rates = [c.success_rate for c in cells]
    slack = 2.0 * np.sqrt(0.25 / spec.trials)
    assert rates[0] <= rates[1] + slack
    assert rates[1] <= rates[2] + slack


def test_amplified_mode_lifts_success_rate():
    base = GridSpec(
        n_values=(600,), d_values=(6,), k=1, trials=30,
        methods=(METHOD_RELAXATION,), master_seed=13,
    )
    boosted = GridSpec(
        n_values=(600,), d_values=(6,), k=1, trials=30,
        methods=(METHOD_RELAXATION,), master_seed=13, amplify=6,
    )
    (single,) = run_grid(base)
    (multi,) = run_grid(boosted)
    assert 0.25 <= single.success_rate <= 0.7  # near the half plateau
    assert multi.success_rate >= 0.9


def test_ascii_heatmap_levels():
    cells = [
        PhaseCell(METHOD_RELAXATION, 1, n, 4, 10, 0.0, 0.0, rate)
        for n, rate in ((10, 0.0), (20, 0.55), (30, 1.0))
    ]
    art = ascii_heatmap(cells, METHOD_RELAXATION)
    row = art.splitlines()[1]
    assert "|" in row
    glyphs = row.split("|")[1]
    assert glyphs == " +@"


def test_gd_method_cells_report_low_error_in_easy_regime():
    # many blocks make the descent reliable (the single-block landscape
    # still traps a few percent of starts)
    spec = GridSpec(
        n_values=(200,), d_values=(10,), k=5, trials=5,
        methods=(METHOD_GRADIENT_DESCENT,), master_seed=21,
    )
    (cell,) = run_grid(spec)
    assert cell.success_rate == 1.0
    assert cell.min_err <= 1e-6
