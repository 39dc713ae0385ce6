import json

import pytest

from convrelax import qpsolve, relax, sweep
from convrelax.cli import EXIT_IO, EXIT_OK, EXIT_SOLVER, EXIT_USAGE, load_dataset, main
from convrelax.model import CsvFormatError, export_csv, sample_planted


@pytest.fixture()
def dataset_csv(tmp_path):
    path = tmp_path / "data.csv"
    assert main(["gen", "--n", "100", "--d", "10", "--k", "2", "--seed", "7",
                 "--out", str(path)]) == EXIT_OK
    return path


def test_gen_writes_expected_rows(dataset_csv):
    lines = dataset_csv.read_text().splitlines()
    assert len(lines) == 102  # metadata + header + 100 samples
    assert lines[0] == "# n=100 d=10 k=2 seed=7"


def test_load_dataset_round_trips(dataset_csv, tmp_path):
    ds = load_dataset(str(dataset_csv))
    assert ds.n == 100 and ds.d == 10 and ds.k == 2 and ds.seed == 7
    again = tmp_path / "again.csv"
    export_csv(ds, str(again))
    assert again.read_bytes() == dataset_csv.read_bytes()


def test_load_dataset_schema_errors(tmp_path):
    missing_meta = tmp_path / "m.csv"
    missing_meta.write_text("y,x_1\n1.0,2.0\n")
    with pytest.raises(CsvFormatError) as exc:
        load_dataset(str(missing_meta))
    assert exc.value.line == 1

    _, ds = sample_planted(4, 2, 1, 3)
    bad_cols = tmp_path / "c.csv"
    export_csv(ds, str(bad_cols))
    lines = bad_cols.read_text().splitlines()
    lines[4] = "1.0"
    bad_cols.write_text("\n".join(lines) + "\n")
    with pytest.raises(CsvFormatError) as exc:
        load_dataset(str(bad_cols))
    assert exc.value.line == 5


def test_fit_relax_json_schema(dataset_csv, capsys):
    code = main(["fit", "--method", "relax", "--trials", "6", "--in", str(dataset_csv), "--json"])
    assert code == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"best", "l2_error", "rel_error", "success", "trials"}
    assert len(data["trials"]) == 6
    assert data["success"] is True


def test_fit_gd_json(dataset_csv, capsys):
    code = main(["fit", "--method", "gd", "--in", str(dataset_csv), "--json"])
    assert code == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"w_hat", "z_hat", "train_residual", "report", "r_used", "trial_seed"}


def test_fit_reproducible_output(dataset_csv, capsys):
    main(["fit", "--in", str(dataset_csv), "--seed", "5", "--json"])
    first = capsys.readouterr().out
    main(["fit", "--in", str(dataset_csv), "--seed", "5", "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_fit_solver_failure_exit_code(tmp_path, capsys):
    # n < d: every relaxation trial is unbounded
    path = tmp_path / "thin.csv"
    main(["gen", "--n", "4", "--d", "12", "--seed", "1", "--out", str(path)])
    code = main(["fit", "--in", str(path), "--trials", "2"])
    assert code == EXIT_SOLVER


@pytest.mark.parametrize("command", [["fit"], ["fit", "--method", "gd"], ["certify"]])
def test_non_finite_dataset_is_an_io_error(dataset_csv, capsys, command):
    lines = dataset_csv.read_text().splitlines()
    lines[5] = "nan," + lines[5].split(",", 1)[1]
    dataset_csv.write_text("\n".join(lines) + "\n")
    assert main([*command, "--in", str(dataset_csv)]) == EXIT_IO
    assert "line 6" in capsys.readouterr().err


def test_solver_input_error_exit_code(dataset_csv, capsys, monkeypatch):
    def reject(*args, **kwargs):
        raise qpsolve.SolverError("c contains non-finite entries")

    monkeypatch.setattr(relax, "fit_amplified", reject)
    assert main(["fit", "--in", str(dataset_csv)]) == EXIT_SOLVER
    assert "solver failure" in capsys.readouterr().err


def test_certify_json(dataset_csv, capsys):
    code = main(["certify", "--in", str(dataset_csv), "--seed", "3", "--json"])
    assert code == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"certificate", "dual", "r1_singleton_fraction"}
    assert data["dual"]["status"] in ("Optimal", "DualInfeasible")
    assert isinstance(data["certificate"]["exists"], bool)


def test_sweep_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "cells.csv"
    side = tmp_path / "spec.json"
    code = main([
        "sweep", "--n-values", "20,40", "--d-values", "4", "--k", "1",
        "--trials", "5", "--seed", "5", "--out", str(out),
        "--spec-json", str(side), "--heatmap", "--methods", "relax",
    ])
    assert code == EXIT_OK
    cells = sweep.read_csv(str(out))
    assert len(cells) == 2
    spec = json.loads(side.read_text())
    assert spec["master_seed"] == 5 and spec["trials"] == 5
    assert "Relaxation success rate" in capsys.readouterr().out


def test_sweep_d1_two_point_law(tmp_path):
    # two-sample single-coordinate cells recover with probability one half
    out = tmp_path / "law.csv"
    code = main([
        "sweep", "--n-values", "2", "--d-values", "1", "--k", "1",
        "--trials", "200", "--seed", "3", "--out", str(out), "--methods", "relax",
    ])
    assert code == EXIT_OK
    (cell,) = sweep.read_csv(str(out))
    assert 0.40 <= cell.success_rate <= 0.60


def test_exit_codes_for_bad_usage(tmp_path, capsys):
    assert main(["fit", "--in", str(tmp_path / "nope.csv")]) == EXIT_IO
    assert main(["gen", "--n", "10", "--d", "10", "--k", "3", "--seed", "1",
                 "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["sweep", "--n-values", "xyz", "--d-values", "4",
                 "--out", str(tmp_path / "s.csv")]) == EXIT_USAGE
    assert main(["mnist", "--out", str(tmp_path / "m.csv")]) in (EXIT_USAGE,)
    capsys.readouterr()


def test_workers_flag_matches_serial(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--n-values", "15,30", "--d-values", "3", "--trials", "4",
            "--seed", "11", "--methods", "relax"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b), "--workers", "2"]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
