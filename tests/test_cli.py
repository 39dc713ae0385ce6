import json
import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convrelax import qpsolve, relax, sweep
from convrelax.cli import EXIT_IO, EXIT_OK, EXIT_SOLVER, EXIT_USAGE, main
from convrelax.model import CsvFormatError, export_csv, import_csv, sample_planted
from golden_cases import strict_json


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
    ds = import_csv(str(dataset_csv))
    assert ds.n == 100 and ds.d == 10 and ds.k == 2 and ds.seed == 7
    again = tmp_path / "again.csv"
    export_csv(ds, str(again))
    assert again.read_bytes() == dataset_csv.read_bytes()


def test_load_dataset_schema_errors(tmp_path):
    missing_meta = tmp_path / "m.csv"
    missing_meta.write_text("y,x_1\n1.0,2.0\n")
    with pytest.raises(CsvFormatError) as exc:
        import_csv(str(missing_meta))
    assert exc.value.line == 1

    _, ds = sample_planted(4, 2, 1, 3)
    bad_cols = tmp_path / "c.csv"
    export_csv(ds, str(bad_cols))
    lines = bad_cols.read_text().splitlines()
    lines[4] = "1.0"
    bad_cols.write_text("\n".join(lines) + "\n")
    with pytest.raises(CsvFormatError) as exc:
        import_csv(str(bad_cols))
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


def test_failing_beta_qp_fit_prints_no_numpy_warning(tmp_path, capsys):
    # one sample at k=2, d=8: fewer block rows than filter entries, so
    # the QP is unbounded and its steps grow past the float range
    path = tmp_path / "one.csv"
    main(["gen", "--n", "1", "--d", "8", "--k", "2", "--seed", "2", "--out", str(path)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["fit", "--in", str(path), "--beta", "1e-3", "--trials", "2"])
    assert code == EXIT_SOLVER
    assert "solver failure" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command, message", [
    (["fit", "--beta", "0"], "all 1 trials failed: NumericalFailure"),
    (["fit", "--beta", "1e-3"], "all 1 trials failed: NumericalFailure"),
    (["certify"], "solver failure: phase-1 solve ended with"),
    (["fit", "--method", "gd"], "gradient descent diverged"),
])
def test_huge_entries_fail_without_numpy_warnings(tmp_path, capsys, command, message):
    # one sample of 1e300 entries: every route overflows on its way to
    # a solver failure, which the exit code and message report
    path = str(tmp_path / "huge.csv")
    main(["gen", "--n", "20", "--d", "4", "--seed", "1", "--out", path])
    with open(path, encoding="ascii") as f:
        lines = f.read().splitlines()
    lines[2] = ",".join(["1e300"] * 5)
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*command, "--in", path])
    assert code == EXIT_SOLVER
    assert message in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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


def test_certify_json_is_strict_when_the_dual_is_infeasible(tmp_path, capsys):
    # n < d: the dual program is infeasible, so its objective, gap and
    # structure measures are undefined
    path = tmp_path / "thin.csv"
    assert main(["gen", "--n", "4", "--d", "10", "--k", "1", "--seed", "1",
                 "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["certify", "--in", str(path), "--json"]) == EXIT_OK
    data = strict_json(capsys.readouterr().out)
    dual = data["dual"]
    assert dual["status"] == "DualInfeasible"
    for key in ("dual_objective", "primal_objective", "duality_gap", "complementarity",
                "structure_off_violation", "structure_on_violation"):
        assert dual[key] is None


@pytest.mark.parametrize("args", [
    ["fit", "--beta", "nan"],
    ["fit", "--beta", "inf"],
    ["fit", "--beta", "-1"],
    ["fit", "--tau", "nan"],
    ["fit", "--tau", "inf"],
    ["fit", "--tau", "0"],
    ["fit", "--method", "gd", "--tau", "nan"],
    ["fit", "--method", "gd", "--json", "--tau", "nan"],
    ["fit", "--trials", "4", "--tau", "nan"],
    ["certify", "--tol", "nan"],
    ["certify", "--tol", "inf"],
    ["certify", "--tol=-1e-7"],
], ids=" ".join)
def test_invalid_parameter_is_a_usage_error(tmp_path, capsys, args):
    path = tmp_path / "data.csv"
    assert main(["gen", "--n", "30", "--d", "4", "--seed", "2", "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert main([*args, "--in", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err


@pytest.mark.parametrize("tau", ["nan", "inf", "0"])
def test_sweep_invalid_tau_fails_before_any_trial(tmp_path, capsys, tau):
    out = tmp_path / "cells.csv"
    assert main(["sweep", "--n-values", "20", "--d-values", "4", "--trials", "2",
                 "--tau", tau, "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()
    assert "tau" in capsys.readouterr().err


_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 1e-300, 1e300, float("nan"),
                            float("inf"), float("-inf")])


@st.composite
def _small_csvs(draw):
    """A small CSV in the dataset format: any width, a k that may not
    divide it, a few rows of entries drawn with non-finite values,
    negative labels and all-zero rows among them."""
    n, d, k = draw(st.integers(0, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    rows = []
    for _ in range(n):
        row = [0.0] * (d + 1) if draw(st.booleans()) and draw(st.booleans()) else draw(
            st.lists(_ENTRIES | st.floats(-5.0, 5.0), min_size=d + 1, max_size=d + 1))
        rows.append(",".join(repr(v) for v in row))
    head = [f"# n={n} d={d} k={k} seed={draw(st.integers(0, 50))}",
            "y," + ",".join(f"x_{j}" for j in range(1, d + 1))]
    return "\n".join(head + rows) + "\n"


@settings(max_examples=60, deadline=None)
@given(text=_small_csvs())
def test_fit_and_certify_exit_with_a_documented_code_on_any_small_csv(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="ascii") as f:
            f.write(text)
        for argv in (["fit", "--in", path, "--beta", "0"], ["fit", "--in", path, "--beta", "1e-3"],
                     ["certify", "--in", path], ["fit", "--in", path, "--method", "gd"]):
            assert main(argv) in (EXIT_OK, EXIT_USAGE, EXIT_SOLVER, EXIT_IO)
