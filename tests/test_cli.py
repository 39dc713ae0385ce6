import json
import os
import platform
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import convrelax
from convrelax import cli, mnistreg, qpsolve, relax, sweep
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
    # the QP is unbounded, which no step on the way may warn about
    path = tmp_path / "one.csv"
    main(["gen", "--n", "1", "--d", "8", "--k", "2", "--seed", "2", "--out", str(path)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["fit", "--in", str(path), "--beta", "1e-3", "--trials", "2"])
    assert code == EXIT_SOLVER
    assert "solver failure" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


_GEN_20 = ["--n", "20", "--d", "4", "--seed", "1"]
# (gen arguments, the first sample's entries, command, message): a sample
# of 1e300 entries, label included, overflows every program on its way to
# a solver failure; 1e200 features under a finite label overflow the
# normal matrix of the embedding, on LPs with at most twice as many rows
# as variables (fit at n=8 and 6) and with more (fit at n=20 and 2000,
# certify's k=2 phase-1)
_HUGE_CASES = [
    (_GEN_20, "1e300", ["fit", "--beta", "0"], "all 1 trials failed: NumericalFailure"),
    (_GEN_20, "1e300", ["fit", "--beta", "1e-3"], "all 1 trials failed: NumericalFailure"),
    (_GEN_20, "1e300", ["certify"], "solver failure: phase-1 solve ended with NumericalFailure"),
    (_GEN_20, "1e300", ["fit", "--method", "gd"], "gradient descent diverged"),
    (_GEN_20, "1e200", ["fit"], "all 1 trials failed: NumericalFailure"),
    (["--n", "20", "--d", "4", "--k", "2", "--seed", "1"], "1e200", ["certify"],
     "solver failure: phase-1 solve ended with NumericalFailure"),
    (["--n", "8", "--d", "4", "--seed", "2"], "1e200", ["fit"], "all 1 trials failed: NumericalFailure"),
    (["--n", "6", "--d", "4", "--seed", "3"], "1e200", ["fit"], "all 1 trials failed: NumericalFailure"),
    (["--n", "2000", "--d", "10", "--seed", "1"], "1e200", ["fit", "--trials", "2"],
     "all 2 trials failed: NumericalFailure, NumericalFailure"),
]


# the ids pytest gives to (command, message) alone
@pytest.mark.parametrize("gen, entry, command, message", _HUGE_CASES,
                         ids=[f"command{i}-{case[-1]}" for i, case in enumerate(_HUGE_CASES)])
def test_huge_entries_fail_without_numpy_warnings(tmp_path, capfd, gen, entry, command, message):
    # the command runs in a child interpreter with a timeout, so that a
    # hang fails the test; LAPACK prints its complaints straight to a
    # file descriptor, which capfd captures for the child too
    path = str(tmp_path / "huge.csv")
    assert main(["gen", *gen, "--out", path]) == EXIT_OK
    with open(path, encoding="ascii") as f:
        lines = f.read().splitlines()
    label = entry if entry == "1e300" else lines[2].split(",", 1)[0]
    lines[2] = ",".join([label] + [entry] * (len(lines[2].split(",")) - 1))
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")
    capfd.readouterr()
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(convrelax.__file__)))
    code = subprocess.run([sys.executable, "-m", "convrelax", *command, "--in", path],
                          env=env, timeout=60).returncode
    out, err = capfd.readouterr()
    assert code == EXIT_SOLVER
    assert message in err
    assert "Warning" not in err and "Traceback" not in err and "On entry" not in out + err


@pytest.mark.parametrize("command", [["fit"], ["fit", "--method", "gd"], ["certify"]])
def test_non_finite_dataset_is_an_io_error(dataset_csv, capsys, command):
    lines = dataset_csv.read_text().splitlines()
    lines[5] = "nan," + lines[5].split(",", 1)[1]
    dataset_csv.write_text("\n".join(lines) + "\n")
    assert main([*command, "--in", str(dataset_csv)]) == EXIT_IO
    assert "line 6" in capsys.readouterr().err


@pytest.mark.parametrize("meta", ["# n=1 d=2 k=3 seed=1", "# n=1 d=2 k=0 seed=1", "# n=1 d=0 k=1 seed=1"],
                         ids=["k-not-dividing-d", "k-zero", "d-zero"])
def test_inconsistent_csv_metadata_is_an_io_error(tmp_path, capsys, meta):
    path = tmp_path / "bad.csv"
    path.write_text(f"{meta}\ny,x_1,x_2\n1.0,0.5,0.5\n")
    with pytest.raises(CsvFormatError) as exc:
        import_csv(str(path))
    assert exc.value.line == 1
    assert main(["fit", "--in", str(path)]) == EXIT_IO
    assert "line 1" in capsys.readouterr().err


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


def test_sweep_csv_and_sidecar(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
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
    # the versions and BLAS thread settings the grid ran under
    provenance = spec["provenance"]
    assert provenance["convrelax"] == convrelax.__version__ and provenance["numpy"] == np.__version__
    assert provenance["python"] == platform.python_version() and provenance["scipy"] == scipy.__version__
    assert provenance["OMP_NUM_THREADS"] == "1" and provenance["MKL_NUM_THREADS"] is None
    assert set(provenance) == {"convrelax", "python", "numpy", "scipy", "OPENBLAS_NUM_THREADS",
                               "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert "Relaxation success rate" in capsys.readouterr().out


def test_sweep_table_does_not_depend_on_blas_threads_left_unset(tmp_path):
    # the cell n=400, d=80, k=1 of master seed 0: with a threaded BLAS
    # its min_err moves in the 16th digit.  convrelax pins BLAS to one
    # thread where the variables are unset, so the default table is the
    # one-thread table
    tables = []
    for threads in (None, "1"):
        env = {name: value for name, value in os.environ.items() if name not in sweep._THREAD_ENV}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(convrelax.__file__))
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"threads-{threads}.csv"
        run = subprocess.run([sys.executable, "-m", "convrelax", "sweep", "--n-values", "400", "--d-values", "80",
                              "--k", "1", "--trials", "1", "--methods", "relax", "--out", str(out)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == EXIT_OK, run.stderr
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]


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


def test_data_dir_from_the_environment_is_read_when_mnist_runs(tmp_path, capsys, monkeypatch):
    # the parser is built once per process, so $CONVRELAX_DATA_DIR set
    # after a first call must still reach the command
    monkeypatch.delenv(cli.DATA_DIR_ENV, raising=False)
    out = str(tmp_path / "table.csv")
    assert main(["mnist", "--out", out]) == EXIT_USAGE
    assert f"no --data-dir given and ${cli.DATA_DIR_ENV} is unset" in capsys.readouterr().err
    missing = tmp_path / "no-idx-here"
    monkeypatch.setenv(cli.DATA_DIR_ENV, str(missing))
    assert main(["mnist", "--out", out]) == EXIT_IO
    assert str(missing / mnistreg.IDX_FILES["train_images"]) in capsys.readouterr().err
    # --data-dir wins over the environment, an empty one too
    assert main(["mnist", "--out", out, "--data-dir", ""]) == EXIT_USAGE
    assert "no --data-dir given" in capsys.readouterr().err


_REPEATED_ARGVS = [
    ["gen", "--n", "12", "--d", "4", "--k", "2", "--seed", "3", "--out", "{tmp}/a.csv"],
    ["fit", "--in", "{tmp}/a.csv", "--json"],
    ["frobnicate"],
    ["fit", "--in", "{tmp}/a.csv", "--trials", "x"],
    ["certify", "--in", "{tmp}/a.csv", "--json", "--seed", "2"],
    [],
    ["fit", "--in", "{tmp}/a.csv", "--method", "gd", "--json"],
    ["sweep", "--n-values", "xyz", "--d-values", "4", "--out", "{tmp}/s.csv"],
    ["fit"],
    ["certify", "--in", "{tmp}/a.csv", "--tol", "1e-6"],
    ["fit", "--in", "{tmp}/a.csv", "--method", "newton"],
    ["gen", "--help"],
    ["fit", "--in", "{tmp}/a.csv", "--trials", "2", "--seed", "5"],
]


def test_repeated_main_calls_match_a_fresh_parser(tmp_path, capsys, monkeypatch):
    # one parser serves every call of a process; commands and usage
    # errors, mixed and repeated, give what a parser built afresh gives
    argvs = [[a.format(tmp=tmp_path) for a in argv] for argv in _REPEATED_ARGVS] * 2

    def run_all():
        results = []
        for argv in argvs:
            code = main(argv)
            results.append((code, *capsys.readouterr()))
        return results

    assert cli._build_parser() is cli._build_parser()
    cached = run_all()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = run_all()
    assert cached == fresh
    assert {code for code, _, _ in cached} == {EXIT_OK, EXIT_USAGE}


def test_sweep_rejects_k_below_one_and_unknown_methods(tmp_path, capsys):
    out = tmp_path / "cells.csv"
    base = ["sweep", "--n-values", "10", "--d-values", "4", "--trials", "2", "--out", str(out)]
    assert main([*base, "--k", "0"]) == EXIT_USAGE
    assert "usage error: k must be a positive integer" in capsys.readouterr().err
    assert main([*base, "--methods", "relax,foo"]) == EXIT_USAGE
    assert "unknown method 'foo'" in capsys.readouterr().err
    assert main(["sweep", "--n-values", "20,20", "--d-values", "4", "--trials", "2", "--out", str(out),
                 "--methods", "relax,relax"]) == EXIT_USAGE
    assert "usage error: n_values must be strictly ascending" in capsys.readouterr().err
    assert not out.exists()


def test_mnist_writes_a_two_row_csv(idx_dir, capsys):
    out = idx_dir / "table.csv"
    assert main(["mnist", "--data-dir", str(idx_dir), "--out", str(out), "--k", "16",
                 "--n-train", "60", "--n-test", "30", "--seed", "1", "--fit-samples", "40"]) == EXIT_OK
    header, *rows = out.read_text().splitlines()
    assert header == "experiment,rmse"
    assert [row.split(",")[0] for row in rows] == ["ls_raw_pixels", "ls_learned_filter"]
    assert all(np.isfinite(float(row.split(",")[1])) for row in rows)
    assert len(capsys.readouterr().out.splitlines()) == 2


def _no_rotation(monkeypatch):
    def rotate_image(image, theta):
        raise AssertionError("an image was rotated")

    monkeypatch.setattr(mnistreg, "rotate_image", rotate_image)


_MNIST_BAD_ARGS = [
    (["--k", "0"], "usage error: k=0"),
    (["--k", "5"], "usage error: k=5 must be a positive divisor"),
    (["--n-train", "0"], "usage error: need n_train >= 2"),
    (["--n-train", "-5"], "usage error: need n_train >= 2"),
    (["--n-test", "0"], "usage error: need n_train >= 2 and n_test >= 1"),
    (["--fit-samples", "0"], "usage error: fit_samples must be positive"),
    (["--fit-samples", "-5"], "usage error: fit_samples must be positive"),
    (["--angle-range", "abc"], "argument --angle-range"),
    (["--angle-range", "1,2,3"], "argument --angle-range"),
    (["--angle-range", "1,x"], "argument --angle-range"),
]


@pytest.mark.parametrize("args, message", _MNIST_BAD_ARGS, ids=[" ".join(a) for a, _ in _MNIST_BAD_ARGS])
def test_mnist_bad_sizes_are_usage_errors(idx_dir, capsys, monkeypatch, args, message):
    # every bad argument is found before any image is rotated
    _no_rotation(monkeypatch)
    out = idx_dir / "table.csv"
    base = ["mnist", "--data-dir", str(idx_dir), "--out", str(out),
            "--k", "16", "--n-train", "60", "--n-test", "30", "--fit-samples", "40"]
    assert main([*base, *args]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert not out.exists()


def _float_images_with_nans(directory, nan_at):
    """Rewrite the two image files of ``directory`` as 32-bit float IDX
    files with NaN at the flat pixel indices ``nan_at[fname]``."""
    for name, fname in mnistreg.IDX_FILES.items():
        if "images" not in name:
            continue
        t = mnistreg.parse_idx((directory / fname).read_bytes())
        data = t.data.astype(np.float32) / 255.0
        data[nan_at.get(fname, [])] = np.nan
        (directory / fname).write_bytes(mnistreg.write_idx(mnistreg.IdxTensor("32-bit float", t.dims, data)))


@pytest.mark.parametrize("train_nans, test_nans, message", [
    (slice(96, None, 97), slice(96, None, 97), "train-images-idx3-ubyte: image 0 has a non-finite pixel"),
    ([], [3 * 784 + 5], "t10k-images-idx3-ubyte: image 3 has a non-finite pixel"),
])
def test_mnist_non_finite_pixels_are_an_io_error(idx_dir, capsys, monkeypatch, train_nans, test_nans, message):
    _float_images_with_nans(idx_dir, {mnistreg.IDX_FILES["train_images"]: train_nans,
                                      mnistreg.IDX_FILES["test_images"]: test_nans})
    _no_rotation(monkeypatch)
    out = idx_dir / "table.csv"
    assert main(["mnist", "--data-dir", str(idx_dir), "--out", str(out), "--k", "16",
                 "--n-train", "60", "--n-test", "30", "--fit-samples", "40"]) == EXIT_IO
    captured = capsys.readouterr()
    assert f"I/O error: {message}" in captured.err and "Traceback" not in captured.err
    assert not out.exists()


def test_workers_flag_matches_serial(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--n-values", "15,30", "--d-values", "3", "--trials", "4",
            "--seed", "11", "--methods", "relax"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b), "--workers", "2"]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_a_nonpositive_worker_count(tmp_path, capsys, workers):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--n-values", "15", "--d-values", "3", "--trials", "1",
                 "--out", str(out), "--workers", workers]) == EXIT_USAGE
    assert "usage error: workers must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


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


def test_a_beta_whose_perturbation_term_overflows_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "a.csv"
    assert main(["gen", "--n", "30", "--d", "8", "--k", "2", "--seed", "1", "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["fit", "--in", str(path), "--beta", "1e308"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: beta times the perturbation is not finite\n"


def test_a_negative_seed_is_a_usage_error_for_every_command(tmp_path, capsys):
    path, out = tmp_path / "a.csv", tmp_path / "cells.csv"
    assert main(["gen", "--n", "30", "--d", "4", "--seed", "2", "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    for args in (["gen", "--n", "30", "--d", "4", "--out", str(tmp_path / "b.csv")],
                 ["fit", "--in", str(path)], ["fit", "--in", str(path), "--trials", "2"],
                 ["fit", "--in", str(path), "--method", "gd"], ["certify", "--in", str(path)],
                 ["sweep", "--n-values", "20", "--d-values", "4", "--trials", "1", "--out", str(out)]):
        assert main([*args, "--seed", "-1"]) == EXIT_USAGE, args
        captured = capsys.readouterr()
        assert captured.out == "" and "seed must be a nonnegative integer" in captured.err, args
    assert not out.exists() and not (tmp_path / "b.csv").exists()


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


_BAD_VALUES = st.sampled_from(["", "0", "-1", "3,1", "nan", "inf", "x", "foo"])


def _ints(draw, low, high, scale=1):
    values = draw(st.lists(st.integers(low, high), min_size=1, max_size=2, unique=True))
    return ",".join(str(scale * v) for v in sorted(values))


@st.composite
def _gen_and_sweep_argvs(draw):
    """gen and sweep argument lists over tiny sizes and grids, at most two
    trials and one worker; in about half of them one value is replaced
    by a bad one (zero, negative, unsorted, non-finite or no number)."""
    k = draw(st.integers(1, 2))
    gen = {"--n": str(draw(st.integers(1, 6))), "--d": str(k * draw(st.integers(1, 3))), "--k": str(k),
           "--seed": str(draw(st.integers(0, 50)))}
    sweep_opts = {"--n-values": _ints(draw, 1, 6), "--d-values": _ints(draw, 1, 3, k), "--k": str(k),
                  "--trials": str(draw(st.integers(1, 2))), "--amplify": str(draw(st.integers(1, 2))),
                  "--seed": str(draw(st.integers(0, 50))), "--tau": "0.1",
                  "--methods": draw(st.sampled_from(["relax", "gd", "relax,gd"]))}
    for opts in (gen, sweep_opts):
        if draw(st.booleans()):
            opts[draw(st.sampled_from(sorted(opts)))] = draw(_BAD_VALUES)
    flags = ["--heatmap"] if draw(st.booleans()) else []
    return (["gen", *(a for item in gen.items() for a in item)],
            ["sweep", *(a for item in sweep_opts.items() for a in item), "--workers", "1", *flags])


@settings(max_examples=50, deadline=None)
@given(argvs=_gen_and_sweep_argvs())
def test_gen_and_sweep_exit_with_a_documented_code_on_small_arguments(argvs):
    with tempfile.TemporaryDirectory() as tmp:
        for argv in argvs:
            out = ["--out", os.path.join(tmp, "out.csv")]
            if argv[0] == "sweep":
                out += ["--spec-json", os.path.join(tmp, "spec.json")]
            assert main([*argv, *out]) in (EXIT_OK, EXIT_USAGE, EXIT_SOLVER, EXIT_IO)


_MNIST_KS = tuple(k for k in range(1, 785) if 784 % k == 0)


@st.composite
def _mnist_cases(draw):
    """(element kind, train and test image counts, pixel palette, pixel
    seed, mnist arguments): IDX files of a few 28×28 images whose pixels
    are drawn from a palette of up to three values (unsigned bytes, or
    any 32-bit floats, non-finite ones included), and tiny sizes; in about
    half of them one argument is replaced by a bad value."""
    kind = draw(st.sampled_from(["unsigned-byte", "32-bit float"]))
    if kind == "unsigned-byte":
        values = st.integers(0, 255)
    else:
        values = st.floats(width=32)
    palette = draw(st.lists(values, min_size=1, max_size=3))
    counts = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    opts = {"--k": str(draw(st.sampled_from(_MNIST_KS))), "--n-train": str(draw(st.integers(2, 8))),
            "--n-test": str(draw(st.integers(1, 3))), "--fit-samples": str(draw(st.integers(1, 3))),
            "--seed": str(draw(st.integers(0, 50)))}
    if draw(st.booleans()):
        opts[draw(st.sampled_from(sorted(opts)))] = draw(_BAD_VALUES)
    return kind, counts, palette, draw(st.integers(0, 2**32 - 1)), [a for item in opts.items() for a in item]


@settings(max_examples=25, deadline=None)
@given(case=_mnist_cases())
def test_mnist_exits_with_a_documented_code_on_small_idx_files(case):
    kind, counts, palette, seed, args = case
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        for name, fname in mnistreg.IDX_FILES.items():
            count = counts[1] if name.startswith("test") else counts[0]
            if "images" in name:
                t = mnistreg.IdxTensor(kind, (count, 28, 28), rng.choice(palette, size=count * 28 * 28))
            else:
                t = mnistreg.IdxTensor("unsigned-byte", (count,), rng.integers(0, 10, size=count))
            with open(os.path.join(tmp, fname), "wb") as f:
                f.write(mnistreg.write_idx(t))
        argv = ["mnist", "--data-dir", tmp, "--out", os.path.join(tmp, "table.csv"), *args]
        assert main(argv) in (EXIT_OK, EXIT_USAGE, EXIT_SOLVER, EXIT_IO)
