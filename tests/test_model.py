import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convrelax import model
from convrelax.model import (
    CsvFormatError,
    Dataset,
    ModelError,
    PlantedModel,
    export_csv,
    forward,
    import_csv,
    residual,
    sample_planted,
    teacher_filter,
)
from convrelax.qpsolve import SolveReport, SolveStatus
from golden_cases import strict_json


def test_sample_planted_shapes_and_nonneg_labels():
    pm, ds = sample_planted(3, 4, 2, 7)
    assert ds.x.shape == (3, 4) and ds.y.shape == (3,)
    assert np.all(ds.y >= 0)  # sums of rectified responses
    assert pm.w_star.shape == (2,)


def test_sample_planted_seeded_determinism():
    pm1, ds1 = sample_planted(3, 4, 2, 7)
    pm2, ds2 = sample_planted(3, 4, 2, 7)
    assert np.array_equal(ds1.x, ds2.x)
    assert np.array_equal(ds1.y, ds2.y)
    assert np.array_equal(pm1.w_star, pm2.w_star)
    _, other = sample_planted(3, 4, 2, 8)
    assert not np.array_equal(ds1.x, other.x)


def test_positive_label_fraction_near_half():
    # P(x^T w* > 0) = 1/2 by symmetry; binomial 95% band for n=1000
    _, ds = sample_planted(1000, 10, 1, 1)
    frac = float(np.mean(ds.y > 0))
    assert 0.44 <= frac <= 0.56


def test_sample_planted_rejects_bad_arguments():
    with pytest.raises(ModelError):
        sample_planted(3, 4, 3, 0)  # k does not divide d
    for n, d, k in ((0, 4, 2), (3, 0, 2), (3, 4, 0)):
        with pytest.raises(ModelError):
            sample_planted(n, d, k, 0)


def test_forward_examples():
    x = np.array([[1.0, -3.0]])
    assert forward(x, np.zeros(2), 1)[0] == 0.0
    assert forward(x, np.array([1.0, 0.0]), 1)[0] == 1.0
    assert forward(np.array([[2.0, -1.0]]), np.array([3.0]), 2)[0] == 6.0
    with pytest.raises(ModelError):
        forward(x, np.zeros(3), 1)


def test_residual_examples():
    pm, ds = sample_planted(40, 6, 2, 3)
    assert residual(ds, pm.w_star) <= 1e-20
    zero = Dataset(x=np.array([[1.0, 2.0]]), y=np.array([0.0]), k=1)
    assert residual(zero, np.zeros(2)) == 0.0
    two = Dataset(x=np.array([[1.0], [-1.0]]), y=np.array([1.0, 0.0]), k=1)
    assert residual(two, np.array([0.5])) == pytest.approx(0.25)


def test_teacher_filter_regeneration():
    pm, ds = sample_planted(5, 6, 3, 42)
    assert np.array_equal(teacher_filter(ds), pm.w_star)
    anon = Dataset(x=ds.x, y=ds.y, k=ds.k)
    with pytest.raises(ModelError):
        teacher_filter(anon)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**9), scale=st.floats(0.0, 100.0))
def test_forward_nonnegative_and_homogeneous(seed, scale):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    p = int(rng.integers(1, 4))
    x = rng.standard_normal((int(rng.integers(1, 6)), k * p))
    w = rng.standard_normal(p)
    out = forward(x, w, k)
    assert np.all(out >= 0.0)
    np.testing.assert_allclose(forward(x, scale * w, k), scale * out, rtol=1e-12, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_forward_k1_is_plain_relu(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((5, 4))
    w = rng.standard_normal(4)
    np.testing.assert_array_equal(forward(x, w, 1), np.maximum(x @ w, 0.0))


def test_planted_model_validation():
    with pytest.raises(ModelError):
        PlantedModel(d=4, k=2, w_star=np.zeros(2), seed=0)  # all-zero filter
    with pytest.raises(ModelError):
        PlantedModel(d=4, k=2, w_star=np.array([1.0, np.inf]), seed=0)
    with pytest.raises(ModelError):
        PlantedModel(d=4, k=3, w_star=np.ones(1), seed=0)


def test_csv_round_trip_bit_exact(tmp_path):
    _, ds = sample_planted(17, 6, 2, 12345)
    path = tmp_path / "ds.csv"
    export_csv(ds, str(path))
    back = import_csv(str(path))
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y, ds.y)
    assert back.k == ds.k and back.seed == ds.seed
    # a second export is byte-identical
    path2 = tmp_path / "ds2.csv"
    export_csv(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_csv_missing_metadata_names_line_one(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,x_1\n0.0,1.0\n")
    with pytest.raises(CsvFormatError) as exc:
        import_csv(str(path))
    assert exc.value.line == 1


def test_csv_wrong_column_count_names_line(tmp_path):
    _, ds = sample_planted(4, 2, 1, 3)
    path = tmp_path / "ds.csv"
    export_csv(ds, str(path))
    lines = path.read_text().splitlines()
    lines[4] = lines[4] + ",99"  # line 5: third data row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CsvFormatError) as exc:
        import_csv(str(path))
    assert exc.value.line == 5


def test_csv_wrong_row_count_detected(tmp_path):
    _, ds = sample_planted(4, 2, 1, 3)
    path = tmp_path / "ds.csv"
    export_csv(ds, str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(CsvFormatError):
        import_csv(str(path))


@pytest.mark.parametrize("value, column", [("nan", 2), ("inf", 0), ("-inf", 3)])
def test_csv_non_finite_value_names_line(tmp_path, value, column):
    _, ds = sample_planted(4, 3, 1, 3)
    path = tmp_path / "ds.csv"
    export_csv(ds, str(path))
    lines = path.read_text().splitlines()
    parts = lines[4].split(",")
    parts[column] = value
    lines[4] = ",".join(parts)  # line 5: third data row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CsvFormatError) as exc:
        import_csv(str(path))
    assert exc.value.line == 5
    assert ("y" if column == 0 else f"x_{column}") in str(exc.value)


def test_dataset_rejects_non_finite_values():
    with pytest.raises(ModelError):
        Dataset(x=np.array([[1.0, np.nan]]), y=np.array([0.0]), k=1)
    with pytest.raises(ModelError):
        Dataset(x=np.array([[1.0, 2.0]]), y=np.array([np.inf]), k=1)


def test_substream_independence():
    # named substreams of one master seed are distinct but reproducible
    a = model.substream(9, model.STREAM_FEATURES).standard_normal(4)
    b = model.substream(9, model.STREAM_FILTER).standard_normal(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, model.substream(9, model.STREAM_FEATURES).standard_normal(4))
    with pytest.raises(ModelError):
        model.substream(-1, model.STREAM_FEATURES)


def test_to_json_writes_fields_arrays_enums_and_null_for_non_finite():
    report = SolveReport(
        status=SolveStatus.OPTIMAL,
        x=np.array([1.5, np.nan]),
        lam=np.array([np.inf, -np.inf, 0.25]),
        nu=np.zeros(0),
        primal_residual=np.float64(np.nan),
        dual_residual=0.0,
        complementarity_gap=float("inf"),
        iterations=np.int64(3),
    )
    text = model.to_json({"report": report, "pair": (np.bool_(True), 2)})
    assert strict_json(text) == {
        "report": {
            "status": "Optimal",
            "x": [1.5, None],
            "lambda": [None, None, 0.25],
            "nu": [],
            "primal_residual": None,
            "dual_residual": 0.0,
            "complementarity_gap": None,
            "iterations": 3,
        },
        "pair": [True, 2],
    }
    # finite values keep the bytes json.dumps gives the plain Python values
    assert model.to_json([np.float64(0.1), np.arange(3.0)]) == "[0.1, [0.0, 1.0, 2.0]]"
