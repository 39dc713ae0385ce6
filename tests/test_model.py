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


def test_every_seed_helper_rejects_a_negative_seed():
    # the package's message, raised before numpy sees the seed
    for draw in (lambda: model.substream(-1, 0), lambda: model.derived_seed(-1, 0),
                 lambda: sample_planted(3, 4, 2, -1)):
        with pytest.raises(ModelError, match="^seed must be a nonnegative integer$"):
            draw()


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


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 5), data=st.data())
def test_csv_export_formats_each_value_as_fmt(tmp_path_factory, d, data):
    # the bytes of formatting value by value with model._fmt, the loop
    # the one-% row template replaced
    n = data.draw(st.integers(0, 5))
    x = np.array(data.draw(st.lists(st.lists(_FINITE, min_size=d, max_size=d), min_size=n, max_size=n)),
                 dtype=float).reshape(n, d)
    y = np.array(data.draw(st.lists(_FINITE, min_size=n, max_size=n)), dtype=float)
    ds = Dataset(x, y, 1, seed=data.draw(st.integers(0, 2**32 - 1)))
    path = tmp_path_factory.mktemp("csv") / "ds.csv"
    export_csv(ds, str(path))
    lines = [f"# n={n} d={d} k=1 seed={ds.seed}", "y," + ",".join(f"x_{j}" for j in range(1, d + 1))]
    lines += [",".join([model._fmt(y[i])] + [model._fmt(v) for v in x[i]]) for i in range(n)]
    assert path.read_bytes() == "".join(line + "\n" for line in lines).encode("ascii")


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


def _reference_rows(lines, d):
    """The data rows parsed token by token with float(): the array, or
    the (line, message) of the first bad line."""
    data = np.empty((len(lines), d + 1))
    for i, line in enumerate(lines):
        parts = line.split(",")
        if len(parts) != d + 1:
            return 3 + i, f"line {3 + i}: expected {d + 1} columns, found {len(parts)}"
        try:
            data[i] = [float(p) for p in parts]
        except ValueError as exc:
            return 3 + i, f"line {3 + i}: {exc}"
    finite = np.isfinite(data)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        return 3 + i, f"line {3 + i}: non-finite value in column {'y' if j == 0 else f'x_{j}'}"
    return data


def _write_rows(path, lines, d, n=None):
    header = "y," + ",".join(f"x_{j}" for j in range(1, d + 1))
    n = len(lines) if n is None else n
    path.write_text("\n".join([f"# n={n} d={d} k=1 seed=0", header, *lines]) + "\n")


def _import_outcome(path):
    try:
        ds = import_csv(str(path))
    except CsvFormatError as exc:
        return exc.line, str(exc)
    return np.column_stack([ds.y, ds.x]).reshape(ds.n, ds.d + 1)


def _same_outcome(got, want):
    if isinstance(want, tuple):
        return got == want
    return not isinstance(got, tuple) and got.shape == want.shape and got.tobytes() == want.tobytes()


_GOOD_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: format(v, ".17g")),
    st.floats(min_value=-1e-300, max_value=1e-300).map(repr),  # subnormals and signed zeros
    st.sampled_from(["1_0", "1e5_0", " 1.5 ", "\t-2e3", "+.5", "5.", "-0", "1e-400", "-1E308", "0x0p0"]),
)
_BAD_TOKENS = st.sampled_from(["", " ", "abc", "1__0", "_1", "1e", "0x10", "1d5", "--1", "nan", "-inf", "1e999"])


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 4), data=st.data())
def test_csv_rows_parse_as_float_parses_each_token(tmp_path_factory, d, data):
    # the bits, the tokens accepted and the first bad line, of either
    # kind, are those of parsing token by token with float()
    n = data.draw(st.integers(0, 6))
    rows = [data.draw(st.lists(_GOOD_TOKENS, min_size=d + 1, max_size=d + 1)) for _ in range(n)]
    for _ in range(data.draw(st.integers(0, 2)) if n else 0):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, d))
        if data.draw(st.booleans()):
            rows[i][j % len(rows[i])] = data.draw(_BAD_TOKENS)
        else:
            rows[i] = rows[i][:j] if j else rows[i] + ["1"]
    lines = [",".join(row) for row in rows]
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    _write_rows(path, lines, d)
    assert _same_outcome(_import_outcome(path), _reference_rows(lines, d))


@pytest.mark.parametrize("bad, line", [
    ({4: "1,abc,2", 6: "1,2"}, 4), ({4: "1,2", 6: "1,abc,2"}, 4), ({3: "1,2", 4: "3,4"}, 3),
    # every row one column short: the shape is uniform, and wrong
    ({i: "1,2" for i in range(3, 8)}, 3),
    # a non-finite value is found only after every token has parsed
    ({3: "1,nan,2", 5: "1,2,x"}, 5),
])
def test_csv_first_bad_line_wins_whatever_its_kind(tmp_path, bad, line):
    lines = ["0.5,1,2"] * 5
    for lineno, text in bad.items():
        lines[lineno - 3] = text
    _write_rows(tmp_path / "rows.csv", lines, 2)
    want = _reference_rows(lines, 2)
    assert _import_outcome(tmp_path / "rows.csv") == want and want[0] == line


def test_csv_without_data_rows_or_missing_some(tmp_path):
    _write_rows(tmp_path / "empty.csv", [], 3)
    ds = import_csv(str(tmp_path / "empty.csv"))
    assert ds.x.shape == (0, 3) and ds.y.shape == (0,)
    _write_rows(tmp_path / "short.csv", ["0,1,2,3"] * 2, 3, n=4)
    with pytest.raises(CsvFormatError, match="expected 4 data rows, found 2") as exc:
        import_csv(str(tmp_path / "short.csv"))
    assert exc.value.line == 5


def test_csv_numbers_are_contiguous_arrays(tmp_path):
    _, ds = sample_planted(9, 6, 2, 4)
    export_csv(ds, str(tmp_path / "ds.csv"))
    back = import_csv(str(tmp_path / "ds.csv"))
    assert back.x.flags.c_contiguous and back.y.flags.c_contiguous


@pytest.mark.parametrize("token", ["1_0", "１２", "١٢٣", " 1.5 ", "\t2e3\n", "4.9e-324", "-1e-400", "1e400",
                                   "", "٫5", "1__0", "0x10", "abc"])
def test_numpy_converts_a_str_token_as_float_does(token):
    # import_csv's one conversion relies on numpy parsing a str by float()
    try:
        want = np.array([float(token)])
    except ValueError:
        with pytest.raises(ValueError):
            np.array([[token]], dtype=float)
        return
    assert np.array([[token]], dtype=float).reshape(1).tobytes() == want.tobytes()


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
            "primal_residual": None,
            "dual_residual": 0.0,
            "complementarity_gap": None,
            "iterations": 3,
        },
        "pair": [True, 2],
    }
    # finite values keep the bytes json.dumps gives the plain Python values
    assert model.to_json([np.float64(0.1), np.arange(3.0)]) == "[0.1, [0.0, 1.0, 2.0]]"
