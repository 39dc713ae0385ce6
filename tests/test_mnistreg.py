import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convrelax import mnistreg
from convrelax.mnistreg import (
    IdxBadMagicError,
    IdxFormatError,
    IdxTensor,
    IdxTruncatedError,
    IdxUnknownElementError,
    build_rotation_dataset,
    learn_filter_features,
    make_augmenter,
    parse_idx,
    ridge_fit,
    ridge_predict,
    rmse,
    rotate_image,
    run_table,
    write_idx,
    write_results_csv,
)


# ---------------------------------------------------------------------------
# IDX container
# ---------------------------------------------------------------------------


def test_parse_idx_two_by_two():
    buf = bytes([0, 0, 0x08, 2, 0, 0, 0, 2, 0, 0, 0, 2, 1, 2, 3, 4])
    t = parse_idx(buf)
    assert t.element_kind == "unsigned-byte"
    assert t.dims == (2, 2)
    np.testing.assert_array_equal(t.data, [1, 2, 3, 4])
    np.testing.assert_array_equal(t.reshaped(), [[1, 2], [3, 4]])


def test_parse_idx_bad_magic():
    with pytest.raises(IdxBadMagicError):
        parse_idx(bytes([1, 0, 0x08, 1, 0, 0, 0, 1, 7]))


def test_parse_idx_truncated_payload():
    buf = bytes([0, 0, 0x08, 2, 0, 0, 0, 2, 0, 0, 0, 2, 1, 2, 3])
    with pytest.raises(IdxTruncatedError):
        parse_idx(buf)


def test_parse_idx_unknown_code_and_trailing():
    with pytest.raises(IdxUnknownElementError):
        parse_idx(bytes([0, 0, 0x05, 1, 0, 0, 0, 0]))
    with pytest.raises(IdxFormatError):
        parse_idx(bytes([0, 0, 0x08, 1, 0, 0, 0, 1, 7, 9]))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    code=st.sampled_from(sorted(mnistreg._ELEMENT_CODES)),
    ndim=st.integers(1, 3),
)
def test_idx_round_trip_bit_exact(seed, code, ndim):
    rng = np.random.default_rng(seed)
    dims = tuple(int(v) for v in rng.integers(1, 5, size=ndim))
    kind, dtype = mnistreg._ELEMENT_CODES[code]
    info_int = np.issubdtype(np.dtype(dtype), np.integer)
    if info_int:
        lo, hi = np.iinfo(np.dtype(dtype)).min, np.iinfo(np.dtype(dtype)).max
        data = rng.integers(lo, hi, size=int(np.prod(dims)), endpoint=True).astype(dtype)
    else:
        data = rng.standard_normal(int(np.prod(dims))).astype(dtype)
    buf = write_idx(IdxTensor(element_kind=kind, dims=dims, data=data))
    assert write_idx(parse_idx(buf)) == buf


# ---------------------------------------------------------------------------
# rotation
# ---------------------------------------------------------------------------


def smooth_blob(h=28, w=28, sigma=4.0):
    r, c = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    return np.exp(-(((r - (h - 1) / 2) ** 2 + (c - (w - 1) / 2) ** 2) / (2 * sigma**2)))


def test_rotate_zero_angle_is_identity():
    img = np.random.default_rng(0).random((28, 28))
    np.testing.assert_allclose(rotate_image(img, 0.0), img, atol=1e-12)


def test_rotate_compose_and_compare():
    img = smooth_blob()
    back = rotate_image(rotate_image(img, 90.0), -90.0)
    assert np.max(np.abs(back - img)) <= 2e-2


def test_rotate_argmax_geometry():
    # mass centred at (20.5, 13.5), offset +7 rows from the centre, must
    # land at (13.5, 20.5) under a 90 degree rotation
    img = np.zeros((28, 28))
    img[20:22, 13:15] = 1.0
    out = rotate_image(img, 90.0)
    r, c = np.unravel_index(np.argmax(out), out.shape)
    assert r in (13, 14) and c in (20, 21)


def test_rotate_preserves_mass_for_interior_support():
    img = smooth_blob(sigma=3.0)
    for theta in (15.0, 45.0, 90.0, 133.0):
        out = rotate_image(img, theta)
        assert abs(out.sum() - img.sum()) <= 0.05 * img.sum()


def test_rotate_rejects_out_of_range_angle():
    with pytest.raises(ValueError):
        rotate_image(np.zeros((28, 28)), 181.0)


# ---------------------------------------------------------------------------
# rotation dataset
# ---------------------------------------------------------------------------


def synthetic_images(count=160, h=12, w=12, seed=0) -> IdxTensor:
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=count * h * w).astype(">u1")
    return IdxTensor(element_kind="unsigned-byte", dims=(count, h, w), data=data)


def test_build_rotation_dataset_zero_range():
    images = synthetic_images()
    train, test = build_rotation_dataset(images, (0.0, 0.0), 20, 10, seed=4)
    assert np.all(train.y == 0.0) and np.all(test.y == 0.0)
    assert train.x.shape == (20, 144) and test.x.shape == (10, 144)
    assert train.x.max() <= 1.0 and train.x.min() >= 0.0
    # unrotated pixels survive exactly (identity rotation, scaled), which
    # also identifies each row's source image: the splits must be disjoint
    raw = images.reshaped().astype(float) / 255.0

    def source_of(row):
        hits = [i for i in range(160) if np.allclose(row.reshape(12, 12), raw[i], atol=1e-12)]
        assert len(hits) == 1
        return hits[0]

    train_src = {source_of(r) for r in train.x}
    test_src = {source_of(r) for r in test.x}
    assert len(train_src) == 20 and len(test_src) == 10
    assert not (train_src & test_src)


def test_build_rotation_dataset_seeded_and_disjoint():
    images = synthetic_images()
    a_train, a_test = build_rotation_dataset(images, (-45, 45), 30, 20, seed=9)
    b_train, b_test = build_rotation_dataset(images, (-45, 45), 30, 20, seed=9)
    assert np.array_equal(a_train.x, b_train.x) and np.array_equal(a_test.y, b_test.y)
    c_train, _ = build_rotation_dataset(images, (-45, 45), 30, 20, seed=10)
    assert not np.array_equal(a_train.y, c_train.y)


def test_build_rotation_dataset_label_mean_clt():
    images = synthetic_images(count=1300, h=6, w=6, seed=3)
    train, _ = build_rotation_dataset(images, (-45, 45), 1200, 100, seed=1)
    # uniform(-45, 45): the mean of 1200 draws concentrates near zero
    assert abs(float(train.y.mean())) <= 2.5


def test_build_rotation_dataset_insufficient_images():
    with pytest.raises(ValueError):
        build_rotation_dataset(synthetic_images(count=10), (-45, 45), 8, 5, seed=0)


# ---------------------------------------------------------------------------
# ridge
# ---------------------------------------------------------------------------


def test_ridge_interpolates_square_system():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 5))  # six rows, five features plus intercept
    y = rng.standard_normal(6)
    model = ridge_fit(x, y, 0.0)
    assert rmse(ridge_predict(model, x), y) <= 1e-8


def test_ridge_shrinkage_limit():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 6))
    y = rng.standard_normal(40) + 3.0
    model = ridge_fit(x, y, 1e12)
    assert np.max(np.abs(model.weights)) <= 1e-6
    np.testing.assert_allclose(ridge_predict(model, x), np.full(40, y.mean()), atol=1e-4)


def test_ridge_recovers_planted_linear_model():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((200, 8))
    w0 = rng.standard_normal(8)
    y = x @ w0 + 1.7
    model = ridge_fit(x, y, 1e-6)
    assert np.linalg.norm(model.weights - w0) / np.linalg.norm(w0) <= 1e-4
    assert model.intercept == pytest.approx(1.7, abs=1e-3)


def test_ridge_rejects_negative_lambda():
    with pytest.raises(ValueError):
        ridge_fit(np.ones((2, 1)), np.ones(2), -1.0)


# ---------------------------------------------------------------------------
# learned filter features
# ---------------------------------------------------------------------------


def rotation_task(n_train=60, n_test=30, width=784, seed=5):
    images = synthetic_images(count=n_train + n_test + 10, h=28, w=28, seed=seed)
    return build_rotation_dataset(images, (-45, 45), n_train, n_test, seed=seed)


def test_make_augmenter_widths_and_zero_filter():
    augment = make_augmenter(np.zeros(196), 4)
    x = np.zeros((3, 784))
    assert augment(x).shape == (3, 788)
    np.testing.assert_array_equal(augment(x)[:, 784:], np.zeros((3, 4)))
    rng = np.random.default_rng(0)
    w = rng.standard_normal(49)
    x = rng.standard_normal((5, 784))
    out = make_augmenter(w, 16)(x)
    assert out.shape == (5, 800)
    resp = np.maximum(x.reshape(5, 16, 49) @ w, 0.0)
    np.testing.assert_array_equal(out[:, 784:], resp)


def test_learn_filter_features_fits_and_augments():
    train, _ = rotation_task()
    w_hat, augment = learn_filter_features(train, 16, fit_samples=40, num_trials=2)
    assert w_hat.shape == (49,)
    out = augment(train.x)
    assert out.shape == (train.n, 800)


def test_learn_filter_propagates_unbounded_subsample():
    # far too few rows for the block rows to span filter space: the
    # relaxation is unbounded and the failure must surface
    from convrelax.relax import AllTrialsFailedError

    train, _ = rotation_task()
    with pytest.raises(AllTrialsFailedError):
        learn_filter_features(train, 4, fit_samples=10, num_trials=2)


def test_augmentation_never_hurts_training_fit():
    train, _ = rotation_task(n_train=50)
    _, augment = learn_filter_features(train, 16, fit_samples=30, num_trials=2)
    plain = ridge_fit(train.x, train.y, 0.0)
    aug = ridge_fit(augment(train.x), train.y, 0.0)
    assert rmse(ridge_predict(aug, augment(train.x)), train.y) <= (
        rmse(ridge_predict(plain, train.x), train.y) + 1e-9
    )


def test_run_table_produces_both_rows(tmp_path):
    train, test = rotation_task(n_train=80, n_test=40)
    rows = run_table(train, test, k=16, seed=2, fit_samples=40)
    names = [name for name, _ in rows]
    assert names == [mnistreg.ROW_RAW, mnistreg.ROW_FILTER]
    assert all(np.isfinite(v) for _, v in rows)
    path = tmp_path / "table.csv"
    write_results_csv(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "experiment,rmse"
    assert lines[1].startswith("ls_raw_pixels,")
    assert lines[2].startswith("ls_learned_filter,")


def test_run_experiment_from_idx_files(idx_dir):
    rows = mnistreg.run_experiment(
        str(idx_dir), k=16, n_train=60, n_test=30, seed=1, fit_samples=40
    )
    assert len(rows) == 2 and all(np.isfinite(v) for _, v in rows)
