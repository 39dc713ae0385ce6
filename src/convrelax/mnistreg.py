"""Rotation-angle regression on MNIST-format images.

Synthesizes a regression task by rotating each selected image by a
uniform random angle, then compares ridge regression on raw pixels
against ridge on pixels augmented with the block responses of a filter
learned by the randomized relaxation.

Protocol (the source experiment leaves it unspecified, so it is pinned
here): angles uniform in [-45, 45] degrees, bilinear inverse-mapping
rotation about the image center, ridge weight chosen on a 10% validation
split from a log grid, filter blocks are contiguous pixel runs of length
784/k, and the filter itself is fitted on a seeded subsample of training
rows with labels shifted to be nonnegative (the relaxation constrains
slacks to sum to the label, which requires nonnegative targets).
"""

from __future__ import annotations

import gzip
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import relax
from .model import Dataset, _fmt, substream
from .qpsolve import least_squares

STREAM_MNIST_SELECT = 10
STREAM_MNIST_ANGLES = 11
STREAM_MNIST_FIT = 12

DEFAULT_ANGLE_RANGE = (-45.0, 45.0)
DEFAULT_N_TRAIN = 10000
DEFAULT_N_TEST = 5000
DEFAULT_K = 16
DEFAULT_FIT_SAMPLES = 150
DEFAULT_LAMBDA_GRID = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)
VALIDATION_FRACTION = 0.1  # of the training rows held out to pick λ

IDX_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}

RESULT_HEADER = "experiment,rmse"
ROW_RAW = "ls_raw_pixels"
ROW_FILTER = "ls_learned_filter"


class IdxFormatError(ValueError):
    pass


class IdxBadMagicError(IdxFormatError):
    pass


class IdxTruncatedError(IdxFormatError):
    pass


class IdxUnknownElementError(IdxFormatError):
    pass


# element code -> (kind name, big-endian dtype)
_ELEMENT_CODES = {
    0x08: ("unsigned-byte", ">u1"),
    0x09: ("signed-byte", ">i1"),
    0x0B: ("16-bit int", ">i2"),
    0x0C: ("32-bit int", ">i4"),
    0x0D: ("32-bit float", ">f4"),
    0x0E: ("64-bit float", ">f8"),
}
_KIND_TO_CODE = {kind: code for code, (kind, _) in _ELEMENT_CODES.items()}


@dataclass
class IdxTensor:
    element_kind: str
    dims: tuple[int, ...]
    data: np.ndarray  # flat, row-major

    def reshaped(self) -> np.ndarray:
        return self.data.reshape(self.dims)


def parse_idx(buf: bytes) -> IdxTensor:
    """Decode the big-endian IDX container; rejects malformed input with
    distinct errors for bad magic, unknown element codes and truncation."""
    if len(buf) < 4:
        raise IdxTruncatedError(f"header needs 4 bytes, got {len(buf)}")
    if buf[0] != 0 or buf[1] != 0:
        raise IdxBadMagicError(f"magic must start with two zero bytes, got {buf[:2].hex()}")
    code, ndim = buf[2], buf[3]
    if code not in _ELEMENT_CODES:
        raise IdxUnknownElementError(f"unknown element code 0x{code:02x}")
    kind, dtype = _ELEMENT_CODES[code]
    header_len = 4 + 4 * ndim
    if len(buf) < header_len:
        raise IdxTruncatedError(f"dimension list needs {header_len} bytes, got {len(buf)}")
    dims = struct.unpack(f">{ndim}I", buf[4:header_len]) if ndim else ()
    count = int(np.prod(dims, dtype=np.int64)) if dims else 1
    itemsize = np.dtype(dtype).itemsize
    expected = header_len + count * itemsize
    if len(buf) < expected:
        raise IdxTruncatedError(f"payload needs {expected} bytes, got {len(buf)}")
    if len(buf) > expected:
        raise IdxFormatError(f"{len(buf) - expected} trailing bytes after payload")
    data = np.frombuffer(buf, dtype=dtype, count=count, offset=header_len)
    return IdxTensor(element_kind=kind, dims=tuple(int(v) for v in dims), data=data)


def write_idx(tensor: IdxTensor) -> bytes:
    code = _KIND_TO_CODE[tensor.element_kind]
    dtype = _ELEMENT_CODES[code][1]
    head = bytes([0, 0, code, len(tensor.dims)])
    head += struct.pack(f">{len(tensor.dims)}I", *tensor.dims)
    return head + np.ascontiguousarray(tensor.data, dtype=dtype).tobytes()


def load_idx_file(path: str) -> IdxTensor:
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rb") as f:
        return parse_idx(f.read())


def rotate_image(image: np.ndarray, theta: float) -> np.ndarray:
    """Rotate about the grid center by inverse mapping with bilinear
    interpolation; samples outside the frame read as zero."""
    if not -180.0 <= theta <= 180.0:
        raise ValueError("theta must lie in [-180, 180] degrees")
    img = np.asarray(image, dtype=float)
    h, w = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    t = np.deg2rad(theta)
    cos_t, sin_t = np.cos(t), np.sin(t)
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    dr, dc = rows - cy, cols - cx
    src_r = cy + cos_t * dr + sin_t * dc
    src_c = cx - sin_t * dr + cos_t * dc
    r0 = np.floor(src_r).astype(int)
    c0 = np.floor(src_c).astype(int)
    fr, fc = src_r - r0, src_c - c0

    def sample(rr, cc):
        inside = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
        out = np.zeros((h, w))
        out[inside] = img[rr[inside], cc[inside]]
        return out

    return (
        (1 - fr) * (1 - fc) * sample(r0, c0)
        + (1 - fr) * fc * sample(r0, c0 + 1)
        + fr * (1 - fc) * sample(r0 + 1, c0)
        + fr * fc * sample(r0 + 1, c0 + 1)
    )


@dataclass
class RotationDataset:
    x: np.ndarray  # (n, 784), pixel values in [0, 1]
    y: np.ndarray  # rotation angles in degrees
    split: str  # "train" or "test"

    @property
    def n(self) -> int:
        return self.x.shape[0]


def build_rotation_dataset(
    images: IdxTensor,
    angle_range: tuple[float, float] = DEFAULT_ANGLE_RANGE,
    n_train: int = DEFAULT_N_TRAIN,
    n_test: int = DEFAULT_N_TEST,
    seed: int = 0,
) -> tuple[RotationDataset, RotationDataset]:
    """Rotate disjoint seeded selections of images into train/test splits."""
    lo, hi = float(angle_range[0]), float(angle_range[1])
    if not (-180.0 <= lo <= hi <= 180.0):
        raise ValueError("angle range must satisfy -180 <= lo <= hi <= 180")
    if len(images.dims) != 3:
        raise ValueError(f"expected an (N, H, W) image tensor, got dims {images.dims}")
    total, h, w = images.dims
    if n_train < 2 or n_test < 1:
        # the ridge weight is chosen on a validation slice held out of the
        # training split, so both slices need a row
        raise ValueError(f"need n_train >= 2 and n_test >= 1, got {n_train} and {n_test}")
    if total < n_train + n_test:
        raise ValueError(f"need {n_train + n_test} images, file has {total}")
    raw = images.reshaped().astype(float)
    if np.issubdtype(images.data.dtype, np.integer):
        raw = raw / 255.0

    order = substream(seed, STREAM_MNIST_SELECT).permutation(total)
    angles = substream(seed, STREAM_MNIST_ANGLES).uniform(lo, hi, size=n_train + n_test)

    def make(idx, theta, split):
        x = np.empty((len(idx), h * w))
        for row, (i, a) in enumerate(zip(idx, theta)):
            x[row] = rotate_image(raw[i], a).ravel()
        return RotationDataset(x=x, y=np.asarray(theta, dtype=float), split=split)

    train = make(order[:n_train], angles[:n_train], "train")
    test = make(order[n_train : n_train + n_test], angles[n_train : n_train + n_test], "test")
    return train, test


@dataclass
class RidgeModel:
    weights: np.ndarray
    intercept: float
    lam: float


def ridge_fit(x: np.ndarray, y: np.ndarray, lam: float) -> RidgeModel:
    """min ‖y − Xw − b‖² + λ‖w‖², intercept unpenalized; λ=0 falls back to
    the minimum-norm least-squares solution."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if lam > 0:
        return _ridge_path(x, y)(lam)
    n, d = x.shape
    sol = least_squares(np.hstack([x, np.ones((n, 1))]), y)
    return RidgeModel(weights=sol[:d], intercept=float(sol[d]), lam=lam)


def _ridge_path(x: np.ndarray, y: np.ndarray):
    """λ ↦ ``ridge_fit(x, y, λ)`` for λ > 0, from one SVD U·diag(s)·Vᵀ of
    the centred design: w = V·diag(s/(s²+λ))·Uᵀ(y − ȳ), b = ȳ − x̄ᵀw."""
    x_mean, y_mean = x.mean(axis=0), float(y.mean())
    u, s, vt = np.linalg.svd(x - x_mean, full_matrices=False)
    uty = u.T @ (y - y_mean)

    def at(lam: float) -> RidgeModel:
        w = vt.T @ (s / (s * s + lam) * uty)
        return RidgeModel(weights=w, intercept=y_mean - float(x_mean @ w), lam=lam)

    return at


def ridge_predict(model: RidgeModel, x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=float) @ model.weights + model.intercept


def rmse(y_hat: np.ndarray, y: np.ndarray) -> float:
    diff = np.asarray(y_hat, dtype=float) - np.asarray(y, dtype=float)
    return float(np.sqrt(np.mean(diff * diff)))


def make_augmenter(w_hat: np.ndarray, k: int, center: np.ndarray | None = None):
    """Feature map appending the k rectified block responses of a filter,
    computed on the (optionally centered) pixels the filter was fit on."""
    w_hat = np.asarray(w_hat, dtype=float)

    def augment(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        shifted = x - center if center is not None else x
        responses = np.maximum(shifted.reshape(x.shape[0], k, w_hat.shape[0]) @ w_hat, 0.0)
        return np.hstack([x, responses])

    return augment


def _check_fit_args(d: int, k: int, fit_samples: int) -> None:
    if k < 1 or d % k != 0:
        raise ValueError(f"k={k} must be a positive divisor of the feature width {d}")
    if fit_samples < 1:
        raise ValueError(f"fit_samples must be positive, got {fit_samples}")


def learn_filter_features(
    train: RotationDataset,
    k: int,
    seed: int = 0,
    num_trials: int = 6,
    fit_samples: int = DEFAULT_FIT_SAMPLES,
):
    """Fit a block filter to the rotation labels with the amplified
    relaxation and return it with the feature augmenter.

    The fit runs on a seeded subsample of fit_samples training rows.
    Labels are shifted to be nonnegative and pixels centered by the
    subsample mean: with raw nonnegative pixels every nonpositive filter
    direction is a recession ray of the relaxation, so the program would
    be unbounded for almost every perturbation.  The subsample must also be large enough that the
    centered block rows positively span filter space, on the order of
    3·(784/k)/k rows.
    """
    _check_fit_args(train.x.shape[1], k, fit_samples)
    fit_samples = min(fit_samples, train.n)
    pick = substream(seed, STREAM_MNIST_FIT).permutation(train.n)[:fit_samples]
    y_fit = train.y[pick] - float(np.min(train.y[pick]))
    center = train.x[pick].mean(axis=0)
    ds = Dataset(x=train.x[pick] - center, y=y_fit, k=k)
    outcome = relax.fit_amplified(ds, num_trials, seed, w_star=None)
    return outcome.best.w_hat, make_augmenter(outcome.best.w_hat, k, center)


def select_lambda(x: np.ndarray, y: np.ndarray, grid=DEFAULT_LAMBDA_GRID, seed: int = 0) -> float:
    """Pick the ridge weight minimizing RMSE on a held-out validation
    slice of VALIDATION_FRACTION of the rows; one SVD of the training
    slice serves every λ > 0."""
    n = x.shape[0]
    order = substream(seed, STREAM_MNIST_SELECT, 1).permutation(n)
    n_val = max(1, int(round(VALIDATION_FRACTION * n)))
    val, tr = order[:n_val], order[n_val:]
    path = _ridge_path(x[tr], y[tr])
    best_lam, best_err = None, np.inf
    for lam in grid:
        m = path(lam) if lam > 0 else ridge_fit(x[tr], y[tr], lam)
        err = rmse(ridge_predict(m, x[val]), y[val])
        if err < best_err:
            best_lam, best_err = lam, err
    return float(best_lam)


def run_experiment(
    data_dir: str,
    k: int = DEFAULT_K,
    angle_range: tuple[float, float] = DEFAULT_ANGLE_RANGE,
    n_train: int = DEFAULT_N_TRAIN,
    n_test: int = DEFAULT_N_TEST,
    seed: int = 0,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    fit_samples: int = DEFAULT_FIT_SAMPLES,
) -> list[tuple[str, float]]:
    """Full pipeline against the four standard IDX files in data_dir."""
    tensors = {}
    for name, fname in IDX_FILES.items():
        path = os.path.join(data_dir, fname)
        if not os.path.exists(path) and os.path.exists(path + ".gz"):
            path = path + ".gz"
        tensors[name] = t = load_idx_file(path)
        if "images" in name and t.data.dtype.kind == "f" and not np.isfinite(t.data).all():
            image = int(np.flatnonzero(~np.isfinite(t.data))[0]) // math.prod(t.dims[1:])
            raise IdxFormatError(f"{fname}: image {image} has a non-finite pixel")
    # digit labels are parsed to validate the files but the task is rotation
    del tensors["train_labels"], tensors["test_labels"]
    pool = IdxTensor(
        element_kind=tensors["train_images"].element_kind,
        dims=(
            tensors["train_images"].dims[0] + tensors["test_images"].dims[0],
            *tensors["train_images"].dims[1:],
        ),
        data=np.concatenate([tensors["train_images"].data, tensors["test_images"].data]),
    )
    # checked here, before every image is rotated, and again by the fit
    _check_fit_args(math.prod(pool.dims[1:]), k, fit_samples)
    train, test = build_rotation_dataset(pool, angle_range, n_train, n_test, seed)
    return run_table(train, test, k, seed, lambda_grid, fit_samples)


def run_table(
    train: RotationDataset,
    test: RotationDataset,
    k: int = DEFAULT_K,
    seed: int = 0,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    fit_samples: int = DEFAULT_FIT_SAMPLES,
) -> list[tuple[str, float]]:
    """Raw-pixel ridge versus filter-augmented ridge, both λ-tuned."""
    lam_raw = select_lambda(train.x, train.y, lambda_grid, seed=seed)
    model_raw = ridge_fit(train.x, train.y, lam_raw)
    err_raw = rmse(ridge_predict(model_raw, test.x), test.y)

    _, augment = learn_filter_features(train, k, seed=seed, fit_samples=fit_samples)
    x_aug_train = augment(train.x)
    lam_aug = select_lambda(x_aug_train, train.y, lambda_grid, seed=seed)
    model_aug = ridge_fit(x_aug_train, train.y, lam_aug)
    err_aug = rmse(ridge_predict(model_aug, augment(test.x)), test.y)
    return [(ROW_RAW, err_raw), (ROW_FILTER, err_aug)]


def write_results_csv(rows: list[tuple[str, float]], path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(RESULT_HEADER + "\n")
        for name, value in rows:
            f.write(f"{name},{_fmt(value)}\n")
