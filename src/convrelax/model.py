"""Planted teacher network and Gaussian training data.

The teacher applies one filter to k non-overlapping blocks of each input
row and sums the rectified block responses.  Labels are noiseless, so
the non-convex training loss has global minimum zero at the planted
filter.  All randomness flows through named substreams of one master
seed, which lets experiments redraw the perturbation while holding the
features fixed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

# named substreams of the master seed
STREAM_FEATURES = 0
STREAM_FILTER = 1
STREAM_PERTURBATION = 2
STREAM_GD_INIT = 3
STREAM_TRIAL = 4


class ModelError(ValueError):
    pass


def substream(seed: int, stream: int, *extra: int) -> np.random.Generator:
    """Deterministic generator for one named substream of a master seed."""
    if seed < 0:
        raise ModelError("seed must be a nonnegative integer")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(stream, *extra))
    return np.random.default_rng(ss)


def derived_seed(seed: int, index: int) -> int:
    """A fresh 64-bit master seed for sub-experiment ``index``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(STREAM_TRIAL, int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class PlantedModel:
    """Ground-truth filter and architecture generating the labels."""

    d: int
    k: int
    w_star: np.ndarray
    seed: int

    def __post_init__(self):
        if self.d <= 0 or self.k <= 0:
            raise ModelError("d and k must be positive")
        if self.d % self.k != 0:
            raise ModelError(f"k={self.k} must divide d={self.d}")
        w = np.asarray(self.w_star, dtype=float)
        object.__setattr__(self, "w_star", w)
        if w.shape != (self.d // self.k,):
            raise ModelError("w_star must have length d/k")
        if not np.all(np.isfinite(w)) or not w.any():
            raise ModelError("w_star must be finite with a nonzero entry")

    @property
    def filter_size(self) -> int:
        return self.d // self.k


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with block structure and its label vector."""

    x: np.ndarray
    y: np.ndarray
    k: int
    seed: int | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ModelError("x must be (n, d) with matching y length")
        if self.k <= 0 or x.shape[1] % self.k != 0:
            raise ModelError("k must be positive and divide the feature width")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ModelError("x and y must be finite")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def filter_size(self) -> int:
        return self.d // self.k

    def blocks(self) -> np.ndarray:
        """View of x as (n, k, d/k) non-overlapping blocks."""
        return self.x.reshape(self.n, self.k, self.filter_size)


def block_responses(x: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """(n, k) pre-activation responses of the filter on each block.

    The single-block case takes the plain matrix-vector path so that all
    call sites agree bitwise with max(X·w, 0).
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    n, d = x.shape
    if k <= 0 or d % k != 0:
        raise ModelError("k must be positive and divide the feature width")
    if w.shape != (d // k,):
        raise ModelError(f"filter length {w.shape} does not match d/k={d // k}")
    if k == 1:
        return (x @ w)[:, None]
    return x.reshape(n, k, d // k) @ w


def forward(x: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """Sum of rectified block responses, one value per sample."""
    return np.maximum(block_responses(x, w, k), 0.0).sum(axis=1)


def residual(dataset: Dataset, w: np.ndarray) -> float:
    """Sum of squared errors of the non-convex forward map against y."""
    diff = forward(dataset.x, w, dataset.k) - dataset.y
    return float(diff @ diff)


def sample_planted(n: int, d: int, k: int, seed: int) -> tuple[PlantedModel, Dataset]:
    """Draw a planted instance: Gaussian features, Gaussian filter, exact labels."""
    if n <= 0 or d <= 0 or k <= 0:
        raise ModelError("n, d, k must be positive")
    if d % k != 0:
        raise ModelError(f"k={k} must divide d={d}")
    x = substream(seed, STREAM_FEATURES).standard_normal((n, d))
    w_star = substream(seed, STREAM_FILTER).standard_normal(d // k)
    y = forward(x, w_star, k)
    model = PlantedModel(d=d, k=k, w_star=w_star, seed=seed)
    return model, Dataset(x=x, y=y, k=k, seed=seed)


def teacher_filter(dataset: Dataset) -> np.ndarray:
    """Regenerate the planted filter of a dataset produced by sample_planted."""
    if dataset.seed is None:
        raise ModelError("dataset carries no generation seed")
    return substream(dataset.seed, STREAM_FILTER).standard_normal(dataset.filter_size)


# ---------------------------------------------------------------------------
# CSV export/import: metadata line, header, then one sample per row with
# 17 significant digits so float64 values round-trip bit-exactly
# ---------------------------------------------------------------------------

_META_RE = re.compile(r"^# n=(\d+) d=(\d+) k=(\d+) seed=(\d+)$")


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def export_csv(dataset: Dataset, path: str) -> None:
    if dataset.seed is None:
        raise ModelError("dataset carries no generation seed; cannot export")
    n, d = dataset.x.shape
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(f"# n={n} d={d} k={dataset.k} seed={dataset.seed}\n")
        f.write("y," + ",".join(f"x_{j}" for j in range(1, d + 1)) + "\n")
        for i in range(n):
            row = [_fmt(dataset.y[i])] + [_fmt(v) for v in dataset.x[i]]
            f.write(",".join(row) + "\n")


class CsvFormatError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def import_csv(path: str) -> Dataset:
    with open(path, "r", encoding="ascii") as f:
        lines = f.read().splitlines()
    if not lines:
        raise CsvFormatError(1, "empty file, expected metadata line")
    m = _META_RE.match(lines[0])
    if not m:
        raise CsvFormatError(1, "expected metadata line '# n=<n> d=<d> k=<k> seed=<seed>'")
    n, d, k, seed = (int(g) for g in m.groups())
    if len(lines) < 2:
        raise CsvFormatError(2, "missing header line")
    expected_header = "y," + ",".join(f"x_{j}" for j in range(1, d + 1))
    if lines[1] != expected_header:
        raise CsvFormatError(2, f"expected header '{expected_header}'")
    if len(lines) != 2 + n:
        raise CsvFormatError(len(lines) + 1, f"expected {n} data rows, found {len(lines) - 2}")
    x = np.empty((n, d))
    y = np.empty(n)
    for i in range(n):
        lineno = 3 + i
        parts = lines[2 + i].split(",")
        if len(parts) != d + 1:
            raise CsvFormatError(lineno, f"expected {d + 1} columns, found {len(parts)}")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise CsvFormatError(lineno, str(exc)) from exc
        y[i] = vals[0]
        x[i] = vals[1:]
    finite = np.isfinite(np.column_stack([y, x]))
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        column = "y" if j == 0 else f"x_{j}"
        raise CsvFormatError(3 + i, f"non-finite value in column {column}")
    return Dataset(x=x, y=y, k=k, seed=seed)
