"""Fixed-step gradient descent on the non-convex block-ReLU objective.

Comparison method for the phase-transition experiments.  The step size
defaults to half the inverse largest eigenvalue of XᵀX (power-iteration
estimate), the initialization scale to the inverse square root of the
filter length; the subgradient of the ReLU at zero is taken to be zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import STREAM_GD_INIT, Dataset, residual, substream

DIVERGENCE_LOSS = 1e12

# power-method steps behind the default step size
POWER_ITERATION_STEPS = 20

GD_CONVERGED = "Converged"
GD_MAX_ITERS = "MaxIters"
GD_DIVERGED = "Diverged"


class BaselineError(ValueError):
    pass


class KinkProximityError(ValueError):
    """A block response is too close to the ReLU kink for differencing."""


@dataclass
class GdConfig:
    step_size: float
    max_iters: int = 5000
    init_scale: float = 1.0
    stop_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.step_size <= 0:
            raise BaselineError("step_size must be positive")
        if self.max_iters < 1:
            raise BaselineError("max_iters must be positive")
        if self.init_scale < 0:
            raise BaselineError("init_scale must be nonnegative")


def power_iteration_lambda_max(x: np.ndarray) -> float:
    """Largest eigenvalue of xᵀx, estimated by POWER_ITERATION_STEPS steps
    of a fixed-start power method."""
    x = np.asarray(x, dtype=float)
    d = x.shape[1]
    v = np.ones(d) / np.sqrt(d)
    for _ in range(POWER_ITERATION_STEPS):
        w = x.T.dot(x.dot(v))
        norm = math.sqrt(w.dot(w))  # np.linalg.norm's ‖w‖₂ for a 1-D float array
        if norm == 0.0:
            return 0.0
        v = w / norm
    return float(v.dot(x.T.dot(x.dot(v))))


def default_config(dataset: Dataset, seed: int = 0) -> GdConfig:
    """Scale-aware defaults: init scale 1/√(d/k) and a step that is stable
    on every active-set region.

    On a region the loss is quadratic with curvature 2·GᵀG, where each
    row of G sums that sample's active blocks; Cauchy-Schwarz bounds its
    largest eigenvalue by k·λ_max(BᵀB) over the stacked blocks B, so
    0.5/(k·λ_max(BᵀB)) keeps the descent monotone everywhere.  For one
    block this is exactly 0.5/λ_max(XᵀX).
    """
    stacked = dataset.blocks().reshape(dataset.n * dataset.k, dataset.filter_size)
    lam_max = power_iteration_lambda_max(stacked)
    if lam_max <= 0:
        raise BaselineError("data matrix has no energy; cannot pick a step size")
    return GdConfig(
        step_size=0.5 / (dataset.k * lam_max),
        init_scale=1.0 / np.sqrt(dataset.filter_size),
        seed=seed,
    )


def _loss_grad_of(dataset: Dataset):
    """Loss and gradient at w for a fixed dataset, as one BLAS product
    each way over the (n·k, d/k) row view of the blocks."""
    n, k, p = dataset.n, dataset.k, dataset.filter_size
    rows = dataset.x.reshape(n * k, p)
    y = dataset.y

    def at(w: np.ndarray) -> tuple[float, np.ndarray]:
        resp = rows.dot(w)
        active = resp > 0.0
        fired = np.where(active, resp, 0.0)
        err = (fired if k == 1 else fired.reshape(n, k).sum(axis=1)) - y
        loss = float(err.dot(err))
        grad = 2.0 * (active * (err if k == 1 else np.repeat(err, k))).dot(rows)
        return loss, grad

    return at


def loss_grad(dataset: Dataset, w: np.ndarray) -> tuple[float, np.ndarray]:
    """Loss Σ_i (forward_i − y_i)² and its (sub)gradient in the filter."""
    w = np.asarray(w, dtype=float)
    if w.shape != (dataset.filter_size,):
        raise BaselineError(f"filter must have length d/k={dataset.filter_size}")
    return _loss_grad_of(dataset)(w)


@dataclass
class GdResult:
    w_hat: np.ndarray
    final_loss: float
    iters_used: int
    status: str

    def to_fit_dict(self) -> dict:
        """Serialize in the fit-result shape shared with the relaxation."""
        return {
            "w_hat": self.w_hat.tolist(),
            "z_hat": [],
            "train_residual": self.final_loss,
            "report": {"status": self.status, "iterations": self.iters_used},
            "r_used": [],
            "trial_seed": None,
        }


def gd_fit(dataset: Dataset, config: GdConfig, w0: np.ndarray | None = None) -> GdResult:
    """Fixed-step descent from a Gaussian start, stopping on a flat gradient."""
    if w0 is None:
        rng = substream(config.seed, STREAM_GD_INIT)
        w = config.init_scale * rng.standard_normal(dataset.filter_size)
    else:
        w = np.asarray(w0, dtype=float).copy()
        if w.shape != (dataset.filter_size,):
            raise BaselineError("w0 must have length d/k")

    loss_grad_at = _loss_grad_of(dataset)
    step, stop_tol = config.step_size, config.stop_tol
    status = GD_MAX_ITERS
    iters = 0
    # an overflowing run ends Diverged below; numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grad = loss_grad_at(w)
        for it in range(config.max_iters + 1):
            if not loss <= DIVERGENCE_LOSS:  # also catches a NaN loss
                status = GD_DIVERGED
                break
            if np.abs(grad).max() <= stop_tol:
                status = GD_CONVERGED
                break
            if it == config.max_iters:
                break
            w = w - step * grad
            iters = it + 1
            loss, grad = loss_grad_at(w)
        final_loss = residual(dataset, w)
    if not np.all(np.isfinite(w)):
        # an overflowed filter zeroes every active set, so the loss and
        # gradient computed from it read finite and flat
        status = GD_DIVERGED
    return GdResult(w_hat=w, final_loss=final_loss, iters_used=iters, status=status)


def fd_check(dataset: Dataset, w: np.ndarray, h: float) -> float:
    """Max relative disagreement between the analytic gradient and central
    differences; rejects points whose block responses sit near a kink."""
    if h <= 0:
        raise BaselineError("h must be positive")
    w = np.asarray(w, dtype=float)
    xb = dataset.blocks()
    resp = np.abs(xb @ w)
    margin = 10.0 * h * np.linalg.norm(xb, axis=2)
    if np.any(resp <= margin):
        raise KinkProximityError("a block response is within 10·h·‖X_ij‖ of zero")
    _, grad = loss_grad(dataset, w)
    fd = np.empty_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = h
        lp, _ = loss_grad(dataset, w + e)
        lm, _ = loss_grad(dataset, w - e)
        fd[i] = (lp - lm) / (2.0 * h)
    scale = max(float(np.max(np.abs(grad))), float(np.max(np.abs(fd))), 1e-30)
    return float(np.max(np.abs(grad - fd))) / scale
