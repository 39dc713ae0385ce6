import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convrelax.baseline import (
    DIVERGENCE_LOSS,
    GD_CONVERGED,
    GD_DIVERGED,
    GD_MAX_ITERS,
    BaselineError,
    GdConfig,
    KinkProximityError,
    default_config,
    fd_check,
    gd_fit,
    loss_grad,
    power_iteration_lambda_max,
)
from convrelax.model import Dataset, sample_planted
from convrelax.relax import assess


def two_sample_d1() -> Dataset:
    return Dataset(x=np.array([[1.0], [-1.0]]), y=np.array([1.0, 0.0]), k=1)


def test_loss_grad_zero_at_teacher():
    pm, ds = sample_planted(60, 8, 2, 1)
    loss, grad = loss_grad(ds, pm.w_star)
    assert loss <= 1e-20
    assert np.max(np.abs(grad)) <= 1e-12


def test_loss_grad_hand_example():
    loss, grad = loss_grad(two_sample_d1(), np.array([0.5]))
    assert loss == pytest.approx(0.25)
    np.testing.assert_allclose(grad, [-1.0])


def test_loss_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    for k in (1, 2, 4):
        _, ds = sample_planted(25, 8, k, int(rng.integers(1 << 30)))
        w = rng.standard_normal(ds.filter_size)
        assert fd_check(ds, w, 1e-6) <= 1e-5


def test_power_iteration_against_eigvalsh():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((50, 6))
    est = power_iteration_lambda_max(x)
    exact = float(np.linalg.eigvalsh(x.T @ x)[-1])
    assert est == pytest.approx(exact, rel=1e-3)


def test_gd_fit_starts_at_teacher_stays_put():
    pm, ds = sample_planted(40, 6, 2, 2)
    cfg = GdConfig(step_size=0.1, seed=0)
    res = gd_fit(ds, cfg, w0=pm.w_star)
    assert res.status == GD_CONVERGED
    assert res.iters_used == 0
    np.testing.assert_array_equal(res.w_hat, pm.w_star)


def test_gd_fit_d1_descent():
    # one-dimensional piecewise quadratic: plain contraction toward 1
    res = gd_fit(two_sample_d1(), GdConfig(step_size=0.1, max_iters=200), w0=np.array([0.5]))
    assert res.final_loss <= 1e-10
    assert abs(res.w_hat[0] - 1.0) <= 1e-5
    assert res.iters_used <= 200


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gd_fit_diverges_with_huge_step():
    _, ds = sample_planted(50, 4, 1, 3)
    res = gd_fit(ds, GdConfig(step_size=10.0, seed=1))
    assert res.status == GD_DIVERGED


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gd_fit_overflowed_filter_is_diverged():
    # one step overflows w to (-inf, inf): every response is -inf or NaN,
    # so no block is active and the loss and gradient read finite and flat
    ds = Dataset(x=np.array([[1.0, -1.0], [1.0, 1.0]]), y=np.array([1.0, 1.0]), k=1)
    res = gd_fit(ds, GdConfig(step_size=1e306), w0=np.array([50.0, -50.0]))
    assert not np.all(np.isfinite(res.w_hat))
    assert res.status == GD_DIVERGED


def test_gd_default_config_recovers_across_widths():
    hits = 0
    for s in range(10):
        pm, ds = sample_planted(400, 10, 5, 3000 + s)
        res = gd_fit(ds, default_config(ds, seed=3000 + s))
        hits += np.linalg.norm(res.w_hat - pm.w_star) <= 1e-3
    assert hits >= 9


def test_descent_property_on_fixed_active_region():
    # monotone loss whenever consecutive iterates share the activity
    # pattern; step bound k-corrected as in default_config
    for k in (1, 2):
        _, ds = sample_planted(80, 8, k, 5)
        stacked = ds.blocks().reshape(-1, ds.filter_size)
        step = 1.0 / (2.0 * k * power_iteration_lambda_max(stacked))
        rng = np.random.default_rng(0)
        w = rng.standard_normal(ds.filter_size)
        loss, grad = loss_grad(ds, w)
        for _ in range(300):
            pattern = (ds.blocks() @ w) > 0
            w_next = w - step * grad
            next_pattern = (ds.blocks() @ w_next) > 0
            next_loss, next_grad = loss_grad(ds, w_next)
            if np.array_equal(pattern, next_pattern):
                assert next_loss <= loss + 1e-12
            w, loss, grad = w_next, next_loss, next_grad


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    _, ds = sample_planted(20, 6, 2, int(rng.integers(1 << 30)))
    w = rng.standard_normal(3)
    loss, grad = loss_grad(ds, w)
    perm = rng.permutation(ds.n)
    shuffled = Dataset(x=ds.x[perm], y=ds.y[perm], k=ds.k)
    loss_p, grad_p = loss_grad(shuffled, w)
    assert loss_p == pytest.approx(loss, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(grad_p, grad, rtol=1e-9, atol=1e-12)


def test_scaling_keeps_active_sets_and_gradient_formula():
    # positive rescaling of the filter leaves the activity pattern alone
    _, ds = sample_planted(30, 8, 2, 9)
    rng = np.random.default_rng(1)
    w = rng.standard_normal(4)
    for c in (0.5, 2.0, 10.0):
        assert np.array_equal((ds.blocks() @ w) > 0, (ds.blocks() @ (c * w)) > 0)
        _, expected = _loss_grad_reference(ds, c * w)
        _, grad = loss_grad(ds, c * w)
        np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=1e-12)


def test_fd_check_quadratic_region_tight():
    # all blocks active: the loss is exactly quadratic there
    rng = np.random.default_rng(11)
    x = np.abs(rng.standard_normal((20, 4))) + 0.5
    w = np.ones(2)
    ds = Dataset(x=x, y=rng.standard_normal(20) ** 2, k=2)
    err = fd_check(ds, w, 1e-6)
    assert err <= 1e-7
    # relative measure is scale-free
    assert fd_check(ds, 10.0 * w, 1e-6) <= 1e-7


def test_fd_check_rejects_kink_adjacent_points():
    ds = two_sample_d1()
    with pytest.raises(KinkProximityError):
        fd_check(ds, np.array([1e-9]), 1e-6)


def test_config_validation():
    with pytest.raises(BaselineError):
        GdConfig(step_size=0.0)
    with pytest.raises(BaselineError):
        GdConfig(step_size=0.1, max_iters=0)
    with pytest.raises(BaselineError):
        GdConfig(step_size=0.1, init_scale=-1.0)


def test_gd_result_json_shape_matches_fit_results():
    _, ds = sample_planted(20, 4, 1, 4)
    res = gd_fit(ds, default_config(ds))
    blob = res.to_fit_dict()
    assert set(blob) == {"w_hat", "z_hat", "train_residual", "report", "r_used", "trial_seed"}
    assert blob["train_residual"] == res.final_loss


# -- the gradient and descent loop before they became one BLAS product over
# the (n·k, d/k) row view: a 3-D batched matmul and an einsum per step


def _loss_grad_reference(dataset: Dataset, w: np.ndarray) -> tuple[float, np.ndarray]:
    xb = dataset.blocks()
    resp = xb @ w  # (n, k)
    active = resp > 0.0
    err = np.where(active, resp, 0.0).sum(axis=1) - dataset.y
    loss = float(err @ err)
    grad = 2.0 * np.einsum("ij,ijl->l", active * err[:, None], xb)
    return loss, grad


def _gd_fit_reference(dataset: Dataset, config: GdConfig, w: np.ndarray):
    """(w, iterations, status) of the pre-change descent loop."""
    status = GD_MAX_ITERS
    iters = 0
    loss, grad = _loss_grad_reference(dataset, w)
    for it in range(config.max_iters):
        if not loss <= DIVERGENCE_LOSS:
            status = GD_DIVERGED
            break
        if np.max(np.abs(grad)) <= config.stop_tol:
            status = GD_CONVERGED
            break
        w = w - config.step_size * grad
        iters = it + 1
        loss, grad = _loss_grad_reference(dataset, w)
    else:
        if not loss <= DIVERGENCE_LOSS:
            status = GD_DIVERGED
        elif np.max(np.abs(grad)) <= config.stop_tol:
            status = GD_CONVERGED
    if not np.all(np.isfinite(w)):
        status = GD_DIVERGED
    return w, iters, status


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("n", [60, 400, 2000])
def test_gd_fit_matches_reference_loop(k, n):
    # same status, iteration count and verdict; the filter may move only
    # at rounding level (the sums run in another order)
    for d, seed in ((10, 41), (20, 42)):
        pm, ds = sample_planted(n, d, k, 100 * k + n + seed)
        cfg = default_config(ds, seed=seed)
        w0 = cfg.init_scale * np.random.default_rng(seed).standard_normal(ds.filter_size)
        res = gd_fit(ds, cfg, w0=w0)
        w_ref, iters_ref, status_ref = _gd_fit_reference(ds, cfg, w0.copy())
        assert res.status == status_ref
        assert res.iters_used == iters_ref
        assert np.max(np.abs(res.w_hat - w_ref)) <= 1e-12
        assert assess(res.w_hat, pm.w_star).success == assess(w_ref, pm.w_star).success


@pytest.mark.parametrize("k", [1, 2, 5])
def test_loss_grad_matches_reference(k):
    rng = np.random.default_rng(k)
    _, ds = sample_planted(300, 20, k, 7 + k)
    for _ in range(20):
        w = rng.standard_normal(ds.filter_size)
        loss, grad = loss_grad(ds, w)
        loss_ref, grad_ref = _loss_grad_reference(ds, w)
        assert loss == pytest.approx(loss_ref, rel=1e-13)
        np.testing.assert_allclose(grad, grad_ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(grad_ref)))

