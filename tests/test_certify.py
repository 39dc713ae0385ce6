import numpy as np
import pytest
from scipy.optimize import nnls

from convrelax import certify, model
from convrelax.certify import (
    CertifyError,
    active_sets,
    check_cone_condition,
    cone_generators,
    dual_solve,
    r1_singleton_fraction,
)
from convrelax.model import (
    STREAM_PERTURBATION,
    Dataset,
    derived_seed,
    forward,
    sample_planted,
    substream,
)
from convrelax.qpsolve import SolveStatus
from convrelax.relax import assess, fit
from oracles import cone_membership, highs_lp


def two_by_two() -> tuple[Dataset, np.ndarray]:
    x = np.array([[2.0, -1.0], [-3.0, 5.0]])
    w_star = np.array([1.0])
    return Dataset(x=x, y=forward(x, w_star, 2), k=2), w_star


def test_active_sets_first_coordinate_rule():
    # with the unit first-coordinate filter, membership is the sign of x_i1
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 4))
    sets = active_sets(x, np.array([1.0, 0.0, 0.0, 0.0]), 1)
    np.testing.assert_array_equal(sets.s[0], np.flatnonzero(x[:, 0] > 0))


def test_active_sets_two_by_two_example():
    ds, w_star = two_by_two()
    sets = active_sets(ds.x, w_star, 2)
    assert [list(s) for s in sets.s] == [[0], [1]]
    assert [list(r) for r in sets.r_sets] == [[0], [1]]


def test_active_sets_zero_row_in_no_set():
    x = np.array([[0.0, 0.0], [1.0, 1.0]])
    sets = active_sets(x, np.array([1.0]), 2)
    assert all(0 not in s for s in sets.s)
    assert list(sets.r_sets[0]) == []


def test_active_sets_transpose_coherence():
    rng = np.random.default_rng(3)
    for k in (1, 2, 4):
        x = rng.standard_normal((30, 8))
        sets = active_sets(x, rng.standard_normal(8 // k), k)
        assert len(sets.s) == k and len(sets.r_sets) == 30
        # i ∈ s[j] exactly when j ∈ r_sets[i]
        for i in range(30):
            for j in range(k):
                assert (i in sets.s[j]) == (j in sets.r_sets[i])


def test_cone_generators_single_block_are_rows():
    pm, ds = sample_planted(20, 4, 1, 2)
    sets = active_sets(ds.x, pm.w_star, 1)
    gens, idx = cone_generators(ds, sets)
    np.testing.assert_array_equal(idx, sets.s[0])
    np.testing.assert_array_equal(gens, ds.x[sets.s[0]])


def test_cone_generators_two_by_two_example():
    ds, w_star = two_by_two()
    sets = active_sets(ds.x, w_star, 2)
    gens, idx = cone_generators(ds, sets)
    np.testing.assert_array_equal(gens, [[2.0], [5.0]])
    np.testing.assert_array_equal(idx, [0, 1])


def test_cone_generators_skip_inactive_samples():
    x = np.array([[-1.0, -2.0], [1.0, 2.0]])
    ds = Dataset(x=x, y=forward(x, np.array([1.0]), 2), k=2)
    sets = active_sets(x, np.array([1.0]), 2)
    gens, idx = cone_generators(ds, sets)
    assert list(idx) == [1]
    np.testing.assert_array_equal(gens, [[3.0]])


def test_check_cone_condition_scalar_examples():
    cert = check_cone_condition(np.array([[2.0], [5.0]]), np.array([3.0]))
    assert cert.exists and not cert.boundary
    assert cert.min_coefficient >= -1e-9
    # the witness reproduces the target
    assert abs(cert.coefficients @ np.array([2.0, 5.0]) - 3.0) <= 1e-7
    bad = check_cone_condition(np.array([[2.0], [5.0]]), np.array([-1.0]))
    assert not bad.exists
    assert bad.elastic_value == pytest.approx(1.0, abs=1e-7)


def test_certificate_soundness_random_cones():
    rng = np.random.default_rng(8)
    for _ in range(25):
        m, p = int(rng.integers(1, 8)), int(rng.integers(1, 5))
        gens = rng.standard_normal((m, p))
        r = rng.standard_normal(p)
        cert = check_cone_condition(gens, r)
        # cross-check with an independent nonnegative least-squares oracle
        _, resid = nnls(gens.T, r)
        if cert.exists:
            recon = gens.T @ cert.coefficients
            assert np.max(np.abs(recon - r)) <= 1e-6
            assert cert.min_coefficient >= -1e-7
            assert resid <= 1e-5
        elif not cert.boundary:
            assert resid > 1e-8


def _phase1_panel():
    """(generators, target) pairs: the random cones above, then the
    planted cones of the degenerate phase-1 polish cases in
    test_qpsolve.py (k ∈ {1, 2, 3, 5}, n ∈ {20, 40}, six seeds each)."""
    rng = np.random.default_rng(8)
    for _ in range(25):
        m, p = int(rng.integers(1, 8)), int(rng.integers(1, 5))
        yield rng.standard_normal((m, p)), rng.standard_normal(p)
    for k, d in ((1, 6), (2, 8), (3, 12), (5, 20)):
        for n in (20, 40):
            for seed in range(6):
                _, ds = sample_planted(n, d, k, seed)
                sets = active_sets(ds.x, model.teacher_filter(ds), k)
                r = substream(seed + 100, STREAM_PERTURBATION).standard_normal(ds.filter_size)
                yield cone_generators(ds, sets)[0], -r


def test_elastic_value_and_verdict_match_independent_solvers():
    # HiGHS solves the elastic LP in its equality form: min 1ᵀ(t⁺ + t⁻)
    # over v, t⁺, t⁻ ≥ 0 with Gᵀv + t⁺ − t⁻ = r
    checked, inside = 0, 0
    for gens, r in _phase1_panel():
        m, p = gens.shape
        cert = check_cone_condition(gens, r)
        c = np.concatenate([np.zeros(m), np.ones(2 * p)])
        a_eq = np.hstack([gens.T, np.eye(p), -np.eye(p)])
        status, value, _ = highs_lp(c, -np.eye(m + 2 * p), np.zeros(m + 2 * p), a_eq, r)
        assert status == "optimal"
        assert abs(cert.elastic_value - value) <= 1e-8
        member = cone_membership(gens, r)
        if not cert.boundary and member is not None:
            assert cert.exists == member
            checked += 1
            inside += member
    # both verdicts occur
    assert checked >= 70 and 0 < inside < checked


def test_cone_condition_dimension_mismatch():
    with pytest.raises(CertifyError):
        check_cone_condition(np.ones((2, 3)), np.ones(2))


def test_k1_reduction_matches_proof_sketch_condition():
    # the generator machinery at k=1 is membership in the cone of the
    # active rows themselves
    for t in range(10):
        seed = derived_seed(4242, t)
        pm, ds = sample_planted(60, 5, 1, seed)
        sets = active_sets(ds.x, pm.w_star, 1)
        gens, _ = cone_generators(ds, sets)
        r = substream(seed, STREAM_PERTURBATION).standard_normal(5)
        cert = check_cone_condition(gens, r)
        _, resid = nnls(ds.x[ds.y > 0].T, r)
        if not cert.boundary:
            assert cert.exists == (resid <= 1e-7)


def test_certificate_agrees_with_lp_recovery():
    hits, boundary = 0, 0
    total = 40
    for t in range(total):
        k = 1 if t % 2 == 0 else 2
        seed = derived_seed(555, t)
        pm, ds = sample_planted(100, 8, k, seed)
        res = fit(ds, 0.0, seed)
        recovered = (
            res.report.status == SolveStatus.OPTIMAL
            and assess(res.w_hat, pm.w_star).success
        )
        sets = active_sets(ds.x, pm.w_star, k)
        gens, _ = cone_generators(ds, sets)
        cert = check_cone_condition(gens, -res.r_used)
        if cert.exists == recovered:
            hits += 1
        elif cert.boundary:
            boundary += 1
    assert hits + boundary == total
    assert hits >= total - 1


def test_dual_solve_d1_oracle_values():
    ds = Dataset(x=np.array([[1.0], [-1.0]]), y=np.array([1.0, 0.0]), k=1)
    # vertex oracle on both sides: w in [0, 1]; minimizing -w picks 1 with
    # value -1, minimizing +w picks 0 with value 0
    out = dual_solve(ds, np.array([-1.0]))
    assert out.status == certify.DUAL_OPTIMAL
    assert out.dual_objective == pytest.approx(-1.0, abs=1e-8)
    assert out.primal_objective == pytest.approx(-1.0, abs=1e-8)
    assert out.duality_gap <= 1e-8
    out2 = dual_solve(ds, np.array([1.0]))
    assert out2.dual_objective == pytest.approx(0.0, abs=1e-8)
    assert out2.primal_objective == pytest.approx(0.0, abs=1e-8)


def test_dual_solve_strong_duality_and_structure_on_recovery():
    recovered_seen = 0
    for t in range(12):
        k = 1 if t % 2 == 0 else 2
        seed = derived_seed(901, t)
        pm, ds = sample_planted(120, 8, k, seed)
        r = substream(seed, STREAM_PERTURBATION).standard_normal(ds.filter_size)
        sets = active_sets(ds.x, pm.w_star, k)
        out = dual_solve(ds, r, sets=sets)
        if out.status != certify.DUAL_OPTIMAL:
            continue
        assert out.duality_gap <= 1e-6
        if assess(out.w_hat, pm.w_star).success:
            recovered_seen += 1
            assert out.complementarity <= 1e-6
            assert out.structure_off_violation <= 1e-6
            assert out.structure_on_violation <= 1e-6
    assert recovered_seen >= 1


def test_dual_solve_infeasible_when_target_outside_hull():
    # a dataset whose rows all share a halfspace cannot represent the
    # opposite direction with nonnegative weights
    x = np.array([[1.0, 0.0], [0.8, 0.6], [0.9, -0.3]])
    ds = Dataset(x=x, y=forward(x, np.array([1.0, 0.2]), 1), k=1)
    out = dual_solve(ds, np.array([1.0, 0.0]))  # needs X^T u = [-1, 0]
    assert out.status == certify.DUAL_INFEASIBLE


def test_r1_singleton_fraction_examples():
    ds, w_star = two_by_two()
    sets = active_sets(ds.x, w_star, 2)
    assert r1_singleton_fraction(sets) == 1.0

    pm, big = sample_planted(4000, 4, 1, 77)
    frac = r1_singleton_fraction(active_sets(big.x, pm.w_star, 1))
    assert 0.47 <= frac <= 0.53  # half the samples activate their block

    # independently recomputed by brute force
    brute = np.mean([len(r) == 1 for r in active_sets(big.x, pm.w_star, 1).r_sets])
    assert frac == pytest.approx(float(brute))


def test_r1_singleton_fraction_matches_binomial_law():
    # each block activates independently with probability 1/2, so the
    # exactly-one-active fraction concentrates at k/2^k (3/8 for k=3);
    # 99% binomial band for n = 8000
    pm, ds = sample_planted(8000, 9, 3, 99)
    frac = r1_singleton_fraction(active_sets(ds.x, pm.w_star, 3))
    p = 3 / 8
    half_width = 2.58 * np.sqrt(p * (1 - p) / 8000)
    assert abs(frac - p) <= half_width
