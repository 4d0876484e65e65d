import math

import numpy as np
import pytest

from netequil import lambert_w, lambert_w_exp


def bisect_w(x, lo=-1.0, hi=12.0, iters=200):
    """Independent reference: bisect w*exp(w) = x on [lo, hi]."""
    f = lambda w: w * math.exp(w) - x
    assert f(lo) <= 0 <= f(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_fixed_points():
    assert lambert_w(0.0) == 0.0
    assert abs(lambert_w(math.e) - 1.0) <= 1e-15


def test_w_of_one_against_bisection():
    assert abs(lambert_w(1.0) - bisect_w(1.0)) <= 1e-13
    # frozen from the bisection oracle
    assert lambert_w(1.0) == pytest.approx(0.5671432904097838, abs=1e-13)


def test_agrees_with_bisection_across_regimes():
    for x in [-0.367, -0.3, -0.05, 0.2, 0.9, 1.1, 5.0, 100.0, 1e4]:
        w = lambert_w(x)
        assert abs(w - bisect_w(x)) <= 1e-12 * (1.0 + abs(w))


def test_identity_on_grid():
    # offsets from the branch point, log-spaced out to 1e6
    xs = -math.exp(-1.0) + np.geomspace(1e-9, 1e6 + math.exp(-1.0), 3000)
    for x in xs:
        w = lambert_w(float(x))
        assert w >= -1.0
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))


def test_domain_error_below_branch_point():
    with pytest.raises(ValueError, match="below -1/e"):
        lambert_w(-0.5)
    with pytest.raises(ValueError):
        lambert_w(float("nan"))


def test_branch_point_value():
    assert lambert_w(-math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-7)


def test_w_exp_matches_direct_evaluation_below_switch():
    for z in [-700.0, -5.0, 0.0, 3.0, 100.0, 480.0]:
        assert lambert_w_exp(z) == pytest.approx(lambert_w(math.exp(z)), rel=1e-14)


def test_w_exp_asymptotic_branch_identity():
    for z in [500.0, 600.0, 1e4, 1e8]:
        w = lambert_w_exp(z)
        assert abs(w + math.log(w) - z) <= 1e-12 * max(1.0, abs(z))


def test_w_exp_continuous_at_switch():
    z = 700.0 * math.log(2.0)
    below = lambert_w_exp(z * (1 - 1e-12))
    above = lambert_w_exp(z * (1 + 1e-12))
    assert below == pytest.approx(above, rel=1e-9)


def test_arrays_match_scalar_calls_bitwise():
    rng = np.random.default_rng(17)
    xs = np.concatenate(
        [
            -math.exp(-1.0) + np.geomspace(1e-12, 0.2, 200),  # near the branch point
            rng.uniform(-0.25, 1.0, 200),
            10.0 ** rng.uniform(0, 300, 200),
            [-math.exp(-1.0), 0.0, math.e, 1.0],
        ]
    )
    batch = lambert_w(xs)
    assert batch.shape == xs.shape
    assert np.array_equal(batch, [lambert_w(float(x)) for x in xs])
    assert np.array_equal(lambert_w(xs[::-1].reshape(-1, 4)).ravel(), batch[::-1])


def test_w_exp_arrays_match_scalar_calls_bitwise_on_both_sides_of_switch():
    rng = np.random.default_rng(19)
    switch = 700.0 * math.log(2.0)
    zs = np.concatenate(
        [
            rng.uniform(-700.0, switch, 300),
            switch + 10.0 ** rng.uniform(-12, 8, 300),
            [switch, -np.inf],
        ]
    )
    rng.shuffle(zs)
    batch = lambert_w_exp(zs)
    assert np.array_equal(batch, [lambert_w_exp(float(z)) for z in zs])
    # an element's result does not depend on which elements share its call
    assert np.array_equal(lambert_w_exp(zs[:7]), batch[:7])
    w = batch[np.isfinite(zs)]
    z = zs[np.isfinite(zs)]
    assert np.all(np.abs(w + np.log(w) - z) <= 1e-12 * np.maximum(1.0, np.abs(z)))


def test_w_exp_start_near_the_root_is_used_and_any_other_ignored():
    rng = np.random.default_rng(23)
    switch = 700.0 * math.log(2.0)
    zs = np.concatenate([rng.uniform(-700.0, switch, 400), switch + 10.0 ** rng.uniform(-3, 6, 100)])
    cold = lambert_w_exp(zs)
    for far in (cold * 10.0, cold / 10.0, -cold, np.zeros_like(cold), np.full_like(cold, np.nan)):
        assert np.array_equal(lambert_w_exp(zs, far), cold)
    for near in (cold, cold * (1.0 + 1e-3), cold * (1.0 - 1e-3)):
        np.testing.assert_allclose(lambert_w_exp(zs, near), cold, rtol=1e-15)
    # the scalar call is the size-1 case
    assert lambert_w_exp(1.0, 1.03) == pytest.approx(lambert_w(math.e), rel=1e-15)


def test_array_with_one_bad_element_raises():
    with pytest.raises(ValueError, match="below -1/e"):
        lambert_w(np.array([0.0, 1.0, -0.5]))
