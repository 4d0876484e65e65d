import decimal
import math

import numpy as np
import pytest

from netequil import NumericalFailure, lambert_w_exp
from netequil import lambertw
from netequil.lambertw import _halley


def test_w_exp_matches_a_decimal_reference_below_switch():
    for z in [-700.0, -5.0, 0.0, 3.0, 100.0, 480.0]:
        assert lambert_w_exp(z) == pytest.approx(reference_w_exp(z), rel=1e-14)


def test_w_exp_asymptotic_branch_identity():
    for z in [500.0, 600.0, 1e4, 1e8]:
        w = lambert_w_exp(z)
        assert abs(w + math.log(w) - z) <= 1e-12 * max(1.0, abs(z))


def test_w_exp_continuous_at_switch():
    z = 700.0 * math.log(2.0)
    below = lambert_w_exp(z * (1 - 1e-12))
    above = lambert_w_exp(z * (1 + 1e-12))
    assert below == pytest.approx(above, rel=1e-9)


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
    cold, cold_passes = halley_passes(zs)
    for far in (cold * 10.0, cold / 10.0, -cold, np.zeros_like(cold), np.full_like(cold, np.nan)):
        w, passes = halley_passes(zs, far)
        assert np.array_equal(w, cold) and passes <= cold_passes + 1
    for near in (cold, cold * (1.0 + 1e-3), cold * (1.0 - 1e-3)):
        np.testing.assert_allclose(lambert_w_exp(zs, near), cold, rtol=1e-15)
    # the scalar call is the size-1 case
    assert lambert_w_exp(1.0, 1.03) == pytest.approx(1.0, rel=1e-15)  # W(e) = 1


def test_halley_raises_when_it_does_not_converge():
    # from w0 = 500 Halley moves w by about 2 per pass toward W(e^50) = 46.17
    with pytest.raises(NumericalFailure, match="did not converge"):
        _halley(np.array([math.exp(50.0)]), np.array([500.0]))
    # the same argument from Winitzki's start converges
    x = np.array([math.exp(50.0)])
    assert _halley(x, lambertw._winitzki(x))[0] == pytest.approx(lambert_w_exp(50.0), rel=1e-15)


def test_halley_on_an_empty_batch():
    assert _halley(np.array([]), np.array([])).size == 0
    assert np.array_equal(lambert_w_exp(np.array([600.0, 1e4])), [lambert_w_exp(600.0), lambert_w_exp(1e4)])


@pytest.mark.parametrize(
    "z", [math.inf, math.nan, np.array([1.0, math.nan, 800.0]), np.array([math.inf, 3.0])]
)
def test_w_exp_rejects_non_finite_arguments(z):
    with pytest.raises(NumericalFailure, match="non-finite argument"):
        lambert_w_exp(z)


def test_w_exp_of_minus_infinity_is_zero():
    assert lambert_w_exp(-math.inf) == 0.0


def test_w_exp_raises_when_its_newton_iteration_does_not_converge(monkeypatch):
    # beyond z ~ 1e154 the product in the Newton step overflows; dividing
    # first there, the iteration still reaches the root of w + log(w) = z
    zs = [1e155, 1e200, 1e300, 1.7e308]
    for z in zs:
        w = lambert_w_exp(z)
        assert w == z and w + math.log(w) == z
    assert np.array_equal(lambert_w_exp(np.array(zs)), zs)
    # from w0 = z - log(z), one pass does not converge
    monkeypatch.setattr(lambertw, "_MAX_ITER", 1)
    with pytest.raises(NumericalFailure, match="Newton iteration did not converge"):
        lambert_w_exp(np.array([600.0, 1e4]))


def test_w_exp_large_arguments_keep_their_bits():
    # values of the Newton branch as it was before it checked convergence
    frozen = {
        486.0: "0x1.dfd39a6fb9eb3p+8",
        1e3: "0x1.f08cb195d4562p+9",
        1e5: "0x1.86947cb876529p+16",
        1e10: "0x1.2a05f1f47cb0fp+33",
        1e100: "0x1.249ad2594c37dp+332",
        1e154: "0x1.7dddf6b095ff1p+511",
    }
    got = lambert_w_exp(np.array(list(frozen)))
    assert [float(w).hex() for w in got] == list(frozen.values())


class CountingNumpy:
    """numpy with its exp calls counted: lambert_w_exp takes one for exp(z)
    and one per Halley pass."""

    def __init__(self):
        self.exp_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, *args, **kwargs):
        self.exp_calls += 1
        return np.exp(*args, **kwargs)


def halley_passes(z, start=None):
    """(lambert_w_exp(z, start), the Halley passes it took); the Newton branch
    beyond the switch takes no exp."""
    counter = CountingNumpy()
    lambertw.np = counter
    try:
        w = lambert_w_exp(z, start)
    finally:
        lambertw.np = np
    return w, counter.exp_calls - 1


def reference_w_exp(z):
    """Independent reference: w + log(w) = z by Newton in 50-digit decimals."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        zd = decimal.Decimal(float(z))
        # from below the root: Newton on this concave, increasing equation stays below it
        w = zd - zd.ln() if z > 2.0 else zd.exp() / (1 + zd.exp())
        for _ in range(100):
            step = (w + w.ln() - zd) / (1 + 1 / w)
            w -= step
            if abs(step) <= w * decimal.Decimal("1e-40"):
                return float(w)
    raise AssertionError(f"reference did not converge at z = {z!r}")


def within_ulps(got, want, ulps):
    return all(abs(g - r) <= ulps * math.ulp(r) for g, r in zip(got.tolist(), want))


# below the switch W(exp(z)) stays under 480
SWITCH = 700.0 * math.log(2.0)


def test_w_exp_cold_and_warm_within_four_ulp_of_a_decimal_reference():
    rng = np.random.default_rng(29)
    zs = np.concatenate([rng.uniform(-700.0, 480.0, 300), [-700.0, -1e-9, 0.0, 1.0, 30.0, 480.0]])
    ref = [reference_w_exp(z) for z in zs]
    root = np.array(ref)
    assert within_ulps(lambert_w_exp(zs), ref, 4)
    for off in (1e-2, 1e-3, 1e-6):
        for sign in (1.0, -1.0):
            assert within_ulps(lambert_w_exp(zs, root * (1.0 + sign * off)), ref, 4), (off, sign)


def test_w_exp_from_near_starts_takes_at_most_two_halley_passes():
    # a start 1e-3 off leaves an error of K * (1e-3 * w)**3 after one pass,
    # which the second pass's step accepts while it is within the radius
    # cbrt(eps/8 * w), up to W of about 50; beyond, 1e-3 of w is a large
    # absolute error and a third pass follows.  The 1e-15 test took three
    zs = np.random.default_rng(31).uniform(-700.0, 30.0, 2000)
    cold = lambert_w_exp(zs)
    for start in (cold * (1.0 + 1e-3), cold * (1.0 - 1e-3), cold * (1.0 + 1e-6)):
        w, passes = halley_passes(zs, start)
        assert passes <= 2
        np.testing.assert_allclose(w, cold, rtol=1e-15)
    # from the root itself one pass moves w by rounding at most
    w, passes = halley_passes(zs, cold)
    assert passes == 1
    np.testing.assert_allclose(w, cold, rtol=1e-15)


def test_w_exp_from_a_start_a_millionth_off_stops_after_one_halley_pass():
    # the first step moves w by its error e, within the radius
    # cbrt(eps/8 * w) while (1e-6 * w)**3 <= eps/8 * w, that is up to W of
    # about 5.3, and (1e-7 * w)**3 up to W of about 167
    for off, top in ((1e-6, 5.0), (1e-7, 30.0)):
        w = np.geomspace(1e-3, top, 500)
        zs = w + np.log(w)
        cold = lambert_w_exp(zs)
        np.testing.assert_allclose(cold, w, rtol=1e-15)
        for sign in (1.0, -1.0):
            got, passes = halley_passes(zs, cold * (1.0 + sign * off))
            assert passes == 1, (off, sign)
            np.testing.assert_allclose(got, cold, rtol=1e-15)
    # one step from 1e-6 off at W = 30 leaves an error K*e**3 of about
    # 2.4e-15, beyond half an ulp of 30 (1.8e-15): it must not stop there
    z = np.array([30.0 + math.log(30.0)])
    got, passes = halley_passes(z, lambert_w_exp(z) * (1.0 + 1e-6))
    assert passes == 2 and got[0] == pytest.approx(30.0, rel=1e-15)


def test_w_exp_warm_results_for_tiny_w_match_the_cold_ones():
    # below w of about 3e-6 the stop radius is 2**-6 * w, not the cubic
    # radius: without that guard a step several times larger than W passed,
    # and warm results near W = 1e-10 drifted 1.5e-15 from the cold ones
    zs = np.random.default_rng(43).uniform(-700.0, -20.0, 2000)
    cold = lambert_w_exp(zs)
    assert cold.max() < 1e-8
    starts = [cold * (1.0 + 1e-3), cold * (1.0 - 1e-3), cold * (1.0 + 1e-6)]
    starts += [lambert_w_exp(zs + shift) for shift in (-1.99, 1.99)]
    for start in starts:
        np.testing.assert_allclose(lambert_w_exp(zs, start), cold, rtol=1e-15)


def test_w_exp_takes_every_start_within_the_span_and_converges_from_it(monkeypatch):
    # |w + log(w) - z| <= 2: w*exp(w) within a factor exp(2) of exp(z)
    zs = np.random.default_rng(41).uniform(-700.0, SWITCH - 2.0, 2000)
    cold = lambert_w_exp(zs)
    calls = []
    winitzki = lambertw._winitzki
    monkeypatch.setattr(lambertw, "_winitzki", lambda x: calls.append(x.size) or winitzki(x))
    for shift in (-1.99, 1.99):
        start = lambert_w_exp(zs + shift)
        calls.clear()
        w, passes = halley_passes(zs, start)
        assert calls == [] and passes <= 4
        np.testing.assert_allclose(w, cold, rtol=1e-15)
    # only the far elements evaluate Winitzki's approximation, and return their cold result
    far = np.arange(zs.size) % 4 == 0
    w = lambert_w_exp(zs, cold * np.where(far, 10.0, 1.0))
    assert calls == [500]
    assert np.array_equal(w[far], cold[far])
    np.testing.assert_allclose(w, cold, rtol=1e-15)


def test_w_exp_rejects_a_start_of_another_shape():
    with pytest.raises(ValueError, match=r"start has shape \(1,\), z has shape \(3,\)"):
        lambert_w_exp(np.array([0.0, 1.0, 2.0]), np.array([0.5]))
    with pytest.raises(ValueError, match=r"start has shape \(2,\), z has shape \(3,\)"):
        lambert_w_exp(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.7]))
    with pytest.raises(ValueError, match=r"start has shape \(1,\), z has shape \(\)"):
        lambert_w_exp(1.0, [1.0])
    zs = np.linspace(-5.0, 5.0, 6)
    start = lambert_w_exp(zs) * (1.0 + 1e-3)
    assert np.array_equal(lambert_w_exp(zs.reshape(2, 3), start.reshape(2, 3)).ravel(), lambert_w_exp(zs, start))
