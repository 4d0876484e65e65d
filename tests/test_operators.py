import decimal
import math
import warnings
import zlib

import numpy as np
import pytest

from netequil import (
    BPR,
    TRC,
    AffinePhi,
    ArcOperator,
    Box,
    ConfigurationError,
    CustomPhi,
    FixedSupply,
    IntervalProx,
    Logarithmic,
    Network,
    NumericalFailure,
    OperatorSet,
    PowerExp,
    PowerPhi,
    QuadraticPhi,
    RandomSweep,
    RoundRobin,
    SeparableLift,
    SolverConfig,
    SolverState,
    Termination,
    new_workspace,
    run,
    step,
    wardrop_residual,
)

from netequil import lambertw, operators, solver
from conftest import random_network, weak_components

# ---------------------------------------------------------------------------
# random draws per family; the evaluation point is kept inside the window
# where the resolvent identity can be checked in double precision
# ---------------------------------------------------------------------------


def draw_bpr(rng):
    spec = BPR(
        alpha=10.0 ** rng.uniform(-1, 1),
        rho=10.0 ** rng.uniform(-1, 1),
        theta=10.0 ** rng.uniform(-1, 1),
        p=rng.uniform(0.3, 4.0),
    )
    gamma = 10.0 ** rng.uniform(-2, 1)
    return spec, gamma, rng.uniform(-40.0, 40.0)


def draw_log(rng):
    spec = Logarithmic(omega=10.0 ** rng.uniform(-1, 1), theta=rng.uniform(0.0, 3.0))
    gamma = 10.0 ** rng.uniform(-2, 1)
    # beyond omega + gamma*(theta + ~15) the output is within an ulp of omega
    # and c(J(xi)) is no longer evaluable in doubles
    xi = spec.omega + gamma * (spec.theta - rng.uniform(-15.0, 40.0))
    return spec, gamma, xi


def draw_trc(rng):
    spec = TRC(*(10.0 ** rng.uniform(-1, 1, size=4)))
    gamma = 10.0 ** rng.uniform(-2, 1)
    return spec, gamma, rng.uniform(-40.0, 40.0)


def draw_powerexp(rng):
    spec = PowerExp(
        alpha=1.0 + 10.0 ** rng.uniform(-1, 1),
        theta=10.0 ** rng.uniform(-1, 1),
        p=rng.uniform(0.2, 2.0),
    )
    gamma = 10.0 ** rng.uniform(-2, 1)
    return spec, gamma, rng.uniform(-40.0, 40.0)


DRAWS = {"bpr": draw_bpr, "log": draw_log, "trc": draw_trc, "powerexp": draw_powerexp}


def identity_error(spec, gamma, xi):
    s = spec.resolvent(gamma, xi)
    c = spec.value(s)
    assert c is not None, f"resolvent output {s} left the domain of {spec}"
    return abs(s + gamma * c - xi) / max(1.0, abs(xi))


@pytest.mark.parametrize("family", sorted(DRAWS))
def test_resolvent_identity(family):
    rng = np.random.default_rng(zlib.crc32(family.encode()))
    worst = max(identity_error(*DRAWS[family](rng)) for _ in range(1000))
    assert worst <= 1e-8


@pytest.mark.parametrize("family", sorted(DRAWS))
def test_resolvents_nondecreasing_and_nonexpansive(family):
    rng = np.random.default_rng(1234)
    for _ in range(300):
        spec, gamma, xi1 = DRAWS[family](rng)
        xi2 = xi1 + abs(rng.standard_normal())
        s1 = spec.resolvent(gamma, xi1)
        s2 = spec.resolvent(gamma, xi2)
        assert -1e-12 <= s2 - s1 <= (xi2 - xi1) + 1e-9 * max(1.0, abs(xi1))


class TestBPR:
    def test_below_kink_is_pure_shift(self):
        # gamma*theta = 2 > xi = 1, independent of the congestion parameters
        for alpha, rho, p in [(1.0, 1.0, 1.0), (3.0, 0.5, 4.0), (0.2, 7.0, 0.5)]:
            spec = BPR(alpha=alpha, rho=rho, theta=2.0, p=p)
            assert spec.resolvent(1.0, 1.0) == -1.0

    def test_linear_case_solved_exactly(self):
        # p = 1 collapses the root equation to 2s = xi - 1, so J(3) = 1
        spec = BPR(alpha=1.0, rho=1.0, theta=1.0, p=1.0)
        assert spec.resolvent(1.0, 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_boundary_point_goes_to_root_branch(self):
        spec = BPR(alpha=2.0, rho=1.0, theta=1.5, p=2.0)
        assert spec.resolvent(1.0, 1.5) == 0.0

    def test_steep_fractional_power(self):
        spec = BPR(alpha=10.0, rho=0.1, theta=10.0, p=0.25)
        assert identity_error(spec, 10.0, 50.0) <= 1e-8

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError, match="alpha > 0"):
            BPR(alpha=-1.0, rho=1.0, theta=1.0, p=1.0)
        with pytest.raises(ConfigurationError, match="p > 0"):
            BPR(alpha=1.0, rho=1.0, theta=1.0, p=0.0)


class TestLogarithmic:
    def test_example_value(self):
        # omega=1, theta=0, gamma=1, xi=1 -> 1 - W(1), W(1) from the bisection oracle
        spec = Logarithmic(omega=1.0, theta=0.0)
        assert spec.resolvent(1.0, 1.0) == pytest.approx(
            0.4328567095902162, abs=1e-13
        )

    def test_output_strictly_below_omega(self):
        spec = Logarithmic(omega=1.0, theta=0.0)
        for xi in [-10.0, 0.0, 0.999, 1.0, 2.0, 1e3, 1e6]:
            assert spec.resolvent(1.0, xi) < spec.omega

    def test_huge_argument_routes_through_asymptotic_w(self):
        spec = Logarithmic(omega=1.0, theta=0.0)
        s = spec.resolvent(1.0, -2000.0)  # exp(~2001) would overflow
        assert math.isfinite(s)
        assert abs(s + spec.value(s) - (-2000.0)) <= 1e-9 * 2000.0

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError, match="omega > 0"):
            Logarithmic(omega=0.0, theta=1.0)
        with pytest.raises(ConfigurationError, match="theta >= 0"):
            Logarithmic(omega=1.0, theta=-0.5)


def decimal_log_root(spec, gamma, xi, start):
    """The Logarithmic resolvent in 50-digit decimals, rounded once.

    Newton on F(s) = s + gamma*(theta - log(1 - s/omega)) - xi, which is
    convex and increasing, from `start` when it lies below omega.  If an
    iterate reaches omega, Newton restarts from a point where F >= 0, from
    which it decreases monotonically to the root: max(xi - gamma*theta, 0)
    or, if less, a point so close to omega that the log dominates.  A root
    within the 50-digit rounding of omega is returned as omega.
    """
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        w, t, g, x = D(spec.omega), D(spec.theta), D(gamma), D(xi)

        def newton(s):
            for _ in range(400):
                if s >= w:
                    return None
                d = w - s
                step = (s + g * (t - (d / w).ln()) - x) / (1 + g / d)
                s -= step
                if step == 0 or abs(step) <= abs(s) * D("1e-45"):
                    return s
            raise RuntimeError("decimal Newton did not converge")

        s = newton(D(start)) if start < spec.omega else None
        if s is None:
            pole = w * (-(abs(x) + g * t + w) / g - 1).exp()
            s = newton(min(max(x - g * t, D(0)), w - pole))
        return float(w if s is None else s)


def test_a_logarithmic_root_far_below_omega_keeps_its_digits():
    # omega - gamma*W cancels when the root is small against omega
    rng = np.random.default_rng(20261019)
    errors = []
    for _ in range(1500):
        omega, theta, gamma = 10.0 ** rng.uniform([-3, -3, -3], [8, 3, 3])
        xi = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 5))
        spec = Logarithmic(omega, theta)
        s = spec.resolvent(gamma, xi)
        root = decimal_log_root(spec, gamma, xi, s)
        if omega - root >= 1e-3 * omega:  # off the pole
            errors.append(abs(s - root) / abs(root))
    assert len(errors) > 1200
    assert max(errors) <= 1e-12


@pytest.mark.parametrize(
    "omega, theta, gamma, xi",
    [
        (1e16, 2.0, 0.5, 0.0),  # omega - gamma*W gave -2.0 for the root -1
        (1e17, 2.0, 0.5, 0.0),  # and 0.0 from here on
        (1e100, 2.0, 0.5, 0.0),
        (1e300, 2.0, 0.5, 0.0),
        (4.06e32, 0.372, 1.583, -2.521),
        # the W form gives 2.9e17 and -9.0e15 here, off by more than the
        # root, where the Newton step s - F/F' would give 0.0 and -2.0
        (1.49e33, 0.622, 0.74, 0.114),
        (7.54e31, 0.129, 0.927, -2.229),
    ],
)
def test_a_logarithmic_root_near_zero_under_a_large_omega(omega, theta, gamma, xi):
    spec = Logarithmic(omega, theta)
    s = spec.resolvent(gamma, xi)
    assert s == pytest.approx(decimal_log_root(spec, gamma, xi, s), rel=1e-15, abs=0.0)
    assert abs(s + gamma * spec.value(s) - xi) <= 1e-15 * max(1.0, abs(xi))


def test_a_logarithmic_omega_whose_w_argument_overflows_fails_by_name():
    with pytest.raises(NumericalFailure, match="non-finite argument"):
        Logarithmic(1e308, 2.0).resolvent(0.5, 0.0)


def invert_capacity(spec, gamma, xi, lo=-1e6, hi=1e6, iters=300):
    """Safeguarded bisection on the monotone map s + gamma*c(s) - xi."""
    f = lambda s: s + gamma * spec.value(s) - xi
    assert f(lo) < 0 < f(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestTRC:
    def test_closed_form_matches_numeric_inversion(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            spec, gamma, xi = draw_trc(rng)
            closed = spec.resolvent(gamma, xi)
            assert abs(closed - invert_capacity(spec, gamma, xi)) <= 1e-10 * max(
                1.0, abs(closed)
            )

    def test_specific_point_against_inversion(self):
        spec = TRC(alpha=1.0, beta=1.0, delta=1.0, omega=1e-9)
        closed = spec.resolvent(1.0, 0.0)
        assert abs(closed - invert_capacity(spec, 1.0, 0.0)) <= 1e-10

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError, match="beta > 0"):
            TRC(alpha=1.0, beta=0.0, delta=1.0, omega=1.0)


def decimal_trc_root(spec, gamma, xi):
    """The TRC resolvent in 50-digit decimals, rounded once.

    Starts from the smaller root (a - root)/den of the quadratic that the
    resolvent equation squares to, which 50 digits hold even where it
    cancels, then takes Newton steps on the equation itself,
    F(s) = s + gamma*(delta + alpha*d + sqrt(alpha**2*d**2 + beta)) - xi
    with d = s - omega, until a step moves s by at most 1e-30 of it.
    """
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a, b, t, w, g, x = map(D, (spec.alpha, spec.beta, spec.delta, spec.omega, gamma, xi))
        m, ga = x - g * t, g * a
        den = 2 * ga + 1
        s = (m + ga * (m + w) - (ga * ga * (m - w) ** 2 + den * g * g * b).sqrt()) / den
        for _ in range(100):
            d = s - w
            r = (a * a * d * d + b).sqrt()
            step = (s + g * (t + a * d + r) - x) / (1 + g * a * (1 + a * d / r))
            s -= step
            if abs(step) <= abs(s) * D("1e-30"):
                return float(s)
        raise RuntimeError("decimal Newton did not converge")


def test_a_trc_root_small_against_its_terms_keeps_its_digits():
    # a - root cancels where the root is small against omega
    rng = np.random.default_rng(20261020)
    errors = []
    for _ in range(3000):
        alpha, beta, delta, omega, gamma = 10.0 ** rng.uniform(-3, 3, 5)
        xi = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 5))
        spec = TRC(alpha, beta, delta, omega)
        root = decimal_trc_root(spec, gamma, xi)
        errors.append(abs(spec.resolvent(gamma, xi) - root) / abs(root))
    assert max(errors) <= 1e-12


def test_a_trc_root_far_below_omega_matches_its_50_digit_root():
    # the cancelling form gave 0.016879206652765603, 6.0e-12 off
    spec = TRC(
        alpha=407.1613682452466, beta=348.38504870150666, delta=0.09206591630978468, omega=857.3657961264771
    )
    gamma, xi = 0.013367483029094742, 0.01811656667442454
    s = spec.resolvent(gamma, xi)
    assert s == pytest.approx(decimal_trc_root(spec, gamma, xi), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("size", [1e150, 1e154, 1e155, 1e156, 1e200, 1e250, 1e300, 1e306, 1e307, 1e308, 1.7976931348623157e308])
def test_a_trc_root_at_a_huge_xi_matches_its_50_digit_root(sign, size):
    # the squares in root and the product m*m overflowed beyond |xi| of
    # about 1e154 (nan above, -inf below), though both roots are finite:
    # about xi/3 above and xi - gamma*delta below; a = m + gamma*alpha*(m +
    # omega) overflowed in the last decade of the float range (0.0 at 1e308)
    xi = sign * size
    for spec, gamma in (
        (TRC(1.0, 1.0, 1.0, 1.0), 1.0),
        (TRC(0.3, 2.0, 5.0, 7.0), 0.25),
        (TRC(1.0, 2.0, 3.0, 4.0), 0.5),
        (TRC(50.0, 2.0, 3.0, 4.0), 20.0),
    ):
        s = spec.resolvent(gamma, xi)
        assert s == pytest.approx(decimal_trc_root(spec, gamma, xi), rel=1e-15, abs=0.0)
    assert TRC(1.0, 1.0, 1.0, 1.0).resolvent(1.0, xi) == pytest.approx(xi / 3.0 if sign > 0 else xi - 1.0, rel=1e-15)


class TestPowerExp:
    def test_vanishing_operator_limit(self):
        spec = PowerExp(alpha=2.0, theta=1e-12, p=1.0)
        for xi in [-5.0, 0.0, 5.0]:
            assert abs(spec.resolvent(1.0, xi) - xi) <= 1e-8

    def test_huge_exponent_stays_finite(self):
        spec = PowerExp(alpha=10.0, theta=1.0, p=1.0)
        s = spec.resolvent(1.0, 500.0)  # 10**500 would overflow
        assert math.isfinite(s)
        assert abs(s + spec.value(s) - 500.0) <= 1e-9 * 500.0

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError, match="alpha > 1"):
            PowerExp(alpha=1.0, theta=1.0, p=1.0)


def decimal_powerexp_root(spec, gamma, xi):
    """The PowerExp resolvent in 50-digit decimals, rounded once, for xi > gamma*theta.

    Newton on F(s) = s + gamma*theta*exp(a*s) - xi, a = p*log(alpha), from
    log(xi/(gamma*theta))/a, where F > 0: F is convex and increasing, so
    the steps fall monotonically to the root.
    """
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a = D(spec.p) * D(spec.alpha).ln()
        gt, x = D(gamma) * D(spec.theta), D(xi)
        s = (x / gt).ln() / a
        for _ in range(200):
            e = gt * (a * s).exp()
            step = (s + e - x) / (1 + a * e)
            s -= step
            if abs(step) <= abs(s) * D("1e-40"):
                return float(s)
        raise RuntimeError("decimal Newton did not converge")


@pytest.mark.parametrize("xi", [3.0, 50.0, 1e5, 1e10, 1e17, 1e20, 1e100, 1e300, 1.7976931348623157e308])
def test_a_powerexp_root_at_a_large_xi_matches_its_50_digit_root(xi):
    # s = xi - W/a cancelled: 68.43856239318848 at 1e10, 128.0 at 1e17 and
    # 0.0 from 1e20 on; s = (log W - log(gamma*theta*a))/a does not
    specs = [(PowerExp(2.0, 1.0, 0.5), 0.5), (PowerExp(1.5, 1e-3, 2.0), 3.0), (PowerExp(50.0, 20.0, 0.1), 0.01)]
    for spec, gamma in specs:
        assert spec.resolvent(gamma, xi) == pytest.approx(decimal_powerexp_root(spec, gamma, xi), rel=1e-14, abs=0.0)
    # the size-1 calls are the batch's elements, bitwise
    kernel, params = zip(*(spec.family() for spec, _ in specs))
    batch = kernel[0](np.array([g for _, g in specs]), np.full(len(specs), xi), *operators._table(params))
    assert batch.tolist() == [spec.resolvent(gamma, xi) for spec, gamma in specs]


class TestIntervalProx:
    def test_pure_projection(self):
        spec = IntervalProx(AffinePhi(a=0.0), lo=0.0, hi=math.inf)
        assert spec.resolvent(1.0, -2.0) == 0.0

    def test_affine_shift(self):
        spec = IntervalProx(AffinePhi(a=1.0), lo=-math.inf, hi=math.inf)
        out = spec.resolvent(1.0, 5.0)
        assert out == 4.0
        assert out + 1.0 * 1.0 == 5.0  # identity: s + gamma*phi'(s) = xi

    def test_quadratic_then_clamp(self):
        # prox of 0.5*s^2 at 4 gives 2; the interval [0, 1] clamps to 1
        spec = IntervalProx(QuadraticPhi(a=1.0), lo=0.0, hi=1.0)
        assert spec.resolvent(1.0, 4.0) == 1.0

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
    def test_power_prox_stationarity(self, q):
        # inside the interval the output obeys s + gamma*phi'(s) = xi
        rng = np.random.default_rng(int(10 * q))
        spec = IntervalProx(PowerPhi(q), lo=-100.0, hi=100.0)
        for _ in range(200):
            gamma = 10.0 ** rng.uniform(-2, 1)
            xi = rng.uniform(-20, 20)
            s = spec.resolvent(gamma, xi)
            g_lo, g_hi = spec.subdiff(s)
            resid = (xi - s) / gamma
            assert g_lo - 1e-9 <= resid <= g_hi + 1e-9

    def test_unsupported_power_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="q in"):
            PowerPhi(3.0)

    def test_empty_interval_rejected(self):
        with pytest.raises(ConfigurationError, match="lo <= hi"):
            IntervalProx(AffinePhi(a=0.0), lo=2.0, hi=1.0)

    @pytest.mark.parametrize(
        "lo, hi", [(math.inf, math.inf), (-math.inf, -math.inf), (math.nan, 1.0), (0.0, math.nan)]
    )
    def test_interval_without_a_real_point_rejected(self, lo, hi):
        # lo = inf used to construct, and its resolvent returned inf
        with pytest.raises(ConfigurationError, match="lo < inf and hi > -inf"):
            IntervalProx(AffinePhi(a=1.0), lo=lo, hi=hi)

    def test_affine_phi_takes_the_slope_only(self):
        # no resolvent or subdifferential read an intercept
        assert AffinePhi(2.0).subdiff(5.0) == (2.0, 2.0)
        with pytest.raises(TypeError):
            AffinePhi(1.0, 0.0)

    def test_custom_phi_callback(self):
        spec = IntervalProx(
            CustomPhi(lambda gamma, xi: xi - gamma, lambda s: (1.0, 1.0)), lo=0.0, hi=math.inf
        )
        assert spec.resolvent(2.0, 5.0) == 3.0
        assert spec.resolvent(2.0, 1.0) == 0.0

    def test_value_is_the_one_subgradient_and_none_for_a_set_or_outside(self):
        spec = IntervalProx(AffinePhi(a=2.0), lo=0.0, hi=5.0)
        assert spec.value(1.0) == 2.0
        assert spec.value(0.0) is None  # the bound's normal cone adds (-inf, 2]
        assert spec.value(6.0) is None
        assert IntervalProx(PowerPhi(1.0), lo=-1.0, hi=1.0).value(0.0) is None  # |s| at its kink

    def test_subdiff_is_none_where_the_phi_subdifferential_is(self):
        phi = CustomPhi(lambda gamma, xi: xi, lambda s: None if s < 0.0 else (1.0, 1.0))
        spec = IntervalProx(phi, lo=-1.0, hi=1.0)
        assert spec.subdiff(-0.5) is None and spec.value(-0.5) is None
        assert spec.subdiff(0.5) == (1.0, 1.0)

    def test_custom_phi_requires_a_subdifferential(self):
        # without one the equilibrium check that ends a run could never pass
        with pytest.raises(TypeError):
            CustomPhi(lambda gamma, xi: xi)
        with pytest.raises(ConfigurationError, match="subdiff_fn"):
            CustomPhi(lambda gamma, xi: xi, None)

    def test_phi_without_subdiff_rejected(self):
        class ProxOnly:
            def prox(self, gamma, xi):
                return xi

        with pytest.raises(ConfigurationError, match="IntervalProx phi"):
            IntervalProx(ProxOnly())

    def test_duck_typed_phi_rejected(self):
        # only the four phi classes have a prox kernel; wrap any other phi in CustomPhi
        class Duck:
            def prox(self, gamma, xi):
                return xi

            def subdiff(self, s):
                return (0.0, 0.0)

        with pytest.raises(ConfigurationError, match="IntervalProx phi"):
            IntervalProx(Duck())


class TestSeparableLift:
    def test_single_commodity_reduces_to_scalar(self):
        # eta = J(xi) - xi, so the output xi + eta equals J(xi) up to one rounding
        spec = BPR(alpha=1.0, rho=1.0, theta=1.0, p=2.0)
        lift = SeparableLift(spec)
        for xi in [-3.0, 0.5, 7.0]:
            out = lift.resolvent(0.7, np.array([xi]))
            assert out[0] == pytest.approx(spec.resolvent(0.7, xi), rel=4e-16, abs=0)

    def test_uniform_shift_and_total(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            spec, gamma, _ = DRAWS[rng.choice(sorted(DRAWS))](rng)
            lift = SeparableLift(spec)
            n = int(rng.integers(1, 6))
            x = rng.standard_normal(n) * 3.0
            out = lift.resolvent(gamma, x)
            total = float(np.sum(x))
            eta = (spec.resolvent(n * gamma, total) - total) / n
            # the same scalar shift is applied to every coordinate
            assert np.array_equal(out, x + eta)
            assert abs(float(np.sum(out)) - spec.resolvent(n * gamma, total)) <= 1e-10 * max(
                1.0, abs(total)
            )

    def test_pairwise_differences_preserved_to_rounding(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            spec, gamma, _ = draw_trc(rng)
            x = rng.standard_normal(4)
            out = SeparableLift(spec).resolvent(gamma, x)
            diff_out = out[:, None] - out[None, :]
            diff_in = x[:, None] - x[None, :]
            scale = np.abs(out).max() + np.abs(x).max()
            assert np.abs(diff_out - diff_in).max() <= 4 * np.finfo(float).eps * scale

    def test_firmly_nonexpansive(self):
        rng = np.random.default_rng(47)
        for _ in range(300):
            spec, gamma, _ = DRAWS[rng.choice(sorted(DRAWS))](rng)
            lift = SeparableLift(spec)
            x, y = rng.standard_normal((2, 3)) * 4.0
            jx = lift.resolvent(gamma, x)
            jy = lift.resolvent(gamma, y)
            lhs = float(np.sum((jx - jy) ** 2))
            rhs = float(np.dot(jx - jy, x - y))
            assert lhs <= rhs + 1e-10


def box_projection(box, x):
    """The projection of x onto `box`: the resolvent of an arc block whose
    cost is 0, from the box rows the OperatorSet holds."""
    n_comm = len(box.lo)
    net = Network(["a", "b"], [("a", "b")], n_comm)
    arc = ArcOperator(SeparableLift(IntervalProx(AffinePhi(0.0))), box)
    ops = OperatorSet(net, [arc], [FixedSupply((0.0,) * n_comm)] * 2)
    assert ops.box_lo.tolist() == [list(box.lo)] and ops.box_hi.tolist() == [list(box.hi)]
    return ops.capacity_resolvent(np.arange(1), ops.bind(np.ones(1)), np.array([x], dtype=float))[0]


class TestBoxAndSupply:
    def test_points_inside_are_fixed(self):
        box = Box((-1.0, 0.0), (1.0, 2.0))
        x = np.array([0.5, 1.0])
        assert np.array_equal(box_projection(box, x), x)

    def test_orthant_clamp(self):
        box = Box.orthant(2)
        np.testing.assert_array_equal(box_projection(box, np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_idempotent(self):
        rng = np.random.default_rng(53)
        box = Box((-2.0, 0.0, -math.inf), (0.5, 1.0, math.inf))
        for _ in range(100):
            x = rng.standard_normal(3) * 5
            once = box_projection(box, x)
            assert np.array_equal(box_projection(box, once), once)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigurationError, match="lo <= hi"):
            Box((1.0,), (0.0,))

    @pytest.mark.parametrize("lo, hi", [((0.0, math.inf), (1.0, math.inf)), ((0.0, -math.inf), (1.0, -math.inf))])
    def test_a_commodity_interval_without_a_real_point_rejected(self, lo, hi):
        with pytest.raises(ConfigurationError, match="lo < inf and hi > -inf"):
            Box(lo, hi)

    def test_fixed_supply_ignores_input_and_step(self):
        # the conservation block projects onto the flows that meet the
        # supplies, whatever the point: x2 = q - w + tension(s*) at gamma = 1
        net = Network(["a", "b"], [("a", "b")], 2)
        arc = ArcOperator(SeparableLift(TRC(1.0, 1.0, 1.0, 1.0)), Box.orthant(2))
        ops = OperatorSet(net, [arc], [FixedSupply((2.0, -1.0)), FixedSupply((-2.0, 1.0))])
        rng = np.random.default_rng(59)
        for scale in [0.1, 1.0, 10.0]:
            x, v = scale * rng.standard_normal((1, 2)), scale * rng.standard_normal((2, 2))
            state, ws = SolverState(x.copy(), v.copy()), new_workspace(net)
            step(net, ops, SolverConfig(scheduler=RoundRobin(2)), state, ws)
            np.testing.assert_array_equal(ops.supplies, [[2.0, -1.0], [-2.0, 1.0]])
            w = net.tension(v)
            np.testing.assert_allclose(
                net.divergence(ws.q - w + net.tension(ws.sstar)), ops.supplies, rtol=0, atol=1e-12
            )

    def test_zero_supply(self):
        net = Network(["a", "b"], [("a", "b")], 1)
        arc = ArcOperator(SeparableLift(TRC(1.0, 1.0, 1.0, 1.0)), Box.orthant(1))
        ops = OperatorSet(net, [arc], [FixedSupply((0.0,))] * 2)
        assert ops.supplies.tolist() == [[0.0], [0.0]]
        v = np.array([[123.0], [0.0]])
        state, ws = SolverState(net.zero_flow(), v.copy()), new_workspace(net)
        step(net, ops, SolverConfig(scheduler=RoundRobin(2)), state, ws)
        # a zero supply leaves the potentials F div(q - w), and the projection
        # x2 = q - w + tension(s*) without divergence
        w = net.tension(v)
        np.testing.assert_array_equal(ws.sstar, solver._conservation_inverse(net) @ net.divergence(ws.q - w))
        np.testing.assert_allclose(net.divergence(ws.q - w + net.tension(ws.sstar)), 0.0, rtol=0, atol=1e-12)

    def test_operator_set_holds_each_supply_exactly(self):
        # the solver reads a node block's resolvent, its constant supply, from here
        supplies = [(2.0, -1.0), (0.0, 0.0), (0.1, -0.30000000000000004), (-2.1, 1.3)]
        net = Network(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")], 2)
        arc = ArcOperator(SeparableLift(TRC(1.0, 1.0, 1.0, 1.0)), Box.orthant(2))
        ops = OperatorSet(net, [arc] * 3, [FixedSupply(s) for s in supplies])
        assert ops.supplies.dtype == np.float64
        assert ops.supplies.tolist() == [list(s) for s in supplies]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_supply_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="supply must be finite"):
            FixedSupply((1.0, bad))


class TestOperatorSet:
    def test_dimension_validation(self):
        net = Network(["a", "b"], [("a", "b")], 2)
        good_arc = ArcOperator(SeparableLift(TRC(1.0, 1.0, 1.0, 1.0)), Box.orthant(2))
        with pytest.raises(ConfigurationError, match="arc operators"):
            OperatorSet(net, [], [FixedSupply((0.0, 0.0))] * 2)
        with pytest.raises(ConfigurationError, match="1 node operators for 2 nodes"):
            OperatorSet(net, [good_arc], [FixedSupply((0.0, 0.0))])
        with pytest.raises(ConfigurationError, match="supply has"):
            OperatorSet(net, [good_arc], [FixedSupply((0.0,)), FixedSupply((0.0, 0.0))])
        with pytest.raises(ConfigurationError, match="box has"):
            OperatorSet(
                net,
                [ArcOperator(SeparableLift(TRC(1.0, 1.0, 1.0, 1.0)), Box.orthant(1))],
                [FixedSupply((0.0, 0.0))] * 2,
            )

    @staticmethod
    def trc_operators(net, supply):
        arc = ArcOperator(SeparableLift(TRC(1.0, 1.0, 1.0, 1.0)), Box.orthant(net.n_commodities))
        return OperatorSet(net, [arc] * net.n_arcs, [FixedSupply(tuple(row)) for row in supply])

    def test_supplies_that_balance_only_across_components_are_rejected(self):
        # a -> b and c -> d: the +1 at a can reach b only, the -1 at d comes from c only
        net = Network("abcd", [("a", "b"), ("c", "d")], 1)
        message = r"commodity 0: supplies sum to 1\.0, not 0, over the nodes connected to 'a'"
        with pytest.raises(ConfigurationError, match=message):
            self.trc_operators(net, [[1.0], [0.0], [0.0], [-1.0]])
        self.trc_operators(net, [[1.0], [-1.0], [2.0], [-2.0]])  # each component balances

    def test_a_node_without_arcs_must_have_zero_supply(self):
        net = Network(["a", "b", "idle"], [("a", "b")], ["car", "truck"])
        with pytest.raises(ConfigurationError, match="commodity 'truck'.*connected to 'idle'"):
            self.trc_operators(net, [[1.0, 0.0], [-1.0, 0.0], [0.0, 0.5]])

    def test_supplies_whose_sum_overflows_are_rejected(self):
        # 1e308 + 1e308 - 1e308 overflows to inf in an unscaled sum, and
        # inf > 1e-12 * inf is false
        net = Network("abc", [("a", "b"), ("b", "c")], 1)
        message = r"commodity 0: supplies sum to 1e\+308, not 0, over the nodes connected to 'a'"
        with pytest.raises(ConfigurationError, match=message):
            self.trc_operators(net, [[1e308], [1e308], [-1e308]])
        with pytest.raises(ConfigurationError, match="supplies sum to inf, not 0"):
            self.trc_operators(net, [[1.7e308], [1.7e308], [-1e307]])
        self.trc_operators(net, [[1e308], [-1.7e308], [0.7e308]])  # balances
        # a tiny imbalance on a second component keeps its precision
        net = Network("abcd", [("a", "b"), ("c", "d")], 1)
        with pytest.raises(ConfigurationError, match="supplies sum to -1e-300, not 0, over the nodes connected to 'c'"):
            self.trc_operators(net, [[1e308], [-1e308], [1e-300], [-2e-300]])

    def test_balance_allows_rounding(self):
        # 0.1 + 0.2 - 0.3 is 5.6e-17, not 0
        net = Network("abc", [("a", "b"), ("b", "c")], 1)
        ops = self.trc_operators(net, [[0.1], [0.2], [-0.3]])
        assert ops.supplies.sum() != 0.0

    def test_each_unbalanced_component_and_commodity_is_named(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            net = random_network(rng, max_nodes=12, max_arcs=10, max_comm=3)
            supply = rng.uniform(-2.0, 2.0, (net.n_nodes, net.n_commodities))
            components = weak_components(net)
            for members in components:
                supply[members[-1]] -= supply[members].sum(axis=0)
            self.trc_operators(net, supply)
            members = components[rng.integers(len(components))]
            c = int(rng.integers(net.n_commodities))
            supply[members[rng.integers(len(members))], c] += 0.25
            with pytest.raises(ConfigurationError) as err:
                self.trc_operators(net, supply)
            assert str(err.value).startswith(f"commodity {c}: ")
            assert str(err.value).endswith(f"connected to {members[0]}")

    def test_gamma_must_be_positive(self):
        spec = TRC(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError, match="positive"):
            spec.resolvent(0.0, 1.0)


PROX_FN_CALLS = []


def recorded_identity(gamma, xi):
    PROX_FN_CALLS.append((gamma, xi))
    return xi


IDENTITY = CustomPhi(recorded_identity, lambda s: (0.0, 0.0))
SIZE1_CALLS = {
    "bpr": lambda g: BPR(1.0, 1.0, 1.0, 4.0).resolvent(g, 3.0),
    "log": lambda g: Logarithmic(5.0, 1.0).resolvent(g, 3.0),
    "trc": lambda g: TRC(1.0, 1.0, 1.0, 1.0).resolvent(g, 3.0),
    "powerexp": lambda g: PowerExp(2.0, 1.0, 0.5).resolvent(g, 3.0),
    "prox-affine": lambda g: IntervalProx(AffinePhi(1.0), 0.0, 5.0).resolvent(g, 3.0),
    "prox-quadratic": lambda g: IntervalProx(QuadraticPhi(1.0)).resolvent(g, 3.0),
    "prox-power": lambda g: IntervalProx(PowerPhi(1.5)).resolvent(g, 3.0),
    "prox-custom": lambda g: IntervalProx(IDENTITY).resolvent(g, 3.0),
    "affine": lambda g: AffinePhi(1.0).prox(g, 3.0),
    "quadratic": lambda g: QuadraticPhi(1.0).prox(g, 3.0),
    "power": lambda g: PowerPhi(1.5).prox(g, 3.0),
    "custom": lambda g: IDENTITY.prox(g, 3.0),
    "lift": lambda g: SeparableLift(TRC(1.0, 1.0, 1.0, 1.0)).resolvent(g, [1.0, 2.0]),
}


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("call", SIZE1_CALLS.values(), ids=SIZE1_CALLS.keys())
def test_every_size1_resolvent_requires_a_finite_positive_gamma(call, gamma):
    # the rule step_parameters applies; a bad gamma gave a silent wrong number
    PROX_FN_CALLS.clear()
    with pytest.raises(ConfigurationError, match="finite and positive"):
        call(gamma)
    assert PROX_FN_CALLS == []  # a user prox never sees the bad gamma


# ---------------------------------------------------------------------------
# the batched kernels: spec.family() names a kernel and its parameters; the
# scalar resolvent is the size-1 batch
# ---------------------------------------------------------------------------


def regime_draws(family, rng, n=600):
    """(spec, gamma, xi) draws for one family, mixing the branches of its kernel.

    "bpr-all-live" keeps every BPR draw on the root branch (c > 0),
    "bpr-none-live" keeps every one off it (c <= 0), and "bpr-empty" has none.
    """
    out = []
    if family == "bpr-empty":
        n = 0
    for i in range(n):
        if family in DRAWS:
            spec, gamma, xi = DRAWS[family](rng)
        if family == "bpr" and i % 5 == 0:
            xi = gamma * spec.theta  # c = 0: the root is 0
        elif family == "log" and i % 5 == 0:
            # W(exp(z)) underflows: the output is pinned just below omega
            xi = spec.omega + gamma * (spec.theta + rng.uniform(40.0, 800.0))
        elif family == "log" and i % 5 == 1:
            xi = spec.omega - gamma * rng.uniform(500.0, 5000.0)  # z above _EXP_SWITCH
        elif family == "powerexp" and i % 5 == 0:
            xi = rng.uniform(600.0, 5000.0) / (spec.p * math.log(spec.alpha))
        elif family == "prox":
            q = float(rng.choice([1.0, 1.5, 2.0]))
            phi = [AffinePhi(rng.uniform(-3, 3)), QuadraticPhi(rng.uniform(0, 3)), PowerPhi(q)][i % 3]
            lo = -math.inf if i % 4 == 0 else rng.uniform(-10.0, 0.0)
            hi = math.inf if i % 4 == 1 else lo + rng.uniform(0.0, 20.0)
            spec = IntervalProx(phi, lo, hi if math.isfinite(lo) else rng.uniform(-5.0, 5.0))
            gamma, xi = 10.0 ** rng.uniform(-2, 1), rng.uniform(-40.0, 40.0)
        elif family == "custom":
            phi = CustomPhi(lambda g, x: x / (1.0 + g), lambda s: (s, s))
            spec = IntervalProx(phi, lo=rng.uniform(-5.0, 0.0))
            gamma, xi = 10.0 ** rng.uniform(-2, 1), rng.uniform(-40.0, 40.0)
        elif family == "bpr-all-live":
            spec, gamma, _ = draw_bpr(rng)
            xi = gamma * spec.theta + rng.uniform(1e-3, 40.0)
        elif family == "bpr-none-live":
            spec, gamma, _ = draw_bpr(rng)
            xi = gamma * spec.theta - (0.0 if i % 5 == 0 else rng.uniform(1e-3, 40.0))
        out.append((spec, gamma, xi))
    return out


def batch_resolvent(items, start=None):
    """One kernel call per family over the draws, in draw order, from `start` if given."""
    out = np.empty(len(items))
    groups = {}
    for i, (spec, _, _) in enumerate(items):
        kernel, params = spec.family()
        groups.setdefault(kernel, []).append((i, params))
    for kernel, rows in groups.items():
        idx = np.array([i for i, _ in rows])
        cols = [
            np.array(col, dtype=float if isinstance(col[0], float) else object)
            for col in zip(*(params for _, params in rows))
        ]
        gamma = np.array([items[i][1] for i in idx])
        xi = np.array([items[i][2] for i in idx])
        out[idx] = kernel(gamma, xi, *cols, start=None if start is None else start[idx])
    return out


BATCH_FAMILIES = ["bpr", "log", "trc", "powerexp", "prox", "custom"]
BPR_BATCHES = ["bpr-all-live", "bpr-none-live", "bpr-empty"]


@pytest.mark.parametrize("family", BATCH_FAMILIES + BPR_BATCHES)
def test_batch_matches_size1_calls_bitwise(family):
    rng = np.random.default_rng((BATCH_FAMILIES + BPR_BATCHES).index(family) + 100)
    items = regime_draws(family, rng)
    single = np.array([spec.resolvent(gamma, xi) for spec, gamma, xi in items])
    assert np.array_equal(batch_resolvent(items), single)
    if not items:  # batch_resolvent calls no kernel for an empty batch; call BPR's
        kernel, params = BPR(1.0, 1.0, 1.0, 4.0).family()
        assert kernel(*[np.empty(0)] * (2 + len(params))).shape == (0,)
    # an element's result does not depend on which elements share its batch
    order = rng.permutation(len(items))
    cut = len(items) // 3
    shuffled = np.empty(len(items))
    for part in (order[:cut], order[cut:]):
        shuffled[part] = batch_resolvent([items[i] for i in part])
    assert np.array_equal(shuffled, single)


@pytest.mark.parametrize("family", BATCH_FAMILIES)
def test_a_kernel_without_a_start_is_the_all_nan_start_bitwise(family):
    # nan is the one cold start; a start of None only spells it
    items = regime_draws(family, np.random.default_rng(BATCH_FAMILIES.index(family) + 400))
    assert np.array_equal(batch_resolvent(items), batch_resolvent(items, np.full(len(items), np.nan)))


@pytest.mark.parametrize("family", sorted(DRAWS))
def test_resolvent_identity_on_arrays(family):
    items = array_draws("batch-", family, 2000)
    assert identity_errors(items, batch_resolvent(items)).max() <= 1e-13


def test_bpr_batch_keeps_branches_apart():
    spec = BPR(alpha=0.15, rho=1.0, theta=2.0, p=4.0)
    kernel, params = spec.family()
    cols = [np.full(4, v) for v in params]
    out = kernel(np.ones(4), np.array([1.0, 2.0, 3.0, math.inf]), *cols)
    assert out[0] == -1.0 and out[1] == 0.0  # pure shift, then the root at c = 0
    assert 0.0 < out[2] < 1.0 and math.isnan(out[3])


def bpr_stress_draw(rng, n):
    """BPR kernel arguments: p in [0.25, 8], parameters in [1e-3, 1e3], xi up to 1e8."""
    alpha, rho, theta, gamma = 10.0 ** rng.uniform(-3.0, 3.0, (4, n))
    return gamma, 10.0 ** rng.uniform(-3.0, 8.0, n), alpha, rho, theta, rng.uniform(0.25, 8.0, n)


def test_bpr_kernel_stress_identity_and_monotone():
    rng = np.random.default_rng(71)
    args = bpr_stress_draw(rng, 200_000)
    kernel = BPR(1.0, 1.0, 1.0, 1.0).family()[0]
    s = kernel(*args)
    assert not np.isnan(s).any()
    assert bpr_identity_error(s, *args).max() <= 1e-13
    # nondecreasing in xi: 50 sorted xi per parameter set
    m, k = 2_000, 50
    gamma, _, alpha, rho, theta, p = (np.repeat(a[:m], k) for a in args)
    xi = np.sort(10.0 ** rng.uniform(-3.0, 8.0, (m, k)), axis=1).ravel()
    out = kernel(gamma, xi, alpha, rho, theta, p).reshape(m, k)
    assert (np.diff(out, axis=1) >= 0.0).all()


def test_bpr_kernel_linear_case_within_2_ulp():
    rng = np.random.default_rng(72)
    gamma, xi, alpha, rho, theta, _ = bpr_stress_draw(rng, 100_000)
    kernel = BPR(1.0, 1.0, 1.0, 1.0).family()[0]
    s = kernel(gamma, xi, alpha, rho, theta, np.ones_like(xi))
    c = xi - gamma * theta
    live = c > 0.0
    exact = c / (1.0 + alpha * (gamma * theta) / rho)
    assert live.sum() > 50_000
    ulps = np.abs(s - exact)[live] / np.spacing(exact[live])
    assert ulps.max() <= 2.0


# ---------------------------------------------------------------------------
# warm starts: a kernel started from an earlier root, near or far from the
# new one, or from nothing usable
# ---------------------------------------------------------------------------


def warm_starts(root):
    """(name, start array) per start kind, for cold roots `root`."""
    return [
        ("root", root),
        ("root*(1+1e-3)", root * (1.0 + 1e-3)),
        ("root*(1-1e-3)", root * (1.0 - 1e-3)),
        ("root*10", root * 10.0),
        ("root/10", root / 10.0),
        ("1e-300", np.full_like(root, 1e-300)),
        ("1e300", np.full_like(root, 1e300)),
        ("0", np.zeros_like(root)),
        ("-root", -root),
        ("nan", np.full_like(root, np.nan)),
        ("inf", np.full_like(root, np.inf)),
    ]


def warm_calls(resolve, root):
    """resolve(start) from every start kind, failing on any warning."""
    for name, start in warm_starts(root):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = resolve(start.copy())
        assert not np.isnan(out).any(), name
        yield name, out


def bpr_identity_error(s, gamma, xi, alpha, rho, theta, p):
    """|s + gamma*theta*(1 + alpha*(s/rho)**p) - xi| relative to the largest term."""
    gt = gamma * theta
    congestion = np.where(s > 0.0, gt * alpha * (np.maximum(s, 0.0) / rho) ** p, 0.0)
    scale = np.maximum.reduce([np.abs(s), gt, congestion, np.abs(xi)])
    return np.abs(s + gt + congestion - xi) / scale


def test_bpr_kernel_warm_starts_keep_identity_and_cold_result():
    rng = np.random.default_rng(73)
    args = bpr_stress_draw(rng, 50_000)
    kernel = BPR(1.0, 1.0, 1.0, 1.0).family()[0]
    cold = kernel(*args)
    bound = max(1e-13, bpr_identity_error(cold, *args).max())
    for name, warm in warm_calls(lambda start: kernel(*args, start=start), cold):
        assert bpr_identity_error(warm, *args).max() <= bound, name
        assert (np.abs(warm - cold) <= 4e-15 * np.abs(cold)).all(), name


def array_draws(tag, family, n):
    """n draws of a family seeded by name; for Log, only where the identity is checkable."""
    rng = np.random.default_rng(zlib.crc32((tag + family).encode()))
    items = [DRAWS[family](rng) for _ in range(n)]
    if family == "log":
        # within an ulp of omega, c(s) is too ill-conditioned to check at 1e-13
        items = [it for it in items if it[2] <= it[0].omega + it[1] * (it[0].theta + 5.0)]
    return items


def identity_errors(items, out):
    """|s + gamma*c(s) - xi| relative to the largest term, per draw."""
    errors = []
    for s, (spec, gamma, xi) in zip(out, items):
        gc = gamma * spec.value(s)
        errors.append(abs(s + gc - xi) / max(1.0, abs(xi), abs(s), abs(gc)))
    return np.array(errors)


@pytest.mark.parametrize("family", ["log", "powerexp"])
def test_lambert_kernels_warm_starts_keep_identity(family):
    items = array_draws("warm-", family, 2000)
    cold = batch_resolvent(items)
    bound = max(1e-13, identity_errors(items, cold).max())
    for name, warm in warm_calls(lambda start: batch_resolvent(items, start), cold):
        assert identity_errors(items, warm).max() <= bound, name


@pytest.mark.parametrize("family", ["trc", "prox", "custom"])
def test_closed_form_kernels_ignore_the_start(family):
    items = regime_draws(family, np.random.default_rng(BATCH_FAMILIES.index(family) + 200), 200)
    cold = batch_resolvent(items)
    for name, warm in warm_calls(lambda start: batch_resolvent(items, start), cold):
        assert np.array_equal(warm, cold), name


def test_bpr_iteration_cap_raises_from_every_start(monkeypatch):
    monkeypatch.setattr(operators, "_BPR_MAX_ITER", 0)
    args = bpr_stress_draw(np.random.default_rng(74), 100)
    kernel = BPR(1.0, 1.0, 1.0, 1.0).family()[0]
    root = np.linspace(0.5, 5.0, 100)
    for name, start in warm_starts(root):
        with pytest.raises(NumericalFailure, match="BPR root"):
            kernel(*args, start=start)


def test_bpr_kernel_from_its_own_roots_needs_one_pass(monkeypatch):
    args = bpr_stress_draw(np.random.default_rng(75), 10_000)
    kernel = BPR(1.0, 1.0, 1.0, 1.0).family()[0]
    cold = kernel(*args)
    monkeypatch.setattr(operators, "_BPR_MAX_ITER", 1)
    with pytest.raises(NumericalFailure, match="BPR root"):
        kernel(*args)
    warm = kernel(*args, start=cold.copy())
    assert (np.abs(warm - cold) <= 4e-15 * np.abs(cold)).all()


def bpr_draws_off_the_upper_bound(rng, n):
    """BPR stress arguments, live and with p at least 0.1 from 1, whose root s
    has k*s**p and s each at least 1e-3 of c: there the root lies well apart
    from the upper bound y0 in log s, and a Newton step lands below y0."""
    args = bpr_stress_draw(rng, n)
    kernel = BPR(1.0, 1.0, 1.0, 1.0).family()[0]
    s = kernel(*args)
    gamma, xi, _, _, theta, p = args
    share = s / (xi - gamma * theta)
    keep = (share > 1e-3) & (share < 1.0 - 1e-3) & (np.abs(p - 1.0) > 0.1)
    return [a[keep] for a in args], s[keep]


def bpr_radius(p):
    """The stop radius r with (p - 1)**2/(8*min(1, p)) * r**2 = 1e-10."""
    return np.sqrt(8e-10 * np.minimum(p, 1.0)) / np.abs(p - 1.0)


def test_bpr_warm_start_within_its_radius_needs_no_loop_pass(monkeypatch):
    args, cold = bpr_draws_off_the_upper_bound(np.random.default_rng(76), 20_000)
    assert cold.size > 5_000
    kernel = BPR(1.0, 1.0, 1.0, 1.0).family()[0]
    monkeypatch.setattr(operators, "_BPR_MAX_ITER", 0)
    with pytest.raises(NumericalFailure, match="BPR root"):
        kernel(*args)
    # the warm step from the root itself is pass 0, and final; so is a step
    # from half the radius above the root, in log s.  Each result is then
    # the linear finishing step from within 4e-10 of the root, so warm and
    # cold results differ only by that step's rounding: over these draws,
    # by up to 5 ulp, and by at most 2 ulp for all but a few
    for start in (cold, cold * np.exp(0.5 * bpr_radius(args[-1]))):
        warm = kernel(*args, start=start.copy())
        ulps = np.abs(warm - cold) / np.spacing(cold)
        assert ulps.max() <= 8.0 and np.count_nonzero(ulps > 2.0) <= 1e-2 * ulps.size


def test_bpr_newton_steps_beyond_the_radius_are_not_final(monkeypatch):
    args, cold = bpr_draws_off_the_upper_bound(np.random.default_rng(77), 2_000)
    kernel = BPR(1.0, 1.0, 1.0, 1.0).family()[0]
    p = args[-1]
    # the prepared radius keeps the error bound of a final step
    r = kernel.prepare(args[0], *args[2:])[-1]
    assert (r <= bpr_radius(p) * (1.0 + 1e-12)).all() and (r >= 0.5 * bpr_radius(p)).all()
    monkeypatch.setattr(operators, "_BPR_MAX_ITER", 0)
    # a warm step that moves log s by twice the radius needs a loop pass
    start = cold * np.exp(2.0 * bpr_radius(p))
    for j in range(0, cold.size, 10):
        one = [a[j : j + 1] for a in args]
        with pytest.raises(NumericalFailure, match="BPR root"):
            kernel(*one, start=start[j : j + 1])


@pytest.mark.parametrize("family", ["log", "powerexp"])
def test_lambert_kernels_from_their_own_roots_need_one_halley_pass(family, monkeypatch):
    items = array_draws("one-pass-", family, 500)
    cold = batch_resolvent(items)
    monkeypatch.setattr(lambertw, "_MAX_ITER", 1)
    # one pass from Winitzki's start does not converge, which raises
    with pytest.raises(NumericalFailure, match="did not converge"):
        batch_resolvent(items)
    assert identity_errors(items, batch_resolvent(items, cold.copy())).max() <= 1e-13


# ---------------------------------------------------------------------------
# Logarithmic and PowerExp share one kernel, so a batch holding both makes
# one Lambert-W solve
# ---------------------------------------------------------------------------


def reference_lambert_resolvent(spec, gamma, xi, start=None):
    """The Logarithmic or PowerExp resolvent through that family's own coefficients.

    W = W(exp(z0 + z1*xi)), started from the W at which s = min(o0 + o1*xi +
    o2*W, cap) returns `start`, and mapped to s by that formula; a PowerExp
    W > 1 is mapped by s = o2*(z0 - log W), its form that does not cancel.
    """
    gamma, xi = np.array([gamma]), np.array([xi])
    if isinstance(spec, Logarithmic):
        omega = spec.omega
        z0 = np.log(omega / gamma) + spec.theta + omega / gamma
        z1, o0, o1, o2, cap = -1.0 / gamma, omega, 0.0, -gamma, np.nextafter(omega, -np.inf)
    else:
        pl = spec.p * math.log(spec.alpha)
        z0 = np.log(gamma * spec.theta * pl)
        z1, o0, o1, o2, cap = pl, 0.0, 1.0, -1.0 / pl, math.inf
    base = o0 + o1 * xi
    if start is not None:
        start = (np.array([start]) - base) / o2
    w = lambertw.lambert_w_exp(z0 + z1 * xi, start)
    if isinstance(spec, PowerExp) and w[0] > 1.0:
        return float(o2 * (z0 - np.log(w))[0])
    return float(np.minimum(base + o2 * w, cap)[0])


def lambert_draws(rng):
    """Logarithmic (a third with theta = 0) and PowerExp draws over every branch, shuffled."""
    items = regime_draws("log", rng, 400) + regime_draws("powerexp", rng, 400)
    items += [(Logarithmic(spec.omega, 0.0), g, xi) for spec, g, xi in regime_draws("log", rng, 400)]
    return [items[i] for i in rng.permutation(len(items))]


def test_mixed_lambert_batch_matches_size1_calls_and_each_family_formula_bitwise():
    rng = np.random.default_rng(81)
    items = lambert_draws(rng)
    single = np.array([spec.resolvent(gamma, xi) for spec, gamma, xi in items])
    assert np.array_equal(batch_resolvent(items), single)
    near = single * (1.0 + 1e-3 * rng.standard_normal(single.size))
    starts = np.where(rng.random(single.size) < 0.8, near, np.nan)
    warm = batch_resolvent(items, starts)
    for (spec, gamma, xi), cold_s, warm_s, start in zip(items, single, warm, starts):
        assert cold_s == reference_lambert_resolvent(spec, gamma, xi)
        assert warm_s == reference_lambert_resolvent(spec, gamma, xi, start)


def test_mixed_lambert_batch_does_not_depend_on_its_batch():
    rng = np.random.default_rng(82)
    items = lambert_draws(rng)
    cold = batch_resolvent(items)
    near = cold * (1.0 + 1e-3 * rng.standard_normal(cold.size))
    for start in (None, np.where(rng.random(cold.size) < 0.5, near, np.nan)):
        whole = batch_resolvent(items, start)
        order = rng.permutation(len(items))
        parts = np.empty(len(items))
        for part in np.split(order, [len(items) // 7, len(items) // 2]):
            pick = None if start is None else start[part]
            parts[part] = batch_resolvent([items[i] for i in part], pick)
        assert np.array_equal(parts, whole)
        for family in (Logarithmic, PowerExp):
            own = np.flatnonzero([isinstance(spec, family) for spec, _, _ in items])
            pick = None if start is None else start[own]
            assert np.array_equal(batch_resolvent([items[i] for i in own], pick), whole[own])


def test_logarithmic_with_theta_zero_raises_no_warning():
    rng = np.random.default_rng(83)
    items = [(Logarithmic(spec.omega, 0.0), g, xi) for spec, g, xi in regime_draws("log", rng, 300)]
    items += regime_draws("powerexp", rng, 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cold = batch_resolvent(items)
        single = [spec.resolvent(gamma, xi) for spec, gamma, xi in items]
    assert np.array_equal(cold, single)
    # every start kind, including inf and nan, warning-free and nan-free
    for _ in warm_calls(lambda start: batch_resolvent(items, start), cold):
        pass


EVERY_KERNEL = [
    BPR(0.15, 2.0, 1.0, 4.0),
    BPR(1.0, 2.0, 1.0, 1.0),
    Logarithmic(8.0, 1.5),
    Logarithmic(8.0, 0.0),
    TRC(0.5, 0.1, 1.0, 1.0),
    PowerExp(2.0, 1.0, 0.3),
    IntervalProx(AffinePhi(0.5), 0.0, 5.0),
    IntervalProx(QuadraticPhi(1.0)),
    IntervalProx(PowerPhi(1.5), -1.0, 1.0),
    IntervalProx(CustomPhi(lambda gamma, xi: xi / (1.0 + gamma), lambda s: (s, s))),
]
HUGE_XI = [-1e300, 1e300, 1.0]
BAD_STARTS = [math.nan, 0.0, math.inf]


def test_public_entry_points_raise_no_runtime_warning():
    # the kernels leave numpy's warnings to their callers, so each public
    # entry point silences its own: nan, 0 and inf starts, |xi| = 1e300
    points = [(xi, start) for xi in HUGE_XI for start in BAD_STARTS]
    xi, start = (np.array(col) for col in zip(*points))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in EVERY_KERNEL:  # calling a kernel, and the size-1 call
            batch_resolvent([(spec, 0.5, x) for x in xi], start.copy())
            for x in HUGE_XI:
                spec.resolvent(0.5, x)
        for phi in (AffinePhi(0.5), QuadraticPhi(1.0), PowerPhi(1.0), PowerPhi(1.5), PowerPhi(2.0)):
            for x in HUGE_XI:
                phi.prox(0.5, x)
        # bind, then capacity_resolvent on every arc and on some
        n_arcs = len(EVERY_KERNEL)
        net = Network(["a", "b"], [("a", "b")] * n_arcs, 2)
        boxes = [Box.orthant(2), Box.free(2)]
        ops = OperatorSet(
            net,
            [ArcOperator(SeparableLift(spec), boxes[j % 2]) for j, spec in enumerate(EVERY_KERNEL)],
            [FixedSupply((0.0, 0.0))] * 2,
        )
        bound = ops.bind(np.full(n_arcs, 0.5))
        for x in HUGE_XI:
            for s in BAD_STARTS:
                for arcs in (np.arange(n_arcs), np.arange(0, n_arcs, 3)):
                    rows = np.full((arcs.size, 2), x)
                    ops.capacity_resolvent(arcs, bound, rows, np.full(arcs.size, s))
        for z in HUGE_XI:
            for s in BAD_STARTS:
                lambertw.lambert_w_exp(np.array([z]), np.array([s]))
        # an argument beyond the float range still fails by name
        with pytest.raises(NumericalFailure, match="non-finite argument"):
            Logarithmic(1e308, 2.0).resolvent(0.5, 0.0)


def test_operator_set_solves_logarithmic_and_powerexp_arcs_in_one_lambert_call(monkeypatch):
    net, ops = mixed_family_instance(custom=False)  # Logarithmic arc 1, PowerExp arc 3
    sizes = []
    solve = operators.lambert_w_exp

    def counted(z, start=None):
        sizes.append(z.size)
        return solve(z, start)

    monkeypatch.setattr(operators, "lambert_w_exp", counted)
    # above both arcs' free-flow thresholds gamma*theta, 1.5 and 1, so no row is screened
    x = np.full((net.n_arcs, 2), 2.0)
    bound = ops.bind(np.ones(net.n_arcs))
    for arcs, want in (([0, 1, 2, 3, 4], [2]), ([1, 3], [2]), ([3], [1]), ([0, 2], [])):
        arcs = np.array(arcs)
        sizes.clear()
        ops.capacity_resolvent(arcs, bound, x[arcs])
        assert sizes == want


def test_capacity_resolvent_start_returns_the_roots():
    rng = np.random.default_rng(62)
    for _ in range(10):
        net = random_network(rng, max_comm=4)
        specs = [DRAWS[sorted(DRAWS)[rng.integers(4)]](rng)[0] for _ in range(net.n_arcs)]
        ops = OperatorSet(
            net,
            [ArcOperator(SeparableLift(spec), Box.free(net.n_commodities)) for spec in specs],
            [FixedSupply((0.0,) * net.n_commodities)] * net.n_nodes,
        )
        x = rng.standard_normal((net.n_arcs, net.n_commodities)) * 5.0
        gamma = 10.0 ** rng.uniform(-1, 1, net.n_arcs)
        scaled = gamma * net.n_commodities
        bound = ops.bind(gamma)
        for arcs in (np.arange(net.n_arcs), np.flatnonzero(rng.random(net.n_arcs) < 0.4)):
            # no usable start: the cold result, and the roots come back in place
            start = np.full(arcs.size, np.nan)
            out = ops.capacity_resolvent(arcs, bound, x[arcs], start)
            assert np.array_equal(out, ops.capacity_resolvent(arcs, bound, x[arcs]))
            roots = [specs[j].resolvent(scaled[j], x[j].sum()) for j in arcs]
            assert np.array_equal(start, roots)


def test_capacity_resolvent_hands_the_start_to_the_kernels(monkeypatch):
    rng = np.random.default_rng(63)
    net = random_network(rng, max_comm=3)
    specs = [draw_bpr(rng)[0] for _ in range(net.n_arcs)]
    ops = OperatorSet(
        net,
        [ArcOperator(SeparableLift(spec), Box.free(net.n_commodities)) for spec in specs],
        [FixedSupply((0.0,) * net.n_commodities)] * net.n_nodes,
    )
    x = 10.0 + rng.standard_normal((net.n_arcs, net.n_commodities))
    bound = ops.bind(np.ones(net.n_arcs))
    arcs = np.arange(net.n_arcs)
    roots = np.full(net.n_arcs, np.nan)
    cold = ops.capacity_resolvent(arcs, bound, x, roots)
    monkeypatch.setattr(operators, "_BPR_MAX_ITER", 1)
    with pytest.raises(NumericalFailure):
        ops.capacity_resolvent(arcs, bound, x)
    for rows in (arcs, arcs[::2]):
        warm = ops.capacity_resolvent(rows, bound, x[rows], roots[rows])
        np.testing.assert_allclose(warm, cold[rows], rtol=1e-14)


def test_a_binding_reused_across_k_patterns_matches_a_fresh_binding_per_call():
    # a sweep of every arc reads the constants at each arc's k from a memo
    # in the binding, which must follow every change of the k pattern
    rng = np.random.default_rng(64)
    n_arcs, n_comm = 40, 3
    net = Network(["a", "b"], [("a", "b")] * n_arcs, n_comm)
    specs = [DRAWS[sorted(DRAWS)[j % 4]](rng)[0] for j in range(n_arcs)]
    ops = OperatorSet(
        net,
        [ArcOperator(SeparableLift(spec), Box.orthant(n_comm)) for spec in specs],
        [FixedSupply((0.0,) * n_comm)] * 2,
    )
    gamma = 10.0 ** rng.uniform(-1, 1, n_arcs)
    bound = ops.bind(gamma)
    every, some = np.arange(n_arcs), np.flatnonzero(rng.random(n_arcs) < 0.5)
    points = [rng.uniform(-5.0, 5.0, (n_arcs, n_comm)) for _ in range(4)]
    patterns = set()
    for xi in points + points[::-1]:  # each pattern twice, the repeats back to back
        patterns.add(tuple((xi > 0.0).sum(1).tolist()))
        for arcs in (every, some):
            got = ops.capacity_resolvent(arcs, bound, xi[arcs])
            assert np.array_equal(got, ops.capacity_resolvent(arcs, ops.bind(gamma), xi[arcs]))
    assert len(patterns) == len(points)


def test_capacity_resolvent_matches_lift_resolvent_bitwise():
    # in a free box every commodity is free: the arc block's resolvent is
    # the lift's uniform shift, and with one commodity the kernel root itself
    rng = np.random.default_rng(61)
    for _ in range(20):
        net = random_network(rng, max_comm=6)
        specs = [DRAWS[sorted(DRAWS)[rng.integers(4)]](rng)[0] for _ in range(net.n_arcs)]
        ops = OperatorSet(
            net,
            [ArcOperator(SeparableLift(spec), Box.free(net.n_commodities)) for spec in specs],
            [FixedSupply((0.0,) * net.n_commodities)] * net.n_nodes,
        )
        x = rng.standard_normal((net.n_arcs, net.n_commodities)) * 5.0
        gamma = 10.0 ** rng.uniform(-1, 1, net.n_arcs)
        if net.n_commodities == 1:
            single = np.array([[s.resolvent(g, row[0])] for s, g, row in zip(specs, gamma, x)])
        else:
            single = np.array([SeparableLift(s).resolvent(g, row) for s, g, row in zip(specs, gamma, x)])
        bound = ops.bind(gamma)
        for arcs in (np.arange(net.n_arcs), np.flatnonzero(rng.random(net.n_arcs) < 0.4)):
            out = ops.capacity_resolvent(arcs, bound, x[arcs])
            assert np.array_equal(out, single[arcs])


@pytest.mark.parametrize("family", BATCH_FAMILIES)
def test_bound_batches_match_size1_resolvents_bitwise(family):
    # one commodity, so each arc's kernel sees its draw's gamma and xi as they are
    rng = np.random.default_rng(BATCH_FAMILIES.index(family) + 300)
    items = regime_draws(family, rng, 300)
    net = Network(["a", "b"], [("a", "b")] * len(items), 1)
    ops = OperatorSet(
        net,
        [ArcOperator(SeparableLift(spec), Box.free(1)) for spec, _, _ in items],
        [FixedSupply((0.0,))] * 2,
    )
    gamma = np.array([g for _, g, _ in items])
    x = np.array([[xi] for _, _, xi in items])
    single = np.array([spec.resolvent(g, xi) for spec, g, xi in items])
    bound = ops.bind(gamma)
    for arcs in (np.arange(len(items)), np.flatnonzero(rng.random(len(items)) < 0.3)):
        roots = np.full(arcs.size, np.nan)
        out = ops.capacity_resolvent(arcs, bound, x[arcs], roots)
        assert np.array_equal(roots, single[arcs])
        assert np.array_equal(out[:, 0], single[arcs])


def reference_arc_resolvent(spec, gamma, xi, lo, hi):
    """The resolvent of c(sum x)*1 + N_[lo, hi] at xi, one arc by a slow scan.

    x = clamp(xi + eta, lo, hi) for the one eta with eta in
    -gamma*c(sum x).  The breakpoints lo - xi and hi - xi cut the eta axis
    into segments, on each of which a fixed set of k commodities is
    free; the scan walks them upwards and solves each with k >= 1 by
    spec.resolvent(k*gamma, S).  A segment's root left of it puts eta at
    the flat (k = 0) segment just before, where x sits on its bounds.
    """
    cuts = sorted({float(b - z) for b, z in zip((*lo, *hi), (*xi, *xi)) if math.isfinite(b)})
    edges = [-math.inf, *cuts, math.inf]
    flat = None
    for a, b in zip(edges[:-1], edges[1:]):
        if math.isinf(a) and math.isinf(b):
            mid = 0.0
        elif math.isinf(a):
            mid = b - 1.0
        elif math.isinf(b):
            mid = a + 1.0
        else:
            mid = 0.5 * (a + b)
        y = xi + mid
        free = (y > lo) & (y < hi)
        base = np.where(free, xi, np.where(y <= lo, lo, hi))
        k, total = int(free.sum()), float(base.sum())
        if k == 0:
            flat = base
            continue
        eta = (spec.resolvent(k * gamma, total) - total) / k
        if eta < a:
            return flat if flat is not None else np.clip(xi + a, lo, hi)
        if eta <= b:
            return np.clip(xi + eta, lo, hi)
        flat = None
    return flat


def arc_block_draws(rng, n_comm, n_arcs):
    """(spec, gamma) of every family, a box per arc and a point of it per arc.

    The boxes are orthants, free, finite, half-open on either side, and
    with lo = hi for some commodities; the points, which serve as guesses,
    sit on a bound or strictly inside at random.
    """
    families = BATCH_FAMILIES
    draws = [regime_draws(families[j % len(families)], rng, 1)[0][:2] for j in range(n_arcs)]
    lo = rng.uniform(-3.0, 1.0, (n_arcs, n_comm))
    hi = lo + rng.uniform(0.0, 4.0, (n_arcs, n_comm))
    kind = rng.integers(6, size=(n_arcs, 1))
    lo = np.where(kind == 0, 0.0, np.where((kind == 1) | (kind == 3), -math.inf, lo))
    hi = np.where((kind == 0) | (kind == 1) | (kind == 4), math.inf, hi)
    hi = np.where((kind == 5) & (rng.random((n_arcs, n_comm)) < 0.3), lo, hi)
    guess = np.clip(rng.standard_normal((n_arcs, n_comm)) * 2.0, lo, hi)
    snap = rng.random((n_arcs, n_comm))
    guess = np.where((snap < 0.3) & np.isfinite(lo), lo, np.where((snap > 0.8) & np.isfinite(hi), hi, guess))
    return draws, lo, hi, guess


@pytest.mark.parametrize("n_comm", [1, 2, 3])
def test_arc_block_resolvent_matches_a_breakpoint_scan(n_comm, monkeypatch):
    rng = np.random.default_rng(400 + n_comm)
    fixed_rows = []
    fix = OperatorSet._fix_variables

    def counted(self, arcs, *args):
        fixed_rows.extend(arcs.tolist())
        return fix(self, arcs, *args)

    monkeypatch.setattr(OperatorSet, "_fix_variables", counted)
    for _ in range(8):
        n_arcs = 60
        draws, lo, hi, guess = arc_block_draws(rng, n_comm, n_arcs)
        net = Network(["a", "b"], [("a", "b")] * n_arcs, n_comm)
        arcs = [ArcOperator(SeparableLift(spec), Box(l, h)) for (spec, _), l, h in zip(draws, lo, hi)]
        ops = OperatorSet(net, arcs, [FixedSupply((0.0,) * n_comm)] * 2)
        gamma = np.array([g for _, g in draws])
        bound = ops.bind(gamma)
        xi = rng.uniform(-20.0, 20.0, (n_arcs, n_comm)) * 10.0 ** rng.uniform(-1, 1, (n_arcs, 1))
        want = np.array([reference_arc_resolvent(spec, g, *row) for (spec, g), *row in zip(draws, xi, lo, hi)])
        scale = 1.0 + np.abs(xi).max(1, keepdims=True)
        for rows in (np.arange(n_arcs), np.flatnonzero(rng.random(n_arcs) < 0.4)):
            for start in (None, guess[rows]):
                got = ops.capacity_resolvent(rows, bound, xi[rows], guess=start)
                assert np.all(np.abs(got - want[rows]) <= 1e-12 * scale[rows])
                assert np.all((lo[rows] <= got) & (got <= hi[rows]))
            # a row alone is bitwise the row of the batch, from a cold or a warm start
            roots = np.full(rows.size, np.nan)
            ops.capacity_resolvent(rows, bound, xi[rows], roots, guess[rows])
            starts = np.where(rng.random(rows.size) < 0.5, np.nan, roots + 1e-3 * rng.standard_normal(rows.size))
            batch_roots = starts.copy()
            batch = ops.capacity_resolvent(rows, bound, xi[rows], batch_roots, guess[rows])
            for r, j in enumerate(rows):
                root = starts[r : r + 1].copy()
                alone = ops.capacity_resolvent(np.array([j]), bound, xi[[j]], root, guess[[j]])
                assert np.array_equal(alone[0], batch[r]) and np.array_equal(root, batch_roots[r : r + 1], equal_nan=True)
    # some rows went to variable fixing; with one commodity none does
    assert bool(fixed_rows) == (n_comm > 1)


def test_a_sweep_of_every_arc_fixes_its_rows_in_family_order(monkeypatch):
    # the kernels solve each family's run of rows, so the rows a sweep of
    # every arc hands to variable fixing must be put in family order too:
    # here four families interleave arc by arc, and every row misses its
    # guess (all on their upper bounds, where the resolvent is inside);
    # each row's largest xi lies above its arc's free-flow threshold, so
    # the screen leaves every row to its kernel
    n_arcs, n_comm = 24, 3
    specs = [
        BPR(alpha=0.15, rho=2.0, theta=1.0, p=4.0),
        Logarithmic(omega=8.0, theta=0.5),
        TRC(alpha=0.5, beta=0.1, delta=1.0, omega=1.0),
        IntervalProx(QuadraticPhi(2.0), lo=-1.0, hi=6.0),
    ]
    net = Network(["a", "b"], [("a", "b")] * n_arcs, n_comm)
    box = Box((0.0,) * n_comm, (1.0,) * n_comm)
    ops = OperatorSet(
        net,
        [ArcOperator(SeparableLift(specs[j % 4]), box) for j in range(n_arcs)],
        [FixedSupply((0.0,) * n_comm)] * 2,
    )
    assert [arcs.tolist() for _, arcs, _ in ops.families] == [list(range(f, n_arcs, 4)) for f in range(4)]
    rng = np.random.default_rng(2510)
    bound = ops.bind(rng.uniform(0.2, 2.0, n_arcs))
    xi = bound.screen[:, None] + rng.uniform(-0.2, 1.0, (n_arcs, n_comm))
    assert np.all(xi.max(1) > bound.screen)
    guess = np.ones((n_arcs, n_comm))
    fixed = []
    fix = OperatorSet._fix_variables

    def recorded(self, arcs, *args):
        fixed.append(arcs.copy())
        return fix(self, arcs, *args)

    monkeypatch.setattr(OperatorSet, "_fix_variables", recorded)
    for start in (None, rng.uniform(0.5, 2.0, n_arcs)):
        roots = np.full(n_arcs, np.nan) if start is None else start.copy()
        fixed.clear()
        got = ops.capacity_resolvent(np.arange(n_arcs), bound, xi, roots, guess)
        assert [a.tolist() for a in fixed] == [ops._perm.tolist()]
        for j in range(n_arcs):
            root = roots[j : j + 1] * np.nan if start is None else start[j : j + 1].copy()
            alone = ops.capacity_resolvent(np.array([j]), bound, xi[[j]], root, guess[[j]])
            assert np.array_equal(alone[0], got[j]) and np.array_equal(root, roots[j : j + 1])
    # guessed from the resolvent itself, the even arcs keep their guess
    fixed.clear()
    mixed = np.where((np.arange(n_arcs) % 2 == 0)[:, None], got, guess)
    again = ops.capacity_resolvent(np.arange(n_arcs), bound, xi, roots.copy(), mixed)
    assert [a.tolist() for a in fixed] == [[j for j in ops._perm.tolist() if j % 2]]
    np.testing.assert_allclose(again, got, rtol=1e-13, atol=1e-15)


def mixed_family_instance(custom):
    """Braess diamond with one arc per family; the toll arc's phi is affine,
    either built in or as a CustomPhi doing the same arithmetic."""
    net = Network(["o", "a", "b", "d"], [("o", "a"), ("o", "b"), ("a", "d"), ("b", "d"), ("a", "b")], 2)
    if custom:
        toll = CustomPhi(lambda gamma, xi: xi - gamma * 0.5, lambda s: (0.5, 0.5))
    else:
        toll = AffinePhi(0.5)
    specs = [
        BPR(alpha=0.15, rho=2.0, theta=1.0, p=4.0),
        Logarithmic(omega=8.0, theta=1.5),
        TRC(alpha=0.5, beta=0.1, delta=1.0, omega=1.0),
        PowerExp(alpha=2.0, theta=1.0, p=0.3),
        IntervalProx(toll, lo=0.0, hi=5.0),
    ]
    ops = OperatorSet(
        net,
        [ArcOperator(SeparableLift(spec), Box.orthant(2)) for spec in specs],
        [FixedSupply(s) for s in ((3.0, 1.0), (0.0, 0.0), (0.0, 0.0), (-3.0, -1.0))],
    )
    return net, ops


def test_custom_phi_mixed_with_batched_families_solves():
    cfg = SolverConfig(max_iter=20_000, scheduler=RandomSweep(seed=4, activation_prob=0.5), T=3)
    runs = []
    for custom in (True, False, False):
        net, ops = mixed_family_instance(custom)
        # Logarithmic and PowerExp share one kernel
        assert len(ops.families) == 4
        state, trace, reason = run(net, ops, cfg)
        assert reason is Termination.CONVERGED
        runs.append((state, [(r.tau, r.pi, r.theta, r.residual) for r in trace]))
    # the scalar fallback agrees with the affine kernel bit for bit, and two
    # random-sweep runs of the same instance are bitwise identical
    for state, trace in runs[1:]:
        assert np.array_equal(state.x, runs[0][0].x) and np.array_equal(state.v, runs[0][0].v)
        assert trace == runs[0][1]
    # the toll arc (index 4) carries flow strictly inside its interval
    state = runs[0][0]
    assert 0.0 < float(np.sum(state.x[4])) < 5.0
    net, ops = mixed_family_instance(custom=True)
    assert wardrop_residual(net, ops, state.x, state.v) <= 1e-6


def test_bind_returns_one_float_table_per_family():
    # a partial sweep gathers its rows' constants with one take, so no
    # family may keep a column of objects, a CustomPhi's included
    net, ops = mixed_family_instance(custom=True)
    n_comm = net.n_commodities
    bound = ops.bind(np.full(net.n_arcs, 0.5))
    assert len(bound.rows) == len(ops.families) == 4
    assert bound.table.dtype == np.float64 and bound.table.shape == (max(bound.rows), net.n_arcs * n_comm)
    b = 0
    for (kernel, arcs, params), n in zip(ops.families, bound.rows):
        assert params.dtype == np.float64 and params.ndim == 2 and params.shape[1] == arcs.size
        # the family's own columns, in the order `_perm` lists its arcs, hold its prepared constants
        table = bound.table[:, b : b + arcs.size * n_comm]
        gamma = np.tile(0.5 * np.arange(1, n_comm + 1), arcs.size)  # member*C + k - 1 at k*gamma
        assert np.array_equal(table[:n], np.array(kernel.prepare(gamma, *params.repeat(n_comm, 1)), float))
        assert not table[n:].any()
        b += arcs.size * n_comm


def test_arcs_sharing_a_custom_phi_form_one_family_and_two_instances_two():
    def prox(gamma, xi):
        return xi / (1.0 + gamma)

    def subdiff(s):
        return (s, s)

    shared, other = CustomPhi(prox, subdiff), CustomPhi(prox, subdiff)
    assert shared == other  # equal, but two instances carry two kernels
    specs = [
        IntervalProx(shared, -1.0, 2.0),
        IntervalProx(other, 0.0, 5.0),
        IntervalProx(shared, hi=0.5),
        IntervalProx(other),
        BPR(alpha=0.15, rho=1.0, theta=1.0, p=4.0),
    ]
    net = Network(["a", "b"], [("a", "b")] * len(specs))
    ops = OperatorSet(
        net,
        [ArcOperator(SeparableLift(spec), Box.free(1)) for spec in specs],
        [FixedSupply((0.0,)), FixedSupply((0.0,))],
    )
    assert [arcs.tolist() for _, arcs, _ in ops.families] == [[0, 2], [1, 3], [4]]
    gamma = np.array([0.5, 2.0, 1.5, 0.25, 1.0])
    xi = np.array([3.0, -4.0, 1.0, 7.0, 2.0])
    bound = ops.bind(gamma)
    for arcs in (np.arange(5), np.array([0, 3]), np.array([1, 2, 4])):
        got = ops.capacity_resolvent(arcs, bound, xi[arcs, None])[:, 0]
        want = [
            specs[j].resolvent(gamma[j], xi[j])
            if j == 4
            else min(max(specs[j].phi.prox(gamma[j], xi[j]), specs[j].lo), specs[j].hi)
            for j in arcs
        ]
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the free-flow screen: a row whose largest xi - lo is below its arc's
# gamma*c+(0) rests on its lower bounds and makes no kernel call
# ---------------------------------------------------------------------------


SCREEN_SPECS = [
    BPR(0.15, 2.0, 1.3, 4.0),
    BPR(1.0, 0.5, 0.7, 0.6),
    Logarithmic(8.0, 1.5),
    Logarithmic(3.0, 0.0),
    TRC(0.5, 0.1, 1.0, 1.0),
    TRC(40.0, 3.0, 0.2, 900.0),
    PowerExp(2.0, 1.0, 0.3),
    IntervalProx(AffinePhi(0.7), lo=-1.0, hi=5.0),
    IntervalProx(AffinePhi(-0.4), lo=0.0, hi=5.0),
    IntervalProx(AffinePhi(0.7), lo=-2.0, hi=0.0),
    IntervalProx(QuadraticPhi(2.0), lo=0.0, hi=math.inf),
    IntervalProx(PowerPhi(1.0), lo=-1.0, hi=3.0),
    IntervalProx(PowerPhi(1.0), lo=0.0, hi=3.0),
    IntervalProx(PowerPhi(1.5), lo=-math.inf, hi=math.inf),
    IntervalProx(PowerPhi(2.0), lo=-3.0, hi=0.0),
    IntervalProx(CustomPhi(lambda gamma, xi: xi - gamma * 0.5, lambda s: (0.5, 0.5)), lo=0.0, hi=5.0),
]


def free_flow(spec, gamma):
    """gamma*c+(0) from the spec's own subdifferential; -inf, never screened,
    where 0 is not in [lo, hi) and for a CustomPhi."""
    if isinstance(spec, IntervalProx) and (isinstance(spec.phi, CustomPhi) or not spec.lo <= 0.0 < spec.hi):
        return -math.inf
    return gamma * spec.subdiff(0.0)[1]


def screen_boxes(n_comm):
    """Orthant, finite, half-open and free boxes; only the first two have lower bounds 0."""
    return [
        Box.orthant(n_comm),
        Box((0.0,) * n_comm, (2.0,) * n_comm),
        Box((-1.0,) * n_comm, (math.inf,) * n_comm),
        Box((-math.inf,) * n_comm, (1.0,) * n_comm),
        Box.free(n_comm),
    ]


def screen_instance(n_comm):
    """One arc per spec and box, with each arc's gamma and free-flow threshold."""
    arcs = [ArcOperator(SeparableLift(spec), box) for spec in SCREEN_SPECS for box in screen_boxes(n_comm)]
    net = Network(["a", "b"], [("a", "b")] * len(arcs), n_comm)
    ops = OperatorSet(net, arcs, [FixedSupply((0.0,) * n_comm)] * 2)
    gamma = 10.0 ** np.linspace(-1.0, 1.0, len(arcs))
    t = np.array([free_flow(op.q.scalar, g) for op, g in zip(arcs, gamma)])
    return ops, gamma, t


def straddling_rows(rng, t, lo, scale):
    """Rows whose top commodity sits at t + (scale - 1)*|t| above lo (t = 0:
    scale - 1; t = -inf: scale), the others below it."""
    n_arcs, n_comm = lo.shape
    finite_t = np.where(np.isfinite(t), t, 1.0)
    top_value = np.where(finite_t != 0.0, finite_t + (scale - 1.0) * np.abs(finite_t), scale - 1.0)
    xi = top_value[:, None] - rng.uniform(0.0, 3.0, (n_arcs, n_comm))
    xi[np.arange(n_arcs), rng.integers(n_comm, size=n_arcs)] = top_value
    return np.where(np.isfinite(lo), lo, 0.0) + xi


def unscreened(bound):
    """A copy of a binding that screens no row: every row goes to its kernel."""
    copy = operators._Binding.__new__(operators._Binding)
    for name in operators._Binding.__slots__:
        setattr(copy, name, getattr(bound, name))
    copy.screen = np.full_like(bound.screen, -np.inf)
    return copy


@pytest.mark.parametrize("n_comm", [1, 2, 3])
@pytest.mark.parametrize("scale", [1.0 - 1e-9, 1.0 - 1e-14, 1.0 + 1e-9])
def test_rows_at_the_free_flow_threshold_match_the_kernel_path(n_comm, scale):
    # 1 - 1e-14 lies within the screen's margin, so those rows are solved
    # unless the threshold is 0
    rng = np.random.default_rng(int(7000 + 10 * n_comm + 1e9 * (scale - 1.0)))
    ops, gamma, t = screen_instance(n_comm)
    n_arcs = ops.network.n_arcs
    bound = ops.bind(gamma)
    xi = straddling_rows(rng, t, ops.box_lo, scale)
    sentinel = rng.uniform(0.5, 2.0, n_arcs)
    for arcs in (np.arange(n_arcs), np.flatnonzero(rng.random(n_arcs) < 0.5)):
        for guess in (None, np.clip(xi[arcs], ops.box_lo[arcs], ops.box_hi[arcs])):
            roots, kernel_roots = sentinel[arcs].copy(), sentinel[arcs].copy()
            got = ops.capacity_resolvent(arcs, bound, xi[arcs], roots, guess)
            want = ops.capacity_resolvent(arcs, unscreened(bound), xi[arcs], kernel_roots, guess)
            assert np.array_equal(got, want)
            # below the threshold a row with lower bounds 0 is screened and
            # keeps its start; at or above it every row is solved
            below = np.where(t[arcs] == 0.0, scale < 1.0, scale <= 1.0 - 1e-9)  # the margin is relative
            screened = below & (n_comm > 1) & np.isfinite(t[arcs]) & ~np.any(ops.box_lo[arcs], 1)
            assert np.array_equal(roots == sentinel[arcs], screened | (kernel_roots == sentinel[arcs]))
            assert np.array_equal(roots[~screened], kernel_roots[~screened], equal_nan=True)
            assert np.array_equal(got[screened], ops.box_lo[arcs][screened])
            if scale <= 1.0 - 1e-9 and n_comm > 1:
                assert screened.sum() >= arcs.size // 4


def test_screened_results_and_roots_do_not_depend_on_batch_mates():
    rng = np.random.default_rng(7100)
    ops, gamma, t = screen_instance(3)
    n_arcs = ops.network.n_arcs
    bound = ops.bind(gamma)
    xi = straddling_rows(rng, t, ops.box_lo, 1.0) * rng.uniform(0.5, 1.5, (n_arcs, 1))
    start = rng.uniform(0.5, 2.0, n_arcs)
    roots = start.copy()
    whole = ops.capacity_resolvent(np.arange(n_arcs), bound, xi, roots, xi)
    assert 0 < np.count_nonzero(roots == start) < n_arcs  # some rows screened, some solved
    for part in (np.arange(0, n_arcs, 3), np.flatnonzero(rng.random(n_arcs) < 0.3)):
        pick = start[part].copy()
        got = ops.capacity_resolvent(part, bound, xi[part], pick, xi[part])
        assert np.array_equal(got, whole[part]) and np.array_equal(pick, roots[part])
    for j in range(n_arcs):
        pick = start[[j]].copy()
        got = ops.capacity_resolvent(np.array([j]), bound, xi[[j]], pick, xi[[j]])
        assert np.array_equal(got[0], whole[j]) and np.array_equal(pick, roots[[j]])


def test_bind_reads_no_value_or_subdiff(monkeypatch):
    # the oracle checks through value/subdiff; the screen must not share them
    def forbidden(*args):
        raise AssertionError("bind read a spec's value or subdiff")

    rng = np.random.default_rng(7200)
    ops, gamma, t = screen_instance(2)
    for cls in (BPR, Logarithmic, TRC, PowerExp, IntervalProx, AffinePhi, QuadraticPhi, PowerPhi, CustomPhi):
        for name in ("value", "subdiff"):
            if hasattr(cls, name):
                monkeypatch.setattr(cls, name, forbidden)
    bound = ops.bind(gamma)
    xi = straddling_rows(rng, t, ops.box_lo, 1.0 - 1e-9)
    ops.capacity_resolvent(np.arange(ops.network.n_arcs), bound, xi)
    assert np.isfinite(bound.screen).sum() >= 2 * (len(SCREEN_SPECS) - 4)
