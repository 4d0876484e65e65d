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
    SeparableLift,
    SolverConfig,
    Termination,
    run,
    scalar_resolvent,
    wardrop_residual,
)

from netequil import lambertw, operators
from conftest import random_network

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
    s = scalar_resolvent(spec, gamma, xi)
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
        s1 = scalar_resolvent(spec, gamma, xi1)
        s2 = scalar_resolvent(spec, gamma, xi2)
        assert -1e-12 <= s2 - s1 <= (xi2 - xi1) + 1e-9 * max(1.0, abs(xi1))


class TestBPR:
    def test_below_kink_is_pure_shift(self):
        # gamma*theta = 2 > xi = 1, independent of the congestion parameters
        for alpha, rho, p in [(1.0, 1.0, 1.0), (3.0, 0.5, 4.0), (0.2, 7.0, 0.5)]:
            spec = BPR(alpha=alpha, rho=rho, theta=2.0, p=p)
            assert scalar_resolvent(spec, 1.0, 1.0) == -1.0

    def test_linear_case_solved_exactly(self):
        # p = 1 collapses the root equation to 2s = xi - 1, so J(3) = 1
        spec = BPR(alpha=1.0, rho=1.0, theta=1.0, p=1.0)
        assert scalar_resolvent(spec, 1.0, 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_boundary_point_goes_to_root_branch(self):
        spec = BPR(alpha=2.0, rho=1.0, theta=1.5, p=2.0)
        assert scalar_resolvent(spec, 1.0, 1.5) == 0.0

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
        assert scalar_resolvent(spec, 1.0, 1.0) == pytest.approx(
            0.4328567095902162, abs=1e-13
        )

    def test_output_strictly_below_omega(self):
        spec = Logarithmic(omega=1.0, theta=0.0)
        for xi in [-10.0, 0.0, 0.999, 1.0, 2.0, 1e3, 1e6]:
            assert scalar_resolvent(spec, 1.0, xi) < spec.omega

    def test_huge_argument_routes_through_asymptotic_w(self):
        spec = Logarithmic(omega=1.0, theta=0.0)
        s = scalar_resolvent(spec, 1.0, -2000.0)  # exp(~2001) would overflow
        assert math.isfinite(s)
        assert abs(s + spec.value(s) - (-2000.0)) <= 1e-9 * 2000.0

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError, match="omega > 0"):
            Logarithmic(omega=0.0, theta=1.0)
        with pytest.raises(ConfigurationError, match="theta >= 0"):
            Logarithmic(omega=1.0, theta=-0.5)


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
            closed = scalar_resolvent(spec, gamma, xi)
            assert abs(closed - invert_capacity(spec, gamma, xi)) <= 1e-10 * max(
                1.0, abs(closed)
            )

    def test_specific_point_against_inversion(self):
        spec = TRC(alpha=1.0, beta=1.0, delta=1.0, omega=1e-9)
        closed = scalar_resolvent(spec, 1.0, 0.0)
        assert abs(closed - invert_capacity(spec, 1.0, 0.0)) <= 1e-10

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError, match="beta > 0"):
            TRC(alpha=1.0, beta=0.0, delta=1.0, omega=1.0)


class TestPowerExp:
    def test_vanishing_operator_limit(self):
        spec = PowerExp(alpha=2.0, theta=1e-12, p=1.0)
        for xi in [-5.0, 0.0, 5.0]:
            assert abs(scalar_resolvent(spec, 1.0, xi) - xi) <= 1e-8

    def test_huge_exponent_stays_finite(self):
        spec = PowerExp(alpha=10.0, theta=1.0, p=1.0)
        s = scalar_resolvent(spec, 1.0, 500.0)  # 10**500 would overflow
        assert math.isfinite(s)
        assert abs(s + spec.value(s) - 500.0) <= 1e-9 * 500.0

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError, match="alpha > 1"):
            PowerExp(alpha=1.0, theta=1.0, p=1.0)


class TestIntervalProx:
    def test_pure_projection(self):
        spec = IntervalProx(AffinePhi(a=0.0), lo=0.0, hi=math.inf)
        assert scalar_resolvent(spec, 1.0, -2.0) == 0.0

    def test_affine_shift(self):
        spec = IntervalProx(AffinePhi(a=1.0), lo=-math.inf, hi=math.inf)
        out = scalar_resolvent(spec, 1.0, 5.0)
        assert out == 4.0
        assert out + 1.0 * 1.0 == 5.0  # identity: s + gamma*phi'(s) = xi

    def test_quadratic_then_clamp(self):
        # prox of 0.5*s^2 at 4 gives 2; the interval [0, 1] clamps to 1
        spec = IntervalProx(QuadraticPhi(a=1.0), lo=0.0, hi=1.0)
        assert scalar_resolvent(spec, 1.0, 4.0) == 1.0

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
    def test_power_prox_stationarity(self, q):
        # inside the interval the output obeys s + gamma*phi'(s) = xi
        rng = np.random.default_rng(int(10 * q))
        spec = IntervalProx(PowerPhi(q), lo=-100.0, hi=100.0)
        for _ in range(200):
            gamma = 10.0 ** rng.uniform(-2, 1)
            xi = rng.uniform(-20, 20)
            s = scalar_resolvent(spec, gamma, xi)
            g_lo, g_hi = spec.subdiff(s)
            resid = (xi - s) / gamma
            assert g_lo - 1e-9 <= resid <= g_hi + 1e-9

    def test_unsupported_power_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="q in"):
            PowerPhi(3.0)

    def test_empty_interval_rejected(self):
        with pytest.raises(ConfigurationError, match="lo <= hi"):
            IntervalProx(AffinePhi(a=0.0), lo=2.0, hi=1.0)

    def test_custom_phi_callback(self):
        spec = IntervalProx(CustomPhi(lambda gamma, xi: xi - gamma), lo=0.0, hi=math.inf)
        assert scalar_resolvent(spec, 2.0, 5.0) == 3.0
        assert scalar_resolvent(spec, 2.0, 1.0) == 0.0


class TestSeparableLift:
    def test_single_commodity_reduces_to_scalar(self):
        # eta = J(xi) - xi, so the output xi + eta equals J(xi) up to one rounding
        spec = BPR(alpha=1.0, rho=1.0, theta=1.0, p=2.0)
        lift = SeparableLift(spec)
        for xi in [-3.0, 0.5, 7.0]:
            out = lift.resolvent(0.7, np.array([xi]))
            assert out[0] == pytest.approx(scalar_resolvent(spec, 0.7, xi), rel=4e-16, abs=0)

    def test_uniform_shift_and_total(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            spec, gamma, _ = DRAWS[rng.choice(sorted(DRAWS))](rng)
            lift = SeparableLift(spec)
            n = int(rng.integers(1, 6))
            x = rng.standard_normal(n) * 3.0
            out = lift.resolvent(gamma, x)
            total = float(np.sum(x))
            eta = (scalar_resolvent(spec, n * gamma, total) - total) / n
            # the same scalar shift is applied to every coordinate
            assert np.array_equal(out, x + eta)
            assert abs(float(np.sum(out)) - scalar_resolvent(spec, n * gamma, total)) <= 1e-10 * max(
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


class TestBoxAndSupply:
    def test_points_inside_are_fixed(self):
        box = Box((-1.0, 0.0), (1.0, 2.0))
        x = np.array([0.5, 1.0])
        assert np.array_equal(box.project(x), x)

    def test_orthant_clamp(self):
        box = Box.orthant(2)
        np.testing.assert_array_equal(box.project(np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_idempotent(self):
        rng = np.random.default_rng(53)
        box = Box((-2.0, 0.0, -math.inf), (0.5, 1.0, math.inf))
        for _ in range(100):
            x = rng.standard_normal(3) * 5
            once = box.project(x)
            assert np.array_equal(box.project(once), once)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigurationError, match="lo <= hi"):
            Box((1.0,), (0.0,))

    def test_fixed_supply_ignores_input_and_step(self):
        supply = FixedSupply((2.0, -1.0))
        rng = np.random.default_rng(59)
        for sigma in [0.1, 1.0, 10.0]:
            y = rng.standard_normal(2)
            np.testing.assert_array_equal(supply.resolvent(sigma, y), [2.0, -1.0])

    def test_zero_supply(self):
        supply = FixedSupply((0.0,))
        assert supply.resolvent(1.0, np.array([123.0]))[0] == 0.0


class TestOperatorSet:
    def test_dimension_validation(self):
        net = Network(["a", "b"], [("a", "b")], 2)
        good_arc = ArcOperator(SeparableLift(TRC(1.0, 1.0, 1.0, 1.0)), Box.orthant(2))
        with pytest.raises(ConfigurationError, match="arc operators"):
            OperatorSet(net, [], [FixedSupply((0.0, 0.0))] * 2)
        with pytest.raises(ConfigurationError, match="supply has"):
            OperatorSet(net, [good_arc], [FixedSupply((0.0,)), FixedSupply((0.0, 0.0))])
        with pytest.raises(ConfigurationError, match="box has"):
            OperatorSet(
                net,
                [ArcOperator(SeparableLift(TRC(1.0, 1.0, 1.0, 1.0)), Box.orthant(1))],
                [FixedSupply((0.0, 0.0))] * 2,
            )

    def test_gamma_must_be_positive(self):
        spec = TRC(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError, match="positive"):
            scalar_resolvent(spec, 0.0, 1.0)


# ---------------------------------------------------------------------------
# the batched kernels: spec.family() names a kernel and its parameters; the
# scalar resolvent is the size-1 batch
# ---------------------------------------------------------------------------


def regime_draws(family, rng, n=600):
    """(spec, gamma, xi) draws for one family, mixing the branches of its kernel."""
    out = []
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
            spec = IntervalProx(CustomPhi(lambda g, x: x / (1.0 + g)), lo=rng.uniform(-5.0, 0.0))
            gamma, xi = 10.0 ** rng.uniform(-2, 1), rng.uniform(-40.0, 40.0)
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


@pytest.mark.parametrize("family", BATCH_FAMILIES)
def test_batch_matches_size1_calls_bitwise(family):
    rng = np.random.default_rng(BATCH_FAMILIES.index(family) + 100)
    items = regime_draws(family, rng)
    single = np.array([spec.resolvent(gamma, xi) for spec, gamma, xi in items])
    assert np.array_equal(batch_resolvent(items), single)
    # an element's result does not depend on which elements share its batch
    order = rng.permutation(len(items))
    cut = len(items) // 3
    shuffled = np.empty(len(items))
    for part in (order[:cut], order[cut:]):
        shuffled[part] = batch_resolvent([items[i] for i in part])
    assert np.array_equal(shuffled, single)


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


@pytest.mark.parametrize("family", ["log", "powerexp"])
def test_lambert_kernels_from_their_own_roots_need_one_halley_pass(family, monkeypatch):
    items = array_draws("one-pass-", family, 500)
    cold = batch_resolvent(items)
    monkeypatch.setattr(lambertw, "_MAX_ITER", 1)
    assert identity_errors(items, batch_resolvent(items)).max() > 1e-10
    assert identity_errors(items, batch_resolvent(items, cold.copy())).max() <= 1e-13


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
        for arcs in (np.arange(net.n_arcs), np.flatnonzero(rng.random(net.n_arcs) < 0.4)):
            # no usable start: the cold result, and the roots come back in place
            start = np.full(arcs.size, np.nan)
            out = ops.capacity_resolvent(arcs, gamma[arcs], x[arcs], start)
            assert np.array_equal(out, ops.capacity_resolvent(arcs, gamma[arcs], x[arcs]))
            roots = [scalar_resolvent(specs[j], scaled[j], x[j].sum()) for j in arcs]
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
    gamma = np.ones(net.n_arcs)
    arcs = np.arange(net.n_arcs)
    roots = np.full(net.n_arcs, np.nan)
    cold = ops.capacity_resolvent(arcs, gamma, x, roots)
    monkeypatch.setattr(operators, "_BPR_MAX_ITER", 1)
    with pytest.raises(NumericalFailure):
        ops.capacity_resolvent(arcs, gamma, x)
    for rows in (arcs, arcs[::2]):
        warm = ops.capacity_resolvent(rows, gamma[rows], x[rows], roots[rows])
        np.testing.assert_allclose(warm, cold[rows], rtol=1e-14)


def test_capacity_resolvent_matches_lift_resolvent_bitwise():
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
        single = np.array([SeparableLift(s).resolvent(g, row) for s, g, row in zip(specs, gamma, x)])
        for arcs in (np.arange(net.n_arcs), np.flatnonzero(rng.random(net.n_arcs) < 0.4)):
            out = ops.capacity_resolvent(arcs, gamma[arcs], x[arcs])
            assert np.array_equal(out, single[arcs])


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
        assert len(ops.families) == 5
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
