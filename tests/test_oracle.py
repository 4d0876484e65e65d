import decimal
import math
import warnings

import numpy as np
import pytest

from netequil import (
    ConfigurationError,
    InfeasibilityError,
    Network,
    SolverConfig,
    Termination,
    TwoArcInstance,
    analytic_two_arc,
    frank_wolfe_reference,
    run,
    wardrop_residual,
)
from netequil.operators import (
    BPR,
    AffinePhi,
    ArcOperator,
    Box,
    FixedSupply,
    TRC,
    IntervalProx,
    Logarithmic,
    OperatorSet,
    SeparableLift,
)
from netequil.oracle import _arc_violations

from conftest import (
    BRAESS_COST,
    BRAESS_FLOW,
    braess_bpr_specs,
    braess_network,
    braess_supplies,
)


class TestAnalyticTwoArc:
    def test_reference_instance(self):
        # 1 + x1 = 2 + x2 with x1 + x2 = 3 gives x = (2, 1), cost 3
        flow, lam, gap = analytic_two_arc(TwoArcInstance(1.0, 2.0, 1.0, 1.0, 3.0))
        np.testing.assert_allclose(flow, [2.0, 1.0], atol=1e-14)
        assert lam == pytest.approx(3.0, abs=1e-14)
        assert gap == lam

    def test_symmetric_split(self):
        flow, lam, _ = analytic_two_arc(TwoArcInstance(2.0, 2.0, 0.7, 0.7, 5.0))
        np.testing.assert_allclose(flow, [2.5, 2.5], atol=1e-14)
        assert lam == pytest.approx(2.0 + 0.7 * 2.5)

    def test_corner_solution_with_complementarity(self):
        # arc 1 at zero flow costs 10, above arc 2 at full demand (cost 1)
        inst = TwoArcInstance(10.0, 0.0, 1.0, 1.0, 1.0)
        flow, lam, _ = analytic_two_arc(inst)
        np.testing.assert_allclose(flow, [0.0, 1.0], atol=1e-14)
        assert lam == pytest.approx(1.0)

    def test_mirror_corner_solution(self):
        # arc 2 at zero flow costs 10, above arc 1 at full demand (cost 1)
        flow, lam, _ = analytic_two_arc(TwoArcInstance(0.0, 10.0, 1.0, 1.0, 1.0))
        np.testing.assert_allclose(flow, [1.0, 0.0], atol=1e-14)
        assert lam == pytest.approx(1.0)

    @staticmethod
    def assert_complementarity(inst, flow, lam):
        assert flow.min() >= 0.0 and flow.sum() == pytest.approx(inst.demand, rel=1e-15)
        for arc in (0, 1):
            cost = inst.cost(arc, flow[arc])
            if flow[arc] > 0.0:
                assert cost == pytest.approx(lam, rel=1e-12)
            else:
                assert cost >= lam * (1.0 - 1e-12)

    def test_near_tie_instance_is_solved(self):
        # arc 1 at zero flow ties with arc 2 at full demand up to rounding,
        # where choosing the corner from the formula for x1 contradicted
        # the complementarity comparison
        inst = TwoArcInstance(
            31.68614721640625, 9.718824293124191, 4.483610011697901, 2.926105764977227, 7.50735779485846
        )
        flow, lam, _ = analytic_two_arc(inst)
        self.assert_complementarity(inst, flow, lam)

    def test_near_tie_draws_satisfy_complementarity(self):
        rng = np.random.default_rng(17)
        for _ in range(2_000):
            a2, b1, b2, d = rng.uniform(0.1, 10.0, 4)
            # arc 1 free-flow cost equal to arc 2 at full demand, give or take an ulp
            a1 = (a2 + b2 * d) * (1.0 + rng.integers(-2, 3) * 2.0**-52)
            inst = TwoArcInstance(a1, a2, b1, b2, d) if rng.random() < 0.5 else TwoArcInstance(a2, a1, b2, b1, d)
            flow, lam, _ = analytic_two_arc(inst)
            self.assert_complementarity(inst, flow, lam)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError, match="demand"):
            TwoArcInstance(1.0, 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ConfigurationError, match="slopes"):
            TwoArcInstance(1.0, 1.0, -1.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError, match="nonnegative intercepts"):
            TwoArcInstance(1.0, -0.5, 1.0, 1.0, 1.0)

    def test_bpr_realization_needs_positive_intercepts(self):
        inst = TwoArcInstance(10.0, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError, match="positive intercepts"):
            inst.operator_set()


class TestFrankWolfe:
    def test_two_arc_matches_analytic(self, two_arc):
        inst, net, _ = two_arc
        flow, _, _ = analytic_two_arc(inst)
        specs = [op.q.scalar for op in inst.operator_set(net).arc_operators]
        fw = frank_wolfe_reference(net, specs, np.array([3.0, -3.0]), iterations=5000)
        np.testing.assert_allclose(fw[:, 0], flow, atol=1e-3)

    def test_single_arc_one_iteration(self):
        net = Network(["a", "b"], [("a", "b")], 1)
        spec = BPR(alpha=1.0, rho=1.0, theta=1.0, p=1.0)
        fw = frank_wolfe_reference(net, [spec], np.array([4.0, -4.0]), iterations=1)
        assert fw[0, 0] == 4.0

    def test_braess_diamond_matches_hand_derivation(self):
        net = braess_network()
        fw = frank_wolfe_reference(net, braess_bpr_specs(), braess_supplies(), iterations=10_000)
        np.testing.assert_allclose(fw[:, 0], BRAESS_FLOW, atol=1e-3)
        # all three routes carry the common cost 1200/13 at the reference point
        costs = np.array(
            [spec.value(f) for spec, f in zip(braess_bpr_specs(), fw[:, 0])]
        )
        for route in ([0, 2], [1, 3], [0, 4, 3]):
            assert costs[route].sum() == pytest.approx(BRAESS_COST, abs=0.05)

    def test_disconnected_pair_is_infeasible(self):
        net = Network(["a", "b", "c"], [("b", "a")], 1)
        spec = BPR(alpha=1.0, rho=1.0, theta=1.0, p=1.0)
        with pytest.raises(InfeasibilityError, match="no path"):
            frank_wolfe_reference(net, [spec], np.array([1.0, 0.0, -1.0]), iterations=3)

    def test_multicommodity_rejected(self):
        net = Network(["a", "b"], [("a", "b")], 2)
        spec = BPR(alpha=1.0, rho=1.0, theta=1.0, p=1.0)
        with pytest.raises(ConfigurationError, match="single-commodity"):
            frank_wolfe_reference(net, [spec], np.array([[1.0, 1.0], [-1.0, -1.0]]))

    def test_unbalanced_supplies_rejected(self, two_arc):
        _, net, ops = two_arc
        specs = [op.q.scalar for op in ops.arc_operators]
        with pytest.raises(ConfigurationError, match="balance"):
            frank_wolfe_reference(net, specs, np.array([3.0, -2.0]))

    def test_a_spec_count_other_than_the_arc_count_is_rejected(self, two_arc):
        _, net, ops = two_arc
        specs = [op.q.scalar for op in ops.arc_operators]
        with pytest.raises(ConfigurationError, match="one congestion spec per arc"):
            frank_wolfe_reference(net, specs[:1], np.array([3.0, -3.0]))


class TestWardropResidual:
    def test_zero_at_analytic_solution(self, two_arc):
        inst, net, ops = two_arc
        flow, lam, _ = analytic_two_arc(inst)
        potential = np.array([[0.0], [lam]])
        assert wardrop_residual(net, ops, flow.reshape(-1, 1), potential) <= 1e-10

    def test_perturbed_flow_detected(self, two_arc):
        # costs at (2.1, 0.9) are 3.1 and 2.9 against a tension of 3, so the
        # inclusion gap is exactly 0.1 on each arc
        _, net, ops = two_arc
        flow = np.array([[2.1], [0.9]])
        potential = np.array([[0.0], [3.0]])
        wr = wardrop_residual(net, ops, flow, potential)
        assert wr >= 0.09
        assert wr == pytest.approx(0.1, rel=1e-9)

    def test_zero_demand_zero_state(self):
        inst = TwoArcInstance(1.0, 1.0, 1.0, 1.0, 1.0)
        net = inst.network()
        ops = inst.operator_set(net)
        # zero both supplies: zero flow with tension equal to free-flow cost
        from netequil.operators import FixedSupply, OperatorSet

        ops0 = OperatorSet(net, ops.arc_operators, [FixedSupply((0.0,))] * 2)
        flow = np.zeros((2, 1))
        potential = np.array([[0.0], [1.0]])  # tension 1 = theta, cones absorb nothing
        assert wardrop_residual(net, ops0, flow, potential) <= 1e-12

    def test_corner_solution_passes(self):
        inst = TwoArcInstance(10.0, 0.25, 1.0, 1.0, 1.0)
        net = inst.network()
        ops = inst.operator_set(net)
        flow, lam, _ = analytic_two_arc(inst)
        potential = np.array([[0.0], [lam]])
        assert wardrop_residual(net, ops, flow.reshape(-1, 1), potential) <= 1e-10

    def test_domain_escape_returns_sentinel(self):
        from netequil.operators import (
            ArcOperator,
            Box,
            FixedSupply,
            Logarithmic,
            OperatorSet,
            SeparableLift,
        )

        net = Network(["a", "b"], [("a", "b")], 1)
        ops = OperatorSet(
            net,
            [ArcOperator(SeparableLift(Logarithmic(omega=1.0)), Box.free(1))],
            [FixedSupply((2.0,)), FixedSupply((-2.0,))],
        )
        with pytest.warns(UserWarning, match="outside the capacity"):
            wr = wardrop_residual(net, ops, np.array([[2.0]]), np.zeros((2, 1)))
        assert wr == np.inf

    @pytest.mark.parametrize(
        "kind, value, message",
        [
            ("flow", math.nan, "arc 1: flow [nan] is not finite"),
            ("flow", math.inf, "arc 1: flow [inf] is not finite"),
            ("potential", math.nan, "node 1: potential [nan] is not finite"),
            ("potential", -math.inf, "node 1: potential [-inf] is not finite"),
        ],
    )
    def test_non_finite_input_returns_sentinel_with_one_warning(self, two_arc, kind, value, message):
        # nan used to pass through as the residual, and inf leaked numpy's RuntimeWarning
        _, net, ops = two_arc
        point = {"flow": np.array([[2.0], [1.0]]), "potential": np.array([[0.0], [3.0]])}
        point[kind][1, 0] = value
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            wr = wardrop_residual(net, ops, point["flow"], point["potential"])
        assert wr == math.inf
        assert [(w.category, str(w.message)) for w in caught] == [(UserWarning, message)]

    @pytest.mark.parametrize(
        "flow, potential",
        [([2.0, 1.0], [-1e200, 1e200]), ([1e200, 1.0], [0.0, 0.0])],
        ids=["tension", "flow"],
    )
    def test_a_violation_beyond_the_float_range_reads_inf_without_a_warning(self, two_arc, flow, potential):
        # finite entries whose squared violation overflows: that overflow
        # used to leak numpy's RuntimeWarning
        _, net, ops = two_arc
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            wr = wardrop_residual(net, ops, np.array(flow)[:, None], np.array(potential)[:, None])
        assert wr == math.inf
        assert caught == []

    def test_flow_outside_box_returns_sentinel(self, two_arc):
        _, net, ops = two_arc
        with pytest.warns(UserWarning, match="constraint box"):
            wr = wardrop_residual(net, ops, np.array([[-1.0], [4.0]]), np.zeros((2, 1)))
        assert wr == np.inf

    @pytest.mark.parametrize(
        "hi, tension, flow, past",
        [
            (math.inf, 1.0, [3.0, -5e-8], [0.0, -1e-5]),  # arc 1 idle, just below lo
            (2.0, 2.0, [2.0 + 5e-8, 1.0 - 5e-8], [1e-5, 0.0]),  # arc 0 full, just above hi
        ],
    )
    def test_interval_bound_gets_the_box_slack(self, hi, tension, flow, past):
        # arc 0 costs 1 on [0, hi], arc 1 costs 2 on [0, inf[: demand 3 fills
        # arc 0 up to hi and sends the rest over arc 1
        net = Network(["a", "b"], [("a", "b"), ("a", "b")], 1)
        arc_ops = [
            ArcOperator(SeparableLift(IntervalProx(AffinePhi(a), lo=0.0, hi=top)), Box.orthant(1))
            for a, top in ((1.0, hi), (2.0, math.inf))
        ]
        ops = OperatorSet(net, arc_ops, [FixedSupply((3.0,)), FixedSupply((-3.0,))])
        potential = np.array([[0.0], [tension]])
        x = np.array(flow).reshape(-1, 1)
        assert wardrop_residual(net, ops, x, potential) <= 1e-7
        # beyond the slack the total leaves the interval
        with pytest.warns(UserWarning, match="outside the capacity"):
            far = x + np.array(past).reshape(-1, 1)
            assert wardrop_residual(net, ops, far, potential) == np.inf

    @staticmethod
    def _one_log_arc(total):
        """(net, ops, x) of one arc a -> b at the flow `total`, which the
        supplies balance, costing Logarithmic(omega=2, theta=1)."""
        net = Network(["a", "b"], [("a", "b")], 1)
        arc = ArcOperator(SeparableLift(Logarithmic(omega=2.0, theta=1.0)), Box.orthant(1))
        ops = OperatorSet(net, [arc], [FixedSupply((total,)), FixedSupply((-total,))])
        return net, ops, np.array([[total]])

    @pytest.mark.parametrize("offset", [-2e-7, -1e-12, 0.0, 1e-12, 2e-7])
    def test_logarithmic_pole_gets_the_box_slack(self, offset):
        # a total within the slack 3e-7 of omega = 2 sits at the pole, where the
        # costs are [value(omega - slack), inf): no float total may lie closer
        # to omega than the equilibrium flux of a large tension
        net, ops, x = self._one_log_arc(2.0 + offset)
        floor = Logarithmic(omega=2.0, theta=1.0).value(2.0 - 3e-7)
        for tension in (floor, 55.0, 1e300):
            assert wardrop_residual(net, ops, x, np.array([[0.0], [tension]])) <= 1e-12
        assert wardrop_residual(net, ops, x, np.array([[0.0], [10.0]])) == pytest.approx(floor - 10.0, rel=1e-12)

    def test_logarithmic_total_past_the_pole_slack_is_checked_as_it_is(self):
        potential = np.array([[0.0], [55.0]])
        # below the slack the total has its own cost, far below the tension
        net, ops, x = self._one_log_arc(2.0 - 1e-5)
        cost = Logarithmic(omega=2.0, theta=1.0).value(2.0 - 1e-5)
        assert wardrop_residual(net, ops, x, potential) == pytest.approx(55.0 - cost, rel=1e-12)
        # beyond it the total leaves the domain
        net, ops, x = self._one_log_arc(2.0 + 1e-5)
        with pytest.warns(UserWarning, match="outside the capacity"):
            assert wardrop_residual(net, ops, x, potential) == np.inf


def _grid_violations(h, at_lo, at_hi, c_lo, c_hi, points=2001):
    """Minimum of the per-arc violation over an even grid of y, and the grid step."""
    lo = np.clip(h.min(axis=1) - 1.0, c_lo, c_hi)
    hi = np.clip(h.max(axis=1) + 1.0, c_lo, c_hi)
    y = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, points)
    g = h[:, None, :] - y[:, :, None]
    lo_m, hi_m = at_lo[:, None, :], at_hi[:, None, :]
    # distance to the cone ]-inf, 0] at a lower bound, [0, inf[ at an upper
    # one, R at both and {0} inside
    d = np.where(lo_m, np.maximum(g, 0.0), np.where(hi_m, np.maximum(-g, 0.0), np.abs(g)))
    d = np.where(lo_m & hi_m, 0.0, d)
    return np.sqrt((d * d).sum(axis=2)).min(axis=1), (hi - lo) / (points - 1)


@pytest.mark.parametrize("n_comm", [1, 2, 3, 4])
def test_arc_violation_is_the_exact_minimum(n_comm):
    # each coordinate is strictly inside its box, at its lower bound, at its
    # upper bound or at both; [c_lo, c_hi] is finite, a point or a half-line;
    # a third of the tension entries are rounded to integers so that
    # breakpoints tie
    rng = np.random.default_rng(n_comm)
    for _ in range(5):
        n = 500
        h = rng.normal(scale=2.0, size=(n, n_comm))
        h = np.where(rng.random((n, n_comm)) < 0.3, np.round(h), h)
        kind = rng.integers(0, 4, size=(n, n_comm))
        at_lo, at_hi = (kind == 1) | (kind == 3), (kind == 2) | (kind == 3)
        a, b = np.sort(rng.normal(scale=3.0, size=(2, n)), axis=0)
        shape = rng.integers(0, 4, size=n)
        c_lo = np.where(shape == 3, -np.inf, a)
        c_hi = np.where(shape == 1, a, np.where(shape == 2, np.inf, b))
        exact = _arc_violations(h, at_lo, at_hi, np.stack([c_lo, c_hi], axis=1))
        grid, step = _grid_violations(h, at_lo, at_hi, c_lo, c_hi)
        # the violation is sqrt(n_comm)-Lipschitz in y
        assert np.all(exact <= grid + 1e-12)
        assert np.all(grid - exact <= math.sqrt(n_comm) * step / 2 + 1e-12)


class TestSolverAgainstOracles:
    def test_solver_matches_frank_wolfe_on_braess(self, braess):
        net, ops, specs = braess
        state, _, reason = run(net, ops, SolverConfig(tol=1e-6, max_iter=10**5))
        assert reason is Termination.CONVERGED
        fw = frank_wolfe_reference(net, specs, braess_supplies(), iterations=10_000)
        np.testing.assert_allclose(state.x, fw, atol=1e-3)
        assert wardrop_residual(net, ops, state.x, state.v) <= 1e-5

    def test_multicommodity_totals_match_single_commodity(self):
        # two commodities sharing the arcs: costs see total flux, so totals
        # must reproduce the single-commodity equilibrium
        from netequil.operators import ArcOperator, Box, FixedSupply, OperatorSet

        inst = TwoArcInstance(1.0, 2.0, 1.0, 1.0, 3.0)
        net = Network(["a", "b"], [("a", "b"), ("a", "b")], 2)
        single_ops = inst.operator_set()
        arc_ops = [
            ArcOperator(op.q, Box.orthant(2)) for op in single_ops.arc_operators
        ]
        node_ops = [FixedSupply((2.0, 1.0)), FixedSupply((-2.0, -1.0))]
        ops = OperatorSet(net, arc_ops, node_ops)
        state, _, reason = run(net, ops, SolverConfig(tol=1e-7, max_iter=10**5))
        assert reason is Termination.CONVERGED
        totals = state.x.sum(axis=1)
        np.testing.assert_allclose(totals, [2.0, 1.0], atol=1e-5)
        # per-commodity conservation holds too
        np.testing.assert_allclose(
            net.divergence(state.x), ops.supplies, atol=1e-5
        )


# ---------------------------------------------------------------------------
# the cost values the equilibrium check reads, against 50-digit references
# ---------------------------------------------------------------------------


def decimal_value(spec, s):
    """spec.value(s) from its defining formula in 50-digit decimals, rounded once."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        if isinstance(spec, Logarithmic):
            return float(D(spec.theta) + (D(spec.omega) / (D(spec.omega) - D(s))).ln())
        d = D(s) - D(spec.omega)
        return float(D(spec.delta) + D(spec.alpha) * d + (D(spec.alpha) ** 2 * d * d + D(spec.beta)).sqrt())


def test_logarithmic_value_keeps_its_digits_near_zero_flux():
    # log(omega/(omega - s)) reads 8.0e-4 and 8.3e-8 relative error at these
    # two, and misses 1e-13 on 912 of the draws below, by up to 8.8e-2
    for spec, s in ((Logarithmic(2.0, 0.0), 1e-13), (Logarithmic(1.0, 0.0), 1e-10)):
        assert spec.value(s) == pytest.approx(decimal_value(spec, s), rel=1e-15, abs=0.0)
    rng = np.random.default_rng(97)
    for _ in range(3000):
        spec = Logarithmic(omega=10.0 ** rng.uniform(-3, 8))
        if rng.random() < 0.5:
            s = spec.omega * (1.0 - 10.0 ** rng.uniform(-12, 0))
        else:
            s = rng.choice([-1.0, 1.0]) * spec.omega * 10.0 ** rng.uniform(-15, 3)
        if s < spec.omega:
            assert spec.value(s) == pytest.approx(decimal_value(spec, s), rel=1e-13, abs=0.0)


def test_trc_value_keeps_its_digits_below_omega():
    # delta + alpha*d + sqrt(alpha^2 d^2 + beta) cancels for d << 0: in that
    # form 437 of these draws miss 1e-13 relative, the worst by 5.2e-6
    rng = np.random.default_rng(98)
    for _ in range(3000):
        spec = TRC(*(10.0 ** rng.uniform(-3, 3, 4)))
        d = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 6)
        s = spec.omega + d
        assert spec.value(s) == pytest.approx(decimal_value(spec, s), rel=1e-13, abs=0.0)
