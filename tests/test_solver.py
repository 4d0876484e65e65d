import copy
import dataclasses
import math
import warnings

import numpy as np
import pytest

from netequil import (
    BPR,
    ConfigurationError,
    Full,
    Network,
    NumericalFailure,
    RandomSweep,
    RoundRobin,
    SolverConfig,
    SolverState,
    Termination,
    TwoArcInstance,
    analytic_two_arc,
    initial_state,
    make_scheduler,
    new_workspace,
    residual,
    run,
    wardrop_residual,
    step,
    sweep_bound,
)
from netequil import operators, oracle, solver
from netequil.fileio import Problem, parse_problem, serialize_problem
from netequil.operators import (
    TRC,
    AffinePhi,
    ArcOperator,
    Box,
    CustomPhi,
    FixedSupply,
    IntervalProx,
    Logarithmic,
    OperatorSet,
    PowerExp,
    QuadraticPhi,
    SeparableLift,
)

from conftest import bpr_operators, grid_instance, random_network, weak_components
from random_problems import random_problem


def solved_state(net, inst):
    """Exact equilibrium pair of the two-arc instance."""
    flow, lam, _ = analytic_two_arc(inst)
    state = initial_state(net)
    state.x[:, 0] = flow
    state.v[:, 0] = [-lam / 2, lam / 2]
    return state


# ---------------------------------------------------------------------------
# schedulers
# ---------------------------------------------------------------------------


class TestSchedulers:
    def test_full_selects_everything(self, two_arc):
        _, net, _ = two_arc
        sched = make_scheduler(Full(), net, 0)
        for n in range(5):
            assert sched.select(n).all()

    def test_full_is_a_one_group_round_robin(self, braess):
        net, _, _ = braess
        sched, ref = make_scheduler(Full(), net, 0), make_scheduler(RoundRobin(1), net, 0)
        for n in range(4):
            got, want = sched.select(n), ref.select(n)
            assert np.array_equal(got, want) and got.all()
        sched.select = ref.select  # a tracer may wrap select on the returned object

    def test_full_is_the_round_robin_spec_of_one_group(self):
        assert isinstance(Full(), RoundRobin) and Full().arc_groups == 1
        assert sweep_bound(Full()) == sweep_bound(RoundRobin(1)) == 0
        # still its own spec: it compares, prints and is written as itself
        assert Full() != RoundRobin(1) and repr(Full()) == "Full()"
        with pytest.raises(TypeError):
            Full(3)
        with pytest.raises(ValueError):
            dataclasses.replace(Full(), arc_groups=2)

    def test_round_robin_alternates_and_covers(self, two_arc):
        _, net, _ = two_arc
        sched = make_scheduler(RoundRobin(2), net, 1)
        assert sched.select(0).all()  # iteration 0 activates everything
        history = [sched.select(n) for n in range(1, 12)]
        for n, mask in zip(range(1, 12), history):
            expected = np.arange(2) % 2 == n % 2
            assert np.array_equal(mask, expected)
        for k in range(len(history) - 1):  # any window of T+1 = 2 covers all arcs
            assert (history[k] | history[k + 1]).all()

    def test_random_sweep_forces_stale_blocks(self):
        net = Network(range(4), [(i, (i + 1) % 4) for i in range(4)], 1)
        sched = make_scheduler(RandomSweep(seed=5, activation_prob=0.0), net, 3)
        arc_hist = [sched.select(n) for n in range(100)]
        for n in range(100 - 4):
            window = np.any(arc_hist[n : n + 4], axis=0)
            assert window.all()  # with p = 0, staleness alone activates every 4th

    def test_random_sweep_never_empty(self):
        net = Network(range(3), [(0, 1), (1, 2), (2, 0)], 1)
        sched = make_scheduler(RandomSweep(seed=11, activation_prob=0.05), net, 50)
        for n in range(200):
            arcs = sched.select(n)
            assert arcs.dtype == bool and arcs.shape == (net.n_arcs,) and arcs.any()

    def test_sweep_condition_all_schedulers(self):
        rng = np.random.default_rng(2)
        net = random_network(rng, max_nodes=8, max_arcs=15)
        ops = bpr_operators(net, rng)
        cases = [
            (Full(), 0),
            (RoundRobin(2), 2),
            (RandomSweep(seed=1, activation_prob=0.4), 3),
        ]
        for spec, T in cases:
            sched = make_scheduler(spec, net, T)
            arc_hist = [sched.select(n) for n in range(300 + T + 1)]
            for n in range(300):
                assert np.any(arc_hist[n : n + T + 1], axis=0).all()
            # every step activates every node
            cfg = SolverConfig(scheduler=spec, T=T, max_iter=60, tol=1e-300)
            _, trace, _ = run(net, ops, cfg)
            assert len(trace) == 60
            assert all(rec.active_nodes == net.n_nodes for rec in trace)

    def test_round_robin_rejected_when_groups_exceed_window(self, two_arc):
        _, net, _ = two_arc
        with pytest.raises(ConfigurationError, match="sweep bound"):
            make_scheduler(RoundRobin(2), net, 0)

    def test_round_robin_rejected_when_groups_exceed_blocks(self, two_arc):
        _, net, _ = two_arc
        with pytest.raises(ConfigurationError, match="available blocks"):
            make_scheduler(RoundRobin(3), net, 5)

    def test_bad_activation_probability(self, two_arc):
        _, net, _ = two_arc
        with pytest.raises(ConfigurationError, match="probability"):
            make_scheduler(RandomSweep(seed=0, activation_prob=1.5), net, 1)

    def test_random_sweep_queried_out_of_order_rejected(self, two_arc):
        _, net, _ = two_arc
        sched = make_scheduler(RandomSweep(seed=0, activation_prob=0.5), net, 1)
        sched.select(0)
        with pytest.raises(ConfigurationError, match="sequentially \\(expected n=1\\)"):
            sched.select(2)

    def test_unknown_spec_with_an_explicit_sweep_bound_rejected(self, two_arc):
        _, net, _ = two_arc
        with pytest.raises(ConfigurationError, match="unknown scheduler spec"):
            make_scheduler(object(), net, 1)

    def test_sweep_bound_of_the_wrong_type_rejected_before_it_is_compared(self, two_arc):
        _, net, _ = two_arc
        for T in ("2", 1.0, True):
            with pytest.raises(ConfigurationError, match="sweep bound T"):
                make_scheduler(Full(), net, T)
        assert make_scheduler(Full(), net, np.int64(2)).select(1).all()
        # None is not rejected: it takes the scheduler's own bound
        assert make_scheduler(RoundRobin(2), net, None).select(1).tolist() == [False, True]

    @pytest.mark.parametrize("groups", [True, 2.0, "2", 0, -1])
    def test_round_robin_group_count_must_be_a_positive_integer(self, groups):
        with pytest.raises(ConfigurationError, match="positive integer"):
            RoundRobin(groups)

    @pytest.mark.parametrize("seed", [1.5, -1, True, "3", None])
    def test_random_sweep_seed_rejected_at_construction(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            RandomSweep(seed=seed)

    @pytest.mark.parametrize("prob", [True, np.bool_(True), "0.5", None, 1.5])
    def test_random_sweep_probability_rejected_at_construction(self, prob):
        with pytest.raises(ConfigurationError, match="probability"):
            RandomSweep(activation_prob=prob)

    def test_round_robin_has_no_node_groups(self):
        with pytest.raises(TypeError):
            RoundRobin(3, node_groups=2)

    def test_random_sweep_is_deterministic_per_seed(self, two_arc):
        _, net, _ = two_arc
        a = make_scheduler(RandomSweep(seed=9, activation_prob=0.5), net, 2)
        b = make_scheduler(RandomSweep(seed=9, activation_prob=0.5), net, 2)
        for n in range(50):
            assert np.array_equal(a.select(n), b.select(n))


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


class TestConfig:
    def test_relaxation_range(self):
        # the convergence theorem allows any fixed relaxation in ]0, 2[
        assert 0.0 < solver.RELAXATION < 2.0

    @pytest.mark.parametrize(
        "relaxation",
        [
            "x",
            "1.5",
            None,
            (lambda n: 1.0, 0.5),
            (lambda n: 1.0, "0.5", 1.0),
            (lambda n: 1.0, 0.5, 1.5),
            True,
        ],
    )
    def test_relaxation_of_the_wrong_type_rejected(self, relaxation):
        # the relaxation is the constant RELAXATION: no value of any type is a setting
        with pytest.raises(TypeError, match="relaxation"):
            SolverConfig(relaxation=relaxation)

    def test_the_check_interval_is_the_constant_and_no_setting(self):
        assert SolverConfig().check_interval == SolverConfig.check_interval == solver.CHECK_INTERVAL
        assert "check_interval" not in {f.name for f in dataclasses.fields(SolverConfig)}
        with pytest.raises(TypeError, match="check_interval"):
            SolverConfig(check_interval=5)

    @pytest.mark.parametrize(
        "field, value", [("tol", -1.0), ("T", 2), ("scheduler", Full()), ("check_interval", 5)]
    )
    def test_a_config_cannot_be_changed_after_its_checks(self, field, value):
        # a tol of -1 assigned after construction used to spend the whole budget
        cfg = SolverConfig(max_iter=50)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, value)
        assert dataclasses.replace(cfg, tol=1e-3).tol == 1e-3

    @pytest.mark.parametrize("field", ["gamma", "sigma"])
    def test_the_step_parameters_are_no_settings(self, field):
        # every scheduler steps at gamma = 1, the binding new_workspace makes
        with pytest.raises(TypeError, match=field):
            SolverConfig(**{field: 0.5})
        assert [f.name for f in dataclasses.fields(SolverConfig)] == ["T", "scheduler", "tol", "max_iter"]

    def test_configs_of_equal_values_are_equal_and_hash_equal(self):
        # a config is a value: equal settings give equal configs and hashes
        first = SolverConfig(T=4, scheduler=RoundRobin(2), tol=0.25)
        second = SolverConfig(T=np.int64(4), scheduler=RoundRobin(2), tol=np.float64(0.25))
        assert first == second and hash(first) == hash(second)

    @pytest.mark.parametrize("scheduler", ["full", None, Full, 0])
    def test_a_scheduler_that_is_not_a_spec_is_rejected_at_construction(self, scheduler):
        # not first inside run, when make_scheduler meets it
        with pytest.raises(ConfigurationError, match="unknown scheduler spec"):
            SolverConfig(scheduler=scheduler)

    # a tol of True would be kept as 1 and written back as tol = 1.0
    @pytest.mark.parametrize(
        "tol",
        [math.inf, math.nan, 0.0, -1e-6, "1e-6", None, True,
         "x", [1.0], [1.0, [2.0, 3.0]], np.ones(2), np.bool_(True), np.array([True, True]),
         [True, False], -math.inf, 0, -1],
    )
    def test_tol_must_be_finite_and_positive(self, tol):
        # rejected at construction, not inside run with a bare ValueError
        with pytest.raises(ConfigurationError, match="tol must be a finite positive number"):
            SolverConfig(tol=tol)

    @pytest.mark.parametrize("tol", [1, 0.25, np.float64(2.0), np.float32(0.5)])
    def test_tol_accepts_a_real_number(self, tol):
        assert SolverConfig(tol=tol, scheduler=RoundRobin(2)).tol == tol

    @pytest.mark.parametrize("field", ["T", "max_iter"])
    @pytest.mark.parametrize("value", [True, np.bool_(True), np.array([True, True]), [True, False]])
    def test_bool_is_not_an_iteration_count(self, field, value):
        # a max_iter of True would run as 1 and be written back as max_iter = True
        with pytest.raises(ConfigurationError, match=f"{field} must be a"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field", ["T", "max_iter"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "3", np.float64(3.0), [3], np.ones(1)])
    def test_iteration_counts_must_be_integers(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be a"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field", ["T", "max_iter"])
    @pytest.mark.parametrize("value", [-1, np.int64(-1)])
    def test_iteration_counts_must_be_nonnegative(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be a nonnegative integer"):
            SolverConfig(**{field: value})

    def test_iteration_counts_accept_numpy_integers(self, two_arc):
        _, net, ops = two_arc
        cfg = SolverConfig(max_iter=np.int64(20), T=np.int32(0), tol=1e-300)
        _, trace, _ = run(net, ops, cfg)
        assert len(trace) == 20 and trace[9].residual is not None

    def test_the_step_parameters_are_one_and_the_conservation_inverse(self):
        # the same for every scheduler: nothing in a config changes them, and
        # the workspace holds F and the kernels bound at gamma = 1
        net = Network("abcde", [("a", "b"), ("a", "b"), ("b", "c"), ("c", "a"), ("d", "a")], 2)
        ops = bpr_operators(net, np.random.default_rng(0))
        ws = new_workspace(net, ops)
        assert ws.inverse.shape == (5, 5)
        assert ws.inverse.tobytes() == solver._conservation_inverse(net).tobytes()
        assert ws.bound.gamma == 1.0 and type(ws.bound.gamma) is float
        want = ops.bind(1.0)
        assert ws.bound.table.tobytes() == want.table.tobytes()
        assert ws.bound.screen.tobytes() == want.screen.tobytes()

    def test_node_without_arcs(self, two_arc):
        inst, _, two_arc_ops = two_arc
        net = Network(["a", "b", "idle"], [("a", "b"), ("a", "b")], 1)
        ops = OperatorSet(
            net,
            list(two_arc_ops.arc_operators),
            list(two_arc_ops.node_operators) + [FixedSupply((0.0,))],
        )
        flow, _, _ = analytic_two_arc(inst)
        for spec in (Full(), RoundRobin(2)):
            state, _, reason = run(net, ops, SolverConfig(scheduler=spec, tol=1e-8))
            assert reason is Termination.CONVERGED
            np.testing.assert_allclose(state.x[:, 0], flow, atol=1e-6)
            assert state.v[2, 0] == 0.0  # nothing ever moves the idle node's potential


# ---------------------------------------------------------------------------
# the iteration itself
# ---------------------------------------------------------------------------


class TestStep:
    def test_tau_zero_at_solution_leaves_state_bitwise(self):
        # zero supplies and phi(s) = s**2/2 on every arc: the zero start solves
        # it exactly, under a full and under a partial mask
        net = Network(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")], 2)
        arc = ArcOperator(SeparableLift(IntervalProx(QuadraticPhi(1.0))), Box.free(2))
        ops = OperatorSet(net, [arc] * 3, [FixedSupply((0.0, 0.0))] * 3)
        state, ws = initial_state(net), new_workspace(net, ops)
        for mask in (None, np.array([True, False, True])):
            record = step(net, ops, state, ws, mask)
            assert record.tau == 0.0 and record.theta == 0.0
            assert not state.z.any() and not state.w.any()

    def test_negative_pi_with_positive_tau_leaves_state_bitwise(self, two_arc):
        # fill the caches from a non-solution, teleport to the solution, then
        # activate only one arc: the stale cut cannot separate a point of
        # the solution set, so pi <= 0 and the relaxed projection is skipped
        inst, net, ops = two_arc
        state = initial_state(net)
        state.x = np.array([[3.0], [0.5]])
        state.v = np.array([[1.0], [-1.0]])
        ws = new_workspace(net, ops)
        step(net, ops, state, ws)
        solved = solved_state(net, inst)
        state.x, state.v, state.z = solved.x, solved.v, None  # (z, w) = (x*, tension v*)
        record = step(net, ops, state, ws, np.array([True, False]))
        assert record.tau > 0.0
        assert record.pi <= 0.0
        assert record.theta == 0.0
        assert np.array_equal(state.z, solved.x)
        assert np.array_equal(state.w, net.tension(solved.v))

    def test_theta_bounds(self, two_arc):
        _, net, ops = two_arc
        state, ws = initial_state(net), new_workspace(net, ops)
        for _ in range(30):
            record = step(net, ops, state, ws)
            assert record.tau >= 0.0
            assert record.theta >= 0.0
            if record.tau > 0.0 and record.pi > 0.0:
                assert record.theta == pytest.approx(
                    solver.RELAXATION * record.pi / record.tau, rel=1e-12
                )

    @pytest.mark.parametrize("case", ["two_arc", "mixed"])
    def test_inactive_caches_bitwise_stable(self, case, request):
        # a partial mask leaves the rows (q, q*, root) of its inactive arcs as
        # they were, and the conservation block still enforces every node's
        # row: x2 = q - w + tension(s*) meets the supplies
        net, ops = fixture_or_mixed(case, request)
        state, ws = initial_state(net), new_workspace(net, ops)
        step(net, ops, state, ws)
        cached = {k: getattr(ws, k).copy() for k in ("q", "qstar", "root")}
        w = state.w.copy()
        mask = np.arange(net.n_arcs) % 2 == 0
        record = step(net, ops, state, ws, mask)
        for key in ("q", "qstar", "root"):
            assert getattr(ws, key)[~mask].tobytes() == cached[key][~mask].tobytes()
        assert record.active_nodes == net.n_nodes
        np.testing.assert_allclose(
            net.divergence(ws.q - w + net.tension(ws.sstar)), ops.supplies, rtol=0, atol=1e-12
        )

    def test_sstar_is_fresh_for_every_node_after_a_partial_step(self, two_arc):
        # s* = F(div(q - w) - b), from every arc's cached row
        _, net, ops = two_arc
        state, ws = initial_state(net), new_workspace(net, ops)
        step(net, ops, state, ws)
        stale = ws.sstar.copy()
        w = state.w.copy()
        step(net, ops, state, ws, np.array([True, False]))
        fresh = solver._conservation_inverse(net) @ (net.divergence(ws.q - w) - ops.supplies)
        assert np.array_equal(ws.sstar, fresh)
        assert (ws.sstar != stale).all()  # the first step moved every node's potential

    def test_empty_activation_rejected(self, two_arc):
        _, net, ops = two_arc
        state, ws = initial_state(net), new_workspace(net, ops)
        with pytest.raises(ConfigurationError, match="nonempty"):
            step(net, ops, state, ws, np.array([False, False]))

    @pytest.mark.parametrize(
        "mask",
        [
            np.array([0, 2]),  # an index array, which a mask read would take as arc 1 only
            np.array([True, False, True, True]),  # one entry short
            [True, False, True, True, True],  # a list
            np.array([[True, False, True, True, True]]),
        ],
        ids=["indices", "short", "list", "2d"],
    )
    def test_arc_mask_must_be_a_boolean_array_with_one_entry_per_arc(self, braess, mask):
        net, ops, _ = braess
        state, ws = initial_state(net), new_workspace(net, ops)
        with pytest.raises(ConfigurationError, match=r"boolean array of shape \(5,\)"):
            step(net, ops, state, ws, mask)
        assert state.n == 0 and not state.x.any()

    def test_node_mask_passed_positionally_fails(self, two_arc):
        # step takes one mask, so an old step(..., arcs, nodes) call fails
        _, net, ops = two_arc
        state, ws = initial_state(net), new_workspace(net, ops)
        mask = np.array([True, True])
        with pytest.raises(TypeError):
            step(net, ops, state, ws, mask, mask)
        assert state.n == 0

    def test_non_finite_input_raises_numerical_failure(self, two_arc):
        _, net, ops = two_arc
        state, ws = initial_state(net), new_workspace(net, ops)
        state.x[0, 0] = np.inf
        with pytest.raises(NumericalFailure, match="iteration 0"):
            step(net, ops, state, ws)

    @pytest.mark.parametrize(
        "tau, pi, x0, t0",
        [
            (1e-300, 1e10, 0.0, 1.0),  # theta = 1.8 pi/tau overflows
            (1.0, 1.0, 1e308, -1e308),  # z - theta t* overflows at theta = 1.8
        ],
    )
    def test_an_update_that_overflows_from_finite_scalars_raises(self, two_arc, tau, pi, x0, t0, monkeypatch):
        _, net, ops = two_arc
        state, ws = initial_state(net), new_workspace(net, ops)
        state.z, state.w = net.zero_flow(), net.zero_flow()
        state.z[0, 0] = x0

        def evaluate(net, ops, state, ws, arc_mask):  # an evaluation that yields these scalars
            ws.tstar[0, 0], ws.tau, ws.pi = t0, tau, pi

        monkeypatch.setattr(solver, "_evaluate", evaluate)
        with np.errstate(all="ignore"), pytest.raises(NumericalFailure, match="non-finite iterate"):
            step(net, ops, state, ws)


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------


class TestResidual:
    def test_zero_at_solution(self, two_arc):
        inst, net, ops = two_arc
        assert residual(net, ops, solved_state(net, inst)) <= 1e-10

    def test_positive_off_solution(self, two_arc):
        inst, net, ops = two_arc
        state = solved_state(net, inst)
        state.x[:, 0] = [3.0, 0.0]
        assert residual(net, ops, state) > 0.1

    def test_zero_for_degenerate_zero_problem(self):
        # vanishing capacity (theta -> 0 limit via a tiny prox slope), free
        # constraint set, zero supplies: the zero state already solves it
        net = Network(["a", "b"], [("a", "b")], 1)
        arc = ArcOperator(
            SeparableLift(IntervalProx(CustomPhi(lambda gamma, xi: xi, lambda s: (0.0, 0.0)))),
            Box.free(1),
        )
        ops = OperatorSet(net, [arc], [FixedSupply((0.0,)), FixedSupply((0.0,))])
        assert residual(net, ops, initial_state(net)) == 0.0

    def test_does_not_mutate_state_or_workspace(self, two_arc):
        _, net, ops = two_arc
        state, ws = initial_state(net), new_workspace(net, ops)
        step(net, ops, state, ws)
        snap_state = (state.x.copy(), state.v.copy())
        snap_q = ws.q.copy()
        residual(net, ops, state)
        assert np.array_equal(state.x, snap_state[0])
        assert np.array_equal(state.v, snap_state[1])
        assert np.array_equal(ws.q, snap_q)


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


class TestRun:
    def test_two_arc_from_zero_start(self, two_arc):
        inst, net, ops = two_arc
        flow, lam, _ = analytic_two_arc(inst)
        state, trace, reason = run(net, ops, SolverConfig(tol=1e-6, max_iter=10**5))
        assert reason is Termination.CONVERGED
        np.testing.assert_allclose(state.x[:, 0], flow, atol=1e-5)
        np.testing.assert_allclose(net.tension(state.v)[:, 0], lam, atol=1e-5)

    def test_start_at_solution_converges_without_moving(self):
        # zero supplies and phi(s) = s**2/2 on every arc: the zero start solves it
        net = Network(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")], 2)
        arc = ArcOperator(SeparableLift(IntervalProx(QuadraticPhi(1.0))), Box.free(2))
        ops = OperatorSet(net, [arc] * 3, [FixedSupply((0.0, 0.0))] * 3)
        state, trace, reason = run(net, ops, SolverConfig())
        assert reason is Termination.CONVERGED
        assert state.n == 1  # tau = 0 triggers the immediate residual check
        assert trace[0].theta == 0.0
        assert not state.x.any() and not state.v.any()

    def test_zero_iteration_budget(self, two_arc):
        _, net, ops = two_arc
        state, trace, reason = run(net, ops, SolverConfig(max_iter=0))
        assert reason is Termination.ITER_LIMIT
        assert state.n == 0 and trace == []
        assert not state.x.any()

    def test_check_interval_does_not_change_iterates(self, two_arc):
        # under Full a residual check evaluates what the next step would; a
        # plain loop of steps, which never checks, reaches the same iterate
        # (z, w)
        _, net, ops = two_arc
        cfg = SolverConfig(max_iter=40, tol=1e-300)
        state, trace, _ = run(net, ops, cfg)
        checked = [r.n for r in trace if r.residual is not None]
        assert checked == [r.n for r in trace if r.tau == 0.0 or (r.n + 1) % solver.CHECK_INTERVAL == 0]
        plain, ws = initial_state(net), new_workspace(net, ops)
        for _ in range(cfg.max_iter):
            step(net, ops, plain, ws)
        for a, b in zip((state.z, state.w), (plain.z, plain.w)):
            assert np.array_equal(a, b)

    def test_numerical_failure_reported(self):
        net = Network(["a", "b"], [("a", "b")], 1)
        poisoned = ArcOperator(
            SeparableLift(
                IntervalProx(CustomPhi(lambda gamma, xi: float("nan"), lambda s: (0.0, 0.0)))
            ),
            Box.free(1),
        )
        ops = OperatorSet(net, [poisoned], [FixedSupply((1.0,)), FixedSupply((-1.0,))])
        state, trace, reason = run(net, ops, SolverConfig(max_iter=10))
        assert reason is Termination.NUMERICAL_FAILURE

    def test_trace_callback_sees_every_record(self, two_arc):
        _, net, ops = two_arc
        seen = []
        state, trace, _ = run(net, ops, SolverConfig(max_iter=25), trace_callback=seen.append)
        assert len(seen) == len(trace)
        assert [r.n for r in seen] == list(range(len(seen)))

    def test_round_robin_and_random_sweep_reach_solution(self, two_arc):
        inst, net, ops = two_arc
        flow, _, _ = analytic_two_arc(inst)
        for spec, T in [(RoundRobin(2), 1), (RandomSweep(seed=3, activation_prob=0.5), 3)]:
            cfg = SolverConfig(scheduler=spec, T=T, tol=1e-6, max_iter=10**5)
            state, _, reason = run(net, ops, cfg)
            assert reason is Termination.CONVERGED
            np.testing.assert_allclose(state.x[:, 0], flow, atol=1e-5)

    def test_bpr_stall_ends_run_with_numerical_failure(self, monkeypatch):
        monkeypatch.setattr(operators, "_BPR_MAX_ITER", 0)
        net = Network(["a", "b"], [("a", "b"), ("a", "b")], 1)
        arcs = [
            ArcOperator(SeparableLift(BPR(alpha=0.15, rho=1.0, theta=theta, p=4.0)), Box.orthant(1))
            for theta in (1.0, 2.0)
        ]
        ops = OperatorSet(net, arcs, [FixedSupply((3.0,)), FixedSupply((-3.0,))])
        with pytest.raises(NumericalFailure, match="BPR root"):
            arcs[0].q.scalar.resolvent(1.0, 10.0)
        state, trace, reason = run(net, ops, SolverConfig(max_iter=50))
        assert reason is Termination.NUMERICAL_FAILURE

    def test_fejer_monotone_distance_to_solution(self, two_arc):
        inst, net, ops = two_arc
        zbar = solved_state(net, inst)
        cfg = SolverConfig(tol=1e-6)
        state, ws = initial_state(net), new_workspace(net, ops)

        def dist(s):
            return float(
                np.sqrt(
                    np.sum((s.x - zbar.x) ** 2)
                    + np.sum((s.v - zbar.v) ** 2)
                )
            )

        previous = dist(state)
        for _ in range(200):
            step(net, ops, state, ws)
            current = dist(state)
            assert current <= previous + 1e-10
            previous = current
            if residual(net, ops, state) <= cfg.tol:
                break
        else:
            pytest.fail("did not converge within 200 iterations")


# ---------------------------------------------------------------------------
# run against a loop of public steps, bit for bit
# ---------------------------------------------------------------------------


def manual_run(net, ops, cfg):
    """`run` spelled out with public `step` calls and the residual formula restated.

    Step n evaluates at the point (z_n, w_n), every arc where n is a check
    iteration (a multiple of CHECK_INTERVAL, or tau = 0 in step n - 1) and
    the scheduler's arcs elsewhere; the scheduler is queried at every n
    below max_iter.  The residual there, sqrt(tau + |b - div x|^2) for the
    flow x that step n reports, reads that evaluation: at check
    iterations, and under Full wherever sqrt(tau) <= tol, until the public
    equilibrium residual first rejects.  A residual within tol stops the
    loop at the point, with the flow x and potentials v that step n
    reports, if the equilibrium residual is within tol too.  Step max_iter
    activates every arc, and is taken only to report and check the point
    max_iter, and is undone as well.
    """
    sched = make_scheduler(cfg.scheduler, net, cfg.T)
    full = sweep_bound(cfg.scheduler) == 0
    state, ws, trace, consult = initial_state(net), new_workspace(net, ops), [], True
    while True:
        n = state.n
        check = n > 0 and (trace[-1].tau == 0.0 or n % solver.CHECK_INTERVAL == 0)
        gated = full and n > 0
        if n == cfg.max_iter == 0:
            return state, trace
        arcs = sched.select(n) if n < cfg.max_iter else None
        point = copy.deepcopy(state)
        record = step(net, ops, state, ws, None if check else arcs)
        point.x, point.v = x, v = state.x, state.v
        value = math.inf
        if check or gated and consult and math.sqrt(record.tau) <= cfg.tol:
            value = math.sqrt(record.tau + np.sum((ops.supplies - net.divergence(x)) ** 2))
        if value <= cfg.tol:
            consult = wardrop_residual(net, ops, x, v) <= cfg.tol
        if check or consult and value <= cfg.tol:
            trace[-1].residual = value
        if consult and value <= cfg.tol or n == cfg.max_iter:
            return point, trace
        trace.append(record)


def mixed_multicommodity_instance(seed):
    """Random multigraph, every arc of a batched family, balanced supplies."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_nodes=8, max_arcs=30, max_comm=3)
    n_comm = net.n_commodities
    makers = (
        lambda: BPR(alpha=0.15, rho=rng.uniform(1.0, 3.0), theta=rng.uniform(0.5, 2.0), p=4.0),
        lambda: BPR(alpha=1.0, rho=2.0, theta=rng.uniform(0.5, 2.0), p=rng.choice([0.5, 1.0, 2.5])),
        lambda: TRC(alpha=0.5, beta=0.1, delta=rng.uniform(0.5, 2.0), omega=2.0),
        lambda: PowerExp(alpha=2.0, theta=rng.uniform(0.5, 2.0), p=0.3),
        lambda: IntervalProx(AffinePhi(rng.uniform(0.5, 2.0)), lo=0.0, hi=8.0),
    )
    arcs = [
        ArcOperator(SeparableLift(makers[j % len(makers)]()), Box.orthant(n_comm))
        for j in range(net.n_arcs)
    ]
    supply = rng.uniform(-2.0, 2.0, (net.n_nodes, n_comm))
    for members in weak_components(net):
        supply[members[-1]] -= supply[members].sum(axis=0)
    return net, OperatorSet(net, arcs, [FixedSupply(tuple(row)) for row in supply])


SCHEDULES = [(Full(), 0), (RoundRobin(3), 2), (RandomSweep(seed=5, activation_prob=0.4), 3)]


@pytest.mark.parametrize("spec, T", SCHEDULES, ids=["full", "roundrobin3", "randomsweep"])
def test_run_matches_manual_step_residual_loop_bitwise(spec, T, braess, two_arc):
    cases = [
        # residual checks at shifting cycle offsets (10 mod 3 = 1), never converging
        (*mixed_multicommodity_instance(seed), SolverConfig(
            scheduler=spec, T=T, max_iter=90, tol=1e-300
        ))
        for seed in (3, 4)
    ]
    # run to convergence, through the tau = 0 and final residual checks (under
    # Full, braess past a rejected point and two_arc between two check iterations)
    cases.append((*braess[:2], SolverConfig(scheduler=spec, T=T, max_iter=20_000)))
    if isinstance(spec, Full):
        cases.append((*two_arc[1:], SolverConfig(max_iter=20_000)))
    for net, ops, cfg in cases:
        state, trace, _ = run(net, ops, cfg)
        ref_state, ref_trace = manual_run(net, ops, cfg)
        assert state.n == ref_state.n
        for got, want in zip((state.x, state.v), (ref_state.x, ref_state.v)):
            assert np.array_equal(got, want)
        rows = [(r.tau, r.pi, r.theta, r.residual, r.active_arcs, r.active_nodes) for r in trace]
        assert rows == [
            (r.tau, r.pi, r.theta, r.residual, r.active_arcs, r.active_nodes) for r in ref_trace
        ]
        assert any(r.residual is not None for r in trace)


def run_fingerprint(net, ops, cfg):
    """A run's termination, final state and trace rows, comparable bit for bit with ==."""
    state, trace, reason = run(net, ops, cfg)
    rows = [
        (r.n, r.tau, r.pi, r.theta, r.active_arcs, r.active_nodes, r.residual)
        for r in trace
    ]
    return reason, state.n, state.x.tobytes(), state.v.tobytes(), rows


@pytest.mark.parametrize("spec, T", SCHEDULES, ids=["full", "roundrobin3", "randomsweep"])
def test_an_omitted_sweep_bound_is_the_schedulers_own(spec, T):
    # T left at None runs bit for bit as T = sweep_bound(spec): 0, k - 1 and 3
    net, ops = mixed_multicommodity_instance(3)
    cfg = SolverConfig(scheduler=spec, max_iter=90, tol=1e-300)
    assert cfg.T is None and sweep_bound(spec) == T
    derived = run_fingerprint(net, ops, cfg)
    assert derived == run_fingerprint(net, ops, dataclasses.replace(cfg, T=T))
    # only Full activates every arc at every step
    active = np.mean([row[4] for row in derived[-1]])
    assert (active < net.n_arcs) == (T > 0)


@pytest.mark.parametrize("spec", [spec for spec, _ in SCHEDULES], ids=["full", "roundrobin3", "randomsweep"])
def test_a_problem_without_T_solves_the_same_from_its_file(spec):
    net, ops = mixed_multicommodity_instance(4)
    cfg = SolverConfig(scheduler=spec, max_iter=90, tol=1e-300)
    text = serialize_problem(Problem(net, tuple(f"e{j}" for j in range(net.n_arcs)), ops, cfg))
    assert "\nT = " not in text
    parsed = parse_problem(text)
    assert parsed.config == cfg
    assert run_fingerprint(parsed.network, parsed.operators, parsed.config) == run_fingerprint(
        net, ops, cfg
    )


@pytest.mark.parametrize("spec, T", SCHEDULES[1:], ids=["roundrobin3", "randomsweep"])
def test_step_after_a_residual_check_activates_every_block(spec, T):
    # the step from a checked point evaluates every block, which the check reads
    net, ops = mixed_multicommodity_instance(3)
    cfg = SolverConfig(scheduler=spec, T=T, max_iter=90, tol=1e-300)
    _, trace, _ = run(net, ops, cfg)
    assert sum(r.residual is not None for r in trace) == 9
    # the scheduler is still queried at every iteration; elsewhere its choice stands
    sched = make_scheduler(spec, net, T)
    checked = False
    for rec in trace:
        arcs = sched.select(rec.n)
        if checked:
            assert (rec.active_arcs, rec.active_nodes) == (net.n_arcs, net.n_nodes)
        else:
            assert (rec.active_arcs, rec.active_nodes) == (arcs.sum(), net.n_nodes)
        checked = rec.residual is not None


def mixed_grid_instance(k, n_comm, seed):
    """grid_instance's network and demand, with the five capacity families in turn
    (every other Logarithmic arc with theta = 0)."""
    net, bpr_ops = grid_instance(k, n_comm, seed)
    rng = np.random.default_rng(seed)
    makers = (
        lambda: BPR(alpha=0.15, rho=rng.uniform(1.0, 3.0), theta=rng.uniform(1.0, 2.0), p=4.0),
        lambda: Logarithmic(omega=rng.uniform(8.0, 12.0), theta=float(rng.choice([0.0, 1.0]))),
        lambda: TRC(alpha=0.5, beta=0.1, delta=rng.uniform(0.5, 2.0), omega=1.0),
        lambda: PowerExp(alpha=2.0, theta=rng.uniform(0.5, 2.0), p=0.2),
        lambda: IntervalProx(AffinePhi(rng.uniform(0.5, 2.0)), lo=0.0, hi=10.0),
    )
    arcs = [
        ArcOperator(SeparableLift(makers[j % len(makers)]()), Box.orthant(n_comm))
        for j in range(net.n_arcs)
    ]
    return net, OperatorSet(net, arcs, bpr_ops.node_operators)


def test_random_sweep_on_mixed_families_reaches_an_equilibrium():
    net, ops = mixed_grid_instance(4, 2, seed=7)
    cfg = SolverConfig(scheduler=RandomSweep(seed=11, activation_prob=0.3), T=3, max_iter=20_000)
    state, _, reason = run(net, ops, cfg)
    assert reason is Termination.CONVERGED
    assert wardrop_residual(net, ops, state.x, state.v) <= cfg.tol


BOXES = {
    "finite": [Box((0.0, 0.0), (2.5, 2.5))],
    "half-open": [
        Box((-0.25, -0.25), (3.0, 3.0)),
        Box((0.0, -math.inf), (math.inf, 3.0)),
        Box((-math.inf, -0.5), (3.0, math.inf)),
    ],
}


@pytest.mark.parametrize("spec, T", SCHEDULES[::2], ids=["full", "randomsweep"])
@pytest.mark.parametrize("kind", sorted(BOXES))
def test_finite_and_half_open_boxes_converge_to_a_checked_equilibrium(kind, spec, T):
    net, mixed = mixed_grid_instance(4, 2, seed=7)
    boxes = BOXES[kind]
    arcs = [ArcOperator(op.q, boxes[j % len(boxes)]) for j, op in enumerate(mixed.arc_operators)]
    ops = OperatorSet(net, arcs, mixed.node_operators)
    cfg = SolverConfig(scheduler=spec, T=T, max_iter=20_000)
    state, _, reason = run(net, ops, cfg)
    assert reason is Termination.CONVERGED
    assert wardrop_residual(net, ops, state.x, state.v) <= cfg.tol
    # some commodity of some arc sits on a finite bound other than 0
    on_bound = (np.abs(state.x - ops.box_hi) <= 1e-6) | (np.abs(state.x - ops.box_lo) <= 1e-6)
    assert (on_bound & (state.x != 0.0)).any()


def test_an_arc_resolvent_guessed_from_its_own_output_needs_no_variable_fixing(monkeypatch):
    # near a solution each arc's previous output names the commodities on
    # their bounds, an unused arc included, so one kernel call settles it
    net, ops = mixed_multicommodity_instance(6)
    cfg = SolverConfig(max_iter=20_000)
    state, _, reason = run(net, ops, cfg)
    assert reason is Termination.CONVERGED
    # a step on a copy of the state evaluates every block at the state itself
    ws = new_workspace(net, ops)
    step(net, ops, copy.deepcopy(state), ws)
    on_lower = ws.q == ops.box_lo
    assert on_lower.all(1).any() and (on_lower.any(1) & ~on_lower.all(1)).any()
    fixed, real = [], ops._fix_variables
    monkeypatch.setattr(ops, "_fix_variables", lambda arcs, *args: fixed.append(arcs) or real(arcs, *args))
    first = ws.q.copy()
    step(net, ops, copy.deepcopy(state), ws)
    assert fixed == []
    np.testing.assert_allclose(ws.q, first, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("spec, T", SCHEDULES, ids=["full", "roundrobin3", "randomsweep"])
def test_braess_converges_only_within_tol_of_equilibrium(spec, T, braess):
    # under RoundRobin(3) the splitting residual first passes at iteration
    # 150, where the equilibrium residual is still 2.5e-6
    net, ops, _ = braess
    cfg = SolverConfig(scheduler=spec, T=T, max_iter=20_000)
    state, _, reason = run(net, ops, cfg)
    assert reason is Termination.CONVERGED
    assert wardrop_residual(net, ops, state.x, state.v) <= cfg.tol


def test_two_arc_with_costs_times_100_converges_within_tol_of_equilibrium():
    # the splitting residual is in the metric of the iterate; with
    # the conservation block's |div x1 - b| term it passes first where the
    # equilibrium residual does, under every scheduler
    inst = TwoArcInstance(100.0, 200.0, 100.0, 100.0, 3.0)
    net = inst.network()
    ops = inst.operator_set(net)
    for spec in (RoundRobin(2), Full()):
        cfg = SolverConfig(scheduler=spec)
        state, trace, reason = run(net, ops, cfg)
        assert reason is Termination.CONVERGED
        assert wardrop_residual(net, ops, state.x, state.v) <= cfg.tol
        assert sum(r.residual is not None and r.residual <= cfg.tol for r in trace) == 1


def test_equilibrium_check_in_run_is_silent_and_an_inf_keeps_it_going(two_arc, monkeypatch):
    _, net, ops = two_arc
    real, calls, seen = oracle.wardrop_residual, [], []

    def leaves_the_box_once(*args, **kwargs):
        calls.append(len(seen) + 1)  # the point after the step whose record is in hand
        if len(calls) == 1:
            warnings.warn("arc 0: flow leaves its constraint box")
            return math.inf
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "wardrop_residual", leaves_the_box_once)
    cfg = SolverConfig()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        state, trace, reason = run(net, ops, cfg, trace_callback=seen.append)
    assert caught == []
    assert reason is Termination.CONVERGED
    # every passing residual cell was put to the oracle; a rejected point off
    # the check iterations carries no cell, and only they consult it again
    passed = [r.n + 1 for r in trace if r.residual is not None and r.residual <= cfg.tol]
    assert set(passed) <= set(calls) <= set(passed) | {calls[0]}
    assert len(calls) >= 2 and calls[-1] == state.n > calls[0] + 1
    assert all(point % solver.CHECK_INTERVAL == 0 for point in calls[1:])
    assert real(net, ops, state.x, state.v) <= cfg.tol


# ---------------------------------------------------------------------------
# the stopping rule
# ---------------------------------------------------------------------------


def fixture_or_mixed(name, request):
    """(net, ops) of the braess or two_arc fixture, or of mixed_multicommodity_instance(4)."""
    if name == "mixed":
        return mixed_multicommodity_instance(4)
    if name == "braess":
        return request.getfixturevalue("braess")[:2]
    return request.getfixturevalue("two_arc")[1:]


@pytest.mark.parametrize("name", ["braess", "two_arc", "mixed"])
def test_a_full_run_stops_at_the_first_iterate_whose_residual_passes(name, request):
    net, ops = fixture_or_mixed(name, request)
    cfg = SolverConfig(max_iter=20_000)
    state, trace, reason = run(net, ops, cfg)
    assert reason is Termination.CONVERGED
    # a residual cell at the check iterations and on the stopping record only
    checks = {r.n for r in trace if r.tau == 0.0 or (r.n + 1) % solver.CHECK_INTERVAL == 0}
    assert [r.n for r in trace if r.residual is not None] == sorted(checks | {state.n - 1})
    # the same iterates from a loop of public steps, checked at every point
    # with the public residual, which starts cold and so differs from the
    # run's warm evaluation in its last bits only.  The step from a point
    # reports its flow and potentials, which the equilibrium residual
    # reads.  Where that rejects a point, only check iterations consult it
    # again (no point of these runs is rejected)
    plain, ws = initial_state(net), new_workspace(net, ops)
    consult, rejected = True, []
    while True:
        value = residual(net, ops, plain)
        assert abs(value - cfg.tol) > 1e-9 * cfg.tol
        point = copy.deepcopy(plain)
        step(net, ops, plain, ws)
        if value <= cfg.tol and (consult or point.n % solver.CHECK_INTERVAL == 0):
            consult = wardrop_residual(net, ops, plain.x, plain.v) <= cfg.tol
            if consult:
                break
            rejected.append(point.n)
    assert point.n == state.n and rejected == []
    assert point.z.tobytes() == state.z.tobytes() and point.w.tobytes() == state.w.tobytes()
    assert plain.x.tobytes() == state.x.tobytes() and plain.v.tobytes() == state.v.tobytes()


def test_a_partial_scheduler_run_is_checked_only_at_check_iterations():
    # a partial evaluation keeps stale rows for its inactive arcs, so it
    # prices no residual, not even where its sqrt(tau) is below tol: seed 37
    # runs RoundRobin(2), and a residual read from such an evaluation would
    # stop it 16 iterations early
    problem = random_problem(37)
    net, cfg = problem.network, problem.config
    assert cfg.scheduler == RoundRobin(2)
    state, trace, reason = run(net, problem.operators, cfg)
    assert reason is Termination.CONVERGED and state.n % solver.CHECK_INTERVAL == 0
    assert any(math.sqrt(r.tau) <= cfg.tol and r.active_arcs < net.n_arcs for r in trace)
    checked = [r.n + 1 for r in trace if r.residual is not None]
    assert checked == list(range(solver.CHECK_INTERVAL, state.n + 1, solver.CHECK_INTERVAL))


def test_a_lagging_equilibrium_residual_is_consulted_only_at_check_iterations_after_it_rejects(monkeypatch):
    # seed 0 runs Full, and its splitting residual first passes at iteration
    # 1,384.  No Full run of the span-3 seeds lags since the conservation
    # block, so the lag is put in: the equilibrium residual reads 1e-3 at
    # its first three calls
    problem = random_problem(0)
    assert isinstance(problem.config.scheduler, Full)
    real, calls, seen = oracle.wardrop_residual, [], []

    def lagging(*args, **kwargs):
        value = real(*args, **kwargs) if len(calls) >= 3 else 1e-3
        calls.append((len(seen) + 1, value))
        return value

    monkeypatch.setattr(oracle, "wardrop_residual", lagging)
    cfg = problem.config
    state, trace, reason = run(problem.network, problem.operators, cfg, trace_callback=seen.append)
    assert reason is Termination.CONVERGED
    (first, rejected), *later = calls
    k = solver.CHECK_INTERVAL
    assert rejected > cfg.tol and first % k and len(later) >= 3
    assert [point for point, _ in later] == list(range(first + k - first % k, state.n + 1, k))
    passed = [r.n + 1 for r in trace if r.residual is not None and r.residual <= cfg.tol]
    assert passed == [point for point, _ in later]


def counting_queries(monkeypatch):
    """The iterations n that the schedulers made by make_scheduler are queried at, in order."""
    queried, make = [], solver.make_scheduler

    def make_counted(*args):
        sched = make(*args)
        select = sched.select
        sched.select = lambda n: queried.append(n) or select(n)
        return sched

    monkeypatch.setattr(solver, "make_scheduler", make_counted)
    return queried


@pytest.mark.parametrize(
    "name, spec, T",
    [("two_arc", Full(), 0)] + [("braess", spec, T) for spec, T in SCHEDULES],
    ids=["two_arc-full", "braess-full", "braess-roundrobin3", "braess-randomsweep"],
)
def test_a_run_that_stops_at_n_converges_with_max_iter_n(name, spec, T, request, monkeypatch):
    net, ops = fixture_or_mixed(name, request)
    queried = counting_queries(monkeypatch)
    cfg = SolverConfig(scheduler=spec, T=T, max_iter=20_000)
    free = run_fingerprint(net, ops, cfg)
    reason, n = free[:2]
    assert reason is Termination.CONVERGED
    # Full stops between two check iterations (two_arc at 11, braess at
    # 35), and a partial scheduler on one
    assert (n % solver.CHECK_INTERVAL == 0) == (T > 0)
    # the mask of iteration n decides whether x_n is evaluated in full
    assert queried == list(range(n + 1))
    queried.clear()
    assert run_fingerprint(net, ops, dataclasses.replace(cfg, max_iter=n)) == free
    assert queried == list(range(n))
    queried.clear()
    short = run_fingerprint(net, ops, dataclasses.replace(cfg, max_iter=n - 1))
    assert short[:2] == (Termination.ITER_LIMIT, n - 1) and short[-1] == free[-1][:-1]
    assert queried == list(range(n - 1))


@pytest.mark.parametrize("spec", [RoundRobin(2), RandomSweep(0, 0.5)], ids=["roundrobin2", "randomsweep"])
def test_a_capped_partial_run_reports_the_point_it_stops_at(spec, braess):
    # max_iter = 25 is no check iteration; the flow and potentials were those
    # of the point before the last step, 0.89 and 0.73 away from the final x1
    net, ops, _ = braess
    state, _, reason = run(net, ops, SolverConfig(scheduler=spec, max_iter=25))
    assert (reason, state.n) == (Termination.ITER_LIMIT, 25)
    cold = SolverState(net.zero_flow(), net.zero_potential(), z=state.z.copy(), w=state.w.copy())
    step(net, ops, cold, new_workspace(net, ops))  # reports x1 and u at (z, w), before it moves
    np.testing.assert_allclose(state.x, cold.x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(state.v, cold.v, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "point, max_iter, ends",
    [
        (0, 50, (Termination.NUMERICAL_FAILURE, 0, 0)),
        (5, 50, (Termination.NUMERICAL_FAILURE, 5, 5)),  # step 5 fails
        (10, 50, (Termination.NUMERICAL_FAILURE, 10, 9)),  # the check at x_10 fails, and its record goes
        (7, 7, (Termination.ITER_LIMIT, 7, 7)),  # x_7 is evaluated only to be checked
    ],
)
def test_a_kernel_failure_ends_a_run_where_the_point_is_evaluated(point, max_iter, ends, two_arc, monkeypatch):
    # (termination, state.n, records): a failed step ends the run at its
    # point, a failed check also drops the record of the step that reached
    # it, and the point at max_iter, evaluated only to be checked, ends it
    # at the limit
    _, net, ops = two_arc
    evaluate = solver._evaluate

    def fails_at_the_point(net, ops, state, *rest):
        if state.n == point:
            raise NumericalFailure("BPR root refinement stalled")
        return evaluate(net, ops, state, *rest)

    monkeypatch.setattr(solver, "_evaluate", fails_at_the_point)
    state, trace, reason = run(net, ops, SolverConfig(max_iter=max_iter, tol=1e-300))
    assert (reason, state.n, len(trace)) == ends


@pytest.mark.parametrize("spec, T", SCHEDULES, ids=["full", "roundrobin3", "randomsweep"])
def test_two_runs_on_one_operator_set_are_bitwise_equal(spec, T):
    # the kernel roots live in the run's workspace, not in the OperatorSet
    net, ops = mixed_multicommodity_instance(6)
    cfg = SolverConfig(scheduler=spec, T=T, max_iter=120, tol=1e-300)
    probe = initial_state(net)
    probe.x[:] = 0.5
    cold = residual(net, ops, probe)
    first, first_trace, _ = run(net, ops, cfg)
    second, second_trace, _ = run(net, ops, cfg)
    for got, want in zip((second.x, second.v), (first.x, first.v)):
        assert np.array_equal(got, want)
    rows = [(r.tau, r.pi, r.theta, r.residual) for r in second_trace]
    assert rows == [(r.tau, r.pi, r.theta, r.residual) for r in first_trace]
    # a residual without a sweep workspace starts cold, before and after runs
    assert residual(net, ops, probe) == cold


def test_workspace_roots_follow_the_evaluated_arcs(two_arc):
    _, net, ops = two_arc
    state, ws = initial_state(net), new_workspace(net, ops)
    assert np.isnan(ws.root).all()
    step(net, ops, state, ws, np.array([True, False]))
    assert np.isfinite(ws.root[0]) and np.isnan(ws.root[1])
    # from the zero point xi = 0: the root is the scalar resolvent there,
    # below the kink, and the orthant clamps it to q = 0
    spec = ops.arc_operators[0].q.scalar
    assert ws.root[0] == spec.resolvent(1.0, 0.0) < 0.0
    assert ws.q[0, 0] == 0.0


def test_run_allocates_one_workspace(monkeypatch):
    net, ops = mixed_multicommodity_instance(3)
    made, real = [], solver.new_workspace
    monkeypatch.setattr(solver, "new_workspace", lambda *args: made.append(1) or real(*args))
    cfg = SolverConfig(scheduler=RoundRobin(3), T=2, max_iter=30, tol=1e-300)
    _, trace, _ = run(net, ops, cfg)
    assert sum(r.residual is not None for r in trace) == 3
    assert len(made) == 1


@pytest.mark.parametrize("spec, T", SCHEDULES, ids=["full", "roundrobin3", "randomsweep"])
def test_a_run_sets_numpys_error_state_once_per_evaluation(spec, T, monkeypatch):
    # the kernels leave it to step and residual; lambert_w_exp keeps its own
    entered, evaluations, lambert_calls = [], [], []

    class Counted(np.errstate):
        def __enter__(self):
            entered.append(1)
            return super().__enter__()

    evaluate, solve = solver._evaluate, operators.lambert_w_exp
    monkeypatch.setattr(np, "errstate", Counted)
    monkeypatch.setattr(solver, "_evaluate", lambda *args: evaluations.append(1) or evaluate(*args))
    monkeypatch.setattr(operators, "lambert_w_exp", lambda *args: lambert_calls.append(1) or solve(*args))
    net, ops = mixed_multicommodity_instance(5)
    cfg = SolverConfig(scheduler=spec, T=T, max_iter=60, tol=1e-300)
    _, trace, _ = run(net, ops, cfg)
    assert len(trace) == 60 and lambert_calls
    # one more for the binding, once per run
    assert len(entered) == len(evaluations) + len(lambert_calls) + 1


@pytest.mark.parametrize("max_iter", [30, 90])
def test_run_binds_the_kernels_once(max_iter, monkeypatch):
    net, ops = mixed_multicommodity_instance(3)
    bound, real = [], ops.bind
    monkeypatch.setattr(ops, "bind", lambda gamma: bound.append(1) or real(gamma))
    cfg = SolverConfig(scheduler=RoundRobin(3), T=2, max_iter=max_iter, tol=1e-300)
    _, trace, _ = run(net, ops, cfg)
    assert len(trace) == max_iter
    assert len(bound) == 1


def test_runs_with_different_gamma_on_one_operator_set_match_fresh_operator_sets():
    # the binding belongs to the run, so a run never sees constants bound to
    # another gamma, also where a sweep between runs used such constants
    net, ops = mixed_multicommodity_instance(6)
    probe = initial_state(net)
    probe.x[:] = 0.5
    cfg = SolverConfig(scheduler=RandomSweep(seed=2, activation_prob=0.4), T=3, max_iter=120, tol=1e-300)
    for gamma in (0.5, 0.2, 0.8, 0.5):
        q, qstar = net.zero_flow(), net.zero_flow()
        ops.capacity_resolvent(net.every_arc, ops.bind(gamma), probe.x, q, qstar, np.full(net.n_arcs, np.nan))
        state, trace, _ = run(net, ops, cfg)
        fresh_net, fresh_ops = mixed_multicommodity_instance(6)
        ref_state, ref_trace, _ = run(fresh_net, fresh_ops, cfg)
        for got, want in zip((state.x, state.v), (ref_state.x, ref_state.v)):
            assert np.array_equal(got, want)
        rows = [(r.tau, r.pi, r.theta, r.residual) for r in trace]
        assert rows == [(r.tau, r.pi, r.theta, r.residual) for r in ref_trace]
        assert residual(net, ops, probe) == residual(fresh_net, fresh_ops, probe)


# ---------------------------------------------------------------------------
# the separator pi, formed without cancellation
# ---------------------------------------------------------------------------


def far_from_solution(seed):
    net, ops = mixed_multicommodity_instance(seed)
    rng = np.random.default_rng(seed)
    state = SolverState(
        rng.uniform(0.0, 3.0, (net.n_arcs, net.n_commodities)),
        rng.standard_normal((net.n_nodes, net.n_commodities)),
    )
    return net, ops, state


def near_solution():
    net, ops = grid_instance(3, 1, seed=5)
    state, _, _ = run(net, ops, SolverConfig(tol=1e-9, max_iter=10_000))
    state.n = 0
    return net, ops, state


@pytest.mark.parametrize("partial", [False, True], ids=["full", "partial"])
@pytest.mark.parametrize("case", [1, 2, 3, "near"])
def test_pi_is_the_separator_of_the_evaluated_pairs(case, partial):
    # pi = <z - x1, y1 - w> + <z - x2, y2 + w>, restated from the cached arc
    # pairs (x1, y1) = (q, q*) and the projection x2 of t = x1 - w; under
    # a partial mask half the arcs keep the pair of the step before
    net, ops, state = near_solution() if case == "near" else far_from_solution(case)
    ws = new_workspace(net, ops)
    step(net, ops, state, ws)
    z, w = state.z.copy(), state.w.copy()
    mask = np.arange(net.n_arcs) % 2 == 0 if partial else None
    record = step(net, ops, state, ws, mask)
    inverse = solver._conservation_inverse(net)
    t = ws.q - w
    tension_u = net.tension(inverse @ (net.divergence(t) - ops.supplies))
    x2, y2 = t + tension_u, -tension_u
    terms = [np.sum((z - ws.q) * (ws.qstar - w)), np.sum((z - x2) * (y2 + w))]
    # near a solution each term is formed from differences of O(1) values
    # that the two forms round differently, about 1e-7 relative
    rel = 1e-6 if case == "near" else 1e-9
    assert record.pi == pytest.approx(sum(terms), rel=rel, abs=1e-13 * max(abs(term) for term in terms))
    assert record.tau == pytest.approx(np.sum((ws.qstar + y2) ** 2) + np.sum((ws.q - x2) ** 2), rel=1e-12)
    if not partial:
        # fresh arcs: z - x1 = y1 - w, so pi is at least
        # |y1 - w|^2 / 2 + |x1 - x2|^2 / 2 by Young's inequality,
        # also near a solution, where it is a sum of small terms
        floor = np.sum((ws.qstar - w) ** 2) / 2 + np.sum((ws.q - x2) ** 2) / 2
        assert record.pi >= floor * (1 - 1e-9) > 0.0


def test_small_grid_converges_at_a_tight_tolerance():
    net, ops = grid_instance(3, 1, seed=5)
    state, trace, reason = run(net, ops, SolverConfig(tol=1e-10, max_iter=10_000))
    assert reason is Termination.CONVERGED
    assert trace[-1].residual <= 1e-10
    assert wardrop_residual(net, ops, state.x, state.v) <= 1e-9


def test_two_arc_with_costs_times_1e3_converges_at_1e_10_times_the_scale():
    # a separator formed as a difference of large inner products stalls
    # here at a residual of 2.7e-6
    inst = TwoArcInstance(1e3, 2e3, 1e3, 1e3, 3.0)
    net = inst.network()
    state, trace, reason = run(net, inst.operator_set(net), SolverConfig(tol=1e-7, max_iter=30_000))
    assert reason is Termination.CONVERGED
    flow, _, _ = analytic_two_arc(inst)
    np.testing.assert_allclose(state.x[:, 0], flow, atol=1e-6)


def test_round_robin_on_a_small_grid_converges_within_1500_iterations():
    # with node blocks rationed like arcs this run took 1,830 iterations;
    # with every node active at every step it takes 1,270
    net, ops = grid_instance(3, 2, 1)
    cfg = SolverConfig(scheduler=RoundRobin(3), T=2, max_iter=1_500)
    state, trace, reason = run(net, ops, cfg)
    assert reason is Termination.CONVERGED
    assert all(rec.active_nodes == net.n_nodes for rec in trace)
    assert wardrop_residual(net, ops, state.x, state.v) <= cfg.tol


@pytest.mark.parametrize("spec, T", SCHEDULES, ids=["full", "roundrobin3", "randomsweep"])
def test_one_ulp_in_one_arcs_cost_leaves_the_iteration_count_unchanged(spec, T):
    # a last-bit change in the iterate changes pi in its last bits only, so
    # on runs this short no residual check passes earlier or later (longer
    # runs under a partial scheduler can amplify the change through the
    # dynamics until a count moves)
    cfg = SolverConfig(scheduler=spec, T=T, max_iter=20_000)
    for k, seed in ((3, 1), (5, 4)):
        net, ops = grid_instance(k, 2, seed)
        first, rest = ops.arc_operators[0], list(ops.arc_operators[1:])
        bpr = first.q.scalar
        nudged = BPR(bpr.alpha, bpr.rho, np.nextafter(bpr.theta, 3.0), bpr.p)
        moved = OperatorSet(net, [ArcOperator(SeparableLift(nudged), first.r)] + rest, list(ops.node_operators))
        counts = []
        for arcs in (ops, moved):
            state, _, reason = run(net, arcs, cfg)
            assert reason is Termination.CONVERGED
            counts.append(state.n)
        assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# the conservation block
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_the_conservation_inverse_is_the_laplacian_pseudo_inverse_on_balanced_vectors(seed):
    # random multigraphs: parallel arcs, several components and isolated nodes
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_nodes=12, max_arcs=10)
    incidence = np.zeros((net.n_nodes, net.n_arcs))
    incidence[net.tails, np.arange(net.n_arcs)] += 1.0
    incidence[net.heads, np.arange(net.n_arcs)] -= 1.0
    inverse = solver._conservation_inverse(net)
    r = rng.standard_normal((net.n_nodes, net.n_commodities))
    for members in weak_components(net):
        r[members] -= r[members].mean(axis=0)
    pinv = np.linalg.pinv(incidence @ incidence.T)
    np.testing.assert_allclose(inverse @ r, pinv @ r, atol=1e-10)
    # a flow plus the tension of F(b - div x) has divergence b exactly, to rounding
    x = rng.standard_normal((net.n_arcs, net.n_commodities))
    fixed = x + net.tension(inverse @ (net.divergence(x) - r))
    np.testing.assert_allclose(net.divergence(fixed), r, atol=1e-10)


@pytest.mark.parametrize("spec, T", SCHEDULES, ids=["full", "roundrobin3", "randomsweep"])
def test_the_conservation_inverse_is_built_once_per_run_and_never_with_the_problem(spec, T, monkeypatch):
    # and the kernels are bound once per run, with it, into the run's workspace
    built, real = [], solver._conservation_inverse
    monkeypatch.setattr(solver, "_conservation_inverse", lambda net: built.append(1) or real(net))
    net, ops = grid_instance(3, 1, seed=5)
    bound, bind = [], ops.bind
    monkeypatch.setattr(ops, "bind", lambda gamma: bound.append(gamma) or bind(gamma))
    assert built == [] and bound == []
    for runs in (1, 2):
        _, trace, _ = run(net, ops, SolverConfig(scheduler=spec, T=T, max_iter=30, tol=1e-300))
        assert len(trace) == 30 and built == [1] * runs and bound == [1.0] * runs


def fejer_case(name, request):
    if name == "two_arc":
        return request.getfixturevalue("two_arc")[1:]
    return grid_instance(4, 2, 3)


@pytest.mark.parametrize("spec", [Full(), RoundRobin(2), RandomSweep(seed=3)], ids=["full", "roundrobin2", "randomsweep"])
@pytest.mark.parametrize("name", ["two_arc", "grid4"])
def test_the_conservation_iterate_is_fejer_monotone(name, spec, request):
    # the distance of (z, w) to the pair (x*, tension v*) of a tol = 1e-10
    # solve never grows, also where stale arc pairs enter the cut; the slack
    # covers that pair's own distance to the solution set, about 1e-10
    net, ops = fejer_case(name, request)
    ref, _, reason = run(net, ops, SolverConfig(tol=1e-10, max_iter=20_000))
    assert reason is Termination.CONVERGED
    star = np.concatenate([ref.x, net.tension(ref.v)])
    state, ws = initial_state(net), new_workspace(net, ops)
    sched = make_scheduler(spec, net)
    distances = [np.linalg.norm(star)]  # (z, w) starts at 0
    for n in range(400):
        step(net, ops, state, ws, sched.select(n))
        distances.append(np.linalg.norm(np.concatenate([state.z, state.w]) - star))
    assert all(b <= a + 1e-8 for a, b in zip(distances, distances[1:]))
    assert distances[-1] < 0.1 * distances[0]


def test_a_step_from_a_solution_pair_does_not_move_it(two_arc):
    # (x*, tension v*) is a fixed point of the conservation block's iteration:
    # at the analytic two-arc solution tau is rounding, and (z, w) moves by
    # an ulp at most; at a tol = 1e-10 solve of a grid, by that tolerance
    inst, net, ops = two_arc
    state = solved_state(net, inst)
    z, w = state.x.copy(), net.tension(state.v)
    record = step(net, ops, state, new_workspace(net, ops))
    assert record.tau <= 1e-28
    np.testing.assert_allclose(state.z, z, rtol=0, atol=4.5e-16)
    np.testing.assert_allclose(state.w, w, rtol=0, atol=4.5e-16)
    net, ops = grid_instance(4, 2, 3)
    ref, _, _ = run(net, ops, SolverConfig(tol=1e-10, max_iter=20_000))
    state = SolverState(ref.x.copy(), ref.v.copy())
    record = step(net, ops, state, new_workspace(net, ops))
    assert record.tau <= 1e-18
    np.testing.assert_allclose(state.z, ref.x, rtol=0, atol=1e-9)
    np.testing.assert_allclose(state.w, net.tension(ref.v), rtol=0, atol=1e-9)
