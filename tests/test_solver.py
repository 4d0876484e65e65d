import numpy as np
import pytest

from netequil import (
    BPR,
    ConfigurationError,
    Full,
    Network,
    NumericalFailure,
    ProblemFormatWarning,
    RandomSweep,
    RoundRobin,
    SolverConfig,
    Termination,
    analytic_two_arc,
    initial_state,
    make_scheduler,
    new_workspace,
    residual,
    run,
    scalar_resolvent,
    step,
    step_parameters,
)
from netequil import operators
from netequil.fileio import Problem, parse_problem, serialize_problem
from netequil.operators import (
    TRC,
    AffinePhi,
    ArcOperator,
    Box,
    CustomPhi,
    FixedSupply,
    IntervalProx,
    OperatorSet,
    PowerExp,
    SeparableLift,
)

from conftest import random_network


def solved_state(net, inst):
    """Exact equilibrium triple of the two-arc instance (zero arc duals)."""
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
            arcs, nodes = sched.select(n)
            assert arcs.all() and nodes.all()

    def test_round_robin_alternates_and_covers(self, two_arc):
        _, net, _ = two_arc
        sched = make_scheduler(RoundRobin(2), net, 1)
        arcs0, nodes0 = sched.select(0)
        assert arcs0.all() and nodes0.all()  # iteration 0 activates everything
        history = [sched.select(n)[0] for n in range(1, 12)]
        for n, mask in zip(range(1, 12), history):
            expected = np.arange(2) % 2 == n % 2
            assert np.array_equal(mask, expected)
        for k in range(len(history) - 1):  # any window of T+1 = 2 covers all arcs
            assert (history[k] | history[k + 1]).all()

    def test_random_sweep_forces_stale_blocks(self):
        net = Network(range(4), [(i, (i + 1) % 4) for i in range(4)], 1)
        sched = make_scheduler(RandomSweep(seed=5, activation_prob=0.0), net, 3)
        arc_hist = [sched.select(n)[0] for n in range(100)]
        for n in range(100 - 4):
            window = np.any(arc_hist[n : n + 4], axis=0)
            assert window.all()  # with p = 0, staleness alone activates every 4th

    def test_random_sweep_never_empty(self):
        net = Network(range(3), [(0, 1), (1, 2), (2, 0)], 1)
        sched = make_scheduler(RandomSweep(seed=11, activation_prob=0.05), net, 50)
        for n in range(200):
            arcs, nodes = sched.select(n)
            assert arcs.any() and nodes.any()

    def test_sweep_condition_all_schedulers(self):
        rng = np.random.default_rng(2)
        net = random_network(rng, max_nodes=8, max_arcs=15)
        cases = [
            (Full(), 0),
            (RoundRobin(2), 2),
            (RandomSweep(seed=1, activation_prob=0.4), 3),
        ]
        for spec, T in cases:
            sched = make_scheduler(spec, net, T)
            arc_hist, node_hist = [], []
            for n in range(300 + T + 1):
                a, m = sched.select(n)
                arc_hist.append(a)
                node_hist.append(m)
            for n in range(300):
                assert np.any(arc_hist[n : n + T + 1], axis=0).all()
                assert np.any(node_hist[n : n + T + 1], axis=0).all()

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

    def test_random_sweep_is_deterministic_per_seed(self, two_arc):
        _, net, _ = two_arc
        a = make_scheduler(RandomSweep(seed=9, activation_prob=0.5), net, 2)
        b = make_scheduler(RandomSweep(seed=9, activation_prob=0.5), net, 2)
        for n in range(50):
            am, nm = a.select(n)
            bm, bn = b.select(n)
            assert np.array_equal(am, bm) and np.array_equal(nm, bn)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


class TestConfig:
    def test_relaxation_range(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(relaxation=2.0)
        with pytest.raises(ConfigurationError):
            SolverConfig(relaxation=0.0)

    def test_relaxation_schedule_with_bounds(self, two_arc):
        _, net, ops = two_arc
        cfg = SolverConfig(relaxation=(lambda n: 1.0 + 0.5 / (n + 1), 1.0, 1.5))
        state, trace, reason = run(net, ops, cfg)
        assert reason is Termination.CONVERGED
        assert trace[0].relaxation == 1.5

    def test_relaxation_schedule_violating_bounds_raises(self, two_arc):
        _, net, ops = two_arc
        cfg = SolverConfig(relaxation=(lambda n: 1.99, 0.5, 1.0))
        with pytest.raises(ConfigurationError, match="stated bounds"):
            run(net, ops, cfg)

    def test_step_parameters_must_be_positive(self, two_arc):
        _, net, ops = two_arc
        state, ws = initial_state(net), new_workspace(net)
        with pytest.raises(ConfigurationError, match="gamma"):
            step(net, ops, SolverConfig(gamma=0.0), state, ws)
        with pytest.raises(ConfigurationError, match="sigma"):
            step(net, ops, SolverConfig(sigma=-1.0), state, ws)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("gamma", np.ones(5), "gamma has 5 entries for 2 arcs"),
            ("mu", np.ones(3), "mu has 3 entries for 2 arcs"),
            ("sigma", np.ones((2, 2)), "sigma has 4 entries for 2 nodes"),
        ],
    )
    def test_step_parameters_of_wrong_length_name_both_lengths(self, two_arc, field, value, message):
        _, net, ops = two_arc
        cfg = SolverConfig(**{field: value})
        with pytest.raises(ConfigurationError, match=message):
            step_parameters(net, cfg)
        with pytest.raises(ConfigurationError, match=message):
            run(net, ops, cfg)

    @pytest.mark.parametrize("field", ["max_iter", "check_interval"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "3"])
    def test_iteration_counts_must_be_integers(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be a"):
            SolverConfig(**{field: value})

    def test_iteration_counts_accept_numpy_integers(self, two_arc):
        _, net, ops = two_arc
        cfg = SolverConfig(max_iter=np.int64(20), check_interval=np.int32(4), tol=1e-300)
        _, trace, _ = run(net, ops, cfg)
        assert len(trace) == 20 and trace[3].residual is not None

    def test_per_entity_step_parameters(self, two_arc):
        _, net, ops = two_arc
        cfg = SolverConfig(gamma=np.array([0.5, 2.0]), mu=np.array([1.0, 3.0]), sigma=0.7)
        state, _, reason = run(net, ops, cfg)
        assert reason is Termination.CONVERGED


# ---------------------------------------------------------------------------
# the iteration itself
# ---------------------------------------------------------------------------


class TestStep:
    def test_tau_zero_at_solution_leaves_state_bitwise(self, two_arc):
        inst, net, ops = two_arc
        state = solved_state(net, inst)
        ws = new_workspace(net)
        before = (state.x.copy(), state.xstar.copy(), state.v.copy())
        record = step(net, ops, SolverConfig(), state, ws)
        assert record.tau == 0.0 and record.theta == 0.0
        assert np.array_equal(state.x, before[0])
        assert np.array_equal(state.xstar, before[1])
        assert np.array_equal(state.v, before[2])

    def test_negative_pi_with_positive_tau_leaves_state_bitwise(self, two_arc):
        # fill the caches from a non-solution, teleport to the solution, then
        # activate only one block: the stale cut cannot separate a point of
        # the solution set, so pi <= 0 and the relaxed projection is skipped
        inst, net, ops = two_arc
        cfg = SolverConfig()
        state = initial_state(net)
        state.x = np.array([[3.0], [0.5]])
        state.v = np.array([[1.0], [-1.0]])
        ws = new_workspace(net)
        step(net, ops, cfg, state, ws)
        solved = solved_state(net, inst)
        state.x, state.xstar, state.v = solved.x, solved.xstar, solved.v
        before = (state.x.copy(), state.xstar.copy(), state.v.copy())
        record = step(
            net,
            ops,
            cfg,
            state,
            ws,
            np.array([True, False]),
            np.array([True, False]),
        )
        assert record.tau > 0.0
        assert record.pi <= 0.0
        assert record.theta == 0.0
        assert np.array_equal(state.x, before[0])
        assert np.array_equal(state.xstar, before[1])
        assert np.array_equal(state.v, before[2])

    def test_theta_bounds(self, two_arc):
        _, net, ops = two_arc
        cfg = SolverConfig()
        state, ws = initial_state(net), new_workspace(net)
        for _ in range(30):
            record = step(net, ops, cfg, state, ws)
            assert record.tau >= 0.0
            assert record.theta >= 0.0
            if record.tau > 0.0 and record.pi > 0.0:
                assert record.theta == pytest.approx(
                    record.relaxation * record.pi / record.tau, rel=1e-12
                )

    def test_inactive_caches_bitwise_stable(self, two_arc):
        _, net, ops = two_arc
        cfg = SolverConfig()
        state, ws = initial_state(net), new_workspace(net)
        step(net, ops, cfg, state, ws)
        cached = {k: getattr(ws, k).copy() for k in ("q", "qstar", "r", "rstar", "s", "sstar")}
        step(net, ops, cfg, state, ws, np.array([True, False]), np.array([False, True]))
        for key in ("q", "qstar", "r", "rstar"):
            assert np.array_equal(getattr(ws, key)[1], cached[key][1])
        for key in ("s", "sstar"):
            assert np.array_equal(getattr(ws, key)[0], cached[key][0])

    def test_t_node_refreshed_for_inactive_nodes(self, two_arc):
        # t carries div(q), which moves when any arc updates, so inactive
        # nodes still get a fresh t every iteration
        _, net, ops = two_arc
        cfg = SolverConfig()
        state, ws = initial_state(net), new_workspace(net)
        step(net, ops, cfg, state, ws)
        t_before = ws.t_node.copy()
        step(net, ops, cfg, state, ws, np.array([True, True]), np.array([True, False]))
        assert not np.array_equal(ws.t_node[1], t_before[1])

    def test_empty_activation_rejected(self, two_arc):
        _, net, ops = two_arc
        state, ws = initial_state(net), new_workspace(net)
        with pytest.raises(ConfigurationError, match="nonempty"):
            step(net, ops, SolverConfig(), state, ws, np.array([False, False]), None)

    def test_non_finite_input_raises_numerical_failure(self, two_arc):
        _, net, ops = two_arc
        state, ws = initial_state(net), new_workspace(net)
        state.x[0, 0] = np.inf
        with pytest.raises(NumericalFailure, match="iteration 0"):
            step(net, ops, SolverConfig(), state, ws)


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------


class TestResidual:
    def test_zero_at_solution(self, two_arc):
        inst, net, ops = two_arc
        assert residual(net, ops, SolverConfig(), solved_state(net, inst)) <= 1e-10

    def test_positive_off_solution(self, two_arc):
        inst, net, ops = two_arc
        state = solved_state(net, inst)
        state.x[:, 0] = [3.0, 0.0]
        assert residual(net, ops, SolverConfig(), state) > 0.1

    def test_zero_for_degenerate_zero_problem(self):
        # vanishing capacity (theta -> 0 limit via a tiny prox slope), free
        # constraint set, zero supplies: the zero state already solves it
        net = Network(["a", "b"], [("a", "b")], 1)
        arc = ArcOperator(
            SeparableLift(IntervalProx(CustomPhi(lambda gamma, xi: xi))), Box.free(1)
        )
        ops = OperatorSet(net, [arc], [FixedSupply((0.0,)), FixedSupply((0.0,))])
        assert residual(net, ops, SolverConfig(), initial_state(net)) == 0.0

    def test_does_not_mutate_state_or_workspace(self, two_arc):
        _, net, ops = two_arc
        cfg = SolverConfig()
        state, ws = initial_state(net), new_workspace(net)
        step(net, ops, cfg, state, ws)
        snap_state = (state.x.copy(), state.xstar.copy(), state.v.copy())
        snap_q = ws.q.copy()
        residual(net, ops, cfg, state)
        assert np.array_equal(state.x, snap_state[0])
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

    def test_start_at_solution_converges_without_moving(self, two_arc):
        inst, net, ops = two_arc
        state0 = solved_state(net, inst)
        snapshot = state0.x.copy()
        state, trace, reason = run(net, ops, SolverConfig(), state=state0)
        assert reason is Termination.CONVERGED
        assert state.n == 1  # tau = 0 triggers the immediate residual check
        assert trace[0].theta == 0.0
        assert np.array_equal(state.x, snapshot)

    def test_zero_iteration_budget(self, two_arc):
        _, net, ops = two_arc
        state, trace, reason = run(net, ops, SolverConfig(max_iter=0))
        assert reason is Termination.ITER_LIMIT
        assert state.n == 0 and trace == []
        assert not state.x.any()

    def test_check_interval_does_not_change_iterates(self, two_arc):
        _, net, ops = two_arc
        iterates = []
        for interval in (5, 10):
            cfg = SolverConfig(check_interval=interval, max_iter=40, tol=1e-300)
            state, _, _ = run(net, ops, cfg)
            iterates.append((state.x.copy(), state.xstar.copy(), state.v.copy()))
        for a, b in zip(*iterates):
            assert np.array_equal(a, b)

    def test_numerical_failure_reported(self):
        net = Network(["a", "b"], [("a", "b")], 1)
        poisoned = ArcOperator(
            SeparableLift(IntervalProx(CustomPhi(lambda gamma, xi: float("nan")))),
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

    def test_threads_key_parses_to_the_same_run_bitwise(self, braess):
        net, ops, _ = braess
        cfg = SolverConfig(max_iter=50, tol=1e-300)
        text = serialize_problem(Problem(net, tuple("abcde"), ops, cfg))
        assert "threads" not in text
        with pytest.warns(ProblemFormatWarning, match="'threads' is obsolete"):
            problem = parse_problem(text + "threads = 3\n")
        plain, _, _ = run(net, ops, cfg)
        parsed, _, _ = run(problem.network, problem.operators, problem.config)
        assert np.array_equal(plain.x, parsed.x)
        assert np.array_equal(plain.v, parsed.v)

    def test_bpr_stall_ends_run_with_numerical_failure(self, monkeypatch):
        monkeypatch.setattr(operators, "_BPR_MAX_ITER", 0)
        net = Network(["a", "b"], [("a", "b"), ("a", "b")], 1)
        arcs = [
            ArcOperator(SeparableLift(BPR(alpha=0.15, rho=1.0, theta=theta, p=4.0)), Box.orthant(1))
            for theta in (1.0, 2.0)
        ]
        ops = OperatorSet(net, arcs, [FixedSupply((3.0,)), FixedSupply((-3.0,))])
        with pytest.raises(NumericalFailure, match="BPR root"):
            scalar_resolvent(arcs[0].q.scalar, 1.0, 10.0)
        state, trace, reason = run(net, ops, SolverConfig(max_iter=50))
        assert reason is Termination.NUMERICAL_FAILURE

    def test_fejer_monotone_distance_to_solution(self, two_arc):
        inst, net, ops = two_arc
        zbar = solved_state(net, inst)
        cfg = SolverConfig(tol=1e-6)
        state, ws = initial_state(net), new_workspace(net)

        def dist(s):
            return float(
                np.sqrt(
                    np.sum((s.x - zbar.x) ** 2)
                    + np.sum((s.xstar - zbar.xstar) ** 2)
                    + np.sum((s.v - zbar.v) ** 2)
                )
            )

        previous = dist(state)
        for _ in range(200):
            step(net, ops, cfg, state, ws)
            current = dist(state)
            assert current <= previous + 1e-10
            previous = current
            if residual(net, ops, cfg, state) <= cfg.tol:
                break
        else:
            pytest.fail("did not converge within 200 iterations")


# ---------------------------------------------------------------------------
# run reuses the residual sweep in the next step, bit for bit
# ---------------------------------------------------------------------------


def manual_run(net, ops, cfg):
    """`run` spelled out with the public step and residual, no sweep reused.

    Like `run`, the residual starts its kernels from the iteration's roots.
    """
    sched = make_scheduler(cfg.scheduler, net, cfg.T)
    state, ws, sweep, trace = initial_state(net), new_workspace(net), new_workspace(net), []
    for k in range(cfg.max_iter):
        arcs, nodes = sched.select(state.n)
        record = step(net, ops, cfg, state, ws, arcs, nodes)
        if ws.tau == 0.0 or (k + 1) % cfg.check_interval == 0:
            sweep.root[:] = ws.root
            record.residual = residual(net, ops, cfg, state, sweep=sweep)
        trace.append(record)
        if record.residual is not None and record.residual <= cfg.tol:
            break
    return state, trace


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
    supply[-1] -= supply.sum(axis=0)
    return net, OperatorSet(net, arcs, [FixedSupply(tuple(row)) for row in supply])


SCHEDULES = [(Full(), 0), (RoundRobin(3), 2), (RandomSweep(seed=5, activation_prob=0.4), 3)]


@pytest.mark.parametrize("spec, T", SCHEDULES, ids=["full", "roundrobin3", "randomsweep"])
def test_run_matches_manual_step_residual_loop_bitwise(spec, T, braess):
    cases = [
        # residual checks at odd offsets, never converging
        (*mixed_multicommodity_instance(seed), SolverConfig(
            scheduler=spec, T=T, max_iter=90, check_interval=7, tol=1e-300
        ))
        for seed in (3, 4)
    ]
    # run to convergence, through the tau = 0 and final residual checks
    cases.append((*braess[:2], SolverConfig(scheduler=spec, T=T, max_iter=20_000)))
    for net, ops, cfg in cases:
        state, trace, _ = run(net, ops, cfg)
        ref_state, ref_trace = manual_run(net, ops, cfg)
        assert state.n == ref_state.n
        for got, want in zip((state.x, state.xstar, state.v), (ref_state.x, ref_state.xstar, ref_state.v)):
            assert np.array_equal(got, want)
        rows = [(r.tau, r.pi, r.theta, r.residual) for r in trace]
        assert rows == [(r.tau, r.pi, r.theta, r.residual) for r in ref_trace]
        assert any(r.residual is not None for r in trace)


@pytest.mark.parametrize("spec, T", SCHEDULES, ids=["full", "roundrobin3", "randomsweep"])
def test_two_runs_on_one_operator_set_are_bitwise_equal(spec, T):
    # the kernel roots live in the run's workspace, not in the OperatorSet
    net, ops = mixed_multicommodity_instance(6)
    cfg = SolverConfig(scheduler=spec, T=T, max_iter=120, check_interval=9, tol=1e-300)
    probe = initial_state(net)
    probe.x[:] = 0.5
    cold = residual(net, ops, cfg, probe)
    first, first_trace, _ = run(net, ops, cfg)
    second, second_trace, _ = run(net, ops, cfg)
    for got, want in zip((second.x, second.xstar, second.v), (first.x, first.xstar, first.v)):
        assert np.array_equal(got, want)
    rows = [(r.tau, r.pi, r.theta, r.residual) for r in second_trace]
    assert rows == [(r.tau, r.pi, r.theta, r.residual) for r in first_trace]
    # a residual without a sweep workspace starts cold, before and after runs
    assert residual(net, ops, cfg, probe) == cold


def test_workspace_roots_follow_the_evaluated_arcs(two_arc):
    _, net, ops = two_arc
    cfg = SolverConfig()
    state, ws = initial_state(net), new_workspace(net)
    assert np.isnan(ws.root).all()
    step(net, ops, cfg, state, ws, np.array([True, False]), np.array([True, True]))
    assert np.isfinite(ws.root[0]) and np.isnan(ws.root[1])
    # the root is the scalar resolvent of the arc's row total, at C*gamma
    assert ws.root[0] == pytest.approx(float(np.sum(ws.q[0])), rel=1e-12)
