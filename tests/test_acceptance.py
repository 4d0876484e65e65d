"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single pass/fail line (visible with ``pytest -s`` or
on failure) before asserting, so the whole gate can be read off at a
glance::

    python3 -m pytest tests/test_acceptance.py -s
"""

import math
import zlib

import numpy as np

import netequil as nq
from netequil.cli import main
from netequil.fileio import parse_problem, parse_solution, serialize_problem
from netequil.solver import make_scheduler, new_workspace, step

from conftest import (
    bpr_operators,
    braess_bpr_specs,
    braess_network,
    braess_supplies,
    random_network,
)
from test_operators import DRAWS, draw_trc, invert_capacity

TWO_ARC_PROB = "problems/two_arc.prob"
BRAESS_PROB = "problems/braess.prob"


def report(criterion, ok, detail):
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def two_arc_problem():
    inst = nq.TwoArcInstance(1.0, 2.0, 1.0, 1.0, 3.0)
    net = inst.network()
    return inst, net, inst.operator_set(net)


def test_criterion_1_resolvent_identity_suite():
    worst = {}
    for family, draw in DRAWS.items():
        rng = np.random.default_rng(zlib.crc32(("accept-" + family).encode()))
        err = 0.0
        for _ in range(1000):
            spec, gamma, xi = draw(rng)
            s = spec.resolvent(gamma, xi)
            err = max(err, abs(s + gamma * spec.value(s) - xi) / max(1.0, abs(xi)))
        worst[family] = err
    rng = np.random.default_rng(314)
    trc_gap = 0.0
    for _ in range(200):
        spec, gamma, xi = draw_trc(rng)
        closed = spec.resolvent(gamma, xi)
        trc_gap = max(trc_gap, abs(closed - invert_capacity(spec, gamma, xi)))
    ok = max(worst.values()) <= 1e-8 and trc_gap <= 1e-10
    detail = (
        "identity "
        + ", ".join(f"{k}={v:.1e}" for k, v in sorted(worst.items()))
        + f"; trc closed-form vs inversion {trc_gap:.1e}"
    )
    report(1, ok, detail)


def test_criterion_2_lambert_w():
    # W(x) as W(exp(z)) at z = log x, over the positive part of a grid from -1/e
    xs = -math.exp(-1.0) + np.geomspace(1e-9, 1e6 + math.exp(-1.0), 4000)
    worst = max(
        abs(nq.lambert_w_exp(math.log(x)) * math.exp(nq.lambert_w_exp(math.log(x))) - x) / max(1.0, x)
        for x in xs[xs > 0.0].tolist()
    )
    w0 = nq.lambert_w_exp(-math.inf)
    we = nq.lambert_w_exp(1.0)
    ok = worst <= 1e-12 and w0 == 0.0 and abs(we - 1.0) <= 1e-15
    report(2, ok, f"grid identity {worst:.1e}, W(0)={w0}, |W(e)-1|={abs(we - 1.0):.1e}")


def test_criterion_3_separable_lift():
    rng = np.random.default_rng(2718)
    sum_gap = 0.0
    uniform_shift = True
    for _ in range(400):
        family = rng.choice(sorted(DRAWS))
        spec, gamma, _ = DRAWS[family](rng)
        n = int(rng.integers(1, 7))
        x = rng.standard_normal(n) * 3.0
        out = nq.SeparableLift(spec).resolvent(gamma, x)
        total = float(np.sum(x))
        lifted = spec.resolvent(n * gamma, total)
        sum_gap = max(sum_gap, abs(float(np.sum(out)) - lifted) / max(1.0, abs(total)))
        # one scalar shift applied to every coordinate, bit for bit; pairwise
        # coordinate differences are then preserved (exactly, up to the one
        # rounding each difference already carries)
        eta = (lifted - total) / n
        uniform_shift &= bool(np.array_equal(out, x + eta))
    ok = sum_gap <= 1e-10 and uniform_shift
    report(3, ok, f"sum identity {sum_gap:.1e}, uniform shift exact: {uniform_shift}")


def test_criterion_4_adjointness():
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(100):
        net = random_network(rng, max_nodes=20, max_arcs=60, max_comm=4)
        x = rng.standard_normal((net.n_arcs, net.n_commodities))
        v = rng.standard_normal((net.n_nodes, net.n_commodities))
        lhs = float(np.sum(net.divergence(x) * v))
        rhs = float(np.sum(x * net.tension(v)))
        worst = max(worst, abs(lhs + rhs) / max(1.0, abs(lhs), abs(rhs)))
    report(4, worst <= 1e-12, f"100 random networks, worst defect {worst:.1e}")


def test_criterion_5_two_arc_equilibrium_all_schedulers():
    inst, net, ops = two_arc_problem()
    flow, lam, _ = nq.analytic_two_arc(inst)
    lines = []
    ok = True
    for spec, T in [
        (nq.Full(), 0),
        (nq.RoundRobin(2), 1),
        (nq.RandomSweep(seed=0, activation_prob=0.5), 3),
    ]:
        cfg = nq.SolverConfig(scheduler=spec, T=T, tol=1e-6, max_iter=10**5)
        state, trace, reason = nq.run(net, ops, cfg)
        res = trace[-1].residual
        flow_err = float(np.max(np.abs(state.x[:, 0] - flow)))
        tens_err = float(np.max(np.abs(net.tension(state.v)[:, 0] - lam)))
        good = (
            reason is nq.Termination.CONVERGED
            and res <= 1e-6
            and flow_err <= 1e-5
            and tens_err <= 1e-5
        )
        ok &= good
        lines.append(f"{type(spec).__name__}: n={state.n} flow {flow_err:.1e} tension {tens_err:.1e}")
    report(5, ok, "; ".join(lines))


def test_criterion_6_braess_versus_frank_wolfe():
    net = braess_network()
    specs = braess_bpr_specs()
    ops = nq.OperatorSet(
        net,
        [nq.ArcOperator(nq.SeparableLift(s), nq.Box.orthant(1)) for s in specs],
        [nq.FixedSupply((s,)) for s in braess_supplies()],
    )
    state, _, reason = nq.run(net, ops, nq.SolverConfig(tol=1e-6, max_iter=10**5))
    fw = nq.frank_wolfe_reference(net, specs, braess_supplies(), iterations=10_000)
    gap = float(np.max(np.abs(state.x - fw)))
    wr = nq.wardrop_residual(net, ops, state.x, state.v)
    ok = reason is nq.Termination.CONVERGED and gap <= 1e-3 and wr <= 1e-5
    report(6, ok, f"solver vs Frank-Wolfe {gap:.1e} per arc, equilibrium residual {wr:.1e}")


def test_criterion_7_fejer_monotonicity():
    inst, net, ops = two_arc_problem()
    flow, lam, _ = nq.analytic_two_arc(inst)
    zbar = nq.initial_state(net)
    zbar.x[:, 0] = flow
    zbar.v[:, 0] = [-lam / 2, lam / 2]
    cfg = nq.SolverConfig(tol=1e-6)
    state, ws = nq.initial_state(net), new_workspace(net, ops)

    def dist(s):
        return float(
            np.sqrt(
                np.sum((s.x - zbar.x) ** 2)
                + np.sum((s.v - zbar.v) ** 2)
            )
        )

    worst_increase = -np.inf
    previous = dist(state)
    converged = False
    for _ in range(10**5):
        step(net, ops, state, ws)
        current = dist(state)
        worst_increase = max(worst_increase, current - previous)
        previous = current
        if nq.residual(net, ops, state) <= cfg.tol:
            converged = True
            break
    ok = converged and worst_increase <= 1e-10
    report(7, ok, f"worst per-iteration distance increase {worst_increase:.1e}")


def test_criterion_8_sweeping_enforcement():
    rng = np.random.default_rng(88)
    net = random_network(rng, max_nodes=8, max_arcs=16)
    ops = bpr_operators(net, rng)
    violations = 0
    for spec, T in [
        (nq.Full(), 0),
        (nq.RoundRobin(2), 1),
        (nq.RandomSweep(seed=6, activation_prob=0.3), 3),
    ]:
        sched = make_scheduler(spec, net, T)
        arcs = [sched.select(n) for n in range(1000 + T + 1)]
        for n in range(1000):
            if not np.any(arcs[n : n + T + 1], axis=0).all():
                violations += 1
        # every step activates every node
        cfg = nq.SolverConfig(scheduler=spec, T=T, max_iter=100, tol=1e-300)
        _, trace, _ = nq.run(net, ops, cfg)
        violations += 100 - sum(rec.active_nodes == net.n_nodes for rec in trace)
    try:
        make_scheduler(nq.RoundRobin(4), net, 2)  # 4 groups cannot fit a window of 3
        rejected = False
    except nq.ConfigurationError:
        rejected = True
    ok = violations == 0 and rejected
    report(8, ok, f"{violations} window violations; broken scheduler rejected: {rejected}")


def test_criterion_9_degenerate_branches():
    # a partial step is what can meet a stale cut
    _, net, ops = two_arc_problem()

    # tau = 0: evaluate at the exact solution, the zero flow of a problem
    # without supplies and with phi(s) = s**2/2 on every arc
    zero_net = nq.Network(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")], 1)
    arc = nq.ArcOperator(nq.SeparableLift(nq.IntervalProx(nq.QuadraticPhi(1.0))), nq.Box.free(1))
    zero_ops = nq.OperatorSet(zero_net, [arc] * 3, [nq.FixedSupply((0.0,))] * 3)
    state = nq.initial_state(zero_net)
    rec_tau = step(zero_net, zero_ops, state, new_workspace(zero_net, zero_ops))
    tau_ok = (
        rec_tau.tau == 0.0
        and rec_tau.theta == 0.0
        and not state.z.any()
        and not state.w.any()
    )

    # pi <= 0 < tau: stale caches from a non-solution, evaluated at the
    # solution (z, w) = (x*, tension v*)
    state = nq.initial_state(net)
    state.x = np.array([[3.0], [0.5]])
    state.v = np.array([[1.0], [-1.0]])
    ws = new_workspace(net, ops)
    step(net, ops, state, ws)
    state.x = np.array([[2.0], [1.0]])
    state.v = np.array([[-1.5], [1.5]])
    state.z = None
    rec_pi = step(net, ops, state, ws, np.array([True, False]))
    pi_ok = (
        rec_pi.tau > 0.0
        and rec_pi.pi <= 0.0
        and rec_pi.theta == 0.0
        and np.array_equal(state.z, [[2.0], [1.0]])
        and np.array_equal(state.w, [[3.0], [3.0]])
    )
    ok = tau_ok and pi_ok
    report(
        9,
        ok,
        f"tau=0 branch bitwise: {tau_ok}; pi={rec_pi.pi:.2f}<=0<tau={rec_pi.tau:.2f} bitwise: {pi_ok}",
    )


def test_criterion_10_cli(tmp_path):
    # fixture round trips
    round_trips = True
    for fixture in (TWO_ARC_PROB, BRAESS_PROB):
        text = serialize_problem(parse_problem(fixture))
        round_trips &= serialize_problem(parse_problem(text)) == text

    # solve exits 0 and check accepts the output
    out = str(tmp_path / "two_arc.sol")
    solve_code = main(["solve", TWO_ARC_PROB, "--out", out, "--quiet"])
    check_code = main(["check", TWO_ARC_PROB, out, "--quiet"])
    solution = parse_solution(out, parse_problem(TWO_ARC_PROB))
    flow_ok = bool(np.all(np.abs(solution.flow[:, 0] - [2.0, 1.0]) <= 1e-4))

    # traces bitwise reproducible under a fixed seed
    blobs = []
    for name in ("a.csv", "b.csv"):
        trace = tmp_path / name
        code = main(
            [
                "solve",
                TWO_ARC_PROB,
                "--out",
                str(tmp_path / "s.sol"),
                "--trace",
                str(trace),
                "--scheduler",
                "randomsweep:0.5:99",
                "--quiet",
            ]
        )
        assert code == 0
        blobs.append(trace.read_bytes())
    bitwise = blobs[0] == blobs[1]

    ok = round_trips and solve_code == 0 and check_code == 0 and flow_ok and bitwise
    report(
        10,
        ok,
        f"round-trip {round_trips}, solve exit {solve_code}, check exit {check_code}, "
        f"trace bitwise {bitwise}",
    )
