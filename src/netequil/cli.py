"""Batch command line front end.

    netequil solve <problem> [--out FILE] [--trace FILE] [--tol X]
                   [--max-iter N]
                   [--scheduler full|roundrobin:K|randomsweep:p[:seed]]
                   [--timing] [--quiet]
    netequil check <problem> <solution> [--tol X] [--quiet]
    netequil selftest

Exit codes: 0 converged / check passed (and --help), 1 input error,
a malformed command line included, 2 iteration limit or failed check,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import fileio, oracle, solver
from .errors import ConfigurationError, NumericalFailure, ProblemFormatError
from .solver import Termination

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ITER_LIMIT = 2
EXIT_NUMERICAL = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="netequil",
        description="Multicommodity network equilibrium by block-iterative operator splitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sol = sub.add_parser("solve", help="solve a problem file")
    sol.add_argument("problem", help="problem file path")
    sol.add_argument("--out", help="solution file path (default: stdout)")
    sol.add_argument("--trace", help="write a per-iteration CSV trace here")
    sol.add_argument("--tol", type=float, help="override the residual tolerance")
    sol.add_argument("--max-iter", type=int, help="override the iteration budget")
    sol.add_argument(
        "--scheduler",
        help="override block scheduling: full, roundrobin:K, or randomsweep:p[:seed] "
        "(seed 0 if left out)",
    )
    sol.add_argument(
        "--timing",
        action="store_true",
        help="record wall time in the trace (breaks bitwise trace reproducibility)",
    )
    sol.add_argument("--quiet", action="store_true", help="suppress the summary line")

    chk = sub.add_parser("check", help="recompute the equilibrium residual of a solution")
    chk.add_argument("problem")
    chk.add_argument("solution")
    chk.add_argument("--tol", type=float, help="acceptance tolerance (default: problem tol)")
    chk.add_argument("--quiet", action="store_true")

    sub.add_parser("selftest", help="run the built-in property suites")
    return parser


def _flag(flag, make, *args, **kwargs):
    """make(*args, **kwargs), naming `flag` in front of the reason it is rejected."""
    try:
        return make(*args, **kwargs)
    except (ProblemFormatError, ConfigurationError) as exc:
        raise ConfigurationError(f"{flag}: {exc}") from None


def _apply_overrides(problem, args):
    cfg = problem.config
    if args.tol is not None:
        cfg = _flag("--tol", replace, cfg, tol=args.tol)
    if args.max_iter is not None:
        cfg = _flag("--max-iter", replace, cfg, max_iter=args.max_iter)
    if args.scheduler is not None:
        sched = _flag("--scheduler", fileio._parse_scheduler, args.scheduler, ())
        # a T the file sets is raised to the new scheduler's bound if below it
        T = None if cfg.T is None else max(cfg.T, solver.sweep_bound(sched))
        cfg = _flag("--scheduler", replace, cfg, scheduler=sched, T=T)
    return cfg


def _open(path, default):
    """The file at path opened for writing, else `default` in a context that leaves it open."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(default)


def _cmd_solve(args):
    problem = fileio.parse_problem(args.problem)
    cfg = _apply_overrides(problem, args)
    net, ops = problem.network, problem.operators
    if args.scheduler is not None:  # checked on the network here, not unnamed inside run
        _flag("--scheduler", solver.make_scheduler, cfg.scheduler, net, cfg.T)

    # both outputs are opened before the run, so a bad path costs no solve
    with _open(args.out, sys.stdout) as out, _open(args.trace, None) as trace_file:
        state, trace, reason = solver.run(net, ops, cfg)
        if reason is Termination.CONVERGED:
            final_residual = trace[-1].residual  # the stopping check, at the final state
        else:
            try:
                final_residual = solver.residual(net, ops, cfg, state)
            except NumericalFailure:  # no residual can be evaluated at the final state
                final_residual = math.inf
        solution = fileio.Solution(
            arc_ids=tuple(problem.arc_ids),
            node_ids=tuple(net.nodes),
            flow=state.x,
            potential=state.v,
            residual=final_residual,
            iterations=state.n,
            termination=reason.value,
        )
        out.write(fileio.serialize_solution(solution))
        if trace_file:
            fileio.write_trace(trace, trace_file, timing=args.timing)
    if not args.quiet:
        print(
            f"{reason.value}: {state.n} iterations, residual {final_residual:.3e}",
            file=sys.stderr,
        )
    if reason is Termination.CONVERGED:
        return EXIT_OK
    if reason is Termination.ITER_LIMIT:
        return EXIT_ITER_LIMIT
    return EXIT_NUMERICAL


def _cmd_check(args):
    problem = fileio.parse_problem(args.problem)
    cfg = problem.config if args.tol is None else _flag("--tol", replace, problem.config, tol=args.tol)
    solution = fileio.parse_solution(args.solution, problem)
    wr = oracle.wardrop_residual(
        problem.network, problem.operators, solution.flow, solution.potential
    )
    if not args.quiet:
        print(f"equilibrium residual {wr:.3e} (tolerance {cfg.tol:.3e})", file=sys.stderr)
    return EXIT_OK if wr <= cfg.tol else EXIT_ITER_LIMIT


# --------------------------------------------------------------------------
# selftest: quick in-process property suites
# --------------------------------------------------------------------------


def _suite_lambert_w():
    from .lambertw import lambert_w_exp

    # the positive part of a grid from -1/e, then W(0) and W(e)
    x = -np.exp(-1.0) + np.geomspace(1e-9, 1e6 + np.exp(-1.0), 500)
    x = x[x > 0.0]
    w = lambert_w_exp(np.concatenate([np.log(x), [-np.inf, 1.0]]))
    x = np.concatenate([x, [0.0, np.e]])
    worst = float(np.max(np.abs(w * np.exp(w) - x) / np.maximum(1.0, x)))
    return worst <= 1e-12, f"worst identity error {worst:.2e}"


def _capacity_draws(rng, rounds):
    """(spec, gamma, xi) draws, one per capacity family per round."""
    from .operators import BPR, TRC, Logarithmic, PowerExp

    draws = []
    for _ in range(rounds):
        gamma = 10.0 ** rng.uniform(-2, 1)
        xi = rng.uniform(-30.0, 30.0)
        log_spec = Logarithmic(10.0 ** rng.uniform(-1, 1), rng.uniform(0.0, 3.0))
        # past omega + gamma*(theta + ~15) the output is within an ulp of
        # omega and the identity cannot be evaluated in double precision
        log_xi = log_spec.omega + gamma * (log_spec.theta - rng.uniform(-15.0, 40.0))
        draws += [
            (BPR(*(10.0 ** rng.uniform(-1, 1, size=3)), p=rng.uniform(0.5, 4.0)), gamma, xi),
            (log_spec, gamma, log_xi),
            (TRC(*(10.0 ** rng.uniform(-1, 1, size=4))), gamma, xi),
            (PowerExp(1.0 + 10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-1, 1), rng.uniform(0.2, 2.0)), gamma, xi),
        ]
    return draws


def _suite_resolvent_identity():
    from .operators import Logarithmic

    rng = np.random.default_rng(20240)
    draws = _capacity_draws(rng, 200)
    arc_worst = _arc_block_inclusion(rng)
    for _ in range(200):  # Logarithmic roots near 0, far below omega
        gamma, theta, omega = 10.0 ** rng.uniform(-2, 1), rng.uniform(0.0, 3.0), 10.0 ** rng.uniform(4, 300)
        draws.append((Logarithmic(omega, theta), gamma, gamma * (theta + rng.uniform(-3.0, 3.0))))
    worst = 0.0
    for spec, gamma, xi in draws:
        s = spec.resolvent(gamma, xi)
        worst = max(worst, abs(s + gamma * spec.value(s) - xi) / max(1.0, abs(xi)))
    ok = worst <= 1e-8 and arc_worst <= 1e-9
    return ok, f"worst identity error {worst:.2e}, arc block inclusion error {arc_worst:.2e}"


def _arc_block_inclusion(rng):
    """Worst error of x = J(xi) for an arc block, cost plus box, over random draws.

    For C = 1-3 commodities and random boxes (orthants, finite and
    half-open), x must lie in the box B and w = (xi - x)/gamma - c(sum x)
    in its normal cone at x: 0 where lo < x < hi, <= 0 at lo, >= 0 at hi.
    An x outside B counts as inf, the rest relative to max(1, |xi|/gamma,
    |c|).  Lower bounds are at most 0, so every box meets the
    Logarithmic domain, and its total stays below omega/2, off the pole.
    One draw in four, each capacity family in turn, straddles the
    free-flow screen: C = 2-3, lower bounds 0, and the largest xi at
    gamma*c(0) times 1 - 1e-9, 1 + 1e-9 or 1 + 1e-6, the others below
    it; a row screened at 1 + 1e-6 errs by more than the 1e-9 allowed.
    """
    from .network import Network
    from .operators import ArcOperator, Box, FixedSupply, Logarithmic, OperatorSet, SeparableLift

    worst = 0.0
    for trial, (spec, gamma, _) in enumerate(_capacity_draws(rng, 40)):
        straddle = (trial // 4) % 4 == trial % 4  # draws come in family order
        n = 2 + (trial // 4) % 2 if straddle else 1 + trial % 3
        lo = np.where(rng.random(n) < 0.3, -np.inf, -rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.5))
        hi = np.where(rng.random(n) < 0.4, np.inf, rng.uniform(0.0, 3.0, n))
        xi = rng.uniform(-10.0, spec.omega / (2 * n) if isinstance(spec, Logarithmic) else 10.0, n)
        if straddle:
            lo, t = np.zeros(n), gamma * spec.value(0.0)
            xi = t - rng.uniform(0.0, 2.0, n) * max(t, 1.0)
            xi[rng.integers(n)] = t * (1.0 + rng.choice((-1e-9, 1e-9, 1e-6)))
        ops = OperatorSet(
            Network("ab", [("a", "b")], n), [ArcOperator(SeparableLift(spec), Box(lo, hi))], [FixedSupply((0.0,) * n)] * 2
        )
        x = ops.capacity_resolvent(np.arange(1), ops.bind(np.full(1, gamma)), xi[None, :])[0]
        c = spec.value(float(x.sum()))
        if c is None or not ((lo <= x) & (x <= hi)).all():
            return math.inf
        w = (xi - x) / gamma - c
        w = np.where(x <= lo, np.maximum(w, 0.0), w)
        w = np.where(x >= hi, np.minimum(w, 0.0) * (x > lo), w)
        worst = max(worst, float(np.abs(w).max()) / max(1.0, float(np.abs(xi).max()) / gamma, abs(c)))
    return worst


def _suite_adjointness():
    from .network import Network

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        n_nodes = rng.integers(2, 12)
        n_arcs = rng.integers(1, 30)
        n_comm = rng.integers(1, 4)
        pairs = []
        for _ in range(n_arcs):
            t = rng.integers(n_nodes)
            h = (t + rng.integers(1, n_nodes)) % n_nodes
            pairs.append((int(t), int(h)))
        net = Network(range(n_nodes), pairs, int(n_comm))
        x = rng.standard_normal((net.n_arcs, net.n_commodities))
        v = rng.standard_normal((net.n_nodes, net.n_commodities))
        lhs = float(np.sum(net.divergence(x) * v))
        rhs = float(np.sum(x * net.tension(v)))
        worst = max(worst, abs(lhs + rhs) / max(1.0, abs(lhs), abs(rhs)))
    return worst <= 1e-12, f"worst adjointness defect {worst:.2e}"


def _suite_two_arc():
    from .oracle import TwoArcInstance, analytic_two_arc, wardrop_residual
    from .solver import SolverConfig, run

    inst = TwoArcInstance(1.0, 2.0, 1.0, 1.0, 3.0)
    net = inst.network()
    ops = inst.operator_set(net)
    flow, lam, _ = analytic_two_arc(inst)
    state, _, reason = run(net, ops, SolverConfig(tol=1e-6, max_iter=100_000))
    err = float(np.max(np.abs(state.x[:, 0] - flow)))
    wr = wardrop_residual(net, ops, state.x, state.v)
    ok = reason is Termination.CONVERGED and err <= 1e-5 and wr <= 1e-6
    return ok, f"{reason.value}, flow error {err:.2e}, equilibrium residual {wr:.2e}"


def _suite_sweeping():
    from .network import Network
    from .operators import BPR, ArcOperator, Box, FixedSupply, OperatorSet, SeparableLift
    from .solver import RandomSweep, SolverConfig, make_scheduler, run

    net = Network(range(5), [(i, (i + 1) % 5) for i in range(5)] + [(0, 2), (1, 3)], 1)
    spec = RandomSweep(seed=3, activation_prob=0.2)
    sched = make_scheduler(spec, net, 3)
    arc_hist = [sched.select(n) for n in range(300 + 4)]
    covered = all(np.any(arc_hist[n : n + 4], axis=0).all() for n in range(300))
    arc = ArcOperator(SeparableLift(BPR(alpha=0.15, rho=1.0, theta=1.0, p=4.0)), Box.orthant(1))
    supplies = [FixedSupply((s,)) for s in (2.0, 0.0, -1.0, 0.0, -1.0)]
    ops = OperatorSet(net, [arc] * net.n_arcs, supplies)
    _, trace, _ = run(net, ops, SolverConfig(scheduler=spec, T=3, max_iter=40, tol=1e-300))
    ok = covered and len(trace) == 40
    return ok, "every T+1 window covers all arcs" if ok else "coverage violated"


def _cmd_selftest(args):
    suites = [
        ("lambert-w identity", _suite_lambert_w),
        ("resolvent identities", _suite_resolvent_identity),
        ("divergence/tension adjointness", _suite_adjointness),
        ("two-arc equilibrium", _suite_two_arc),
        ("sweeping condition", _suite_sweeping),
    ]
    failed = 0
    for name, fn in suites:
        ok, detail = fn()
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failed += not ok
    return EXIT_OK if failed == 0 else EXIT_NUMERICAL


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error and 0 after --help
        return EXIT_INPUT if exc.code else EXIT_OK
    handler = {"solve": _cmd_solve, "check": _cmd_check, "selftest": _cmd_selftest}[args.command]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            return handler(args)
    except (ProblemFormatError, ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
