"""Batch command line front end.

    netequil solve <problem> [--out FILE] [--trace FILE] [--tol X]
                   [--max-iter N] [--scheduler full|roundrobin:K|randomsweep:p]
                   [--seed N] [--timing] [--quiet]
    netequil check <problem> <solution> [--tol X] [--quiet]
    netequil selftest

Exit codes: 0 converged / check passed, 1 input error, 2 iteration limit
or failed check, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import fileio, oracle, solver
from .errors import ConfigurationError, ProblemFormatError
from .solver import RandomSweep, Termination

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
        help="override block scheduling: full, roundrobin:K, or randomsweep:p",
    )
    sol.add_argument("--seed", type=int, help="random-sweep seed override")
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


def _apply_overrides(problem, args):
    cfg = problem.config
    updates = {}
    if args.tol is not None:
        updates["tol"] = args.tol
    if args.max_iter is not None:
        updates["max_iter"] = args.max_iter
    if args.scheduler is not None:
        seed = args.seed if args.seed is not None else _scheduler_seed(cfg)
        sched, t_default = fileio._parse_scheduler(args.scheduler, seed, "flags", 0)
        updates["scheduler"] = sched
        if t_default is not None and not isinstance(sched, solver.Full):
            updates["T"] = max(cfg.T, t_default) if cfg.T else t_default
    elif args.seed is not None and isinstance(cfg.scheduler, RandomSweep):
        updates["scheduler"] = replace(cfg.scheduler, seed=args.seed)
    return replace(cfg, **updates) if updates else cfg


def _scheduler_seed(cfg):
    return cfg.scheduler.seed if isinstance(cfg.scheduler, RandomSweep) else 0


def _cmd_solve(args):
    problem = fileio.parse_problem(args.problem)
    cfg = _apply_overrides(problem, args)
    net, ops = problem.network, problem.operators

    state, trace, reason = solver.run(net, ops, cfg)
    # the stopping rule watches the splitting residual; tighten until the
    # equilibrium-inclusion residual of the written solution passes the
    # same tolerance, so `check` accepts everything `solve` emits; the reruns
    # share the iteration budget of the first run
    if reason is Termination.CONVERGED:
        tighter = cfg
        for _ in range(5):
            wr = oracle.wardrop_residual(net, ops, state.x, state.v)
            if wr <= cfg.tol or state.n >= cfg.max_iter:
                break
            tighter = replace(tighter, tol=tighter.tol / 10.0, max_iter=cfg.max_iter - state.n)
            state, extra, reason = solver.run(net, ops, tighter, state=state)
            trace.extend(extra)
            if reason is not Termination.CONVERGED:
                break

    if reason is Termination.CONVERGED:
        final_residual = trace[-1].residual  # the stopping check, at the final state
    else:
        final_residual = solver.residual(net, ops, cfg, state)
    solution = fileio.Solution(
        arc_ids=tuple(problem.arc_ids),
        node_ids=tuple(net.nodes),
        flow=state.x,
        arc_dual=state.xstar,
        potential=state.v,
        residual=final_residual,
        iterations=state.n,
        termination=reason.value,
    )
    text = fileio.serialize_solution(solution)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            fileio.write_trace(trace, handle, timing=args.timing)
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
    solution = fileio.parse_solution(args.solution, problem)
    tol = args.tol if args.tol is not None else problem.config.tol
    wr = oracle.wardrop_residual(
        problem.network, problem.operators, solution.flow, solution.potential
    )
    if not args.quiet:
        print(f"equilibrium residual {wr:.3e} (tolerance {tol:.3e})", file=sys.stderr)
    return EXIT_OK if wr <= tol else EXIT_ITER_LIMIT


# --------------------------------------------------------------------------
# selftest: quick in-process property suites
# --------------------------------------------------------------------------


def _suite_lambert_w():
    from .lambertw import lambert_w

    grid = np.concatenate(
        [
            -np.exp(-1.0) + np.geomspace(1e-9, 1e6 + np.exp(-1.0), 500),
            [0.0, np.e],
        ]
    )
    worst = max(
        abs(lambert_w(x) * math.exp(lambert_w(x)) - x) / max(1.0, abs(x)) for x in grid
    )
    return worst <= 1e-12, f"worst identity error {worst:.2e}"


def _suite_resolvent_identity():
    from .operators import BPR, TRC, Logarithmic, PowerExp

    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(200):
        gamma = 10.0 ** rng.uniform(-2, 1)
        xi = rng.uniform(-30.0, 30.0)
        log_spec = Logarithmic(10.0 ** rng.uniform(-1, 1), rng.uniform(0.0, 3.0))
        # past omega + gamma*(theta + ~15) the output is within an ulp of
        # omega and the identity cannot be evaluated in double precision
        log_xi = log_spec.omega + gamma * (log_spec.theta - rng.uniform(-15.0, 40.0))
        for spec, point in (
            (BPR(*(10.0 ** rng.uniform(-1, 1, size=3)), p=rng.uniform(0.5, 4.0)), xi),
            (log_spec, log_xi),
            (TRC(*(10.0 ** rng.uniform(-1, 1, size=4))), xi),
            (
                PowerExp(
                    1.0 + 10.0 ** rng.uniform(-1, 1),
                    10.0 ** rng.uniform(-1, 1),
                    rng.uniform(0.2, 2.0),
                ),
                xi,
            ),
        ):
            s = spec.resolvent(gamma, point)
            err = abs(s + gamma * spec.value(s) - point) / max(1.0, abs(point))
            worst = max(worst, err)
    return worst <= 1e-8, f"worst identity error {worst:.2e}"


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
    from .solver import RandomSweep, make_scheduler

    net = Network(range(5), [(i, (i + 1) % 5) for i in range(5)] + [(0, 2), (1, 3)], 1)
    sched = make_scheduler(RandomSweep(seed=3, activation_prob=0.2), net, 3)
    arc_hist, node_hist = [], []
    for n in range(300 + 4):
        am, nm = sched.select(n)
        arc_hist.append(am)
        node_hist.append(nm)
    ok = all(
        np.any(arc_hist[n : n + 4], axis=0).all() and np.any(node_hist[n : n + 4], axis=0).all()
        for n in range(300)
    )
    return ok, "every window of T+1 iterations covers all blocks" if ok else "coverage violated"


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
    args = _build_parser().parse_args(argv)
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
