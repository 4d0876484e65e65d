"""The traced run: per-layer counts and times, and per-family micro-timings.

The traced run solves every instance twice.  The first pass runs the
library leg untraced; the second runs library and CLI legs under the
`Tracer`.  The tracing overhead is the difference between the two passes'
fastest per-iteration block times (see bench.py on why the fastest),
scaled to a whole solve.  A third, separate library solve of the first
instance records resolvent inputs (every STRIDE-th call per family), on
which `scalar_resolvent` and `SeparableLift.resolvent` are then timed one
family at a time.
"""

import math
import os
import statistics
import time

import bench
import instances
import netequil.operators as operators
import netequil.solver as solver
from tracing import Tracer

FAMILIES = ("bpr", "log", "trc", "powerexp", "prox")
STRIDE = 7
SAMPLES = 400  # captured inputs per family
MICRO_REPEATS = 7
_clock = time.perf_counter


def traced_run(workload, cases):
    untraced, traced = [], []  # per-iteration block times of the two passes
    for case in cases:
        bench.solve_library(case, bench.BlockTimer(case.instance.config.check_interval, untraced))

    reruns = {"first": False, "count": 0, "iterations": 0}

    def on_run(tracer, args, result):
        if tracer.parent() != "cli.solve":
            return
        if reruns["first"]:
            reruns["first"] = False
        else:
            reruns["count"] += 1
            reruns["iterations"] += len(result[1])

    tracer = Tracer({"solver.run": on_run})
    with tracer:
        for case in cases:
            bench.solve_library(case, bench.BlockTimer(case.instance.config.check_interval, traced))
            reruns["first"] = True
            bench.solve_cli(workload, case, bench.Samples(), tracer.span)
    micro = micro_timings(capture_inputs(cases[0]))
    overhead = (min(traced) - min(untraced), min(untraced))
    return layer_metrics(tracer, cases, overhead, reruns, micro), tracer.rows()


def capture_inputs(case):
    """Resolvent inputs (lift, gamma, x) seen while solving `case`, per family."""
    seen = {name: 0 for name in FAMILIES}
    samples = {name: [] for name in FAMILIES}
    original = operators.SeparableLift.resolvent

    def capturing(lift, gamma, x):
        name = instances.family_name(lift.scalar)
        seen[name] += 1
        if seen[name] % STRIDE == 0 and len(samples[name]) < SAMPLES:
            samples[name].append((lift, gamma, x.copy()))
        return original(lift, gamma, x)

    operators.SeparableLift.resolvent = capturing
    try:
        inst = case.instance
        solver.run(inst.network, inst.operators, inst.config)
    finally:
        operators.SeparableLift.resolvent = original
    return samples


def _per_call_us(fn, args_list):
    best = []
    for _ in range(MICRO_REPEATS):
        t0 = _clock()
        for args in args_list:
            fn(*args)
        best.append((_clock() - t0) / len(args_list))
    return 1e6 * statistics.median(best)


def micro_timings(samples):
    """Median per-call µs of the scalar and lifted resolvent, per family (0 = absent)."""
    out = {}
    for name in FAMILIES:
        got = samples[name]
        if not got:
            out[name] = (0.0, 0.0)
            continue
        # the lift evaluates the scalar resolvent at the total, with C * gamma
        scalar_args = [(lift.scalar, x.shape[-1] * gamma, float(x.sum())) for lift, gamma, x in got]
        lift_args = [(lift, gamma, x) for lift, gamma, x in got]
        out[name] = (
            _per_call_us(operators.scalar_resolvent, scalar_args),
            _per_call_us(lambda lift, gamma, x: lift.resolvent(gamma, x), lift_args),
        )
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t, cases, overhead, reruns, micro):
    inst = cases[0].instance
    n_arcs, n_nodes, n_comm = (
        inst.network.n_arcs,
        inst.network.n_nodes,
        inst.network.n_commodities,
    )
    steps = t.calls("solver.step")
    step_total = t.total("solver.step")
    lift_in_step = t.total("operators.lift", "solver.step")
    maps_in_step = t.total("network.divergence", "solver.step") + t.total(
        "network.tension", "solver.step"
    )
    active, n_steps, theta_zero = (sum(col) for col in zip(*(c.activity for c in cases)))
    # computed, not measured: 8-byte floats and indices each map reads or writes once
    div_bytes = 8 * (n_arcs * n_comm + 2 * n_arcs + n_nodes * n_comm)
    ten_bytes = 8 * (n_nodes * n_comm + 2 * n_arcs + n_arcs * n_comm)
    in_solver = ("solver.step", "solver.residual")
    map_bytes = sum(
        t.calls("network.divergence", p) * div_bytes + t.calls("network.tension", p) * ten_bytes
        for p in in_solver
    )
    n_parsed = t.calls("fileio.parse_problem")
    checked = [c.wardrop for c in cases if c.wardrop is not None]
    finite = [w for w in checked if math.isfinite(w)]
    extra_per_iter, base_per_iter = overhead
    iterations = statistics.median([c.counts[0] for c in cases])
    m = {
        "operators.lift_calls": (t.calls("operators.lift"), "count"),
        "operators.lift_us": (1e6 * _ratio(t.total("operators.lift"), t.calls("operators.lift")), "us"),
        "operators.resolvent_share": (_ratio(lift_in_step, step_total), "1"),
        "network.step_share": (_ratio(maps_in_step, step_total), "1"),
        "solver.step_self_share": (_ratio(t.self_time("solver.step"), step_total), "1"),
    }
    for name in FAMILIES:
        m[f"operators.scalar_us.{name}"] = (micro[name][0], "us")
        m[f"operators.lift_us.{name}"] = (micro[name][1], "us")
    m.update(
        {
            "lambertw.calls": (t.calls("lambertw.w_exp"), "count"),
            "lambertw.us": (1e6 * _ratio(t.total("lambertw.w_exp"), t.calls("lambertw.w_exp")), "us"),
            "network.divergence_calls": (t.calls("network.divergence"), "count"),
            "network.divergence_us": (
                1e6 * _ratio(t.total("network.divergence"), t.calls("network.divergence")),
                "us",
            ),
            "network.tension_calls": (t.calls("network.tension"), "count"),
            "network.tension_us": (
                1e6 * _ratio(t.total("network.tension"), t.calls("network.tension")),
                "us",
            ),
            "network.bytes_per_iter": (_ratio(map_bytes, steps), "B"),
            "solver.step_ms": (1e3 * _ratio(step_total, steps), "ms"),
            "solver.step_self_ms": (1e3 * _ratio(t.self_time("solver.step"), steps), "ms"),
            "solver.select_us": (
                1e6 * _ratio(t.total("solver.select"), t.calls("solver.select")),
                "us",
            ),
            "solver.residual_calls": (t.calls("solver.residual"), "count"),
            "solver.residual_ms": (
                1e3 * _ratio(t.total("solver.residual"), t.calls("solver.residual")),
                "ms",
            ),
            "solver.residual_share": (
                _ratio(t.total("solver.residual", "solver.run"), t.total("solver.run")),
                "1",
            ),
            "solver.active_arc_frac": (_ratio(active, n_arcs * n_steps), "1"),
            "solver.theta_zero_frac": (_ratio(theta_zero, n_steps), "1"),
            "oracle.wardrop_calls": (t.calls("oracle.wardrop"), "count"),
            "oracle.wardrop_ms": (
                1e3 * _ratio(t.total("oracle.wardrop"), t.calls("oracle.wardrop")),
                "ms",
            ),
            "fileio.parse_problem_ms": (
                1e3 * _ratio(t.total("fileio.parse_problem"), n_parsed),
                "ms",
            ),
            "fileio.parse_us_per_arc": (
                1e6 * _ratio(t.total("fileio.parse_problem"), n_parsed * n_arcs),
                "us",
            ),
            "fileio.parse_solution_ms": (
                1e3 * _ratio(t.total("fileio.parse_solution"), t.calls("fileio.parse_solution")),
                "ms",
            ),
            "fileio.serialize_solution_ms": (
                1e3
                * _ratio(t.total("fileio.serialize_solution"), t.calls("fileio.serialize_solution")),
                "ms",
            ),
            "fileio.write_trace_ms": (
                1e3 * _ratio(t.total("fileio.write_trace"), t.calls("fileio.write_trace")),
                "ms",
            ),
            "fileio.problem_bytes": (
                statistics.mean([os.path.getsize(c.problem_path) for c in cases]),
                "B",
            ),
            "cli.solve_reruns": (reruns["count"], "count"),
            "cli.rerun_iterations": (reruns["iterations"], "count"),
            "oracle.outside_domain_frac": (_ratio(len(checked) - len(finite), len(checked)), "1"),
            "wardrop_residual": (statistics.median(finite) if finite else 0.0, "1"),
            "trace.overhead_s": (iterations * extra_per_iter, "s"),
            "trace.overhead_frac": (_ratio(extra_per_iter, base_per_iter), "1"),
        }
    )
    return m
