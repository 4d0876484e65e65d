"""Timed runs of one workload, with the correctness gate.

A run is a closed loop with one client in one process: the instances of the
workload are solved one after another, first through the library (`run`
on the generated Network/OperatorSet) and then through the in-process CLI
(`netequil solve` on the serialized file, then `netequil check` on its
output).  Each instance is one library solve and one CLI round trip, two
operations for `attempted`.

On the library workloads the CLI solve gets `--max-iter` equal to the
library iteration count, so it replays the library solve exactly and the
tighten-and-rerun loop in `solve` cannot extend it (on mixed_sweep that loop
would otherwise spin to the budget, see NOTES.md).  cli_roundtrip runs the
files with their own settings, reruns included.

Timing.  On a shared 2-vCPU Xeon VM, the CPU switches between speed states
up to 2x apart, each lasting seconds to minutes, so any statistic of a handful of
multi-second solves moves by 15-30% from run to run.  What stays put is the
fastest speed the host reaches, which every run touches many times, in
short stretches.  So the solver is timed in many short samples spread
across the whole run, and everything else is scaled to the fastest of them:

- the solver is timed per check-interval block of iterations, through the
  public `trace_callback` hook, in the library solves and in the solver
  runs inside the CLI solves alike; solves are never timed whole, and the
  fastest block gives the per-iteration time;
- between blocks of the library solve, every SAMPLE_EVERY iterations, the
  loop also times one `netequil check` and one instance build, so those
  short operations are sampled across the run too;
- a CLI solve is split into the solver iterations it ran, costed by the
  block time, and the rest of the command (parse, oracle check, residual,
  writes);
- a short operation (check, build, rest of a CLI solve) is too rare to
  catch the fast state reliably, so each sample is divided by the
  per-iteration time of the solver block just before it, which ran at the
  same host speed; the median of these ratios times the fastest block is
  the operation's time at the fastest host speed.
"""

import contextlib
import gc
import io
import json
import os
import statistics
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

import instances
import netequil as nq
import netequil.cli as cli
import netequil.oracle as oracle
import netequil.solver as solver
from netequil import fileio

_clock = time.perf_counter
SAMPLE_EVERY = 50  # iterations between samples of the short operations


@dataclass
class Workload:
    name: str
    generate: object  # (seed, index) -> Instance
    count: int  # instances per run
    replay: bool  # CLI solve replays the library iteration count
    # failure reasons that are known defects of the program, not wrong results
    known_failures: frozenset = frozenset()


INTERVAL_BOUND = "oracle_rejection_interval_bound"

WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid_full", instances.grid_full, 3, True),
        Workload(
            "mixed_sweep",
            instances.mixed_sweep,
            3,
            True,
            frozenset({INTERVAL_BOUND, "cli_check_" + INTERVAL_BOUND}),
        ),
        Workload("cli_roundtrip", instances.cli_file, 8, False),
    )
}


@dataclass
class Case:
    """One instance and everything measured on it during a run."""

    instance: object
    index: int
    problem_path: str
    solution_path: str
    trace_path: str
    lib_seconds: list = field(default_factory=list)  # whole solves, for the report only
    cli_solve_seconds: list = field(default_factory=list)  # whole commands, for the report only
    counts: tuple = None  # (iterations, arc_evals) of the library solve
    cli_counts: tuple = None  # (iterations, arc_evals) of the CLI solve
    wardrop: float = None
    failures: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)
    # (active arcs summed over steps, steps, steps with theta = 0) of the first library solve
    activity: tuple = None


@dataclass
class Samples:
    """Short timing samples of one run, in seconds."""

    per_iter: list = field(default_factory=list)  # block time / block length
    checks: list = field(default_factory=list)
    builds: list = field(default_factory=list)
    # the same operations over the per-iteration time of the block just before them
    check_ratios: list = field(default_factory=list)
    build_ratios: list = field(default_factory=list)
    rest_ratios: list = field(default_factory=list)


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------


def build(workload, seed, index, path):
    """One instance build, as a user pays it; returns (instance, seconds).

    Library workloads build generator -> Network + OperatorSet;
    cli_roundtrip builds generator -> serialize_problem -> file.
    """
    gc.collect()
    t0 = _clock()
    inst = workload.generate(seed, index)
    if not workload.replay:
        _write(path, serialize(inst))
    return inst, _clock() - t0


def setup(workload, seed, workdir, samples):
    cases = []
    for index in range(workload.count):
        base = os.path.join(workdir, f"{workload.name}-{index}")
        inst, seconds = build(workload, seed, index, base + ".prob")
        samples.builds.append(seconds)
        if workload.replay:
            _write(base + ".prob", serialize(inst))
        cases.append(Case(inst, index, base + ".prob", base + ".sol", base + ".csv"))
    return cases


def serialize(inst):
    return fileio.serialize_problem(inst.problem())


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


# --------------------------------------------------------------------------
# one instance
# --------------------------------------------------------------------------


class BlockTimer:
    """trace_callback timing each block of `k` iterations (each ends with a residual check).

    Every `every` iterations (a multiple of k) it calls `between()` and
    restarts the clock afterwards, so the blocks stay clean.
    """

    def __init__(self, k, per_iter, between=None, every=SAMPLE_EVERY):
        self.k, self.per_iter, self.between, self.every = k, per_iter, between, every
        self._n = 0
        self._start = None
        self.last = None  # per-iteration time of the newest block

    def __call__(self, record):
        self._n += 1
        if self._n % self.k:
            return
        now = _clock()
        if self._start is not None:
            self.last = (now - self._start) / self.k
            self.per_iter.append(self.last)
        if self.between is not None and self._n % self.every == 0:
            self.between(self.last)
            now = _clock()
        self._start = now


def arc_evals(records, n_arcs):
    """Capacity resolvents evaluated: active arcs per step plus full residual sweeps."""
    sweeps = sum(1 for rec in records if rec.residual is not None)
    return sum(rec.active_arcs for rec in records) + sweeps * n_arcs


def _at_interval_bound(inst, x):
    """True when some IntervalProx arc carries a total flux within tol of lo."""
    for j, op in enumerate(inst.operators.arc_operators):
        spec = op.q.scalar
        if isinstance(spec, nq.IntervalProx) and abs(float(np.sum(x[j])) - spec.lo) <= instances.TOL:
            return True
    return False


def solve_library(case, timer):
    inst = case.instance
    net, ops, cfg = inst.network, inst.operators, inst.config
    gc.collect()
    t0 = _clock()
    state, records, reason = solver.run(net, ops, cfg, trace_callback=timer)
    case.lib_seconds.append(_clock() - t0)
    counts = (state.n, arc_evals(records, net.n_arcs))
    if case.counts is not None:
        if counts != case.counts:
            case.mismatches.append(f"library repeat {counts} != {case.counts}")
        case.failures.append(case.failures[0])
        return
    case.counts = counts
    case.activity = (
        sum(rec.active_arcs for rec in records),
        len(records),
        sum(1 for rec in records if rec.theta == 0.0),
    )
    failure = None
    if reason is not nq.Termination.CONVERGED:
        failure = reason.value
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            case.wardrop = oracle.wardrop_residual(net, ops, state.x, state.v)
        if not case.wardrop <= cfg.tol:
            failure = INTERVAL_BOUND if _at_interval_bound(inst, state.x) else "oracle_rejection"
    case.failures.append(failure)


def _cli(argv, span=contextlib.nullcontext(), timer=None):
    """Run the CLI in-process; returns (exit code, seconds, seconds inside solver.run).

    A `timer` becomes the trace_callback of the solver runs inside.
    """
    inside = []
    run = solver.run

    def timed_run(*args, **kwargs):
        if timer is not None:
            kwargs["trace_callback"] = timer
        t0 = _clock()
        try:
            return run(*args, **kwargs)
        finally:
            inside.append(_clock() - t0)

    sink = io.StringIO()
    gc.collect()
    solver.run = timed_run
    try:
        with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink), span:
            t0 = _clock()
            code = cli.main(argv)
            seconds = _clock() - t0
    finally:
        solver.run = run
    return code, seconds, sum(inside)


def check(case, span=contextlib.nullcontext()):
    code, seconds, _ = _cli(["check", case.problem_path, case.solution_path, "--quiet"], span)
    return code, seconds


def _read_cli_counts(case, n_arcs, prefix):
    """(iterations, arc_evals) of the CLI trace, and arc_evals of its first `prefix` rows."""
    total = head = rows = 0
    with open(case.trace_path, encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            cols = line.split(",")
            evals = int(cols[5]) + (n_arcs if cols[7] else 0)
            total += evals
            if rows < prefix:
                head += evals
            rows += 1
    return (rows, total), head


def solve_cli(workload, case, samples, span=lambda name: contextlib.nullcontext(), timer=None):
    n_iter, n_evals = case.counts
    argv = ["solve", case.problem_path, "--out", case.solution_path, "--trace", case.trace_path, "--quiet"]
    if workload.replay:
        argv += ["--max-iter", str(n_iter)]
    code, seconds, inside = _cli(argv, span("cli.solve"), timer)
    case.cli_solve_seconds.append(seconds)
    if timer is not None and timer.last is not None:
        samples.rest_ratios.append((seconds - inside) / timer.last)
    failure = None
    if code != cli.EXIT_OK:
        failure = f"cli_solve_exit_{code}"
    else:
        counts, head = _read_cli_counts(case, case.instance.network.n_arcs, n_iter)
        if case.cli_counts is None:
            case.cli_counts = counts
        elif counts != case.cli_counts:
            case.mismatches.append(f"CLI repeat {counts} != {case.cli_counts}")
        if head != n_evals or counts[0] < n_iter or (workload.replay and counts[0] != n_iter):
            case.mismatches.append(f"CLI solve {counts} (first {n_iter} rows: {head}) vs library {case.counts}")
        code, seconds = check(case, span("cli.check"))
        samples.checks.append(seconds)
        if timer is not None and timer.last is not None:
            samples.check_ratios.append(seconds / timer.last)
        if code != cli.EXIT_OK:
            # a replayed solve writes the library solution bit for bit
            lib = case.failures[0]
            failure = "cli_check_" + (lib if workload.replay and lib else f"exit_{code}")
    case.failures.append(failure)


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------


def timed_run(workload, seed, cases, samples, seconds, scratch):
    """Solve the cases round robin until `seconds` have passed and each ran once."""
    state = {"current": None, "last": None}  # last: the case whose CLI output is newest

    def between(block):
        if state["last"] is not None:
            seconds = check(state["last"])[1]
            samples.checks.append(seconds)
            samples.check_ratios.append(seconds / block)
        seconds = build(workload, seed, state["current"].index, scratch)[1]
        samples.builds.append(seconds)
        samples.build_ratios.append(seconds / block)

    start = _clock()
    k = 0
    while k < len(cases) or _clock() - start < seconds:
        case = state["current"] = cases[k % len(cases)]
        interval = case.instance.config.check_interval
        solve_library(case, BlockTimer(interval, samples.per_iter, between))
        solve_cli(workload, case, samples, timer=BlockTimer(interval, samples.per_iter))
        state["last"] = case
        k += 1


def end_to_end(cases, samples):
    """Timings from the fastest short samples; exact counts are medians over the instances.

    Solves that stopped short of tol (iteration limit, numerical failure)
    count as failures and are left out of the time-to-tol figures.
    """
    done = [c for c in cases if c.failures[0] not in ("iteration_limit", "numerical_failure")] or cases
    per_iter = min(samples.per_iter)
    iterations = statistics.median([c.counts[0] for c in done])
    cli_iterations = statistics.median([(c.cli_counts or c.counts)[0] for c in cases])
    cli_rest = statistics.median(samples.rest_ratios) * per_iter
    return {
        "time_to_tol_s": (iterations * per_iter, "s"),
        "iterations": (iterations, "count"),
        "ms_per_iter": (1e3 * per_iter, "ms"),
        "arc_evals": (statistics.median([c.counts[1] for c in done]), "count"),
        "setup_s": (statistics.median(samples.build_ratios) * per_iter, "s"),
        "cli_solve_s": (cli_iterations * per_iter + cli_rest, "s"),
        "cli_check_s": (statistics.median(samples.check_ratios) * per_iter, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def _peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gate(workload, cases):
    """(correct, attempted, failed, failure reasons by count, problems)."""
    reasons = {}
    problems = []
    attempted = failed = 0
    for case in cases:
        attempted += len(case.failures)
        for reason in case.failures:
            if reason is None:
                continue
            failed += 1
            reasons[reason] = reasons.get(reason, 0) + 1
            if reason not in workload.known_failures:
                problems.append(f"{case.instance.label}: {reason}")
        problems += [f"{case.instance.label}: {m}" for m in case.mismatches]
    return not problems, attempted, failed, reasons, problems


def fingerprint(cases):
    return [[c.instance.label, *c.counts, *(c.cli_counts or ())] for c in cases]


def check_fingerprint(state_path, key, prints):
    """Compare this run's exact counts with an earlier run of the same seed and code."""
    seen = {}
    if os.path.exists(state_path):
        with open(state_path, encoding="utf-8") as handle:
            seen = json.load(handle)
    if key in seen:
        return seen[key] == prints
    seen[key] = prints
    tmp = state_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(seen, handle)
    os.replace(tmp, state_path)
    return True
