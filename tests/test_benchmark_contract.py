"""What the benchmark in perfbench/ reads of the package, checked without running it.

perfbench/ is only imported here, never changed: a change to the package
that breaks one of these names or formats fails here first.
"""

import importlib.util
import pathlib
import re
import sys
import types
from dataclasses import replace

import pytest

from netequil import cli, operators, solver
from netequil.fileio import TRACE_COLUMNS, parse_problem, serialize_problem

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import bench  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = sorted(bench.WORKLOADS)


def instance(name):
    return bench.WORKLOADS[name].generate(1, 0)


@pytest.mark.parametrize("name", WORKLOADS)
def test_blocks_are_sized_by_the_solvers_check_interval(name):
    # the timing blocks end at the residual checks
    assert instance(name).config.check_interval == solver.CHECK_INTERVAL


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_generated_problem_file_round_trips(name):
    text = serialize_problem(instance(name).problem())
    assert serialize_problem(parse_problem(text)) == text


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_run_never_calls_the_lifted_resolvent(name, monkeypatch):
    # layers.micro_timings times every input a run passes to
    # SeparableLift.resolvent through operators.scalar_resolvent, which
    # no longer exists: one such call would make a --trace run raise
    calls = []
    monkeypatch.setattr(operators.SeparableLift, "resolvent", lambda *args: calls.append(args))
    inst = instance(name)
    _, records, _ = solver.run(inst.network, inst.operators, replace(inst.config, max_iter=30))
    assert len(records) == 30 and calls == []


def test_every_lambert_kernel_call_of_a_mixed_sweep_run_calls_the_patched_lambert_solve(monkeypatch):
    # the tracer's lambertw.* metrics time operators.lambert_w_exp, patched
    # by name: a kernel that reached W another way would read 0 there.  A
    # batch whose rows all rest on their lower bounds is screened and makes
    # no call, so each evaluation with a live Lambert row makes one per
    # kernel call
    calls, per_evaluation = [], []
    solve, evaluate = operators.lambert_w_exp, solver._evaluate
    monkeypatch.setattr(operators, "lambert_w_exp", lambda *args: calls.append(1) or solve(*args))
    inst = instance("mixed_sweep")
    ops = inst.operators
    kernel_calls = []

    def kernel_solve(xi, consts, start):
        before = len(calls)
        out = lambert_solve(xi, consts, start)
        kernel_calls.append((xi.size, len(calls) - before))
        return out

    (lambert,) = [f for f in ops.families if f[0] is operators._lambert_kernel]
    lambert_solve = lambert[0].solve
    wrapped = (replace(lambert[0], solve=kernel_solve),) + lambert[1:]
    monkeypatch.setattr(ops, "families", tuple(wrapped if f is lambert else f for f in ops.families))

    def counted(*args):
        before, kernel_before = len(calls), len(kernel_calls)
        out = evaluate(*args)
        per_evaluation.append((len(kernel_calls) - kernel_before, len(calls) - before))
        return out

    monkeypatch.setattr(solver, "_evaluate", counted)
    _, records, _ = solver.run(inst.network, ops, replace(inst.config, max_iter=30))
    assert len(records) == 30 and len(per_evaluation) >= 30
    assert kernel_calls and all(size >= 1 and n == 1 for size, n in kernel_calls)
    assert all(n_kernel == n_w for n_kernel, n_w in per_evaluation)
    assert sum(n_kernel >= 1 for n_kernel, _ in per_evaluation) >= 10


def test_grid_full_runs_alike_bitwise_under_full_and_the_one_group_round_robin():
    # grid_full is the workload that runs Full, which is RoundRobin(1)
    inst = instance("grid_full")
    assert isinstance(inst.config.scheduler, solver.Full)
    runs = [
        solver.run(inst.network, inst.operators, replace(inst.config, scheduler=spec))
        for spec in (solver.Full(), solver.RoundRobin(1))
    ]
    (full, full_trace, full_end), (rr, rr_trace, rr_end) = runs
    assert full_end is rr_end is solver.Termination.CONVERGED
    assert full.x.tobytes() == rr.x.tobytes() and full.v.tobytes() == rr.v.tobytes()
    assert [replace(r, millis=0.0) for r in full_trace] == [replace(r, millis=0.0) for r in rr_trace]


def test_every_attribute_the_tracer_patches_exists():
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_a_cli_trace_has_the_columns_the_benchmark_reads(tmp_path):
    # bench._read_cli_counts reads active_arcs and residual by position
    inst = instance("cli_roundtrip")
    prob, trace = tmp_path / "p.prob", tmp_path / "t.csv"
    prob.write_text(serialize_problem(inst.problem()))
    argv = ["solve", str(prob), "--out", str(tmp_path / "s.sol"), "--trace", str(trace), "--quiet"]
    assert cli.main(argv) == cli.EXIT_OK
    header = trace.read_text().splitlines()[0].split(",")
    assert header == list(TRACE_COLUMNS)
    assert (header[5], header[7]) == ("active_arcs", "residual")
    _, records, _ = solver.run(inst.network, inst.operators, inst.config)
    counts, _ = bench._read_cli_counts(types.SimpleNamespace(trace_path=trace), inst.network.n_arcs, 0)
    assert counts == (len(records), bench.arc_evals(records, inst.network.n_arcs))


@pytest.mark.parametrize("name, index", [("cli_roundtrip", 1), ("grid_full", 1), ("mixed_sweep", 0)])
def test_a_cli_solve_capped_at_the_library_count_replays_the_library_solve(name, index, tmp_path):
    # bench.solve_cli replays the library solve of grid_full and mixed_sweep
    # with --max-iter at its iteration count, which converges only if the
    # point after the last step is evaluated and checked; cli_roundtrip 1 and
    # grid_full 1 stop between two check iterations, mixed_sweep 0 on one
    inst = bench.WORKLOADS[name].generate(1, index)
    net = inst.network
    state, records, reason = solver.run(net, inst.operators, inst.config)
    n = state.n
    assert reason is solver.Termination.CONVERGED
    assert (n % solver.CHECK_INTERVAL == 0) == (name == "mixed_sweep")
    prob = tmp_path / "p.prob"
    prob.write_text(serialize_problem(inst.problem()))

    def solve(*flags):
        sol, trace = tmp_path / f"{len(flags)}.sol", tmp_path / f"{len(flags)}.csv"
        argv = ["solve", str(prob), "--out", str(sol), "--trace", str(trace), "--quiet", *flags]
        return cli.main(argv), sol, trace

    code, sol, trace = solve()
    assert code == cli.EXIT_OK
    counts, _ = bench._read_cli_counts(types.SimpleNamespace(trace_path=trace), net.n_arcs, 0)
    assert counts == (n, bench.arc_evals(records, net.n_arcs))
    code, capped_sol, capped_trace = solve("--max-iter", str(n))
    assert code == cli.EXIT_OK
    assert capped_sol.read_bytes() == sol.read_bytes()
    assert capped_trace.read_bytes() == trace.read_bytes()
    assert solve("--max-iter", str(n - 1))[0] == cli.EXIT_ITER_LIMIT


@pytest.mark.parametrize("name", WORKLOADS)
def test_check_accepts_the_solution_that_solve_writes(name, tmp_path):
    # bench.py solves each problem file through the CLI and then checks what
    # it wrote, so every section of a written solution must parse back
    prob, sol = tmp_path / "p.prob", tmp_path / "s.sol"
    prob.write_text(serialize_problem(instance(name).problem()))
    assert cli.main(["solve", str(prob), "--out", str(sol), "--quiet"]) == cli.EXIT_OK
    assert cli.main(["check", str(prob), str(sol), "--quiet"]) == cli.EXIT_OK


def test_the_run_hash_tool_prints_one_line_per_run_and_repeats_itself(capsys):
    spec = importlib.util.spec_from_file_location("run_hashes", ROOT / "tools" / "run_hashes.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    outputs = []
    for _ in range(2):
        tool.main(["--workload", "cli_roundtrip", "--instances", "1", "--seeds", "1"])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    lines = [line.split() for line in outputs[0].splitlines()]
    hashes = [row for row in lines if row[0] == "hash"]
    assert [row[1:4] for row in hashes] == [["cli_roundtrip", "0", label] for label in tool.SCHEDULERS]
    assert all(len(row) == 5 and re.fullmatch("[0-9a-f]{64}", row[4]) for row in hashes)
    counts = [row for row in lines if row[0] == "iterations"]
    assert [row[1:4] for row in counts] == [["cli_roundtrip", "1", str(i)] for i in range(8)]
    assert all(int(row[4]) > 0 for row in counts) and len(hashes) + len(counts) == len(lines)


def _no_sort_numpy(numpy):
    """A copy of the numpy namespace whose argsort and bincount raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("argsort or bincount called")

    return types.SimpleNamespace(**{**vars(numpy), "argsort": refuse, "bincount": refuse})


def test_a_mixed_sweep_run_sorts_and_counts_no_arc_in_the_operators(monkeypatch):
    # a partial sweep takes its active arcs in family order from the one
    # permutation built with the operator set, and finds each family's run
    # with one search: no sort, no count per step
    inst = instance("mixed_sweep")
    monkeypatch.setattr(operators, "np", _no_sort_numpy(operators.np))
    _, records, reason = solver.run(inst.network, inst.operators, inst.config)
    assert reason is solver.Termination.CONVERGED
    assert sum(0 < r.active_arcs < inst.network.n_arcs for r in records) > len(records) // 2


def test_the_tree_comparison_tool_times_the_repo_against_itself(capsys):
    spec = importlib.util.spec_from_file_location("compare_trees", ROOT / "tools" / "compare_trees.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    before = dict(sys.modules)
    tool.main([str(ROOT), str(ROOT), "--workload", "cli_roundtrip", "--rounds", "1"])
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    # each tree is a package of its own, and the real one is left in place
    assert sys.modules["netequil"] is before["netequil"] and sys.modules["instances"] is before["instances"]
    assert [row[:3] for row in lines[:3]] == [["iterations", "cli_roundtrip", str(i)] for i in range(3)]
    assert all(int(row[3]) == int(row[4]) > 0 for row in lines[:3])
    assert lines[3][:2] == ["round", "0"] and len(lines) == 5
    old, new, ratio = map(float, lines[3][2:])
    assert old > 0 and new > 0 and ratio == pytest.approx(new / old, rel=1e-3)
    assert lines[4][:2] == ["ratio", "median"]
