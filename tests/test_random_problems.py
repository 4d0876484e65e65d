"""End-to-end solves of small random feasible problems (see random_problems.py)."""

import importlib.util
import pathlib

import pytest

from netequil import Termination, cli, run, wardrop_residual
from netequil.fileio import parse_problem, parse_solution, serialize_problem

from random_problems import random_problem

ROOT = pathlib.Path(__file__).resolve().parent.parent

# seeds 2 (RandomSweep) and 57 (Full) end with a Logarithmic total at its
# pole; 42, 49 and 11 are quick runs under Full, RoundRobin(2) and RandomSweep
SEEDS = [2, 57, 42, 49, 11]


@pytest.mark.parametrize("seed", SEEDS)
def test_a_span_3_problem_converges_and_solve_repeats_it_bitwise(seed, tmp_path):
    problem = random_problem(seed)
    net, ops, cfg = problem.network, problem.operators, problem.config
    state, _, reason = run(net, ops, cfg)
    assert reason is Termination.CONVERGED
    assert wardrop_residual(net, ops, state.x, state.v) <= cfg.tol
    # the problem file and the solution `solve` writes for it keep every bit,
    # so the run repeats bitwise and `check` accepts it
    prob, sol = tmp_path / "p.prob", tmp_path / "s.sol"
    prob.write_text(serialize_problem(problem))
    assert cli.main(["solve", str(prob), "--out", str(sol), "--quiet"]) == cli.EXIT_OK
    assert cli.main(["check", str(prob), str(sol), "--quiet"]) == cli.EXIT_OK
    written = parse_solution(sol.read_text(), parse_problem(prob.read_text()))
    assert written.iterations == state.n
    assert written.flow.tobytes() == state.x.tobytes()
    assert written.potential.tobytes() == state.v.tobytes()


def test_the_fuzz_tool_prints_one_line_per_seed_and_repeats_itself(capsys):
    spec = importlib.util.spec_from_file_location("fuzz_problems", ROOT / "tools" / "fuzz_problems.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    outputs = []
    for _ in range(2):
        tool.main(["--span", "3", "--seeds", "11", "12"])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    rows = [line.split() for line in outputs[0].splitlines()]
    assert [row[:3] for row in rows] == [["11", "RandomSweep", "converged"], ["12", "Full", "converged"]]
    assert all(len(row) == 6 and int(row[3]) > 0 and float(row[5]) <= 1e-6 for row in rows)
