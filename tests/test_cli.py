import os
import pathlib
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from netequil import solver
from netequil.cli import _apply_overrides, _build_parser, main
from netequil.fileio import parse_problem, parse_solution, serialize_solution

TWO_ARC = "problems/two_arc.prob"
PROBLEMS = sorted((pathlib.Path(__file__).resolve().parent.parent / "problems").glob("*.prob"))


@pytest.fixture
def two_arc_path(tmp_path):
    import shutil

    dest = tmp_path / "two_arc.prob"
    shutil.copy(TWO_ARC, dest)
    return str(dest)


def scaled_two_arc(two_arc_path, tmp_path, factor):
    """The two-arc problem file with both cost functions multiplied by factor."""
    prob = tmp_path / f"scaled_{factor:g}.prob"
    text = read(two_arc_path).decode()
    text = text.replace("theta=1,", f"theta={factor:g},").replace("theta=2,", f"theta={2 * factor:g},")
    prob.write_text(text)
    return str(prob)


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


def not_called(*args, **kwargs):
    raise AssertionError("solver.run was called")


class TestSolve:
    def test_solve_writes_solution_and_exits_zero(self, two_arc_path, tmp_path, capsys):
        out = str(tmp_path / "two_arc.sol")
        assert main(["solve", two_arc_path, "--out", out, "--quiet"]) == 0
        problem = parse_problem(two_arc_path)
        solution = parse_solution(out, problem)
        np.testing.assert_allclose(solution.flow[:, 0], [2.0, 1.0], atol=1e-5)
        assert solution.termination == "converged"

    def test_solution_residual_is_the_last_traced_residual(self, two_arc_path, tmp_path, monkeypatch):
        sweeps = []
        residual = solver.residual
        monkeypatch.setattr(solver, "residual", lambda *a, **k: sweeps.append(1) or residual(*a, **k))
        out, trace = str(tmp_path / "s.sol"), str(tmp_path / "s.csv")
        assert main(["solve", two_arc_path, "--out", out, "--trace", trace, "--quiet"]) == 0
        with open(trace, encoding="utf-8") as handle:
            header = handle.readline().rstrip("\n").split(",")
            column = header.index("residual")
            traced = [value for value in (row.split(",")[column] for row in handle) if value]
        solution = parse_solution(out, parse_problem(two_arc_path))
        assert solution.residual == float(traced[-1])
        assert f"residual = {traced[-1]}\n" in open(out, encoding="utf-8").read()
        # a converged solve writes its run's stopping check, and the run's
        # checks read its own evaluations: no residual sweep of its own
        assert len(traced) >= 2 and sweeps == []

    def test_solve_prints_to_stdout_without_out(self, two_arc_path, capsys):
        assert main(["solve", two_arc_path, "--quiet"]) == 0
        assert "netequil-solution v1" in capsys.readouterr().out

    def test_check_accepts_solve_output(self, two_arc_path, tmp_path):
        out = str(tmp_path / "s.sol")
        assert main(["solve", two_arc_path, "--out", out, "--quiet"]) == 0
        assert main(["check", two_arc_path, out, "--quiet"]) == 0

    def test_check_rejects_wrong_solution(self, two_arc_path, tmp_path):
        out = str(tmp_path / "s.sol")
        assert main(["solve", two_arc_path, "--out", out, "--quiet"]) == 0
        solution = parse_solution(out, parse_problem(two_arc_path))
        flow = solution.flow.copy()
        flow[0, 0] -= 1.0  # one unit off the top arc: supply and route costs both violated
        bad = tmp_path / "bad.sol"
        bad.write_text(serialize_solution(replace(solution, flow=flow)))
        assert main(["check", two_arc_path, str(bad), "--quiet"]) == 2

    def test_iteration_limit_exit_code(self, two_arc_path, tmp_path):
        out = str(tmp_path / "s.sol")
        code = main(["solve", two_arc_path, "--out", out, "--max-iter", "0", "--quiet"])
        assert code == 2
        problem = parse_problem(two_arc_path)
        solution = parse_solution(out, problem)
        assert solution.iterations == 0
        assert not solution.flow.any()  # state stays at the zero start

    def test_input_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.prob"
        bad.write_text("netequil-problem v1\n[arcs]\ne1 a b q=bpr(alpha=-1)\n")
        assert main(["solve", str(bad), "--quiet"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("a  3", "a  nan", "[param-range] supply"),  # solved to numerical_failure before
            ("[supplies]", "[suplies]", "unknown section [suplies]"),  # solved to zero flow
            ("max_iter = 100000", "scheduler = roundrobin:5", "[param-range]"),
            # an interval with no real point: solved to numerical_failure, residual inf, before
            ("q=bpr(alpha=1,rho=1,theta=1,p=1)", "q=prox(phi=affine(a=1),lo=inf)", "[param-range]"),
            ("r=orthant", "r=box(inf:inf)", "[param-range]"),
        ],
    )
    def test_input_rejected_at_parse_exits_1(self, two_arc_path, tmp_path, capsys, old, new, message):
        bad = tmp_path / "bad.prob"
        bad.write_text(read(two_arc_path).decode().replace(old, new))
        assert main(["solve", str(bad), "--out", str(tmp_path / "s.sol"), "--quiet"]) == 1
        assert message in capsys.readouterr().err

    def test_path_named_netequil_is_read_as_a_path(self, two_arc_path, tmp_path, monkeypatch):
        (tmp_path / "netequil-two_arc.prob").write_bytes(read(two_arc_path))
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "netequil-two_arc.prob", "--out", "s.sol", "--quiet"]) == 0

    def test_missing_file_exit_code(self):
        assert main(["solve", "/nonexistent/file.prob", "--quiet"]) == 1

    def test_numerical_failure_exit_code(self, two_arc_path, tmp_path):
        text = open(two_arc_path).read().replace("a  3", "a  1e308").replace("b  -3", "b  -1e308")
        poisoned = tmp_path / "poisoned.prob"
        poisoned.write_text(text)
        out = str(tmp_path / "s.sol")
        assert main(["solve", str(poisoned), "--out", out, "--quiet"]) == 3

    def test_a_final_residual_that_fails_is_written_as_inf_and_exits_3(self, two_arc_path, tmp_path, capsys):
        # the residual fails at the final point too; solve still writes the
        # solution.  The Logarithmic arc's omega + theta overflows at the
        # step parameter 1
        text = open(two_arc_path).read().replace(
            "low  a  b  q=bpr(alpha=0.5,rho=1,theta=2,p=1)", "low  a  b  q=log(omega=1e308,theta=1e308)"
        )
        path = tmp_path / "log_arc.prob"
        path.write_text(text)
        out = tmp_path / "s.sol"
        assert main(["solve", str(path), "--out", str(out)]) == 3
        assert "numerical_failure: 0 iterations, residual inf" in capsys.readouterr().err
        assert "residual = inf\n" in out.read_text()

    def test_unbalanced_supplies_exit_1_at_parse_naming_the_commodity(self, two_arc_path, tmp_path, capsys):
        # not 2 at the iteration limit, with nothing to say why
        text = open(two_arc_path).read().replace("b  -3", "b  -2")
        unbalanced = tmp_path / "unbalanced.prob"
        unbalanced.write_text(text)
        out = tmp_path / "s.sol"
        assert main(["solve", str(unbalanced), "--out", str(out), "--max-iter", "2000"]) == 1
        err = capsys.readouterr().err
        assert "[param-range] commodity 'freight': supplies sum to 1.0" in err
        assert not out.exists()

    def test_supplies_whose_sum_overflows_exit_1_at_parse(self, two_arc_path, tmp_path, capsys):
        # three nodes on the path a -> b -> c; an unscaled sum overflows to inf
        text = open(two_arc_path).read().replace("a  3", "a  1e308").replace("b  -3", "b  1e308\nc  -1e308")
        text = text.replace("b\n\n[arcs]", "b\nc\n\n[arcs]").replace(
            "\n\n[supplies]", "\nnext  b  c  q=bpr(alpha=1,rho=1,theta=1,p=1)  r=orthant\n\n[supplies]"
        )
        path = tmp_path / "overflow.prob"
        path.write_text(text)
        out = tmp_path / "s.sol"
        assert main(["solve", str(path), "--out", str(out)]) == 1
        assert "[param-range] commodity 'freight': supplies sum to 1e+308" in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_failure_raises_no_warning(self, two_arc_path, tmp_path):
        # the final residual of a run that overflowed is computed with warnings off
        text = open(two_arc_path).read().replace("a  3", "a  1e308").replace("b  -3", "b  -1e308")
        poisoned = tmp_path / "poisoned.prob"
        poisoned.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", str(poisoned), "--out", str(tmp_path / "s.sol"), "--quiet"]) == 3
        assert [str(w.message) for w in caught] == []

    def test_non_finite_tol_flag_is_input_error(self, two_arc_path, tmp_path, capsys):
        assert main(["solve", two_arc_path, "--out", str(tmp_path / "s.sol"), "--tol", "inf"]) == 1
        assert "tol must be a finite positive number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--tol", "0"], "error: --tol: tol must be a finite positive number"),
            (["--max-iter", "-5"], "error: --max-iter: max_iter must be a nonnegative integer"),
            (
                ["--scheduler", "randomsweep:0.5:-1"],
                "error: --scheduler: random-sweep seed must be a nonnegative integer",
            ),
            (["--scheduler", "roundrobin:5"], "error: --scheduler: round-robin group count 5 exceeds"),
        ],
    )
    def test_a_rejected_flag_value_is_named_in_the_error(self, two_arc_path, tmp_path, capsys, flags, message):
        out = tmp_path / "s.sol"
        assert main(["solve", two_arc_path, "--out", str(out), "--quiet", *flags]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_check_rejects_a_tol_that_is_not_finite_and_positive(self, two_arc_path, tmp_path, capsys, tol):
        out = str(tmp_path / "s.sol")
        assert main(["solve", two_arc_path, "--out", out, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["check", two_arc_path, out, "--tol", tol, "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("error: --tol: tol must be a finite positive number")

    @pytest.mark.parametrize("key", ["gamma", "sigma"])
    def test_a_file_that_sets_a_step_parameter_is_an_input_error(self, two_arc_path, tmp_path, capsys, key):
        # every scheduler steps at gamma = 1, so neither is a [solver] key
        text = open(two_arc_path).read().replace("[solver]\n", f"[solver]\n{key} = 2\nscheduler = roundrobin:2\n")
        path = tmp_path / "step.prob"
        path.write_text(text)
        out = tmp_path / "s.sol"
        assert main(["solve", str(path), "--out", str(out), "--quiet", "--scheduler", "randomsweep:0.5"]) == 1
        assert "[unknown-key]" in capsys.readouterr().err
        assert not out.exists()

    def test_scheduler_flag_override(self, two_arc_path, tmp_path):
        out = str(tmp_path / "s.sol")
        code = main(
            ["solve", two_arc_path, "--out", out, "--scheduler", "roundrobin:2", "--quiet"]
        )
        assert code == 0

    def test_bad_scheduler_flag_is_input_error(self, two_arc_path, capsys):
        # a flag has no section or line; the error used to cite line 0 of [flags]
        for token, reason in [
            ("perhaps", "got 'perhaps'"),
            ("roundrobin:x", "not an integer: 'x'"),
            ("roundrobin:0", "positive integer"),
        ]:
            assert main(["solve", two_arc_path, "--scheduler", token, "--quiet"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: --scheduler: ") and reason in err
            assert "section" not in err and "line" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", TWO_ARC, "--tol", "abc"], "argument --tol: invalid float value: 'abc'"),
            (["solve", TWO_ARC, "--max-iter", "1.5"], "argument --max-iter: invalid int value: '1.5'"),
            (["check", TWO_ARC], "the following arguments are required: solution"),
            # the seed is the last value of a randomsweep:p:seed token
            (["solve", TWO_ARC, "--seed", "5"], "unrecognized arguments: --seed 5"),
        ],
    )
    def test_a_malformed_command_line_is_input_error(self, monkeypatch, capsys, argv, message):
        monkeypatch.setattr(solver, "run", not_called)
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["solve", "--help"]) == 0
        assert "randomsweep:p[:seed]" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_an_output_path_that_cannot_be_opened_fails_before_solving(
        self, two_arc_path, tmp_path, monkeypatch, capsys, flag
    ):
        monkeypatch.setattr(solver, "run", not_called)
        bad = str(tmp_path / "missing" / "x")
        argv = ["solve", two_arc_path, "--out", str(tmp_path / "s.sol"), "--trace", str(tmp_path / "t.csv")]
        argv[argv.index(flag) + 1] = bad
        assert main([*argv, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"No such file or directory: '{bad}'" in err

    def test_tol_flag_override(self, two_arc_path, tmp_path):
        out = str(tmp_path / "s.sol")
        assert main(["solve", two_arc_path, "--out", out, "--tol", "1e-4", "--quiet"]) == 0
        problem = parse_problem(two_arc_path)
        assert parse_solution(out, problem).iterations <= 40
        # check with an explicit tolerance stricter than the solution quality
        assert main(["check", two_arc_path, out, "--tol", "1e-12", "--quiet"]) == 2

    def test_threads_key_is_an_input_error(self, two_arc_path, tmp_path, capsys):
        threaded_path = tmp_path / "threaded.prob"
        threaded_path.write_bytes(read(two_arc_path) + b"threads = 2\n")
        assert main(["solve", str(threaded_path), "--quiet"]) == 1
        assert "[unknown-key] unknown solver key 'threads'" in capsys.readouterr().err

    def test_max_iter_is_a_total_budget_across_reruns(self, two_arc_path, tmp_path):
        # with costs scaled by 100 the splitting residual passes tol long
        # before the equilibrium residual does, and the single run that
        # solve makes keeps iterating until both pass or --max-iter is spent
        prob = scaled_two_arc(two_arc_path, tmp_path, 100)
        out = str(tmp_path / "s.sol")
        assert main(["solve", prob, "--out", out, "--quiet"]) == 0
        budget = parse_solution(out, parse_problem(prob)).iterations - 1
        code = main(["solve", prob, "--out", out, "--max-iter", str(budget), "--quiet"])
        assert code == 2
        assert parse_solution(out, parse_problem(prob)).iterations <= budget

    def test_scaled_two_arc_solve_then_check_passes(self, two_arc_path, tmp_path):
        # costs x100 and x1e3, within the file's own max_iter: a separator
        # formed as a difference of large inner products stalls here at the
        # iteration limit
        for factor in (100, 1e3):
            prob = scaled_two_arc(two_arc_path, tmp_path, factor)
            out = str(tmp_path / "s.sol")
            assert main(["solve", prob, "--out", out, "--quiet"]) == 0
            assert parse_solution(out, parse_problem(prob)).termination == "converged"
            assert main(["check", prob, out, "--quiet"]) == 0

    @pytest.mark.parametrize("path", PROBLEMS, ids=lambda p: p.name)
    def test_every_bundled_problem_passes_check(self, path, tmp_path):
        out = str(tmp_path / "s.sol")
        assert main(["solve", str(path), "--out", out, "--quiet"]) == 0
        assert main(["check", str(path), out, "--quiet"]) == 0

    def test_solve_writes_the_library_run_bit_for_bit(self, two_arc_path, tmp_path):
        # costs x100: the splitting residual passes before the equilibrium
        # residual, and solve still makes just the one run
        prob = scaled_two_arc(two_arc_path, tmp_path, 100)
        out = str(tmp_path / "s.sol")
        assert main(["solve", prob, "--out", out, "--quiet"]) == 0
        problem = parse_problem(prob)
        state, _, reason = solver.run(problem.network, problem.operators, problem.config)
        solution = parse_solution(out, problem)
        assert reason.value == solution.termination == "converged"
        assert solution.iterations == state.n
        assert np.array_equal(solution.flow, state.x)
        assert np.array_equal(solution.potential, state.v)

    def test_idle_interval_arc_passes_check(self, tmp_path):
        # the idle arc ends a hair outside its interval [0, inf[; the
        # equilibrium check evaluates it at the bound, where the interval's
        # normal cone prices it out
        prob = tmp_path / "prox.prob"
        prob.write_text(
            "netequil-problem v1\n\n[commodities]\nfreight\n\n[nodes]\na\nb\n\n"
            "[arcs]\n"
            "top  a  b  q=prox(phi=affine(a=1),lo=0)  r=orthant\n"
            "low  a  b  q=prox(phi=affine(a=2),lo=0)  r=orthant\n\n"
            "[supplies]\na  3\nb  -3\n"
        )
        out = str(tmp_path / "s.sol")
        assert main(["solve", str(prob), "--out", out, "--max-iter", "300", "--quiet"]) == 0
        assert main(["check", str(prob), out, "--quiet"]) == 0


@pytest.mark.parametrize(
    "file_T, flag, want_T, kind",
    [
        (0, "full", 0, solver.Full),
        (2, "full", 2, solver.Full),
        (0, "roundrobin:3", 2, solver.RoundRobin),
        (5, "roundrobin:3", 5, solver.RoundRobin),
        (1, "randomsweep:0.3", 3, solver.RandomSweep),
        (None, "roundrobin:3", None, solver.RoundRobin),  # a T the file omits stays derived
    ],
)
def test_scheduler_flag_raises_T_to_its_default_and_keeps_a_larger_one(
    two_arc_path, file_T, flag, want_T, kind
):
    problem = parse_problem(two_arc_path)
    problem = replace(problem, config=replace(problem.config, T=file_T))
    args = _build_parser().parse_args(["solve", two_arc_path, "--scheduler", flag])
    cfg = _apply_overrides(problem, args)
    assert cfg.T == want_T and isinstance(cfg.scheduler, kind)


@pytest.mark.parametrize("flag, want_seed", [("randomsweep:0.3", 0), ("randomsweep:0.3:5", 5)])
def test_the_scheduler_flag_replaces_the_files_spec_seed_included(two_arc_path, flag, want_seed):
    problem = parse_problem(two_arc_path)
    problem = replace(problem, config=replace(problem.config, scheduler=solver.RandomSweep(42, 0.5)))
    args = _build_parser().parse_args(["solve", two_arc_path, "--scheduler", flag])
    assert _apply_overrides(problem, args).scheduler == solver.RandomSweep(want_seed, 0.3)


class TestTraceReproducibility:
    def test_random_sweep_traces_bitwise_identical(self, two_arc_path, tmp_path):
        traces = []
        for name in ("t1.csv", "t2.csv"):
            trace = tmp_path / name
            code = main(
                [
                    "solve",
                    two_arc_path,
                    "--out",
                    str(tmp_path / "s.sol"),
                    "--trace",
                    str(trace),
                    "--scheduler",
                    "randomsweep:0.5:1234",
                    "--quiet",
                ]
            )
            assert code == 0
            traces.append(read(trace))
        assert traces[0] == traces[1]

    def test_different_seeds_differ(self, two_arc_path, tmp_path):
        traces = []
        for seed in ("1", "2"):
            trace = tmp_path / f"t{seed}.csv"
            main(
                [
                    "solve",
                    two_arc_path,
                    "--out",
                    str(tmp_path / "s.sol"),
                    "--trace",
                    str(trace),
                    "--scheduler",
                    f"randomsweep:0.5:{seed}",
                    "--quiet",
                ]
            )
            traces.append(read(trace))
        assert traces[0] != traces[1]

    @pytest.mark.parametrize("scheduler", ["full", "randomsweep:0.3:5"])
    def test_a_solve_of_a_grid_file_is_bitwise_the_same_in_two_fresh_processes(self, tmp_path, scheduler):
        # the conservation block takes F from LAPACK and multiplies by it
        # with BLAS, under every scheduler: with the same BLAS build and
        # environment, two processes write the same bytes
        k = 10
        ids = [f"r{i}c{j}" for i in range(k) for j in range(k)]
        arcs = [(f"r{i}c{j}", f"r{i + di}c{j + dj}") for i in range(k) for j in range(k)
                for di, dj in ((0, 1), (1, 0)) if i + di < k and j + dj < k]
        arcs += [(head, tail) for tail, head in arcs]
        lines = ["netequil-problem v1", "[commodities]", "c0", "[nodes]", *ids, "[arcs]"]
        lines += [f"a{n} {t} {h} q=bpr(alpha=0.15,rho=1,theta=1,p=4)" for n, (t, h) in enumerate(arcs)]
        lines += ["[supplies]", "r2c2 2", "r3c4 -2", "r7c6 1.5", "r8c8 -1.5"]
        problem = tmp_path / "grid.prob"
        problem.write_text("\n".join(lines) + "\n")
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        outputs = []
        for name in ("first", "second"):
            sol, trace = tmp_path / f"{name}.sol", tmp_path / f"{name}.csv"
            argv = ["solve", str(problem), "--out", str(sol), "--trace", str(trace), "--quiet"]
            argv += ["--scheduler", scheduler]
            code = f"import sys; from netequil.cli import main; sys.exit(main({argv!r}))"
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append((read(sol), read(trace)))
        assert outputs[0] == outputs[1]
        assert b"termination = converged" in outputs[0][0]

    def test_trace_has_fixed_header(self, two_arc_path, tmp_path):
        trace = tmp_path / "t.csv"
        main(["solve", two_arc_path, "--out", str(tmp_path / "s.sol"),
              "--trace", str(trace), "--quiet"])
        header = read(trace).decode().splitlines()[0]
        assert header == "n,tau,pi,theta,lambda,active_arcs,active_nodes,residual,millis"


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out
