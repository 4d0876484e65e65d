import numpy as np
import pytest

from netequil import ProblemFormatWarning, solver
from netequil.cli import main
from netequil.fileio import parse_problem, parse_solution

TWO_ARC = "problems/two_arc.prob"


@pytest.fixture
def two_arc_path(tmp_path):
    import shutil

    dest = tmp_path / "two_arc.prob"
    shutil.copy(TWO_ARC, dest)
    return str(dest)


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


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
        # a converged solve sweeps the residual only at the run's own checks
        assert len(sweeps) == len(traced)

    def test_solve_prints_to_stdout_without_out(self, two_arc_path, capsys):
        assert main(["solve", two_arc_path, "--quiet"]) == 0
        assert "netequil-solution v1" in capsys.readouterr().out

    def test_check_accepts_solve_output(self, two_arc_path, tmp_path):
        out = str(tmp_path / "s.sol")
        assert main(["solve", two_arc_path, "--out", out, "--quiet"]) == 0
        assert main(["check", two_arc_path, out, "--quiet"]) == 0

    def test_check_rejects_wrong_solution(self, two_arc_path, tmp_path):
        out = str(tmp_path / "s.sol")
        main(["solve", two_arc_path, "--out", out, "--quiet"])
        text = open(out).read().replace("\ntop 1.9", "\ntop 0.9")
        bad = tmp_path / "bad.sol"
        bad.write_text(text)
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

    def test_missing_file_exit_code(self):
        assert main(["solve", "/nonexistent/file.prob", "--quiet"]) == 1

    def test_numerical_failure_exit_code(self, two_arc_path, tmp_path):
        text = open(two_arc_path).read().replace("a  3", "a  inf")
        poisoned = tmp_path / "poisoned.prob"
        poisoned.write_text(text)
        out = str(tmp_path / "s.sol")
        assert main(["solve", str(poisoned), "--out", out, "--quiet"]) == 3

    def test_scheduler_flag_override(self, two_arc_path, tmp_path):
        out = str(tmp_path / "s.sol")
        code = main(
            ["solve", two_arc_path, "--out", out, "--scheduler", "roundrobin:2", "--quiet"]
        )
        assert code == 0

    def test_bad_scheduler_flag_is_input_error(self, two_arc_path):
        assert main(["solve", two_arc_path, "--scheduler", "perhaps", "--quiet"]) == 1

    def test_tol_flag_override(self, two_arc_path, tmp_path):
        out = str(tmp_path / "s.sol")
        assert main(["solve", two_arc_path, "--out", out, "--tol", "1e-4", "--quiet"]) == 0
        problem = parse_problem(two_arc_path)
        assert parse_solution(out, problem).iterations <= 40
        # check with an explicit tolerance stricter than the solution quality
        assert main(["check", two_arc_path, out, "--tol", "1e-12", "--quiet"]) == 2

    def test_threads_key_is_ignored_with_warning(self, two_arc_path, tmp_path):
        plain = str(tmp_path / "plain.sol")
        assert main(["solve", two_arc_path, "--out", plain, "--quiet"]) == 0
        threaded_path = tmp_path / "threaded.prob"
        threaded_path.write_bytes(read(two_arc_path) + b"threads = 2\n")
        out = str(tmp_path / "threaded.sol")
        with pytest.warns(ProblemFormatWarning, match="'threads' is obsolete"):
            assert main(["solve", str(threaded_path), "--out", out, "--quiet"]) == 0
        assert read(out) == read(plain)

    def test_max_iter_is_a_total_budget_across_reruns(self, two_arc_path, tmp_path):
        # with costs scaled by 100 the splitting residual converges while the
        # equilibrium residual is still far above tol, so solve keeps
        # re-running with a tighter tolerance
        prob = tmp_path / "scaled.prob"
        text = read(two_arc_path).decode()
        prob.write_text(text.replace("theta=1,", "theta=100,").replace("theta=2,", "theta=200,"))
        out = str(tmp_path / "s.sol")
        code = main(["solve", str(prob), "--out", out, "--max-iter", "1000", "--quiet"])
        assert code == 2
        assert parse_solution(out, parse_problem(str(prob))).iterations <= 1000

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
                    "randomsweep:0.5",
                    "--seed",
                    "1234",
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
                    "randomsweep:0.5",
                    "--seed",
                    seed,
                    "--quiet",
                ]
            )
            traces.append(read(trace))
        assert traces[0] != traces[1]

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
