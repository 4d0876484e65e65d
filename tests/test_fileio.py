import io
import math

import numpy as np
import pytest

from netequil import (
    ArcOperator,
    Box,
    ConfigurationError,
    FixedSupply,
    Full,
    Network,
    OperatorSet,
    SeparableLift,
    SolverConfig,
    ProblemFormatError,
    ProblemFormatWarning,
    RandomSweep,
    RoundRobin,
    TraceRecord,
    step_parameters,
)
from netequil.fileio import (
    Problem,
    Solution,
    parse_problem,
    parse_solution,
    serialize_problem,
    serialize_solution,
    write_trace,
)
from netequil.operators import BPR, TRC, IntervalProx, Logarithmic, PowerExp

MINIMAL = """netequil-problem v1
[commodities]
c1
[nodes]
a
b
[arcs]
e1 a b q=bpr(alpha=1,rho=1,theta=1,p=1) r=orthant
[supplies]
a 1
b -1
"""


def expect_code(text, code):
    with pytest.raises(ProblemFormatError) as err:
        parse_problem(text)
    assert err.value.code == code
    return err.value


class TestParseProblem:
    def test_minimal_file(self):
        problem = parse_problem(MINIMAL)
        assert problem.network.nodes == ("a", "b")
        assert problem.arc_ids == ("e1",)
        assert problem.operators.supplies[0, 0] == 1.0
        assert isinstance(problem.config.scheduler, Full)

    def test_every_capacity_family_parses(self):
        text = """netequil-problem v1
[commodities]
k
[nodes]
a
b
[arcs]
e1 a b q=bpr(alpha=1,rho=2,theta=3,p=4) r=orthant
e2 a b q=log(omega=2,theta=0.5) r=free
e3 a b q=trc(alpha=1,beta=2,delta=3,omega=4) r=box(0:10)
e4 a b q=powerexp(alpha=2,theta=1,p=0.5) r=orthant
e5 a b q=prox(phi=quadratic(a=2),lo=0,hi=5) r=orthant
e6 a b q=prox(phi=power(q=1.5),lo=0,hi=inf) r=orthant
"""
        problem = parse_problem(text)
        kinds = [type(op.q.scalar) for op in problem.operators.arc_operators]
        assert kinds == [BPR, Logarithmic, TRC, PowerExp, IntervalProx, IntervalProx]
        assert problem.operators.arc_operators[2].r == Box((0.0,), (10.0,))

    def test_parameter_out_of_range_names_the_arc(self):
        bad = MINIMAL.replace("alpha=1", "alpha=-1")
        err = expect_code(bad, "param-range")
        assert err.entity == "e1"
        assert err.section == "arcs"

    def test_missing_r_defaults_to_orthant_with_warning(self):
        text = MINIMAL.replace(" r=orthant", "")
        with pytest.warns(ProblemFormatWarning, match="orthant"):
            problem = parse_problem(text)
        assert problem.operators.arc_operators[0].r == Box.orthant(1)

    def test_unknown_family(self):
        expect_code(MINIMAL.replace("q=bpr(", "q=nope("), "unknown-family")

    def test_dangling_node(self):
        expect_code(MINIMAL.replace("e1 a b", "e1 a z"), "dangling-node")

    def test_supply_for_unknown_node(self):
        expect_code(MINIMAL.replace("a 1\n", "zz 1\n"), "dangling-node")

    def test_missing_commodity_entry(self):
        expect_code(MINIMAL.replace("a 1\n", "a 1 2\n"), "missing-commodity")

    def test_duplicate_arc_id(self):
        extra = MINIMAL.replace(
            "[supplies]", "e1 a b q=bpr(alpha=1,rho=1,theta=1,p=1) r=orthant\n[supplies]"
        )
        expect_code(extra, "duplicate-id")

    def test_self_loop(self):
        expect_code(MINIMAL.replace("e1 a b", "e1 a a"), "param-range")

    def test_bad_header(self):
        expect_code("something else\n", "syntax")

    def test_bad_number(self):
        expect_code(MINIMAL.replace("a 1\n", "a one\n"), "syntax")

    def test_unknown_solver_key(self):
        expect_code(MINIMAL + "[solver]\nwhat = 3\n", "unknown-key")

    def test_bad_scheduler_token(self):
        expect_code(MINIMAL + "[solver]\nscheduler = sometimes\n", "bad-scheduler")

    def test_solver_overrides(self):
        text = MINIMAL + (
            "[solver]\ngamma = 0.5\nlambda = 1.2\nscheduler = randomsweep:0.25\n"
            "seed = 7\ntol = 1e-08\nmax_iter = 123\n"
        )
        cfg = parse_problem(text).config
        assert cfg.gamma == 0.5
        assert cfg.relaxation == 1.2
        assert cfg.scheduler == RandomSweep(seed=7, activation_prob=0.25)
        assert cfg.T == 3  # randomsweep default window
        assert cfg.tol == 1e-8
        assert cfg.max_iter == 123

    def test_roundrobin_defaults_T(self):
        cfg = parse_problem(MINIMAL + "[solver]\nscheduler = roundrobin:2\n").config
        assert cfg.scheduler == RoundRobin(2)
        assert cfg.T == 1

    def test_supply_defaults_to_zero(self):
        text = MINIMAL.replace("a 1\nb -1\n", "a 1\n")
        problem = parse_problem(text)
        assert problem.operators.supplies[1, 0] == 0.0

    def test_never_panics_on_junk(self):
        for junk in ["", "netequil-problem v1\nloose text", MINIMAL.replace("[nodes]", "")]:
            with pytest.raises(ProblemFormatError):
                parse_problem(junk)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "extra",
        [
            "",
            "[solver]\nscheduler = roundrobin:2\nT = 1\n",
            "[solver]\nscheduler = randomsweep:0.5\nseed = 42\ngamma = 0.125\n",
        ],
    )
    def test_problem_round_trip_identity(self, extra):
        first = parse_problem(MINIMAL + extra)
        second = parse_problem(serialize_problem(first))
        assert first == second
        assert serialize_problem(first) == serialize_problem(second)

    def test_round_trip_preserves_awkward_floats(self):
        text = MINIMAL.replace("theta=1", "theta=0.1").replace("a 1", "a 0.30000000000000004")
        first = parse_problem(text)
        second = parse_problem(serialize_problem(first))
        assert first == second
        assert second.operators.supplies[0, 0] == 0.30000000000000004

    @staticmethod
    def two_node_problem(nodes, arc_id="e1", commodity="c1"):
        net = Network(nodes, [tuple(nodes)], [commodity])
        arc = ArcOperator(SeparableLift(BPR(alpha=0.15, rho=1.0, theta=1.0, p=4.0)), Box.orthant(1))
        ops = OperatorSet(net, [arc], [FixedSupply((1.0,)), FixedSupply((-1.0,))])
        return Problem(net, (arc_id,), ops, SolverConfig())

    def test_string_ids_round_trip(self):
        problem = self.two_node_problem(["r3c4", "node-2.b"], arc_id="a_17:x", commodity="car(1)")
        parsed = parse_problem(serialize_problem(problem))
        assert parsed == problem

    def test_tuple_node_id_is_rejected_by_name(self):
        with pytest.raises(ConfigurationError, match=r"node id \('r', 1\)"):
            serialize_problem(self.two_node_problem([("r", 1), "b"]))

    @pytest.mark.parametrize(
        "kind, kwargs",
        [
            ("node", {"nodes": ["", "b"]}),
            ("node", {"nodes": ["a#1", "b"]}),
            ("arc", {"nodes": ["a", "b"], "arc_id": "[arcs]"}),
            ("commodity", {"nodes": ["a", "b"], "commodity": "c 1"}),
        ],
    )
    def test_ids_that_would_not_parse_back_are_rejected(self, kind, kwargs):
        with pytest.raises(ConfigurationError, match=f"{kind} id"):
            serialize_problem(self.two_node_problem(**kwargs))

    def test_missing_step_keys_are_derived_from_the_graph(self):
        problem = parse_problem(MINIMAL + "[solver]\ntol = 1e-06\n")
        cfg = problem.config
        assert (cfg.gamma, cfg.mu, cfg.sigma) == (None, None, None)
        gamma, mu, sigma = step_parameters(problem.network, cfg)
        assert np.array_equal(gamma, [0.5]) and np.array_equal(mu, [1.0])
        assert np.array_equal(sigma, [0.5, 0.5])  # one arc at each node

    def test_explicit_step_keys_round_trip_unchanged(self):
        text = MINIMAL + "[solver]\ngamma = 0.30000000000000004\nmu = 2.5\nsigma = 1e-3\n"
        first = parse_problem(text)
        assert (first.config.gamma, first.config.mu, first.config.sigma) == (0.30000000000000004, 2.5, 1e-3)
        written = serialize_problem(first)
        for line in ("gamma = 0.30000000000000004\n", "mu = 2.5\n", "sigma = 0.001\n"):
            assert line in written
        assert parse_problem(written) == first

    @pytest.mark.parametrize(
        "explicit",
        [{}, {"mu": 2.0}, {"gamma": 0.25, "sigma": 3.0}, {"gamma": 1.0, "mu": 1.0, "sigma": 1.0}],
    )
    def test_serialize_writes_only_the_step_keys_that_were_set(self, explicit):
        problem = self.two_node_problem(["a", "b"])
        problem.config = SolverConfig(**explicit)
        written = serialize_problem(problem)
        for name in ("gamma", "mu", "sigma"):
            assert (f"\n{name} = " in written) == (name in explicit)
        assert parse_problem(written) == problem

    def test_solution_round_trip(self):
        problem = parse_problem(MINIMAL)
        solution = Solution(
            arc_ids=("e1",),
            node_ids=("a", "b"),
            flow=np.array([[1.0 / 3.0]]),
            arc_dual=np.array([[-1e-9]]),
            potential=np.array([[0.0], [math.pi]]),
            residual=2.5e-7,
            iterations=17,
            termination="converged",
        )
        text = serialize_solution(solution)
        parsed = parse_solution(text, problem)
        assert parsed == solution

    def test_solution_with_tuple_arc_id_is_rejected_by_name(self):
        solution = Solution((("e", 1),), ("a", "b"), np.ones((1, 1)), np.zeros((1, 1)),
                            np.zeros((2, 1)), 0.0, 1, "converged")
        with pytest.raises(ConfigurationError, match=r"arc id \('e', 1\)"):
            serialize_solution(solution)

    def test_solution_validates_entities(self):
        problem = parse_problem(MINIMAL)
        text = serialize_solution(
            Solution(("e1",), ("a", "b"), np.ones((1, 1)), np.zeros((1, 1)),
                     np.zeros((2, 1)), 0.0, 1, "converged")
        ).replace("e1", "zz")
        with pytest.raises(ProblemFormatError) as err:
            parse_solution(text, problem)
        assert err.value.code == "dangling-node"

    def test_solution_rejects_unknown_termination(self):
        problem = parse_problem(MINIMAL)
        text = serialize_solution(
            Solution(("e1",), ("a", "b"), np.ones((1, 1)), np.zeros((1, 1)),
                     np.zeros((2, 1)), 0.0, 1, "converged")
        ).replace("termination = converged", "termination = maybe")
        with pytest.raises(ProblemFormatError):
            parse_solution(text, problem)


class TestTrace:
    def records(self):
        return [
            TraceRecord(n=0, tau=1.5, pi=0.5, theta=0.6, relaxation=1.8,
                        active_arcs=2, active_nodes=2, residual=None, millis=12.5),
            TraceRecord(n=1, tau=0.25, pi=-0.1, theta=0.0, relaxation=1.8,
                        active_arcs=1, active_nodes=2, residual=1e-7, millis=3.5),
        ]

    def test_fixed_columns_and_deterministic_millis(self):
        buf = io.StringIO()
        write_trace(self.records(), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "n,tau,pi,theta,lambda,active_arcs,active_nodes,residual,millis"
        assert lines[1].endswith(",0")  # millis constant unless timing is requested
        assert lines[1].split(",")[7] == ""  # no residual recorded
        assert lines[2].split(",")[7] == repr(1e-7)

    def test_timing_flag_writes_wall_time(self):
        buf = io.StringIO()
        write_trace(self.records(), buf, timing=True)
        assert buf.getvalue().splitlines()[1].endswith(repr(12.5))
