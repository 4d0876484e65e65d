import dataclasses
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
    sweep_bound,
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
from netequil import fileio, operators
from netequil.solver import RELAXATION
from netequil.operators import (
    BPR,
    TRC,
    AffinePhi,
    CustomPhi,
    IntervalProx,
    Logarithmic,
    PowerExp,
    PowerPhi,
    QuadraticPhi,
)

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
# a second arc, so that two round-robin groups fit the network
TWO_ARCS = MINIMAL.replace(
    "[supplies]", "e2 a b q=bpr(alpha=2,rho=1,theta=1,p=1) r=free\n[supplies]"
)


def expect_code(text, code, parse=parse_problem):
    with pytest.raises(ProblemFormatError) as err:
        parse(text)
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
            "[solver]\nscheduler = randomsweep:0.25:7\n"
            "tol = 1e-08\nmax_iter = 123\n"
        )
        cfg = parse_problem(text).config
        assert cfg.scheduler == RandomSweep(seed=7, activation_prob=0.25)
        assert cfg.T is None and sweep_bound(cfg.scheduler) == 3  # randomsweep default window
        assert cfg.tol == 1e-8
        assert cfg.max_iter == 123

    def test_roundrobin_defaults_T(self):
        cfg = parse_problem(TWO_ARCS + "[solver]\nscheduler = roundrobin:2\n").config
        assert cfg.scheduler == RoundRobin(2)
        assert cfg.T is None and sweep_bound(cfg.scheduler) == 1

    def test_full_and_the_one_group_round_robin_keep_their_own_tokens(self):
        problem = parse_problem(TWO_ARCS)
        for spec, token in ((Full(), "full"), (RoundRobin(1), "roundrobin:1")):
            problem.config = dataclasses.replace(problem.config, scheduler=spec)
            text = serialize_problem(problem)
            assert f"\nscheduler = {token}\n" in text
            parsed = parse_problem(text).config.scheduler
            assert type(parsed) is type(spec) and parsed == spec

    def test_threads_key_is_unknown_at_its_line(self):
        err = expect_code(MINIMAL + "[solver]\ntol = 1e-06\nthreads = 2\n", "unknown-key")
        assert (err.section, err.entity, err.line) == ("solver", "threads", 14)

    @pytest.mark.parametrize("key", ["lambda", "check_interval"])
    def test_keys_of_the_solver_constants_are_unknown_at_their_line(self, key):
        # every file written before the relaxation and the check interval became constants has them
        err = expect_code(MINIMAL + f"[solver]\ntol = 1e-06\n{key} = 1\n", "unknown-key")
        assert (err.section, err.entity, err.line) == ("solver", key, 14)

    def test_the_mu_key_of_the_deleted_box_block_is_unknown_at_its_line(self):
        # files written while each arc's box was a block of its own may hold it
        err = expect_code(MINIMAL + "[solver]\ntol = 1e-06\nmu = 1.0\n", "unknown-key")
        assert (err.section, err.entity, err.line) == ("solver", "mu", 14)

    def test_every_solver_setting_has_exactly_one_key(self):
        # so no setting reaches the library without the file format, or the reverse
        assert list(fileio._SOLVER_KEYS) == [f.name for f in dataclasses.fields(SolverConfig)]

    def test_the_seed_key_of_files_written_before_it_joined_the_token_is_unknown_at_its_line(self):
        # such a file says scheduler = randomsweep:p with seed = N; the token is now randomsweep:p:N
        text = MINIMAL + "[solver]\nscheduler = randomsweep:0.5\nseed = 7\n"
        err = expect_code(text, "unknown-key")
        assert (err.section, err.entity, err.line) == ("solver", "seed", 14)

    def test_a_random_sweep_without_a_seed_has_seed_0(self):
        cfg = parse_problem(TWO_ARCS + "[solver]\nscheduler = randomsweep:0.25\n").config
        assert cfg.scheduler == RandomSweep(seed=0, activation_prob=0.25)

    @pytest.mark.parametrize("seed", [0, 2**31 - 1])
    def test_a_random_sweep_token_round_trips_with_its_seed(self, seed):
        problem = parse_problem(TWO_ARCS)
        problem.config = dataclasses.replace(problem.config, scheduler=RandomSweep(seed, 0.3))
        text = serialize_problem(problem)
        assert f"\nscheduler = randomsweep:0.3:{seed}\n" in text
        assert parse_problem(text).config.scheduler == RandomSweep(seed, 0.3)
        assert serialize_problem(parse_problem(text)) == text

    @pytest.mark.parametrize(
        "token, code",
        [
            ("sometimes:1", "bad-scheduler"),  # unknown name
            ("full:1", "bad-scheduler"),  # too many values
            ("roundrobin:2:1", "bad-scheduler"),
            ("randomsweep:0.5:1:2", "bad-scheduler"),
            ("roundrobin", "bad-scheduler"),  # a required value missing
            ("randomsweep", "bad-scheduler"),
            ("roundrobin:x", "syntax"),  # not a number
            ("randomsweep:x", "syntax"),
            ("randomsweep:0.5:x", "syntax"),
            ("randomsweep:0.5:1.5", "syntax"),
            ("randomsweep:0.5:", "syntax"),
            ("randomsweep:2:1", "param-range"),  # a value the spec rejects
        ],
    )
    def test_scheduler_token_diagnostics(self, token, code):
        err = expect_code(TWO_ARCS + f"[solver]\nscheduler = {token}\n", code)
        assert err.section == "solver"
        assert (err.entity, err.line) == ("scheduler", 14)

    def test_empty_solver_section_gives_the_default_config(self):
        cfg, default = parse_problem(MINIMAL + "[solver]\n").config, SolverConfig()
        for f in dataclasses.fields(SolverConfig):
            assert getattr(cfg, f.name) == getattr(default, f.name), f.name

    def test_every_solver_field_set_is_written_in_key_order(self):
        problem = parse_problem(TWO_ARCS)
        problem.config = SolverConfig(
            T=4, scheduler=RandomSweep(seed=5, activation_prob=0.25), tol=1e-08, max_iter=77,
        )
        text = serialize_problem(problem)
        assert text.split("[solver]\n", 1)[1] == (
            "T = 4\n"
            "scheduler = randomsweep:0.25:5\ntol = 1e-08\nmax_iter = 77\n"
        )
        assert serialize_problem(parse_problem(text)) == text
        assert parse_problem(text).config == problem.config

    def test_supply_defaults_to_zero(self):
        # c has no supply line; a and b keep theirs, so the supplies still balance
        text = MINIMAL.replace("b\n[arcs]", "b\nc\n[arcs]").replace(
            "[supplies]", "e2 b c q=bpr(alpha=1,rho=1,theta=1,p=1) r=orthant\n[supplies]"
        )
        problem = parse_problem(text)
        assert problem.operators.supplies[2, 0] == 0.0

    @pytest.mark.parametrize("rows", ["a 1\n", "a 1\nb -2\n"])
    def test_unbalanced_supplies_are_param_range_naming_the_commodity(self, rows):
        err = expect_code(MINIMAL.replace("a 1\nb -1\n", rows), "param-range")
        assert err.section == "supplies"
        assert "commodity 'c1'" in str(err) and "'a'" in str(err)

    def test_supplies_whose_sum_overflows_are_param_range(self):
        text = MINIMAL.replace("b\n[arcs]", "b\nc\n[arcs]").replace(
            "[supplies]", "e2 b c q=bpr(alpha=1,rho=1,theta=1,p=1) r=orthant\n[supplies]"
        )
        err = expect_code(text.replace("a 1\nb -1\n", "a 1e308\nb 1e308\nc -1e308\n"), "param-range")
        assert err.section == "supplies"
        assert "commodity 'c1': supplies sum to 1e+308" in str(err)

    def test_repeated_supply_line_rejected(self):
        err = expect_code(MINIMAL.replace("a 1\n", "a 3\na 5\n"), "duplicate-id")
        assert (err.section, err.entity, err.line) == ("supplies", "a", 11)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_supply_names_the_node_and_line(self, value):
        err = expect_code(MINIMAL.replace("b -1\n", f"b {value}\n"), "param-range")
        assert (err.section, err.entity, err.line) == ("supplies", "b", 11)

    def test_repeated_solver_key_rejected(self):
        err = expect_code(MINIMAL + "[solver]\ntol = 1e-06\ntol = 1\n", "duplicate-id")
        assert (err.section, err.entity, err.line) == ("solver", "tol", 14)

    @pytest.mark.parametrize(
        "spec",
        [
            "bpr(alpha=1,alpha=2,rho=1,theta=1,p=1)",
            "prox(phi=affine(a=1,a=2))",
            "prox(phi=affine(a=1),phi=affine(a=2))",
        ],
    )
    def test_repeated_spec_parameter_rejected(self, spec):
        bad = MINIMAL.replace("bpr(alpha=1,rho=1,theta=1,p=1)", spec)
        assert expect_code(bad, "duplicate-id").entity == "e1"

    @pytest.mark.parametrize("token", ["r=free", "q=bpr(alpha=1,rho=1,theta=1,p=1)"])
    def test_repeated_arc_spec_rejected(self, token):
        expect_code(MINIMAL.replace("r=orthant", f"r=orthant {token}"), "duplicate-id")

    def test_prox_rejects_an_unknown_key_like_every_family(self):
        bad = MINIMAL.replace("bpr(alpha=1,rho=1,theta=1,p=1)", "prox(phi=affine(a=1),lo=0,zz=3)")
        err = expect_code(bad, "param-range")
        assert "zz" in str(err) and err.entity == "e1"

    def test_affine_takes_no_intercept(self):
        # every affine token was written with a b= before AffinePhi dropped it
        bad = MINIMAL.replace("bpr(alpha=1,rho=1,theta=1,p=1)", "prox(phi=affine(a=1,b=0),lo=0)")
        err = expect_code(bad, "param-range")
        assert "['b']" in str(err) and (err.section, err.entity, err.line) == ("arcs", "e1", 8)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("q=bpr(alpha=1,rho=1,theta=1,p=1)", "q=prox(phi=affine(a=1),lo=inf)"),
            ("q=bpr(alpha=1,rho=1,theta=1,p=1)", "q=prox(phi=affine(a=1),hi=-inf)"),
            ("r=orthant", "r=box(inf:inf)"),
            ("r=orthant", "r=box(-inf:-inf)"),
        ],
    )
    def test_an_interval_without_a_real_point_is_param_range_at_its_arc(self, old, new):
        err = expect_code(MINIMAL.replace(old, new), "param-range")
        assert (err.section, err.entity, err.line) == ("arcs", "e1", 8)

    @pytest.mark.parametrize("phi", ["bpr(alpha=1,rho=1,theta=1,p=1)", "nope(a=1)", "3"])
    def test_prox_phi_must_name_a_phi_family(self, phi):
        bad = MINIMAL.replace("bpr(alpha=1,rho=1,theta=1,p=1)", f"prox(phi={phi})")
        expect_code(bad, "unknown-family")

    def test_phi_family_is_no_capacity(self):
        bad = MINIMAL.replace("bpr(alpha=1,rho=1,theta=1,p=1)", "affine(a=1)")
        expect_code(bad, "unknown-family")

    @pytest.mark.parametrize(
        "old, new, section, line",
        [
            ("[supplies]", "[suplies]", "suplies", 9),
            ("[supplies]", "[meta]", "meta", 9),
            ("[supplies]", "[supplies]\n[supplies]", "supplies", 10),
            ("[arcs]\n", "[arcs]\n[arcs]\n", "arcs", 8),
        ],
    )
    def test_unknown_or_repeated_section_rejected(self, old, new, section, line):
        code = "duplicate-id" if old in new else "syntax"
        err = expect_code(MINIMAL.replace(old, new), code)
        assert (err.section, err.line) == (section, line)

    @pytest.mark.parametrize(
        "old, new, section", [("c1\n", "c1 extra\n", "commodities"), ("b\n[arcs]", "b x\n[arcs]", "nodes")]
    )
    def test_extra_token_on_an_id_line_rejected(self, old, new, section):
        err = expect_code(MINIMAL.replace(old, new), "syntax")
        assert err.section == section

    @pytest.mark.parametrize(
        "block, entity, line",
        [
            ("scheduler = roundrobin:0", "scheduler", 14),
            ("scheduler = randomsweep:2", "scheduler", 14),
            ("scheduler = randomsweep:0.5:-1", "scheduler", 14),
            ("scheduler = randomsweep:0.5\nT = -1", "T", 15),
            ("T = -1", "T", 14),
            ("tol = inf", "tol", 14),  # would report converged far from an equilibrium
            ("tol = nan", "tol", 14),
            ("T = 2\ntol = 0", "tol", 15),
            ("max_iter = -2", "max_iter", 14),
            ("tol = -inf", "tol", 14),
            ("max_iter = 0\nT = -3", "T", 15),
            # a setting is checked alone, so the first one rejected is the one reported
            ("tol = 0.5\nscheduler = roundrobin:0", "scheduler", 15),
            ("scheduler = roundrobin:2\nT = 1\nmax_iter = -1", "max_iter", 16),
            # what make_scheduler rejects on the network and T is at the scheduler line
            ("scheduler = roundrobin:5", "scheduler", 14),  # more groups than the two arcs
            ("scheduler = roundrobin:2\nT = 0", "scheduler", 14),  # a window of T + 1 misses a group
            ("T = 0\nscheduler = roundrobin:2", "scheduler", 15),
        ],
    )
    def test_solver_settings_that_solving_rejects_are_param_range(self, block, entity, line):
        err = expect_code(TWO_ARCS + f"[solver]\n{block}\n", "param-range")
        assert err.section == "solver"
        assert (err.entity, err.line) == (entity, line)

    def test_path_starting_with_netequil_is_read_as_a_path(self, tmp_path, monkeypatch):
        (tmp_path / "netequil-minimal.prob").write_text(MINIMAL)
        monkeypatch.chdir(tmp_path)
        from_path = parse_problem("netequil-minimal.prob")
        assert serialize_problem(from_path) == serialize_problem(parse_problem(MINIMAL))

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
            "[solver]\nscheduler = randomsweep:0.5:42\ntol = 0.125\n",
        ],
    )
    def test_problem_round_trip_identity(self, extra):
        first = parse_problem(TWO_ARCS + extra)
        second = parse_problem(serialize_problem(first))
        assert serialize_problem(first) == serialize_problem(second)

    def test_round_trip_preserves_awkward_floats(self):
        awkward = "a 0.30000000000000004\nb -0.30000000000000004"
        text = MINIMAL.replace("theta=1", "theta=0.1").replace("a 1\nb -1", awkward)
        first = parse_problem(text)
        second = parse_problem(serialize_problem(first))
        assert serialize_problem(first) == serialize_problem(second)
        assert second.operators.supplies[0, 0] == 0.30000000000000004

    @staticmethod
    def two_node_problem(nodes, arc_id="e1", commodity="c1"):
        net = Network(nodes, [tuple(nodes)], [commodity])
        arc = ArcOperator(SeparableLift(BPR(alpha=0.15, rho=1.0, theta=1.0, p=4.0)), Box.orthant(1))
        ops = OperatorSet(net, [arc], [FixedSupply((1.0,)), FixedSupply((-1.0,))])
        return Problem(net, (arc_id,), ops, SolverConfig())

    def test_string_ids_round_trip(self):
        problem = self.two_node_problem(["r3c4", "node-2.b"], arc_id="a_17:x", commodity="car(1)")
        text = serialize_problem(problem)
        assert serialize_problem(parse_problem(text)) == text

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

    def test_explicit_solver_keys_round_trip_unchanged(self):
        text = MINIMAL + "[solver]\ntol = 0.30000000000000004\nmax_iter = 0\nscheduler = randomsweep:0.5:0\n"
        first = parse_problem(text)
        assert (first.config.tol, first.config.max_iter) == (0.30000000000000004, 0)
        written = serialize_problem(first)
        for line in ("tol = 0.30000000000000004\n", "max_iter = 0\n"):
            assert line in written
        assert serialize_problem(parse_problem(written)) == written

    @pytest.mark.parametrize("T", [None, 0, 4])
    def test_serialize_writes_T_only_when_it_was_set(self, T):
        # a T of None takes the scheduler's own bound, and 0 is a bound of its own
        problem = self.two_node_problem(["a", "b"])
        problem.config = SolverConfig(T=T, scheduler=RandomSweep())
        written = serialize_problem(problem)
        assert ("\nT = " in written) == (T is not None)
        assert parse_problem(written).config.T == T
        assert serialize_problem(parse_problem(written)) == written

    @pytest.mark.parametrize("key", ["gamma", "sigma"])
    def test_the_step_parameters_are_no_solver_keys(self, key):
        # every scheduler steps at gamma = 1, so a
        # file written with either key is rejected at its line
        err = expect_code(MINIMAL + f"[solver]\nscheduler = randomsweep:0.5\n{key} = 0.5\n", "unknown-key")
        assert (err.section, err.entity) == ("solver", key)
        problem = self.two_node_problem(["a", "b"])
        problem.config = SolverConfig(scheduler=RandomSweep())
        written = serialize_problem(problem)
        assert f"\n{key} = " not in written
        assert serialize_problem(parse_problem(written)) == written

    def test_solution_round_trip(self):
        problem = parse_problem(MINIMAL)
        solution = Solution(
            arc_ids=("e1",),
            node_ids=("a", "b"),
            flow=np.array([[1.0 / 3.0]]),
            potential=np.array([[0.0], [math.pi]]),
            residual=2.5e-7,
            iterations=17,
            termination="converged",
        )
        text = serialize_solution(solution)
        assert serialize_solution(parse_solution(text, problem)) == text

    def test_solution_with_tuple_arc_id_is_rejected_by_name(self):
        solution = Solution((("e", 1),), ("a", "b"), np.ones((1, 1)), np.zeros((2, 1)), 0.0, 1, "converged")
        with pytest.raises(ConfigurationError, match=r"arc id \('e', 1\)"):
            serialize_solution(solution)

    def test_solution_validates_entities(self):
        problem = parse_problem(MINIMAL)
        text = serialize_solution(
            Solution(("e1",), ("a", "b"), np.ones((1, 1)), np.zeros((2, 1)), 0.0, 1, "converged")
        ).replace("e1", "zz")
        with pytest.raises(ProblemFormatError) as err:
            parse_solution(text, problem)
        assert err.value.code == "dangling-node"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section", ["flow", "potential"])
    def test_solution_rejects_non_finite_values_at_their_line(self, section, value):
        # a nan flow used to parse, and check then printed a nan residual
        problem = parse_problem(MINIMAL)
        lines = serialize_solution(
            Solution(("e1",), ("a", "b"), np.ones((1, 1)), np.zeros((2, 1)), 0.0, 1, "converged")
        ).splitlines()
        line = lines.index(f"[{section}]") + 2  # the section's first row, 1-based
        entity = lines[line - 1].split()[0]
        lines[line - 1] = f"{entity} {value}"
        with pytest.raises(ProblemFormatError) as err:
            parse_solution("\n".join(lines) + "\n", problem)
        assert (err.value.code, err.value.section, err.value.entity, err.value.line) == (
            "param-range", section, entity, line
        )

    def test_solution_rejects_unknown_termination(self):
        problem = parse_problem(MINIMAL)
        text = serialize_solution(
            Solution(("e1",), ("a", "b"), np.ones((1, 1)), np.zeros((2, 1)), 0.0, 1, "converged")
        ).replace("termination = converged", "termination = maybe")
        with pytest.raises(ProblemFormatError):
            parse_solution(text, problem)


# every capacity family, every phi and every box kind, with the token
# serialize_problem writes for it
GOLDEN_ARCS = [
    (BPR(alpha=0.15, rho=2.0, theta=0.1, p=4.0), Box.orthant(2),
     "q=bpr(alpha=0.15,rho=2.0,theta=0.1,p=4.0) r=orthant"),
    (Logarithmic(omega=3.0, theta=0.5), Box.free(2),
     "q=log(omega=3.0,theta=0.5) r=free"),
    (TRC(1.0, 2.0, 3.0, 4.0), Box((0.0, -math.inf), (1.0, 0.30000000000000004)),
     "q=trc(alpha=1.0,beta=2.0,delta=3.0,omega=4.0) r=box(0.0:1.0,-inf:0.30000000000000004)"),
    (PowerExp(2.0, 1.0, 0.5), Box.orthant(2),
     "q=powerexp(alpha=2.0,theta=1.0,p=0.5) r=orthant"),
    (IntervalProx(AffinePhi(-0.5), 0.0, 5.0), Box.orthant(2),
     "q=prox(phi=affine(a=-0.5),lo=0.0,hi=5.0) r=orthant"),
    (IntervalProx(QuadraticPhi(2.0)), Box.orthant(2),
     "q=prox(phi=quadratic(a=2.0),lo=-inf,hi=inf) r=orthant"),
    (IntervalProx(PowerPhi(1.5), lo=-1.0), Box.orthant(2),
     "q=prox(phi=power(q=1.5),lo=-1.0,hi=inf) r=orthant"),
]


def golden_problem(arcs=GOLDEN_ARCS):
    net = Network(["a", "b"], [("a", "b")] * len(arcs), ["c1", "c2"])
    arc_ops = [ArcOperator(SeparableLift(spec), box) for spec, box, _ in arcs]
    ops = OperatorSet(net, arc_ops, [FixedSupply((1.0, 2.0)), FixedSupply((-1.0, -2.0))])
    return Problem(net, tuple(f"e{j}" for j in range(len(arcs))), ops, SolverConfig())


class TestTokens:
    def test_every_family_phi_and_box_token_byte_for_byte(self):
        text = serialize_problem(golden_problem())
        arc_lines = text.split("[arcs]\n", 1)[1].split("\n\n", 1)[0].splitlines()
        assert arc_lines == [f"e{j} a b {token}" for j, (_, _, token) in enumerate(GOLDEN_ARCS)]
        assert serialize_problem(parse_problem(text)) == text

    def test_every_exported_spec_class_is_in_the_family_table(self):
        exported = {getattr(operators, name) for name in operators.__all__}
        specs = {
            cls for cls in exported
            if isinstance(cls, type) and (hasattr(cls, "family") or hasattr(cls, "prox"))
        }
        assert set(fileio._FAMILIES.values()) == specs - {CustomPhi}
        golden = {type(spec) for spec, _, _ in GOLDEN_ARCS}
        golden |= {type(spec.phi) for spec, _, _ in GOLDEN_ARCS if isinstance(spec, IntervalProx)}
        assert golden == specs - {CustomPhi}  # so the round trip above covers each of them

    def test_custom_phi_cannot_be_written(self):
        custom = IntervalProx(CustomPhi(lambda gamma, xi: xi, lambda s: (0.0, 0.0)))
        problem = golden_problem([(custom, Box.orthant(2), None)])
        with pytest.raises(ConfigurationError, match="not a family of the file format"):
            serialize_problem(problem)


class TestSolutionSections:
    def text(self):
        return serialize_solution(
            Solution(("e1",), ("a", "b"), np.ones((1, 1)), np.zeros((2, 1)), 0.0, 1, "converged")
        )

    @pytest.mark.parametrize(
        "old, new, code",
        [
            ("[meta]\n", "[meta]\nextra = 1\n", "unknown-key"),
            ("[meta]\n", "[meta]\nresidual = 1.0\n", "duplicate-id"),
            ("[flow]\n", "[flow]\n[flow]\n", "duplicate-id"),
            ("[flow]\ne1 1.0\n", "[flow]\ne1 1.0\ne1 1.0\n", "duplicate-id"),
            ("[potential]\n", "[extra]\ne1 1.0\n\n[potential]\n", "syntax"),
            # solutions written while the solver carried arc duals hold this section
            ("[potential]\n", "[arc_dual]\ne1 0.0\n\n[potential]\n", "syntax"),
        ],
    )
    def test_rejected(self, old, new, code):
        text = self.text()
        assert old in text
        expect_code(text.replace(old, new), code, lambda t: parse_solution(t, parse_problem(MINIMAL)))

    @pytest.mark.parametrize(
        "key, value", [("iterations", "-50"), ("residual", "-1.19e-07"), ("residual", "-inf")]
    )
    def test_negative_metadata_is_param_range_at_its_line(self, key, value):
        problem, lines = parse_problem(MINIMAL), self.text().splitlines()
        line = next(n for n, text in enumerate(lines, 1) if text.startswith(f"{key} = "))
        lines[line - 1] = f"{key} = {value}"
        err = expect_code("\n".join(lines) + "\n", "param-range", lambda t: parse_solution(t, problem))
        assert (err.section, err.entity, err.line) == ("meta", key, line)
        # solve writes an inf residual where none can be evaluated
        for residual in ("inf", "nan"):
            text = self.text().replace("residual = 0.0", f"residual = {residual}")
            assert math.isnan(parse_solution(text, problem).residual) == (residual == "nan")


SPEC = "bpr(alpha=1,rho=1,theta=1,p=1)"


class TestInputRejections:
    """Each rejection of a malformed input, with its code and location."""

    @pytest.mark.parametrize(
        "old, new, code, section, entity, line",
        [
            ("c1\n", "c1\nc1\n", "duplicate-id", "commodities", "c1", 4),
            ("b\n[arcs]", "b\nb\n[arcs]", "duplicate-id", "nodes", "b", 7),
            (f"q={SPEC} r=orthant", "", "syntax", "arcs", "e1", 8),  # fewer than 4 tokens
            ("r=orthant", "r=orthant x=1", "syntax", "arcs", "e1", 8),
            (f"q={SPEC} ", "", "syntax", "arcs", "e1", 8),  # no q=
            (SPEC, "bpr(alpha=1", "syntax", "arcs", "e1", 8),
            (SPEC, "bpr", "param-range", "arcs", "e1", 8),  # a bare name takes no parameters
            (SPEC, "nope", "unknown-family", "arcs", "e1", 8),
            (SPEC, "bpr(alpha=1,rho,theta=1,p=1)", "syntax", "arcs", "e1", 8),
            ("r=orthant", "r=cube", "syntax", "arcs", "e1", 8),
            ("r=orthant", "r=ball(0:1)", "syntax", "arcs", "e1", 8),
            ("r=orthant", "r=box(0)", "syntax", "arcs", "e1", 8),
            ("r=orthant", "r=box(0:1,0:1)", "missing-commodity", "arcs", "e1", 8),
            ("b -1\n", "b -1\n[solver]\ntol 1e-06\n", "syntax", "solver", None, 13),
        ],
    )
    def test_problem_rejected_at_its_location(self, old, new, code, section, entity, line):
        assert old in MINIMAL
        err = expect_code(MINIMAL.replace(old, new), code)
        assert (err.section, err.entity, err.line) == (section, entity, line)

    @pytest.mark.parametrize(
        "old, new",
        [(SPEC, "bpr(alpha=1,,rho=1,theta=1,p=1,)"), ("r=orthant", "r=box(0:inf,)")],
    )
    def test_an_empty_spec_parameter_is_syntax(self, old, new):
        err = expect_code(MINIMAL.replace(old, new), "syntax")
        assert (err.section, err.entity, err.line) == ("arcs", "e1", 8)

    def test_a_problem_is_read_from_a_stream(self):
        text = serialize_problem(parse_problem(MINIMAL))
        assert serialize_problem(parse_problem(io.StringIO(MINIMAL))) == text
        err = expect_code(io.StringIO(MINIMAL.replace("r=orthant", "r=cube")), "syntax")
        assert (err.section, err.entity, err.line) == ("arcs", "e1", 8)

    def test_an_unknown_scheduler_spec_cannot_be_written(self):
        # SolverConfig rejects such a spec before any problem holds one
        with pytest.raises(ConfigurationError, match="cannot serialize scheduler"):
            fileio._scheduler_token(object())

    @pytest.mark.parametrize(
        "old, code, section, entity",
        [
            ("iterations = 1\n", "syntax", "meta", "iterations"),
            ("e1 1.0\n", "missing-commodity", "flow", None),
            ("b 0.0\n", "missing-commodity", "potential", None),
        ],
    )
    def test_solution_missing_an_entry_rejected(self, old, code, section, entity):
        text = serialize_solution(
            Solution(("e1",), ("a", "b"), np.ones((1, 1)), np.zeros((2, 1)), 0.0, 1, "converged")
        )
        assert old in text
        err = expect_code(text.replace(old, ""), code, lambda t: parse_solution(t, parse_problem(MINIMAL)))
        assert (err.section, err.entity, err.line) == (section, entity, None)


class TestTrace:
    def records(self):
        return [
            TraceRecord(n=0, tau=1.5, pi=0.5, theta=0.6,
                        active_arcs=2, active_nodes=2, residual=None, millis=12.5),
            TraceRecord(n=1, tau=0.25, pi=-0.1, theta=0.0,
                        active_arcs=1, active_nodes=2, residual=1e-7, millis=3.5),
        ]

    def test_fixed_columns_and_deterministic_millis(self):
        buf = io.StringIO()
        write_trace(self.records(), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "n,tau,pi,theta,lambda,active_arcs,active_nodes,residual,millis"
        assert lines[1].endswith(",0")  # millis constant unless timing is requested
        assert [line.split(",")[4] for line in lines[1:]] == [repr(RELAXATION)] * 2
        assert lines[1].split(",")[7] == ""  # no residual recorded
        assert lines[2].split(",")[7] == repr(1e-7)

    def test_timing_flag_writes_wall_time(self):
        buf = io.StringIO()
        write_trace(self.records(), buf, timing=True)
        assert buf.getvalue().splitlines()[1].endswith(repr(12.5))
