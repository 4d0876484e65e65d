import numpy as np
import pytest

from netequil import ConfigurationError, Network

from conftest import random_network


def single_arc_net():
    return Network(["a", "b", "c"], [("a", "b")], 1)


class TestConstruction:
    def test_self_loop_rejected_with_arc_named(self):
        with pytest.raises(ConfigurationError, match="arc 1.*self-loop"):
            Network(["a", "b"], [("a", "b"), ("b", "b")], 1)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate node"):
            Network(["a", "a"], [("a", "a")], 1)

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ConfigurationError, match="not a declared node"):
            Network(["a", "b"], [("a", "z")], 1)

    @pytest.mark.parametrize(
        "nodes, arcs, commodities, message",
        [
            ([], [], 1, "node set must be nonempty"),
            (["a", "b"], [("a", "b")], [], "commodity set must be nonempty"),
            (["a", "b"], [("a", "b")], 0, "commodity set must be nonempty"),
            (["a", "b"], [], 1, "arc set must be nonempty"),
            (["a", "b"], [("a", "b")], ["c", "c"], "duplicate commodity"),
        ],
    )
    def test_empty_or_repeated_sets_rejected(self, nodes, arcs, commodities, message):
        with pytest.raises(ConfigurationError, match=message):
            Network(nodes, arcs, commodities)

    def test_parallel_arcs_allowed(self):
        net = Network(["a", "b"], [("a", "b"), ("a", "b")], 2)
        assert net.n_arcs == 2
        assert net.arcs[0] == net.arcs[1] == ("a", "b")

    def test_commodity_count_shorthand(self):
        assert Network(["a", "b"], [("a", "b")], 3).commodities == (0, 1, 2)


def unit_flow(net, arc):
    """One unit of every commodity on arc index `arc`, nothing elsewhere."""
    x = net.zero_flow()
    x[arc] = 1.0
    return x


class TestIncidence:
    # the incidence coefficient of node i on arc j is div_i of a unit flow on j
    def test_tail_head_and_off_arc(self):
        net = single_arc_net()
        div = net.divergence(unit_flow(net, 0))[:, 0]
        assert div[net.nodes.index("a")] == 1
        assert div[net.nodes.index("b")] == -1
        assert div[net.nodes.index("c")] == 0

    def test_unknown_ids_are_domain_errors(self):
        net = single_arc_net()
        with pytest.raises(ConfigurationError, match="flow shape"):
            net.divergence(np.zeros((6, 1)))  # a flow that names an arc 5

    def test_exactly_one_plus_and_one_minus_per_arc(self):
        rng = np.random.default_rng(3)
        net = random_network(rng)
        for j in range(net.n_arcs):
            values = net.divergence(unit_flow(net, j))
            for column in values.T:
                assert sorted(v for v in column if v != 0) == [-1, 1]


class TestDivergence:
    def test_single_arc(self):
        net = single_arc_net()
        div = net.divergence(np.array([[5.0]]))
        assert div[0, 0] == 5.0 and div[1, 0] == -5.0 and div[2, 0] == 0.0

    def test_zero_flow(self):
        rng = np.random.default_rng(11)
        net = random_network(rng)
        assert not net.divergence(net.zero_flow()).any()

    def test_conservation(self):
        # each arc contributes +x at its tail and -x at its head
        rng = np.random.default_rng(5)
        for _ in range(20):
            net = random_network(rng)
            x = rng.standard_normal((net.n_arcs, net.n_commodities))
            total = net.divergence(x).sum(axis=0)
            assert np.all(np.abs(total) <= 1e-12 * max(1.0, np.abs(x).sum()))

    def test_matches_incidence_sum(self):
        rng = np.random.default_rng(6)
        net = random_network(rng, max_nodes=6, max_arcs=12)
        x = rng.standard_normal((net.n_arcs, net.n_commodities))
        # +1 where the node is the arc's tail, -1 where it is its head
        eps = [[(i == t) - (i == h) for t, h in net.arcs] for i in net.nodes]
        via_eps = np.array(
            [
                sum(eps[i][j] * x[j] for j in range(net.n_arcs))
                for i in range(net.n_nodes)
            ]
        )
        np.testing.assert_allclose(net.divergence(x), via_eps, atol=1e-12)

    def test_dimension_mismatch(self):
        net = single_arc_net()
        with pytest.raises(ConfigurationError, match="flow shape"):
            net.divergence(np.zeros((2, 1)))


class TestTension:
    def test_head_minus_tail(self):
        net = Network(["a", "b"], [("a", "b")], 1)
        assert net.tension(np.array([[1.0], [4.0]]))[0, 0] == 3.0

    def test_constant_potential_gives_zero(self):
        rng = np.random.default_rng(8)
        net = random_network(rng)
        v = np.ones((net.n_nodes, net.n_commodities)) * 2.7
        assert not net.tension(v).any()

    def test_dimension_mismatch(self):
        net = single_arc_net()
        with pytest.raises(ConfigurationError, match="potential shape"):
            net.tension(np.zeros((99, 1)))


class TestLinearStructure:
    def test_adjointness(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            net = random_network(rng)
            x = rng.standard_normal((net.n_arcs, net.n_commodities))
            v = rng.standard_normal((net.n_nodes, net.n_commodities))
            lhs = float(np.sum(net.divergence(x) * v))
            rhs = float(np.sum(x * net.tension(v)))
            assert abs(lhs + rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))

    def test_linearity(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            net = random_network(rng)
            x, y = rng.standard_normal((2, net.n_arcs, net.n_commodities))
            v, w = rng.standard_normal((2, net.n_nodes, net.n_commodities))
            alpha = float(rng.standard_normal())
            np.testing.assert_allclose(
                net.divergence(alpha * x + y),
                alpha * net.divergence(x) + net.divergence(y),
                atol=1e-11,
            )
            np.testing.assert_allclose(
                net.tension(alpha * v + w),
                alpha * net.tension(v) + net.tension(w),
                atol=1e-11,
            )

    def test_divergence_reproducible(self):
        rng = np.random.default_rng(29)
        net = random_network(rng)
        x = rng.standard_normal((net.n_arcs, net.n_commodities))
        assert np.array_equal(net.divergence(x), net.divergence(x.copy()))

    def test_divergence_bitwise_matches_scatter_reference(self):
        # outgoing flux then incoming flux, each in ascending arc order
        rng = np.random.default_rng(31)
        for _ in range(20):
            net = random_network(rng)
            base = [(t, h) for t, h in zip(net.tails, net.heads)]
            # duplicate some arcs so parallel arcs share both endpoints
            extra = [base[int(j)] for j in rng.integers(len(base), size=len(base) // 2 + 1)]
            multi = Network(net.nodes, base + extra, net.n_commodities)
            x = rng.standard_normal((multi.n_arcs, multi.n_commodities)) * 10.0 ** rng.uniform(
                -8, 8, size=(multi.n_arcs, 1)
            )
            reference = np.zeros((multi.n_nodes, multi.n_commodities))
            np.add.at(reference, multi.tails, x)
            np.subtract.at(reference, multi.heads, x)
            assert np.array_equal(multi.divergence(x), reference)
