import numpy as np
import pytest

from netequil import (
    BPR,
    ArcOperator,
    Box,
    FixedSupply,
    Network,
    OperatorSet,
    SeparableLift,
    TwoArcInstance,
)


@pytest.fixture
def two_arc():
    """The reference instance: costs 1 + x and 2 + x, demand 3 -> x = (2, 1)."""
    inst = TwoArcInstance(1.0, 2.0, 1.0, 1.0, 3.0)
    net = inst.network()
    return inst, net, inst.operator_set(net)


# Braess-style diamond with strictly positive free-flow costs (the congestion
# family needs them).  Demand 6 from o to d over arcs oa, ob, ad, bd, ab with
# affine costs a + b*x given by `BRAESS_COEF`.  Equal route costs give the
# linear system (routes o-a-d, o-b-d, o-a-b-d with flows p1, p2, p3):
#     cost1 = 51 + 11 p1 + 10 p3,  cost2 = 51 + 11 p2 + 10 p3,
#     cost3 = 12 + 10 p1 + 10 p2 + 21 p3,  p1 + p2 + p3 = 6,
# whence p1 = p2 = 27/13, p3 = 24/13, all positive, common cost 1200/13.
BRAESS_COEF = [(1.0, 10.0), (50.0, 1.0), (50.0, 1.0), (1.0, 10.0), (10.0, 1.0)]
BRAESS_FLOW = np.array([51 / 13, 27 / 13, 27 / 13, 51 / 13, 24 / 13])
BRAESS_COST = 1200 / 13


def braess_network():
    return Network(
        ["o", "a", "b", "d"],
        [("o", "a"), ("o", "b"), ("a", "d"), ("b", "d"), ("a", "b")],
        1,
    )


def braess_bpr_specs():
    return [BPR(alpha=b / a, rho=1.0, theta=a, p=1.0) for a, b in BRAESS_COEF]


def braess_supplies():
    return np.array([6.0, 0.0, 0.0, -6.0])


@pytest.fixture
def braess():
    net = braess_network()
    orthant = Box.orthant(1)
    specs = braess_bpr_specs()
    ops = OperatorSet(
        net,
        [ArcOperator(SeparableLift(spec), orthant) for spec in specs],
        [FixedSupply((s,)) for s in braess_supplies()],
    )
    return net, ops, specs


def random_network(rng, max_nodes=20, max_arcs=60, max_comm=4):
    """Random multigraph (parallel arcs allowed, no self-loops)."""
    n_nodes = int(rng.integers(2, max_nodes + 1))
    n_arcs = int(rng.integers(1, max_arcs + 1))
    n_comm = int(rng.integers(1, max_comm + 1))
    pairs = []
    for _ in range(n_arcs):
        t = int(rng.integers(n_nodes))
        h = (t + int(rng.integers(1, n_nodes))) % n_nodes
        pairs.append((t, h))
    return Network(range(n_nodes), pairs, n_comm)


def weak_components(net):
    """Node index lists of the weakly connected components of `net`, each in
    ascending order, found by a breadth-first search over the arc list."""
    neighbours = [[] for _ in range(net.n_nodes)]
    for t, h in zip(net.tails.tolist(), net.heads.tolist()):
        neighbours[t].append(h)
        neighbours[h].append(t)
    seen, components = set(), []
    for start in range(net.n_nodes):
        if start in seen:
            continue
        seen.add(start)
        members = [start]
        for i in members:  # the list grows while it is read
            for m in neighbours[i]:
                if m not in seen:
                    seen.add(m)
                    members.append(m)
        components.append(sorted(members))
    return components


def grid_instance(k, n_comm, seed):
    """k x k grid, a BPR (p = 4) arc each way along every edge, and demand 4
    per commodity from one corner to the opposite one."""
    rng = np.random.default_rng(seed)
    nodes = [(i, j) for i in range(k) for j in range(k)]
    pairs = []
    for i in range(k):
        for j in range(k):
            if i + 1 < k:
                pairs += [((i, j), (i + 1, j)), ((i + 1, j), (i, j))]
            if j + 1 < k:
                pairs += [((i, j), (i, j + 1)), ((i, j + 1), (i, j))]
    net = Network(nodes, pairs, n_comm)
    specs = [
        BPR(alpha=0.15, rho=float(rng.uniform(1, 3)), theta=float(rng.uniform(1, 2)), p=4.0)
        for _ in pairs
    ]
    corner = {(0, 0): 4.0, (k - 1, k - 1): -4.0}
    ops = OperatorSet(
        net,
        [ArcOperator(SeparableLift(spec), Box.orthant(n_comm)) for spec in specs],
        [FixedSupply((corner.get(node, 0.0),) * n_comm) for node in nodes],
    )
    return net, ops


def bpr_operators(net, rng):
    """A BPR (p = 4) capacity on every arc of `net` and the supplies of a random
    nonnegative flow, so that every draw is feasible."""
    n_comm = net.n_commodities
    specs = [
        BPR(alpha=0.15, rho=float(rng.uniform(1, 3)), theta=float(rng.uniform(1, 2)), p=4.0)
        for _ in range(net.n_arcs)
    ]
    supply = net.divergence(rng.uniform(0.0, 2.0, (net.n_arcs, n_comm)))
    return OperatorSet(
        net,
        [ArcOperator(SeparableLift(spec), Box.orthant(n_comm)) for spec in specs],
        [FixedSupply(tuple(row)) for row in supply],
    )
