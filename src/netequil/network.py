"""Directed multigraph with commodities, and the divergence/tension maps.

A network is a finite ordered node set, a finite ordered list of directed
arcs (tail, head) with tail != head, and a finite ordered commodity set.
Parallel arcs are allowed; self-loops are not.  Per-arc quantities live in
R^C with one coordinate per commodity: a flow is an (n_arcs, C) array, a
potential an (n_nodes, C) array, and a tension again (n_arcs, C).

Divergence of a flow at a node is outgoing minus incoming flux; tension of
a potential across an arc is head value minus tail value.  The two maps
are negative adjoints of each other:

    sum_i <div_i x, v_i> = -sum_j <x_j, tension_j v>.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

__all__ = ["Network"]


class Network:
    """Immutable directed multigraph with a commodity set.

    Parameters
    ----------
    nodes : sequence of hashable
        Node identifiers, no duplicates.
    arcs : sequence of (tail, head)
        Directed arcs given by node identifiers.  Parallel arcs are
        allowed; a self-loop raises with a diagnostic naming the arc.
    commodities : sequence of hashable, or int
        Commodity identifiers, or a count k meaning ``range(k)``.

    ``every_arc`` is the read-only all-true arc mask, shared by every
    step that activates every arc.
    """

    def __init__(self, nodes, arcs, commodities=1):
        nodes = list(nodes)
        if len(set(nodes)) != len(nodes):
            raise ConfigurationError("duplicate node identifiers")
        if not nodes:
            raise ConfigurationError("node set must be nonempty")
        if isinstance(commodities, (int, np.integer)):
            commodities = list(range(int(commodities)))
        else:
            commodities = list(commodities)
        if len(set(commodities)) != len(commodities):
            raise ConfigurationError("duplicate commodity identifiers")
        if not commodities:
            raise ConfigurationError("commodity set must be nonempty")
        self.nodes = tuple(nodes)
        self.commodities = tuple(commodities)
        position = {v: i for i, v in enumerate(self.nodes)}

        tails, heads = [], []
        for j, pair in enumerate(arcs):
            tail, head = pair
            for endpoint in (tail, head):
                if endpoint not in position:
                    raise ConfigurationError(
                        f"arc {j}: endpoint {endpoint!r} is not a declared node"
                    )
            if tail == head:
                raise ConfigurationError(f"arc {j}: self-loop at node {tail!r}")
            tails.append(position[tail])
            heads.append(position[head])
        if not tails:
            raise ConfigurationError("arc set must be nonempty")
        self.tails = np.asarray(tails, dtype=np.intp)
        self.heads = np.asarray(heads, dtype=np.intp)
        self.tails.flags.writeable = False
        self.heads.flags.writeable = False
        self.arcs = tuple(
            (self.nodes[t], self.nodes[h]) for t, h in zip(tails, heads)
        )
        n_comm = len(self.commodities)
        self._flow_shape = (len(self.arcs), n_comm)
        self._potential_shape = (len(self.nodes), n_comm)
        self._potential_size = size = len(self.nodes) * n_comm
        # for one flow x and for a pair (x, q): the flat (flow, node,
        # commodity) slot of every entry of [x; -x] and of [x; q; -x; -q]
        ends = [(e[:, None] * n_comm + np.arange(n_comm)).ravel() for e in (self.tails, self.heads)]
        self._div_slots = {m: np.concatenate([e + i * size for e in ends for i in range(m)]) for m in (1, 2)}
        self.every_arc = np.ones(len(self.arcs), dtype=bool)
        self.every_arc.flags.writeable = False

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_arcs(self):
        return len(self.arcs)

    @property
    def n_commodities(self):
        return len(self.commodities)

    # ----- array factories and shape checks -------------------------------

    def zero_flow(self):
        return np.zeros((self.n_arcs, self.n_commodities))

    def zero_potential(self):
        return np.zeros((self.n_nodes, self.n_commodities))

    def check_flow(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != self._flow_shape:
            raise ConfigurationError(f"flow shape {x.shape} does not match {self._flow_shape}")
        return x

    def check_potential(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != self._potential_shape:
            raise ConfigurationError(f"potential shape {v.shape} does not match {self._potential_shape}")
        return v

    # ----- the linear maps -------------------------------------------------

    def divergence(self, x):
        """Per-node net outflow of the flow `x`, an (n_nodes, C) array.

        Accumulates outgoing flux then incoming flux, each in ascending
        arc order, so results are bitwise reproducible across runs.
        """
        return self._divergence(self.check_flow(x))[0]

    def tension(self, v):
        """Per-arc potential difference head minus tail, an (n_arcs, C) array."""
        return self._tension(self.check_potential(v))

    def _divergence(self, *flows):
        """The divergences of one or two float (n_arcs, C) flows, from one bincount.

        The solver passes its own arrays, which are not checked again.
        Each node accumulates its outgoing then its incoming flux in
        ascending arc order, whether a flow comes alone or paired, so each
        result is bitwise the same.
        """
        m = len(flows)
        weights = np.empty((2, m) + self._flow_shape)  # [flows; -flows]
        for i, flow in enumerate(flows):
            weights[0, i] = flow
        np.negative(weights[0], out=weights[1])
        out = np.bincount(self._div_slots[m], weights.ravel(), m * self._potential_size)
        return out.reshape((m,) + self._potential_shape)

    def _tension(self, v):
        """`tension` of a float (n_nodes, C) potential of the solver's own, unchecked."""
        return v.take(self.heads, 0) - v.take(self.tails, 0)

    def _component_roots(self):
        """Per node, the least node index in its weakly connected component.

        Each pass hooks the larger of the two labels an arc joins onto the
        smaller, then follows every label to its root; labels are always
        roots at the top of the loop, so it stops once no arc joins two.
        """
        label = np.arange(self.n_nodes)
        while True:
            lt, lh = label[self.tails], label[self.heads]
            if np.array_equal(lt, lh):
                return label
            np.minimum.at(label, np.maximum(lt, lh), np.minimum(lt, lh))
            up = label[label]
            while not np.array_equal(up, label):
                label, up = up, up[up]
