"""Independent reference solutions and equilibrium checks at desk scale.

Nothing here calls into the resolvent machinery: costs are evaluated
straight from their defining formulas (the specs' ``value``/``subdiff``,
which no kernel calls), reference flows come from a closed form or from
Frank-Wolfe with label-correcting shortest paths, and the equilibrium
residual measures the defining inclusions exactly, with one slack rule
at box and ``IntervalProx`` bounds and at the ``Logarithmic`` pole.  The
only other shared code is the network data type, so agreement with the
splitting solver is a genuine cross-check.

``wardrop_residual`` checks every commodity of every arc: each
commodity's tension against the cost of the arc's total flux plus the
normal cone of that commodity's interval of the box.  Only the reference
solutions, Frank-Wolfe and the two-arc instance, are single-commodity.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InfeasibilityError
from .network import Network
from .operators import BPR, ArcOperator, Box, FixedSupply, IntervalProx, Logarithmic, OperatorSet, SeparableLift

__all__ = [
    "TwoArcInstance",
    "analytic_two_arc",
    "frank_wolfe_reference",
    "wardrop_residual",
]


@dataclass(frozen=True)
class TwoArcInstance:
    """Two parallel arcs a -> b, one commodity, affine costs a_j + b_j * flux.

    Demand d > 0 leaves node a and enters node b; flows are confined to
    the nonnegative orthant.
    """

    a1: float
    a2: float
    b1: float
    b2: float
    demand: float

    def __post_init__(self):
        if not (self.a1 >= 0 and self.a2 >= 0):
            raise ConfigurationError("two-arc instance requires nonnegative intercepts")
        if not (self.b1 > 0 and self.b2 > 0):
            raise ConfigurationError("two-arc instance requires positive slopes")
        if not self.demand > 0:
            raise ConfigurationError("two-arc instance requires positive demand")

    def cost(self, arc, flux):
        a, b = (self.a1, self.b1) if arc == 0 else (self.a2, self.b2)
        return a + b * max(flux, 0.0)

    def network(self):
        return Network(["a", "b"], [("a", "b"), ("a", "b")], 1)

    def operator_set(self, network=None):
        """Solver-side realization: affine costs as degree-1 BPR specs.

        Needs strictly positive intercepts, since the congestion family
        requires a positive free-flow cost.
        """
        if self.a1 <= 0 or self.a2 <= 0:
            raise ConfigurationError(
                "the congestion-cost realization needs strictly positive intercepts"
            )
        net = network if network is not None else self.network()
        orthant = Box.orthant(1)
        arc_ops = [
            ArcOperator(SeparableLift(BPR(alpha=b / a, rho=1.0, theta=a, p=1.0)), orthant)
            for a, b in ((self.a1, self.b1), (self.a2, self.b2))
        ]
        node_ops = [FixedSupply((self.demand,)), FixedSupply((-self.demand,))]
        return OperatorSet(net, arc_ops, node_ops)


def analytic_two_arc(inst):
    """Closed-form equilibrium of a TwoArcInstance.

    Returns (flow, common_cost, potential_gap): the unique nonnegative
    flows summing to the demand that equalize the two arc costs, that
    common cost, and the head-minus-tail potential difference (equal to
    the cost, since the constraint cone contributes nothing on used
    arcs).  An arc is priced out, and the corner solution returned, when
    its cost at zero flow is at least the other arc's cost at full demand:
    the corner is chosen by the complementarity comparisons themselves,
    so it satisfies them even at a near tie.
    """
    d = inst.demand
    if inst.cost(0, 0.0) >= inst.cost(1, d):
        lam = inst.cost(1, d)
        flow = np.array([0.0, d])
    elif inst.cost(1, 0.0) >= inst.cost(0, d):
        lam = inst.cost(0, d)
        flow = np.array([d, 0.0])
    else:
        # both arcs are used; rounding near a tie may push x1 just outside [0, d]
        x1 = min(max((inst.a2 - inst.a1 + inst.b2 * d) / (inst.b1 + inst.b2), 0.0), d)
        lam = inst.cost(0, x1)
        flow = np.array([x1, d - x1])
    return flow, lam, lam


# --------------------------------------------------------------------------
# Frank-Wolfe reference for the traffic-assignment specialization
# --------------------------------------------------------------------------


def _shortest_path_arcs(net, costs, origin, destination):
    """Label-correcting search; returns the arc indices of a cheapest path."""
    dist = np.full(net.n_nodes, np.inf)
    pred = np.full(net.n_nodes, -1, dtype=np.intp)
    dist[origin] = 0.0
    for _ in range(net.n_nodes):
        changed = False
        for j in range(net.n_arcs):  # ascending arc order keeps ties deterministic
            t, h = net.tails[j], net.heads[j]
            cand = dist[t] + costs[j]
            if cand < dist[h]:
                dist[h] = cand
                pred[h] = j
                changed = True
        if not changed:
            break
    if not np.isfinite(dist[destination]):
        raise InfeasibilityError(
            f"no path from {net.nodes[origin]!r} to {net.nodes[destination]!r}"
        )
    path = []
    node = destination
    while node != origin:
        j = pred[node]
        path.append(j)
        node = net.tails[j]
    return path[::-1]


def frank_wolfe_reference(net, bpr_specs, supplies, iterations=10_000):
    """Approximate Wardrop equilibrium flow by Frank-Wolfe iteration.

    Repeats all-or-nothing assignment on shortest paths under the current
    costs with step 2/(k+2).  Single commodity, one origin (positive
    supply) and one destination (negative supply); accuracy is roughly
    1e-4 in flow after <= 1e4 iterations on desk-scale networks.  Returns
    an (n_arcs, 1) flow array.
    """
    supplies = np.asarray(supplies, dtype=float).reshape(net.n_nodes, -1)
    if supplies.shape[1] != 1:
        raise ConfigurationError("the Frank-Wolfe oracle is single-commodity")
    supplies = supplies[:, 0]
    positive = np.flatnonzero(supplies > 0)
    negative = np.flatnonzero(supplies < 0)
    if len(positive) != 1 or len(negative) != 1 or abs(supplies.sum()) > 1e-9:
        raise ConfigurationError(
            "supplies must name exactly one origin and one destination, and balance"
        )
    origin, destination = int(positive[0]), int(negative[0])
    demand = supplies[origin]
    if len(bpr_specs) != net.n_arcs:
        raise ConfigurationError("one congestion spec per arc is required")

    x = np.zeros(net.n_arcs)
    for k in range(iterations):
        costs = np.array([spec.value(flux) for spec, flux in zip(bpr_specs, x)])
        target = np.zeros(net.n_arcs)
        for j in _shortest_path_arcs(net, costs, origin, destination):
            target[j] += demand
        x += (2.0 / (k + 2.0)) * (target - x)
    return x.reshape(-1, 1)


# --------------------------------------------------------------------------
# Wardrop residual
# --------------------------------------------------------------------------


BOUNDARY_TOL = 1e-7


def _slack(bound):
    # points within this of a finite bound sit on it
    return BOUNDARY_TOL * (1.0 + np.abs(np.where(np.isfinite(bound), bound, 0.0)))


def _pairs(rows):
    # an (n, 2) array from n pairs; several times faster than np.array(rows)
    return np.fromiter(itertools.chain.from_iterable(rows), float, 2 * len(rows)).reshape(-1, 2)


def _arc_violations(h, at_lo, at_hi, sub):
    """Per-arc distance from the tension h to {y*ones + N(x) : y in sub}.

    f(y) = dist(h - y*ones, N(x))**2 is a sum of squares and squared hinges:
    convex, continuously differentiable, and quadratic on each piece between
    consecutive entries of h.  On the piece just above an entry (or below
    them all), the coordinates in play are those strictly inside the box,
    those at the lower bound whose entry lies above the piece and those at
    the upper bound whose entry does not; the piece's stationary point is
    their mean.
    Some such mean minimises f: a piece with none in play (mean taken as 0)
    has f = 0 and borders one whose mean is their shared end, or f is 0
    everywhere.  So f is minimised over sub[j] at the clip of one of them.
    """
    # arcs on the last axis, where numpy's inner loops are long
    h, at_lo, at_hi = (np.ascontiguousarray(a.T) for a in (h, at_lo, at_hi))
    above = h > np.concatenate([h, np.full((1, h.shape[1]), -np.inf)])[:, None, :]
    inside = np.where(above, ~at_hi, ~at_lo)
    mean = (inside * h).sum(axis=1) / np.maximum(inside.sum(axis=1), 1)
    g = h - np.clip(mean, sub[:, 0], sub[:, 1])[:, None, :]
    # the normal cone absorbs g > 0 at an upper bound and g <= 0 at a lower one
    d = np.where(np.where(g > 0.0, at_hi, at_lo), 0.0, g)
    return np.sqrt((d * d).sum(axis=1).min(axis=0))


def wardrop_residual(net, ops, flow, potential):
    """Worst violation of the equilibrium inclusions at (flow, potential).

    For each arc: the distance, minimised exactly, from the tension to the
    set of cost values plus normal-cone elements of the constraint box at
    the flow.  A flow within the constant ``BOUNDARY_TOL`` = 1e-7 (times
    1 + |bound|) of a box bound sits on it; a total flux that close to an
    ``IntervalProx`` bound is evaluated at the bound, where the
    subdifferential holds the normal cone.  A total that close to a
    ``Logarithmic`` pole omega, on either side, sits at the pole, where
    the costs are [value(omega - slack), +inf): the cost of every total
    within the slack below the pole, and beyond.  For each node: the norm
    of divergence minus supply.  Zero exactly at equilibria; +inf with a
    diagnostic warning when a flow or potential entry is not finite, or
    the flow leaves the domain of a capacity operator or of its
    constraint set.
    """
    flow, potential = net.check_flow(flow), net.check_potential(potential)
    for kind, name, values in (("arc", "flow", flow), ("node", "potential", potential)):
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        if bad.size:
            warnings.warn(f"{kind} {bad[0]}: {name} {values[bad[0]].tolist()} is not finite", stacklevel=2)
            return math.inf
    tension = net.tension(potential)
    specs = [op.q.scalar for op in ops.arc_operators]
    free = (-math.inf, math.inf)
    total = flow.sum(axis=1)
    for end in _pairs([(s.lo, s.hi) if isinstance(s, IntervalProx) else free for s in specs]).T:
        total = np.where(np.abs(total - end) <= _slack(end), end, total)
    pole = np.array([s.omega if isinstance(s, Logarithmic) else math.inf for s in specs])
    slack = _slack(pole)
    at_pole = (np.abs(total - pole) <= slack).tolist()
    subs = [
        (spec.value(edge), math.inf) if at else spec.subdiff(t)
        for spec, t, at, edge in zip(specs, total.tolist(), at_pole, (pole - slack).tolist())
    ]
    if None in subs:
        j = subs.index(None)
        msg = f"arc {j}: flow total {total[j]} is outside the capacity operator's domain"
        warnings.warn(msg, stacklevel=2)
        return math.inf
    lo, hi = ops.box_lo, ops.box_hi
    slack_lo, slack_hi = _slack(lo), _slack(hi)
    outside = ((flow < lo - slack_lo) | (flow > hi + slack_hi)).any(axis=1)
    if outside.any():
        warnings.warn(f"arc {outside.argmax()}: flow leaves its constraint box", stacklevel=2)
        return math.inf
    arcs = _arc_violations(tension, flow <= lo + slack_lo, flow >= hi - slack_hi, _pairs(subs))
    nodes = np.linalg.norm(net.divergence(flow) - ops.supplies, axis=1)
    return float(np.concatenate([arcs, nodes]).max(initial=0.0))
