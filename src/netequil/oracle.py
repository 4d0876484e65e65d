"""Independent reference solutions and equilibrium checks at desk scale.

Nothing here calls into the resolvent machinery: costs are evaluated
straight from their defining formulas, reference flows come from a closed
form or from Frank-Wolfe with label-correcting shortest paths, and the
equilibrium residual measures the defining inclusions directly.  The only
shared code is the network data type, so agreement with the splitting
solver is a genuine cross-check.

All oracles are single-commodity; multicommodity validation leans on the
separable-lift structure (costs depend on total flux, so commodity totals
behave like a single-commodity problem).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InfeasibilityError
from .network import Network
from .operators import BPR, ArcOperator, Box, FixedSupply, OperatorSet, SeparableLift

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
    the nonnegative orthant.  ``interior`` records whether both arcs
    carry flow at equilibrium, which holds iff each arc's free-flow cost
    undercuts the other arc's cost at full demand.
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

    @property
    def interior(self):
        return (
            self.a1 - self.a2 < self.b2 * self.demand
            and self.a2 - self.a1 < self.b1 * self.demand
        )

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


def _bpr_cost(spec, flux):
    # evaluated locally: the oracle must not share the solver's code paths
    if flux < 0.0:
        return spec.theta
    return spec.theta * (1.0 + spec.alpha * (flux / spec.rho) ** spec.p)


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
        costs = np.array([_bpr_cost(spec, flux) for spec, flux in zip(bpr_specs, x)])
        target = np.zeros(net.n_arcs)
        for j in _shortest_path_arcs(net, costs, origin, destination):
            target[j] += demand
        x += (2.0 / (k + 2.0)) * (target - x)
    return x.reshape(-1, 1)


# --------------------------------------------------------------------------
# Wardrop residual
# --------------------------------------------------------------------------


def _cone_distance(g, kind):
    # kind: 0 interior {0}, -1 at lower bound ]-inf,0], +1 at upper bound [0,inf[, 2 free
    if kind == 0:
        return abs(g)
    if kind == -1:
        return max(g, 0.0)
    if kind == 1:
        return max(-g, 0.0)
    return 0.0


def _arc_violation(h, kinds, c_lo, c_hi):
    """Distance from the tension h to {y*ones + normal cone : y in [c_lo, c_hi]}."""

    def objective(y):
        return math.fsum(_cone_distance(g - y, kind) ** 2 for g, kind in zip(h, kinds))

    if c_lo == c_hi:
        return math.sqrt(objective(c_lo))
    # the unconstrained minimizer lies among the tension values; clip the
    # possibly unbounded subdifferential interval around them
    lo = min(max(c_lo, min(h) - 1.0), c_hi)
    hi = max(min(c_hi, max(h) + 1.0), c_lo)
    for _ in range(200):  # ternary search on a convex objective
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if objective(m1) <= objective(m2):
            hi = m2
        else:
            lo = m1
    return math.sqrt(objective(0.5 * (lo + hi)))


def wardrop_residual(net, ops, flow, potential, boundary_tol=1e-7):
    """Worst violation of the equilibrium inclusions at (flow, potential).

    For each arc: the distance from the tension to the set of cost values
    plus normal-cone elements of the constraint box at the flow (points
    within ``boundary_tol`` of a bound count as sitting on it).  For each
    node: the norm of divergence minus supply.  Zero exactly at
    equilibria; +inf with a diagnostic warning when the flow leaves the
    domain of a capacity operator or of its constraint set.
    """
    flow = net.check_flow(flow)
    tension = net.tension(net.check_potential(potential))
    worst = 0.0
    for j, op in enumerate(ops.arc_operators):
        total = float(np.sum(flow[j]))
        sub = op.q.scalar.subdiff(total)
        if sub is None:
            warnings.warn(
                f"arc {j}: flow total {total} is outside the capacity operator's domain",
                stacklevel=2,
            )
            return math.inf
        lo, hi = np.asarray(op.r.lo), np.asarray(op.r.hi)
        slack_lo = boundary_tol * (1.0 + np.abs(np.where(np.isfinite(lo), lo, 0.0)))
        slack_hi = boundary_tol * (1.0 + np.abs(np.where(np.isfinite(hi), hi, 0.0)))
        if np.any(flow[j] < lo - slack_lo) or np.any(flow[j] > hi + slack_hi):
            warnings.warn(f"arc {j}: flow leaves its constraint box", stacklevel=2)
            return math.inf
        kinds = []
        for xk, lo_k, hi_k, sl, sh in zip(flow[j], lo, hi, slack_lo, slack_hi):
            at_lo = xk <= lo_k + sl
            at_hi = xk >= hi_k - sh
            kinds.append(2 if (at_lo and at_hi) else -1 if at_lo else 1 if at_hi else 0)
        worst = max(worst, _arc_violation(tension[j], kinds, sub[0], sub[1]))
    mismatch = net.divergence(flow) - ops.supplies
    worst = max(worst, float(np.max(np.sqrt(np.sum(mismatch * mismatch, axis=1)))))
    return worst
