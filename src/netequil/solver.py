"""Block-iterative primal-dual splitting solver for network equilibrium.

The iterate is the triple (x, x*, v*): per-arc flows, per-arc duals, and
per-node potentials, each stored as an array with one row per entity and
one column per commodity.  One iteration

  1. activates a subset of arc blocks and node blocks chosen by the
     scheduler (iteration 0 always activates everything),
  2. evaluates the capacity, constraint-cone, and supply resolvents of
     the active blocks, caching their primal/dual outputs; inactive
     blocks keep the outputs from their last activation,
  3. assembles the step directions t* (arcs), u (arc duals), t (nodes)
     from the cached outputs and the current divergence/tension values,
  4. forms the coordination scalars tau (squared direction norm) and pi
     (separation value) and takes the relaxed projection step
     theta = relaxation * max(pi, 0) / tau.

tau = 0 only happens when the cached evaluation already certifies the
current point, so it triggers an immediate residual check.  The residual
itself re-evaluates every block at the current point (full activation)
and augments tau with the primal agreement terms |q - x| and
|s - div x|; it vanishes exactly at solutions and is what the stopping
rule monitors every ``check_interval`` iterations.  That full sweep is
also the evaluation the next iteration needs, at the same point, so
``run`` hands it to the next ``step``, which copies the active rows
instead of evaluating them again.

Each capacity kernel starts from the root its arc had at its previous
evaluation in the run (the workspace's ``root``), since the point moves
by one relaxed step per iteration; a fresh workspace starts cold.
Reductions for tau and pi always run in ascending arc-then-node order,
and each capacity resolvent depends only on its own arc's input and its
own previous root, never on which other arcs are evaluated with it, so
runs are bitwise reproducible under every scheduler.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigurationError, NumericalFailure

__all__ = [
    "Full",
    "RoundRobin",
    "RandomSweep",
    "SolverConfig",
    "SolverState",
    "IterationWorkspace",
    "TraceRecord",
    "Termination",
    "initial_state",
    "new_workspace",
    "make_scheduler",
    "step_parameters",
    "step",
    "residual",
    "run",
]


# --------------------------------------------------------------------------
# schedulers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Full:
    """Activate every arc and node block at every iteration."""


@dataclass(frozen=True)
class RoundRobin:
    """Cycle through fixed partitions of the arc and node index sets.

    Arc j belongs to arc group j % arc_groups; iteration n >= 1 activates
    group n % arc_groups (iteration 0 activates everything).  Group counts
    must not exceed the sweep bound T + 1, otherwise some window of T + 1
    iterations misses a group.
    """

    arc_groups: int
    node_groups: Optional[int] = None

    def __post_init__(self):
        for count in (self.arc_groups, self.node_groups):
            if count is not None and (not isinstance(count, int) or count < 1):
                raise ConfigurationError(
                    "round-robin group counts must be positive integers"
                )


@dataclass(frozen=True)
class RandomSweep:
    """Activate each block independently with fixed probability.

    Any block that has not been active during the last T iterations is
    force-included, which makes the sweep condition hold deterministically
    for every realization.  If a draw selects nothing, the least recently
    activated block is activated.
    """

    seed: int = 0
    activation_prob: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.activation_prob <= 1.0:
            raise ConfigurationError(
                "random-sweep activation probability must lie in [0, 1]"
            )


class _FullScheduler:
    def __init__(self, network, T):
        self._arcs = np.ones(network.n_arcs, dtype=bool)
        self._nodes = np.ones(network.n_nodes, dtype=bool)

    def select(self, n):
        return self._arcs.copy(), self._nodes.copy()


class _RoundRobinScheduler:
    def __init__(self, network, T, spec):
        arc_groups = spec.arc_groups
        node_groups = spec.node_groups if spec.node_groups is not None else spec.arc_groups
        for label, count, size in (
            ("arc", arc_groups, network.n_arcs),
            ("node", node_groups, network.n_nodes),
        ):
            if count > size:
                raise ConfigurationError(
                    f"round-robin {label} group count {count} exceeds the {size} available blocks"
                )
            if count > T + 1:
                raise ConfigurationError(
                    f"round-robin {label} group count {count} cannot satisfy the sweep bound T={T}: "
                    f"some window of {T + 1} iterations would miss a group"
                )
        self._arc_group = np.arange(network.n_arcs) % arc_groups
        self._node_group = np.arange(network.n_nodes) % node_groups
        self._arc_groups = arc_groups
        self._node_groups = node_groups

    def select(self, n):
        if n == 0:
            return (
                np.ones(self._arc_group.size, dtype=bool),
                np.ones(self._node_group.size, dtype=bool),
            )
        return (
            self._arc_group == n % self._arc_groups,
            self._node_group == n % self._node_groups,
        )


class _RandomSweepScheduler:
    def __init__(self, network, T, spec):
        self._rng = np.random.default_rng(spec.seed)
        self._prob = float(spec.activation_prob)
        self._T = T
        self._last_arc = np.zeros(network.n_arcs, dtype=np.int64)
        self._last_node = np.zeros(network.n_nodes, dtype=np.int64)
        self._expected_n = 0

    def _pick(self, n, last):
        active = self._rng.random(last.size) < self._prob
        active |= n - last >= self._T + 1
        if not active.any():
            active[np.argmin(last)] = True
        last[active] = n
        return active

    def select(self, n):
        if n != self._expected_n:
            raise ConfigurationError(
                f"random-sweep scheduler must be queried sequentially (expected n={self._expected_n})"
            )
        self._expected_n += 1
        if n == 0:
            return (
                np.ones(self._last_arc.size, dtype=bool),
                np.ones(self._last_node.size, dtype=bool),
            )
        return self._pick(n, self._last_arc), self._pick(n, self._last_node)


def make_scheduler(spec, network, T):
    """Instantiate the scheduler for one run, validating it against T."""
    if T < 0 or not isinstance(T, (int, np.integer)):
        raise ConfigurationError("sweep bound T must be a nonnegative integer")
    if isinstance(spec, Full):
        return _FullScheduler(network, T)
    if isinstance(spec, RoundRobin):
        return _RoundRobinScheduler(network, T, spec)
    if isinstance(spec, RandomSweep):
        return _RandomSweepScheduler(network, T, spec)
    raise ConfigurationError(f"unknown scheduler spec {spec!r}")


# --------------------------------------------------------------------------
# configuration, state, workspace
# --------------------------------------------------------------------------


@dataclass
class SolverConfig:
    """Step parameters, relaxation schedule, scheduling, and stopping rule.

    gamma/mu are per-arc and sigma per-node; scalars broadcast.  The
    relaxation is either a constant in ]0, 2[ or a triple
    (fn, inf, sup) with 0 < inf <= sup < 2 bounding the values of fn(n).
    """

    gamma: Union[float, np.ndarray] = 1.0
    mu: Union[float, np.ndarray] = 1.0
    sigma: Union[float, np.ndarray] = 1.0
    relaxation: Union[float, tuple] = 1.8
    T: int = 0
    scheduler: object = field(default_factory=Full)
    tol: float = 1e-6
    max_iter: int = 10**6
    check_interval: int = 10

    def __post_init__(self):
        if isinstance(self.relaxation, tuple):
            fn, lo, hi = self.relaxation
            if not callable(fn) or not 0.0 < lo <= hi < 2.0:
                raise ConfigurationError(
                    "relaxation schedule must be (fn, inf, sup) with 0 < inf <= sup < 2"
                )
        elif not 0.0 < float(self.relaxation) < 2.0:
            raise ConfigurationError("relaxation must lie strictly between 0 and 2")
        if not isinstance(self.T, (int, np.integer)) or self.T < 0:
            raise ConfigurationError("sweep bound T must be a nonnegative integer")
        if not self.tol > 0:
            raise ConfigurationError("tol must be positive")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 0:
            raise ConfigurationError("max_iter must be a nonnegative integer")
        if not isinstance(self.check_interval, (int, np.integer)) or self.check_interval < 1:
            raise ConfigurationError("check_interval must be a positive integer")

    def relaxation_at(self, n):
        if isinstance(self.relaxation, tuple):
            fn, lo, hi = self.relaxation
            lam = float(fn(n))
            if not lo <= lam <= hi:
                raise ConfigurationError(
                    f"relaxation schedule produced {lam} outside its stated bounds [{lo}, {hi}]"
                )
            return lam
        return float(self.relaxation)


def _positive_per_entity(value, size, name, entities):
    arr = np.asarray(value, dtype=float)
    try:
        arr = np.broadcast_to(arr, (size,)).copy()
    except ValueError:
        raise ConfigurationError(f"{name} has {arr.size} entries for {size} {entities}") from None
    if not np.all(np.isfinite(arr)) or not np.all(arr > 0):
        raise ConfigurationError(f"{name} must be strictly positive")
    return arr


def step_parameters(net, cfg):
    """Validated per-entity (gamma, mu, sigma) arrays of cfg on net.

    `run` computes them once and hands them to every `step` and
    `residual`; direct calls that omit them validate cfg themselves.
    """
    return (
        _positive_per_entity(cfg.gamma, net.n_arcs, "gamma", "arcs"),
        _positive_per_entity(cfg.mu, net.n_arcs, "mu", "arcs"),
        _positive_per_entity(cfg.sigma, net.n_nodes, "sigma", "nodes"),
    )


@dataclass
class SolverState:
    """Current iterate (x, x*, v*) plus the iteration counter."""

    x: np.ndarray
    xstar: np.ndarray
    v: np.ndarray
    n: int = 0

    def copy(self):
        return SolverState(self.x.copy(), self.xstar.copy(), self.v.copy(), self.n)


def initial_state(network, x=None, xstar=None, v=None):
    """All-zero starting point unless components are given."""
    return SolverState(
        network.check_flow(x) if x is not None else network.zero_flow(),
        network.check_flow(xstar) if xstar is not None else network.zero_arc_dual(),
        network.check_potential(v) if v is not None else network.zero_potential(),
    )


@dataclass
class IterationWorkspace:
    """Cached block outputs, kernel roots and the latest coordination scalars.

    Rows of inactive blocks keep the values from their last activation;
    iteration 0 activates everything, so nothing is read uninitialized.
    `root` holds, per arc, the root its capacity kernel returned at its
    last evaluation into this workspace (nan before the first), which the
    next evaluation starts from: an arc's result depends on its own input
    and its own previous root, never on which other arcs share its batch.
    """

    q: np.ndarray
    qstar: np.ndarray
    r: np.ndarray
    rstar: np.ndarray
    s: np.ndarray
    sstar: np.ndarray
    t_node: np.ndarray
    tstar: np.ndarray
    u: np.ndarray
    root: np.ndarray
    tau: float = 0.0
    pi: float = 0.0
    theta: float = 0.0


def new_workspace(network):
    a = network.zero_flow
    n = network.zero_potential
    root = np.full(network.n_arcs, np.nan)
    return IterationWorkspace(a(), a(), a(), a(), n(), n(), n(), a(), a(), root)


@dataclass
class TraceRecord:
    """Per-iteration diagnostics; residual is None when not evaluated."""

    n: int
    tau: float
    pi: float
    theta: float
    relaxation: float
    active_arcs: int
    active_nodes: int
    residual: Optional[float] = None
    millis: float = 0.0


class Termination(enum.Enum):
    CONVERGED = "converged"
    ITER_LIMIT = "iteration_limit"
    NUMERICAL_FAILURE = "numerical_failure"


# --------------------------------------------------------------------------
# one iteration
# --------------------------------------------------------------------------


def _active(mask):
    """Indices of the set entries of `mask`, and the matching row selector:
    slice(None) when every entry is set, so that gathers become views."""
    idx = np.flatnonzero(mask)
    return idx, (slice(None) if idx.size == mask.size else idx)


def _sweep_blocks(net, ops, params, state, ws, arc_mask, node_mask):
    """Evaluate the resolvents of the active blocks into the rows of ws.

    Fills q, q*, r, r* and the kernel roots for the active arcs and s, s*
    for the active nodes; returns div x.
    """
    gammas, mus, sigmas = params
    x, xstar, v = state.x, state.xstar, state.v
    act, rows = _active(arc_mask)
    xa, xsa, gam = x[rows], xstar[rows], gammas[rows]
    lstar = xsa - net.tension(v)[rows]
    root = ws.root[rows]
    q = ops.capacity_resolvent(act, gam, xa - gam[:, None] * lstar, root)
    ws.root[rows] = root
    ws.q[rows] = q
    ws.qstar[rows] = (xa - q) / gam[:, None] - lstar
    mu = mus[rows, None]
    r = np.minimum(np.maximum(xa + mu * xsa, ops.box_lo[rows]), ops.box_hi[rows])
    ws.r[rows] = r
    ws.rstar[rows] = xsa + (xa - r) / mu

    div_x = net.divergence(x)
    _, nrows = _active(node_mask)
    supply = ops.supplies[nrows]
    ws.s[nrows] = supply
    ws.sstar[nrows] = v[nrows] + (div_x[nrows] - supply) / sigmas[nrows, None]
    return div_x


def _assemble(net, state, ws):
    """Directions t, t*, u from the cached block outputs; returns (tau, pi).

    t is refreshed for every node and t*/u for every arc, active or not.
    """
    np.subtract(ws.s, net.divergence(ws.q), out=ws.t_node)
    np.add(ws.qstar, ws.rstar, out=ws.tstar)
    ws.tstar -= net.tension(ws.sstar)
    np.subtract(ws.r, ws.q, out=ws.u)
    # fixed reduction order: arc terms first, then node terms
    tau = float((ws.tstar * ws.tstar).sum() + (ws.u * ws.u).sum() + (ws.t_node * ws.t_node).sum())
    pi = float(
        (state.x * ws.tstar).sum()
        - (ws.q * ws.qstar).sum()
        + (ws.u * state.xstar).sum()
        - (ws.r * ws.rstar).sum()
        + (ws.t_node * state.v).sum()
        - (ws.s * ws.sstar).sum()
    )
    return tau, pi


def _reuse_sweep(sweep, ws, arc_mask, node_mask):
    """Copy the active rows of the block outputs in `sweep` into ws."""
    _, rows = _active(arc_mask)
    for name in ("q", "qstar", "r", "rstar", "root"):
        getattr(ws, name)[rows] = getattr(sweep, name)[rows]
    _, nrows = _active(node_mask)
    ws.s[nrows] = sweep.s[nrows]
    ws.sstar[nrows] = sweep.sstar[nrows]


def step(net, ops, cfg, state, ws, active_arcs=None, active_nodes=None, params=None, sweep=None):
    """Execute one iteration in place; returns the TraceRecord.

    `active_arcs`/`active_nodes` are boolean masks; omitting them
    activates everything.  The workspace caches must be valid for the
    inactive blocks (iteration 0 must activate all blocks).  `params` is
    the output of `step_parameters(net, cfg)`, computed here if omitted.
    `sweep` is a workspace that `residual` filled at the current state:
    the active rows are copied from it instead of evaluated again, which
    gives the same bits.
    """
    t0 = time.perf_counter()
    if params is None:
        params = step_parameters(net, cfg)
    if active_arcs is None:
        active_arcs = np.ones(net.n_arcs, dtype=bool)
    if active_nodes is None:
        active_nodes = np.ones(net.n_nodes, dtype=bool)
    if not active_arcs.any() or not active_nodes.any():
        raise ConfigurationError("activation sets must be nonempty")

    with np.errstate(over="ignore", invalid="ignore"):
        # non-finite values are caught below and reported as NumericalFailure
        if sweep is None:
            _sweep_blocks(net, ops, params, state, ws, active_arcs, active_nodes)
        else:
            _reuse_sweep(sweep, ws, active_arcs, active_nodes)
        tau, pi = _assemble(net, state, ws)
    if not np.isfinite(tau) or not np.isfinite(pi):
        raise NumericalFailure("non-finite coordination scalars", iteration=state.n)

    lam = cfg.relaxation_at(state.n)
    theta = lam * max(pi, 0.0) / tau if tau > 0.0 else 0.0
    if theta != 0.0:
        state.x -= theta * ws.tstar
        state.xstar -= theta * ws.u
        state.v -= theta * ws.t_node
        if not (
            np.isfinite(state.x).all()
            and np.isfinite(state.xstar).all()
            and np.isfinite(state.v).all()
        ):
            raise NumericalFailure("non-finite iterate after update", iteration=state.n)

    ws.tau, ws.pi, ws.theta = tau, pi, theta
    record = TraceRecord(
        n=state.n,
        tau=tau,
        pi=pi,
        theta=theta,
        relaxation=lam,
        active_arcs=int(np.count_nonzero(active_arcs)),
        active_nodes=int(np.count_nonzero(active_nodes)),
        millis=(time.perf_counter() - t0) * 1e3,
    )
    state.n += 1
    return record


def residual(net, ops, cfg, state, params=None, sweep=None):
    """Optimality residual at the current point, from a full re-evaluation.

    The square root of tau (with every block active) augmented with the
    primal agreement terms |q - x|^2 and |s - div x|^2; zero exactly at
    solutions of the underlying inclusion for the given step parameters.
    `params` is as for `step`.  The full sweep is written into the
    workspace `sweep` when one is given (it must not be the workspace of
    the iteration), so that the next `step` can take it as its `sweep`;
    the capacity kernels start from its `root`.  Without `sweep` they
    start cold.
    """
    if params is None:
        params = step_parameters(net, cfg)
    ws = sweep if sweep is not None else new_workspace(net)
    everything = np.ones(net.n_arcs, dtype=bool), np.ones(net.n_nodes, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        div_x = _sweep_blocks(net, ops, params, state, ws, *everything)
        tau, _ = _assemble(net, state, ws)
    gap = float(np.sum((ws.q - state.x) ** 2) + np.sum((ws.s - div_x) ** 2))
    return float(np.sqrt(tau + gap))


# --------------------------------------------------------------------------
# the driver
# --------------------------------------------------------------------------


def run(net, ops, cfg=None, state=None, trace_callback: Optional[Callable] = None):
    """Iterate until the residual drops below tol or max_iter is reached.

    Returns (state, trace, termination).  The flow/potential pair in the
    final state is the approximate equilibrium; the arc duals are the
    auxiliary constraint multipliers.  The residual is evaluated every
    ``check_interval`` iterations and immediately whenever tau = 0.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    state = state if state is not None else initial_state(net)
    scheduler = make_scheduler(cfg.scheduler, net, cfg.T)
    params = step_parameters(net, cfg)
    ws = new_workspace(net)
    # a residual sweep evaluates every block at the point the next step
    # starts from; that step copies its active rows from it
    sweep_ws, sweep = new_workspace(net), None
    trace = []
    reason = Termination.ITER_LIMIT
    for k in range(cfg.max_iter):
        arc_mask, node_mask = scheduler.select(state.n)
        try:
            record = step(net, ops, cfg, state, ws, arc_mask, node_mask, params, sweep)
            sweep = None
            if ws.tau == 0.0 or (k + 1) % cfg.check_interval == 0:
                sweep_ws.root[:] = ws.root  # its kernels start from the iteration's roots
                record.residual = residual(net, ops, cfg, state, params, sweep_ws)
                sweep = sweep_ws
        except NumericalFailure:
            reason = Termination.NUMERICAL_FAILURE
            break
        trace.append(record)
        if trace_callback is not None:
            trace_callback(record)
        if record.residual is not None and record.residual <= cfg.tol:
            reason = Termination.CONVERGED
            break
    return state, trace, reason
