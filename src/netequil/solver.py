"""Block-iterative projective splitting solver for network equilibrium.

Each arc is one block, its flow-tension relation: the cost on the arc's
total flux plus the normal cone of its commodity box, a maximal monotone
operator A_j that the convergence theorem of Combettes & Eckstein (Math.
Program. 168, 2018) takes as one block.  Flow conservation, div x = b
for the supplies b, is one more block: the normal cone of
V = {x : div x = b}, whose resolvent is the projection onto V.  This is
the split 0 in A(x) + N_V(x) over flows, and the iterate is (z, w), both
with one row per arc and one column per commodity.  One iteration

  1. activates the arc blocks chosen by the scheduler (iteration 0
     always activates every arc),
  2. evaluates the resolvents of the active arcs
     (``OperatorSet.capacity_resolvent``),
       x1 = J_{gamma A}(z + gamma w),  y1 = (z + gamma w - x1) / gamma,
     caching the pair per arc: inactive arcs keep the (x1, y1) of their
     last activation,
  3. evaluates the conservation block after the arcs, at the cached
     output of every arc, as the sequential order of Eckstein & Svaiter
     (Math. Program. 111, 2008) allows,
       t = x1 - gamma w,  u = F (div t - b),
       x2 = t + tension u,  y2 = -tension(u) / gamma,
  4. forms the coordination scalars
       pi = <z - x1, y1 - w> + <z - x2, y2 + w>,
       tau = |y1 + y2|^2 + |x1 - x2|^2,
     and takes the relaxed projection step
       z -= theta (y1 + y2),  w -= theta (x1 - x2),
       theta = RELAXATION * max(pi, 0) / tau.

x2 is the projection of t onto V, so it lies in V to rounding, and
y2 + w = (x1 - x2) / gamma.  With e = z - x1, a = y1 - w and
d = x1 - x2, pi is formed as <e, a> + (<e, d> + |d|^2) / gamma, the
separator itself: an arc evaluated at the current point has
e = gamma a, but a stale one has not.  F is inv(L + P), where L = K K^T
is the graph Laplacian of the incidence map K (the divergence) and P
averages over each weakly connected component, so F is the
pseudo-inverse of L on every balanced right-hand side.  It is dense,
n^2 floats for n nodes, built with LAPACK once per run (about 0.5 ms at
100 nodes and 0.1 s at 900), never with a `Network` or an
`OperatorSet`.  The flow a run reports is x1 and the potentials u /
gamma, both from the latest evaluation.

Every (x1_j, y1_j), stale or fresh, lies in the graph of its arc's
A_j, and (x2, y2) in that of N_V, so each step is a relaxed projection
onto a half-space that holds every solution pair, and (z, w) is Fejer
monotone under every scheduler.  Under `Full` every arc output is
fresh, the order whose convergence Eckstein & Svaiter prove.  No
theorem is cited for partial activation: the block-iterative theorem of
Combettes & Eckstein, and the block-iterative and asynchronous ones of
Eckstein (J. Optim. Theory Appl. 173, 2017), evaluate each block at an
iterate of its own, possibly a delayed one, while here the conservation
block reads arc outputs of earlier iterates beside the current w.
Measured instead: on the 150 span-3 problems of
``tools/fuzz_problems.py`` this order converges on as many
`RoundRobin(2)` and `RandomSweep` seeds (45 each) as the per-node supply
blocks it replaced, in 13.5% fewer iterations on the 88 seeds that
converge both ways, and on the benchmark's `mixed_sweep` instances of
seeds 1-3 in 240-310 iterations where node blocks took 360-410.  A run reports
`CONVERGED` only after `oracle.wardrop_residual` certifies its point.

Two constants of the method are not settings.  The relaxation
``RELAXATION`` = 1.8 lies in the interval ]0, 2[ that the convergence
theorem of Combettes & Eckstein allows for a fixed relaxation.  Every
``CHECK_INTERVAL`` = 10 iterations the step activates every arc, whatever
the scheduler chose, so that its evaluation prices the residual check.
The step parameter gamma is 1 on every block; see `step_parameters`.

The residual at a point is sqrt(tau) of an evaluation there with every
arc active, augmented with the conservation block's primal agreement
term |div x1 - b|; it vanishes exactly at solutions and is never below
sqrt(tau).  Each iteration of ``run`` evaluates once, at the point its
step starts from, into the run's one workspace, and the residual check
reads that evaluation where it covers every arc, at the cost of the
agreement sum alone.  The check runs every ``CHECK_INTERVAL`` iterations
and after a step with tau = 0, which happens only when the cached
evaluation already certifies the point; there the next step activates
every arc.  Under `Full`, whose every evaluation covers every arc, it
also runs wherever sqrt(tau) <= tol, so a run stops at the first
certified iterate, not at the next multiple of ``CHECK_INTERVAL``.  In the
metric of the step parameters, not of costs, the residual only gates the
stop: ``run`` stops once the equilibrium residual that ``netequil check``
recomputes is at most tol too.  The sweep condition only asks that each
block be activated at least once in every T + 1 iterations, so activating
more blocks than the scheduler chose keeps it; the scheduler is still
queried at every iteration below max_iter.  Only the arcs are rationed:
the conservation block reads every arc's output at every iteration.

The step parameters are fixed for a run, so ``run`` prepares the
capacity kernels' constants for them once (``OperatorSet.bind``) and
each evaluation only solves.
Each arc's resolvent starts from its arc's previous evaluation in the
run, since the point moves by one relaxed step per iteration: its kernel
from the root it returned then (the workspace's ``root``), and its guess
of which commodities sit on their bounds from the output q it gave then;
a fresh workspace starts cold.  Each arc's resolvent depends only on its
own input, its own previous root and its own previous output, never on
which other arcs are evaluated with it, so runs are bitwise reproducible
under every scheduler.  F comes from LAPACK, and its product with
div t - b and the dot products of tau and pi from BLAS, so the last bits
of a run can change with the BLAS build and its thread count.
"""

from __future__ import annotations

import copy
import enum
import functools
import math
import numbers
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional

import numpy as np

from . import oracle
from .errors import ConfigurationError, NumericalFailure
from .operators import _component_roots

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
    "sweep_bound",
    "make_scheduler",
    "step_parameters",
    "step",
    "residual",
    "run",
]

RELAXATION = 1.8
CHECK_INTERVAL = 10


# --------------------------------------------------------------------------
# schedulers
# --------------------------------------------------------------------------


def _is_int(value):
    """True for Python and numpy integers, False for bools."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_))


def _is_real(value):
    """True for real numbers, False for bools."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_positive_real(value):
    """True for finite positive real numbers, False for bools."""
    return _is_real(value) and math.isfinite(value) and value > 0


@dataclass(frozen=True)
class RoundRobin:
    """Cycle through a fixed partition of the arc index set.

    Arc j belongs to group j % arc_groups; iteration n >= 1 activates
    group n % arc_groups (iteration 0 activates everything).  The group
    count must not exceed the sweep bound T + 1, otherwise some window of
    T + 1 iterations misses a group.
    """

    arc_groups: int

    def __post_init__(self):
        if not _is_int(self.arc_groups) or self.arc_groups < 1:
            raise ConfigurationError("round-robin group count must be a positive integer")


@dataclass(frozen=True)
class Full(RoundRobin):
    """Activate every arc block at every iteration: the one-group `RoundRobin`."""

    arc_groups: int = field(default=1, init=False, repr=False)


@dataclass(frozen=True)
class RandomSweep:
    """Activate each arc block independently with fixed probability.

    Any arc that has not been active during the last T iterations is
    force-included, which makes the sweep condition hold deterministically
    for every realization.  If a draw selects nothing, the least recently
    activated arc is activated.
    """

    seed: int = 0
    activation_prob: float = 0.5

    def __post_init__(self):
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigurationError("random-sweep seed must be a nonnegative integer")
        if not (_is_real(self.activation_prob) and 0.0 <= self.activation_prob <= 1.0):
            raise ConfigurationError("random-sweep activation probability must lie in [0, 1]")


class _RoundRobinScheduler:
    def __init__(self, network, T, groups):
        if groups > network.n_arcs:
            raise ConfigurationError(
                f"round-robin group count {groups} exceeds the {network.n_arcs} available blocks"
            )
        if groups > T + 1:
            raise ConfigurationError(
                f"round-robin group count {groups} cannot satisfy the sweep bound T={T}: "
                f"some window of {T + 1} iterations would miss a group"
            )
        self._group = np.arange(network.n_arcs) % groups
        self._groups = groups
        self._every = network.every_arc

    def select(self, n):
        if n == 0 or self._groups == 1:
            return self._every
        return self._group == n % self._groups


class _RandomSweepScheduler:
    def __init__(self, network, T, spec):
        self._rng = np.random.default_rng(spec.seed)
        self._prob = float(spec.activation_prob)
        self._T = T
        self._last = np.zeros(network.n_arcs, dtype=np.int64)
        self._expected_n = 0
        self._every = network.every_arc

    def select(self, n):
        if n != self._expected_n:
            raise ConfigurationError(
                f"random-sweep scheduler must be queried sequentially (expected n={self._expected_n})"
            )
        self._expected_n += 1
        if n == 0:
            return self._every
        last = self._last
        active = self._rng.random(last.size) < self._prob
        active |= last <= n - self._T - 1  # idle for T iterations
        if not np.count_nonzero(active):
            active[np.argmin(last)] = True
        last[active] = n
        return active


def sweep_bound(spec):
    """The sweep bound T a scheduler spec runs under when none is given.

    k - 1 for `RoundRobin(k)` (the smallest T that its k groups satisfy),
    so 0 for `Full`, and 3 for `RandomSweep`, whose force-inclusion then
    activates each arc at least once in every 4 iterations.  The library,
    problem files and the CLI all take T from this rule.
    """
    if isinstance(spec, RoundRobin):
        return spec.arc_groups - 1
    if isinstance(spec, RandomSweep):
        return 3
    raise ConfigurationError(f"unknown scheduler spec {spec!r}")


def make_scheduler(spec, network, T=None):
    """Instantiate the arc scheduler for one run, validating it against T.

    T None takes the spec's own bound, `sweep_bound(spec)`.  Its
    `select(n)` returns the boolean mask of the arcs that iteration n
    activates; where that is every arc, the network's read-only
    `every_arc`.
    """
    if T is None:
        T = sweep_bound(spec)
    elif not _is_int(T) or T < 0:
        raise ConfigurationError("sweep bound T must be a nonnegative integer")
    if isinstance(spec, RoundRobin):
        return _RoundRobinScheduler(network, T, spec.arc_groups)
    if isinstance(spec, RandomSweep):
        return _RandomSweepScheduler(network, T, spec)
    raise ConfigurationError(f"unknown scheduler spec {spec!r}")


# --------------------------------------------------------------------------
# configuration, state, workspace
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverConfig:
    """Scheduling and stopping rule; immutable once built.

    The scheduler is a `Full`, `RoundRobin` or `RandomSweep` spec.  T,
    the sweep bound, is a nonnegative integer; None (the default) takes
    the scheduler's own bound (see `sweep_bound`).  `check_interval`
    reads the constant `CHECK_INTERVAL`; it is not a field, so no config
    sets it.  The step parameters are no setting (see `step_parameters`).
    """

    T: Optional[int] = None
    scheduler: object = field(default_factory=Full)
    tol: float = 1e-6
    max_iter: int = 10**6
    check_interval: ClassVar[int] = CHECK_INTERVAL

    def __post_init__(self):
        sweep_bound(self.scheduler)  # raises for a spec no scheduler runs, here and not in run
        if self.T is not None and (not _is_int(self.T) or self.T < 0):
            raise ConfigurationError("sweep bound T must be a nonnegative integer")
        if not _is_positive_real(self.tol):
            raise ConfigurationError("tol must be a finite positive number")
        if not _is_int(self.max_iter) or self.max_iter < 0:
            raise ConfigurationError("max_iter must be a nonnegative integer")


def step_parameters(net):
    """(gamma, F) on net: the step parameter 1.0 of every block, and F.

    F = inv(L + P) is the conservation block's (n_nodes, n_nodes) array
    (see `_conservation_inverse`).  gamma is 1 for every scheduler: on a
    10x10 grid (`grid_full` instance 0 of seed 1) 0.5, 0.7 and 1.0 took
    76, 71 and 57 iterations, and on `two_arc` 0.1 and 10 took about 60
    times the iterations of 1.  `run` computes the values once, binds the capacity
    kernels to gamma (see `OperatorSet.bind`), and hands both to every
    `step` and `residual`; direct calls that omit them do both
    themselves.
    """
    return 1.0, _conservation_inverse(net)


def _conservation_inverse(net):
    """F = inv(L + P): L = K K^T, the graph Laplacian, and P the component averages.

    P[i, k] is 1/|component| for nodes i and k of one weakly connected
    component and 0 otherwise, so L + P is invertible and F equals the
    pseudo-inverse of L on every vector that sums to 0 on each
    component; parallel arcs each count in L.  Built with LAPACK, n^2
    floats.
    """
    n, tails, heads = net.n_nodes, net.tails, net.heads
    slots = np.concatenate([tails * n + tails, heads * n + heads, tails * n + heads, heads * n + tails])
    weights = np.repeat([1.0, 1.0, -1.0, -1.0], tails.size)
    roots = _component_roots(net)
    same = roots[:, None] == roots[None, :]
    averages = same / np.count_nonzero(same, 1)[:, None]
    return np.linalg.inv(np.bincount(slots, weights, n * n).reshape(n, n) + averages)


@dataclass
class SolverState:
    """Current iterate plus the iteration counter.

    The iterate is (z, w), both flow-shaped, and x and v are the flow x1
    and potentials u / gamma that the latest evaluation reported: after
    `step`, that of the point the step left, and in the state `run`
    returns, that of (z, w) itself, except where a partial scheduler
    stops at max_iter: there, that of the point before the last step.  x
    is the workspace's q array, which the next evaluation writes.  A
    state whose z is None starts that iteration from
    (z, w) = (x, tension v), where a solution pair (x*, v*) is a fixed
    point.
    """

    x: np.ndarray
    v: np.ndarray
    n: int = 0
    z: Optional[np.ndarray] = None
    w: Optional[np.ndarray] = None


def initial_state(network):
    """The all-zero starting point."""
    return SolverState(network.zero_flow(), network.zero_potential())


@dataclass
class IterationWorkspace:
    """Cached block outputs, kernel roots and the latest coordination scalars.

    It holds the latest evaluation, which each iteration makes once, at
    the point its step starts from: the step moves along its directions,
    and in `run` the residual check of that point reads its tau where it
    covers every arc.  q and q* hold each arc's x1 and y1, the potentials
    u / gamma go in s*, and the directions y1 + y2 of z in t* and
    x1 - x2 of w in `tw`.  The arc rows (q, q*) of inactive arcs keep the
    values from their last activation; iteration 0 activates every arc,
    so nothing is read uninitialized.
    `root` holds, per arc, the root its capacity kernel returned at its
    last evaluation into this workspace (nan before the first), and q the
    output, which the next evaluation starts from (q is 0 before the
    first): an arc's result depends on its own input, root and q, never
    on which other arcs share its batch.
    """

    q: np.ndarray
    qstar: np.ndarray
    sstar: np.ndarray
    tstar: np.ndarray
    tw: np.ndarray
    root: np.ndarray
    tau: float = 0.0
    pi: float = 0.0


def new_workspace(network):
    a = network.zero_flow
    return IterationWorkspace(a(), a(), network.zero_potential(), a(), a(), np.full(network.n_arcs, np.nan))


@dataclass
class TraceRecord:
    """Per-iteration diagnostics; residual is None when not evaluated.

    active_nodes always equals the node count, since the conservation
    block enforces every node's row at every step.  It stays a field, and
    a column of the trace CSV, because readers of that file take its
    columns by position.
    """

    n: int
    tau: float
    pi: float
    theta: float
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


def _bound_parameters(net, ops):
    """(gamma, F, bound): `step_parameters` and the kernels bound to gamma."""
    gamma, inverse = step_parameters(net)
    return gamma, inverse, ops.bind(np.full(net.n_arcs, gamma))


def _evaluate(net, ops, params, state, ws, arc_mask):
    """Evaluate the active arcs and then the conservation block at (z, w) into ws; returns div x1.

    Fills q, q* and the kernel roots for the arcs set in arc_mask, then
    the potentials s*, the directions t* and tw for every arc, active or
    not, and tau and pi (see the module docstring).  The network's
    `every_arc` mask resolves the arrays themselves; any other mask
    gathers its arcs' rows in the operator set's family order, in which
    `capacity_resolvent` solves them without sorting.  Reports x1 and
    u / gamma in state.x and state.v (see `SolverState`); a state without
    (z, w) gets them here.  The caller silences numpy's warnings:
    non-finite values surface in tau and pi.
    """
    gamma, inverse, bound = params
    if state.z is None:
        state.z, state.w = state.x.copy(), net._tension(state.v)
    z, w = state.z, state.w
    gw = gamma * w
    xi = z + gw
    if arc_mask is net.every_arc:  # every arc: work on the arrays themselves
        ws.q = ops._capacity_resolvent(None, bound, xi, ws.root, ws.q)
        ws.qstar = (xi - ws.q) / gamma
    else:  # gather the active rows in family order, and scatter their results back
        if xi.shape[1] > 1:
            # rows that the free-flow screen rests on their lower bounds (see
            # `OperatorSet.bind`) are written here, so only the others are
            # gathered; a row's largest xi - lo from one np.maximum per
            # commodity, which numpy forms faster than a max along axis 1
            rise = xi - ops.box_lo
            rest = arc_mask & (functools.reduce(np.maximum, rise.T) < bound.screen)
            if np.count_nonzero(rest):
                np.copyto(ws.q, ops.box_lo, where=rest[:, None])
                np.divide(rise, gamma, out=ws.qstar, where=rest[:, None])
                arc_mask = arc_mask & ~rest
        perm = ops._perm
        act = perm.compress(arc_mask.take(perm))
        if act.size:
            flat = ops._entries.take(act, 0)
            root = ws.root.take(act)
            xi = xi.take(act, 0)
            q = ops._capacity_resolvent(act, bound, xi, root, ws.q.take(act, 0))
            ws.root.put(act, root)
            ws.q.put(flat, q)
            ws.qstar.put(flat, (xi - q) / gamma)

    x1 = ws.q
    div_x, div_t = net._divergence(x1, x1 - gw)  # t = x1 - gamma w
    u = inverse @ (div_t - ops.supplies)
    # x1 - x2 = gamma w - tension u, and y1 + y2 = a + (x1 - x2) / gamma
    e, a = z - x1, ws.qstar - w
    ws.tw = tw = gw - net._tension(u)
    ws.tstar = tstar = a + tw / gamma
    moved = float(np.vdot(tw, tw))
    ws.tau = float(np.vdot(tstar, tstar)) + moved
    ws.pi = float(np.vdot(e, a)) + (float(np.vdot(e, tw)) + moved) / gamma
    ws.sstar = u / gamma
    state.x, state.v = x1, ws.sstar
    return div_x


def _advance(net, state, ws, n_active, t0):
    """Take the relaxed projection step from the evaluation in ws; returns the TraceRecord.

    ws holds the evaluation at state that activated n_active arcs.  The
    record's millis counts from the clock reading t0: where the evaluation
    began, shifted in `run` past the residual check that came between.
    """
    tau, pi = ws.tau, ws.pi
    if not (math.isfinite(tau) and math.isfinite(pi)):
        raise NumericalFailure("non-finite coordination scalars", iteration=state.n)

    theta = RELAXATION * max(pi, 0.0) / tau if tau > 0.0 else 0.0
    if theta != 0.0:
        z, w = state.z, state.w
        z -= theta * ws.tstar
        w -= theta * ws.tw
        if np.count_nonzero(np.isfinite(z)) + np.count_nonzero(np.isfinite(w)) != z.size + w.size:
            raise NumericalFailure("non-finite iterate after update", iteration=state.n)

    millis = (time.perf_counter() - t0) * 1e3
    record = TraceRecord(state.n, tau, pi, theta, n_active, net.n_nodes, millis=millis)
    state.n += 1
    return record


def step(net, ops, cfg, state, ws, active_arcs=None, *, params=None):
    """Execute one iteration in place; returns the TraceRecord.

    `active_arcs` is a boolean mask of shape (n_arcs,) with at least one
    arc set; omitting it activates every arc.  The conservation block is
    evaluated at every step, after the arcs, at every arc's cached
    output.  The workspace rows of inactive arcs must be valid (iteration
    0 must activate every arc).  `params` is (gamma, F, bound): the
    values of `step_parameters(net)` and the kernels bound to gamma on
    every arc; a step that omits them forms them itself.  A gamma other
    than 1 goes in here.  cfg's settings govern `run`, not one step.  The
    step evaluates the active blocks at the current state into ws, then
    moves the state; `run` evaluates and moves in the same way, with the
    convergence check between the two.
    """
    t0 = time.perf_counter()
    if active_arcs is not None and not (
        isinstance(active_arcs, np.ndarray)
        and active_arcs.dtype == bool
        and active_arcs.shape == (net.n_arcs,)
    ):
        raise ConfigurationError(f"active_arcs must be a boolean array of shape ({net.n_arcs},)")
    if params is None:
        params = _bound_parameters(net, ops)
    active_arcs = net.every_arc if active_arcs is None else active_arcs
    n_active = int(np.count_nonzero(active_arcs))
    if not n_active:
        raise ConfigurationError("the arc activation set must be nonempty")

    with np.errstate(all="ignore"):
        # non-finite values are caught in _advance and reported as NumericalFailure
        _evaluate(net, ops, params, state, ws, active_arcs)
    return _advance(net, state, ws, n_active, t0)


def _residual(ops, ws, div_x):
    """The residual from ws's evaluation of every arc at a point; div_x is div x1 there."""
    gap = float(np.add.reduce((ops.supplies - div_x) ** 2, None))
    return float(np.sqrt(ws.tau + gap))


def residual(net, ops, cfg, state, params=None):
    """Optimality residual at the current point, from a full evaluation.

    The square root of tau (with every arc active) augmented with the
    conservation block's primal agreement term |div x1 - b|^2, at the
    state's (z, w); zero exactly at solutions of the underlying inclusion
    for the given step parameters, and never below sqrt(tau).  `params`
    is as for `step`.  The arc resolvents start cold, in a workspace of
    their own, and the state is left as it is.
    """
    if params is None:
        params = _bound_parameters(net, ops)
    ws, state = new_workspace(net), copy.copy(state)
    with np.errstate(all="ignore"):
        return _residual(ops, ws, _evaluate(net, ops, params, state, ws, net.every_arc))


# --------------------------------------------------------------------------
# the driver
# --------------------------------------------------------------------------


def run(net, ops, cfg=None, trace_callback: Optional[Callable] = None):
    """Iterate from zero until the point is an equilibrium within tol or max_iter.

    Returns (state, trace, termination).  The flow/potential pair in the
    final state is the approximate equilibrium.  Each iteration evaluates
    once, at the point its step starts from, and the residual at that
    point reads the evaluation whenever it covers every arc: every
    ``CHECK_INTERVAL`` iterations and after tau = 0, where every arc is
    activated, and under `Full` wherever sqrt(tau) <= tol.  Once the
    residual is at most tol, the run converges if
    `oracle.wardrop_residual` (which calls each capacity's ``subdiff``;
    warnings silenced) is at most tol too; after its first rejection, only
    the checks every ``CHECK_INTERVAL`` iterations consult it.  A record
    holds the residual of the point after its step at those checks and
    when the run stops there.  The point after the last step is evaluated
    when it is checked, so a run that converges at iteration N also
    converges with max_iter = N.  The step parameters are formed and the
    capacity kernels bound to gamma (`OperatorSet.bind`) once, before the
    first iteration.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    state = initial_state(net)
    scheduler = make_scheduler(cfg.scheduler, net, cfg.T)
    params = _bound_parameters(net, ops)
    ws = new_workspace(net)
    # the mask at n = max_iter, where the scheduler is not queried: every arc
    # for a spec of sweep bound 0 (Full), which activates them all each time
    final = net.every_arc if sweep_bound(cfg.scheduler) == 0 and cfg.max_iter else None
    trace, record, consult = [], None, True  # consult: the oracle has not rejected
    reason = Termination.ITER_LIMIT
    while True:
        n, value = state.n, math.inf
        mask = scheduler.select(n) if n < cfg.max_iter else final
        check = record is not None and (record.tau == 0.0 or n % CHECK_INTERVAL == 0)
        mask = net.every_arc if check else mask
        if mask is not None:
            t0 = time.perf_counter()
            try:
                with np.errstate(all="ignore"):
                    div_x = _evaluate(net, ops, params, state, ws, mask)
                    # a full evaluation prices the residual at one sum; it is never below sqrt(tau)
                    gate = consult and math.sqrt(ws.tau) <= cfg.tol
                    if record is not None and mask is net.every_arc and (check or gate):
                        value = _residual(ops, ws, div_x)
            except NumericalFailure:
                if check:  # no record for a point whose check fails
                    reason = Termination.NUMERICAL_FAILURE
                    break
                ws.tau = math.nan  # the step from this point reports it
            seconds = time.perf_counter() - t0  # millis: this evaluation and its update
        if record is not None:
            if value <= cfg.tol:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    consult = oracle.wardrop_residual(net, ops, state.x, state.v) <= cfg.tol
                if consult:
                    reason = Termination.CONVERGED
            if check or reason is Termination.CONVERGED:
                record.residual = value
            trace.append(record)
            if trace_callback is not None:
                trace_callback(record)
            if reason is Termination.CONVERGED:
                break
        if n == cfg.max_iter:
            break
        try:
            record = _advance(net, state, ws, int(np.count_nonzero(mask)), time.perf_counter() - seconds)
        except NumericalFailure:
            reason = Termination.NUMERICAL_FAILURE
            break
    return state, trace, reason
