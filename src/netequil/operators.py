"""Resolvent toolbox for capacity operators, constraint sets, and supplies.

Every monotone relation the solver touches appears here exclusively
through its resolvent J_{gamma*A}: the map sending x to the unique p with
x in p + gamma*A(p).  Scalar capacity operators act on the total flux of
an arc and are lifted to R^C (one coordinate per commodity) by a uniform
shift; box constraint sets resolve to projections, and fixed node
supplies resolve to constants.

All specs are immutable and validate their parameters at construction.
Resolvent evaluation is total on real input; the only error it raises is
NumericalFailure, when the BPR root refinement stalls.

Scalar capacity families
------------------------
``BPR``          polynomial congestion cost theta*(1 + alpha*(s/rho)**p)
                 for s >= 0 and theta for s < 0; the resolvent solves
                 (alpha*gamma*theta/rho**p)*s**p + s + gamma*theta = xi
                 on the nonnegative axis when xi >= gamma*theta, and is
                 xi - gamma*theta otherwise.
``Logarithmic``  theta + log(omega/(omega - s)) on s < omega; resolvent
                 omega - gamma*W((omega/gamma)*exp(theta + (omega-xi)/gamma)).
``TRC``          delta + alpha*(s-omega) + sqrt(alpha^2*(s-omega)^2 + beta);
                 closed-form resolvent.
``PowerExp``     theta*alpha**(p*s) with alpha > 1; resolvent
                 xi - W(gamma*theta*alpha**(p*xi)*p*log(alpha))/(p*log(alpha)).
``IntervalProx`` subdifferential of phi + indicator of a closed interval
                 [lo, hi]; resolvent is the interval projection composed
                 after the prox of phi (supported phi: affine, quadratic,
                 |.|**q for q in {1, 3/2, 2}, or a user-supplied prox).

Batched kernels
---------------
Each family has one resolvent implementation, a kernel
``kernel(gamma, xi, *params)`` acting elementwise on equal-length 1-d
arrays; ``spec.family()`` names a spec's kernel and its parameters.  An
``OperatorSet`` groups its arcs by kernel and evaluates each group in one
call; ``spec.resolvent`` and ``phi.prox`` are the size-1 case.  BPR runs
Newton on log s, which decreases monotonically to the root from an upper
bound, so it needs no bracket and no bisection (see ``_bpr_kernel``).
Logarithmic/PowerExp run a Halley iteration inside ``lambert_w_exp``.
Both stop each element on its own test and leave stopped elements
unchanged.  Every kernel also takes an optional ``start``, the root each
element had at an earlier evaluation (nan for none): BPR takes one
Newton step from it, Logarithmic/PowerExp hand the matching W to Halley,
and the closed-form kernels ignore it.  Without a start a kernel runs
from its cold starting point.  So an element's result depends on its own
input and its own previous root, never on which other arcs share its
batch.  A user-supplied ``CustomPhi`` prox is the one family evaluated by
a scalar loop.

Each family also exposes ``value``/``subdiff`` (forward evaluation of the
underlying relation) for diagnostics; the solver itself never calls them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, NumericalFailure
from .lambertw import lambert_w_exp

__all__ = [
    "BPR",
    "Logarithmic",
    "TRC",
    "PowerExp",
    "AffinePhi",
    "QuadraticPhi",
    "PowerPhi",
    "CustomPhi",
    "IntervalProx",
    "SeparableLift",
    "Box",
    "ArcOperator",
    "FixedSupply",
    "OperatorSet",
    "scalar_resolvent",
]


def _require(cond, what):
    if not cond:
        raise ConfigurationError(what)


# --------------------------------------------------------------------------
# batched resolvent kernels: kernel(gamma, xi, *params) on 1-d arrays
# --------------------------------------------------------------------------

_BPR_MAX_ITER = 200
_BPR_YTOL = 2.0**-30  # smallest Newton decrease of log s that continues the iteration


def _bpr_kernel(gamma, xi, alpha, rho, theta, p, start=None):
    """BPR resolvent: xi - gamma*theta below the kink, else the root below.

    With c = xi - gamma*theta > 0 and k = alpha*gamma*theta/rho**p, the
    output is the unique root s > 0 of k*s**p + s = c.  In y = log s the
    equation reads h(y) = logaddexp(y, log k + p*y) - log c = 0, and h is
    convex and increasing for every p > 0, so Newton started from the
    upper bound y0 = min(log c, (log c - log k)/p) decreases monotonically
    to the root: no bracket and no bisection are needed.  An element
    stops at the first step that does not decrease its y by more than
    _BPR_YTOL, and keeps that step: in floating point the iteration would
    otherwise creep down by single ulps for several more passes, and a
    batch waits for its slowest element.  As h' lies between min(1, p)
    and max(1, p), y is then within O(_BPR_YTOL**2) of the root.  exp(y)
    carries a relative error of about eps*max(|log c|, |log k|), so one
    Newton step on k*s**p + s - c in linear space finishes the root; it is
    kept only where it moves s by less than 1e-8 relative, which rules out
    a step from an s that underflowed to 0.  For p = 1 the result is
    within 2 ulp of c/(1 + k).

    `start` optionally holds an earlier root per element (nan for none).
    One unrestricted Newton step from log(start) lands at or above the
    root, since h is convex and increasing, so the monotone iteration
    starts from the smaller of that point and y0.  A missing, non-finite
    or non-positive start leaves y0 in place.
    """
    gt = gamma * theta
    c = xi - gt
    # c < 0: pure shift; c = 0: root 0; c = inf surfaces as a numerical failure
    out = np.where(c == np.inf, np.nan, c)
    live = np.flatnonzero((c > 0.0) & (c < np.inf))
    if not live.size:
        return out
    c, p = c[live], p[live]
    agt = alpha[live] * gt[live]
    k, pm1 = agt / rho[live] ** p, p - 1.0
    logc, logk = np.log(c), np.log(agt) - p * np.log(rho[live])  # no overflow of rho**p
    y = np.minimum(logc, (logc - logk) / p)
    if start is not None:
        # a start <= 0, inf or nan makes the step nan, and fmin keeps y0 there
        with np.errstate(divide="ignore", invalid="ignore"):
            ys = np.log(start[live])
            lse = np.logaddexp(ys, logk + p * ys)
            y = np.fmin(ys - (lse - logc) / (p - pm1 * np.exp(ys - lse)), y)
    # stopped elements keep their y, so a result does not depend on its batch
    active = np.ones(live.size, dtype=bool)
    for _ in range(_BPR_MAX_ITER):
        lse = np.logaddexp(y, logk + p * y)
        # h'(y) = p - (p - 1)*exp(y - lse); fmin keeps y where the step is nan (k = inf, y = -inf)
        t = np.fmin(y - (lse - logc) / (p - pm1 * np.exp(y - lse)), y)
        down = t < y - _BPR_YTOL
        np.copyto(y, t, where=active)
        active &= down
        if not active.any():
            break
    else:
        raise NumericalFailure("BPR root refinement stalled")
    s = np.exp(y)
    ks = k * s**pm1
    finished = s - (s + s * ks - c) / (1.0 + p * ks)
    out[live] = np.where(np.abs(finished - s) <= 1e-8 * s, finished, s)
    return out


def _log_kernel(gamma, xi, omega, theta, start=None):
    z = np.log(omega / gamma) + theta + (omega - xi) / gamma
    if start is not None:
        start = (omega - start) / gamma  # the W of an earlier root
    # where W underflowed the exact value sits strictly below omega
    return np.minimum(omega - gamma * lambert_w_exp(z, start), np.nextafter(omega, -np.inf))


def _trc_kernel(gamma, xi, alpha, beta, delta, omega, start=None):
    ga = gamma * alpha
    m = xi - gamma * delta
    root = np.sqrt(ga * ga * (m - omega) ** 2 + (2.0 * ga + 1.0) * gamma * gamma * beta)
    return (-root + ga * (m + omega) + m) / (2.0 * ga + 1.0)


def _powerexp_kernel(gamma, xi, pl, theta, start=None):
    """PowerExp resolvent; `pl` is p*log(alpha)."""
    log_gtp = np.log(gamma * theta * pl)
    z = log_gtp + pl * xi
    if start is not None:
        with np.errstate(over="ignore"):
            start = np.exp(log_gtp + pl * start)  # the W of an earlier root
    return xi - lambert_w_exp(z, start) / pl


# The interval-prox kernels take (lo, hi) first and clamp the prox of phi
# into [lo, hi]; phi.prox on its own is the case lo = -inf, hi = inf.


def _clamp(s, lo, hi):
    return np.minimum(np.maximum(s, lo), hi)


def _affine_kernel(gamma, xi, lo, hi, a, start=None):
    return _clamp(xi - gamma * a, lo, hi)


def _quadratic_kernel(gamma, xi, lo, hi, a, start=None):
    return _clamp(xi / (1.0 + gamma * a), lo, hi)


def _power_kernel(gamma, xi, lo, hi, q, start=None):
    mag = np.abs(xi)
    # q = 3/2: substitute u = sqrt(|s|); u solves u**2 + 1.5*gamma*u = |xi|
    u = 0.5 * (-1.5 * gamma + np.sqrt(2.25 * gamma * gamma + 4.0 * mag))
    s = np.where(
        q == 1.0,
        np.copysign(np.maximum(mag - gamma, 0.0), xi),
        np.where(q == 2.0, xi / (1.0 + 2.0 * gamma), np.copysign(u * u, xi)),
    )
    return _clamp(s, lo, hi)


def _custom_kernel(gamma, xi, lo, hi, phi, start=None):
    """The scalar fallback: one user prox call per element."""
    s = [f.prox(g, x) for f, g, x in zip(phi, gamma.tolist(), xi.tolist())]
    return _clamp(np.array(s, dtype=float), lo, hi)


def _stack(rows, n, width):
    """n tuples of `width` floats as an (n, width) array."""
    flat = np.fromiter(itertools.chain.from_iterable(rows), float, n * width)
    return flat.reshape(n, width)


def _column(values):
    try:
        return np.array(values, dtype=float)
    except TypeError:  # user-supplied phi objects
        col = np.empty(len(values), dtype=object)
        col[:] = values
        return col


def _columns(rows):
    """Per-arc parameter tuples as one contiguous 1-d array per parameter."""
    try:
        return tuple(_stack(rows, len(rows), len(rows[0])).T.copy())
    except TypeError:  # a column of user-supplied phi objects
        return tuple(_column(values) for values in zip(*rows))


def _call1(kernel, gamma, xi, params):
    """A kernel at a single point: the size-1 batch."""
    gamma_xi = np.array([[gamma], [xi]], dtype=float)
    return float(kernel(gamma_xi[0], gamma_xi[1], *_columns([params]))[0])


class _Capacity:
    """Scalar capacity spec whose resolvent is the size-1 case of its family kernel."""

    def resolvent(self, gamma, xi):
        kernel, params = self.family()
        return _call1(kernel, gamma, xi, params)


# --------------------------------------------------------------------------
# scalar capacity operators
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BPR(_Capacity):
    """Bureau of Public Roads congestion cost."""

    alpha: float
    rho: float
    theta: float
    p: float

    def __post_init__(self):
        for name in ("alpha", "rho", "theta", "p"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0):
                raise ConfigurationError(f"BPR requires {name} > 0")

    def value(self, s):
        if s < 0:
            return self.theta
        return self.theta * (1.0 + self.alpha * (s / self.rho) ** self.p)

    def subdiff(self, s):
        v = self.value(s)
        return (v, v)

    def family(self):
        return _bpr_kernel, (self.alpha, self.rho, self.theta, self.p)


@dataclass(frozen=True)
class Logarithmic(_Capacity):
    """Logarithmic capacity cost theta + log(omega/(omega - s)) on s < omega."""

    omega: float
    theta: float = 0.0

    def __post_init__(self):
        _require(math.isfinite(self.omega) and self.omega > 0, "Logarithmic requires omega > 0")
        _require(math.isfinite(self.theta) and self.theta >= 0, "Logarithmic requires theta >= 0")

    def value(self, s):
        if s >= self.omega:
            return None
        return self.theta + math.log(self.omega / (self.omega - s))

    def subdiff(self, s):
        v = self.value(s)
        return None if v is None else (v, v)

    def family(self):
        return _log_kernel, (self.omega, self.theta)


@dataclass(frozen=True)
class TRC(_Capacity):
    """Traffic Research Corporation capacity cost."""

    alpha: float
    beta: float
    delta: float
    omega: float

    def __post_init__(self):
        for name in ("alpha", "beta", "delta", "omega"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0):
                raise ConfigurationError(f"TRC requires {name} > 0")

    def value(self, s):
        d = s - self.omega
        return self.delta + self.alpha * d + math.sqrt(self.alpha**2 * d * d + self.beta)

    def subdiff(self, s):
        v = self.value(s)
        return (v, v)

    def family(self):
        return _trc_kernel, (self.alpha, self.beta, self.delta, self.omega)


@dataclass(frozen=True)
class PowerExp(_Capacity):
    """Exponential capacity cost theta*alpha**(p*s), alpha > 1."""

    alpha: float
    theta: float
    p: float

    def __post_init__(self):
        _require(math.isfinite(self.alpha) and self.alpha > 1, "PowerExp requires alpha > 1")
        _require(math.isfinite(self.theta) and self.theta > 0, "PowerExp requires theta > 0")
        _require(math.isfinite(self.p) and self.p > 0, "PowerExp requires p > 0")

    def value(self, s):
        return self.theta * math.exp(self.p * s * math.log(self.alpha))

    def subdiff(self, s):
        v = self.value(s)
        return (v, v)

    def family(self):
        return _powerexp_kernel, (self.p * math.log(self.alpha), self.theta)


# --------------------------------------------------------------------------
# interval-constrained prox capacities
# --------------------------------------------------------------------------


class _Phi:
    """phi with a batched prox kernel; prox alone is the unbounded-interval case."""

    def prox(self, gamma, xi):
        kernel, params = self.prox_family()
        return _call1(kernel, gamma, xi, (-math.inf, math.inf) + params)


@dataclass(frozen=True)
class AffinePhi(_Phi):
    """phi(s) = a*s + b."""

    a: float
    b: float = 0.0

    def __post_init__(self):
        _require(math.isfinite(self.a) and math.isfinite(self.b), "AffinePhi requires finite coefficients")

    def prox_family(self):
        return _affine_kernel, (self.a,)

    def subdiff(self, s):
        return (self.a, self.a)


@dataclass(frozen=True)
class QuadraticPhi(_Phi):
    """phi(s) = 0.5*a*s**2 with a >= 0."""

    a: float

    def __post_init__(self):
        _require(math.isfinite(self.a) and self.a >= 0, "QuadraticPhi requires a >= 0")

    def prox_family(self):
        return _quadratic_kernel, (self.a,)

    def subdiff(self, s):
        g = self.a * s
        return (g, g)


@dataclass(frozen=True)
class PowerPhi(_Phi):
    """phi(s) = |s|**q for q in {1, 3/2, 2} (closed-form prox catalog)."""

    q: float

    def __post_init__(self):
        _require(self.q in (1.0, 1.5, 2.0), "PowerPhi supports q in {1, 1.5, 2} only")

    def prox_family(self):
        return _power_kernel, (self.q,)

    def subdiff(self, s):
        if self.q == 1.0:
            if s == 0.0:
                return (-1.0, 1.0)
            g = math.copysign(1.0, s)
            return (g, g)
        g = self.q * abs(s) ** (self.q - 1.0) * math.copysign(1.0, s) if s != 0.0 else 0.0
        return (g, g)


@dataclass(frozen=True)
class CustomPhi:
    """Escape hatch: user-supplied scalar prox (and optional subdifferential)."""

    prox_fn: Callable[[float, float], float]
    subdiff_fn: Optional[Callable[[float], tuple]] = None

    def prox(self, gamma, xi):
        return self.prox_fn(gamma, xi)

    def subdiff(self, s):
        return None if self.subdiff_fn is None else self.subdiff_fn(s)


@dataclass(frozen=True)
class IntervalProx(_Capacity):
    """Capacity operator given by the subdifferential of phi + interval indicator.

    The resolvent is the interval projection applied after prox of phi:
    clamp(prox_{gamma*phi}(xi), lo, hi).
    """

    phi: object
    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self):
        _require(not math.isnan(self.lo) and not math.isnan(self.hi), "IntervalProx bounds must not be nan")
        _require(self.lo <= self.hi, "IntervalProx requires lo <= hi")
        _require(
            hasattr(self.phi, "prox"),
            "IntervalProx phi must be AffinePhi, QuadraticPhi, PowerPhi, or CustomPhi",
        )

    def value(self, s):
        g = self.subdiff(s)
        if g is None or g[0] != g[1]:
            return None
        return g[0]

    def subdiff(self, s):
        if s < self.lo or s > self.hi:
            return None
        base = self.phi.subdiff(s)
        if base is None:
            return None
        lo_g, hi_g = base
        if s <= self.lo:
            lo_g = -math.inf
        if s >= self.hi:
            hi_g = math.inf
        return (lo_g, hi_g)

    def family(self):
        if isinstance(self.phi, _Phi):
            kernel, params = self.phi.prox_family()
            return kernel, (self.lo, self.hi) + params
        return _custom_kernel, (self.lo, self.hi, self.phi)


def scalar_resolvent(spec, gamma, xi):
    """Evaluate the resolvent J_{gamma*c} of a scalar capacity spec at xi."""
    if not gamma > 0:
        raise ConfigurationError(f"resolvent parameter must be positive, got {gamma!r}")
    return spec.resolvent(gamma, float(xi))


# --------------------------------------------------------------------------
# lifts, constraint sets, supplies
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparableLift:
    """Vector operator on R^C built from a scalar capacity on the total flux.

    Its resolvent shifts every coordinate by the same amount
    eta = (J_{C*gamma*c}(sum x) - sum x) / C, where C is the number of
    commodities; the scalar resolvent is evaluated with parameter C*gamma.
    """

    scalar: object

    def __post_init__(self):
        _require(hasattr(self.scalar, "family"), "SeparableLift needs a scalar capacity spec")

    def resolvent(self, gamma, x):
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        total = float(np.sum(x))
        eta = (scalar_resolvent(self.scalar, n * gamma, total) - total) / n
        return x + eta


def _float_tuple(values):
    return tuple(np.atleast_1d(np.asarray(values, dtype=float)).tolist())


@dataclass(frozen=True)
class Box:
    """Product of closed intervals, one per commodity."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = _float_tuple(self.lo)
        hi = _float_tuple(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        _require(len(lo) == len(hi), "Box bounds must have equal length")
        _require(all(a <= b for a, b in zip(lo, hi)), "Box requires lo <= hi per commodity")

    @staticmethod
    def orthant(n_commodities):
        """The nonnegative orthant of R^C."""
        return Box((0.0,) * n_commodities, (math.inf,) * n_commodities)

    @staticmethod
    def free(n_commodities):
        """All of R^C (no constraint)."""
        return Box((-math.inf,) * n_commodities, (math.inf,) * n_commodities)

    def project(self, x):
        return np.minimum(np.maximum(np.asarray(x, dtype=float), self.lo), self.hi)


@dataclass(frozen=True)
class ArcOperator:
    """Flow-tension relation of one arc: capacity lift plus constraint cone."""

    q: SeparableLift
    r: Box


@dataclass(frozen=True)
class FixedSupply:
    """Node relation pinning the divergence to a constant supply vector."""

    supply: tuple

    def __post_init__(self):
        supply = _float_tuple(self.supply)
        object.__setattr__(self, "supply", supply)

    def resolvent(self, sigma, y):
        # independent of both the step parameter and the input
        return np.asarray(self.supply, dtype=float)


class OperatorSet:
    """Per-arc and per-node operator specs bound to one network.

    Stacks the box bounds into (n_arcs, C) arrays and the supplies into an
    (n_nodes, C) array, and groups the arcs by capacity family with each
    family's parameters as per-arc arrays, so the solver can evaluate
    whole blocks at once.
    """

    def __init__(self, network, arc_operators, node_operators):
        arc_operators = tuple(arc_operators)
        node_operators = tuple(node_operators)
        if len(arc_operators) != network.n_arcs:
            raise ConfigurationError(
                f"{len(arc_operators)} arc operators for {network.n_arcs} arcs"
            )
        if len(node_operators) != network.n_nodes:
            raise ConfigurationError(
                f"{len(node_operators)} node operators for {network.n_nodes} nodes"
            )
        n_comm = network.n_commodities
        groups = {}  # kernel -> (arc indices, parameter tuples)
        for j, op in enumerate(arc_operators):
            if len(op.r.lo) != n_comm:
                raise ConfigurationError(
                    f"arc {j}: box has {len(op.r.lo)} intervals for {n_comm} commodities"
                )
            kernel, params = op.q.scalar.family()
            group = groups.get(kernel)
            if group is None:
                group = groups[kernel] = ([], [])
            group[0].append(j)
            group[1].append(params)
        for i, op in enumerate(node_operators):
            if len(op.supply) != n_comm:
                raise ConfigurationError(
                    f"node {network.nodes[i]!r}: supply has {len(op.supply)} entries "
                    f"for {n_comm} commodities"
                )
        self.network = network
        self.arc_operators = arc_operators
        self.node_operators = node_operators
        n_arcs = len(arc_operators)
        self.box_lo = _stack((op.r.lo for op in arc_operators), n_arcs, n_comm)
        self.box_hi = _stack((op.r.hi for op in arc_operators), n_arcs, n_comm)
        self.supplies = _stack((op.supply for op in node_operators), len(node_operators), n_comm)

        # (kernel, arc indices, per-arc parameter arrays) per family
        self.families = tuple(
            (kernel, np.array(arcs, dtype=np.intp), _columns(rows))
            for kernel, (arcs, rows) in groups.items()
        )
        self._arc_family = np.empty(network.n_arcs, dtype=np.intp)
        self._arc_member = np.empty(network.n_arcs, dtype=np.intp)
        for f, (_, arcs, _) in enumerate(self.families):
            self._arc_family[arcs] = f
            self._arc_member[arcs] = np.arange(arcs.size)

    def capacity_resolvent(self, arcs, gamma, x, start=None):
        """Capacity-lift resolvents of the listed arcs, one row each.

        `arcs` holds distinct arc indices in ascending order; row k of the
        (len(arcs), C) array `x` and the step parameter gamma[k] belong to
        arc arcs[k].  Each row total is resolved by its family kernel with
        parameter C*gamma, and the row is shifted uniformly to match
        (see SeparableLift).  `start`, if given, is a float array with one
        entry per row: the kernel's root for that arc at an earlier call
        (nan for none), which the iterative kernels start from.  It is
        overwritten with this call's roots.
        """
        n = x.shape[1]
        total = x.sum(axis=1)
        scaled = n * gamma
        out = np.empty_like(total)
        if arcs.size == self.network.n_arcs:
            for kernel, members, params in self.families:
                warm = None if start is None else start[members]
                out[members] = kernel(scaled[members], total[members], *params, start=warm)
        else:
            family = self._arc_family[arcs]
            member = self._arc_member[arcs]
            for f, (kernel, _, params) in enumerate(self.families):
                rows = np.flatnonzero(family == f)
                if rows.size:
                    pick = member[rows]
                    warm = None if start is None else start[rows]
                    out[rows] = kernel(
                        scaled[rows], total[rows], *(a[pick] for a in params), start=warm
                    )
        if start is not None:
            start[:] = out
        return x + ((out - total) / n)[:, None]
