"""Resolvent toolbox for capacity operators, constraint sets, and supplies.

Every monotone relation the solver touches appears here exclusively
through its resolvent J_{gamma*A}: the map sending x to the unique p with
x in p + gamma*A(p).  Scalar capacity operators act on the total flux of
an arc, and an arc's relation on R^C (one coordinate per commodity) is
its capacity on the total plus the normal cone of its commodity box,
resolved as one block by ``OperatorSet.capacity_resolvent``: the family
kernel at k*gamma on the total of the k commodities off their bounds,
then a clamp into the box.  A fixed node supply resolves to its
constant, which the solver reads from ``OperatorSet.supplies``.

All specs are immutable and validate their parameters at construction.
Resolvent evaluation does not check that xi is finite.  It raises
NumericalFailure when the BPR root refinement stalls, when Halley or
Newton in ``lambert_w_exp`` does not converge, and when ``lambert_w_exp``
gets a nan or +inf argument: Logarithmic at a nan or -inf xi, PowerExp at
a nan or +inf xi.  The other non-finite xi pass through: BPR and TRC give
nan at nan and +inf and -inf at -inf, Logarithmic gives nan at +inf,
PowerExp gives -inf at -inf, and IntervalProx gives nan at nan and
clamps an infinite xi into [lo, hi].  A size-1 call also raises
ConfigurationError when its gamma is not finite and positive.

Scalar capacity families
------------------------
``BPR``          polynomial congestion cost theta*(1 + alpha*(s/rho)**p)
                 for s >= 0 and theta for s < 0; the resolvent solves
                 (alpha*gamma*theta/rho**p)*s**p + s + gamma*theta = xi
                 on the nonnegative axis when xi >= gamma*theta, and is
                 xi - gamma*theta otherwise.
``Logarithmic``  theta + log(omega/(omega - s)) on s < omega; resolvent
                 omega - gamma*W((omega/gamma)*exp(theta + (omega-xi)/gamma)),
                 refined by one Newton step where it is far below omega.
``TRC``          delta + alpha*(s-omega) + sqrt(alpha^2*(s-omega)^2 + beta);
                 closed-form resolvent, in a form that does not cancel
                 where the root is small against its terms, scaled so that
                 it stays finite for every finite xi.
``PowerExp``     theta*alpha**(p*s) with alpha > 1; resolvent
                 xi - W(gamma*theta*alpha**(p*xi)*p*log(alpha))/(p*log(alpha)),
                 or (log W - log(gamma*theta*p*log(alpha)))/(p*log(alpha))
                 where W > 1, which does not cancel at a large xi.
``IntervalProx`` subdifferential of phi + indicator of a closed interval
                 [lo, hi]; resolvent is the interval projection composed
                 after the prox of phi (phi is AffinePhi, QuadraticPhi,
                 PowerPhi with q in {1, 3/2, 2}, or a user-supplied
                 CustomPhi).

Batched kernels
---------------
Each family has one resolvent implementation, a kernel acting
elementwise on equal-length 1-d arrays and split in two at the step
parameter: ``kernel.prepare(gamma, *params)`` returns the per-element
constants that depend only on gamma and the spec (BPR's gamma*theta,
log k and stop radius, the Lambert kernel's coefficients, TRC's
quadratic coefficients, the prox kernels' gamma products), and
``kernel.solve(xi, consts, start)`` does the work that depends on xi,
with those constants as one (n_consts, n) float table, a row each.
Calling ``kernel(gamma, xi, *params)`` runs both; ``spec.family()``
names a spec's kernel and its parameters, and ``spec.resolvent`` and
``phi.prox`` are the size-1 call.  An ``OperatorSet`` groups its arcs by
kernel, keeps each group's parameters as one (n_params, m) float table,
and orders its arcs family by family (ascending within each family)
once.  ``OperatorSet.bind(gamma)`` prepares every group once for
per-arc step parameters, at k*gamma for every commodity count
k = 1, ..., C, into one float table holding every group's constants
side by side in that order, and ``capacity_resolvent`` solves each
group in one call.  The solver hands a partial sweep's rows over in
family order, so the constants of all its rows at their own k come
with one ``take`` and each family's run of rows is a slice, found with
one search; the public ``capacity_resolvent``, which takes its arcs in
ascending order, puts them in family order itself.  A sweep of every
arc reads the constants from a memo in the binding, which holds until
an arc's k changes (with one commodity, for the whole run), and puts
its rows in family order for the kernels unless the arcs come so
already.

BPR runs Newton on log s, which decreases monotonically to the root
from an upper bound, so it needs no bracket and no bisection; its
quadratic rate stops each element at the first step within its radius
(see ``_bpr_solve``).  Logarithmic and PowerExp share one kernel, whose
coefficients hold each element's own formula, z = z0 + z1*xi and
s = min(o0 + o1*xi + o2*W, cap), so their arcs make one
``lambert_w_exp`` call (a Halley iteration) per batch.  Both iterations
stop each element on its own test and leave stopped elements unchanged.
Every solve also takes a ``start``, the root each element had at an
earlier evaluation: BPR takes one Newton step from it, Logarithmic/
PowerExp hand Halley the W at which their formula returns it, and the
closed-form kernels ignore it.  A nan start is a cold start, from the
kernel's own starting point; the public entry points (calling a kernel,
``capacity_resolvent``, ``lambert_w_exp``) take ``start=None`` for an
all-nan start.  So an element's result depends on its own input and its
own previous root, and an arc's block result on those and its own
previous output, never on which other arcs share its batch.  A
user-supplied ``CustomPhi`` carries its own kernel, a scalar loop that
calls its prox once per element: the arcs sharing one instance form one
family, and no table holds a Python object.

With C > 1 commodities, ``capacity_resolvent`` first screens each row
against its arc's free-flow threshold, which ``bind`` takes from each
kernel's ``free_flow``: an arc whose lower bounds are all 0 rests there,
its result lo exactly, when its largest xi - lo is below gamma times its
capacity's largest value at a total of 0.  Only the other rows go to the
kernels, compacted in family order, so a family none of whose rows is
live makes no call; a screened row keeps its start.  One commodity is
not screened: its kernels handle a row below the kink themselves.

The kernels' halves and ``OperatorSet._roots`` set no numpy error
state: the solver silences floating-point warnings once per evaluation,
and each public entry point (calling a kernel, ``spec.resolvent``,
``phi.prox``, ``bind``, ``capacity_resolvent``) silences its own, as
``lambert_w_exp`` does.

Each family also exposes ``value``/``subdiff`` (forward evaluation of the
underlying relation); the equilibrium check calls ``subdiff``, no kernel does.
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
]


def _require(cond, what):
    if not cond:
        raise ConfigurationError(what)


def _holds_a_real(lo, hi):
    """True when the interval [lo, hi] contains a real number; False if a bound is nan."""
    return lo <= hi and lo < math.inf and hi > -math.inf


# --------------------------------------------------------------------------
# batched resolvent kernels: prepare(gamma, *params) once per step size,
# solve(xi, consts, start) per evaluation, on 1-d arrays and a table
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Kernel:
    """A family's resolvent split at the step size.

    ``prepare(gamma, *params)`` returns the per-element constants that
    depend only on gamma and the spec; ``solve(xi, consts, start)`` does
    the work that depends on xi, with those constants stacked into one
    (n_consts, n) float table, from one start per element, where nan is
    a cold start.  Calling the kernel runs both; its `start` None is the
    all-nan start.  ``free_flow(gamma, *params)`` is gamma*c+(0), the
    largest value of the capacity at a total of 0, or -inf where the
    family does not say (see `OperatorSet.bind`).
    """

    prepare: Callable
    solve: Callable
    free_flow: Callable = lambda gamma, *params: np.full(np.shape(gamma), -np.inf)

    def __call__(self, gamma, xi, *params, start=None):
        if start is None:
            start = np.full(np.shape(xi), np.nan)
        with np.errstate(all="ignore"):
            return self.solve(xi, np.array(self.prepare(gamma, *params), float), start)


_BPR_MAX_ITER = 200
_BPR_ERROR = 1e-10  # bound on the error in log s that a final Newton step leaves


def _bpr_prepare(gamma, alpha, rho, theta, p):
    """(gamma*theta, k, log k, p, p - 1, r): k = alpha*gamma*theta/rho**p, r the stop radius.

    r is the largest Newton step on log s that `_bpr_solve` takes as
    final: (p - 1)**2/(8*min(1, p)) * r**2 <= _BPR_ERROR, and r is at
    most min(1, p)/(2*K*max(1, p)) with K that first factor (see
    `_bpr_solve`); it is inf for p = 1.
    """
    gt = gamma * theta
    agt = alpha * gt
    logk = np.log(agt) - p * np.log(rho)  # no overflow of rho**p
    pm1 = p - 1.0
    lo, hi = np.minimum(p, 1.0), np.maximum(p, 1.0)
    K = pm1 * pm1 / (8.0 * lo)
    r = np.minimum(np.sqrt(_BPR_ERROR / K), lo / (2.0 * K * hi))
    return gt, agt / rho**p, logk, p, pm1, r


def _bpr_solve(xi, consts, start):
    """BPR resolvent: xi - gamma*theta below the kink, else the root below.

    With c = xi - gamma*theta > 0 and k = alpha*gamma*theta/rho**p, the
    output is the unique root s > 0 of k*s**p + s = c.  In y = log s the
    equation reads h(y) = logaddexp(y, log k + p*y) - log c = 0, and h is
    convex and increasing for every p > 0, so Newton started from the
    upper bound y0 = min(log c, (log c - log k)/p) decreases monotonically
    to the root: no bracket and no bisection are needed.

    The stop comes from Newton's quadratic rate.  h' = 1 + (p - 1)*lam
    with lam in [0, 1] the share of k*s**p in k*s**p + s, so h' lies
    between m = min(1, p) and M = max(1, p), and h'' = (p - 1)**2 *
    lam*(1 - lam) <= (p - 1)**2/4.  A Newton step from an error e lands
    at the error e' = h''*e**2/(2*h') in [0, K*e**2], K = (p - 1)**2/(8*m),
    and moves y by d = |e - e'|.  From above (e > 0), d = h/h' >= m*e/M,
    so a step of d <= r started within (M/m)*r <= 1/(2*K) of the root
    (the cap on r in `_bpr_prepare`); there e - d = e' <= K*e**2 <= e/2,
    so e <= 2*d and e' <= 4*K*d**2 <= 4*_BPR_ERROR.  From below (e < 0,
    only from a start), d >= |e| and e' <= K*d**2.  So an element stops
    at the first step that moves its y by at most its radius r, keeps
    that step, and its y then exceeds the root by at most 4e-10; a batch
    waits for its slowest element, and the linear step below finishes
    the root.  exp(y) carries a relative error of about
    eps*max(|log c|, |log k|) as well, so one Newton step on
    k*s**p + s - c in linear space, whose relative error contracts to
    about |p - 1|/2 times its square, finishes the root; it is kept
    only where it moves s by less than 1e-8 relative, which rules out a
    step from an s that underflowed to 0.  For p = 1, K = 0 and r = inf:
    h is linear, and the first step is final.  The result is then
    within 2 ulp of c/(1 + k).

    `start` holds an earlier root per element.  One unrestricted Newton
    step from log(start) lands at or above the root, since h is convex and
    increasing, and counts as pass 0: the iteration starts from the
    smaller of that point and y0, and it is final where it moved by at
    most r and was not capped by y0.  A nan, infinite or non-positive
    start makes that step nan, which leaves y0 in place and is never
    final.
    """
    c = xi - consts[0]
    # c < 0: pure shift; c = 0: root 0; c = inf surfaces as a numerical failure
    below = c < np.inf
    out = np.where(below, c, np.nan)
    live = ((c > 0.0) & below).nonzero()[0]
    if not live.size:
        return out
    c, start = c.take(live), start.take(live)
    _, k, logk, p, pm1, r = consts.take(live, 1)
    logc = np.log(c)
    ys = np.log(start)
    lse = np.logaddexp(ys, logk + p * ys)
    y1 = ys - (lse - logc) / (p - pm1 * np.exp(ys - lse))
    # fmin keeps y0 where the step is nan; such an element, like one the
    # cap moved, is not final
    y = np.fmin(y1, np.minimum(logc, (logc - logk) / p))
    active = np.abs(y - ys) > r
    active |= y != y1
    # stopped elements keep their y, so a result does not depend on its batch
    if np.count_nonzero(active):
        for _ in range(_BPR_MAX_ITER):
            lse = np.logaddexp(y, logk + p * y)
            # h'(y) = p - (p - 1)*exp(y - lse); fmin keeps y where the step is nan (k = inf, y = -inf)
            t = np.fmin(y - (lse - logc) / (p - pm1 * np.exp(y - lse)), y)
            far = t < y - r
            np.copyto(y, t, where=active)
            active &= far
            if not np.count_nonzero(active):
                break
        else:
            raise NumericalFailure("BPR root refinement stalled")
    s = np.exp(y)
    ks = k * s**pm1
    step = (s + s * ks - c) / (1.0 + p * ks)
    out.put(live, np.where(np.abs(step) <= 1e-8 * s, s - step, s))
    return out


def _lambert_prepare(gamma, is_log, a, theta):
    """Logarithmic (is_log, a = omega) and PowerExp (a = p*log(alpha)) coefficients.

    (z0, z1, o0, o1, o2, cap, gamma*theta, near, w_switch): `_lambert_solve`
    forms z = z0 + z1*xi and s = min(o0 + o1*xi + o2*W, cap), which is

      Logarithmic  z = log(omega/gamma) + theta + omega/gamma - xi/gamma,
                   s = min(omega - gamma*W, the float below omega);
      PowerExp     z = log(gamma*theta*a) + a*xi,  s = xi - W/a.

    gamma*theta and near = 2**-10 * omega (0 for PowerExp) serve the
    Logarithmic refinement of a root far below omega, and w_switch, 1 for
    PowerExp and inf for Logarithmic, the W above which a PowerExp root
    is formed from log W.  The formula the other family would take
    may be log(0) (Logarithmic theta = 0) or overflow; it is never
    selected.
    """
    is_log = is_log != 0.0
    gt = gamma * theta
    return (
        np.where(is_log, np.log(a / gamma) + theta + a / gamma, np.log(gt * a)),
        np.where(is_log, -1.0 / gamma, a),
        np.where(is_log, a, 0.0),
        np.where(is_log, 0.0, 1.0),
        np.where(is_log, -gamma, -1.0 / a),
        np.where(is_log, np.nextafter(a, -np.inf), np.inf),
        gt,
        np.where(is_log, np.ldexp(a, -10), 0.0),
        np.where(is_log, np.inf, 1.0),
    )


def _lambert_solve(xi, consts, start):
    """Logarithmic and PowerExp resolvents, both one W(exp(z)) solve.

    A batch mixing the two families makes one ``lambert_w_exp`` call, on
    z = z0 + z1*xi, and maps W to s = min(o0 + o1*xi + o2*W, cap); the
    coefficients (`_lambert_prepare`) hold each element's own formula.  An
    earlier root becomes the W at which that map returns it, Halley's
    warm start.  A PowerExp root s = xi - W/a cancels where W/a is large
    against s; where W > 1 it is formed as (log W - z0)/a instead, which
    W + log W = z gives and which does not cancel there (w_switch is 1
    on PowerExp rows and inf on the others, and -o2 is 1/a).  A
    Logarithmic root s = omega - gamma*W with |s| < `near` = 2**-10 * omega
    has lost digits to that difference, about an ulp of omega.  One Newton step on s + gamma*(theta - log1p(-s/omega)) = xi,
    which does not cancel there, restores them; o0 is omega and -o2 is
    gamma there.  It is written as a fixed-point update, not s - F/F',
    which would cancel again where the W form is off by more than the
    root itself.
    """
    z0, z1, o0, o1, o2, cap, gt, near, w_switch = consts
    base = o0 + o1 * xi
    w = lambert_w_exp(z0 + z1 * xi, (start - base) / o2)
    s = base + o2 * w
    big = w > w_switch  # PowerExp where W > 1
    if np.count_nonzero(big):
        s = np.where(big, o2 * (z0 - np.log(w)), s)
    # where W underflowed the exact Logarithmic value sits strictly below omega
    s = np.minimum(s, cap)
    refine = np.abs(s) < near
    if np.count_nonzero(refine):
        d = o0 - s
        s = np.where(refine, (xi - gt - o2 * (np.log1p(-s / o0) + s / d)) / (1.0 - o2 / d), s)
    return s


def _trc_prepare(gamma, alpha, beta, delta, omega):
    """(gamma*alpha, lam*sqrt(den*gamma**2*beta), gamma*delta, lam*omega,
    lam*2*gamma*alpha*omega, lam*gamma**2*beta, lam), den = 2*gamma*alpha + 1
    and lam the power of two with lam*den < 1/2 (see `_trc_solve`).
    """
    ga = gamma * alpha
    den = 2.0 * ga + 1.0
    g2b = gamma * gamma * beta
    lam = np.ldexp(1.0, -np.frexp(den)[1] - 1)
    return ga, lam * np.sqrt(den * g2b), gamma * delta, lam * omega, lam * (2.0 * ga * omega), lam * g2b, lam


def _trc_free_flow(gamma, alpha, beta, delta, omega):
    """gamma*c(0) in the conjugate form, which does not cancel for large alpha*omega."""
    aw = alpha * omega
    return gamma * (delta + beta / (np.hypot(aw, np.sqrt(beta)) + aw))


def _trc_solve(xi, consts, start):
    """TRC resolvent: the smaller root s = (a - root)/den of a quadratic.

    With m = xi - gamma*delta, den = 2*gamma*alpha + 1,
    a = m + gamma*alpha*(m + omega) and root = hypot(gamma*alpha*(m -
    omega), sqrt(den*gamma**2*beta)), which does not overflow where the
    square of either term would.  Both forms below avoid the cancellation
    of a - root.  Where a > 0, s = (a**2 - root**2)/(den*(a + root)), and
    a**2 - root**2 is den*(m*(m + 2*gamma*alpha*omega) - gamma**2*beta);
    it is divided by a + root before the product is formed, so that no
    product of two m overflows.  Where a <= 0, m < omega, and
    s = m - gamma**2*beta/(root - gamma*alpha*(m - omega)), which the
    conjugate of m - s = (gamma*alpha*(m - omega) + root)/den gives; it
    stays finite where s is within rounding of the largest float.  a and
    root are formed from lam*m, with omega and the other terms scaled by
    lam too, and lam*den < 1/2 keeps each of them below |m| in size: the
    root is finite for every finite m.  lam is a power of two, so the
    scaling is exact and moves no bit while no term overflows or falls
    below the normal range.
    """
    ga, sq, gd, omega, gaw2, g2b, lam = consts
    m = xi - gd
    ml = m * lam
    t = ga * (ml - omega)
    root = np.hypot(t, sq)
    a = ga * (ml + omega) + ml
    d = a + root
    return np.where(a > 0.0, (ml + gaw2) * (m / d) - g2b / d, m - g2b / (root - t))


# The interval-prox kernels take (lo, hi) first and clamp the prox of phi
# into [lo, hi]; phi.prox on its own is the case lo = -inf, hi = inf.


def _clamp(s, lo, hi):
    return np.minimum(np.maximum(s, lo), hi)


def _at_zero(lo, hi, g):
    """gamma*sup of the capacity at 0 from g = gamma*sup dphi(0): finite where 0 is in [lo, hi)."""
    return np.where((lo <= 0.0) & (hi > 0.0), g, -np.inf)


def _affine_prepare(gamma, lo, hi, a):
    return lo, hi, gamma * a


def _affine_solve(xi, consts, start):
    lo, hi, ga = consts
    return _clamp(xi - ga, lo, hi)


def _quadratic_prepare(gamma, lo, hi, a):
    return lo, hi, 1.0 + gamma * a


def _quadratic_solve(xi, consts, start):
    lo, hi, den = consts
    return _clamp(xi / den, lo, hi)


def _power_prepare(gamma, lo, hi, q):
    return lo, hi, gamma, -1.5 * gamma, 2.25 * gamma * gamma, 1.0 + 2.0 * gamma, q == 1.0, q == 2.0


def _power_solve(xi, consts, start):
    lo, hi, gamma, b, disc, den, q1, q2 = consts
    mag = np.abs(xi)
    # q = 3/2: substitute u = sqrt(|s|); u solves u**2 + 1.5*gamma*u = |xi|
    u = 0.5 * (b + np.sqrt(disc + 4.0 * mag))
    s = np.where(
        q1,
        np.copysign(np.maximum(mag - gamma, 0.0), xi),
        np.where(q2, xi / den, np.copysign(u * u, xi)),
    )
    return _clamp(s, lo, hi)


def _custom_prepare(gamma, lo, hi):
    return lo, hi, gamma


_bpr_kernel = _Kernel(_bpr_prepare, _bpr_solve, lambda gamma, alpha, rho, theta, p: gamma * theta)
_lambert_kernel = _Kernel(_lambert_prepare, _lambert_solve, lambda gamma, is_log, a, theta: gamma * theta)
_trc_kernel = _Kernel(_trc_prepare, _trc_solve, _trc_free_flow)
_affine_kernel = _Kernel(_affine_prepare, _affine_solve, lambda gamma, lo, hi, a: _at_zero(lo, hi, gamma * a))
_quadratic_kernel = _Kernel(_quadratic_prepare, _quadratic_solve, lambda gamma, lo, hi, a: _at_zero(lo, hi, 0.0))
# |s| (q = 1) has sup dphi(0) = 1; |s|**1.5 and s**2 have 0
_power_kernel = _Kernel(
    _power_prepare, _power_solve, lambda gamma, lo, hi, q: _at_zero(lo, hi, np.where(q == 1.0, gamma, 0.0))
)


def _stack(rows, n, width):
    """n tuples of `width` floats as an (n, width) array."""
    flat = np.fromiter(itertools.chain.from_iterable(rows), float, n * width)
    return flat.reshape(n, width)


def _table(rows):
    """Per-arc parameter tuples as one (n_params, n) float table, a row per parameter."""
    return _stack(rows, len(rows), len(rows[0])).T.copy()


def _call1(kernel, gamma, xi, params):
    """A kernel at a single point: the size-1 batch.

    gamma must be finite and positive, as `solver.step_parameters`
    requires of every step parameter; ConfigurationError otherwise.
    """
    gamma_xi = np.array([[gamma], [xi]], dtype=float)
    if not (math.isfinite(gamma_xi[0, 0]) and gamma_xi[0, 0] > 0):
        raise ConfigurationError(f"resolvent parameter must be finite and positive, got {gamma!r}")
    return float(kernel(gamma_xi[0], gamma_xi[1], *_table([params]))[0])


class _Capacity:
    """Scalar capacity spec whose resolvent is the size-1 case of its family kernel.

    Its subdifferential is the single value {value(s)}, or None outside the
    domain, where `value` returns None.
    """

    def resolvent(self, gamma, xi):
        kernel, params = self.family()
        return _call1(kernel, gamma, xi, params)

    def subdiff(self, s):
        v = self.value(s)
        return None if v is None else (v, v)


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
        # log1p keeps the digits that log(omega/(omega - s)) loses for small |s|
        return self.theta + math.log1p(s / (self.omega - s))

    def family(self):
        return _lambert_kernel, (True, self.omega, self.theta)


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
        root = math.sqrt(self.alpha**2 * d * d + self.beta)
        if d > 0:
            return self.delta + self.alpha * d + root
        # alpha*d + root cancels for d << 0; its conjugate form does not
        return self.delta + self.beta / (root - self.alpha * d)

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

    def family(self):
        return _lambert_kernel, (False, self.p * math.log(self.alpha), self.theta)


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
    """phi(s) = a*s."""

    a: float

    def __post_init__(self):
        _require(math.isfinite(self.a), "AffinePhi requires a finite coefficient")

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
class CustomPhi(_Phi):
    """Escape hatch: user-supplied scalar prox and subdifferential, both required.

    Each instance carries its own kernel, whose solve calls `prox_fn` once
    per element, so the arcs sharing an instance form one family, solved
    in one call per sweep; arcs given an instance each take a call each.
    """

    prox_fn: Callable[[float, float], float]
    subdiff_fn: Callable[[float], Optional[tuple]]

    def __post_init__(self):
        _require(callable(self.subdiff_fn), "CustomPhi requires a callable subdiff_fn")
        object.__setattr__(self, "_kernel", _Kernel(_custom_prepare, self._prox_solve))

    def _prox_solve(self, xi, consts, start):
        """The scalar fallback: one prox_fn call per element."""
        lo, hi, gamma = consts
        s = [self.prox_fn(g, x) for g, x in zip(gamma.tolist(), xi.tolist())]
        return _clamp(np.array(s, dtype=float), lo, hi)

    def prox_family(self):
        return self._kernel, ()

    def subdiff(self, s):
        return self.subdiff_fn(s)


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
        _require(_holds_a_real(self.lo, self.hi), "IntervalProx requires lo <= hi, lo < inf and hi > -inf")
        _require(
            isinstance(self.phi, _Phi),
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
        kernel, params = self.phi.prox_family()
        return kernel, (self.lo, self.hi) + params


# --------------------------------------------------------------------------
# lifts, constraint sets, supplies
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparableLift:
    """An arc's scalar capacity cost, acting on the arc's total flux.

    The arc block resolves it together with the arc's box
    (`OperatorSet.capacity_resolvent`).  `resolvent` is that block's
    resolvent only for a free box: it shifts every coordinate by
    eta = (J_{C*gamma*c}(sum x) - sum x) / C, where C is the number of
    commodities.  No run calls it; it stays as a size-1 reference for
    the tests and the benchmark's layer timings.
    """

    scalar: object

    def __post_init__(self):
        _require(hasattr(self.scalar, "family"), "SeparableLift needs a scalar capacity spec")

    def resolvent(self, gamma, x):
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        total = float(np.sum(x))
        eta = (self.scalar.resolvent(n * gamma, total) - total) / n
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
        _require(all(map(_holds_a_real, lo, hi)), "Box requires lo <= hi, lo < inf and hi > -inf")

    @staticmethod
    def orthant(n_commodities):
        """The nonnegative orthant of R^C."""
        return Box((0.0,) * n_commodities, (math.inf,) * n_commodities)

    @staticmethod
    def free(n_commodities):
        """All of R^C (no constraint)."""
        return Box((-math.inf,) * n_commodities, (math.inf,) * n_commodities)


@dataclass(frozen=True)
class ArcOperator:
    """Flow-tension relation of one arc: capacity lift plus constraint cone."""

    q: SeparableLift
    r: Box


@dataclass(frozen=True)
class FixedSupply:
    """Node relation pinning the divergence to a constant, finite supply vector."""

    supply: tuple

    def __post_init__(self):
        supply = _float_tuple(self.supply)
        _require(all(map(math.isfinite, supply)), f"supply must be finite, got {supply}")
        object.__setattr__(self, "supply", supply)


BALANCE_TOL = 1e-12
# a free-flow threshold's relative margin: about 2**12 times the few ulp
# by which it and the kernels' own kink, formed from gamma and the
# parameters in other operations, can differ; a row within it of the
# threshold goes to its kernel
_SCREEN_MARGIN = 2.0**-40


def _component_roots(network):
    """Per node, the least node index in its weakly connected component.

    Each pass hooks the larger of the two labels an arc joins onto the
    smaller, then follows every label to its root; labels are always
    roots at the top of the loop, so it stops once no arc joins two.
    """
    label = np.arange(network.n_nodes)
    while True:
        lt, lh = label[network.tails], label[network.heads]
        if np.array_equal(lt, lh):
            return label
        np.minimum.at(label, np.maximum(lt, lh), np.minimum(lt, lh))
        up = label[label]
        while not np.array_equal(up, label):
            label, up = up, up[up]


class _Binding:
    """`OperatorSet.bind`'s result: the family kernels' constants for one gamma.

    `table` holds every family's prepared constants, an (n_consts, m*C)
    float table each, side by side in `OperatorSet._perm` order, so the
    constants of any rows are gathered with one ``take``; `rows` is each
    family's n_consts, its rows of the table (the rest of its columns is
    0).  `at_k` memoizes the table's columns at each arc's k for a sweep
    of every arc, in family order, and `k` is the k they were gathered at
    (-1 before the first sweep).  `screen` holds each arc's free-flow
    threshold, in ascending arc order (see `OperatorSet.bind`).
    """

    __slots__ = ("table", "rows", "k", "at_k", "screen")

    def __init__(self, consts, screen):
        self.screen = screen
        self.rows = [c.shape[0] for c in consts]
        self.table = np.concatenate([np.pad(c, ((0, max(self.rows) - c.shape[0]), (0, 0))) for c in consts], 1)
        self.k = -1
        self.at_k = None


class OperatorSet:
    """Per-arc and per-node operator specs bound to one network.

    Stacks the box bounds into (n_arcs, C) arrays and the supplies into an
    (n_nodes, C) array, and groups the arcs by capacity family with each
    family's parameters as per-arc arrays, so the solver can evaluate
    whole blocks at once.  The supplies of each commodity must balance on
    every weakly connected component, since a flow moves supply only
    along arcs: a component and commodity whose |sum of supplies| exceeds
    BALANCE_TOL times its sum of |supplies| raises, naming the commodity
    and a node of the component.
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
        self._check_balance()

        # (kernel, arc indices, (n_params, m) parameter table) per family
        self.families = tuple(
            (kernel, np.array(arcs, dtype=np.intp), _table(rows))
            for kernel, (arcs, rows) in groups.items()
        )
        # `_perm` lists every arc in family order, ascending within each
        # family, and `_family_ends` where each family's run ends in it;
        # `_rank` is each arc's place in `_perm` (`_in_order` when that is
        # the arc itself), and `_arc_slot` the column of the bound table
        # (see `bind`) that holds its constants at k = 0, to which `_roots`
        # adds k
        self._perm = np.concatenate([arcs for _, arcs, _ in self.families])
        self._family_ends = np.cumsum([arcs.size for _, arcs, _ in self.families])
        self._rank = np.argsort(self._perm)
        self._in_order = bool(np.array_equal(self._perm, np.arange(n_arcs)))
        self._arc_slot = self._rank * n_comm - 1
        # the flat index of every (arc, commodity) entry of a flow
        self._entries = np.arange(n_arcs * n_comm).reshape(n_arcs, n_comm)

    def _check_balance(self):
        net = self.network
        n_comm = net.n_commodities
        slots = (_component_roots(net)[:, None] * n_comm + np.arange(n_comm)).ravel()
        size = net.n_nodes * n_comm
        # scaled exactly by 2**-shift, 2**shift > n_nodes, so no sum of a
        # component's supplies overflows
        shift = net.n_nodes.bit_length()
        supplies = np.ldexp(self.supplies, -shift).ravel()
        net_supply = np.bincount(slots, supplies, size)
        scale = np.bincount(slots, np.abs(supplies), size)
        unbalanced = (np.abs(net_supply) > BALANCE_TOL * scale).nonzero()[0]
        if unbalanced.size:
            root, c = divmod(int(unbalanced[0]), n_comm)
            with np.errstate(over="ignore"):  # a sum beyond the float range reads inf
                total = float(np.ldexp(net_supply[unbalanced[0]], shift))
            raise ConfigurationError(
                f"commodity {net.commodities[c]!r}: supplies sum to {total!r}, "
                f"not 0, over the nodes connected to {net.nodes[root]!r}"
            )

    def bind(self, gamma):
        """The family kernels' constants at k*gamma for k = 1, ..., C.

        `gamma` holds one entry per arc, and C is the commodity count.  A
        family of m arcs is prepared once on m*C elements: element
        member*C + k - 1 at k times its arc's gamma, the parameter at which
        `capacity_resolvent` solves an arc with k of its commodities off
        their bounds.  The families' constants sit side by side in one
        table (see `_Binding`), so arc j's constants at k are its column
        `_arc_slot[j] + k`.  `capacity_resolvent` takes the result, so a run
        whose step parameters stay fixed binds once.  The binding also
        memoizes the constants a sweep of every arc gathers at the arcs'
        k, for as long as no arc's k changes: with one commodity, for the
        whole run.

        It also holds each arc's free-flow threshold t, which
        `capacity_resolvent` screens its rows with.  An arc's block
        resolvent at xi is lo exactly when xi - lo lies in
        gamma*c(L)*1 + gamma*N_B(lo), L = sum lo: when max(xi - lo) <=
        gamma*c+(L), with c+ the largest value of c.  For an arc whose
        lower bounds are all 0 (L = 0) that is the family kernel's
        `free_flow` at its gamma, taken from the kernel's parameters
        alone, never from the specs' `value` or `subdiff`; every other
        arc, and a family whose kernel does not say (CustomPhi), gets
        -inf and is never screened.  t is that value less _SCREEN_MARGIN
        of its size, and a row is screened only strictly below it.
        """
        n_comm = self.network.n_commodities
        ks = np.arange(1, n_comm + 1)
        screen = np.full(len(self.arc_operators), -np.inf)
        with np.errstate(all="ignore"):
            for kernel, arcs, params in self.families:
                screen[arcs] = kernel.free_flow(gamma[arcs], *params)
            screen = np.where(np.any(self.box_lo, 1), -np.inf, screen - _SCREEN_MARGIN * np.abs(screen))
            return _Binding(
                [
                    np.array(kernel.prepare(np.outer(gamma[arcs], ks).ravel(), *params.repeat(n_comm, 1)), float)
                    for kernel, arcs, params in self.families
                ],
                screen,
            )

    def _consts_at(self, bound, k):
        """Each family's bound constants at each member's k, for a sweep of every arc."""
        if bound.k is not k and np.count_nonzero(bound.k != k):
            bound.at_k = bound.table.take((self._arc_slot + k).take(self._perm), 1)
            bound.k = k
        return bound.at_k

    def _roots(self, arcs, bound, total, k, start):
        """Family kernel roots J_{k*gamma*c}(total), one per row, written over `start`.

        `arcs` lists the rows' arcs in family order (ascending within each
        family, as `_perm` lists them), or is None for every arc in
        ascending order.  `k` holds each row's commodity count k (or is
        the one count of every row); `start` holds each row's earlier root
        (nan for a cold start).  Each family's run of rows is solved in
        one call: the rows of a sweep of every arc are put in family order
        for it, and their roots put back, unless the arcs come in family
        order already; any other call finds the runs with one search.
        """
        if arcs is None:
            table, ends = self._consts_at(bound, k), self._family_ends.tolist()
            total, roots = (total, start) if self._in_order else (total.take(self._perm), start.take(self._perm))
        else:
            table = bound.table.take(self._arc_slot.take(arcs) + k, 1)
            ends, roots = self._rank.take(arcs).searchsorted(self._family_ends).tolist(), start
        b = 0
        for (kernel, _, _), n, e in zip(self.families, bound.rows, ends):
            if e > b:
                roots[b:e] = kernel.solve(total[b:e], table[:n, b:e], roots[b:e])
            b = e
        if roots is not start:
            start.put(self._perm, roots)
        return start

    def capacity_resolvent(self, arcs, bound, xi, start=None, guess=None):
        """Resolvents of the listed arcs' blocks, capacity and box together, one row each.

        An arc's block is the cost on its total flux plus the normal cone
        of its box B = [lo, hi], so its resolvent at xi is the x with
        xi - x in gamma*c(sum x)*1 + gamma*N_B(x): x = clamp(xi + eta,
        lo, hi) for one shift eta.  Where k commodities end strictly
        inside their bounds and the rest sit on one, sum x = S_k + k*eta,
        with S_k the sum of the free xi and of the bounds, so the total
        T = sum x is J_{k*gamma*c}(S_k), the family kernel at k*gamma, and
        eta = (T - S_k)/k.  eta is unique, since eta + gamma*c(T(eta))
        increases strictly in eta.  With one commodity x = clamp(T, lo,
        hi), T = J_{gamma*c}(xi).

        With C > 1 the free set is guessed: the commodities strictly
        inside their bounds in `guess` (a point of each row's box, say
        the arc's previous output; None takes clamp(xi, lo, hi)), plus
        the commodity with the largest xi - lo, which is off its lower
        bound whenever any commodity is.  One kernel call per family
        solves the guess, and a row keeps its result when the clamp
        reproduces the guessed pattern.  It keeps it too when every free
        commodity ends below its lower bound and none was guessed on an
        upper one: then the row sits wholly on its lower bounds at the
        resolvent, which the clamp gives exactly (an unused arc of an
        orthant).  The other rows, rare near a solution, are solved by
        variable fixing (`_fix_variables`).

        `arcs` holds distinct arc indices in ascending order, and row j
        of the (len(arcs), C) arrays `xi` and `guess` belongs to arc
        arcs[j].  `bound` is `bind(gamma)` for the per-arc step
        parameters gamma; a partial sweep gathers the constants of its
        arcs from it.  `start` is a float array with one entry per row:
        the kernel's root for that arc at an earlier call, which the
        iterative kernels start from; nan is a cold start, and None is
        the all-nan start.  It is overwritten with this call's roots,
        except for a row that the free-flow screen (see `bind`) puts on
        its lower bounds without a kernel call: with C > 1, a row whose
        arc has lower bounds 0 and whose largest xi stays below the
        arc's threshold gamma*c+(0).  That row keeps its start.  Each row
        depends only on its own xi, guess and start.  The rows of
        a partial set of arcs are solved in family order (see `_roots`)
        and come back in the order given.
        """
        if start is None:
            start = np.full(len(xi), np.nan)
        with np.errstate(all="ignore"):
            if arcs.size == self.network.n_arcs:
                return self._capacity_resolvent(None, bound, xi, start, guess)
            order = np.argsort(self._rank[arcs])  # the rows in family order
            x, roots, guess = np.empty(xi.shape), start[order], guess if guess is None else guess[order]
            x[order] = self._capacity_resolvent(arcs[order], bound, xi[order], roots, guess)
            start[order] = roots
            return x

    def _capacity_resolvent(self, arcs, bound, xi, start, guess):
        """`capacity_resolvent` with a start array and warnings left to the caller.

        `arcs` lists the rows' arcs in family order, or is None for every
        arc in ascending order (see `_roots`).
        """
        n_rows, n_comm = xi.shape
        if arcs is None:
            lo, hi = self.box_lo, self.box_hi
        else:
            lo, hi = self.box_lo.take(arcs, 0), self.box_hi.take(arcs, 0)
        if n_comm == 1:
            root = self._roots(arcs, bound, xi[:, 0], 1, start)
            return np.minimum(np.maximum(root[:, None], lo), hi)
        fall = lo - xi
        top = fall.argmin(1)  # each row's top commodity, the largest xi - lo
        low = fall.take(top + self._entries[:n_rows, 0])
        # a row whose largest xi - lo is below its arc's free-flow threshold
        # rests on its lower bounds (see `bind`): only the others are solved
        rest = low > -(bound.screen if arcs is None else bound.screen.take(arcs))
        if not np.count_nonzero(rest):
            return self._solve_rows(arcs, bound, xi, lo, hi, top, low, start, guess)
        x = lo.copy()
        live = self._perm.compress(~rest.take(self._perm)) if arcs is None else (~rest).nonzero()[0]
        if live.size:
            pick, guess = start.take(live), guess if guess is None else guess.take(live, 0)
            xi, lo, hi, top, low = (a.take(live, 0) for a in (xi, lo, hi, top, low))
            x[live] = self._solve_rows(live if arcs is None else arcs.take(live), bound, xi, lo, hi, top, low, pick, guess)
            start.put(live, pick)
        return x

    def _solve_rows(self, arcs, bound, xi, lo, hi, top, low, start, guess):
        """`_capacity_resolvent` for C > 1 on unscreened rows, by their family kernels.

        `top` holds each row's top commodity and `low` its lo - xi.
        """
        n_rows = len(xi)
        if guess is None:
            guess = np.minimum(np.maximum(xi, lo), hi)
        top = top + self._entries[:n_rows, 0]  # flat index of each row's top commodity
        free = (guess > lo) & (guess < hi)
        free.put(top, True)
        k = np.add.reduce(free, 1)
        base = np.where(free, xi, guess)  # a fixed commodity at its bound in guess
        total = np.add.reduce(base, 1)
        root = self._roots(arcs, bound, total, k, start)
        eta = (root - total) / k
        y = xi + eta[:, None]
        x = np.minimum(np.maximum(y, lo), hi)
        agree = x == np.where(free, y, base)
        # below the top commodity's lower breakpoint every commodity is on
        # its lower bound, as the clamp gives it; that holds at the resolvent
        # unless a commodity was guessed on its upper bound
        agree |= free & (eta < low)[:, None]
        if np.count_nonzero(agree) != agree.size:
            # the rows to fix, in family order (in a sweep of every arc, row j is arc j)
            miss = ~agree.all(1)
            miss = self._perm.compress(miss.take(self._perm)) if arcs is None else miss.nonzero()[0]
            pick, fixing = start[miss], miss if arcs is None else arcs[miss]
            x[miss] = self._fix_variables(fixing, bound, xi[miss], lo[miss], hi[miss], pick)
            start[miss] = pick
        return x

    def _fix_variables(self, arcs, bound, xi, lo, hi, start):
        """`capacity_resolvent` rows by variable fixing, from the all-free pattern.

        `arcs` lists the rows' arcs in family order.  Each pass solves the
        rows' current patterns, as `capacity_resolvent` does, and finishes
        a row whose clamp leaves every free commodity inside its bounds.
        Otherwise the side whose free commodities overshoot their bounds
        by more in total is fixed at those bounds: by the monotonicity of
        eta + gamma*c(T(eta)), they sit there at the resolvent (the
        variable fixing of Kiwiel, Math. Program. 112, 2008).  A row that
        has fixed every commodity is finished too, so every pass fixes a
        commodity of each row it leaves live, and at most C passes run.
        """
        x, fixed = xi.copy(), np.zeros(xi.shape, dtype=bool)  # x holds the fixed bounds
        live = np.arange(len(xi))
        while live.size:
            was, lo_l, hi_l = fixed[live], lo[live], hi[live]
            base = np.where(was, x[live], xi[live])
            total = np.add.reduce(base, 1)
            k = np.add.reduce(~was, 1)
            root = start[live]
            start[live] = self._roots(arcs[live], bound, total, k, root)
            y = np.where(was, base, base + ((root - total) / k)[:, None])
            below, above = y < lo_l, y > hi_l
            under = np.add.reduce(np.where(below, lo_l - y, 0.0), 1)
            over = np.add.reduce(np.where(above, y - hi_l, 0.0), 1)
            side = np.where((under >= over)[:, None], below, above)
            x[live] = np.where(side, np.where(below, lo_l, hi_l), y)
            fixed[live] = now = was | side
            live = live[side.any(1) & ~now.all(1)]
        return x
