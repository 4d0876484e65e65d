"""Lambert W of an exponential, W(exp(z)), for any real z.

``lambert_w_exp(z, start)`` inverts w * exp(w) = exp(z).  When exp(z)
would overflow it instead solves w + log(w) = z by Newton iteration; the
capacity resolvents route through it so that transiently huge arguments
inside the solver loop stay finite.  Below that switch Halley iterates on
w * exp(w) = x, x = exp(z) >= 0, from Winitzki's approximation
L*(1 - log(1 + L)/(2 + L)), L = log(1 + x), which is within 2% of W(x).
It stops from its cubic rate: at the first step |dw| within the radius
min(2**-6 * w, cbrt(eps/8 * w)), taken once from the first pass's w,
which leaves an error far below half an ulp for every W it meets there
(the derivation is in ``_halley``), often a pass earlier than a test
relative to w alone could.  Halley and Newton raise NumericalFailure
rather than return an element they have not converged in _MAX_ITER
passes, and so does a nan or +inf z.  A `start` (say, the W an element
had at its previous evaluation) is Halley's starting point in place of
Winitzki's approximation wherever |w + log(w) - z| <= _WARM_SPAN (2),
that is, wherever w*exp(w) lies within a factor exp(2) of exp(z).  Any
other start, nan, inf, <= 0 or far from the root (10 times it or a
tenth, say), is a cold start, from Winitzki's approximation, so it
returns the cold result bitwise; and Winitzki's approximation is
evaluated only for those elements.  `start` None is the all-nan start.

It takes a float or an array and works elementwise.  Halley iterates
the whole array and freezes each element under a mask at the pass where
it converges; the Newton branch iterates on the array of
still-unconverged elements only.  Either way an element's result depends
on its own argument (and start), never on which other elements share its
call; a float argument is the size-1 case and returns a float.

It silences numpy's floating-point warnings for its own call (one
``np.errstate`` per call), so a nan, zero or infinite start and an
argument of any size leak none.  The Logarithmic/PowerExp kernel in
``operators`` sets no error state of its own and calls
``lambert_w_exp`` once per batch, through the ``operators`` module name,
with z = z0 + z1*xi and the W at which its output formula returns the
arc's earlier root as the start; a solver evaluation thus enters one
error state of its own and this one.  A 1-d float array, as that call
passes, is used as it is, without the copy and reshape that other
arguments take.
"""

import math

import numpy as np

from .errors import NumericalFailure

__all__ = ["lambert_w_exp"]

# beyond this, form W(exp(z)) without evaluating exp(z)
_EXP_SWITCH = 700.0 * math.log(2.0)
_MAX_ITER = 50
_EPS = np.finfo(float).eps
_FLOAT = np.dtype(float)
_RESIDUAL_ULPS = 4.0
# Halley's stop radius, min(_GUARD * w, cbrt(_CUBIC * w)): a step
# within it leaves an error far below half an ulp of w (see _halley)
_GUARD = 2.0**-6
_CUBIC = _EPS / 8.0
# a start w is used where |w + log(w) - z| is at most this (see _start);
# from farther off Halley moves w by only about 2 per pass
_WARM_SPAN = 2.0


def _as_batch(x):
    """(1-d float array, function restoring the caller's shape or float).

    A 1-d float array, as the kernels pass, is its own batch: no copy.
    """
    if type(x) is np.ndarray and x.ndim == 1 and x.dtype == _FLOAT:
        return x, _same
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return arr.reshape(1), lambda w: float(w[0])
    return np.ascontiguousarray(arr).ravel(), lambda w: w.reshape(arr.shape)


def _same(w):
    return w


def _winitzki(x):
    """Starting point for W(x), x >= 0."""
    log_x1 = np.log1p(x)
    return log_x1 * (1.0 - np.log1p(log_x1) / (2.0 + log_x1))


def _start(z, x, start):
    """Halley's starting points for W(x), x = exp(z) <= exp(_EXP_SWITCH).

    An element takes its `start` where that passes one test,
    |w + log(w) - z| <= _WARM_SPAN (2): w*exp(w) lies within a factor
    exp(2) of x, that is, the first Newton step on w + log(w) = z moves w
    by at most 2*w/(1 + w).  Every other element is a cold start, from
    Winitzki's approximation: nan, inf, zero and negative starts fail the
    test, and so does every start 10 times or a tenth of the root
    (|w + log(w) - z| > log(10) for those), from which Halley moves w by
    only about 2 per pass.  So a start that fails returns the cold result
    bitwise, and Winitzki's approximation is evaluated only for the
    elements that fail.  From starts at the edges of the test, with
    |w + log(w) - z| = 2, Halley took at most 4 passes over a fine grid of
    z.  `start` None is the all-nan start.
    """
    if start is None:
        return _winitzki(x)
    near = np.abs(start + np.log(start) - z) <= _WARM_SPAN
    if np.count_nonzero(near) == near.size:
        return start
    far = ~near
    w = start.copy()
    w[far] = _winitzki(x[far])
    return w


def _halley(x, w):
    """Refine starting points w toward W(x) elementwise, for x >= 0.

    Each pass takes the Halley step dw = f / (f' - f * f'' / (2 * f')) of
    f(w) = w*exp(w) - x, and an element stops at the first pass whose step
    passes the stop test; that step is applied.  A stopped element is
    frozen under a mask: later passes still compute its step but no longer
    apply it, so its result does not depend on the other elements.

    The test is |dw| <= radius, with radius = min(2**-6 * w, cbrt(eps/8 * w))
    taken once, from the w of the first pass, and it comes from Halley's
    cubic rate: a step from an error e leaves the error K * e**3 with
    K = (w**2 + 4*w + 6) / (12 * (1 + w)**2), and 1/12 < K <= 1/2 for
    w >= 0, while the step itself is e to within K * e**3.  A step within
    the cubic radius therefore leaves an error of at most
    K * eps/8 * w1 <= eps/16 * w1, w1 the first pass's w, while half an
    ulp of the root W is at least eps/4 * W.  From Winitzki's start w1 is
    within 1e-5 of W, and from every start within the span (see `_start`)
    within a factor 1.3 (checked over a fine grid of z at the span's
    edges), so the error stays below a third of that half ulp.  The 2**-6
    guard keeps the step's own rounding small: a step is computed to about
    eps times the w it starts from, so it must start within a small factor
    of the root.  Below w of about 3e-6 the cubic radius exceeds w/64;
    there the pure cubic test accepts a step several times larger than W
    itself, and warm results near W = 1e-10 drifted 1.5e-15 from the cold
    ones.  The radius exceeds 1e-7 * w, the bound of a test relative to w
    alone with the same accuracy at W = 480, wherever w < 167, and so
    often accepts a pass earlier than it would.

    An element still running after _MAX_ITER passes is accepted if its
    residual |w*exp(w) - x| is at rounding level,
    _RESIDUAL_ULPS * eps * x * (1 + w) (a half-ulp error in w moves
    w*exp(w) by about eps * x * (1 + w) / 2), and otherwise raises
    NumericalFailure.  A start whose step exceeds the radius can land at
    rounding level in one pass: the PowerExp kernel recovers a warm start
    W of about 1e-14 from an output s close to its input, with the
    cancellation error of that difference, beyond 2**-6 * W.  With one
    pass allowed, this acceptance takes such an element; with _MAX_ITER
    passes, the second pass stops it first.  Returns the refined w; the
    array `w` is left as it is.
    """
    for k in range(_MAX_ITER):
        ew = np.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        dw = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        t = w - dw
        if not k:  # the stop radius, from the first pass's w
            radius = np.minimum(_GUARD * t, np.cbrt(_CUBIC * t))
        done = np.abs(dw) <= radius
        if k:
            np.copyto(w, t, where=active)
            active &= ~done
        else:  # every element takes the first step
            w, active = t, ~done
        if not np.count_nonzero(active):
            return w
    rest = active.nonzero()[0]
    x, wr = x[rest], w[rest]
    if np.all(np.abs(wr * np.exp(wr) - x) <= _RESIDUAL_ULPS * _EPS * np.abs(x) * (1.0 + np.abs(wr))):
        return w
    raise NumericalFailure(
        f"Lambert W Halley iteration did not converge in {_MAX_ITER} passes "
        f"(x = {float(x[0])!r}, last w = {float(wr[0])!r})"
    )


def lambert_w_exp(z, start=None):
    """W(exp(z)) for any real z, overflow-free.

    For large z this is the root of w + log(w) = z, found by Newton
    steps w <- w * (1 + z - log(w)) / (1 + w) from w0 = z - log(z), with
    the division taken first where that product overflows (z beyond
    about 1e154), so every finite z has a finite result.
    `start`, of z's shape (ValueError otherwise), holds guesses of the
    result for the Halley branch, nan for none; None is all nan (see the
    module docstring).
    """
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != np.shape(z):
            raise ValueError(f"lambert_w_exp: start has shape {start.shape}, z has shape {np.shape(z)}")
        start = start.ravel()
    z, restore = _as_batch(z)
    with np.errstate(all="ignore"):
        small = z <= _EXP_SWITCH
        if np.count_nonzero(small) == z.size:
            x = np.exp(z)
            return restore(_halley(x, _start(z, x, start)))
        out = np.empty_like(z)
        x = np.exp(z[small])
        out[small] = _halley(x, _start(z[small], x, None if start is None else start[small]))
        idx = np.flatnonzero(~small)
        zl = z[idx]
        bad = ~np.isfinite(zl)
        if bad.any():
            raise NumericalFailure(f"lambert_w_exp: non-finite argument {float(zl[bad][0])!r}")
        w = zl - np.log(zl)
        for _ in range(_MAX_ITER):
            w_next = w * (1.0 + zl - np.log(w)) / (1.0 + w)
            # beyond z of about 1e154 that product overflows; divide first there
            w_next = np.where(w_next < np.inf, w_next, w / (1.0 + w) * (1.0 + zl - np.log(w)))
            done = np.abs(w_next - w) <= 1e-15 * (1.0 + np.abs(w_next))
            out[idx[done]] = w_next[done]
            more = ~done
            idx, zl, w = idx[more], zl[more], w_next[more]
            if not idx.size:
                break
        else:
            raise NumericalFailure(
                f"lambert_w_exp Newton iteration did not converge in {_MAX_ITER} passes "
                f"(z = {float(zl[0])!r}, last w = {float(w[0])!r})"
            )
    return restore(out)
