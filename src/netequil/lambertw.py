"""Principal-branch Lambert W function and a large-argument companion.

``lambert_w(x)`` inverts w * exp(w) = x for x >= -1/e by Halley iteration.
Near the branch point -1/e it starts from a series in
p = sqrt(2*(e*x + 1)); for x >= -0.25 from Winitzki's approximation
L*(1 - log(1 + L)/(2 + L)) with L = log(1 + x), which is within 2% of
W(x) for x >= 0 and within 4% on [-0.25, 0).  Convergence is declared at
|dw| <= 1e-15 * (1 + |w|), which the cubic rate of Halley turns into a
residual |w*exp(w) - x| of a few ulp.

``lambert_w_exp(z, start)`` evaluates W(exp(z)) for any real z.  When
exp(z) would overflow it instead solves w + log(w) = z by Newton
iteration; the capacity resolvents route through it so that transiently
huge arguments inside the solver loop stay finite.  An optional `start`
(say, the W an element had at its previous evaluation) replaces
Winitzki's approximation as Halley's starting point where it lies within
_WARM_SPAN (5%) of it; a start farther away, or nan, is ignored.

Both functions take a float or an array and work elementwise.  Each
iteration runs on the array of still-unconverged elements only, so an
element's result depends on its own argument (and start), never on which
other elements share its call; a float argument is the size-1 case and
returns a float.
"""

import math

import numpy as np

_BRANCH_POINT = -math.exp(-1.0)
# beyond this, form W(exp(z)) without evaluating exp(z)
_EXP_SWITCH = 700.0 * math.log(2.0)
_MAX_ITER = 50
# Winitzki is within 2% of W for x >= 0, so a start farther than this from
# it is no better; Halley from far off moves w by only about 2 per pass
_WARM_SPAN = 0.05


def _as_batch(x):
    """(1-d float array, function restoring the caller's shape or float)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return arr.reshape(1), lambda w: float(w[0])
    return np.ascontiguousarray(arr).ravel(), lambda w: w.reshape(arr.shape)


def _winitzki(x):
    """Starting point for W(x), x >= -0.25."""
    log_x1 = np.log1p(x)
    return log_x1 * (1.0 - np.log1p(log_x1) / (2.0 + log_x1))


def _start(x, warm):
    """Halley's starting points for W(x), x >= 0: `warm` where it is near Winitzki's."""
    w = _winitzki(x)
    if warm is None:
        return w
    return np.where(np.abs(warm - w) <= _WARM_SPAN * w, warm, w)


def _halley(x, w):
    """Refine starting points w toward W(x) elementwise, for x > -1/e."""
    out = np.empty_like(x)
    idx = np.arange(x.size)
    for _ in range(_MAX_ITER):
        ew = np.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        dw = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w = w - dw
        done = np.abs(dw) <= 1e-15 * (1.0 + np.abs(w))
        if np.count_nonzero(done):
            out[idx[done]] = w[done]
            more = ~done
            if not np.count_nonzero(more):
                return out
            idx, x, w = idx[more], x[more], w[more]
    out[idx] = w
    return out


def lambert_w(x):
    """Principal branch W(x), defined for x >= -1/e; W(x) >= -1.

    Raises ValueError below the branch point (a couple of ulp of slack
    absorbs rounding in arguments meant to sit exactly on it).
    """
    x, restore = _as_batch(x)
    if np.isnan(x).any():
        raise ValueError("lambert_w: argument is nan")
    below = x < _BRANCH_POINT
    if below.any():
        near = _BRANCH_POINT - x[below] <= 4.0 * math.ulp(_BRANCH_POINT)
        if not near.all():
            bad = float(x[below][~near][0])
            raise ValueError(f"lambert_w: argument {bad!r} is below -1/e")
        x = np.where(below, _BRANCH_POINT, x)
    w = np.full_like(x, -1.0)  # W(-1/e) = -1
    inner = np.flatnonzero(x != _BRANCH_POINT)
    x = x[inner]
    with np.errstate(all="ignore"):
        p = np.sqrt(np.maximum(2.0 * (math.e * x + 1.0), 0.0))
        near_branch = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
        w[inner] = _halley(x, np.where(x < -0.25, near_branch, _winitzki(x)))
    return restore(w)


def lambert_w_exp(z, start=None):
    """W(exp(z)) for any real z, overflow-free.

    For large z this is the root of w + log(w) = z, found by Newton
    steps w <- w * (1 + z - log(w)) / (1 + w) from w0 = z - log(z).
    `start`, of z's shape, holds optional guesses of the result for the
    Halley branch (see the module docstring).
    """
    z, restore = _as_batch(z)
    if start is not None:
        start = _as_batch(start)[0]
    with np.errstate(all="ignore"):
        small = z <= _EXP_SWITCH
        if np.count_nonzero(small) == z.size:
            x = np.exp(z)
            return restore(_halley(x, _start(x, start)))
        out = np.empty_like(z)
        x = np.exp(z[small])
        out[small] = _halley(x, _start(x, None if start is None else start[small]))
        idx = np.flatnonzero(~small)
        zl = z[idx]
        w = zl - np.log(zl)
        for _ in range(_MAX_ITER):
            w_next = w * (1.0 + zl - np.log(w)) / (1.0 + w)
            done = np.abs(w_next - w) <= 1e-15 * (1.0 + np.abs(w_next))
            out[idx[done]] = w_next[done]
            more = ~done
            idx, zl, w = idx[more], zl[more], w_next[more]
            if not idx.size:
                break
        out[idx] = w
    return restore(out)
