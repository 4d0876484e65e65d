"""Small random feasible problems, for end-to-end solves of many instances.

``random_problem(seed, span)`` draws, from ``numpy.random.default_rng(seed)``:

- n = integers(3, 9) nodes and C = integers(1, 4) commodities;
- a ring of arcs i -> i+1 (mod n), then its reverse i+1 -> i, then
  integers(0, 2n) arcs between two distinct random nodes;
- a flow x0 = exponential(1, (m, C)) * (random((m, C)) < 0.4) on the m
  arcs, with per-arc totals tot;
- for each arc in turn a family, integers(0, 5), then its parameters in
  argument order, each a draw 10**uniform(-log10 span, log10 span):
  BPR(alpha, rho, theta, p in {1, 2, 4, 8}),
  Logarithmic(omega = tot*(1 + draw) + 1e-3, theta),
  TRC(alpha, beta, delta, omega), PowerExp(alpha = 1 + draw, theta, p) or
  IntervalProx(AffinePhi(a), 0, tot*(1 + draw) + 1e-3).

Every box is the orthant and the supplies are the divergence of x0, so x0
is strictly feasible.  The scheduler is Full, RoundRobin(2) or
RandomSweep(seed, 0.5), by seed mod 3, and max_iter is 20,000.  At span 3
every parameter is within a factor of 3 of 1.
"""

import math

import numpy as np

import netequil as nq
from netequil.fileio import Problem

MAX_ITER = 20_000


def _capacity(rng, family, total, draw):
    if family == 0:
        return nq.BPR(draw(), draw(), draw(), p=float(rng.choice([1, 2, 4, 8])))
    if family == 1:
        return nq.Logarithmic(total * (1.0 + draw()) + 1e-3, draw())
    if family == 2:
        return nq.TRC(draw(), draw(), draw(), draw())
    if family == 3:
        return nq.PowerExp(1.0 + draw(), draw(), draw())
    return nq.IntervalProx(nq.AffinePhi(draw()), 0.0, total * (1.0 + draw()) + 1e-3)


def random_problem(seed, span=3.0):
    """The problem of `seed` at `span`, as a `fileio.Problem` (see the module docstring)."""
    rng = np.random.default_rng(seed)
    n, C = int(rng.integers(3, 9)), int(rng.integers(1, 4))
    pairs = [(i, (i + 1) % n) for i in range(n)] + [((i + 1) % n, i) for i in range(n)]
    pairs += [tuple(rng.choice(n, 2, replace=False).tolist()) for _ in range(int(rng.integers(0, 2 * n)))]
    m = len(pairs)
    x0 = rng.exponential(1.0, (m, C)) * (rng.random((m, C)) < 0.4)
    total = x0.sum(axis=1)
    log_span = math.log10(span)

    def draw():
        return 10.0 ** rng.uniform(-log_span, log_span)

    specs = [_capacity(rng, int(rng.integers(0, 5)), total[j], draw) for j in range(m)]
    net = nq.Network([f"n{i}" for i in range(n)], [(f"n{t}", f"n{h}") for t, h in pairs], C)
    box = nq.Box.orthant(C)
    ops = nq.OperatorSet(
        net,
        [nq.ArcOperator(nq.SeparableLift(spec), box) for spec in specs],
        [nq.FixedSupply(tuple(row)) for row in net.divergence(x0).tolist()],
    )
    scheduler = (nq.Full(), nq.RoundRobin(2), nq.RandomSweep(seed, 0.5))[seed % 3]
    config = nq.SolverConfig(scheduler=scheduler, max_iter=MAX_ITER)
    return Problem(net, tuple(f"a{j}" for j in range(m)), ops, config)
