"""Seeded instance generators for the three workloads.

Every generator is a pure function of (seed, index): the same pair always
yields the same network, operators and solver settings.  All identifiers
(nodes, arcs, commodities) are strings without spaces, because
`serialize_problem` writes tuple or integer ids that `parse_problem` does
not read back as the same value.

Each workload is one fixed layout (topology, OD pairs, family of every
arc) whose cost parameters and demands the seed jitters by JITTER, with the
seed also drawing the random-sweep stream.  The family is kept this narrow
on purpose: iteration counts then stay within about 5% of each other from
seed to seed, so the median over a handful of instances is steady.  Mirroring
the OD offsets or jittering by 10% spreads mixed_sweep iteration counts
over 1,400-4,000.  Short OD pairs (two or three hops) keep the splitting
method near 600 iterations on the 10x10 grid; corner-to-corner pairs on the
same grid need more than 4,000.
"""

from dataclasses import dataclass

import numpy as np

import netequil as nq
from netequil import fileio

TOL = 1e-6
MAX_ITER = 20_000  # budget per solve; every workload converges far below it
JITTER = 0.03


@dataclass
class Instance:
    label: str
    network: object
    operators: object
    config: object
    families: tuple  # family name per arc

    def size(self):
        net = self.network
        counts = {name: self.families.count(name) for name in sorted(set(self.families))}
        return {
            "arcs": net.n_arcs,
            "nodes": net.n_nodes,
            "commodities": net.n_commodities,
            "families": counts,
        }

    def problem(self):
        arc_ids = tuple(f"a{j}" for j in range(self.network.n_arcs))
        return fileio.Problem(self.network, arc_ids, self.operators, self.config)


def family_name(spec):
    return {
        nq.BPR: "bpr",
        nq.Logarithmic: "log",
        nq.TRC: "trc",
        nq.PowerExp: "powerexp",
        nq.IntervalProx: "prox",
    }[type(spec)]


def _grid(k):
    """Bidirectional k x k grid: node ids r{i}c{j}, both directions of every edge."""
    nodes = [f"r{i}c{j}" for i in range(k) for j in range(k)]
    arcs = []
    for i in range(k):
        for j in range(k):
            for a, b in ((i, j + 1), (i + 1, j)):
                if a < k and b < k:
                    arcs.append((f"r{i}c{j}", f"r{a}c{b}"))
                    arcs.append((f"r{a}c{b}", f"r{i}c{j}"))
    return nodes, arcs


def _od_supplies(rng, k, sources, n_comm, demand, offset=(1, 2)):
    """Supplies for short OD pairs: one pair per (commodity, source) entry.

    `sources` lists (commodity, row, col); each destination is the source
    moved by `offset`.
    """
    di, dj = offset
    supplies = np.zeros((k * k, n_comm))
    for c, i, j in sources:
        q = demand * rng.uniform(1 - JITTER, 1 + JITTER)
        supplies[i * k + j, c] += q
        supplies[(i + di) * k + (j + dj), c] -= q
    return supplies


def _assemble(label, nodes, arcs, commodities, specs, supplies, config):
    net = nq.Network(nodes, arcs, commodities)
    box = nq.Box.orthant(len(commodities))
    ops = nq.OperatorSet(
        net,
        [nq.ArcOperator(nq.SeparableLift(spec), box) for spec in specs],
        [nq.FixedSupply(tuple(row)) for row in supplies],
    )
    return Instance(label, net, ops, config, tuple(family_name(s) for s in specs))


def grid_full(seed, index):
    """10x10 grid (360 arcs), BPR p=4, one commodity, four short OD pairs, Full."""
    rng = np.random.default_rng([seed, 1, index])
    k = 10
    nodes, arcs = _grid(k)

    def u():
        return float(rng.uniform(1 - JITTER, 1 + JITTER))

    specs = [nq.BPR(alpha=0.15, rho=u(), theta=u(), p=4.0) for _ in arcs]
    lo, hi = 2, 7  # quadrant centres
    sources = [(0, lo, lo), (0, lo, hi), (0, hi, lo), (0, hi, hi)]
    supplies = _od_supplies(rng, k, sources, 1, 2.0)
    config = nq.SolverConfig(tol=TOL, max_iter=MAX_ITER)
    return _assemble(f"grid_full/{index}", nodes, arcs, ["c0"], specs, supplies, config)


def mixed_sweep(seed, index):
    """7x7 grid (168 arcs), all five families, three commodities, RandomSweep(0.3)."""
    rng = np.random.default_rng([seed, 2, index])
    k = 7
    nodes, arcs = _grid(k)

    def u():
        return float(rng.uniform(1 - JITTER, 1 + JITTER))

    specs = []
    for j in range(len(arcs)):
        family = j % 5
        if family == 0:
            specs.append(nq.BPR(alpha=0.15, rho=u(), theta=u(), p=4.0))
        elif family == 1:
            specs.append(nq.Logarithmic(omega=8.0 * u(), theta=u()))
        elif family == 2:
            specs.append(nq.TRC(alpha=0.5 * u(), beta=0.1 * u(), delta=u(), omega=u()))
        elif family == 3:
            specs.append(nq.PowerExp(alpha=2.0 * u(), theta=u(), p=0.2 * u()))
        else:
            # a toll arc with a finite capacity interval [0, hi]
            specs.append(nq.IntervalProx(nq.AffinePhi(a=2.0 * u()), lo=0.0, hi=10.0 * u()))
    lo, hi = 2, 4
    sources = [(0, lo, lo), (1, lo, hi), (2, hi, lo)]
    supplies = _od_supplies(rng, k, sources, 3, 2.0)
    sweep = nq.RandomSweep(seed=int(rng.integers(2**31)), activation_prob=0.3)
    config = nq.SolverConfig(tol=TOL, max_iter=MAX_ITER, scheduler=sweep, T=3)
    return _assemble(
        f"mixed_sweep/{index}", nodes, arcs, ["c0", "c1", "c2"], specs, supplies, config
    )


def cli_file(seed, index):
    """4x4 grid (48 arcs), BPR/Log/TRC/PowerExp in equal shares, two commodities.

    IntervalProx is left out on purpose: the oracle gives it no slack at its
    interval bounds, so `solve` would spend its whole budget in the
    tighten-and-rerun loop on every file (see NOTES.md).
    """
    rng = np.random.default_rng([seed, 3, index])
    k = 4
    nodes, arcs = _grid(k)

    def u():
        return float(rng.uniform(1 - JITTER, 1 + JITTER))

    makers = (
        lambda: nq.BPR(alpha=0.15, rho=u(), theta=u(), p=4.0),
        lambda: nq.Logarithmic(omega=8.0 * u(), theta=u()),
        lambda: nq.TRC(alpha=0.5 * u(), beta=0.1 * u(), delta=u(), omega=u()),
        lambda: nq.PowerExp(alpha=2.0 * u(), theta=u(), p=0.2 * u()),
    )
    specs = [makers[j % 4]() for j in range(len(arcs))]
    sources = [(0, 1, 1), (1, 2, 2)]
    supplies = _od_supplies(rng, k, sources, 2, 2.0, offset=(1, 1))
    config = nq.SolverConfig(tol=TOL, max_iter=MAX_ITER)
    return _assemble(f"cli_roundtrip/{index}", nodes, arcs, ["c0", "c1"], specs, supplies, config)
