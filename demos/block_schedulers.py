"""Block-iterative scheduling: activate only some arcs per sweep.

Every iteration may evaluate the capacity resolvents of just a subset of
the arcs, reusing cached outputs for the rest.  Convergence only needs
the sweeping guarantee that each arc is touched at least once in every
window of T+1 iterations.

Flow conservation is one block under every scheduler: the projection
onto the flows that meet the supplies, evaluated at every iteration
after the arcs, at each arc's latest output, fresh or cached.  It costs
one product with a dense n x n matrix per iteration (n nodes; the matrix
is built once per run, about 0.5 ms at 100 nodes and 0.1 s at 900).

This script runs the same Braess-style problem under the three
schedulers and compares iteration counts against the number of resolvent
evaluations actually performed.
"""

import netequil as nq

net = nq.Network(
    ["o", "a", "b", "d"],
    [("o", "a"), ("o", "b"), ("a", "d"), ("b", "d"), ("a", "b")],
    1,
)
coef = [(1.0, 10.0), (50.0, 1.0), (50.0, 1.0), (1.0, 10.0), (10.0, 1.0)]
ops = nq.OperatorSet(
    net,
    [
        nq.ArcOperator(nq.SeparableLift(nq.BPR(alpha=b / a, rho=1.0, theta=a, p=1.0)),
                       nq.Box.orthant(1))
        for a, b in coef
    ],
    [nq.FixedSupply((s,)) for s in [6.0, 0.0, 0.0, -6.0]],
)

SCHEDULES = [
    ("full activation (T=0)", nq.Full(), 0),
    ("round robin, 2 groups (T=1)", nq.RoundRobin(2), 1),
    ("round robin, 3 groups (T=2)", nq.RoundRobin(3), 2),
    ("random sweep p=0.5 (T=3)", nq.RandomSweep(seed=7, activation_prob=0.5), 3),
    ("random sweep p=0.2 (T=4)", nq.RandomSweep(seed=7, activation_prob=0.2), 4),
]

print(f"{'scheduler':32s} {'iterations':>10s} {'arc evals':>10s} {'residual':>10s}")
for label, spec, T in SCHEDULES:
    cfg = nq.SolverConfig(scheduler=spec, T=T, tol=1e-6, max_iter=100_000)
    state, trace, reason = nq.run(net, ops, cfg)
    assert reason is nq.Termination.CONVERGED, label
    # a residual check reads the evaluation of the point it checks, which
    # the next record counts; only the final point's evaluation has no record
    arc_evals = sum(rec.active_arcs for rec in trace) + net.n_arcs
    final = [rec.residual for rec in trace if rec.residual is not None][-1]
    print(f"{label:32s} {state.n:10d} {arc_evals:10d} {final:10.2e}")

print(
    "\npartial activation trades more iterations for cheaper sweeps; all"
    "\nschedules land on the same equilibrium because every window of T+1"
    "\niterations still covers every block."
)

# the per-iteration trace shows which blocks were active
cfg = nq.SolverConfig(scheduler=nq.RandomSweep(seed=1, activation_prob=0.4), T=3,
                      max_iter=8, tol=1e-300)
_, trace, _ = nq.run(net, ops, cfg)
print(f"\nrandom-sweep activity (active arcs of {net.n_arcs} per iteration):")
print("  " + "  ".join(str(rec.active_arcs) for rec in trace))
print("iteration 0 always activates everything so no cache is read cold.")
