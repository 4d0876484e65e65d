"""Fingerprint solver runs, to tell a change that moves last bits from one that does not.

For each benchmark workload (see `perfbench/instances.py`), instances 0-2
of seed 1 are solved under three schedulers: the workload's own,
`RoundRobin(3)` with T = 2 and `RandomSweep(7, 0.5)` with T = 3.  Each run
prints one SHA-256 over the bytes of the final (x, v), the termination
and each trace record's (n, tau, pi, theta, active_arcs, residual).
Then every instance of seeds 1-12 (14 per seed) is solved under its own
settings, and its iteration count is printed.

    python tools/run_hashes.py                            # every workload, seeds 1-12
    python tools/run_hashes.py --workload cli_roundtrip --instances 1 --seeds 1

Output lines, in a fixed order:

    hash <workload> <instance> <scheduler> <sha256>
    iterations <workload> <seed> <instance> <count>

Two trees compute the same runs bit for bit exactly when their `hash`
lines are equal.
"""

import argparse
import hashlib
import pathlib
import struct
import sys
from dataclasses import replace

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import instances  # noqa: E402
import netequil as nq  # noqa: E402

WORKLOADS = {
    "grid_full": (instances.grid_full, 3),
    "mixed_sweep": (instances.mixed_sweep, 3),
    "cli_roundtrip": (instances.cli_file, 8),
}
SCHEDULERS = {
    "own": None,
    "roundrobin3": (nq.RoundRobin(3), 2),
    "randomsweep7": (nq.RandomSweep(7, 0.5), 3),
}


def run_hash(inst, schedule):
    """The SHA-256 of one run of `inst`; `schedule` is (spec, T), or None for its own."""
    cfg = inst.config
    if schedule is not None:
        cfg = replace(cfg, scheduler=schedule[0], T=schedule[1])
    state, trace, reason = nq.run(inst.network, inst.operators, cfg)
    digest = hashlib.sha256()
    digest.update(state.x.tobytes())
    digest.update(state.v.tobytes())
    digest.update(reason.value.encode())
    for r in trace:
        residual = float("nan") if r.residual is None else r.residual
        digest.update(struct.pack("<qdddqd", r.n, r.tau, r.pi, r.theta, r.active_arcs, residual))
    return digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--instances", type=int, default=3, help="instances hashed per workload")
    parser.add_argument("--seeds", type=int, default=12, help="seeds 1..N whose iterations are counted")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    for name in names:
        generate, _ = WORKLOADS[name]
        for index in range(args.instances):
            inst = generate(1, index)
            for label, schedule in SCHEDULERS.items():
                print(f"hash {name} {index} {label} {run_hash(inst, schedule)}")
    for seed in range(1, args.seeds + 1):
        for name in names:
            generate, count = WORKLOADS[name]
            for index in range(count):
                inst = generate(seed, index)
                _, trace, _ = nq.run(inst.network, inst.operators, inst.config)
                print(f"iterations {name} {seed} {index} {len(trace)}")


if __name__ == "__main__":
    main()
