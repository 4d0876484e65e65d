"""Time two source trees against each other, interleaved in one process.

Each tree's `src/netequil` is loaded under its own package name, with the
tree's `perfbench/instances.py` bound to it, so both run side by side
under the same interpreter, host state and numpy.  Every round solves
instances 0-2 of seed 1 of the workload with each tree, the tree that
goes first alternating from round to round, and keeps each solve's
fastest 10-iteration block (ten steps and the residual check that closes
them; see `solver.CHECK_INTERVAL`).  A tree's round time is that block's
ms per iteration, averaged over the three instances.

    python tools/compare_trees.py OLD NEW --workload mixed_sweep --rounds 15

Output: one `iterations` line per instance (the two trees' counts, which
a change that keeps the method's arithmetic leaves equal), one `round`
line per round with both trees' times and their ratio NEW/OLD, and a
`ratio` line with the median and range of the per-round ratios.
"""

import argparse
import gc
import importlib
import importlib.util
import itertools
import pathlib
import statistics
import sys
import time

WORKLOADS = {"grid_full": "grid_full", "mixed_sweep": "mixed_sweep", "cli_roundtrip": "cli_file"}
INSTANCES = (0, 1, 2)
SEED = 1
_names = itertools.count()


def _load(path, name, aliases=()):
    """Import the module or package at `path` as `name`; `aliases` maps
    module names to modules, visible in sys.modules while it executes."""
    package = path.is_dir()
    spec = importlib.util.spec_from_file_location(
        name,
        path / "__init__.py" if package else path,
        submodule_search_locations=[str(path)] if package else None,
    )
    module = importlib.util.module_from_spec(spec)
    saved = {alias: sys.modules.get(alias) for alias in aliases}
    sys.modules.update(aliases)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        for alias, old in saved.items():
            if old is None:
                sys.modules.pop(alias, None)
            else:
                sys.modules[alias] = old
    return module


class Tree:
    """One source tree: its package, its instance generators and its solver."""

    def __init__(self, root, workload):
        root = pathlib.Path(root).resolve()
        tag = f"_tree{next(_names)}"
        package = _load(root / "src" / "netequil", f"netequil{tag}")
        fileio = importlib.import_module(f"{package.__name__}.fileio")
        self.solver = importlib.import_module(f"{package.__name__}.solver")
        instances = _load(
            root / "perfbench" / "instances.py",
            f"instances{tag}",
            {"netequil": package, "netequil.fileio": fileio},
        )
        generate = getattr(instances, WORKLOADS[workload])
        self.root = root
        self.instances = [generate(SEED, index) for index in INSTANCES]

    def solve(self, inst):
        """(iterations, fastest 10-iteration block in ms per iteration) of one solve."""
        marks = []
        clock = time.perf_counter

        def mark(record):
            if record.n % 10 == 9:
                marks.append(clock())

        gc.collect()
        _, trace, _ = self.solver.run(inst.network, inst.operators, inst.config, trace_callback=mark)
        blocks = [b - a for a, b in zip(marks, marks[1:])]
        return len(trace), (min(blocks) * 100.0 if blocks else float("nan"))


def compare(old, new, workload, rounds, out=print):
    """Run `rounds` interleaved rounds; returns the per-round ratios NEW/OLD."""
    trees = (Tree(old, workload), Tree(new, workload))
    counts = [[None] * len(INSTANCES) for _ in trees]
    ratios = []
    for r in range(rounds):
        times = [0.0, 0.0]
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for t in order:
            tree = trees[t]
            for i, inst in enumerate(tree.instances):
                counts[t][i], best = tree.solve(inst)
                times[t] += best / len(INSTANCES)
        if r == 0:
            for i, index in enumerate(INSTANCES):
                out(f"iterations {workload} {index} {counts[0][i]} {counts[1][i]}")
        ratios.append(times[1] / times[0])
        out(f"round {r} {times[0]:.5f} {times[1]:.5f} {ratios[-1]:.4f}")
    out(f"ratio median {statistics.median(ratios):.4f} min {min(ratios):.4f} max {max(ratios):.4f}")
    return ratios


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="root of the reference tree")
    parser.add_argument("new", help="root of the tree to compare with it")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="mixed_sweep")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    compare(args.old, args.new, args.workload, args.rounds)


if __name__ == "__main__":
    main()
