"""netequil benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload grid_full --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
With `--trace 0` the run is timed and reports the end-to-end metrics; with
`--trace 1` it is traced and reports the per-layer metrics.  Earlier lines
of standard output give the environment, the instance sizes, the failure
reasons and a human-readable table; the last line is the result.  See
perfbench/NOTES.md.
"""

import os

# pinned before numpy loads: one BLAS thread, and no solver threads
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"
os.environ.pop("NETEQUIL_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"


def environment():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
    }


def code_hash():
    digest = hashlib.sha256()
    for path in sorted((SRC / "netequil").glob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "netequil" / "__init__.py").is_file():
        print(f"error: no netequil package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    import layers

    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2

    STATE.mkdir(exist_ok=True)
    workdir = STATE / f"work-{os.getpid()}"
    workdir.mkdir()
    samples = bench.Samples()
    try:
        cases = bench.setup(workload, args.seed, str(workdir), samples)
        spans = None
        if args.trace:
            metrics, spans = layers.traced_run(workload, cases)
        else:
            bench.timed_run(workload, args.seed, cases, samples, args.seconds, str(workdir / "build.prob"))
            metrics = bench.end_to_end(cases, samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct, attempted, failed, reasons, problems = bench.gate(workload, cases)
    prints = bench.fingerprint(cases)
    key = f"{workload.name}:{args.seed}:{code_hash()}"
    if not bench.check_fingerprint(str(STATE / "counts.json"), key, prints):
        problems.append("iterations/arc_evals differ from an earlier run of this seed and code")
        correct = False
    if args.trace:
        metrics["failed_frac"] = (failed / attempted, "1")

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "environment": environment(),
        "instances": [c.instance.size() for c in cases[:1]] + [{"count": len(cases)}],
        "whole_solve_seconds": {
            "library": [round(t, 4) for c in cases for t in c.lib_seconds],
            "cli": [round(t, 4) for c in cases for t in c.cli_solve_seconds],
        },
        "counts": prints,
        "samples": {name: len(values) for name, values in vars(samples).items()},
        "failure_reasons": reasons,
        "problems": problems,
    }
    if spans is not None:
        report["spans"] = spans
    print(json.dumps(report))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
