"""Solve small random feasible problems end to end and print one line per seed.

Each seed's problem comes from `tests/random_problems.py` (its docstring
gives the recipe); a run stops at tol = 1e-6 or after 20,000 iterations.

    python tools/fuzz_problems.py --span 3 --seeds 0 149    # seeds 0 to 149

Output lines, in seed order:

    <seed> <scheduler> <termination> <iterations> <solver residual> <oracle residual>

The solver residual is the one `netequil solve` writes: the stopping
check's value at the final state.  The oracle residual is
`oracle.wardrop_residual` there (inf where the final state leaves a
capacity's domain).  Both are printed to three significant digits.  Runs are bitwise reproducible, so two runs of the
tool print the same lines.
"""

import argparse
import pathlib
import sys
import warnings

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import netequil as nq  # noqa: E402
from random_problems import random_problem  # noqa: E402


def solve_line(seed, span):
    """The output line of `seed` at `span`."""
    problem = random_problem(seed, span)
    net, ops, cfg = problem.network, problem.operators, problem.config
    state, trace, reason = nq.run(net, ops, cfg)
    if reason is nq.Termination.CONVERGED:
        solver_residual = trace[-1].residual  # the stopping check, at the final state
    else:
        try:
            solver_residual = nq.residual(net, ops, state)
        except nq.NumericalFailure:
            solver_residual = float("inf")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        oracle_residual = nq.wardrop_residual(net, ops, state.x, state.v)
    return (
        f"{seed} {type(cfg.scheduler).__name__} {reason.value} {state.n} "
        f"{solver_residual:.3e} {oracle_residual:.3e}"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--span", type=float, default=3.0, help="parameters lie within a factor SPAN of 1")
    parser.add_argument("--seeds", type=int, nargs=2, default=(0, 149), metavar=("FIRST", "LAST"))
    args = parser.parse_args(argv)
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        print(solve_line(seed, args.span), flush=True)


if __name__ == "__main__":
    main()
