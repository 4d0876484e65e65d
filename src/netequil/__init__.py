"""Multicommodity network equilibrium by block-iterative operator splitting.

Find a flow and a potential on a directed multigraph such that, on every
arc, the tension lies in the capacity relation of the flow plus the
normal cone of its constraint set, and at every node the divergence
matches the supply.  Every relation enters the algorithm only through its
resolvent, each arc block can be activated independently (every node
block, a constant supply, is evaluated at every step), and a relaxed
projection step couples the blocks.

The pieces:

- :mod:`netequil.network`   network data type, divergence and tension
- :mod:`netequil.operators` resolvent toolbox (capacity families, the
  arc block of a capacity and its box, boxes, supplies)
- :mod:`netequil.lambertw`  Lambert W, used by two capacity resolvents
- :mod:`netequil.solver`    the block-iterative iteration and its driver
- :mod:`netequil.oracle`    independent desk-scale reference solutions
- :mod:`netequil.fileio`    problem/solution/trace file formats
- :mod:`netequil.cli`       the ``netequil`` command line front end
"""

from .errors import (
    ConfigurationError,
    InfeasibilityError,
    NumericalFailure,
    ProblemFormatError,
    ProblemFormatWarning,
)
from .lambertw import lambert_w_exp
from .network import Network
from .operators import (
    BPR,
    TRC,
    AffinePhi,
    ArcOperator,
    Box,
    CustomPhi,
    FixedSupply,
    IntervalProx,
    Logarithmic,
    OperatorSet,
    PowerExp,
    PowerPhi,
    QuadraticPhi,
    SeparableLift,
)
from .oracle import (
    TwoArcInstance,
    analytic_two_arc,
    frank_wolfe_reference,
    wardrop_residual,
)
from .solver import (
    Full,
    IterationWorkspace,
    RandomSweep,
    RoundRobin,
    SolverConfig,
    SolverState,
    Termination,
    TraceRecord,
    initial_state,
    make_scheduler,
    new_workspace,
    residual,
    run,
    step,
    step_parameters,
    sweep_bound,
)

__version__ = "0.1.0"

__all__ = [
    "Network",
    "lambert_w_exp",
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
    "Full",
    "RoundRobin",
    "RandomSweep",
    "SolverConfig",
    "SolverState",
    "IterationWorkspace",
    "TraceRecord",
    "Termination",
    "initial_state",
    "new_workspace",
    "sweep_bound",
    "make_scheduler",
    "step",
    "step_parameters",
    "residual",
    "run",
    "TwoArcInstance",
    "analytic_two_arc",
    "frank_wolfe_reference",
    "wardrop_residual",
    "ConfigurationError",
    "NumericalFailure",
    "InfeasibilityError",
    "ProblemFormatError",
    "ProblemFormatWarning",
    "__version__",
]
