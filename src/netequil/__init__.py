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

Each module's ``__all__`` declares its public names, and the package
re-exports those of every module but ``fileio`` and ``cli``.
"""

from .errors import *
from .lambertw import *
from .network import *
from .operators import *
from .oracle import *
from .solver import *

__version__ = "0.1.0"

__all__ = (
    errors.__all__
    + lambertw.__all__
    + network.__all__
    + operators.__all__
    + oracle.__all__
    + solver.__all__
    + ["__version__"]
)
