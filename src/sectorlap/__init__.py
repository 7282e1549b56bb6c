"""Directional Laplace transforms of exponential-type functions on a sector.

The pieces fit together as a pipeline: a catalog entry describes a function
and its growth, the indicator module estimates directional growth rates, the
laplace module evaluates the transform on half-planes, the inversion module
reconstructs the function over an unbounded V-shaped contour, and the probe
module maps out where the transform stops being analytic.

The package re-exports the ``__all__`` of each of those modules and of
``errors``; ``cli`` and ``selftest`` are reached as submodules.
"""

from . import catalog, errors, geometry, indicator, inversion, laplace, probe, quadrature
from .catalog import *
from .errors import *
from .geometry import *
from .indicator import *
from .inversion import *
from .laplace import *
from .probe import *
from .quadrature import *

__version__ = "0.1.0"

__all__ = [
    *catalog.__all__,
    *errors.__all__,
    *geometry.__all__,
    *indicator.__all__,
    *inversion.__all__,
    *laplace.__all__,
    *probe.__all__,
    *quadrature.__all__,
]
