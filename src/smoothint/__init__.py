"""Smooth integer encoding via integral balance.

An integer N is written onto the real line as a train of N Gaussian bumps
whose amplitudes alternate in sign and decay, so the total integral nearly
cancels.  The integral value indexes N and several inversion strategies
recover N from it, exactly or through noise.

The package exports exactly the names its submodules list in ``__all__``,
plus ``__version__``; a stale entry in one of those lists fails at import.
"""

from . import bumps, coefficients, encoder, integral_map, interp, multidim, recovery, tableio
from .bumps import *
from .coefficients import *
from .encoder import *
from .integral_map import *
from .interp import *
from .multidim import *
from .recovery import *
from .tableio import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (bumps, coefficients, encoder, integral_map, interp, multidim, recovery, tableio)
    for name in module.__all__
] + ["__version__"]
