"""Numerical laboratory for ground states of fractional KdV/BBM-type equations.

The top level re-exports the ``__all__`` of each module below: that list is
the one declaration of a module's public names.  ``io`` and ``cli`` stay
submodules."""

from .spectral import *
from .functionals import *
from .ground_state import *
from .verification import *
from .evolution import *
from .kp import *
from .errors import *

__version__ = "0.1.0"
