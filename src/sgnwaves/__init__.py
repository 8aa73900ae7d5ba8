"""Cnoidal traveling waves of the Serre-Green-Naghdi equations, their
Whitham modulation system, and a 1D time-domain SGN solver.

Each public name is declared once, in its module's __all__.
"""

__version__ = "0.1.0"

from . import elliptic, errors, modulation, solver, waves
from .elliptic import *  # noqa: F401,F403
from .modulation import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .waves import *  # noqa: F401,F403

__all__ = [*elliptic.__all__, *waves.__all__, *modulation.__all__, *solver.__all__, "errors"]
