"""Effective multiple-equidistribution laboratory.

Exact constant ledgers and parameter selection for r-fold correlation
bounds, plus numerical experiments on two concrete models: Wiener
measures on tori and translated closed horocycles on the modular
surface.
"""

from . import constants, geometry, modular, selection, wiener
from .constants import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .modular import *  # noqa: F401,F403
from .selection import *  # noqa: F401,F403
from .wiener import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*constants.__all__, *geometry.__all__, *modular.__all__,
           *selection.__all__, *wiener.__all__, "__version__"]
