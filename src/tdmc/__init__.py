"""Exact-arithmetic classification of module categories over twisted Drinfeld doubles.

Each module's ``__all__`` decides what it adds to this namespace.
"""

from __future__ import annotations

from . import cohomology, errors, groups, modcat, twisted_algebra, verification
from .cohomology import *
from .errors import *
from .groups import *
from .modcat import *
from .twisted_algebra import *
from .verification import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *groups.__all__,
    *cohomology.__all__,
    *twisted_algebra.__all__,
    *modcat.__all__,
    *verification.__all__,
    *errors.__all__,
]
