"""degenlab: exact verification of small-level anticommutative degenerations.

The package namespace holds the submodules and the few library names that
`perfbench/child.py` reads as `degenlab.<name>`; every other name is
imported from the module that defines it (`from degenlab.degeneration
import Records`).
"""

from . import catalog
from .algebra import (
    StructureTensor,
    annihilator,
    dim_square,
    engel_degree,
    identity_flags,
    is_nilpotent,
)
from .contraction import iw_max

__version__ = "0.1.0"
