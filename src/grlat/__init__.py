"""grlat: exact computations with finite abelian groups, group-ring
lattices, Tate cohomology and valuation spectra.

Subpackage map:
  intmat      exact integer linear algebra (HNF, SNF, kernels, lattices)
  polys       integer polynomial helpers, cyclotomics and their factors mod p
  abelian     finite abelian groups, their subgroups and quotients
  grouprings  integral group rings, ideal lattices, finite modules
  cohomology  Tate cohomology of finite modules, character components
  lattices    syzygy/cosyzygy ideal lattices and the verification routines
  monoid      admissible pairs, local tuples, freeness analysis
  spectrum    valuation spectra of random group-ring quotients
  cli         command-line entry point
"""

from .errors import (
    CapacityError,
    ContainmentError,
    DegenerateElementError,
    GrlatError,
    IdentityCheckError,
    InfiniteModuleError,
    InvalidFactorError,
    NotFullRankError,
    ParentMismatchError,
    PrecisionError,
    ScopeError,
    UnitNotFoundError,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ContainmentError",
    "DegenerateElementError",
    "GrlatError",
    "IdentityCheckError",
    "InfiniteModuleError",
    "InvalidFactorError",
    "NotFullRankError",
    "ParentMismatchError",
    "PrecisionError",
    "ScopeError",
    "UnitNotFoundError",
    "__version__",
]
