"""Monodromy and Stokes analysis toolkit for the tt*-Toda equations of sl(n+1).

The package is organised by construction stage:

 - ttstokes.linalg       shared matrix helpers and tolerance handling
 - ttstokes.roots        singular directions, supported roots, root diagrams
 - ttstokes.stokes       Stokes factors and the fundamental monodromy
 - ttstokes.steinberg    cross-sections of the adjoint quotient, the coefficient map chi
 - ttstokes.solutions    gamma polytope, eigenvalue lists, alcove bijection
 - ttstokes.connections  meromorphic connection forms and their symmetries
 - ttstokes.verify       batch verification suites behind the CLI
 - ttstokes.cli          command line entry point (python -m ttstokes)
"""

from .linalg import DEFAULT_TOL, ConsistencyError, NumericalError, Tolerance
from .roots import (
    OrderDiagram,
    SingularDirection,
    order_diagram,
    simple_system_check,
    singular_direction,
    singular_directions,
    table_supported_roots,
)
from .solutions import (
    AlcovePoint,
    AsymptoticDataK,
    GammaVector,
    alcove_coords,
    alcove_to_gamma,
    eigenvalues_from_gamma,
    gamma_from_k,
    gamma_to_m0,
    polytope_contains,
    random_polytope_gamma,
    s_formulas,
)
from .steinberg import (
    SectionCalibration,
    calibrate,
    chi,
    cross_section_check,
    reconstruct_from_chi,
    steinberg_section,
)
from .stokes import (
    MonodromyMatrix,
    StokesParams,
    build_m0,
    build_q,
    full_monodromy,
)
from .connections import (
    OmegaHatData,
    TodaField,
    diagonalizer_check,
    toda_rhs,
)
from .verify import SuiteResult, run_suites

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "ConsistencyError",
    "NumericalError",
    "Tolerance",
    "OrderDiagram",
    "SingularDirection",
    "order_diagram",
    "simple_system_check",
    "singular_direction",
    "singular_directions",
    "table_supported_roots",
    "AlcovePoint",
    "AsymptoticDataK",
    "GammaVector",
    "alcove_coords",
    "alcove_to_gamma",
    "eigenvalues_from_gamma",
    "gamma_from_k",
    "gamma_to_m0",
    "polytope_contains",
    "random_polytope_gamma",
    "s_formulas",
    "SectionCalibration",
    "calibrate",
    "chi",
    "cross_section_check",
    "reconstruct_from_chi",
    "steinberg_section",
    "MonodromyMatrix",
    "StokesParams",
    "build_m0",
    "build_q",
    "full_monodromy",
    "OmegaHatData",
    "TodaField",
    "diagonalizer_check",
    "toda_rhs",
    "SuiteResult",
    "run_suites",
    "__version__",
]
