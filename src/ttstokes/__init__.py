"""Monodromy and Stokes analysis toolkit for the tt*-Toda equations of sl(n+1).

The package is organised by construction stage:

 - ttstokes.linalg       shared matrix helpers and tolerance handling
 - ttstokes.roots        singular directions, supported roots, root diagrams
 - ttstokes.stokes       Stokes factors and the fundamental monodromy
 - ttstokes.steinberg    cross-sections of the adjoint quotient, conjugacy checks
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
    supported_roots,
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
    unitary_conjugacy_check,
)
from .stokes import (
    MonodromyMatrix,
    StokesParams,
    build_m0,
    build_q,
    full_monodromy,
    q_family,
    q_pattern,
    q_patterns,
)
from .connections import (
    OmegaHatData,
    TodaField,
    build_alpha_hat,
    build_omega_hat,
    diagonalizer_check,
    omega_hat_symmetry_report,
    symmetry_report,
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
    "supported_roots",
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
    "unitary_conjugacy_check",
    "MonodromyMatrix",
    "StokesParams",
    "build_m0",
    "build_q",
    "full_monodromy",
    "q_family",
    "q_pattern",
    "q_patterns",
    "OmegaHatData",
    "TodaField",
    "build_alpha_hat",
    "build_omega_hat",
    "diagonalizer_check",
    "omega_hat_symmetry_report",
    "symmetry_report",
    "toda_rhs",
    "SuiteResult",
    "run_suites",
    "__version__",
]
