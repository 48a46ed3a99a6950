"""Risk-sensitive eigenvalue computation for controlled diffusions.

Solves the principal-eigenvalue form of the ergodic risk-sensitive control
problem on growing Dirichlet domains, extracts minimizing selectors, builds
the ground-state (twisted) diffusion, and checks the eigenpair, the
selector's optimality and the verification theorem by Monte Carlo:
Feynman-Kac, exit-time, exponential-moment, growth-integral and
ergodic-identity estimators, all marched by one Euler-Maruyama kernel.
"""

from .continuation import (
    Bump,
    ProbeReport,
    SweepResult,
    SweepRow,
    estimate_lambda_star,
    monotonicity_probe,
    sweep,
)
from .discretize import (
    Grid,
    OperatorMatrix,
    Policy,
    assemble,
    assemble_fields,
    field_gradient,
    make_grid,
)
from .eigensolve import EigenPair, HjbSolution, hjb_residual, principal_eigenpair, solve_hjb_dirichlet
from .errors import (
    CatalogError,
    ConvergenceError,
    EstimatorUndefinedError,
    InvalidModelError,
    InvariantError,
    MonotonicityError,
    ResourceError,
    RiskeigError,
    UnreliableEstimateError,
)
from .groundstate import (
    CertificateReport,
    IdentityReport,
    classify,
    ergodic_identity,
    ergodicity_certificate,
    write_field_csv,
)
from .model import (
    CoefficientBoundsReport,
    Model,
    NearMonotoneReport,
    builtin,
    check_coefficient_bounds,
    check_near_monotone,
    model_from_config,
)
from .montecarlo import (
    ExitMomentReport,
    FkEstimate,
    GammaIntegralReport,
    PathBatch,
    SimConfig,
    exit_exponential_moment,
    exit_representation_check,
    fk_lambda,
    gamma_integral,
)

__version__ = "0.1.0"

__all__ = [
    "Bump",
    "CatalogError",
    "CertificateReport",
    "CoefficientBoundsReport",
    "ConvergenceError",
    "EigenPair",
    "EstimatorUndefinedError",
    "ExitMomentReport",
    "FkEstimate",
    "GammaIntegralReport",
    "Grid",
    "HjbSolution",
    "IdentityReport",
    "InvalidModelError",
    "InvariantError",
    "Model",
    "MonotonicityError",
    "NearMonotoneReport",
    "OperatorMatrix",
    "PathBatch",
    "Policy",
    "ProbeReport",
    "ResourceError",
    "RiskeigError",
    "SimConfig",
    "SweepResult",
    "SweepRow",
    "UnreliableEstimateError",
    "assemble",
    "assemble_fields",
    "builtin",
    "check_coefficient_bounds",
    "check_near_monotone",
    "classify",
    "ergodic_identity",
    "ergodicity_certificate",
    "estimate_lambda_star",
    "exit_exponential_moment",
    "exit_representation_check",
    "field_gradient",
    "fk_lambda",
    "gamma_integral",
    "hjb_residual",
    "make_grid",
    "model_from_config",
    "monotonicity_probe",
    "principal_eigenpair",
    "solve_hjb_dirichlet",
    "sweep",
    "write_field_csv",
]
