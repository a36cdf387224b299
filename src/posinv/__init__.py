"""Unconditionally positive, linear-invariant-preserving time integrators.

The package bundles the first- and second-order damped (geco) and
product-term (gbbks) schemes with Euler/Heun baselines, a production-
destruction model layer, and a stability toolkit that computes stability
functions, critical step sizes, steady-state Jacobians and fixed-point
verdicts for linear conservative Metzler systems.
"""

from .errors import (
    IntegrationError,
    ModelError,
    NumericsError,
    PosinvError,
    SolverError,
)
from .integrators import (
    GbbksStrategy,
    SchemeSpec,
    Trajectory,
    integrate,
    make_scheme,
    phi,
    solve_tau,
    step,
    step_map,
)
from .linalg import (
    eigenvalues,
    nullspace,
    validate_system,
)
from .pds import (
    GeneralPds,
    LinearPds,
    ModelDocument,
    load_model,
    parse_model,
    steady_state_for,
)
from .stability import (
    Certificate,
    CriticalStep,
    RegionEndpoint,
    StabilityReport,
    classify_fixed_point,
    closed_form_jacobian,
    critical_step,
    geco2_region_endpoint,
    numerical_jacobian,
    random_conservative_system,
    stability_value,
    unconditional_certificate,
)

__version__ = "0.1.0"
