"""Structure-preserving solver for the degenerate cross-diffusion system

    df/dt = div(f * grad(a f + b g)),   dg/dt = div(g * grad(c f + d g)),

with zero-flux boundaries and coefficients satisfying a*d > b*c, plus the
entropy machinery that makes the scheme verifiable: a family of convex
homogeneous polynomials whose integrals decay along the discrete flow, a
logarithmic entropy with an explicit dissipation identity, and the
regularized mobility used to keep the implicit step uniformly elliptic.
"""

from .params import Params, muskat_params, theta_constants
from .entropy import (
    EntropyPoly,
    build_coefficients,
    coefficients_by_recursion,
    eval_phi,
    grad_phi,
    hessian_phi,
    eval_phi1,
    mobility,
    mobility_regularized,
    alpha_rho,
    symmetrizer,
    phi_bounds,
    sn_matrix,
    det_expansion_coefficient,
    hessian_det_expansion,
    hessian_det_lower_bound,
)
from .grid import Grid1D, Grid2D, State
from .errors import (
    InvalidInput,
    InvariantViolation,
    NonConvergence,
    RhoTooSmall,
    SchemeError,
)
from .scheme import (
    SolverOptions,
    run,
    step,
    step_residual,
)
from .diagnostics import (
    RunMonitor,
    RunVerdicts,
    StepReport,
    dissipation,
    entropy_trace,
    linf_bound_constant,
    linf_sum,
    steady_residual,
)

__version__ = "0.1.0"
