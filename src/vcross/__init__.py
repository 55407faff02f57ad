"""Numerical laboratory for vorticity-gradient growth near a singular cross flow."""

__version__ = "0.1.0"

from .fields import Grid, InvalidFieldError, ScalarField, UnresolvedScaleError, VelocityField
from .initial_data import (
    BumpSpec,
    compose_initial_data,
    make_bump,
    mollified_cross,
    singular_cross,
)
from .ladder import LadderError, ParameterLadder, resolve_ladder
from .model import (
    EXACT,
    LEADING,
    CrossFieldVariant,
    FlowPerturbation,
    WedgeRegion,
    check_perturbation_admissible,
    contraction_floor,
    fit_leading_order_bound,
    integrate_variational,
    integrate_variational_batch,
)
from .series import DiagnosticSeries, RateFit
from .solver import (
    BlowUpError,
    CFLViolation,
    SimState,
    grad_sup_norm,
    h2_seminorm,
    hessian_sup_of_inverse_laplacian,
    load_state,
    march,
    run,
    save_state,
    step_rk4,
    velocity_from_vorticity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
