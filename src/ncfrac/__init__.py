"""N-continued fractions and the generalized interval map x -> {N/x}.

Exact integer/rational dynamics, closed-form ergodic constants, and three
independent verification routes: exact big-integer identities, Monte Carlo
orbit averages, and a grid discretization of the transfer operator.
"""

__version__ = "0.1.0"

from .constants import (
    ConstantsReport,
    cdf,
    density,
    dilog_theta,
    frequency,
    holder_mean,
    khinchin,
    lambda_asymptotic,
    levy_L,
    levy_lambda,
    loch,
    lower_bounds,
    lyapunov_const,
)
from .convergents import (
    Convergent,
    ConvergentTrace,
    approximation_rate,
    convergent_sequence,
    determinant_check,
    error_bounds_check,
)
from .dynamics import (
    DEFAULT_MAX_TERMS,
    Expansion,
    digit,
    evaluate,
    expand,
    fixed_point,
    gauss_map,
    orbit,
)
from .ergodic import (
    OBSERVABLES,
    EstimateReport,
    SampleConfig,
    birkhoff_estimate,
    bound_achievement,
    float_shadow_digits,
    levy_estimate,
    lyapunov_estimate,
    orbit_estimates,
    sample_orbit,
    sample_rational,
    shadow_divergence_step,
)
from .ulam import (
    PowerIterationError,
    UlamModel,
    build_model,
    density_l1_error,
    density_profile,
    stationary,
    transition_matrix,
    write_density_profile,
)

__all__ = [
    "__version__",
    # dynamics
    "DEFAULT_MAX_TERMS",
    "Expansion",
    "digit",
    "evaluate",
    "expand",
    "fixed_point",
    "gauss_map",
    "orbit",
    # convergents
    "Convergent",
    "ConvergentTrace",
    "approximation_rate",
    "convergent_sequence",
    "determinant_check",
    "error_bounds_check",
    # constants
    "ConstantsReport",
    "cdf",
    "density",
    "dilog_theta",
    "frequency",
    "holder_mean",
    "khinchin",
    "lambda_asymptotic",
    "levy_L",
    "levy_lambda",
    "loch",
    "lower_bounds",
    "lyapunov_const",
    # ergodic
    "OBSERVABLES",
    "EstimateReport",
    "SampleConfig",
    "birkhoff_estimate",
    "bound_achievement",
    "float_shadow_digits",
    "levy_estimate",
    "lyapunov_estimate",
    "orbit_estimates",
    "sample_orbit",
    "sample_rational",
    "shadow_divergence_step",
    # ulam
    "PowerIterationError",
    "UlamModel",
    "build_model",
    "density_l1_error",
    "density_profile",
    "stationary",
    "transition_matrix",
    "write_density_profile",
]
