"""Mixed-effects logistic regression by maximum (softly penalized) likelihood.

Fits clustered binary-response models with Gaussian random effects,
approximating the marginal likelihood by adaptive Gauss-Hermite
quadrature (scalar random effects) or the Laplace approximation (any
dimension).  Besides plain maximum likelihood, a softly scaled
composite penalty (Jeffreys prior on the fixed effects, negative Huber
losses on the log-Cholesky variance parameters) guarantees estimates in
the interior of the parameter space while preserving the first-order
behavior of the ML estimator, including equivariance under contrasts.
"""

from .model import (
    ClusteredDataset,
    DataError,
    Theta,
    psi_to_sigma,
    sigma_to_psi,
)
from .likelihood import (
    LoglikEvaluator,
    ModeFindingError,
    QuadratureRule,
    gauss_hermite_rule,
)
from .penalties import (
    PenaltyValue,
    composite_penalty,
    huber_D,
    jeffreys_penalty,
    scale_factor,
    variance_penalty,
)
from .optimize import (
    FitError,
    FitOptions,
    FitResult,
    fit,
)
from .inference import (
    ContrastMap,
    WaldSE,
    attach_se,
    transform_dataset,
    transform_fit,
    wald_ci,
    wald_se,
)
from .simulate import (
    SimulationDesign,
    SimulationSummary,
    percentile_table,
    run_study,
    simulate_responses,
)

__version__ = "0.1.0"

__all__ = [
    "ClusteredDataset",
    "DataError",
    "Theta",
    "psi_to_sigma",
    "sigma_to_psi",
    "LoglikEvaluator",
    "ModeFindingError",
    "QuadratureRule",
    "gauss_hermite_rule",
    "PenaltyValue",
    "composite_penalty",
    "huber_D",
    "jeffreys_penalty",
    "scale_factor",
    "variance_penalty",
    "FitError",
    "FitOptions",
    "FitResult",
    "fit",
    "ContrastMap",
    "WaldSE",
    "attach_se",
    "transform_dataset",
    "transform_fit",
    "wald_ci",
    "wald_se",
    "SimulationDesign",
    "SimulationSummary",
    "percentile_table",
    "run_study",
    "simulate_responses",
    "__version__",
]
