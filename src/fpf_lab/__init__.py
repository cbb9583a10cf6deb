"""Feedback particle filtering lab.

Multivariate feedback particle filter with pluggable gain-function solvers
(exact, constant, Galerkin), reference filters for cross-checking (Kalman–
Bucy, bootstrap particle filter, 1-D Kushner grid solver), f-divergence
reporting between posteriors, and a numerical verification suite for the
matrix-calculus identities underpinning the filter's exactness argument.
"""

from .model import (
    ModelValidationError,
    ParticleEnsemble,
    PosteriorStats,
    SdeModel,
    covariance_sqrt,
    ensemble_stats,
    sample_initial_ensemble,
    validate_model,
)
from .sde import (
    ObservationSet,
    TruthPath,
    euler_maruyama_step,
    read_observations_csv,
    read_truth_csv,
    simulate_truth,
    synthesize_observations,
    write_observations_csv,
    write_truth_csv,
)
from .registry import available_models, default_prior, make_model
from .gain import (
    GainField,
    check_admissible,
    compute_gain,
    constant_gain,
    exact_gain,
    galerkin_gain,
    monomial_exponents,
)
from .filter import (
    FilterAbortError,
    FilterConfig,
    FilterTrace,
    fpf_step,
    read_trace_csv,
    run_filter,
    run_filters,
    write_trace_csv,
)
from .reference import (
    KalmanState,
    KushnerGrid,
    WeightCollapseError,
    bayes_update_on_grid,
    bootstrap_pf_step,
    kalman_bucy_step,
    kushner_grid_step,
    stationary_variance_1d,
    systematic_resample,
    weighted_stats,
)
from .grid import GridDensity, GridNegativityError
from .divergence import (
    GENERATORS,
    f_divergence,
    f_divergence_grid,
    get_generator,
    kde_density,
)

__all__ = [
    "GENERATORS",
    "FilterAbortError",
    "FilterConfig",
    "FilterTrace",
    "GainField",
    "GridDensity",
    "GridNegativityError",
    "KalmanState",
    "KushnerGrid",
    "ModelValidationError",
    "ObservationSet",
    "ParticleEnsemble",
    "PosteriorStats",
    "SdeModel",
    "TruthPath",
    "WeightCollapseError",
    "available_models",
    "bayes_update_on_grid",
    "bootstrap_pf_step",
    "check_admissible",
    "compute_gain",
    "constant_gain",
    "covariance_sqrt",
    "default_prior",
    "ensemble_stats",
    "euler_maruyama_step",
    "exact_gain",
    "f_divergence",
    "f_divergence_grid",
    "fpf_step",
    "galerkin_gain",
    "get_generator",
    "kalman_bucy_step",
    "kde_density",
    "kushner_grid_step",
    "make_model",
    "monomial_exponents",
    "read_observations_csv",
    "read_trace_csv",
    "read_truth_csv",
    "run_filter",
    "run_filters",
    "sample_initial_ensemble",
    "simulate_truth",
    "stationary_variance_1d",
    "synthesize_observations",
    "systematic_resample",
    "validate_model",
    "weighted_stats",
    "write_observations_csv",
    "write_trace_csv",
    "write_truth_csv",
]

__version__ = "0.1.0"
