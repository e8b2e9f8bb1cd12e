"""Linear-time online anomaly detection with latent GP factors.

A multivariate time series is modeled as a small set of independent
Gaussian-process latents, expressed in state-space form and mixed
through an orthonormal loading matrix. Filtering gives O(1)-per-point
anomaly scores with a robust gate against outliers, EM fits the
mixing parameters, and per-latent attribution explains which latent
process an anomaly disturbed.

Typical flow::

    from ssgpfa import matern32, cosine, fit_em, score_online

    model = fit_em(train_values, train_times, [matern32(50.0), cosine(24.0)])
    for point in score_online(model, stream):
        handle(point.score, point.accepted, point.latent_nlls)
"""

from .errors import (
    ConfigError,
    EvaluationError,
    InputError,
    NumericalError,
    ParameterError,
    SsgpfaError,
    UnsupportedKernelError,
)
from .kernels import (
    DiscretizedTransition,
    StateSpaceKernel,
    add,
    brownian,
    cosine,
    discretize,
    matern32,
    multiply,
    parse_kernel,
    prior_covariance,
)
from .kalman import (
    FilterStepResult,
    GaussianState,
    LinearObservationModel,
    observation_log_likelihood,
    predict,
    robust_filter,
    rts_smooth,
    univariate_observation_model,
    update,
)
from .model import (
    DEFAULT_MULTIVARIATE_LENGTHSCALES,
    DEFAULT_UNIVARIATE_KERNEL,
    LatentPosterior,
    ScoredPoint,
    SsgpfaModel,
    assemble_joint,
    default_multivariate_kernels,
    e_step,
    fa_likelihood,
    fit_em,
    fit_univariate,
    load_model,
    m_step,
    model_from_dict,
    model_to_dict,
    orthogonalize,
    save_model,
    score_online,
    train_series,
)
from .explain import project_latents, reconstruction_error, scalar_nll
from .metrics import (
    EvalReport,
    best_f1_sweep,
    range_adjusted_metrics,
    standardize,
    sweep_curve,
)
from .data import (
    BenchmarkCase,
    Injection,
    LabeledSeries,
    SCENARIOS,
    SyntheticSpec,
    gen_multivariate,
    gen_univariate,
    iter_csv_rows,
    load_benchmark_layout,
    load_csv,
    scenario_clean,
    scenario_explain,
    scenario_robust,
    split_train_test,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "SsgpfaError",
    "ParameterError",
    "UnsupportedKernelError",
    "ConfigError",
    "InputError",
    "NumericalError",
    "EvaluationError",
    "StateSpaceKernel",
    "DiscretizedTransition",
    "matern32",
    "cosine",
    "brownian",
    "add",
    "multiply",
    "discretize",
    "prior_covariance",
    "parse_kernel",
    "GaussianState",
    "LinearObservationModel",
    "FilterStepResult",
    "predict",
    "update",
    "observation_log_likelihood",
    "robust_filter",
    "rts_smooth",
    "univariate_observation_model",
    "SsgpfaModel",
    "LatentPosterior",
    "ScoredPoint",
    "assemble_joint",
    "e_step",
    "m_step",
    "orthogonalize",
    "fit_em",
    "fa_likelihood",
    "fit_univariate",
    "score_online",
    "train_series",
    "save_model",
    "load_model",
    "model_to_dict",
    "model_from_dict",
    "default_multivariate_kernels",
    "DEFAULT_UNIVARIATE_KERNEL",
    "DEFAULT_MULTIVARIATE_LENGTHSCALES",
    "project_latents",
    "scalar_nll",
    "reconstruction_error",
    "EvalReport",
    "standardize",
    "range_adjusted_metrics",
    "best_f1_sweep",
    "sweep_curve",
    "LabeledSeries",
    "Injection",
    "SyntheticSpec",
    "BenchmarkCase",
    "gen_univariate",
    "gen_multivariate",
    "scenario_explain",
    "scenario_robust",
    "scenario_clean",
    "SCENARIOS",
    "load_csv",
    "write_csv",
    "iter_csv_rows",
    "split_train_test",
    "load_benchmark_layout",
    "__version__",
]
