"""Laplace approximation of log-concave targets with a computable KL certificate.

Fit a Gaussian at the mode of an unnormalized log-concave density, then
certify the fit by evaluating an upper bound on KL(g, f) built from third and
fourth directional derivatives along rays through the mode, and cross-check
the certificate against a sampling-based ground-truth KL estimate.
"""

from .bound import (
    AuditConfig,
    BoundReport,
    DirectionKlTerms,
    approximate_bound,
    approximate_bound_coefficient,
    audit,
    conditional_kl_bound,
    direction_kl_bound,
    min_conditional_curvature,
)
from .errors import (
    AssumptionViolationError,
    DimensionMismatchError,
    MapNotConvergedError,
    NonFiniteObjectiveError,
    UnsupportedOrderError,
)
from .experiments import ExperimentReport, ExperimentRow, ExperimentSpec, run_experiment
from .laplace import (
    LaplaceFit,
    SpotcheckResult,
    fit_laplace,
    laplace_log_density,
    logconcavity_spotcheck,
)
from .mcmc import (
    ChainConfig,
    ChainResult,
    KLEstimate,
    TruthPreset,
    desk_preset,
    estimate_kl,
    estimate_log_inv_z,
    estimate_true_kl,
    get_preset,
    run_chain,
)
from .models import (
    GaussianModel,
    LogisticDataset,
    LogisticRegressionModel,
    RayBatch,
    SyntheticDatasetConfig,
    TargetModel,
    generate_dataset,
    load_dataset_csv,
    random_gaussian_model,
    save_dataset_csv,
)
from .radial import (
    chi_moment,
    chi_quadrature,
    radial_min_curvature,
    sample_direction,
    sample_direction_pairs,
)

__version__ = "0.1.0"
