"""Simulation laboratory for spectral norms of heavy-tailed filtered panels."""

from .experiment import (
    DimensionRule,
    EnsembleSpec,
    EnsembleTemplate,
    ExperimentConfig,
    TrialBatch,
    TrialRecord,
    beta_limit,
    run_batch,
    run_trial,
    validate,
)
from .limit_law import (
    BoundConstants,
    bound_cdf_lower,
    bound_cdf_upper,
    bound_constants,
    limit_order_statistics,
)
from .linear_filter import (
    CoefficientSequence,
    FilterSpec,
    build_row_process,
    build_xhat,
)
from .rv_noise import (
    NoisePanel,
    TailModel,
    norming_constant,
    sample_noise,
    second_moment,
    truncated_second_moment,
)
from .spectral import (
    centered_covariance,
    centered_gram_diag,
    mu_x_alpha,
    offdiag_deviation,
    spectral_norm,
)

__version__ = "0.1.0"
