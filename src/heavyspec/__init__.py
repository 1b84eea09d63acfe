"""Simulation laboratory for spectral norms of heavy-tailed filtered panels."""

import importlib

# Every exported name, with the module that defines it. Each loads on first
# use (PEP 562), so the config layer, which imports the standard library
# alone, is read without numpy and scipy.
_EXPORTS = {
    "CoefficientSequence": "_config",
    "DimensionRule": "_config",
    "EnsembleSpec": "_config",
    "EnsembleTemplate": "_config",
    "ExperimentConfig": "_config",
    "FilterSpec": "_config",
    "NoisePanel": "rv_noise",
    "TailModel": "_config",
    "TrialBatch": "experiment",
    "TrialRecord": "experiment",
    "beta_limit": "_config",
    "build_row_process": "linear_filter",
    "centered_covariance": "spectral",
    "centered_gram_diag": "spectral",
    "envelope_check": "experiment",
    "envelope_scales": "limit_law",
    "frechet_cdf": "limit_law",
    "limit_order_statistics": "limit_law",
    "mu_x_alpha": "spectral",
    "norming_constant": "_config",
    "offdiag_deviation": "spectral",
    "run_batch": "experiment",
    "run_trial": "experiment",
    "sample_noise": "rv_noise",
    "second_moment": "rv_noise",
    "spectral_norm": "spectral",
    "truncated_second_moment": "rv_noise",
    "validate": "_config",
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
