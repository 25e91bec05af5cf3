"""Unbiased Monte Carlo estimation by randomized truncation.

The package builds unbiased estimators of expectations under intractable
or infinite-dimensional target distributions from coupled-chain level
differences, together with the efficiency analysis used to tune them and
a reproducible experiment harness.
"""

from .estimator import (
    BatchResult,
    EstimatorError,
    NonFiniteDeltaError,
    SurvivalDistribution,
    UnbiasedDraw,
    estimate_batch,
    estimate_once,
    sample_truncation,
)
from .couplings import (
    ContractionFit,
    CoupledKernel,
    LevelSchedule,
    MarkovKernel,
    contraction_delta_batch,
    estimate_contraction,
)
from .rng import Stream

__all__ = [
    "BatchResult",
    "ContractionFit",
    "CoupledKernel",
    "EstimatorError",
    "LevelSchedule",
    "MarkovKernel",
    "NonFiniteDeltaError",
    "Stream",
    "SurvivalDistribution",
    "UnbiasedDraw",
    "contraction_delta_batch",
    "estimate_batch",
    "estimate_once",
    "estimate_contraction",
    "sample_truncation",
]

__version__ = "0.1.0"
