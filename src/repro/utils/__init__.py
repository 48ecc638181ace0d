"""Small shared utilities: EWMA estimators, seeded RNG plumbing, quantile
sketches and basic statistics helpers."""

from repro.utils.ewma import Ewma, RttEstimator
from repro.utils.rng import spawn_rng
from repro.utils.sketch import QuantileSketch
from repro.utils.stats import cdf_points, mean, percentile

__all__ = [
    "Ewma",
    "RttEstimator",
    "spawn_rng",
    "QuantileSketch",
    "cdf_points",
    "mean",
    "percentile",
]
