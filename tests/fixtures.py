"""Test fixtures shared by several test modules."""

import math
from dataclasses import dataclass

import numpy as np

from calibens.combiners import HeadOutputs, check_probabilities
from calibens.errors import ConfigError
from calibens.heads import DTYPE, LinearHead
from calibens.metrics import PredictionSet
from calibens.numerics import RngStream


def head_outputs(per_head):
    """HeadOutputs from a list of m equally shaped (N, C) matrices, head i's
    matrix becoming the view [:, i, :] of the (N, m, C) array."""
    return HeadOutputs(np.stack(per_head, axis=1))


def stacked_probs(per_head):
    """The (N, m, C) array of a list of m equally shaped (N, C) probability
    matrices, as head_outputs stacks them but in their own dtype, checked as
    evaluate checks a block before Avg. and Vot. read it."""
    values = np.stack(per_head, axis=1)
    check_probabilities(values)
    return values


def linear_head(dim, num_classes, seed):
    """The head a trainer seeded `seed` starts from: weights drawn uniform in
    [-1/sqrt(D), 1/sqrt(D)] from RngStream(seed) and cast to heads.DTYPE,
    bias zero."""
    bound = 1.0 / np.sqrt(dim)
    weights = RngStream(seed).uniform(-bound, bound, (num_classes, dim)).astype(DTYPE)
    return LinearHead(weights, np.zeros(num_classes, DTYPE), seed)


@dataclass
class MiscalSpec:
    """Fixture with a known confidence level and true accuracy; the expected
    calibration error is |confidence_level - true_accuracy|."""

    num_samples: int
    num_classes: int
    confidence_level: float
    true_accuracy: float
    seed: int

    def __post_init__(self):
        if self.num_samples < 1 or self.num_classes < 1:
            raise ConfigError("num_samples and num_classes must be >= 1")
        if not 0.0 < self.confidence_level <= 1.0:
            raise ConfigError(f"confidence level must be in (0, 1], got {self.confidence_level}")
        if not 0.0 <= self.true_accuracy <= 1.0:
            raise ConfigError(f"true accuracy must be in [0, 1], got {self.true_accuracy}")
        if self.true_accuracy < 1.0 and self.num_classes < 2:
            raise ConfigError("imperfect accuracy needs at least two classes")


def synth_miscalibrated_predictions(spec: MiscalSpec) -> PredictionSet:
    """Prediction set with constant confidence and a known hit rate.

    Every sample reports confidence_level; the label matches the prediction
    with probability true_accuracy, otherwise it is a uniformly random other
    class.
    """
    stream = RngStream(spec.seed)
    n, c = spec.num_samples, spec.num_classes
    predicted = stream.integers(0, c, n).astype(np.int64)
    hit = stream.random(n) < spec.true_accuracy
    labels = predicted.copy()
    if c > 1:
        miss = ~hit
        offsets = stream.integers(1, c, n)  # drawn for all samples to keep the stream aligned
        labels[miss] = (predicted[miss] + offsets[miss]) % c
    return PredictionSet(
        predicted_class=predicted,
        confidence=np.full(n, spec.confidence_level, dtype=np.float64),
        labels=labels,
    )


def chance_level_bound(num_classes: int, n: int, sigmas: float = 3.0) -> float:
    """Upper bound on accuracy achievable by guessing: 1/C plus a binomial
    deviation allowance of `sigmas` standard errors."""
    p = 1.0 / num_classes
    return p + sigmas * math.sqrt(p * (1.0 - p) / n)
