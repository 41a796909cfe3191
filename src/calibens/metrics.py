"""Accuracy and calibration measurement.

Confidence scores are grouped into M equal-width bins over [0, 1]; the
expected calibration error is the bin-count-weighted mean gap between each
bin's accuracy and its mean confidence, and the maximum calibration error is
the largest such gap. Bins are left-closed and right-open, except the top bin
which is closed at 1.0 so that every confidence lands somewhere.

All values are fractions in [0, 1]; percent formatting is a display concern.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, DimensionError
from .numerics import as_matrix, check_labels, require_finite

DEFAULT_NUM_BINS = 15


@dataclass
class PredictionSet:
    """Per-sample predicted class, confidence and ground-truth label."""

    predicted_class: np.ndarray
    confidence: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.predicted_class = np.asarray(self.predicted_class, dtype=np.int64)
        self.confidence = np.asarray(self.confidence, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.predicted_class.shape[0]
        if n < 1:
            raise DataError("a prediction set needs at least one sample")
        if self.confidence.shape != (n,) or self.labels.shape != (n,):
            raise DimensionError(
                f"predictions {self.predicted_class.shape}, confidences "
                f"{self.confidence.shape} and labels {self.labels.shape} must share length"
            )
        require_finite(self.confidence, "confidence")
        if np.any(self.confidence < 0.0) or np.any(self.confidence > 1.0):
            raise DataError("confidences must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.predicted_class.shape[0]


@dataclass
class BinStats:
    """Statistics of one confidence bin; empty bins carry None, never 0."""

    bin_index: int
    count: int
    mean_confidence: float | None
    mean_accuracy: float | None
    lower_edge: float
    upper_edge: float


@dataclass
class CalibrationReport:
    accuracy: float
    ece: float
    mce: float
    bins: list[BinStats] = field(default_factory=list)


def predictions_from_probs(probs, labels) -> PredictionSet:
    """Build a PredictionSet from a probability matrix.

    Predicted class is the per-row argmax (ties broken toward the lowest
    class index); confidence is the row maximum.
    """
    probs = as_matrix(probs, "probs")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (probs.shape[0],):
        raise DimensionError(
            f"probs {probs.shape} and labels {labels.shape} disagree on sample count"
        )
    check_labels(labels, probs.shape[1])
    return PredictionSet(
        predicted_class=np.argmax(probs, axis=1),
        confidence=np.max(probs, axis=1),
        labels=labels,
    )


def _bin_indices(confidence: np.ndarray, num_bins: int) -> np.ndarray:
    idx = np.floor(confidence * num_bins).astype(np.int64)
    return np.minimum(idx, num_bins - 1)


def reliability_bins(pred: PredictionSet, num_bins: int = DEFAULT_NUM_BINS) -> list[BinStats]:
    """Group samples into M equal-width confidence bins.

    Returns one BinStats per bin (including empty ones); the bins partition
    all samples.
    """
    if num_bins < 1:
        raise ConfigError(f"number of bins must be >= 1, got {num_bins}")
    idx = _bin_indices(pred.confidence, num_bins)
    correct = (pred.predicted_class == pred.labels).astype(np.float64)
    bins = []
    for m in range(num_bins):
        mask = idx == m
        count = int(mask.sum())
        if count:
            mean_conf = float(np.mean(pred.confidence[mask]))
            mean_acc = float(np.mean(correct[mask]))
        else:
            mean_conf = None
            mean_acc = None
        bins.append(
            BinStats(
                bin_index=m,
                count=count,
                mean_confidence=mean_conf,
                mean_accuracy=mean_acc,
                lower_edge=m / num_bins,
                upper_edge=(m + 1) / num_bins,
            )
        )
    return bins


def ece(bins: list[BinStats], n: int) -> float:
    """Bin-weighted calibration error: sum over non-empty bins of
    (count/N) * |acc - conf|."""
    total = sum(b.count for b in bins)
    if total != n:
        raise DataError(f"bin counts sum to {total} but N={n}")
    if n < 1:
        raise DataError("ECE needs at least one sample")
    value = 0.0
    for b in bins:
        if b.count:
            gap = abs(b.mean_accuracy - b.mean_confidence)
            value += (b.count / n) * gap
    return value


def mce(bins: list[BinStats]) -> float:
    """Largest |acc - conf| over non-empty bins."""
    gaps = [abs(b.mean_accuracy - b.mean_confidence) for b in bins if b.count]
    if not gaps:
        raise DataError("MCE is undefined when every bin is empty")
    return max(gaps)


def accuracy(pred: PredictionSet) -> float:
    """Fraction of samples whose predicted class equals the label."""
    return float(np.mean(pred.predicted_class == pred.labels))


def calibration_report(pred: PredictionSet, num_bins: int = DEFAULT_NUM_BINS) -> CalibrationReport:
    bins = reliability_bins(pred, num_bins)
    return CalibrationReport(
        accuracy=accuracy(pred), ece=ece(bins, pred.n), mce=mce(bins), bins=bins
    )


RELIABILITY_CSV_HEADER = "bin_index,lower,upper,count,mean_confidence,mean_accuracy"


def write_reliability_csv(bins: list[BinStats], path) -> None:
    """Write one row per bin; empty bins emit empty-string statistics."""
    lines = [RELIABILITY_CSV_HEADER]
    for b in bins:
        conf = repr(b.mean_confidence) if b.count else ""
        acc = repr(b.mean_accuracy) if b.count else ""
        lines.append(f"{b.bin_index},{b.lower_edge!r},{b.upper_edge!r},{b.count},{conf},{acc}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
