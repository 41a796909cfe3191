"""Datasets, file formats, splitting and synthetic generators.

Feature datasets are frozen-backbone feature vectors plus integer labels.
On disk they use a little-endian binary layout (magic ``FDS1``):

    FDS1 | u32 N | u32 D | u32 C | N x (D x f32 features, u32 label)

Files store 32-bit floats; in memory everything is 64-bit. The container
module holds the rules this layout shares with the head and combiner files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import container
from .errors import ConfigError, DataError, StratificationError
from .numerics import RngStream, check_labels, require_finite

FDS_MAGIC = b"FDS1"
FDS_HEADER = "<III"


@dataclass(eq=False)
class FeatureDataset:
    """Frozen features plus labels; immutable after construction."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    name: str = ""

    def __post_init__(self):
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise DataError(f"features must be 2-D, got shape {features.shape}")
        n = features.shape[0]
        if n < 1:
            raise DataError("a dataset needs at least one sample")
        if labels.shape != (n,):
            raise DataError(
                f"labels shape {labels.shape} does not match {n} feature rows"
            )
        if self.num_classes < 1:
            raise DataError(f"class count must be >= 1, got {self.num_classes}")
        require_finite(features, "features")
        check_labels(labels, self.num_classes)
        # enforce the read-only contract: training must never mutate features
        features.setflags(write=False)
        labels.setflags(write=False)
        self.features = features
        self.labels = labels

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _rows_of_checked(
    features: np.ndarray, labels: np.ndarray, num_classes: int, name: str
) -> FeatureDataset:
    """A FeatureDataset of fresh arrays that already pass every check of the
    constructor: rows of a checked dataset, or a file the container has
    read. Only the read-only flags are set; this saves a full pass over the
    features per slice or load."""
    dataset = FeatureDataset.__new__(FeatureDataset)
    features.setflags(write=False)
    labels.setflags(write=False)
    dataset.features, dataset.labels = features, labels
    dataset.num_classes, dataset.name = num_classes, name
    return dataset


@dataclass
class SynthSpec:
    """Gaussian-cluster generator parameters."""

    num_classes: int
    dim: int
    num_samples: int
    cluster_separation: float
    label_noise: float
    seed: int

    def __post_init__(self):
        if self.num_classes < 1 or self.dim < 1 or self.num_samples < 1:
            raise ConfigError("num_classes, dim and num_samples must all be >= 1")
        if self.cluster_separation < 0.0:
            raise ConfigError(f"cluster separation must be >= 0, got {self.cluster_separation}")
        if not 0.0 <= self.label_noise < 1.0:
            raise ConfigError(f"label noise must be in [0, 1), got {self.label_noise}")
        if self.label_noise > 0.0 and self.num_classes < 2:
            raise ConfigError("label noise needs at least two classes")


def _dataset_record_dtype(dim: int) -> np.dtype:
    return np.dtype([("f", "<f4", (dim,)), ("y", "<u4")])


def save_dataset(dataset: FeatureDataset, path) -> None:
    records = np.empty(dataset.n, dtype=_dataset_record_dtype(dataset.dim))
    records["f"] = dataset.features.astype("<f4")
    records["y"] = dataset.labels.astype("<u4")
    header = (dataset.n, dataset.dim, dataset.num_classes)
    container.write(path, FDS_MAGIC, FDS_HEADER, header, [records])


def load_dataset(path, digest=None) -> FeatureDataset:
    """The dataset in the FDS1 file at `path`; `digest`, when given, is
    updated with the file's bytes (see container.Reader)."""
    reader = container.Reader(path, FDS_MAGIC, FDS_HEADER, digest)
    n, dim, num_classes = reader.header
    if n < 1 or dim < 1 or num_classes < 1:
        raise reader.error(f"N={n}, D={dim}, C={num_classes} must all be >= 1", offset=4)
    reader.expect_payload(n * (4 * dim + 4))  # bounds D before numpy sees it
    record = _dataset_record_dtype(dim)
    start = reader.offset
    features, labels = reader.records(record, n)
    labels = labels.astype(np.int64)
    bad = np.nonzero(labels >= num_classes)[0]
    if bad.size:
        i = int(bad[0])
        raise reader.error(
            f"label {int(labels[i])} at record {i} >= C={num_classes}",
            offset=start + i * record.itemsize + 4 * dim,
        )
    return _rows_of_checked(features, labels, num_classes, Path(path).stem)


def split(dataset: FeatureDataset, val_fraction: float, seed: int):
    """Stratified train/validation split.

    Each class is shuffled with the seeded stream and contributes a validation
    share within half a sample of val_fraction (so always within +-1). Returns
    (train, val); the two are disjoint and their union is the input.
    """
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"val fraction must be in (0, 1), got {val_fraction}")
    stream = RngStream(seed)
    train_idx, val_idx = [], []
    for c in range(dataset.num_classes):
        class_idx = np.nonzero(dataset.labels == c)[0]
        n_c = class_idx.shape[0]
        if n_c < 2:
            raise StratificationError(
                f"class {c} has {n_c} sample(s); stratified split needs >= 2"
            )
        n_val = min(int(round(val_fraction * n_c)), n_c - 1)
        shuffled = class_idx[stream.permutation(n_c)]
        val_idx.append(shuffled[:n_val])
        train_idx.append(shuffled[n_val:])
    train_sel = np.sort(np.concatenate(train_idx))
    val_sel = np.sort(np.concatenate(val_idx))

    def subset(sel, tag):
        return _rows_of_checked(
            dataset.features[sel],
            dataset.labels[sel],
            dataset.num_classes,
            f"{dataset.name}-{tag}" if dataset.name else tag,
        )

    return subset(train_sel, "train"), subset(val_sel, "val")


def synth_clusters(spec: SynthSpec) -> FeatureDataset:
    """Balanced Gaussian clusters.

    Class centers sit on a sphere of radius cluster_separation (random
    directions), samples have unit variance around their center, and a
    label_noise fraction of labels is reassigned uniformly to a different
    class. The features keep their original cluster, so the best achievable
    accuracy at large separation is roughly 1 - label_noise.
    """
    stream = RngStream(spec.seed)
    c, d, n = spec.num_classes, spec.dim, spec.num_samples
    if spec.cluster_separation > 0.0:
        directions = stream.standard_normal((c, d))
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        centers = spec.cluster_separation * directions / norms
    else:
        centers = np.zeros((c, d))
    labels = np.arange(n, dtype=np.int64) % c
    features = centers[labels] + stream.standard_normal((n, d))
    if spec.label_noise > 0.0:
        num_noisy = int(round(spec.label_noise * n))
        noisy = stream.permutation(n)[:num_noisy]
        offsets = stream.integers(1, c, num_noisy)
        labels = labels.copy()
        labels[noisy] = (labels[noisy] + offsets) % c
    return FeatureDataset(
        features=features,
        labels=labels,
        num_classes=c,
        name=f"clusters-c{c}-d{d}-n{n}-s{spec.seed}",
    )


def synth_cluster_pair(spec: SynthSpec, test_samples: int):
    """Matched train/test datasets sharing one cluster geometry.

    A single draw of num_samples + test_samples is carved into a training set
    (first num_samples rows) and a test set (the rest), so both come from the
    same clusters while sharing no samples.
    """
    if test_samples < 1:
        raise ConfigError(f"test sample count must be >= 1, got {test_samples}")
    full_spec = SynthSpec(
        num_classes=spec.num_classes,
        dim=spec.dim,
        num_samples=spec.num_samples + test_samples,
        cluster_separation=spec.cluster_separation,
        label_noise=spec.label_noise,
        seed=spec.seed,
    )
    full = synth_clusters(full_spec)
    n = spec.num_samples

    def carve(sel, tag):
        return _rows_of_checked(
            full.features[sel].copy(),
            full.labels[sel].copy(),
            full.num_classes,
            f"clusters-c{spec.num_classes}-d{spec.dim}-s{spec.seed}-{tag}",
        )

    return carve(slice(0, n), "train"), carve(slice(n, None), "test")
