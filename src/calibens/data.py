"""Datasets, file formats, splitting and synthetic generators.

Feature datasets are frozen-backbone feature vectors plus integer labels.
On disk they use a little-endian binary layout (magic ``FDS1``):

    FDS1 | u32 N | u32 D | u32 C | N x (D x f32 features, u32 label)

Files store 32-bit floats; everything computed from them is 64-bit. A file
is read in two parts. map_dataset maps it read-only and checks it (header,
length, finite features, labels below C) without casting anything, so a
caller that needs only the labels, or a few rows at a time, never holds the
float64 matrix; load_dataset casts the whole matrix into a FeatureDataset.
Likewise split_indices draws a split's row indices from the labels alone,
and split gathers those rows. The container module holds the rules this
layout shares with the head and combiner files.

Generating and writing hold one copy of the features: synth_clusters adds
the cluster centers into its one standard-normal draw in row blocks,
synth_cluster_pair hands out row views of that draw, and save_dataset casts
the records into a buffer of one row block (numerics.BLOCK_BYTES) at a
time. So the peak is the float64 features plus about a block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import container
from .errors import ConfigError, DataError, StratificationError
from .numerics import RngStream, check_labels, require_finite, row_blocks

FDS_MAGIC = b"FDS1"
FDS_HEADER = "<III"


@dataclass(eq=False)
class FeatureDataset:
    """Frozen features plus labels; immutable after construction."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

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


def _rows_of_checked(features: np.ndarray, labels: np.ndarray, num_classes: int) -> FeatureDataset:
    """A FeatureDataset of fresh arrays that already pass every check of the
    constructor: rows of a checked dataset, or a file the container has
    read. Only the read-only flags are set; this saves a full pass over the
    features per slice or load."""
    dataset = FeatureDataset.__new__(FeatureDataset)
    features.setflags(write=False)
    labels.setflags(write=False)
    dataset.features, dataset.labels, dataset.num_classes = features, labels, num_classes
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
        if not 0.0 <= self.cluster_separation < np.inf:
            raise ConfigError(
                f"cluster separation must be finite and >= 0, got {self.cluster_separation}"
            )
        if not 0.0 <= self.label_noise < 1.0:
            raise ConfigError(f"label noise must be in [0, 1), got {self.label_noise}")
        if self.label_noise > 0.0 and self.num_classes < 2:
            raise ConfigError("label noise needs at least two classes")


def _dataset_record_dtype(dim: int) -> np.dtype:
    return np.dtype([("f", "<f4", (dim,)), ("y", "<u4")])


def _record_blocks(dataset: FeatureDataset):
    """The FDS1 records of `dataset` in row blocks of at most BLOCK_BYTES,
    each cast on assignment (which rounds as astype("<f4") does) into one
    reused buffer: a block is valid until the next is asked for."""
    record = _dataset_record_dtype(dataset.dim)
    blocks = row_blocks(dataset.n, record.itemsize)
    buffer = np.empty(max(stop - start for start, stop in blocks), record)
    for start, stop in blocks:
        records = buffer[: stop - start]
        records["f"] = dataset.features[start:stop]
        records["y"] = dataset.labels[start:stop]
        yield records


def save_dataset(dataset: FeatureDataset, path) -> None:
    """Write `dataset` to `path` as FDS1 (replacing any file there). The
    records stream out a row block at a time, so the call holds one block
    of records besides the dataset, never an f32 copy of the features."""
    header = (dataset.n, dataset.dim, dataset.num_classes)
    container.write(path, FDS_MAGIC, FDS_HEADER, header, _record_blocks(dataset))


@dataclass(eq=False)
class MappedDataset:
    """An FDS1 file mapped read-only and checked: `features_f32` is the
    (N, D) f32 feature view of the file, every value finite, and `labels`
    the (N,) int64 labels, every one below num_classes. Both are read-only.
    features(rows) is the one place the features become float64."""

    features_f32: np.ndarray
    labels: np.ndarray
    num_classes: int

    @property
    def n(self) -> int:
        return self.features_f32.shape[0]

    @property
    def dim(self) -> int:
        return self.features_f32.shape[1]

    def features(self, rows=slice(None)) -> np.ndarray:
        """The float64 features of `rows` (an index array or a slice; all
        rows by default) as a fresh C-contiguous (len(rows), D) array."""
        return self.features_f32[rows].astype(np.float64, order="C")


def map_dataset(path, digest=None) -> MappedDataset:
    """The FDS1 file at `path`, mapped and checked (see MappedDataset), with
    no float64 copy of its features; `digest`, when given, is updated with
    the file's bytes (see container.Reader). A fault raises FormatError at
    its byte offset: a bad header or length, then the first non-finite
    feature, then the first label >= C."""
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
    labels.setflags(write=False)
    return MappedDataset(features, labels, num_classes)


def load_dataset(path, digest=None) -> FeatureDataset:
    """The dataset in the FDS1 file at `path`, its features cast to one
    float64 matrix; `digest` as for map_dataset, which does every check.
    Training reads the whole matrix each epoch; a caller that needs fewer
    rows, or only the labels, uses map_dataset instead."""
    mapped = map_dataset(path, digest)
    return _rows_of_checked(mapped.features(), mapped.labels, mapped.num_classes)


def check_val_fraction(val_fraction: float) -> None:
    """The rule split puts on val_fraction; the CLI checks it before reading
    any file."""
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"--val-fraction must be in (0, 1), got {val_fraction}")


def split_indices(labels: np.ndarray, num_classes: int, val_fraction: float, seed: int):
    """Row indices of a stratified train/validation split of `labels`
    (checked to lie in [0, num_classes)), drawn from the labels alone.

    Each class is shuffled with the seeded stream and contributes a validation
    share within half a sample of val_fraction (so always within +-1). Returns
    (train, val), each sorted; the two are disjoint and their union is every
    row.
    """
    check_val_fraction(val_fraction)
    stream = RngStream(seed)
    train_idx, val_idx = [], []
    for c in range(num_classes):
        class_idx = np.nonzero(labels == c)[0]
        n_c = class_idx.shape[0]
        if n_c < 2:
            raise StratificationError(
                f"class {c} has {n_c} sample(s); stratified split needs >= 2"
            )
        n_val = min(int(round(val_fraction * n_c)), n_c - 1)
        shuffled = class_idx[stream.permutation(n_c)]
        val_idx.append(shuffled[:n_val])
        train_idx.append(shuffled[n_val:])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(val_idx))


def split(dataset: FeatureDataset, val_fraction: float, seed: int):
    """The (train, val) datasets of split_indices(dataset.labels, ...): each
    part gathers its rows of the float64 features, in index order."""
    return tuple(
        _rows_of_checked(dataset.features[sel], dataset.labels[sel], dataset.num_classes)
        for sel in split_indices(dataset.labels, dataset.num_classes, val_fraction, seed)
    )


def synth_clusters(spec: SynthSpec) -> FeatureDataset:
    """Balanced Gaussian clusters.

    Class centers sit on a sphere of radius cluster_separation (random
    directions), samples have unit variance around their center, and a
    label_noise fraction of labels is reassigned uniformly to a different
    class. The features keep their original cluster, so the best achievable
    accuracy at large separation is roughly 1 - label_noise.

    The features are the stream's one (N, D) standard-normal draw, each row's
    center added in place a row block at a time: the same bits as
    centers[labels] + draw, without an (N, D) array of centers.
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
    features = stream.standard_normal((n, d))
    for start, stop in row_blocks(n, features.itemsize * d):
        features[start:stop] += centers[labels[start:stop]]
    if spec.label_noise > 0.0:
        num_noisy = int(round(spec.label_noise * n))
        noisy = stream.permutation(n)[:num_noisy]
        offsets = stream.integers(1, c, num_noisy)
        labels = labels.copy()
        labels[noisy] = (labels[noisy] + offsets) % c
    return FeatureDataset(features=features, labels=labels, num_classes=c)


def synth_cluster_pair(spec: SynthSpec, test_samples: int):
    """Matched train/test datasets sharing one cluster geometry.

    A single draw of num_samples + test_samples is carved into a training set
    (first num_samples rows) and a test set (the rest), so both come from the
    same clusters while sharing no samples. The two are read-only row views
    of that one draw, not copies: together they hold one copy of the
    features, and the draw lives as long as either of them.
    """
    if test_samples < 1:
        raise ConfigError(f"test sample count must be >= 1, got {test_samples}")
    full = synth_clusters(replace(spec, num_samples=spec.num_samples + test_samples))
    n = spec.num_samples
    return tuple(
        _rows_of_checked(full.features[sel], full.labels[sel], full.num_classes)
        for sel in (slice(0, n), slice(n, None))
    )
