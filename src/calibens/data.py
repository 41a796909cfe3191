"""Datasets, file formats, splitting and synthetic generators.

Feature datasets are frozen-backbone feature vectors plus integer labels.
On disk they use a little-endian binary layout (magic ``FDS1``):

    FDS1 | u32 N | u32 D | u32 C | N x (D x f32 features, u32 label)

load_dataset is the one reader. It maps the file read-only and checks it
(header, length, finite features, labels below C); the FeatureDataset it
returns holds the file's f32 feature view, not a copy, so a caller that
needs only the labels, or a few rows at a time, never holds every feature.
Every dataset's features are numerics.DTYPE, float32, which the heads and
combiners compute in. split_indices draws a split's row indices from the
labels alone, and split gathers the two parts' rows, each a fresh array.
The container module holds the rules this layout shares with the head and
combiner files.

Generating and writing hold one copy of the features: synth_clusters fills
one (N, D) DTYPE array a row block (numerics.BLOCK_BYTES) at a time,
synth_cluster_pair hands out row views of it, and save_dataset copies the
records into a buffer of one row block at a time. So the peak is the
float32 features plus about a block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import container
from .errors import ConfigError, DataError, StratificationError
from .numerics import DTYPE, RngStream, check_labels, first_bad_label, require_finite, row_blocks

FDS_MAGIC = b"FDS1"
FDS_HEADER = "<III"


@dataclass(eq=False)
class FeatureDataset:
    """Frozen features plus labels; immutable after construction. The
    constructor casts the features to DTYPE, so a value beyond float32's
    range fails its finite check; load_dataset and split skip it."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        with np.errstate(over="ignore"):  # require_finite below names the overflow
            features = np.ascontiguousarray(self.features, dtype=DTYPE)
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
    """A FeatureDataset of arrays that already pass every check of the
    constructor: rows of a checked dataset, or a file load_dataset has
    checked. Only the read-only flags are set; this saves a full pass over
    the features per slice or load."""
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
    each copied into one buffer, valid until the next is asked for."""
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
    of records besides the dataset, never a copy of the features."""
    header = (dataset.n, dataset.dim, dataset.num_classes)
    container.write(path, FDS_MAGIC, FDS_HEADER, header, _record_blocks(dataset))


def load_dataset(path, digest=None) -> FeatureDataset:
    """The FDS1 file at `path`, mapped read-only and checked: its features
    are the file's (N, D) f32 record view, every value finite and none cast,
    and its labels (N,) int64, every one below C. The mapping stays open as
    long as the features are alive. `digest`, when given, is updated with
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
    i = first_bad_label(labels, num_classes)  # the file's u32 labels are never negative
    if i is not None:
        raise reader.error(
            f"label {int(labels[i])} at record {i} >= C={num_classes}",
            offset=start + i * record.itemsize + 4 * dim,
        )
    return _rows_of_checked(features, labels, num_classes)


def check_val_fraction(val_fraction: float) -> None:
    """The rule split_indices puts on val_fraction; the CLI checks it before
    it reads the file."""
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"--val-fraction must be in (0, 1), got {val_fraction}")


def split_indices(labels: np.ndarray, num_classes: int, val_fraction: float, seed: int):
    """Row indices of a stratified train/validation split of `labels`,
    drawn from the labels alone. The labels must lie in [0, num_classes)
    (load_dataset and FeatureDataset check them); they are not checked here,
    and a row with any other label is in neither part.

    Each class is shuffled with the seeded stream and contributes a validation
    share within half a sample of val_fraction (so always within +-1). Returns
    (train, val), each sorted; the two are disjoint and their union is every
    row. A class with fewer than two samples, or a val_fraction that gives no
    class a validation row, raises StratificationError.
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
    if not any(len(rows) for rows in val_idx):
        raise StratificationError(
            f"--val-fraction {val_fraction} gives no class a validation row; "
            "raise it or use more samples per class"
        )
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(val_idx))


def split(dataset: FeatureDataset, val_fraction: float, seed: int):
    """The (train, val) datasets of split_indices(dataset.labels, ...): each
    part gathers its rows of the features, in index order, into a fresh
    C-contiguous array."""
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

    The features are centers[labels] + draw, draw the stream's (N, D)
    standard normals, summed in float64 and cast to DTYPE a row block at a
    time. The block draws are one draw's bits: PCG64's standard_normal
    carries no state between calls (the test varying BLOCK_BYTES pins it).
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
    features = np.empty((n, d), DTYPE)
    with np.errstate(over="ignore"):  # FeatureDataset names a feature the cast overflows
        for start, stop in row_blocks(n, 8 * d):
            draw = stream.standard_normal((stop - start, d))
            features[start:stop] = centers[labels[start:stop]] + draw
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
