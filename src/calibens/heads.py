"""Seeded linear classifier heads trained on frozen features.

Each head is a single fully connected layer trained on softmax cross-entropy
by mini-batch SGD, with early stopping. A family of m heads differs only in
its seeds: both trainers take base_seed as an argument, and head i's one
seed, derive_seed(base_seed, i), draws its init and per-epoch permutations.

Both trainers run numerics.fit, the one SGD loop of the package, and produce
the same family bit for bit. The CLI uses train_heads_lockstep, which hands
fit all m heads as one stack of (m, C, D) weights and (m, C) biases, so each
mini-batch costs one backward_linear_stacked call and one sgd_step whatever
m is. train_head_family trains the heads one after another with train_head
(fit with k = 1, through the 2-D backward_linear); it stays as the plain
reference the tests compare the lockstep trainer against.

Both train in DTYPE, float32, every dataset's feature dtype: the features
(contiguous, see _features), the parameters, velocities, gradients and the
validation forward. The initial weights are drawn as float64 and cast.
Every loss is float64 (numerics.cross_entropy and backward_linear_stacked
widen before the log), so the epoch rule compares float64 losses. Scoring
is DTYPE too: load_head keeps the file's f32 parameters, head_predict is
one head's DTYPE forward (a trained head and its file predict the same
bits), and pipeline.scored_blocks stacks m heads in one.

Head files (magic ``HDW1``) are little-endian:

    HDW1 | u32 D | u32 C | u64 seed | C*D x f32 weights (row-major) | C x f32 bias

so a head file holds its trained DTYPE parameters exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import container
from .data import FeatureDataset
from .errors import CalibensError, ConfigError, DataError, DimensionError, TrainingError
from .numerics import (
    DTYPE,
    FitResult,
    RngStream,
    backward_linear,
    backward_linear_stacked,
    check_sgd_settings,
    cross_entropy,
    derive_seed,
    fit,
    linear_forward,
    softmax,
)

HEAD_MAGIC = b"HDW1"
HEAD_HEADER = "<IIQ"

# history entries are (epoch, train_loss, val_loss, learning_rate)
EpochRecord = tuple[int, float, float, float]


@dataclass(eq=False)
class LinearHead:
    weights: np.ndarray  # (C, D)
    bias: np.ndarray  # (C,)
    seed: int
    training_history: list[EpochRecord] = field(default_factory=list)
    best_epoch: int | None = None  # kept snapshot (0: untrained); None if not trained here
    best_val_loss: float | None = None

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def param_count(self) -> int:
        return self.weights.size + self.bias.size


@dataclass
class HeadTrainConfig:
    """Head training settings, checked when the config is built: a value out
    of range raises ConfigError naming its flag."""

    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 128
    max_epochs: int = 100
    plateau_factor: float = 0.5
    plateau_patience: int = 5
    early_stop_patience: int = 15

    def __post_init__(self):
        check_sgd_settings(
            self,
            ("max_epochs", self.max_epochs >= 0, ">= 0"),
            ("early_stop_patience", self.early_stop_patience >= 1, ">= 1"),
        )


def _init_params(dim: int, num_classes: int, stream: np.random.Generator):
    """Fresh DTYPE head parameters: weights drawn as float64 uniform in
    [-1/sqrt(D), 1/sqrt(D)] and cast, bias zero."""
    bound = 1.0 / np.sqrt(dim)
    weights = stream.uniform(-bound, bound, (num_classes, dim)).astype(DTYPE)
    bias = np.zeros(num_classes, DTYPE)
    return weights, bias


def head_predict(head: LinearHead, features: np.ndarray) -> np.ndarray:
    """DTYPE logits for a feature batch; apply softmax downstream as needed.
    The features and parameters are cast to DTYPE (a no-op for f32 rows and
    a trained or loaded head), so a trained head predicts what its file
    does. A one-row batch is scored as two rows: numpy would run it as a
    matrix-vector product, which rounds differently from a matrix product."""
    features = np.asarray(features, dtype=DTYPE)
    if features.ndim != 2 or features.shape[1] != head.dim:
        raise DimensionError(
            f"features {features.shape} do not match head weights {head.weights.shape}"
        )
    weights, bias = (np.asarray(p, dtype=DTYPE) for p in (head.weights, head.bias))
    batch = np.repeat(features, 2, axis=0) if len(features) == 1 else features
    return linear_forward(batch, weights, bias)[: len(features)]


def _features(dataset: FeatureDataset) -> np.ndarray:
    """The DTYPE features of `dataset`, C-contiguous: its own (a split part,
    generated rows), else one copy of a loaded file's strided record view."""
    return np.ascontiguousarray(dataset.features, DTYPE)


def _validation_loss(weights, bias, features: np.ndarray, labels: np.ndarray) -> float:
    probs = softmax(linear_forward(features, weights, bias))
    return cross_entropy(probs, labels)


def _validation_losses(params, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The validation loss of each head in the stacked [weights, bias]."""
    return np.array([_validation_loss(w, b, features, labels) for w, b in zip(*params)])


def _check_shared_shape(train: FeatureDataset, val: FeatureDataset) -> None:
    if train.dim != val.dim or train.num_classes != val.num_classes:
        raise DataError(
            f"train (D={train.dim}, C={train.num_classes}) and "
            f"val (D={val.dim}, C={val.num_classes}) must share D and C"
        )


def _trained_head(seed: int, result: FitResult) -> LinearHead:
    best_weights, best_bias = result.params
    return LinearHead(
        weights=best_weights,
        bias=best_bias,
        seed=seed,
        training_history=result.history,
        best_epoch=result.best_epoch,
        best_val_loss=result.best_val_loss,
    )


def train_head(
    train: FeatureDataset, val: FeatureDataset, cfg: HeadTrainConfig, seed: int = 0
) -> LinearHead:
    """Train one head seeded `seed` with numerics.fit, stopping after
    cfg.early_stop_patience epochs without improvement; returns the kept snapshot."""
    _check_shared_shape(train, val)
    features, val_features = _features(train), _features(val)
    stream = RngStream(seed)
    weights, bias = _init_params(train.dim, train.num_classes, stream)

    def grad_fn(params, idx):
        batch = idx[0]
        loss, d_w, d_b = backward_linear(
            features[batch], params[0][0], params[1][0], train.labels[batch]
        )
        return np.array([loss]), [d_w[None], d_b[None]]

    result, = fit(
        [weights[None], bias[None]],
        grad_fn,
        lambda params: _validation_losses(params, val_features, val.labels),
        cfg,
        num_samples=train.n,
        epochs=cfg.max_epochs,
        streams=[stream],
        early_stop_patience=cfg.early_stop_patience,
    )
    return _trained_head(seed, result)


def train_head_family(
    train: FeatureDataset,
    val: FeatureDataset,
    m: int,
    base_seed: int,
    cfg: HeadTrainConfig,
) -> list[LinearHead]:
    """Train m heads on identical data, head i seeded with base_seed + i, one
    train_head run after another. This is the reference that
    train_heads_lockstep must equal."""
    if m < 1:
        raise ConfigError(f"head count must be >= 1, got {m}")
    heads = []
    for i in range(m):
        try:
            heads.append(train_head(train, val, cfg, derive_seed(base_seed, i)))
        except CalibensError as exc:
            raise TrainingError(f"head {i}: {exc}", getattr(exc, "epoch", None), i) from exc
    return heads


def train_heads_lockstep(
    train: FeatureDataset,
    val: FeatureDataset,
    m: int,
    base_seed: int,
    cfg: HeadTrainConfig,
) -> list[LinearHead]:
    """The heads of train_head_family(train, val, m, base_seed, cfg), bit for
    bit, trained by one numerics.fit call as a stack of m models.

    Head i is row i of the (m, C, D) weights and (m, C) biases, with its own
    seeded stream (its init, then one permutation per epoch) and its own
    epoch rule. Each mini-batch takes the live heads' gradients from one
    backward_linear_stacked call, whose slices equal backward_linear's, so
    each element sees the same operations in the same order as in
    train_head. A non-finite loss raises a TrainingError naming the lowest
    failing head.
    """
    if m < 1:
        raise ConfigError(f"head count must be >= 1, got {m}")
    _check_shared_shape(train, val)
    features, val_features = _features(train), _features(val)
    seeds = [derive_seed(base_seed, i) for i in range(m)]
    streams = [RngStream(seed) for seed in seeds]
    weights = np.empty((m, train.num_classes, train.dim), DTYPE)
    bias = np.empty((m, train.num_classes), DTYPE)
    for i, stream in enumerate(streams):
        weights[i], bias[i] = _init_params(train.dim, train.num_classes, stream)

    # every mini-batch gathers its (k, B, D) features into a prefix of one
    # buffer, so no batch allocates; mode="clip" (idx is always in range)
    # lets np.take write to `out` directly, where "raise" gathers into a
    # temporary first
    batches = np.empty(m * min(cfg.batch_size, train.n) * train.dim, DTYPE)

    def grad_fn(params, idx):
        batch = batches[: idx.size * train.dim].reshape(*idx.shape, train.dim)
        np.take(features, idx, axis=0, out=batch, mode="clip")
        losses, d_w, d_b = backward_linear_stacked(batch, *params, train.labels[idx])
        return losses, [d_w, d_b]

    try:
        results = fit(
            [weights, bias],
            grad_fn,
            lambda params: _validation_losses(params, val_features, val.labels),
            cfg,
            num_samples=train.n,
            epochs=cfg.max_epochs,
            streams=streams,
            early_stop_patience=cfg.early_stop_patience,
        )
    except TrainingError as exc:
        raise TrainingError(f"head {exc.model}: {exc}", exc.epoch, exc.model) from exc
    return [_trained_head(seed, result) for seed, result in zip(seeds, results)]


def save_head(head: LinearHead, path) -> None:
    header = (head.dim, head.num_classes, head.seed)
    container.write(path, HEAD_MAGIC, HEAD_HEADER, header, [head.weights, head.bias])


def load_head(path, digest=None) -> LinearHead:
    """The head in the HDW1 file at `path`, its f32 parameters copied out of
    the map; `digest`, when given, is updated with its bytes (container.Reader)."""
    reader = container.Reader(path, HEAD_MAGIC, HEAD_HEADER, digest)
    dim, num_classes, seed = reader.header
    if dim < 1 or num_classes < 1:
        raise reader.error(f"D={dim}, C={num_classes} must both be >= 1", offset=4)
    reader.expect_payload(4 * (num_classes * dim + num_classes))
    weights = reader.f32((num_classes, dim)).copy()
    bias = reader.f32((num_classes,)).copy()
    return LinearHead(weights=weights, bias=bias, seed=seed)
