"""Seeded linear classifier heads trained on frozen features.

Each head is a single fully connected layer trained on softmax cross-entropy
by numerics.fit, with early stopping. A family of m heads differs only in its
seeds (head i uses base_seed + i).

Two trainers produce the same family bit for bit. The CLI uses
train_heads_lockstep, which steps every head's training loop together and
computes all m heads' mini-batch gradients in one stacked call, so the cost
of the many small per-batch numpy calls is paid once per step instead of once
per head. train_head_family trains the heads one after another with
train_head; it stays as the plain reference the tests compare the lockstep
trainer against.

Head files (magic ``HDW1``) are little-endian:

    HDW1 | u32 D | u32 C | u64 seed | C*D x f32 weights (row-major) | C x f32 bias
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import container
from .data import FeatureDataset
from .errors import CalibensError, ConfigError, DataError, DimensionError, TrainingError
from .numerics import (
    FitResult,
    RngStream,
    backward_linear,
    backward_linear_stacked,
    check_sgd_settings,
    cross_entropy,
    derive_seed,
    fit,
    fit_steps,
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
    seed: int = 0

    def __post_init__(self):
        check_sgd_settings(
            self,
            ("max_epochs", self.max_epochs >= 0, ">= 0"),
            ("early_stop_patience", self.early_stop_patience >= 1, ">= 1"),
        )


def _init_params(dim: int, num_classes: int, stream: RngStream):
    bound = 1.0 / np.sqrt(dim)
    weights = stream.uniform(-bound, bound, (num_classes, dim))
    bias = np.zeros(num_classes)
    return weights, bias


def init_head(dim: int, num_classes: int, seed: int) -> LinearHead:
    """Fresh head: weights uniform in [-1/sqrt(D), 1/sqrt(D)], bias zero."""
    if dim < 1 or num_classes < 1:
        raise ConfigError(f"dim and num_classes must be >= 1, got {dim}, {num_classes}")
    weights, bias = _init_params(dim, num_classes, RngStream(seed))
    return LinearHead(weights=weights, bias=bias, seed=int(seed))


def head_predict(
    head: LinearHead, features: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Logits for a feature batch, written into `out` when given (see
    linear_forward); apply softmax downstream as needed."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != head.dim:
        raise DimensionError(
            f"features {features.shape} do not match head weights {head.weights.shape}"
        )
    return linear_forward(features, head.weights, head.bias, out=out)


def _validation_loss(weights, bias, dataset: FeatureDataset) -> float:
    probs = softmax(linear_forward(dataset.features, weights, bias))
    return cross_entropy(probs, dataset.labels)


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


def train_head(train: FeatureDataset, val: FeatureDataset, cfg: HeadTrainConfig) -> LinearHead:
    """Train one head with numerics.fit, stopping after cfg.early_stop_patience
    epochs without improvement; returns the snapshot fit kept."""
    _check_shared_shape(train, val)
    stream = RngStream(cfg.seed)
    weights, bias = _init_params(train.dim, train.num_classes, stream)

    def grad_fn(batch):
        loss, d_w, d_b = backward_linear(train.features[batch], weights, bias, train.labels[batch])
        return loss, [d_w, d_b]

    result = fit(
        [weights, bias],
        grad_fn,
        lambda: _validation_loss(weights, bias, val),
        cfg,
        num_samples=train.n,
        epochs=cfg.max_epochs,
        stream=stream,
        early_stop_patience=cfg.early_stop_patience,
    )
    return _trained_head(cfg.seed, result)


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
            heads.append(train_head(train, val, replace(cfg, seed=derive_seed(base_seed, i))))
        except CalibensError as exc:
            raise TrainingError(f"head {i}: {exc}") from exc
    return heads


def train_heads_lockstep(
    train: FeatureDataset,
    val: FeatureDataset,
    m: int,
    base_seed: int,
    cfg: HeadTrainConfig,
) -> list[LinearHead]:
    """The heads of train_head_family(train, val, m, base_seed, cfg), bit for
    bit, trained together one mini-batch step at a time.

    Each head runs its own numerics.fit_steps loop (its own seeded stream,
    learning-rate schedule, stop rule, snapshot and sgd_step); at each step the
    gradients of every head still training come from one
    numerics.backward_linear_stacked call. Heads that stop early drop out.
    Training ends at the first step where a head fails, with a TrainingError
    naming that head's index (the lowest, if several fail at that step).
    """
    if m < 1:
        raise ConfigError(f"head count must be >= 1, got {m}")
    _check_shared_shape(train, val)
    seeds = [derive_seed(base_seed, i) for i in range(m)]
    weights = np.empty((m, train.num_classes, train.dim))
    bias = np.empty((m, train.num_classes))
    runs = []
    for i, seed in enumerate(seeds):
        stream = RngStream(seed)
        weights[i], bias[i] = _init_params(train.dim, train.num_classes, stream)
        runs.append(
            fit_steps(
                [weights[i], bias[i]],
                partial(_validation_loss, weights[i], bias[i], val),
                cfg,
                num_samples=train.n,
                epochs=cfg.max_epochs,
                stream=stream,
                early_stop_patience=cfg.early_stop_patience,
            )
        )
    batches, results = {}, {}

    def advance(i, step):
        try:
            batches[i] = runs[i].send(step)
        except StopIteration as done:
            batches.pop(i, None)
            results[i] = done.value
        except CalibensError as exc:
            raise TrainingError(f"head {i}: {exc}") from exc

    for i in range(m):
        advance(i, None)
    while batches:
        live = list(batches)
        idx = np.stack([batches[i] for i in live])
        losses, d_weights, d_bias = backward_linear_stacked(
            train.features[idx], weights[live], bias[live], train.labels[idx]
        )
        for j, i in enumerate(live):
            advance(i, (float(losses[j]), [d_weights[j], d_bias[j]]))
    return [_trained_head(seed, results[i]) for i, seed in enumerate(seeds)]


def save_head(head: LinearHead, path) -> None:
    header = (head.dim, head.num_classes, head.seed)
    container.write(path, HEAD_MAGIC, HEAD_HEADER, header, [head.weights, head.bias])


def load_head(path, digest=None) -> LinearHead:
    """The head in the HDW1 file at `path`; `digest`, when given, is updated
    with the file's bytes (see container.Reader)."""
    reader = container.Reader(path, HEAD_MAGIC, HEAD_HEADER, digest)
    dim, num_classes, seed = reader.header
    if dim < 1 or num_classes < 1:
        raise reader.error(f"D={dim}, C={num_classes} must both be >= 1", offset=4)
    reader.expect_payload(4 * (num_classes * dim + num_classes))
    weights = reader.f32((num_classes, dim))
    bias = reader.f32((num_classes,))
    return LinearHead(weights=weights, bias=bias, seed=seed)
