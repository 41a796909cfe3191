"""Seeded linear classifier heads trained on frozen features.

Each head is a single fully connected layer trained on softmax cross-entropy
by mini-batch SGD, with early stopping. A family of m heads differs only in
its seeds (head i uses base_seed + i).

Two trainers produce the same family bit for bit. The CLI uses
train_heads_lockstep, which trains all heads still running as one stacked
model: their parameters live in (k, C, D) and (k, C) buffers, one call
computes every head's mini-batch gradients and one sgd_step (with one
learning rate per head) updates them all, so each mini-batch costs a fixed
number of numpy calls whatever m is. train_head_family trains the heads one
after another with train_head and numerics.fit; it stays as the plain
reference the tests compare the lockstep trainer against.

Head files (magic ``HDW1``) are little-endian:

    HDW1 | u32 D | u32 C | u64 seed | C*D x f32 weights (row-major) | C x f32 bias
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import container
from .data import FeatureDataset
from .errors import CalibensError, ConfigError, DataError, DimensionError, TrainingError
from .numerics import (
    EpochRule,
    FitResult,
    RngStream,
    SgdState,
    backward_linear,
    backward_linear_stacked,
    check_sgd_settings,
    cross_entropy,
    derive_seed,
    fit,
    linear_forward,
    sgd_step,
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
    bit, trained together as one stacked model.

    Row j of the weights (k, C, D), bias (k, C) and velocity buffers belongs
    to live[j], the j-th head still training. Each head keeps its own seeded
    stream (its init, then one permutation per epoch) and its own
    numerics.EpochRule (learning rate, history, snapshot, stop). Each
    mini-batch takes every live head's gradients from one
    numerics.backward_linear_stacked call and updates them with one
    sgd_step at the heads' learning-rate vector; each element sees the same
    operations in the same order as in train_head. A head that stops leaves
    the buffers at the end of that epoch. A non-finite loss ends training
    with a TrainingError naming the lowest failing head index.
    """
    if m < 1:
        raise ConfigError(f"head count must be >= 1, got {m}")
    _check_shared_shape(train, val)
    seeds = [derive_seed(base_seed, i) for i in range(m)]
    streams = [RngStream(seed) for seed in seeds]
    weights = np.empty((m, train.num_classes, train.dim))
    bias = np.empty((m, train.num_classes))
    for i, stream in enumerate(streams):
        weights[i], bias[i] = _init_params(train.dim, train.num_classes, stream)
    rules = [EpochRule([weights[i], bias[i]], cfg, cfg.early_stop_patience) for i in range(m)]
    sgd = SgdState(np.full(m, cfg.lr), cfg.momentum, cfg.weight_decay)
    live = list(range(m))
    for epoch in range(1, cfg.max_epochs + 1):
        orders = np.stack([streams[i].permutation(train.n) for i in live])
        loss_sums = np.zeros(len(live))
        for start in range(0, train.n, cfg.batch_size):
            idx = orders[:, start : start + cfg.batch_size]
            losses, d_weights, d_bias = backward_linear_stacked(
                train.features[idx], weights, bias, train.labels[idx]
            )
            finite = np.isfinite(losses)
            if not finite.all():
                i = live[int(np.argmin(finite))]
                raise TrainingError(
                    f"head {i}: non-finite training loss at epoch {epoch}", epoch=epoch
                )
            sgd_step([weights, bias], [d_weights, d_bias], sgd)
            loss_sums += losses * idx.shape[1]
        keep = []
        for j, i in enumerate(live):
            try:
                val_loss = _validation_loss(weights[j], bias[j], val)
                stop = rules[i].end_epoch(
                    epoch, float(loss_sums[j]) / train.n, val_loss, [weights[j], bias[j]]
                )
            except TrainingError as exc:
                raise TrainingError(f"head {i}: {exc}", epoch=exc.epoch) from exc
            if not stop:
                keep.append(j)
        if len(keep) < len(live):
            weights, bias = weights[keep], bias[keep]
            sgd.velocity = [v[keep] for v in sgd.velocity]
            live = [live[j] for j in keep]
            if not live:
                break
        sgd.learning_rate = np.array([rules[i].lr for i in live])
    return [_trained_head(seed, rules[i].result()) for i, seed in enumerate(seeds)]


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
