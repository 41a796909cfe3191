"""Combine the outputs of m heads into a single prediction.

Two parameter-free rules (probability averaging, majority voting) and four
trainable combiner models:

* ``SL``   one fully connected layer over the m*C concatenated head outputs
* ``DL``   two layers with ReLU and dropout, hidden width ceil(m*C / 2)
* ``DLL``  like DL with hidden width m*C
* ``SLpC`` one m-input layer per class, wired only to that class's m values

Avg. and Vot. take the (N, m, C) probabilities as given (evaluate passes the
heads' float64 block). Every trainable combiner computes in DTYPE, float32:
HeadOutputs holds its inputs, and its parameters, gradients, dropout masks,
logits and probabilities are all DTYPE, so no float64 array enters one of its
products (numpy would promote the product to float64). Its losses are
float64 (numerics.cross_entropy), and its confidences are widened to float64
for the metrics. A DTYPE row of the heads' float64 probabilities sums to 1
within the slack _sum_tolerance states.

Combiner model files (magic ``MMD1``) are little-endian:

    MMD1 | u8 KINDS index | u32 m | u32 C | u32 h (0 when unused) | f32 dropout_p |
    u64 seed | parameter blocks as f32 (each layer: weights row-major, then bias)

so a combiner file holds its DTYPE parameters exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import container
from .errors import ConfigError, DataError, DimensionError
from .metrics import PredictionSet, predictions_from_probs
from .numerics import (
    DTYPE,
    RngStream,
    _softmax_ce_grad,
    backward_linear,
    backward_mlp,
    check_labels,
    check_sgd_settings,
    cross_entropy,
    dropout_mask,
    fit,
    linear_forward,
    row_blocks,
    softmax_in_place,
    split_params,
)

KINDS = ("SL", "DL", "DLL", "SLpC")
META_MAGIC = b"MMD1"
META_HEADER = "<BIIIfQ"


def _sum_tolerance(dtype) -> float:
    """How far a row of `dtype` may sum from 1: 1e-9, plus 2**-23 for
    float32 rows, so the float32 cast of a row that passed as float64 always
    passes. The cast moves each normal entry by at most 2**-24 of itself,
    so the (non-negative) sum by at most 2**-24 * (1 + 1e-9); subnormals
    move by at most 2**-150 each, and the float64 sums of the two rows
    round by about C * 2**-53 each. The second 2**-24 covers those terms
    for any C below 2**26."""
    return 1e-9 + (2.0**-23 if dtype == DTYPE else 0.0)


def _off_sum(block: np.ndarray) -> np.ndarray:
    """(rows, m) mask of the rows of the (rows, m, C) `block` whose float64
    sum lies further from 1 than _sum_tolerance allows (NaN sums included)."""
    return ~(np.abs(block.sum(axis=2, dtype=np.float64) - 1.0) <= _sum_tolerance(block.dtype))


def _all_probability_rows(block: np.ndarray) -> bool:
    """Whether every entry of the (rows, m, C) `block` is finite and every
    row a probability vector, in one pass: no entry below 0 and no row
    flagged by _off_sum. The min propagates a NaN, and a row holding an inf
    sums to inf or NaN, so no non-finite block passes; initial=0.0 lets an
    empty block pass, where a plain min raises."""
    return bool(block.min(initial=0.0) >= 0.0) and not _off_sum(block).any()


def _raise_first_fault(values: np.ndarray) -> None:
    """Raise the DataError naming the lowest head of the (N, m, C) `values`
    that holds a non-finite value or, when every value is finite, a row
    that is not a probability vector (a negative entry, or a row _off_sum
    flags)."""
    if not np.isfinite(values).all():
        i, n, c = np.argwhere(~np.isfinite(values.transpose(1, 0, 2)))[0]
        raise DataError(f"head {i} output holds a non-finite value at index [{n}, {c}]")
    off_simplex = (values < 0.0).any(axis=2) | _off_sum(values)
    i = np.nonzero(off_simplex.any(axis=0))[0][0]
    raise DataError(f"head {i} rows are not probability vectors")


def check_probabilities(values: np.ndarray) -> None:
    """Check the (N, m, C) head outputs `values` (float64 or float32) in one
    pass over row_blocks, so the temporaries stay small however large N is:
    every value finite and every row a probability vector. Only when a block
    fails is the whole array diagnosed, non-finite values first, and the
    DataError names the lowest offending head."""
    if values.ndim != 3:
        raise DimensionError(f"head outputs must be 3-D (N, m, C), got shape {values.shape}")
    if values.shape[1] == 0:
        raise DataError("need at least one head output")
    row_bytes = values.shape[1] * values.shape[2] * values.itemsize
    for start, stop in row_blocks(len(values), row_bytes):
        if not _all_probability_rows(values[start:stop]):
            _raise_first_fault(values)


@dataclass(eq=False)
class HeadOutputs:
    """The combiners' input: the m heads' softmax probabilities as one
    C-contiguous DTYPE array `values`, shaped (N, m, C): values[n, i, c] is
    head i's probability of class c for sample n, so values[:, i, :] is head
    i's (N, C) matrix.

    The constructor runs check_probabilities on the given values, in their
    own dtype, then keeps them as DTYPE: a C-contiguous DTYPE array, such as
    a read-only view of a mapped file, is kept as a view, never copied, and
    nothing in this module writes to it; any other array is cast. unchecked()
    wraps values that are already checked.

    stacked() (the (m, N, C) transpose) and concatenated() (the (N, m*C)
    reshape, head-major: head 0's C columns, then head 1's, ...) return
    views of `values`, not copies.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.dtype != DTYPE:
            values = values.astype(np.float64, copy=False)
        check_probabilities(values)
        self.values = np.ascontiguousarray(values, dtype=DTYPE)

    @classmethod
    def unchecked(cls, values: np.ndarray) -> "HeadOutputs":
        """Wrap the C-contiguous DTYPE (N, m, C) `values`, which hold checked
        outputs or a cast of them, without checking them again."""
        outputs = cls.__new__(cls)
        outputs.values = values
        return outputs

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def num_classes(self) -> int:
        return self.values.shape[2]

    def stacked(self) -> np.ndarray:
        """(m, N, C) view of the head outputs."""
        return self.values.transpose(1, 0, 2)

    def concatenated(self) -> np.ndarray:
        """(N, m*C) head-major view: head 0's C columns, then head 1's, ..."""
        return self.values.reshape(self.n, self.m * self.num_classes)


def _mean_over_heads(values: np.ndarray) -> np.ndarray:
    """Mean over axis 1 (the heads) of an (N, m, ...) array: the head columns
    added one at a time in head order, then divided by m. A cell's mean does
    not depend on how many cells share the call (a numpy sum over the axis
    adds pairwise when there is only one cell), but it does depend on head
    order, in the last bits."""
    total = values[:, 0].copy()
    for i in range(1, values.shape[1]):
        total += values[:, i]
    total /= values.shape[1]
    return total


def combine_average(probs: np.ndarray, labels) -> PredictionSet:
    """Mean of the heads' probability matrices, from the checked (N, m, C)
    probabilities `probs` (check_probabilities), in their dtype."""
    return predictions_from_probs(_mean_over_heads(probs), labels)


def combine_vote(probs: np.ndarray, labels, votes=None) -> PredictionSet:
    """Majority vote over the heads' argmax classes, from the checked
    (N, m, C) probabilities `probs` (check_probabilities), in their dtype.

    Vote ties go to the tied class with the higher mean head probability, then
    to the lowest class index. The reported confidence is the mean over all
    heads of their probability for the winning class (_mean_over_heads of
    that one cell, which gives the bits the full mean gives it). `votes`, the
    (N, m) head classes np.argmax(probs, axis=2), is computed here when not
    given. Only rows whose top vote count is shared by two or more classes
    average their tied classes; every other row's winner is its one top
    class.
    """
    n, _, c = probs.shape
    if votes is None:
        votes = np.argmax(probs, axis=2)
    rows = np.arange(n)
    counts = np.bincount((rows[:, None] * c + votes).ravel(), minlength=n * c).reshape(n, c)
    winner = np.argmax(counts, axis=1)  # the lowest class with the top count
    tied = counts == counts[rows, winner][:, None]
    shared = np.flatnonzero(tied.sum(axis=1) > 1)
    tied = tied[shared]
    means = np.full(tied.shape, -1.0)  # below any tied class's mean, which is >= 0
    means[tied] = _mean_over_heads(probs[shared].transpose(0, 2, 1)[tied])
    winner[shared] = np.argmax(means, axis=1)
    return PredictionSet(
        predicted_class=winner,
        confidence=_mean_over_heads(probs[rows, :, winner]),
        labels=np.asarray(labels, dtype=np.int64),
    )


def hidden_width(kind: str, m: int, num_classes: int) -> int:
    if kind == "DL":
        return math.ceil(m * num_classes / 2)
    if kind == "DLL":
        return m * num_classes
    return 0


def layer_shapes(kind: str, m: int, num_classes: int) -> list[tuple[int, int]]:
    """(out_width, in_width) of each layer's weights, in file order; each layer
    also has an out_width bias. SLpC's row c holds class c's m head inputs."""
    if kind not in KINDS:
        raise ConfigError(f"unknown combiner kind {kind!r}; expected one of {KINDS}")
    if kind == "SLpC":
        return [(num_classes, m)]
    h = hidden_width(kind, m, num_classes)
    if h:
        return [(h, m * num_classes), (num_classes, h)]
    return [(num_classes, m * num_classes)]


def param_count(kind: str, m: int, num_classes: int) -> int:
    """Trainable parameter count: weights plus bias of every layer."""
    return sum(out_w * in_w + out_w for out_w, in_w in layer_shapes(kind, m, num_classes))


@dataclass(eq=False)
class Metamodel:
    """Trainable combiner; `layers` holds (weights, bias) pairs per kind:
    SL and SLpC one pair, DL and DLL two."""

    kind: str
    num_heads: int
    num_classes: int
    hidden: int
    dropout_p: float
    seed: int
    layers: list = field(default_factory=list)
    training_history: list = field(default_factory=list)
    best_epoch: int | None = None  # kept snapshot (0: untrained); None if not trained here
    best_val_loss: float | None = None

    @property
    def param_count(self) -> int:
        return sum(w.size + b.size for w, b in self.layers)


@dataclass
class MetaTrainConfig:
    """Combiner training settings, checked when the config is built: a value
    out of range raises ConfigError naming its flag. dropout is the DL/DLL
    hidden-layer dropout that build_metamodel stores in the model; training
    reads it from there. The seed is the model's own, Metamodel.seed (the
    CLI's is --seed + 2000 + KINDS.index(kind)): it seeds init and training."""

    epochs: int = 20
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 128
    plateau_factor: float = 0.5
    plateau_patience: int = 3
    dropout: float = 0.5

    def __post_init__(self):
        check_sgd_settings(
            self,
            ("epochs", self.epochs >= 1, ">= 1"),
            ("dropout", 0.0 <= self.dropout < 1.0, "in [0, 1)"),
        )


def build_metamodel(
    kind: str, m: int, num_classes: int, seed: int, dropout_p: float = MetaTrainConfig.dropout
) -> Metamodel:
    """Initialize a combiner; each layer's weights and bias are drawn uniformly
    from [-1/sqrt(fan_in), 1/sqrt(fan_in)], fan_in being the layer's in_width,
    as float64 and then cast to DTYPE."""
    shapes = layer_shapes(kind, m, num_classes)
    if m < 1 or num_classes < 1:
        raise ConfigError(f"m and num_classes must be >= 1, got {m}, {num_classes}")
    stream = RngStream(seed)
    layers = []
    for out_width, in_width in shapes:
        bound = 1.0 / np.sqrt(in_width)
        weights = stream.uniform(-bound, bound, (out_width, in_width))
        bias = stream.uniform(-bound, bound, out_width)
        layers.append((weights.astype(DTYPE), bias.astype(DTYPE)))
    hidden = hidden_width(kind, m, num_classes)
    return Metamodel(
        kind=kind,
        num_heads=m,
        num_classes=num_classes,
        hidden=hidden,
        dropout_p=dropout_p if hidden else 0.0,
        seed=int(seed),
        layers=layers,
    )


def _check_outputs(meta: Metamodel, outputs: HeadOutputs) -> None:
    if outputs.m != meta.num_heads or outputs.num_classes != meta.num_classes:
        raise DimensionError(
            f"outputs (m={outputs.m}, C={outputs.num_classes}) do not match "
            f"{meta.kind} model (m={meta.num_heads}, C={meta.num_classes})"
        )


def _slpc_logits(weights, bias, stacked):
    # logit[n, c] = sum_i weights[c, i] * stacked[i, n, c] + bias[c]
    return np.einsum("cm,mnc->nc", weights, stacked) + bias


def metamodel_forward(meta: Metamodel, outputs: HeadOutputs) -> np.ndarray:
    """Evaluation-mode logits of the combiner: no dropout (training draws
    its hidden-layer masks for metamodel_gradients)."""
    _check_outputs(meta, outputs)
    (w, b), *rest = meta.layers
    if meta.kind == "SLpC":
        return _slpc_logits(w, b, outputs.stacked())
    x = linear_forward(outputs.concatenated(), w, b)
    for w, b in rest:
        x = linear_forward(np.maximum(x, 0.0, out=x), w, b)  # ReLU in place on the fresh product
    return x


def combine_metamodel(meta: Metamodel, outputs: HeadOutputs, labels) -> PredictionSet:
    """Evaluation-mode combiner predictions."""
    probs = softmax_in_place(metamodel_forward(meta, outputs))  # fresh logits
    return predictions_from_probs(probs, labels)


def metamodel_gradients(meta: Metamodel, outputs: HeadOutputs, labels, mask=None):
    """Loss and per-layer gradients of mean softmax cross-entropy.

    mask is a precomputed dropout mask over the hidden layer (training) or
    None for evaluation mode. Returns (loss, [(d_w, d_b), ...]).
    """
    _check_outputs(meta, outputs)
    labels = np.asarray(labels, dtype=np.int64)
    loss, grads = _gradients(meta.kind, meta.layers, outputs.values, labels, mask)
    return loss, list(zip(grads[0::2], grads[1::2]))


def _gradients(kind: str, layers: list, values: np.ndarray, labels: np.ndarray, mask):
    """metamodel_gradients, unchecked, of a `kind` combiner with these
    (weights, bias) `layers` on the (B, m, C) outputs `values`; returns
    (loss, [d_w, d_b, ...]) in file order."""
    inputs = values.reshape(len(values), -1)  # HeadOutputs.concatenated
    if len(layers) == 2:
        (w1, b1), (w2, b2) = layers
        loss, *grads = backward_mlp(inputs, w1, b1, w2, b2, labels, mask=mask)
        return loss, grads
    (w, b), = layers
    if kind == "SL":
        loss, *grads = backward_linear(inputs, w, b, labels)
        return loss, grads
    stacked = values.transpose(1, 0, 2)  # HeadOutputs.stacked
    loss, dz = _softmax_ce_grad(_slpc_logits(w, b, stacked), labels)
    return loss, [np.einsum("nc,mnc->cm", dz, stacked), dz.sum(axis=0)]


def train_metamodel(
    meta: Metamodel,
    train_outputs: HeadOutputs,
    train_labels,
    val_outputs: HeadOutputs,
    val_labels,
    cfg: MetaTrainConfig,
) -> Metamodel:
    """Train a DTYPE copy of `meta` with numerics.fit for exactly cfg.epochs
    epochs (no early stopping). The untrained model is snapshot candidate
    zero, so the returned model never validates worse than its starting
    point; the input model is left untouched. The inputs are checked once,
    here: each mini-batch takes its gradients unchecked, into fit's buffer,
    whose (1, ...) views, read [0], are the live layers. fit's permutations
    and the dropout masks (DL/DLL) come from one stream seeded meta.seed."""
    _check_outputs(meta, train_outputs)
    _check_outputs(meta, val_outputs)
    train_labels = check_labels(train_labels, meta.num_classes)
    val_labels = check_labels(val_labels, meta.num_classes)
    if train_labels.shape[0] != train_outputs.n or val_labels.shape[0] != val_outputs.n:
        raise DimensionError("labels do not match head-output sample counts")

    arrays = [a for pair in meta.layers for a in pair]
    shapes = [a.shape for a in arrays]
    params = np.concatenate([a.reshape(1, -1) for a in arrays], axis=1, dtype=DTYPE)
    stream = RngStream(meta.seed)
    use_dropout = meta.hidden and meta.dropout_p > 0.0
    # each mini-batch gathers its outputs into a prefix of one buffer; mode
    # "clip" (idx is always in range) lets take write to it directly
    batches = np.empty((min(cfg.batch_size, train_outputs.n), meta.num_heads, meta.num_classes),
                       DTYPE)

    def live_layers(params):  # the (weights, bias) pairs: row 0 of fit's views
        return [(params[i][0], params[i + 1][0]) for i in range(0, len(params), 2)]

    def grad_fn(params, grads, idx):
        batch = idx[0]
        values = batches[: len(batch)]
        train_outputs.values.take(batch, axis=0, out=values, mode="clip")
        mask = None
        if use_dropout:
            mask = dropout_mask((len(batch), meta.hidden), meta.dropout_p, stream)
        loss, layer_grads = _gradients(
            meta.kind, live_layers(params), values, train_labels[batch], mask
        )
        for out, g in zip(grads, layer_grads):
            out[0] = g
        return loss

    def val_loss_fn(params):
        model = replace(meta, layers=live_layers(params))
        probs = softmax_in_place(metamodel_forward(model, val_outputs))  # fresh logits
        return np.array([cross_entropy(probs, val_labels)])

    result, = fit(
        params,
        shapes,
        grad_fn,
        val_loss_fn,
        cfg,
        num_samples=train_outputs.n,
        epochs=cfg.epochs,
        streams=[stream],
        initial_val_losses=val_loss_fn(split_params(params, shapes)),
    )
    return replace(
        meta,
        layers=list(zip(result.params[0::2], result.params[1::2])),
        training_history=result.history,
        best_epoch=result.best_epoch,
        best_val_loss=result.best_val_loss,
    )


def save_metamodel(meta: Metamodel, path) -> None:
    header = (
        KINDS.index(meta.kind),
        meta.num_heads,
        meta.num_classes,
        meta.hidden,
        meta.dropout_p,
        meta.seed,
    )
    payload = [arr for pair in meta.layers for arr in pair]
    container.write(path, META_MAGIC, META_HEADER, header, payload)


def load_metamodel(path) -> Metamodel:
    reader = container.Reader(path, META_MAGIC, META_HEADER)
    tag, m, num_classes, h, dropout_p, seed = reader.header
    if tag >= len(KINDS):
        raise reader.error(f"unknown kind tag {tag}", offset=4)
    kind = KINDS[tag]
    if m < 1 or num_classes < 1:
        raise reader.error(f"m={m}, C={num_classes} must both be >= 1", offset=4)
    if not 0.0 <= dropout_p < 1.0:
        raise reader.error(f"dropout probability {dropout_p} outside [0, 1)", offset=17)
    if h != hidden_width(kind, m, num_classes):
        raise reader.error(
            f"hidden width {h} inconsistent with kind {kind}, m={m}, C={num_classes}",
            offset=13,
        )
    reader.expect_payload(4 * param_count(kind, m, num_classes))
    layers = [
        (reader.f32((out_width, in_width)).copy(), reader.f32((out_width,)).copy())
        for out_width, in_width in layer_shapes(kind, m, num_classes)
    ]
    return Metamodel(
        kind=kind,
        num_heads=m,
        num_classes=num_classes,
        hidden=h,
        dropout_p=float(dropout_p),
        seed=seed,
        layers=layers,
    )
