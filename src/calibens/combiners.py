"""Combine the outputs of m heads into a single prediction.

Two parameter-free rules (probability averaging, majority voting) and four
trainable combiner models:

* ``SL``   one fully connected layer over the m*C concatenated head outputs
* ``DL``   two layers with ReLU and dropout, hidden width ceil(m*C / 2)
* ``DLL``  like DL with hidden width m*C
* ``SLpC`` one m-input layer per class, wired only to that class's m values

Combiner model files (magic ``MMD1``) are little-endian:

    MMD1 | u8 KINDS index | u32 m | u32 C | u32 h (0 when unused) | f32 dropout_p |
    u64 seed | parameter blocks as f32 (each layer: weights row-major, then bias)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import container
from .errors import ConfigError, DataError, DimensionError
from .metrics import PredictionSet, predictions_from_probs
from .numerics import (
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
)

KINDS = ("SL", "DL", "DLL", "SLpC")
META_MAGIC = b"MMD1"
META_HEADER = "<BIIIfQ"


def _all_probability_rows(block: np.ndarray) -> bool:
    """Whether every entry of the (rows, m, C) `block` is finite and every
    row a probability vector, in one pass: no entry below 0 and every sum
    within 1e-9 of 1. The min propagates a NaN, and a row holding an inf
    sums to inf or NaN, so no non-finite block passes; initial=0.0 lets an
    empty block pass, where a plain min raises."""
    return bool(block.min(initial=0.0) >= 0.0) and bool(
        (np.abs(block.sum(axis=2) - 1.0) <= 1e-9).all()
    )


def _raise_first_fault(values: np.ndarray) -> None:
    """Raise the DataError naming the lowest head of the (N, m, C) `values`
    that holds a non-finite value or, when every value is finite, a row
    that is not a probability vector (a negative entry, or a sum more than
    1e-9 from 1)."""
    if not np.isfinite(values).all():
        i, n, c = np.argwhere(~np.isfinite(values.transpose(1, 0, 2)))[0]
        raise DataError(f"head {i} output holds a non-finite value at index [{n}, {c}]")
    off_simplex = (values < 0.0).any(axis=2) | (np.abs(values.sum(axis=2) - 1.0) > 1e-9)
    i = np.nonzero(off_simplex.any(axis=0))[0][0]
    raise DataError(f"head {i} rows are not probability vectors")


@dataclass(eq=False)
class HeadOutputs:
    """The m heads' softmax probabilities as one C-contiguous float64 array
    `values`, shaped (N, m, C): values[n, i, c] is head i's probability of
    class c for sample n, so values[:, i, :] is head i's (N, C) matrix.

    The constructor checks the whole array in one pass over row_blocks, so
    its temporaries stay small however large the outputs are: every value
    finite and every row a probability vector. Only when a block fails does
    it diagnose the whole array, non-finite values first, and name the
    lowest offending head.

    `values` may be a read-only array, such as a view of a mapped file: it
    is kept as a view, never copied, when it already is a C-contiguous
    float64 array, and nothing in this module writes to it.

    stacked() (the (m, N, C) transpose) and concatenated() (the (N, m*C)
    reshape, head-major: head 0's C columns, then head 1's, ...) return
    views of `values`, not copies.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 3:
            raise DimensionError(f"head outputs must be 3-D (N, m, C), got shape {values.shape}")
        if values.shape[1] == 0:
            raise DataError("need at least one head output")
        row_bytes = values.shape[1] * values.shape[2] * values.itemsize
        for start, stop in row_blocks(len(values), row_bytes):
            if not _all_probability_rows(values[start:stop]):
                _raise_first_fault(values)
        self.values = values

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

    def subset(self, idx: np.ndarray) -> "HeadOutputs":
        """The outputs of samples idx, gathered with one fancy index; a slice
        of checked outputs, so the constructor's checks are skipped."""
        sub = HeadOutputs.__new__(HeadOutputs)
        sub.values = self.values[idx]
        return sub


def _sorting_network(m: int) -> list[tuple[int, int]]:
    """Compare-exchange pairs (i, j), i < j, of Batcher's odd-even merge sort
    over m inputs: applied in order, each putting the smaller of positions i
    and j at i, they sort any m values ascending. The network is built for
    the next power of two and keeps only the pairs inside range(m): the
    positions past m could hold +inf, which no pair would ever move."""
    size = 1
    while size < m:
        size *= 2
    pairs = []
    p = 1
    while p < size:
        k = p
        while k >= 1:
            for j in range(k % p, size - k, 2 * k):
                for i in range(j, j + min(k, size - j - k)):
                    if i // (2 * p) == (i + k) // (2 * p) and i + k < m:
                        pairs.append((i, i + k))
            k //= 2
        p *= 2
    return pairs


def _mean_over_heads(values: np.ndarray) -> np.ndarray:
    """Mean over axis 1 (the heads) of a finite (N, m, ...) array. A sorting
    network (_sorting_network) of exact np.minimum/np.maximum swaps over
    copies of the m head columns orders each cell's values ascending, so
    head order never affects the rounding; they are then added one head at
    a time, so a cell's mean does not depend on how many cells share the
    call (a numpy sum over the axis adds pairwise when there is only one
    cell). The result equals a mean of np.sort(values, axis=1) summed the
    same way, bit for bit, except that a cell of zeros mixing 0.0 and -0.0
    may take either sign. At m=5 its 9 swaps cost about a fifth of np.sort
    per evaluate block; at m=32 its 191 swaps cost more than np.sort."""
    m = values.shape[1]
    columns = [values[:, i].copy() for i in range(m)]
    spare = np.empty_like(columns[0])
    for i, j in _sorting_network(m):
        np.minimum(columns[i], columns[j], out=spare)
        np.maximum(columns[i], columns[j], out=columns[j])
        columns[i], spare = spare, columns[i]
    total = columns[0]
    for column in columns[1:]:
        total += column
    total /= m
    return total


def combine_average(outputs: HeadOutputs, labels) -> PredictionSet:
    """Mean of the head probability matrices."""
    return predictions_from_probs(_mean_over_heads(outputs.values), labels)


def combine_vote(outputs: HeadOutputs, labels, votes=None) -> PredictionSet:
    """Majority vote over the heads' argmax classes.

    Vote ties go to the tied class with the higher mean head probability, then
    to the lowest class index. The reported confidence is the mean over all
    heads of their probability for the winning class (_mean_over_heads of
    that one cell, which gives the bits the full mean gives it). `votes`, the
    (N, m) head classes np.argmax(outputs.values, axis=2), is computed here
    when not given. Only rows whose top vote count is shared by two or more
    classes average their tied classes; every other row's winner is its one
    top class.
    """
    values = outputs.values
    n, c = outputs.n, outputs.num_classes
    if votes is None:
        votes = np.argmax(values, axis=2)
    rows = np.arange(n)
    counts = np.bincount((rows[:, None] * c + votes).ravel(), minlength=n * c).reshape(n, c)
    winner = np.argmax(counts, axis=1)  # the lowest class with the top count
    tied = counts == counts[rows, winner][:, None]
    shared = np.flatnonzero(tied.sum(axis=1) > 1)
    tied = tied[shared]
    means = np.full(tied.shape, -1.0)  # below any tied class's mean, which is >= 0
    means[tied] = _mean_over_heads(values[shared].transpose(0, 2, 1)[tied])
    winner[shared] = np.argmax(means, axis=1)
    return PredictionSet(
        predicted_class=winner,
        confidence=_mean_over_heads(values[rows, :, winner]),
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
    from [-1/sqrt(fan_in), 1/sqrt(fan_in)], fan_in being the layer's in_width."""
    shapes = layer_shapes(kind, m, num_classes)
    if m < 1 or num_classes < 1:
        raise ConfigError(f"m and num_classes must be >= 1, got {m}, {num_classes}")
    stream = RngStream(seed)
    layers = []
    for out_width, in_width in shapes:
        bound = 1.0 / np.sqrt(in_width)
        weights = stream.uniform(-bound, bound, (out_width, in_width))
        layers.append((weights, stream.uniform(-bound, bound, out_width)))
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
    if meta.hidden:
        (w1, b1), (w2, b2) = meta.layers
        loss, d_w1, d_b1, d_w2, d_b2 = backward_mlp(
            outputs.concatenated(), w1, b1, w2, b2, labels, mask=mask
        )
        return loss, [(d_w1, d_b1), (d_w2, d_b2)]
    (w, b), = meta.layers
    if meta.kind == "SL":
        loss, d_w, d_b = backward_linear(outputs.concatenated(), w, b, labels)
        return loss, [(d_w, d_b)]
    stacked = outputs.stacked()
    loss, dz = _softmax_ce_grad(_slpc_logits(w, b, stacked), labels)
    d_w = np.einsum("nc,mnc->cm", dz, stacked)
    d_b = dz.sum(axis=0)
    return loss, [(d_w, d_b)]


def train_metamodel(
    meta: Metamodel,
    train_outputs: HeadOutputs,
    train_labels,
    val_outputs: HeadOutputs,
    val_labels,
    cfg: MetaTrainConfig,
) -> Metamodel:
    """Train a copy of `meta` with numerics.fit for exactly cfg.epochs epochs
    (no early stopping). The untrained model is snapshot candidate zero, so
    the returned model never validates worse than its starting point; the
    input model is left untouched. fit trains [None] views of the copy's
    layers (k = 1), so the copy is always the live model. fit's permutations
    and the dropout masks (DL/DLL) come from one stream seeded meta.seed."""
    _check_outputs(meta, train_outputs)
    _check_outputs(meta, val_outputs)
    train_labels = check_labels(train_labels, meta.num_classes)
    val_labels = check_labels(val_labels, meta.num_classes)
    if train_labels.shape[0] != train_outputs.n or val_labels.shape[0] != val_outputs.n:
        raise DimensionError("labels do not match head-output sample counts")

    work = replace(meta, layers=[(w.copy(), b.copy()) for w, b in meta.layers])
    stream = RngStream(meta.seed)
    use_dropout = work.hidden and work.dropout_p > 0.0

    def grad_fn(params, idx):
        batch = idx[0]
        mask = None
        if use_dropout:
            mask = dropout_mask((batch.shape[0], work.hidden), work.dropout_p, stream)
        loss, grads = metamodel_gradients(
            work, train_outputs.subset(batch), train_labels[batch], mask=mask
        )
        return np.array([loss]), [g[None] for pair in grads for g in pair]

    def val_loss_fn(params=None):
        probs = softmax_in_place(metamodel_forward(work, val_outputs))  # fresh logits
        return np.array([cross_entropy(probs, val_labels)])

    result, = fit(
        [arr[None] for pair in work.layers for arr in pair],
        grad_fn,
        val_loss_fn,
        cfg,
        num_samples=train_outputs.n,
        epochs=cfg.epochs,
        streams=[stream],
        initial_val_losses=val_loss_fn(),
    )
    return replace(
        work,
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
        (reader.f32((out_width, in_width)), reader.f32((out_width,)))
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
