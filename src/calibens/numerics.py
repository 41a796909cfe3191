"""Deterministic numerics for training small classifier heads and combiners.

Arrays are float64 or float32 ("matrices" are 2-D, row-major), and every
kernel computes in the dtype of its operands: float32 in gives float32 out.
DTYPE, float32, is the one compute dtype: of the features, the heads and
the combiners. No caller mixes dtypes in one product, which numpy would
silently promote to float64. The one exception is the loss:
cross_entropy and backward_linear_stacked widen the picked
probabilities to float64 before the log, so every loss fit compares is a
float64. Forward and backward passes are written out by hand; the only loss
anywhere is mean cross-entropy after softmax. All randomness flows through
RngStream so a single integer seed reproduces a run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, DataError, DimensionError, LabelError, TrainingError

U64_MASK = (1 << 64) - 1
DTYPE = np.dtype(np.float32)  # features, heads and combiners compute in this dtype

PROB_EPS = 1e-12  # clamp for log() in cross-entropy


def derive_seed(seed: int, index: int) -> int:
    """Sub-stream seed: base seed plus a fixed offset, wrapped to 64 bits."""
    return (int(seed) + int(index)) & U64_MASK


def RngStream(seed: int) -> np.random.Generator:
    """Seeded deterministic random stream: a numpy Generator on PCG64, named
    rather than left to default_rng (whose choice may change), so the same
    64-bit seed yields the same draw sequence on every platform. Sub-streams
    are derived by fixed integer offsets on the seed (see derive_seed), never
    by splitting state."""
    return np.random.Generator(np.random.PCG64(int(seed) & U64_MASK))


def _float_dtype(a) -> np.dtype:
    """DTYPE for a DTYPE array, float64 for anything else."""
    return DTYPE if getattr(a, "dtype", None) == DTYPE else np.dtype(np.float64)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a contiguous 2-D array of _float_dtype(a)."""
    out = np.ascontiguousarray(a, dtype=_float_dtype(a))
    if out.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {out.shape}")
    return out


# Bytes of one row block: the code that walks a large array (head outputs,
# dataset records, finite checks) takes it BLOCK_BYTES at a time, so its
# temporaries stay small however large N is. Larger blocks only raise the
# peak: on the C=10 benchmark workload (50k test samples), 4 and 16 MiB
# evaluate blocks took its peak RSS from 60 to 76 and 99 MiB and were no
# faster. On (45000, 5, 100) probabilities a finite pass then a simplex pass
# took 0.062 s in 1 MiB blocks and 0.090 s at once; on a 2-vCPU VM where
# those two passes took 0.075 s in blocks, the one-pass check took 0.038 s.
BLOCK_BYTES = 1 << 20


def row_blocks(n: int, row_bytes: int) -> list[tuple[int, int]]:
    """(start, stop) of the fewest row blocks that cover range(n) with at most
    BLOCK_BYTES // row_bytes rows each (at least one). Block sizes differ by
    at most one row, so no block is a short tail: numpy runs a one-row
    product as a matrix-vector product, which rounds differently."""
    rows = max(1, BLOCK_BYTES // max(1, row_bytes))
    count = max(1, -(-n // rows))
    bounds = [n * i // count for i in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def first_non_finite(values: np.ndarray) -> tuple[int, ...] | None:
    """The index of the first NaN or infinite entry of `values` in row-major
    order, or None when every entry is finite. The scan walks row blocks
    along the first axis, so its mask is one block's, not one of N*D bools."""
    if values.ndim == 0:
        return None if np.isfinite(values) else ()
    row_bytes = values.itemsize * math.prod(values.shape[1:])
    for start, stop in row_blocks(len(values), row_bytes):
        finite = np.isfinite(values[start:stop])
        if not finite.all():
            first = np.argwhere(~finite)[0]
            return (start + int(first[0]), *(int(i) for i in first[1:]))
    return None


def require_finite(values: np.ndarray, what: str) -> None:
    """Raise DataError naming the first NaN or infinite entry of `values`."""
    first = first_non_finite(values)
    if first is not None:
        index = ", ".join(str(i) for i in first)
        raise DataError(f"{what} holds a non-finite value at index [{index}]")


def linear_forward(inputs: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map: out[n, c] = sum_d inputs[n, d] * weights[c, d] + bias[c].

    The bias is added in place to the fresh product, so the call allocates
    no second full-size array."""
    inputs = as_matrix(inputs, "inputs")
    weights = as_matrix(weights, "weights")
    bias = np.asarray(bias, dtype=_float_dtype(bias))
    if inputs.shape[1] != weights.shape[1]:
        raise DimensionError(
            f"inputs {inputs.shape} and weights {weights.shape} disagree on feature width"
        )
    if bias.shape != (weights.shape[0],):
        raise DimensionError(
            f"bias {bias.shape} does not match weights {weights.shape}"
        )
    out = np.matmul(inputs, weights.T)
    out += bias
    return out


# Class counts up to which softmax_in_place sweeps the class axis column by
# column for each row's max instead of calling numpy's max, which pays a
# fixed cost per row along a short last axis. Medians of 200 interleaved
# timings (us, numpy -> sweep) on a shared 2-vCPU VM with numpy 2.4, on
# evaluate's 1 MiB blocks of (rows, 5, C) float64 and on one combiner's (rows, C):
#   C     (rows, 5, C)   (rows, C)
#   10    851 -> 165     188 -> 53
#   16    858 -> 267     168 -> 67
#   24    598 -> 234     118 -> 72
#   32    467 -> 306      92 -> 91
#   40    391 -> 276      65 -> 52
#   48    340 -> 336      57 -> 63
#   64    274 -> 405      46 -> 72
#   100   161 -> 444      34 -> 149
# A second run (400 timings, C = 24-56) read 97 -> 94 at (rows, 32) but
# 81 -> 100 at (rows, 40). So 32 is the largest class count at which the
# sweep lost on neither shape in either run.
SHORT_CLASSES = 32


def softmax_in_place(values: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, overwriting `values` (returned). Up to
    SHORT_CLASSES classes np.maximum folds the columns for the row max. It can
    differ from numpy's max only in a zero's sign, which exp(x - max) ignores,
    or in which of a row's NaNs it is, and such a row comes out all NaN."""
    if 0 < values.shape[-1] <= SHORT_CLASSES:
        top = values[..., 0].copy()
        for j in range(1, values.shape[-1]):
            np.maximum(top, values[..., j], out=top)
    else:
        top = values.max(axis=-1)
    values -= top[..., None]
    np.exp(values, out=values)
    values /= values.sum(axis=-1, keepdims=True)
    return values


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction for stability."""
    logits = as_matrix(logits, "logits")
    return softmax_in_place(logits.copy())


def dropout_mask(shape, p: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-scaling DTYPE dropout mask (the combiners' dtype, the only
    models with dropout): entries are 0 with probability p, else 1/(1-p).

    Applying the mask only during training makes evaluation a no-op.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    keep = rng.random(shape) >= p
    return keep.astype(DTYPE) / (1.0 - p)


def check_labels(labels, num_classes: int) -> np.ndarray:
    """The labels as a 1-D int64 array; a label outside [0, num_classes)
    raises LabelError naming its index. Labels are checked once, where they
    enter (a dataset, predictions_from_probs, combiner training); the
    kernels below index with them unchecked."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise DimensionError(f"labels must be 1-D, got shape {labels.shape}")
    bad = np.nonzero((labels < 0) | (labels >= num_classes))[0]
    if bad.size:
        i = int(bad[0])
        raise LabelError(
            f"label {int(labels[i])} at index {i} outside [0, {num_classes})"
        )
    return labels.astype(np.int64, copy=False)


def cross_entropy(probs: np.ndarray, labels) -> float:
    """Mean of -log(probs[n, label_n]), probabilities clamped at 1e-12. The
    picked probabilities are widened to float64 first, so the log and the
    mean are float64 whatever the dtype of `probs`."""
    probs = as_matrix(probs, "probs")
    labels = np.asarray(labels)
    if labels.shape != (probs.shape[0],):
        raise DimensionError(
            f"probs {probs.shape} and labels {labels.shape} disagree on sample count"
        )
    picked = probs[np.arange(probs.shape[0]), labels].astype(np.float64, copy=False)
    return float(-np.log(np.maximum(picked, PROB_EPS)).mean())


def _softmax_ce_grad(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Loss and dL/dlogits for mean cross-entropy after softmax."""
    grad = softmax(logits)
    loss = cross_entropy(grad, labels)
    grad[np.arange(len(labels)), labels] -= 1.0
    grad /= len(labels)
    return loss, grad


def backward_linear(inputs, weights, bias, labels):
    """Gradients of mean softmax cross-entropy for a single affine layer.

    Returns (loss, d_weights, d_bias).
    """
    inputs = as_matrix(inputs, "inputs")
    logits = linear_forward(inputs, weights, bias)
    loss, dz = _softmax_ce_grad(logits, labels)
    d_weights = dz.T @ inputs
    d_bias = dz.sum(axis=0)
    return loss, d_weights, d_bias


def backward_linear_stacked(inputs, weights, bias, labels):
    """backward_linear for k independent affine layers in one call.

    inputs (k, B, D), weights (k, C, D), bias (k, C), labels (k, B) int64,
    already validated. Returns (losses (k,), d_weights (k, C, D), d_bias
    (k, C)); slice i equals backward_linear(inputs[i], weights[i], bias[i],
    labels[i]) bit for bit, because every product is the same per-slice GEMM
    and every reduction runs along the same axis in the same order. As in
    cross_entropy, the picked probabilities are widened to float64 before
    the log, so the losses are float64 whatever the operands' dtype.
    """
    logits = np.matmul(inputs, weights.transpose(0, 2, 1))
    logits += bias[:, None, :]
    probs = softmax_in_place(logits)
    k, b, c = probs.shape
    cells = np.arange(0, k * b * c, c) + labels.reshape(-1)  # each label's flat index
    flat = probs.reshape(-1)
    picked = flat[cells].astype(np.float64)
    losses = -np.log(np.maximum(picked, PROB_EPS)).reshape(k, b).mean(axis=1)
    flat[cells] -= 1.0
    probs /= b
    return losses, np.matmul(probs.transpose(0, 2, 1), inputs), probs.sum(axis=1)


def backward_mlp(inputs, w1, b1, w2, b2, labels, mask: np.ndarray | None = None):
    """Gradients for affine -> ReLU -> (dropout mask) -> affine -> softmax CE.

    mask is a precomputed dropout mask (training mode) or None (evaluation).
    Returns (loss, d_w1, d_b1, d_w2, d_b2).
    """
    inputs = as_matrix(inputs, "inputs")
    z1 = linear_forward(inputs, w1, b1)
    a1 = np.maximum(z1, 0.0)
    if mask is not None:
        if mask.shape != a1.shape:
            raise DimensionError(f"mask {mask.shape} does not match hidden {a1.shape}")
        a1 = a1 * mask
    logits = linear_forward(a1, w2, b2)
    loss, dz2 = _softmax_ce_grad(logits, labels)
    d_w2 = dz2.T @ a1
    d_b2 = dz2.sum(axis=0)
    da1 = dz2 @ w2
    if mask is not None:
        da1 = da1 * mask
    dz1 = da1 * (z1 > 0.0)
    d_w1 = dz1.T @ inputs
    d_b1 = dz1.sum(axis=0)
    return loss, d_w1, d_b1, d_w2, d_b2


@dataclass
class SgdState:
    """SGD with momentum and (coupled) weight decay over a list of parameters.
    The settings are used as given (HeadTrainConfig and MetaTrainConfig check
    them); sgd_step creates the velocity buffers on its first call.
    learning_rate is a float, or a (k,) array with one value per leading-axis
    slice when the parameters stack k independent models along their first
    axis."""

    learning_rate: float | np.ndarray
    momentum: float = 0.0
    weight_decay: float = 0.0
    velocity: list = field(default_factory=list)


def sgd_step(params: list, grads: list, state: SgdState) -> list:
    """One update: v <- momentum*v + (grad + wd*param); param <- param - lr*v.

    A (k,) learning rate scales slice i of every (k, ...) parameter by its
    entry i, so each slice gets the update a scalar step at that rate gives.
    Each update is computed in its parameter's dtype, a rate array cast to
    it. Mutates params and state.velocity in place; returns params.
    """
    if not state.velocity:
        state.velocity = [np.zeros_like(p) for p in params]
    for p, g, v in zip(params, grads, state.velocity, strict=True):
        if p.shape != g.shape or p.shape != v.shape:
            raise DimensionError(
                f"param {p.shape}, grad {g.shape}, velocity {v.shape} must all match"
            )
        rate = state.learning_rate
        if isinstance(rate, np.ndarray):
            if rate.shape != p.shape[:1]:
                raise DimensionError(f"learning rates {rate.shape} do not match param {p.shape}")
            rate = rate.astype(p.dtype, copy=False).reshape(rate.shape + (1,) * (p.ndim - 1))
        v *= state.momentum
        if state.weight_decay:
            v += g + state.weight_decay * p  # one sum: two adds round differently
        else:
            v += g
        p -= rate * v
    return params


IMPROVEMENT_THRESHOLD = 1e-6  # absolute improvement below this does not count
MIN_LR = 1e-6  # a plateau cut never takes the learning rate below this


def check_sgd_settings(cfg, *own_rules) -> None:
    """Range-check the six settings fit reads from cfg, then the caller's own
    (name, ok, rule) triples; the first setting out of range raises
    ConfigError naming its flag."""
    for name, ok, rule in (
        ("lr", 0.0 < cfg.lr < np.inf, "positive and finite"),
        ("momentum", 0.0 <= cfg.momentum < 1.0, "in [0, 1)"),
        ("weight_decay", 0.0 <= cfg.weight_decay < np.inf, "non-negative and finite"),
        ("batch_size", cfg.batch_size >= 1, ">= 1"),
        ("plateau_factor", 0.0 < cfg.plateau_factor < 1.0, "in (0, 1)"),
        ("plateau_patience", cfg.plateau_patience >= 1, ">= 1"),
        *own_rules,
    ):
        if not ok:
            flag = "--" + name.replace("_", "-")
            raise ConfigError(f"{flag} must be {rule}, got {getattr(cfg, name)}")


class FitResult(NamedTuple):
    params: list  # copies of the kept snapshot, one 2-D or 1-D array per parameter
    history: list  # (epoch, train_loss, val_loss, learning_rate) per epoch run
    best_epoch: int  # epoch of the kept snapshot; 0 is the untrained model
    best_val_loss: float | None  # its validation loss; None if never measured


class EpochRule:
    """What one model carries from one epoch to the next in fit: its learning
    rate, history, kept snapshot and plateau count. end_epoch applies the
    epoch-end rule that fit describes."""

    def __init__(self, params: list, cfg, early_stop_patience=None, initial_val_loss=None):
        self.lr = cfg.lr
        self.history = []
        self._cfg, self._early_stop_patience = cfg, early_stop_patience
        self._best_val, self._best_epoch = initial_val_loss, 0
        self._best_params = [p.copy() for p in params]
        self._best_metric, self._since_best = float("inf"), 0

    def end_epoch(self, epoch: int, train_loss: float, val_loss: float, params: list) -> bool:
        """Record the epoch run at self.lr, keep a snapshot of params if it
        is the best so far, cut self.lr on a plateau, and return whether
        training stops here."""
        self.history.append((epoch, train_loss, val_loss, self.lr))
        if self._best_val is None or val_loss < self._best_val:
            self._best_val, self._best_epoch = val_loss, epoch
            self._best_params = [p.copy() for p in params]
        if val_loss <= self._best_metric - IMPROVEMENT_THRESHOLD:
            self._best_metric, self._since_best = val_loss, 0
            return False
        self._since_best += 1
        if self._since_best % (self._cfg.plateau_patience + 1) == 0:
            self.lr = max(self.lr * self._cfg.plateau_factor, MIN_LR)
        patience = self._early_stop_patience
        return patience is not None and self._since_best > patience

    def result(self) -> FitResult:
        return FitResult(self._best_params, self.history, self._best_epoch, self._best_val)


def _check_losses(losses: np.ndarray, what: str, epoch: int, live: list) -> None:
    """Raise TrainingError naming the lowest model whose loss is not finite;
    losses[j] belongs to model live[j], and epoch 0 is before training."""
    finite = np.isfinite(losses)
    if not finite.all():
        when = f"at epoch {epoch}" if epoch else "before training"
        model = live[int(np.argmin(finite))]
        raise TrainingError(f"non-finite {what} loss {when}", epoch=epoch, model=model)


def fit(
    params: list,
    grad_fn: Callable[[list, np.ndarray], tuple[np.ndarray, list]],
    val_loss_fn: Callable[[list], np.ndarray],
    cfg,
    *,
    num_samples: int,
    epochs: int,
    streams: list[np.random.Generator],
    early_stop_patience: int | None = None,
    initial_val_losses: np.ndarray | None = None,
) -> list[FitResult]:
    """Mini-batch SGD for k independent models side by side: the one training
    loop of heads and combiners.

    Model i is row i of every array in params, each shaped (k, ...); one
    model passes [None] views of its arrays. Each epoch, model i draws a
    permutation of range(num_samples) from streams[i] (a RngStream) and walks
    it in cfg.batch_size mini-batches. grad_fn(params, idx) gets the (k, B)
    sample indices, row j for the j-th model still training, and returns
    their (k,) training losses and their gradients stacked like params; one
    sgd_step then updates every model at its own learning rate. After each
    epoch, val_loss_fn(params) returns the (k,) validation losses and each
    model's epoch rule runs, in index order. A model that stops leaves
    params, a new smaller stack, at the end of that epoch; the last one ends
    the loop without a copy, so with k = 1 the given arrays stay the live
    parameters. A non-finite training, validation or initial loss raises
    TrainingError naming the epoch and the lowest failing model. cfg supplies
    lr (the starting learning rate), momentum, weight_decay, batch_size,
    plateau_factor and plateau_patience, as HeadTrainConfig and
    MetaTrainConfig both do (check_sgd_settings is their range check; fit
    uses the values as given). Returns one FitResult per model.

    Epoch-end rule (EpochRule): the validation loss improves when it is at
    least IMPROVEMENT_THRESHOLD below the best loss so far; otherwise it
    counts one more epoch since the best. Each time that count reaches a
    multiple of plateau_patience + 1, the learning rate is multiplied by
    plateau_factor, but not below MIN_LR. If early_stop_patience is set,
    training stops once the count exceeds it. The kept snapshot is the first
    epoch with the strictly lowest validation loss; the untrained params are
    candidate zero with loss initial_val_losses[i], and when that is None
    any epoch beats them, so they are kept only if no epoch runs.
    """
    live = list(range(len(streams)))
    initial = [None] * len(live)
    if initial_val_losses is not None:
        _check_losses(initial_val_losses, "validation", 0, live)
        initial = [float(loss) for loss in initial_val_losses]
    rules = [EpochRule([p[i] for p in params], cfg, early_stop_patience, initial[i]) for i in live]
    sgd = SgdState(np.full(len(live), cfg.lr), cfg.momentum, cfg.weight_decay)
    for epoch in range(1, epochs + 1):
        orders = np.stack([streams[i].permutation(num_samples) for i in live])
        loss_sums = np.zeros(len(live))
        for start in range(0, num_samples, cfg.batch_size):
            idx = orders[:, start : start + cfg.batch_size]
            losses, grads = grad_fn(params, idx)
            _check_losses(losses, "training", epoch, live)
            sgd_step(params, grads, sgd)
            loss_sums += losses * idx.shape[1]
        val_losses = val_loss_fn(params)
        _check_losses(val_losses, "validation", epoch, live)
        keep = []
        for j, i in enumerate(live):
            loss = float(loss_sums[j]) / num_samples
            if not rules[i].end_epoch(epoch, loss, float(val_losses[j]), [p[j] for p in params]):
                keep.append(j)
        if not keep:
            break
        if len(keep) < len(live):
            params = [p[keep] for p in params]
            sgd.velocity = [v[keep] for v in sgd.velocity]
            live = [live[j] for j in keep]
        sgd.learning_rate = np.array([rules[i].lr for i in live])
    return [rule.result() for rule in rules]
