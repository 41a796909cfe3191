"""Deterministic numerics for training small classifier heads and combiners.

Everything works on plain float64 numpy arrays ("matrices" are 2-D, row-major).
Forward and backward passes are written out by hand; the only loss anywhere is
mean cross-entropy after softmax. All randomness flows through RngStream so a
single integer seed reproduces a run bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, NamedTuple

import numpy as np

from .errors import ConfigError, DataError, DimensionError, LabelError, TrainingError

U64_MASK = (1 << 64) - 1

PROB_EPS = 1e-12  # clamp for log() in cross-entropy


def derive_seed(seed: int, index: int) -> int:
    """Sub-stream seed: base seed plus a fixed offset, wrapped to 64 bits."""
    return (int(seed) + int(index)) & U64_MASK


class RngStream:
    """Seeded deterministic random stream.

    Backed by numpy's PCG64 generator: the same 64-bit seed yields the same
    draw sequence on every platform. Sub-streams are derived by fixed integer
    offsets on the seed (see derive_seed), never by splitting state.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & U64_MASK
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def derive(self, index: int) -> "RngStream":
        return RngStream(derive_seed(self.seed, index))

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def standard_normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(size=shape)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def random(self, shape=None) -> np.ndarray:
        return self._gen.random(size=shape)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a contiguous 2-D float64 array."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {out.shape}")
    return out


def require_finite(values: np.ndarray, what: str) -> None:
    """Raise DataError naming the first NaN or infinite entry of `values`."""
    finite = np.isfinite(values)
    if not finite.all():
        index = ", ".join(str(int(i)) for i in np.argwhere(~finite)[0])
        raise DataError(f"{what} holds a non-finite value at index [{index}]")


def linear_forward(
    inputs: np.ndarray, weights: np.ndarray, bias: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Affine map: out[n, c] = sum_d inputs[n, d] * weights[c, d] + bias[c].

    The product goes into a fresh array, or into `out` (an (N, C) float64
    array or view) when given, and the bias is added to it in place, so the
    call allocates no second full-size array."""
    inputs = as_matrix(inputs, "inputs")
    weights = as_matrix(weights, "weights")
    bias = np.asarray(bias, dtype=np.float64)
    if inputs.shape[1] != weights.shape[1]:
        raise DimensionError(
            f"inputs {inputs.shape} and weights {weights.shape} disagree on feature width"
        )
    if bias.shape != (weights.shape[0],):
        raise DimensionError(
            f"bias {bias.shape} does not match weights {weights.shape}"
        )
    out = np.matmul(inputs, weights.T, out=out)
    out += bias
    return out


def softmax_in_place(values: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, overwriting `values` (returned): subtract
    each row's max, exponentiate, divide by the row sum."""
    values -= values.max(axis=-1, keepdims=True)
    np.exp(values, out=values)
    values /= values.sum(axis=-1, keepdims=True)
    return values


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction for stability."""
    logits = as_matrix(logits, "logits")
    return softmax_in_place(logits.copy())


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def dropout_mask(shape, p: float, rng: RngStream) -> np.ndarray:
    """Inverted-scaling dropout mask: entries are 0 with probability p, else 1/(1-p).

    Applying the mask only during training makes evaluation a no-op.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return np.ones(shape, dtype=np.float64)
    keep = rng.random(shape) >= p
    return keep.astype(np.float64) / (1.0 - p)


def check_labels(labels, num_classes: int) -> np.ndarray:
    """The labels as a 1-D int64 array; a label outside [0, num_classes)
    raises LabelError naming its index. Labels are checked once, where they
    enter (a dataset, a prediction set, combiner training); the kernels
    below index with them unchecked."""
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
    """Mean of -log(probs[n, label_n]), probabilities clamped at 1e-12."""
    probs = as_matrix(probs, "probs")
    labels = np.asarray(labels)
    if labels.shape != (probs.shape[0],):
        raise DimensionError(
            f"probs {probs.shape} and labels {labels.shape} disagree on sample count"
        )
    picked = probs[np.arange(probs.shape[0]), labels]
    return float(-np.log(np.maximum(picked, PROB_EPS)).mean())


def _softmax_ce_grad(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Loss and dL/dlogits for mean cross-entropy after softmax."""
    probs = softmax(logits)
    loss = cross_entropy(probs, labels)
    grad = probs.copy()
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
    and every reduction runs along the same axis in the same order.
    """
    logits = np.matmul(inputs, weights.transpose(0, 2, 1))
    logits += bias[:, None, :]
    probs = softmax_in_place(logits)
    layer, row = np.arange(labels.shape[0])[:, None], np.arange(labels.shape[1])
    losses = -np.log(np.maximum(probs[layer, row, labels], PROB_EPS)).mean(axis=1)
    probs[layer, row, labels] -= 1.0
    probs /= labels.shape[1]
    return losses, np.matmul(probs.transpose(0, 2, 1), inputs), probs.sum(axis=1)


def backward_mlp(inputs, w1, b1, w2, b2, labels, mask: np.ndarray | None = None):
    """Gradients for affine -> ReLU -> (dropout mask) -> affine -> softmax CE.

    mask is a precomputed dropout mask (training mode) or None (evaluation).
    Returns (loss, d_w1, d_b1, d_w2, d_b2).
    """
    inputs = as_matrix(inputs, "inputs")
    z1 = linear_forward(inputs, w1, b1)
    a1 = relu(z1)
    if mask is not None:
        if mask.shape != a1.shape:
            raise DimensionError(f"mask {mask.shape} does not match hidden {a1.shape}")
        a1 = a1 * mask
    logits = linear_forward(a1, w2, b2)
    loss, dz2 = _softmax_ce_grad(logits, labels)
    d_w2 = dz2.T @ a1
    d_b2 = dz2.sum(axis=0)
    da1 = dz2 @ np.asarray(w2, dtype=np.float64)
    if mask is not None:
        da1 = da1 * mask
    dz1 = da1 * (z1 > 0.0)
    d_w1 = dz1.T @ inputs
    d_b1 = dz1.sum(axis=0)
    return loss, d_w1, d_b1, d_w2, d_b2


@dataclass
class SgdState:
    """SGD with momentum and (coupled) weight decay over a list of parameters."""

    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    velocity: list = field(default_factory=list)

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ConfigError(f"learning rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0:
            raise ConfigError(f"weight decay must be non-negative, got {self.weight_decay}")

    @classmethod
    def for_params(cls, params, learning_rate, momentum=0.0, weight_decay=0.0):
        state = cls(learning_rate, momentum, weight_decay)
        state.velocity = [np.zeros_like(p) for p in params]
        return state


def sgd_step(params: list, grads: list, state: SgdState) -> list:
    """One update: v <- momentum*v + (grad + wd*param); param <- param - lr*v.

    Mutates params and state.velocity in place; returns params.
    """
    if not state.velocity:
        state.velocity = [np.zeros_like(p) for p in params]
    for p, g, v in zip(params, grads, state.velocity, strict=True):
        if p.shape != g.shape or p.shape != v.shape:
            raise DimensionError(
                f"param {p.shape}, grad {g.shape}, velocity {v.shape} must all match"
            )
        v *= state.momentum
        if state.weight_decay:
            v += g + state.weight_decay * p  # one sum: two adds round differently
        else:
            v += g
        p -= state.learning_rate * v
    return params


IMPROVEMENT_THRESHOLD = 1e-6  # absolute improvement below this does not count


@dataclass
class PlateauScheduler:
    """Multiplies the learning rate by `factor` once the monitored metric has
    failed to improve for more than `patience` consecutive epochs."""

    factor: float = 0.5
    patience: int = 5
    min_lr: float = 1e-6
    threshold: float = IMPROVEMENT_THRESHOLD
    best_metric: float = float("inf")
    epochs_since_improvement: int = 0

    def __post_init__(self):
        if not 0.0 < self.factor < 1.0:
            raise ConfigError(f"factor must be in (0, 1), got {self.factor}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")

    def step(self, val_metric: float, learning_rate: float) -> float:
        """Record one epoch's metric; return the (possibly reduced) learning rate."""
        if val_metric <= self.best_metric - self.threshold:
            self.best_metric = val_metric
            self.epochs_since_improvement = 0
            return learning_rate
        self.epochs_since_improvement += 1
        if self.epochs_since_improvement > self.patience:
            self.epochs_since_improvement = 0
            return max(learning_rate * self.factor, self.min_lr)
        return learning_rate


@dataclass
class EarlyStopper:
    """Signals stop once the metric has not improved for more than `patience` epochs."""

    patience: int = 15
    threshold: float = IMPROVEMENT_THRESHOLD
    best_metric: float = float("inf")
    epochs_since_improvement: int = 0

    def __post_init__(self):
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")

    def step(self, val_metric: float) -> bool:
        if val_metric <= self.best_metric - self.threshold:
            self.best_metric = val_metric
            self.epochs_since_improvement = 0
            return False
        self.epochs_since_improvement += 1
        return self.epochs_since_improvement > self.patience


class FitResult(NamedTuple):
    params: list  # copies of the kept snapshot, in the order fit received them
    history: list  # (epoch, train_loss, val_loss, learning_rate) per epoch run
    best_epoch: int  # epoch of the kept snapshot; 0 is the untrained model
    best_val_loss: float | None  # its validation loss; None if never measured


def fit_steps(
    params: list,
    val_loss_fn: Callable[[], float],
    cfg,
    *,
    num_samples: int,
    epochs: int,
    stream: RngStream,
    early_stop_patience: int | None = None,
    initial_val_loss: float | None = None,
) -> Generator[np.ndarray, tuple[float, list], FitResult]:
    """The mini-batch SGD training loop shared by heads and combiners, one
    step per mini-batch; fit describes the protocol and the snapshot rule."""
    best_val = initial_val_loss
    if best_val is not None and not np.isfinite(best_val):
        raise TrainingError("non-finite validation loss before training", epoch=0)
    best_params, best_epoch = [p.copy() for p in params], 0
    sgd = SgdState.for_params(params, cfg.lr, cfg.momentum, cfg.weight_decay)
    sched = PlateauScheduler(factor=cfg.plateau_factor, patience=cfg.plateau_patience)
    stopper = EarlyStopper(patience=early_stop_patience) if early_stop_patience is not None else None
    history = []
    for epoch in range(1, epochs + 1):
        lr_used = sgd.learning_rate
        order = stream.permutation(num_samples)
        loss_sum = 0.0
        for start in range(0, num_samples, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, grads = yield batch
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite training loss at epoch {epoch}", epoch=epoch)
            sgd_step(params, grads, sgd)
            loss_sum += loss * batch.shape[0]
        train_loss = loss_sum / num_samples
        val_loss = val_loss_fn()
        if not np.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}", epoch=epoch)
        history.append((epoch, train_loss, val_loss, lr_used))
        if best_val is None or val_loss < best_val:
            best_val, best_epoch = val_loss, epoch
            best_params = [p.copy() for p in params]
        sgd.learning_rate = sched.step(val_loss, sgd.learning_rate)
        if stopper is not None and stopper.step(val_loss):
            break
    return FitResult(best_params, history, best_epoch, best_val)


def fit(
    params: list,
    grad_fn: Callable[[np.ndarray], tuple[float, list]],
    val_loss_fn: Callable[[], float],
    cfg,
    **loop,
) -> FitResult:
    """Mini-batch SGD training loop shared by heads and combiners.

    Each epoch walks a permutation of range(num_samples) drawn from `stream`
    in cfg.batch_size mini-batches; grad_fn(batch) returns (loss, grads) at
    the current params, which sgd_step updates in place. After each epoch
    val_loss_fn() feeds a PlateauScheduler and, if early_stop_patience is
    set, an EarlyStopper. A non-finite loss raises TrainingError. cfg
    supplies lr (the starting learning rate), momentum, weight_decay,
    batch_size, plateau_factor and plateau_patience, as HeadTrainConfig and
    MetaTrainConfig both do. The keyword arguments num_samples, epochs,
    stream, early_stop_patience and initial_val_loss pass to fit_steps.

    Step protocol: the loop itself is the generator fit_steps(params,
    val_loss_fn, cfg, **loop). Each step yields one mini-batch's indices and
    expects (loss, grads) for that batch at the current params to be sent
    back; the generator returns the FitResult. fit drives it with grad_fn;
    heads.train_heads_lockstep drives one generator per head and computes
    the gradients of all heads' batches in one stacked call.

    Snapshot rule: keep the first epoch with the strictly lowest validation
    loss. The untrained params are candidate zero with loss initial_val_loss;
    when that is None any epoch beats them, so they are kept only if no epoch
    runs.
    """
    steps = fit_steps(params, val_loss_fn, cfg, **loop)
    step = None
    while True:
        try:
            batch = steps.send(step)
        except StopIteration as done:
            return done.value
        step = grad_fn(batch)
