"""The pipeline's computation, numpy only: the CLI stages read and check
their files, call these functions and write what they return, and run_cell
composes them for one synthetic cell in memory. All randomness in a run
derives from one seed; fixed offsets give each model its one seed (heads:
seed+1+i, combiner models: seed+2000+KINDS.index(kind)) and the split
(seed+1000) that both training stages draw."""

import numpy as np

from .combiners import (KINDS, HeadOutputs, build_metamodel, check_probabilities, combine_average,
                        combine_metamodel, combine_vote, train_metamodel)
from .data import check_val_fraction, split, split_indices, synth_cluster_pair
from .errors import ConfigError
from .heads import LinearHead, head_predict, train_heads_lockstep
from .metrics import PredictionSet, calibration_report, check_num_bins
from .numerics import DTYPE, derive_seed, row_blocks, softmax_in_place

SPLIT_STREAM = 1000
HEAD_STREAM = 1
META_STREAM = 2000


def split_seed(seed: int, val_fraction: float) -> int:
    """The seed of the split both training stages draw. It checks
    val_fraction, so a stage calls it before it reads its file."""
    check_val_fraction(val_fraction)
    return derive_seed(seed, SPLIT_STREAM)


def meta_seed(seed: int, kind: str) -> int:
    """The seed of the `kind` combiner model of a run seeded `seed`."""
    return derive_seed(seed, META_STREAM + KINDS.index(kind))


def train_heads(train, val, m: int, seed: int, cfg) -> list[LinearHead]:
    """The m heads of a run seeded `seed`, trained on the split's two parts."""
    return train_heads_lockstep(train, val, m, derive_seed(seed, HEAD_STREAM), cfg)


def train_combiner(kind, train_outputs, train_labels, val_outputs, val_labels, seed: int, cfg):
    """The `kind` combiner of a run seeded `seed`, trained on head outputs."""
    meta = build_metamodel(kind, train_outputs.m, train_outputs.num_classes, meta_seed(seed, kind),
                           dropout_p=cfg.dropout)
    return train_metamodel(meta, train_outputs, train_labels, val_outputs, val_labels, cfg)


def scored_blocks(heads, dataset, rows):
    """The heads' softmax probabilities for the rows `rows` (an index array)
    of `dataset`, one row block (numerics.row_blocks, 8*m*C bytes a row) at
    a time: (start, stop, block), block holding the float64 (stop - start,
    m, C) outputs of rows[start:stop]: the f32 logits of one head_predict by
    the heads stacked into one (m*C, D) head, softmaxed in place; unchecked,
    and overflow gives non-finite outputs with no warning. Head i's logits
    are its own head_predict's bits unless BLAS takes another kernel for
    either product (OpenBLAS 0.3.31: some of up to ~1,200 cells). Every
    block is a prefix of one buffer sized for the largest, valid until the
    next is asked for, with the shape and strides, so the bytes, of its
    slice of the whole array."""
    weights, bias = np.concatenate([h.weights for h in heads]), np.concatenate([h.bias for h in heads])
    stacked = LinearHead(weights, bias, seed=0)
    blocks = row_blocks(len(rows), 8 * len(bias))
    most = max(stop - start for start, stop in blocks)
    buffer = np.empty((most, len(heads), dataset.num_classes))
    for start, stop in blocks:
        block = buffer[: stop - start]
        with np.errstate(over="ignore", invalid="ignore"):
            block.reshape(len(block), -1)[...] = head_predict(stacked, dataset.features[rows[start:stop]])
            softmax_in_place(block)
        yield start, stop, block


def head_outputs(heads, dataset, rows) -> HeadOutputs:
    """The heads' outputs for the rows `rows` (an index array) of `dataset`:
    one checked (len(rows), m, C) DTYPE array cast from the float64
    scored_blocks blocks, the values the combiners train on."""
    values = np.empty((len(rows), len(heads), dataset.num_classes), DTYPE)
    for start, stop, block in scored_blocks(heads, dataset, rows):
        values[start:stop] = block
    return HeadOutputs(values)


def evaluate(heads, metas, dataset, num_bins):
    """Score every head, Avg., Vot. and each combiner of `metas` (kind ->
    Metamodel) on `dataset`: (rows, bins), one summary row and its
    reliability bins per predictor, in that order. The dataset is walked in
    near-equal row blocks whose float64 head outputs take at most
    BLOCK_BYTES, each scored into one reused buffer by one float32 product
    for all the heads (scored_blocks). Each block runs every predictor and
    keeps only its predicted class and confidence per sample; the
    calibration reports are built from those after the last block. So memory
    holds the features, one block with its features, logits and combiner
    intermediates, and 2*(m+2+kinds)*N scalars, never the (N, m, C) outputs.
    Each block is checked once (check_probabilities) and reduced once per
    predictor: one argmax over the block's (rows, m, C) float64 outputs
    gives every head's class, and its confidence is the probability gathered
    there (the row max). Vot. counts those same head classes, and Avg. and
    Vot. go through combine_average and combine_vote on the float64 block.
    The combiners read its DTYPE cast, wrapped with HeadOutputs.unchecked.
    Every prediction depends on its own row only, except that BLAS may round
    the heads' product on blocks of a few rows, and the DL/DLL hidden layer,
    differently at another row count, by an ulp."""
    m = len(heads)
    predictors = [(f"Head {i + 1}", f"head_{i + 1}", h.param_count) for i, h in enumerate(heads)]
    predictors += [("Avg.", "avg", 0), ("Vot.", "vot", 0)]
    predictors += [(kind, kind.lower(), meta.param_count) for kind, meta in metas.items()]
    predicted = np.empty((len(predictors), dataset.n), dtype=np.int64)
    confidence = np.empty((len(predictors), dataset.n))

    for start, stop, block in scored_blocks(heads, dataset, np.arange(dataset.n)):
        labels = dataset.labels[start:stop]
        check_probabilities(block)
        head_classes = np.argmax(block, axis=2)  # (rows, m)
        predicted[:m, start:stop] = head_classes.T
        confidence[:m, start:stop] = np.take_along_axis(block, head_classes[:, :, None], 2)[:, :, 0].T
        preds = [combine_average(block, labels), combine_vote(block, labels, head_classes)]
        if metas:
            outputs = HeadOutputs.unchecked(block.astype(DTYPE))
            preds += [combine_metamodel(meta, outputs, labels) for meta in metas.values()]
        for j, pred in enumerate(preds, start=m):
            predicted[j, start:stop] = pred.predicted_class
            confidence[j, start:stop] = pred.confidence

    rows, bins = [], []
    for (name, slug, params), classes, conf in zip(predictors, predicted, confidence):
        report = calibration_report(PredictionSet(classes, conf, dataset.labels), num_bins)
        rows.append({
            "name": name,
            "kind": "head" if slug.startswith("head_") else "combiner",
            "accuracy_pct": report.accuracy * 100.0,
            "ece_pct": report.ece * 100.0,
            "mce_pct": report.mce * 100.0,
            "param_count": params,
            "reliability_csv": f"reliability_{slug}.csv",
        })
        bins.append(report.bins)
    return rows, bins


def run_cell(spec, test_samples, m, seed, val_fraction, head_cfg, meta_cfg, kinds, num_bins):
    """evaluate's (rows, bins) for one synthetic cell, run in memory as the
    CLI runs gen (from `spec` and `test_samples`), train-heads, train-meta
    for each of `kinds` and evaluate, all at `seed`: the same functions and
    seeds on the features gen writes, so the rows equal those of its
    summary.json bit for bit. kinds and num_bins are checked first."""
    unknown = [kind for kind in kinds if kind not in KINDS]
    if unknown:
        raise ConfigError(f"unknown combiner kind(s) {unknown}; expected some of {KINDS}")
    check_num_bins(num_bins)
    train, test = synth_cluster_pair(spec, test_samples)
    parts_seed = split_seed(seed, val_fraction)
    heads = train_heads(*split(train, val_fraction, parts_seed), m, seed, head_cfg)
    train_rows, val_rows = split_indices(train.labels, train.num_classes, val_fraction, parts_seed)
    outputs = (head_outputs(heads, train, train_rows), train.labels[train_rows],
               head_outputs(heads, train, val_rows), train.labels[val_rows])
    metas = {kind: train_combiner(kind, *outputs, seed, meta_cfg) for kind in kinds}
    return evaluate(heads, metas, test, num_bins)
