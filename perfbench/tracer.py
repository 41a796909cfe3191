"""In-memory span tracer that wraps calibens functions from outside the package.

Each wrapped call records one span: name, start, end, self time and the id of
the span that was open when it started (its parent). Times are process CPU
seconds, the clock the benchmark reports stage times in. Self time is the span's
duration minus the durations of its direct children; calls are single-threaded
(the benchmark never trains heads on a thread pool), so children never overlap.

Modules bind functions by name (``from .numerics import linear_forward``), so a
wrapper is installed on every ``calibens`` module attribute that holds the
original function, not only on the defining module. Classes are traced by
wrapping ``__init__``, so construction through ``cls.__new__`` alone is not
counted. The wrappers' own bookkeeping lands in the caller's self time; the
benchmark reports the whole cost as its tracing overhead.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

# layer (calibens module) -> traced public functions
TRACED_FUNCTIONS = {
    "numerics": (
        "linear_forward",
        "backward_linear",
        "backward_mlp",
        "softmax",
        "cross_entropy",
        "sgd_step",
        "dropout_mask",
    ),
    "heads": ("train_head", "head_predict", "save_head", "load_head"),
    "combiners": (
        "metamodel_gradients",
        "metamodel_forward",
        "combine_average",
        "combine_vote",
        "combine_metamodel",
        "save_metamodel",
        "load_metamodel",
    ),
    "data": ("load_dataset", "split"),
    "metrics": (
        "predictions_from_probs",
        "calibration_report",
        "reliability_bins",
        "write_reliability_csv",
    ),
}
# construction of these classes is traced through __init__
TRACED_CLASSES = {"combiners": ("HeadOutputs",), "data": ("FeatureDataset",)}
# CLI handlers, reported as cli.<stage>
CLI_STAGES = {
    "cmd_train_heads": "train-heads",
    "cmd_train_meta": "train-meta",
    "cmd_evaluate": "evaluate",
    "cmd_report": "report",
}
COMBINER_KINDS = ("SL", "DL", "DLL", "SLpC")


def _gemm_flops(name, args):
    """Multiply-add flops of the matrix products a call performs itself,
    computed from operand shapes (products done through a nested
    linear_forward call are counted on that call)."""
    if name == "numerics.linear_forward":
        n, d = np.shape(args[0])
        c = np.shape(args[1])[0]
        return 2 * n * d * c
    if name == "numerics.backward_linear":  # dz.T @ inputs
        n, d = np.shape(args[0])
        c = np.shape(args[1])[0]
        return 2 * n * c * d
    if name == "numerics.backward_mlp":  # dz2.T @ a1, dz2 @ w2, dz1.T @ inputs
        n, d = np.shape(args[0])
        h = np.shape(args[1])[0]
        c = np.shape(args[3])[0]
        return 2 * n * (2 * c * h + h * d)
    return 0


def _calibens_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "calibens" or name.startswith("calibens."))
    ]


class Tracer:
    """Records spans while installed. Used as a context manager: entering
    patches calibens in place, leaving restores every patched attribute, so
    untraced code runs the original functions with no wrapper at all."""

    def __init__(self):
        self.spans = []  # (span_id, parent_id, name, start, end, self_s, flops, bytes)
        self._stack = []  # [span_id, child_seconds]
        self._next_id = 0
        self._patched = []  # (owner, attribute, original)

    def span(self, name, fn, flops=False, nbytes=None, label=None):
        """Wrap fn so each call records a span called ``name`` (or
        ``label(args)`` when given), with the call's GEMM flops when ``flops``
        is set and ``nbytes(args)`` bytes when given."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.process_time()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans.append(
                    (
                        span_id,
                        parent,
                        label(args) if label else name,
                        start,
                        end,
                        duration - frame[1],
                        _gemm_flops(name, args) if flops else 0,
                        nbytes(args) if nbytes else 0,
                    )
                )

        return wrapper

    def _patch(self, owner, attribute, value):
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def _patch_everywhere(self, original, wrapper):
        for mod in _calibens_modules():
            for attribute, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attribute, wrapper)

    def __enter__(self):
        import calibens.cli  # noqa: F401  (loads every calibens module)

        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _calibens_modules()}
        for layer, names in TRACED_FUNCTIONS.items():
            for fname in names:
                original = getattr(mods[layer], fname)
                wrapper = self.span(
                    f"{layer}.{fname}",
                    original,
                    flops=layer == "numerics",
                    nbytes=(lambda args: os.path.getsize(args[0]))
                    if fname == "load_dataset"
                    else None,
                )
                self._patch_everywhere(original, wrapper)
        train_metamodel = mods["combiners"].train_metamodel
        self._patch_everywhere(
            train_metamodel,
            self.span(
                "combiners.train_metamodel",
                train_metamodel,
                label=lambda args: f"combiners.train_metamodel.{args[0].kind}",
            ),
        )
        for fname, stage in CLI_STAGES.items():
            original = getattr(mods["cli"], fname)
            self._patch_everywhere(original, self.span(f"cli.{stage}", original))
        for layer, names in TRACED_CLASSES.items():
            for cname in names:
                cls = getattr(mods[layer], cname)
                self._patch(cls, "__init__", self.span(f"{layer}.{cname}", cls.__init__))
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def take(self):
        """Return the spans recorded since the last take and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def aggregate(spans):
    """name -> {"calls", "total_s", "self_s", "flops", "bytes"} over the spans."""
    out = {}
    for _sid, _parent, name, start, end, self_s, flops, nbytes in spans:
        agg = out.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "flops": 0, "bytes": 0}
        )
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += self_s
        agg["flops"] += flops
        agg["bytes"] += nbytes
    return out


def layer_metric_names():
    """Per-layer metric names the tracer can produce, in report order."""
    names = []
    for layer, fnames in TRACED_FUNCTIONS.items():
        for fname in fnames + TRACED_CLASSES.get(layer, ()):
            names += [f"{layer}.{fname}.calls", f"{layer}.{fname}.self_s"]
        if layer == "numerics":
            names.append("numerics.gemm_flops")
        if layer == "data":
            names.append("data.load_dataset.bytes")
        if layer == "combiners":
            for kind in COMBINER_KINDS:
                names += [
                    f"combiners.train_metamodel.{kind}.total_s",
                    f"combiners.train_metamodel.{kind}.self_s",
                ]
    names += [f"cli.{stage}.self_s" for stage in CLI_STAGES.values()]
    return names


def layer_metrics(agg):
    """Per-layer metric values from one aggregated pass; absent spans read 0."""
    values = {}
    for metric in layer_metric_names():
        if metric == "numerics.gemm_flops":
            values[metric] = sum(a["flops"] for a in agg.values())
        else:
            span_name, key = metric.rsplit(".", 1)
            values[metric] = agg.get(span_name, {}).get(key, 0)
    return values


def write_spans(spans, path):
    """One CSV line per span: id, parent id, name, start, end, self seconds."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("span_id,parent_id,name,start_s,end_s,self_s\n")
        for sid, parent, name, start, end, self_s, _flops, _bytes in spans:
            fh.write(f"{sid},{parent},{name},{start!r},{end!r},{self_s!r}\n")
