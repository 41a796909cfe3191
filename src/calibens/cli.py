"""Command-line pipeline: gen, train-heads, train-meta, evaluate, report.

Each option is declared once. The training flags of train-heads and
train-meta are the fields of HeadTrainConfig and MetaTrainConfig (all but the
seed), typed and defaulted by them; every other option carries its default in
its add_argument call.

Every command but report accepts ``--config FILE`` with a JSON object whose
keys match the long flag names (dashes as underscores). The values become the
command's defaults, so the order is defaults < config file < flags; keys the
command has no flag for are ignored, so one file can carry the keys for the
whole pipeline, and the ``config`` block of a heads.json or meta_<KIND>.json
sidecar is itself a valid config file. All randomness in a run derives from
one ``--seed``; fixed offsets give each stage its own stream (heads:
seed+1+i, splits: seed+1000, combiner models: seed+2000+kind tag).

train-meta and evaluate map their .fds file read-only (data.map_dataset)
and never hold its float64 feature matrix: both compute head outputs in row
blocks (numerics.row_blocks), each block casting only its own rows'
features. Every combiner kind trains on the same heads' outputs over the
same split, so train-meta keeps them in ``head_outputs.cache`` in its output
directory and reuses them in every later run on the same inputs. Such a hit
reads the training file's bytes for the key, checks its features are finite
and its labels in range, and draws the split from the labels
(data.split_indices); it casts and gathers no feature row, and it unmaps the
training file, keeping only the split's labels, before it checks the cached
outputs, so the two files are never resident at once. The cache file is a
container (HOC1) holding both split parts, little-endian:

    HOC1 | 32-byte sha256 key | u32 N_train | u32 N_val | u32 m | u32 C |
    12 zero bytes | train block | val block

where each block, from offset 64, is the part's (N, m, C) softmax
probabilities as row-major f64, exactly what HeadOutputs holds. The key is
the sha256 of the bytes train-meta parsed, the training .fds and then each
head_i.hdw in index order, followed by --seed and --val-fraction. A file
with another header or length is a miss, and deleting the file is always
safe.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 training error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__, container
from .combiners import (
    KIND_TAGS,
    KINDS,
    HeadOutputs,
    MetaTrainConfig,
    build_metamodel,
    combine_average,
    combine_metamodel,
    combine_vote,
    load_metamodel,
    save_metamodel,
    train_metamodel,
)
from .data import (
    SynthSpec,
    check_val_fraction,
    load_dataset,
    map_dataset,
    save_dataset,
    split,
    split_indices,
    synth_cluster_pair,
)
from .errors import CalibensError, ConfigError, DataError, DimensionError, FormatError, TrainingError
from .heads import HeadTrainConfig, head_predict, load_head, save_head, train_heads_lockstep
from .metrics import (
    DEFAULT_NUM_BINS,
    PredictionSet,
    calibration_report,
    write_reliability_csv,
)
from .numerics import derive_seed, row_blocks, softmax_in_place

_SPLIT_STREAM = 1000
_HEAD_STREAM = 1
_META_STREAM = 2000

HEAD_OUTPUTS_CACHE = "head_outputs.cache"
_CACHE_MAGIC = b"HOC1"
# key, N_train, N_val, m, C, zeros; the zeros align the f64 payload at offset
# 64 and are compared like the other fields, so any changed header byte misses
_CACHE_HEADER = "<32sIIII12s"


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


def _read_json_object(path, error=FormatError) -> dict:
    """The JSON object in the file at `path`; unreadable text, invalid JSON or
    any other JSON value raises `error` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise error(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _parse_with_config(parser, args, argv):
    """Parse argv again with the --config file's values as the chosen
    command's defaults. Keys that are not its options are dropped, so one
    file can serve the whole pipeline; a key that no command takes (a
    misspelling, say) is dropped with a warning on stderr. Numbers pass as
    strings, so argparse converts them as it converts flag values. argparse
    converts only string defaults and never checks them against an option's
    choices, so the value types and choices are checked here: a value must be
    a string or a number, or for meta a list of strings."""
    own = vars(args).keys() - {"command", "handler", "command_parser", "config"}
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    any_command = {a.dest for p in commands.choices.values() for a in p._actions}
    values = {}
    for key, value in _read_json_object(args.config, ConfigError).items():
        if key not in own:
            if key not in any_command:
                print(f"warning: {args.config}: {key} is not an option of any command; ignored",
                      file=sys.stderr)
            continue
        if key == "meta" and isinstance(value, list):
            ok = all(isinstance(v, str) for v in value)
        else:
            ok = isinstance(value, (str, int, float))
        if not ok:
            raise ConfigError(f"{args.config}: {key} {value!r} is not a value its flag takes")
        values[key] = str(value) if isinstance(value, (int, float)) else value
    for action in args.command_parser._actions:
        if action.choices is not None and action.dest in values:
            if values[action.dest] not in action.choices:
                raise ConfigError(
                    f"{args.config}: {action.dest} {values[action.dest]!r} "
                    f"is not one of {list(action.choices)}"
                )
    args.command_parser.set_defaults(**values)
    return parser.parse_args(argv)


def _train_config(cls, args, **extra):
    """A HeadTrainConfig or MetaTrainConfig from the flags its fields declare."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls) if f.name != "seed"}, **extra)


def _config_echo(train_cfg) -> dict:
    """Training settings as the sidecars record them: every field but the seed."""
    return {k: v for k, v in asdict(train_cfg).items() if k != "seed"}


def _parse_meta_kinds(raw) -> list[str]:
    if raw is None or raw == "" or raw == "none":
        return []
    names = raw.split(",") if isinstance(raw, str) else list(raw)
    kinds = []
    for name in names:
        name = name.strip()
        if name == "all":
            kinds.extend(k for k in KINDS if k not in kinds)
            continue
        if name not in KINDS:
            raise ConfigError(f"unknown combiner kind {name!r}; expected one of {KINDS} or 'all'")
        if name not in kinds:
            kinds.append(name)
    return kinds


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    spec = SynthSpec(
        num_classes=args.classes,
        dim=args.dim,
        num_samples=args.n,
        cluster_separation=args.sep,
        label_noise=args.noise,
        seed=args.seed,
    )
    train, test = synth_cluster_pair(spec, args.test_n if args.test_n is not None else args.n)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_dataset(train, out_dir / "train.fds")
    save_dataset(test, out_dir / "test.fds")
    print(f"wrote {out_dir / 'train.fds'} ({train.n} samples)")
    print(f"wrote {out_dir / 'test.fds'} ({test.n} samples)")
    return 0


# ---------------------------------------------------------------------------
# train-heads
# ---------------------------------------------------------------------------

def cmd_train_heads(args) -> int:
    if args.train is None:
        raise ConfigError("missing training dataset path (--train)")
    m, seed = args.m, args.seed
    if m < 1:
        raise ConfigError(f"--m must be >= 1, got {m}")
    check_val_fraction(args.val_fraction)  # before any file is read
    head_cfg = _train_config(HeadTrainConfig, args)
    dataset = load_dataset(args.train)
    train, val = split(dataset, args.val_fraction, derive_seed(seed, _SPLIT_STREAM))
    heads = train_heads_lockstep(train, val, m, derive_seed(seed, _HEAD_STREAM), head_cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, head in enumerate(heads):
        filename = f"head_{i}.hdw"
        save_head(head, out_dir / filename)
        entries.append(
            {
                "index": i,
                "name": f"Head {i + 1}",
                "seed": head.seed,
                "file": filename,
                "epochs_run": len(head.training_history),
                "best_epoch": head.best_epoch,
                "best_val_loss": head.best_val_loss,
                "history": [list(rec) for rec in head.training_history],
            }
        )
    _write_json(
        out_dir / "heads.json",
        {
            "version": __version__,
            "seed": seed,
            "m": m,
            "train_path": str(args.train),
            "val_fraction": args.val_fraction,
            "config": _config_echo(head_cfg),
            "heads": entries,
        },
    )
    print(f"wrote {m} head file(s) and heads.json to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# train-meta
# ---------------------------------------------------------------------------

def _discover_heads(heads_dir, data_path, dataset, digest=None) -> list:
    """The heads head_0.hdw, head_1.hdw, ... in heads_dir, checked against the
    dataset read from data_path that they are about to score: every head
    must have its feature dimension and class count, or the run would fail
    midway or score the wrong classes without an error. `digest`, when
    given, is updated with each file's bytes in index order."""
    heads_dir = Path(heads_dir)
    if not heads_dir.is_dir():
        raise DataError(f"heads directory not found: {heads_dir}")
    paths = []
    i = 0
    while (heads_dir / f"head_{i}.hdw").exists():
        paths.append(heads_dir / f"head_{i}.hdw")
        i += 1
    if not paths:
        raise DataError(f"no head_*.hdw files found in {heads_dir}")
    heads = [load_head(p, digest) for p in paths]
    for path, head in zip(paths, heads):
        if (head.dim, head.num_classes) != (dataset.dim, dataset.num_classes):
            raise DimensionError(
                f"{data_path} has D={dataset.dim}, C={dataset.num_classes}, "
                f"but {path} has D={head.dim}, C={head.num_classes}"
            )
    return heads


def _head_outputs(heads, dataset, rows) -> HeadOutputs:
    """The heads' softmax probabilities for the rows `rows` (an index array)
    of the MappedDataset `dataset`, as one (len(rows), m, C) array filled
    in row blocks (numerics.row_blocks): each block gathers its rows'
    features and casts them to float64, head i writes its logits into the
    block's view [:, i, :], and the softmax runs in place over the last
    axis. Besides the outputs, the call holds one block's features."""
    values = np.empty((len(rows), len(heads), dataset.num_classes))
    for start, stop in row_blocks(len(rows), values.itemsize * len(heads) * dataset.num_classes):
        block = values[start:stop]
        features = dataset.features(rows[start:stop])
        for i, head in enumerate(heads):
            head_predict(head, features, out=block[:, i, :])
        softmax_in_place(block)
    return HeadOutputs(values)


def _map_cache(path, fields: tuple):
    """The train and val blocks of the cache file at `path` as read-only
    views of the file, or None (a miss) when it cannot be read, its header
    fields are not `fields` or its length does not match them."""
    try:
        reader = container.Reader(path, _CACHE_MAGIC, _CACHE_HEADER)
        if reader.header != fields:
            return None
        _, n_train, n_val, m, num_classes, _ = fields
        reader.expect_payload(container.F64.itemsize * (n_train + n_val) * m * num_classes)
        return reader.f64((n_train, m, num_classes)), reader.f64((n_val, m, num_classes))
    except (FormatError, OSError):
        return None


def cmd_train_meta(args) -> int:
    kind, seed = args.kind, args.seed
    if kind is None:
        raise ConfigError("missing combiner kind (--kind)")
    if args.train is None:
        raise ConfigError("missing training dataset path (--train)")
    check_val_fraction(args.val_fraction)  # before any file is read
    meta_seed = derive_seed(seed, _META_STREAM + KIND_TAGS[kind])
    train_cfg = _train_config(MetaTrainConfig, args, seed=meta_seed)
    key = hashlib.sha256()
    dataset = map_dataset(args.train, key)
    train_rows, val_rows = split_indices(
        dataset.labels, dataset.num_classes, args.val_fraction, derive_seed(seed, _SPLIT_STREAM)
    )
    heads = _discover_heads(args.heads_dir, args.train, dataset, key)
    key.update(f"{seed}\n{args.val_fraction!r}".encode())
    out_dir = Path(args.out) if args.out is not None else Path(args.heads_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    m, num_classes = len(heads), dataset.num_classes
    cache = out_dir / HEAD_OUTPUTS_CACHE
    header = (key.digest(), len(train_rows), len(val_rows), m, num_classes, bytes(12))
    train_labels, val_labels = dataset.labels[train_rows], dataset.labels[val_rows]
    mapped = _map_cache(cache, header)
    if mapped is None:
        train_outputs = _head_outputs(heads, dataset, train_rows)
        val_outputs = _head_outputs(heads, dataset, val_rows)
        del dataset  # unmaps the training file before the write and the fit
        blocks = [train_outputs.values, val_outputs.values]
        try:  # the cache only saves time: a failed write must not fail the run
            container.write(cache, _CACHE_MAGIC, _CACHE_HEADER, header, blocks, container.F64)
        except OSError as exc:
            print(f"warning: head outputs not cached: {exc}", file=sys.stderr)
    else:
        del dataset  # a hit needs only the labels: unmap the file before the cache is checked
        try:
            train_outputs, val_outputs = HeadOutputs(mapped[0]), HeadOutputs(mapped[1])
        except DataError as exc:
            raise DataError(f"{cache}: {exc} (delete the file to recompute)") from None

    meta = build_metamodel(kind, m, num_classes, meta_seed, dropout_p=train_cfg.dropout)
    trained = train_metamodel(meta, train_outputs, train_labels, val_outputs, val_labels, train_cfg)
    save_metamodel(trained, out_dir / f"meta_{kind}.mmd")
    _write_json(
        out_dir / f"meta_{kind}.json",
        {
            "version": __version__,
            "kind": kind,
            "seed": seed,
            "train_path": str(args.train),
            "val_fraction": args.val_fraction,
            "m": m,
            "num_classes": num_classes,
            "param_count": trained.param_count,
            "config": _config_echo(train_cfg),
            "best_epoch": trained.best_epoch,
            "best_val_loss": trained.best_val_loss,
            "history": [list(rec) for rec in trained.training_history],
        },
    )
    print(f"wrote {out_dir / f'meta_{kind}.mmd'}")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _sidecar(path, keys) -> dict | None:
    """The recorded `keys` of a JSON sidecar, or None when there is none."""
    if not path.exists():
        return None
    recorded = _read_json_object(path)
    return {key: recorded.get(key) for key in keys}


def _row(name, slug, report, params) -> dict:
    return {
        "name": name,
        "kind": "head" if slug.startswith("head_") else "combiner",
        "accuracy_pct": report.accuracy * 100.0,
        "ece_pct": report.ece * 100.0,
        "mce_pct": report.mce * 100.0,
        "param_count": params,
        "reliability_csv": f"reliability_{slug}.csv",
    }


def cmd_evaluate(args) -> int:
    """Score every head, Avg., Vot. and each --meta combiner on the test set.

    The test set is mapped, not loaded, and walked in row blocks
    (numerics.row_blocks): a block's head outputs take at most BLOCK_BYTES,
    and N is split into near-equal blocks. Each block casts its rows'
    features, runs every predictor and keeps only its predicted class and
    confidence per sample; the calibration reports are built from those
    after the last block. So memory holds the mapped file, one block with
    its features and combiner intermediates, and 2*(m+2+kinds)*N scalars,
    neither the float64 features nor the (N, m, C) outputs. Each block is
    reduced once per predictor: one argmax over the block's (rows, m, C)
    outputs gives every head's class, and its confidence is the probability
    gathered there (the row max), while Avg., Vot. and the combiners go
    through the combine_* functions. Every prediction depends on its own
    row only, except that BLAS may round the DL/DLL hidden layer
    differently at another row count, by an ulp of a confidence."""
    if args.test is None:
        raise ConfigError("missing test dataset path (--test)")
    num_bins = args.bins
    if num_bins < 1:
        raise ConfigError(f"bin count must be >= 1, got {num_bins}")
    kinds = _parse_meta_kinds(args.meta)
    heads_dir = Path(args.heads_dir)
    meta_dir = Path(args.meta_dir) if args.meta_dir is not None else heads_dir

    missing = []
    if not Path(args.test).exists():
        missing.append(str(args.test))
    meta_paths = {kind: meta_dir / f"meta_{kind}.mmd" for kind in kinds}
    missing.extend(str(p) for p in meta_paths.values() if not p.exists())
    if missing:
        raise DataError("missing artifact(s): " + ", ".join(missing))

    heads_meta = _sidecar(heads_dir / "heads.json", ("seed", "val_fraction", "config")) or {}
    meta_training = {}
    for kind in kinds:
        sidecar = meta_dir / f"meta_{kind}.json"
        recorded = _sidecar(sidecar, ("seed", "config", "meta_input"))
        if recorded is not None:
            # an older run could train a combiner on head logits, which evaluate no longer feeds
            if recorded.pop("meta_input") not in (None, "probs"):
                raise ConfigError(f"{sidecar}: {kind} was trained on head logits; retrain it")
            meta_training[kind] = recorded

    test = map_dataset(args.test)
    heads = _discover_heads(heads_dir, args.test, test)
    m = len(heads)
    metas = {kind: load_metamodel(meta_paths[kind]) for kind in kinds}
    for kind, meta in metas.items():
        if (meta.num_heads, meta.num_classes) != (m, test.num_classes):
            raise DimensionError(
                f"{meta_paths[kind]} has m={meta.num_heads}, C={meta.num_classes}, "
                f"but {heads_dir} has m={m} heads with C={test.num_classes}"
            )
    predictors = [(f"Head {i + 1}", f"head_{i + 1}", h.param_count) for i, h in enumerate(heads)]
    predictors += [("Avg.", "avg", 0), ("Vot.", "vot", 0)]
    predictors += [(kind, kind.lower(), meta.param_count) for kind, meta in metas.items()]
    predicted = np.empty((len(predictors), test.n), dtype=np.int64)
    confidence = np.empty((len(predictors), test.n))

    rows = np.arange(test.n)
    for start, stop in row_blocks(test.n, m * test.num_classes * 8):
        labels = test.labels[start:stop]
        outputs = _head_outputs(heads, test, rows[start:stop])
        head_classes = np.argmax(outputs.values, axis=2)  # (rows, m)
        predicted[:m, start:stop] = head_classes.T
        confidence[:m, start:stop] = np.take_along_axis(
            outputs.values, head_classes[:, :, None], axis=2
        )[:, :, 0].T
        preds = [combine_average(outputs, labels), combine_vote(outputs, labels)]
        preds += [combine_metamodel(meta, outputs, labels) for meta in metas.values()]
        for j, pred in enumerate(preds, start=m):
            predicted[j, start:stop] = pred.predicted_class
            confidence[j, start:stop] = pred.confidence

    rows, csvs = [], {}
    for (name, slug, params), classes, conf in zip(predictors, predicted, confidence):
        report = calibration_report(PredictionSet(classes, conf, test.labels), num_bins)
        rows.append(_row(name, slug, report, params))
        csvs[f"reliability_{slug}.csv"] = report.bins

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for filename, bins in csvs.items():
        write_reliability_csv(bins, out_dir / filename)
    summary = {
        "version": __version__,
        "seed": heads_meta.get("seed"),
        "config": {
            "test_path": str(args.test),
            "heads_dir": str(args.heads_dir),
            "meta_dir": str(meta_dir),
            "m": m,
            "num_bins": num_bins,
            "meta_kinds": kinds,
            "heads_training": heads_meta,
            "meta_training": meta_training,
        },
        "rows": rows,
    }
    _write_json(out_dir / "summary.json", summary)
    print(f"wrote summary.json and {len(csvs)} reliability CSV(s) to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def cmd_report(args) -> int:
    path = Path(args.summary)
    if not path.exists():
        raise DataError(f"summary file not found: {path}")
    rows = _read_json_object(path).get("rows")
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise FormatError(f"{path}: 'rows' must be a list of objects")
    ordered = sorted(rows, key=lambda r: 0 if r.get("kind") == "head" else 1)
    name_w = max([len("Name")] + [len(str(r.get("name", ""))) for r in ordered])
    params_w = max([len("Params")] + [len(str(r.get("param_count", "")))for r in ordered])
    header = f"{'Name':<{name_w}}  {'Acc':>6}  {'ECE':>6}  {'MCE':>6}  {'Params':>{params_w}}"
    print(header)
    print("-" * len(header))
    for r in ordered:
        try:
            line = (
                f"{r['name']:<{name_w}}  {r['accuracy_pct']:>6.2f}  "
                f"{r['ece_pct']:>6.2f}  {r['mce_pct']:>6.2f}  "
                f"{r['param_count']:>{params_w}}"
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: malformed row {r!r}: {exc}") from None
        print(line)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calibens",
        description="Classifier-ensemble uncertainty calibration pipeline.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, command_parser=p)
        p.add_argument("--config", help="JSON config file; flags override its values")
        return p

    def add_train_config(p, cls):
        for f in fields(cls):
            if f.name != "seed":
                p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)

    # train-meta must draw the split that train-heads drew
    def add_split(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--val-fraction", type=float, default=0.1)

    artifacts = "artifacts"

    p = command("gen", cmd_gen, "generate synthetic train/test feature datasets")
    p.add_argument("--classes", type=int, default=10, help="number of classes")
    p.add_argument("--dim", type=int, default=16, help="feature dimension")
    p.add_argument("--n", type=int, default=4000, help="training sample count")
    p.add_argument("--test-n", type=int, default=None, help="test sample count (default: same as --n)")
    p.add_argument("--sep", type=float, default=6.0, help="cluster separation (sphere radius)")
    p.add_argument("--noise", type=float, default=0.2, help="label noise fraction in [0, 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="data", help="output directory")

    p = command("train-heads", cmd_train_heads, "train a family of seeded linear heads")
    p.add_argument("--train", default=None, help="training dataset (.fds)")
    p.add_argument("--m", type=int, default=5, help="number of heads")
    add_split(p)
    p.add_argument("--out", default=artifacts, help="artifact directory")
    add_train_config(p, HeadTrainConfig)

    p = command("train-meta", cmd_train_meta, "train one combiner model on head outputs")
    p.add_argument("--kind", choices=list(KINDS), default=None)
    p.add_argument("--train", default=None, help="training dataset (.fds)")
    p.add_argument("--heads-dir", default=artifacts, help="directory with head_*.hdw")
    add_split(p)
    p.add_argument("--out", default=None, help="output directory (default: heads dir)")
    add_train_config(p, MetaTrainConfig)

    p = command("evaluate", cmd_evaluate, "evaluate heads and combiners on a test set")
    p.add_argument("--test", default=None, help="test dataset (.fds)")
    p.add_argument("--heads-dir", default=artifacts)
    p.add_argument("--meta-dir", default=None, help="directory with meta_*.mmd (default: heads dir)")
    p.add_argument("--meta", default=None,
                   help="comma-separated combiner kinds to evaluate, or 'all'/'none'")
    p.add_argument("--bins", type=int, default=DEFAULT_NUM_BINS, help="number of confidence bins")
    p.add_argument("--out", default="results", help="results directory")

    p = sub.add_parser("report", help="print a summary.json as a fixed-width table")
    p.add_argument("summary", help="path to summary.json")
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args = _parse_with_config(parser, args, argv)
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (CalibensError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
