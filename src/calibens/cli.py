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

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 training error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
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
from .data import SynthSpec, load_dataset, save_dataset, split, synth_cluster_pair
from .errors import (
    CalibensError,
    ConfigError,
    DataError,
    DimensionError,
    FormatError,
    TrainingError,
)
from .heads import HeadTrainConfig, head_predict, load_head, save_head, train_heads_lockstep
from .metrics import (
    DEFAULT_NUM_BINS,
    calibration_report,
    predictions_from_probs,
    write_reliability_csv,
)
from .numerics import derive_seed, softmax_in_place

_SPLIT_STREAM = 1000
_HEAD_STREAM = 1
_META_STREAM = 2000


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


def _load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return cfg


def _parse_with_config(parser, args, argv):
    """Parse argv again with the --config file's values as the chosen
    command's defaults; keys that are not its options are dropped. Numbers
    pass as strings, so argparse converts them as it converts flag values.
    argparse never checks defaults against an option's choices, so config
    values are checked here."""
    own = vars(args).keys() - {"command", "handler", "command_parser", "config"}
    values = {
        key: str(value) if isinstance(value, (int, float)) else value
        for key, value in _load_config_file(args.config).items()
        if key in own
    }
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

def _discover_heads(heads_dir) -> list:
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
    return [load_head(p) for p in paths]


def _head_outputs(heads, features, meta_input: str) -> HeadOutputs:
    """The heads' logits ("logits") or softmax probabilities ("probs") for
    `features`, computed into one (N, m, C) array: head i writes its logits
    into the view [:, i, :] and the softmax runs in place over the last axis,
    so the outputs are the only full-size array the call allocates."""
    num_classes = heads[0].num_classes
    values = np.empty((len(features), len(heads), num_classes))
    for i, head in enumerate(heads):
        if head.num_classes != num_classes:
            raise DimensionError(
                f"head {i} has C={head.num_classes}, but head 0 has C={num_classes}"
            )
        head_predict(head, features, out=values[:, i, :])
    if meta_input == "logits":
        return HeadOutputs(values, rows_are_probs=False)
    return HeadOutputs(softmax_in_place(values))


def cmd_train_meta(args) -> int:
    kind, seed = args.kind, args.seed
    if kind is None:
        raise ConfigError("missing combiner kind (--kind)")
    if args.train is None:
        raise ConfigError("missing training dataset path (--train)")
    meta_seed = derive_seed(seed, _META_STREAM + KIND_TAGS[kind])
    train_cfg = _train_config(MetaTrainConfig, args, seed=meta_seed)
    train, val = split(
        load_dataset(args.train), args.val_fraction, derive_seed(seed, _SPLIT_STREAM)
    )
    heads = _discover_heads(args.heads_dir)
    # the features are not needed once the outputs exist: drop each part's at once
    train_outputs = _head_outputs(heads, train.features, args.meta_input)
    train_labels, num_classes = train.labels, train.num_classes
    del train
    val_outputs = _head_outputs(heads, val.features, args.meta_input)
    val_labels = val.labels
    del val

    meta = build_metamodel(kind, len(heads), num_classes, meta_seed, dropout_p=train_cfg.dropout)
    trained = train_metamodel(meta, train_outputs, train_labels, val_outputs, val_labels, train_cfg)
    out_dir = Path(args.out) if args.out is not None else Path(args.heads_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_metamodel(trained, out_dir / f"meta_{kind}.mmd")
    _write_json(
        out_dir / f"meta_{kind}.json",
        {
            "version": __version__,
            "kind": kind,
            "seed": seed,
            "train_path": str(args.train),
            "val_fraction": args.val_fraction,
            "meta_input": args.meta_input,
            "m": len(heads),
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
    if args.test is None:
        raise ConfigError("missing test dataset path (--test)")
    num_bins, degree = args.bins, args.norm_degree
    if num_bins < 1:
        raise ConfigError(f"bin count must be >= 1, got {num_bins}")
    if degree < 1:
        raise ConfigError(f"norm degree must be >= 1, got {degree}")
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

    test = load_dataset(args.test)
    heads = _discover_heads(heads_dir)
    meta_outputs, labels = _head_outputs(heads, test.features, args.meta_input), test.labels
    del test  # only the outputs and labels are used from here on
    outputs = meta_outputs
    if args.meta_input == "logits":
        outputs = HeadOutputs(softmax_in_place(meta_outputs.values.copy()))

    rows, csvs = [], {}

    def add(name, slug, pred, params):
        report = calibration_report(pred, num_bins, degree)
        rows.append(_row(name, slug, report, params))
        csvs[f"reliability_{slug}.csv"] = report.bins

    for i, head in enumerate(heads):
        pred = predictions_from_probs(outputs.values[:, i, :], labels)
        add(f"Head {i + 1}", f"head_{i + 1}", pred, head.param_count)

    add("Avg.", "avg", combine_average(outputs, labels), 0)
    add("Vot.", "vot", combine_vote(outputs, labels), 0)

    for kind in kinds:
        meta = load_metamodel(meta_paths[kind])
        pred = combine_metamodel(meta, meta_outputs, labels)
        add(kind, kind.lower(), pred, meta.param_count)

    heads_meta = {}
    heads_json = heads_dir / "heads.json"
    if heads_json.exists():
        with open(heads_json, "r", encoding="utf-8") as fh:
            recorded = json.load(fh)
        heads_meta = {
            "seed": recorded.get("seed"),
            "val_fraction": recorded.get("val_fraction"),
            "config": recorded.get("config"),
        }
    meta_training = {}
    for kind in kinds:
        sidecar = meta_dir / f"meta_{kind}.json"
        if sidecar.exists():
            with open(sidecar, "r", encoding="utf-8") as fh:
                recorded = json.load(fh)
            meta_training[kind] = {
                "seed": recorded.get("seed"),
                "config": recorded.get("config"),
                "meta_input": recorded.get("meta_input"),
            }

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
            "m": len(heads),
            "num_bins": num_bins,
            "norm_degree": degree,
            "meta_kinds": kinds,
            "meta_input": args.meta_input,
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            summary = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    rows = summary.get("rows")
    if not isinstance(rows, list):
        raise FormatError(f"{path}: missing 'rows' list")
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

    # evaluate must feed a combiner the head outputs it was trained on
    def add_meta_input(p):
        p.add_argument("--meta-input", choices=["probs", "logits"], default="probs")

    artifacts = "artifacts"

    p = command("gen", cmd_gen, "generate synthetic train/test feature datasets")
    p.add_argument("--kind", choices=["clusters"], default="clusters")
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
    add_meta_input(p)
    add_train_config(p, MetaTrainConfig)

    p = command("evaluate", cmd_evaluate, "evaluate heads and combiners on a test set")
    p.add_argument("--test", default=None, help="test dataset (.fds)")
    p.add_argument("--heads-dir", default=artifacts)
    p.add_argument("--meta-dir", default=None, help="directory with meta_*.mmd (default: heads dir)")
    p.add_argument("--meta", default=None,
                   help="comma-separated combiner kinds to evaluate, or 'all'/'none'")
    p.add_argument("--bins", type=int, default=DEFAULT_NUM_BINS, help="number of confidence bins")
    p.add_argument("--norm-degree", type=int, default=1)
    add_meta_input(p)
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
    except (DataError, FormatError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CalibensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
