"""Classifier-ensemble uncertainty calibration.

Train several seeded linear heads on frozen features, combine them by
averaging, majority voting or a small trainable combiner model, and measure
calibration with the expected and maximum calibration error.

The package root exports the names the CLI pipeline is built from, among
them the one dataset reader, load_dataset, and split, which cuts a dataset
into its training and validation parts, and run_cell, which runs one
synthetic cell through the pipeline's stages in memory; the reference
trainers, kernels and helpers stay importable from their modules.
"""

__version__ = "0.1.0"

from .combiners import (
    KINDS,
    HeadOutputs,
    Metamodel,
    MetaTrainConfig,
    build_metamodel,
    combine_average,
    combine_metamodel,
    combine_vote,
    load_metamodel,
    save_metamodel,
    train_metamodel,
)
from .data import FeatureDataset, SynthSpec, load_dataset, save_dataset, split, split_indices, synth_cluster_pair
from .errors import (
    CalibensError,
    ConfigError,
    DataError,
    DimensionError,
    FormatError,
    LabelError,
    StratificationError,
    TrainingError,
)
from .heads import HeadTrainConfig, LinearHead, head_predict, load_head, save_head, train_heads_lockstep
from .metrics import PredictionSet, calibration_report, predictions_from_probs, write_reliability_csv
from .pipeline import run_cell

__all__ = [
    "__version__",
    "KINDS",
    "HeadOutputs",
    "Metamodel",
    "MetaTrainConfig",
    "build_metamodel",
    "combine_average",
    "combine_metamodel",
    "combine_vote",
    "load_metamodel",
    "save_metamodel",
    "train_metamodel",
    "FeatureDataset",
    "SynthSpec",
    "load_dataset",
    "save_dataset",
    "split",
    "split_indices",
    "synth_cluster_pair",
    "CalibensError",
    "ConfigError",
    "DataError",
    "DimensionError",
    "FormatError",
    "LabelError",
    "StratificationError",
    "TrainingError",
    "HeadTrainConfig",
    "LinearHead",
    "head_predict",
    "load_head",
    "save_head",
    "train_heads_lockstep",
    "PredictionSet",
    "calibration_report",
    "predictions_from_probs",
    "write_reliability_csv",
    "run_cell",
]
