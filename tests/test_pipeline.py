import json

import numpy as np
import pytest

from calibens import pipeline, run_cell
from calibens.cli import main
from calibens.combiners import KINDS, MetaTrainConfig
from calibens.data import FeatureDataset, SynthSpec
from calibens.errors import ConfigError
from calibens.heads import HeadTrainConfig
from calibens.metrics import DEFAULT_NUM_BINS, write_reliability_csv


def test_seed_policy():
    # the offsets every artifact of a run depends on: the split at seed+1000,
    # head i at seed+1+i, the combiner of KINDS[k] at seed+2000+k
    assert pipeline.split_seed(7, 0.1) == 1007
    assert [pipeline.meta_seed(7, kind) for kind in KINDS] == [2007, 2008, 2009, 2010]
    data = FeatureDataset(np.zeros((6, 2)), np.arange(6) % 3, 3)
    heads = pipeline.train_heads(data, data, 3, 7, HeadTrainConfig(max_epochs=0))
    assert [head.seed for head in heads] == [8, 9, 10]


@pytest.mark.parametrize("classes, dim, n", [(10, 16, 2000), (40, 8, 1500)])
def test_run_cell_equals_the_cli_summary_bit_for_bit(tmp_path, classes, dim, n):
    # 10 classes take softmax_in_place's column sweep, 40 numpy's row max
    data, art, res = tmp_path / "data", tmp_path / "artifacts", tmp_path / "results"
    train = str(data / "train.fds")
    assert main(["gen", "--classes", str(classes), "--dim", str(dim), "--n", str(n),
                 "--seed", "1", "--out", str(data)]) == 0
    assert main(["train-heads", "--train", train, "--seed", "1", "--max-epochs", "5",
                 "--out", str(art)]) == 0
    for kind in KINDS:
        assert main(["train-meta", "--kind", kind, "--train", train, "--heads-dir", str(art),
                     "--seed", "1", "--epochs", "3"]) == 0
    assert main(["evaluate", "--test", str(data / "test.fds"), "--heads-dir", str(art),
                 "--meta", "all", "--out", str(res)]) == 0

    spec = SynthSpec(classes, dim, n, cluster_separation=6.0, label_noise=0.2, seed=1)
    rows, bins = run_cell(spec, n, 5, 1, 0.1, HeadTrainConfig(max_epochs=5),
                          MetaTrainConfig(epochs=3), KINDS, DEFAULT_NUM_BINS)
    assert rows == json.loads((res / "summary.json").read_text())["rows"]
    for row, row_bins in zip(rows, bins):
        write_reliability_csv(row_bins, tmp_path / "cell.csv")
        assert (tmp_path / "cell.csv").read_bytes() == (res / row["reliability_csv"]).read_bytes()


def test_run_cell_rejects_an_unknown_kind_before_training(monkeypatch):
    def refuse(*args):
        raise AssertionError("heads were trained")

    monkeypatch.setattr(pipeline, "train_heads", refuse)
    spec = SynthSpec(3, 4, 300, cluster_separation=8.0, label_noise=0.1, seed=7)
    with pytest.raises(ConfigError, match="unknown combiner kind.*'XL'"):
        run_cell(spec, 300, 2, 7, 0.1, HeadTrainConfig(), MetaTrainConfig(), ["SL", "XL"], 15)
    with pytest.raises(ConfigError, match="--bins must be >= 1, got 0"):
        run_cell(spec, 300, 2, 7, 0.1, HeadTrainConfig(), MetaTrainConfig(), ["SL"], 0)
