import hashlib
import json
import math
import struct
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import calibens
from calibens import cli, container, numerics, pipeline
from calibens import heads as heads_module
from calibens.cli import HEAD_OUTPUTS_CACHE, build_parser, main
from calibens.combiners import (
    DTYPE,
    KINDS,
    build_metamodel,
    combine_average,
    combine_metamodel,
    combine_vote,
    load_metamodel,
    save_metamodel,
)
from calibens.data import (
    FeatureDataset,
    _dataset_record_dtype,
    load_dataset,
    save_dataset,
    split,
    split_indices,
)
from calibens.heads import (
    HeadTrainConfig,
    LinearHead,
    head_predict,
    load_head,
    save_head,
    train_heads_lockstep,
)
from calibens.metrics import RELIABILITY_CSV_HEADER, calibration_report, predictions_from_probs
from calibens.numerics import RngStream, row_blocks, softmax_in_place

from fixtures import (
    MiscalSpec,
    chance_level_bound,
    head_outputs,
    stacked_probs,
    synth_miscalibrated_predictions,
)


def run(argv):
    return main(argv)


def gen_args(out, n=300, classes=3, dim=4, seed=7, noise=0.1):
    return [
        "gen", "--classes", str(classes), "--dim", str(dim),
        "--n", str(n), "--sep", "8", "--noise", str(noise), "--seed", str(seed),
        "--out", str(out),
    ]


def per_head_logits(head, features):
    """A head's logits as computed before the heads shared one product: its
    float32 weights and bias applied to the f32 feature rows, then widened
    to float64."""
    weights, bias = (np.asarray(p, np.float32) for p in (head.weights, head.bias))
    features = np.ascontiguousarray(features, np.float32)
    return (features @ weights.T + bias).astype(np.float64)


def per_head_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def random_heads(m, dim, num_classes, seed):
    stream = RngStream(seed)
    return [
        LinearHead(
            stream.standard_normal((num_classes, dim)), stream.standard_normal(num_classes), i
        )
        for i in range(m)
    ]


def save_heads(heads, art):
    art.mkdir(parents=True, exist_ok=True)
    for i, head in enumerate(heads):
        save_head(head, art / f"head_{i}.hdw")
    return art


def refuse_head_outputs(monkeypatch):
    """From here on, computing any head output fails the test: the CLI
    scores heads only in pipeline.scored_blocks."""

    def refuse(*args, **kwargs):
        raise AssertionError("head outputs were computed")

    monkeypatch.setattr(pipeline, "scored_blocks", refuse)


def spy_scored_blocks(monkeypatch, seen):
    """From here on, each block the CLI scores passes through seen(rows,
    block) on its way out of pipeline.scored_blocks, where `rows` are the
    row indices asked for and `block` the block's outputs."""
    scored_blocks = pipeline.scored_blocks

    def spy(heads, dataset, rows):
        for start, stop, block in scored_blocks(heads, dataset, rows):
            seen(rows, block)
            yield start, stop, block

    monkeypatch.setattr(pipeline, "scored_blocks", spy)


def refuse_feature_casts(monkeypatch):
    """From here on, gathering or casting any feature row of a dataset file
    fails the test: the CLI gathers rows only in pipeline.scored_blocks,
    which scores them, and in split, which hands train-heads its f32 parts."""

    def refuse(*args, **kwargs):
        raise AssertionError("feature rows were gathered")

    monkeypatch.setattr(pipeline, "scored_blocks", refuse)
    monkeypatch.setattr(cli, "split", refuse)


def test_every_exported_name_resolves():
    assert {"load_dataset", "split"} <= set(calibens.__all__)
    for name in calibens.__all__:
        assert getattr(calibens, name) is not None, name


@pytest.fixture()
def pipeline_dir(tmp_path):
    data = tmp_path / "data"
    art = tmp_path / "artifacts"
    assert run(gen_args(data)) == 0
    assert run([
        "train-heads", "--train", str(data / "train.fds"), "--m", "2",
        "--seed", "7", "--max-epochs", "8", "--out", str(art),
    ]) == 0
    return tmp_path


class TestGen:
    def test_writes_two_loadable_files(self, tmp_path):
        out = tmp_path / "d"
        assert run(gen_args(out)) == 0
        train = load_dataset(out / "train.fds")
        test = load_dataset(out / "test.fds")
        assert train.n == 300 and test.n == 300
        assert train.num_classes == 3

    def test_idempotent(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(gen_args(a)) == 0
        assert run(gen_args(b)) == 0
        assert (a / "train.fds").read_bytes() == (b / "train.fds").read_bytes()
        assert (a / "test.fds").read_bytes() == (b / "test.fds").read_bytes()

    def test_train_and_test_differ(self, tmp_path):
        out = tmp_path / "d"
        run(gen_args(out))
        assert (out / "train.fds").read_bytes() != (out / "test.fds").read_bytes()

    def test_heads_beat_chance_on_test_set(self, tmp_path):
        # train and test must share one cluster geometry
        data, art, res = tmp_path / "d", tmp_path / "a", tmp_path / "r"
        assert run(gen_args(data, n=2000, classes=10, dim=16, seed=0, noise=0.2)) == 0
        assert run([
            "train-heads", "--train", str(data / "train.fds"), "--m", "2",
            "--max-epochs", "5", "--out", str(art),
        ]) == 0
        assert run(["evaluate", "--test", str(data / "test.fds"), "--heads-dir", str(art),
                    "--out", str(res)]) == 0
        rows = json.loads((res / "summary.json").read_text())["rows"]
        bound = 100.0 * chance_level_bound(10, 2000)
        assert all(r["accuracy_pct"] > bound for r in rows if r["kind"] == "head")

    def test_noise_out_of_range_is_usage_error(self, tmp_path, capsys):
        assert run(gen_args(tmp_path / "d", noise=1.5)) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("sep", ["nan", "inf"])
    def test_non_finite_separation_exits_two_before_writing(self, tmp_path, capsys, sep):
        # nan compares false with every bound, so it would put every centre at the origin
        out = tmp_path / "d"
        assert run(["gen", "--sep", sep, "--out", str(out)]) == 2
        assert f"cluster separation must be finite and >= 0, got {sep}" in capsys.readouterr().err
        assert not out.exists()

    def test_features_beyond_float32_exit_three_naming_the_first_before_writing(
        self, tmp_path, capsys
    ):
        # 1e39 is finite as float64 but not as float32: written, it would
        # make files that every reader rejects
        out = tmp_path / "d"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["gen", "--sep", "1e39", "--out", str(out)]) == 3
        assert "features holds a non-finite value at index [0, 6]" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["gen", "--bogus", "1"])
        assert exc.value.code == 2


class TestTrainHeads:
    def test_writes_heads_and_histories(self, pipeline_dir):
        art = pipeline_dir / "artifacts"
        assert (art / "head_0.hdw").exists()
        assert (art / "head_1.hdw").exists()
        recorded = json.loads((art / "heads.json").read_text())
        assert recorded["m"] == 2
        assert len(recorded["heads"]) == 2
        for entry in recorded["heads"]:
            assert len(entry["history"]) >= 1

    def test_rerun_is_byte_identical(self, pipeline_dir):
        art = pipeline_dir / "artifacts"
        art2 = pipeline_dir / "artifacts2"
        assert run([
            "train-heads", "--train", str(pipeline_dir / "data" / "train.fds"),
            "--m", "2", "--seed", "7", "--max-epochs", "8", "--out", str(art2),
        ]) == 0
        assert (art / "head_0.hdw").read_bytes() == (art2 / "head_0.hdw").read_bytes()
        assert (art / "head_1.hdw").read_bytes() == (art2 / "head_1.hdw").read_bytes()

    def test_gathers_each_split_part_as_f32_and_unmaps_the_file_before_training(
        self, pipeline_dir, monkeypatch
    ):
        # the stage builds no float64 feature array: each part of the split
        # is its own f32 gather that the lockstep trainer takes as it is,
        # and the mapping is gone before the fit
        loaded, seen = [], []
        load_dataset_of = cli.load_dataset
        lockstep = pipeline.train_heads_lockstep

        def spy_load(*args):
            dataset = load_dataset_of(*args)
            loaded.append(weakref.ref(dataset))
            return dataset

        def spy_lockstep(train, val, *args):
            seen.append(([ref() is not None for ref in loaded], train, val))
            return lockstep(train, val, *args)

        monkeypatch.setattr(cli, "load_dataset", spy_load)
        monkeypatch.setattr(pipeline, "train_heads_lockstep", spy_lockstep)
        path = pipeline_dir / "data" / "train.fds"
        assert run([
            "train-heads", "--train", str(path), "--m", "1", "--max-epochs", "1",
            "--out", str(pipeline_dir / "spied"),
        ]) == 0
        (alive, train, val), = seen
        assert alive == [False]
        for part in (train, val):
            assert part.features.dtype == np.float32 and part.features.flags.c_contiguous
            assert heads_module._features(part) is part.features
        assert train.n + val.n == load_dataset_of(path).n

    def test_heads_equal_lockstep_on_the_whole_file_split(self, pipeline_dir, tmp_path):
        # the stage's heads are the lockstep trainer's on the file's split
        # at the split seed, heads seeded from seed+1; the pipeline trained
        # m=2 heads at --seed 7 and --max-epochs 8
        art = pipeline_dir / "artifacts"
        train, val = split(
            load_dataset(pipeline_dir / "data" / "train.fds"), 0.1, pipeline.split_seed(7, 0.1)
        )
        reference = train_heads_lockstep(train, val, 2, 7 + 1, HeadTrainConfig(max_epochs=8))
        for i, head in enumerate(reference):
            path = tmp_path / f"reference_{i}.hdw"
            save_head(head, path)
            assert path.read_bytes() == (art / f"head_{i}.hdw").read_bytes()

    def test_missing_dataset_exits_three(self, tmp_path, capsys):
        assert run([
            "train-heads", "--train", str(tmp_path / "nope.fds"), "--m", "1",
            "--out", str(tmp_path / "a"),
        ]) == 3

    def test_empty_validation_split_exits_three_before_training(self, tmp_path, capsys):
        # C=10 and 30 samples a class: a 0.01 share rounds to no row in any class
        data, art = tmp_path / "data", tmp_path / "artifacts"
        assert run(["gen", "--n", "300", "--out", str(data)]) == 0
        assert run([
            "train-heads", "--train", str(data / "train.fds"), "--val-fraction", "0.01",
            "--out", str(art),
        ]) == 3
        assert "--val-fraction 0.01 gives no class a validation row" in capsys.readouterr().err
        assert not art.exists()

    def test_zero_heads_exits_two(self, pipeline_dir):
        assert run([
            "train-heads", "--train", str(pipeline_dir / "data" / "train.fds"), "--m", "0",
            "--out", str(pipeline_dir / "none"),
        ]) == 2

    def test_rerun_with_fewer_heads_removes_the_stale_ones(self, pipeline_dir):
        # train-meta and evaluate take every head_i.hdw in a row, so a head
        # left from the m=5 run would join the m=3 family
        train, art = str(pipeline_dir / "data" / "train.fds"), pipeline_dir / "rerun"
        for m in (5, 3):
            assert run([
                "train-heads", "--train", train, "--m", str(m), "--max-epochs", "2",
                "--out", str(art),
            ]) == 0
        assert sorted(p.name for p in art.glob("head_*.hdw")) == [f"head_{i}.hdw" for i in range(3)]
        assert run(["train-meta", "--kind", "SL", "--train", train, "--heads-dir", str(art),
                    "--epochs", "1"]) == 0
        assert json.loads((art / "meta_SL.json").read_text())["m"] == 3


def mapped_dataset(path, n, dim, num_classes, seed):
    """The load_dataset of n random rows, written to `path` first."""
    stream = RngStream(seed)
    features, labels = stream.standard_normal((n, dim)), np.arange(n) % num_classes
    save_dataset(FeatureDataset(features, labels, num_classes), path)
    return load_dataset(path)


class TestHeadOutputsArray:
    """pipeline.scored_blocks scores each row block's f32 features with one
    float32 product for all m heads and softmaxes the widened logits into
    one float64 buffer; pipeline.head_outputs casts them into one (N, m, C)
    DTYPE array."""

    def test_peak_memory_within_one_and_a_half_output_sizes(self, tmp_path):
        heads = random_heads(5, 32, 40, seed=1)
        dataset = mapped_dataset(tmp_path / "d.fds", 8000, 32, 40, seed=2)
        tracemalloc.start()
        try:
            outputs = pipeline.head_outputs(heads, dataset, np.arange(8000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert outputs.values.shape == (8000, 5, 40)
        assert peak <= 1.5 * outputs.values.nbytes, peak / outputs.values.nbytes

    def test_views_equal_per_head_outputs_bit_for_bit(self, tmp_path):
        heads = random_heads(4, 96, 50, seed=3)
        dataset = mapped_dataset(tmp_path / "d.fds", 3000, 96, 50, seed=4)
        outputs = pipeline.head_outputs(heads, dataset, np.arange(3000))
        assert outputs.values.dtype == DTYPE
        for i, head in enumerate(heads):
            expect = per_head_softmax(per_head_logits(head, dataset.features))
            assert np.array_equal(outputs.values[:, i, :], expect.astype(DTYPE))

    @pytest.mark.parametrize("m, classes, dim", [(5, 100, 256), (4, 50, 96), (2, 3, 4)])
    def test_stacked_product_equals_head_predict_bit_for_bit(
        self, tmp_path, monkeypatch, m, classes, dim
    ):
        # with the softmax taken out, the blocks hold the widened logits of
        # the one stacked product; head i's columns are its own product's
        heads = random_heads(m, dim, classes, seed=8)
        dataset = mapped_dataset(tmp_path / "d.fds", 3000, dim, classes, seed=9)
        rows = split_indices(dataset.labels, classes, 0.1, seed=10)[0]
        monkeypatch.setattr(pipeline, "softmax_in_place", lambda values: values)
        logits = np.empty((len(rows), m, classes))
        for start, stop, block in pipeline.scored_blocks(heads, dataset, rows):
            logits[start:stop] = block
        features = dataset.features[rows]
        for i, head in enumerate(heads):
            expect = head_predict(head, features)
            assert expect.dtype == np.float32
            assert np.array_equal(logits[:, i, :], expect.astype(np.float64)), i

    def test_block_walk_equals_whole_matrix_bit_for_bit(self, tmp_path):
        # 1800 rows in split order: 7 blocks of at most 262 rows at m=5, C=100
        heads = random_heads(5, 256, 100, seed=5)
        dataset = mapped_dataset(tmp_path / "d.fds", 2000, 256, 100, seed=6)
        rows = split_indices(dataset.labels, 100, 0.1, seed=7)[0]
        assert len(row_blocks(len(rows), 5 * 100 * 8)) >= 3
        outputs = pipeline.head_outputs(heads, dataset, rows)
        features = dataset.features[rows]
        expect = np.empty((len(rows), 5, 100))
        for i, head in enumerate(heads):
            expect[:, i, :] = head_predict(head, features)
        assert np.array_equal(outputs.values, softmax_in_place(expect).astype(DTYPE))

    @pytest.mark.parametrize("command", ["train-meta", "evaluate"])
    @pytest.mark.parametrize("dim, classes", [(5, 3), (4, 5)])
    def test_head_of_other_shape_exits_three_naming_it_before_outputs(
        self, pipeline_dir, capsys, monkeypatch, command, dim, classes
    ):
        # the data has D=4, C=3; head 1 of 2 has another D or C
        art, data = pipeline_dir / "artifacts", pipeline_dir / "data"
        save_head(random_heads(1, dim, classes, seed=6)[0], art / "head_1.hdw")
        refuse_head_outputs(monkeypatch)
        if command == "train-meta":
            argv = ["train-meta", "--kind", "SL", "--train", str(data / "train.fds")]
        else:
            argv = ["evaluate", "--test", str(data / "test.fds")]
        assert run([*argv, "--heads-dir", str(art), "--out", str(pipeline_dir / "out")]) == 3
        err = capsys.readouterr().err
        assert f"has D=4, C=3, but {art / 'head_1.hdw'} has D={dim}, C={classes}" in err

    @pytest.mark.parametrize("command", ["train-meta", "evaluate"])
    def test_head_whose_float32_logits_overflow_exits_three_naming_it(
        self, pipeline_dir, capsys, command
    ):
        # head 1's finite f32 weights of 1e38 overflow float32 logits on the
        # data's features (|x| up to ~10), which a float64 product scored
        # one-hot; the overflow and the inf - inf of the softmax raise no
        # RuntimeWarning (the suite turns those into errors), and the check
        # of the outputs names the head
        art, data = pipeline_dir / "artifacts", pipeline_dir / "data"
        head = LinearHead(np.eye(3, 4) * 1e38, np.zeros(3), seed=0)
        save_head(head, art / "head_1.hdw")
        features = load_dataset(data / "train.fds").features
        assert np.isfinite(features.astype(np.float64) @ head.weights.T).all()
        with np.errstate(over="ignore"):
            assert np.isinf(head_predict(head, features)).any()
        if command == "train-meta":
            argv = ["train-meta", "--kind", "SL", "--train", str(data / "train.fds")]
        else:
            argv = ["evaluate", "--test", str(data / "test.fds")]
        assert run([*argv, "--heads-dir", str(art), "--out", str(pipeline_dir / "out")]) == 3
        err = capsys.readouterr().err
        assert "head 1 output holds a non-finite value" in err
        assert not (pipeline_dir / "out" / HEAD_OUTPUTS_CACHE).exists()


class TestTrainMeta:
    def test_slpc_file_size_and_sidecar(self, pipeline_dir):
        art = pipeline_dir / "artifacts"
        assert run([
            "train-meta", "--kind", "SLpC", "--train",
            str(pipeline_dir / "data" / "train.fds"), "--heads-dir", str(art),
            "--seed", "7", "--epochs", "1",
        ]) == 0
        m, c = 2, 3
        size = (art / "meta_SLpC.mmd").stat().st_size
        assert size == 4 + 1 + 4 + 4 + 4 + 4 + 8 + 4 * c * (m + 1)
        sidecar = json.loads((art / "meta_SLpC.json").read_text())
        assert len(sidecar["history"]) == 1

    def test_sidecar_names_untrained_snapshot_when_it_wins(self, pipeline_dir):
        # at lr 60 every epoch validates worse than the initial model, so the
        # saved file is the initial model and the sidecar must say epoch 0
        art = pipeline_dir / "artifacts"
        assert run([
            "train-meta", "--kind", "SLpC", "--train",
            str(pipeline_dir / "data" / "train.fds"), "--heads-dir", str(art),
            "--seed", "7", "--epochs", "3", "--lr", "60",
        ]) == 0
        initial = build_metamodel("SLpC", 2, 3, seed=pipeline.meta_seed(7, "SLpC"))
        save_metamodel(initial, pipeline_dir / "initial.mmd")
        assert (art / "meta_SLpC.mmd").read_bytes() == (pipeline_dir / "initial.mmd").read_bytes()
        sidecar = json.loads((art / "meta_SLpC.json").read_text())
        assert sidecar["best_epoch"] == 0
        assert all(rec[2] > sidecar["best_val_loss"] for rec in sidecar["history"])

    def test_deterministic_rerun(self, pipeline_dir):
        art = pipeline_dir / "artifacts"
        args = [
            "train-meta", "--kind", "SL", "--train",
            str(pipeline_dir / "data" / "train.fds"), "--heads-dir", str(art),
            "--seed", "7", "--epochs", "2",
        ]
        assert run(args) == 0
        first = (art / "meta_SL.mmd").read_bytes()
        assert run(args) == 0
        assert (art / "meta_SL.mmd").read_bytes() == first

    def test_dataset_with_other_class_count_exits_three_before_outputs(
        self, pipeline_dir, capsys, monkeypatch
    ):
        art = save_heads(random_heads(2, 4, 5, seed=6), pipeline_dir / "c5")
        refuse_head_outputs(monkeypatch)
        train = pipeline_dir / "data" / "train.fds"
        assert run([
            "train-meta", "--kind", "SL", "--train", str(train), "--heads-dir", str(art),
        ]) == 3
        err = capsys.readouterr().err
        assert f"{train} has D=4, C=3, but {art / 'head_0.hdw'} has D=4, C=5" in err

    def test_empty_validation_split_exits_three_before_outputs(
        self, pipeline_dir, capsys, monkeypatch
    ):
        # about 100 samples a class: a 0.004 share rounds to no row in any class
        out = pipeline_dir / "out"
        refuse_head_outputs(monkeypatch)
        assert run([
            "train-meta", "--kind", "SL", "--train", str(pipeline_dir / "data" / "train.fds"),
            "--heads-dir", str(pipeline_dir / "artifacts"), "--val-fraction", "0.004",
            "--out", str(out),
        ]) == 3
        assert "--val-fraction 0.004 gives no class a validation row" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_heads_exits_three(self, pipeline_dir, capsys):
        assert run([
            "train-meta", "--kind", "SL", "--train",
            str(pipeline_dir / "data" / "train.fds"),
            "--heads-dir", str(pipeline_dir / "empty"),
        ]) == 3

    def test_unknown_kind_exits_two(self, pipeline_dir):
        with pytest.raises(SystemExit) as exc:
            run([
                "train-meta", "--kind", "XL", "--train",
                str(pipeline_dir / "data" / "train.fds"),
            ])
        assert exc.value.code == 2


class TestHeadOutputsCache:
    """train-meta computes the heads' split outputs once and maps them back
    from HEAD_OUTPUTS_CACHE in later runs on the same inputs."""

    @staticmethod
    def train_meta(pipeline_dir, out, *flags, kind="SL"):
        return run([
            "train-meta", "--kind", kind, "--train", str(pipeline_dir / "data" / "train.fds"),
            "--heads-dir", str(pipeline_dir / "artifacts"), "--seed", "7", "--epochs", "2",
            "--out", str(out), *flags,
        ])

    def test_hit_writes_the_miss_bytes_without_computing_outputs(self, pipeline_dir, monkeypatch):
        # a hit reads the file's bytes for the key and its labels for the
        # split, and casts or gathers no feature row
        out = pipeline_dir / "out"
        names = [f"meta_{kind}.{ext}" for kind in KINDS for ext in ("mmd", "json")]
        for kind in KINDS:
            (out / HEAD_OUTPUTS_CACHE).unlink(missing_ok=True)
            assert self.train_meta(pipeline_dir, out, kind=kind) == 0
        missed = {name: (out / name).read_bytes() for name in names}
        refuse_head_outputs(monkeypatch)
        refuse_feature_casts(monkeypatch)
        for kind in KINDS:
            assert self.train_meta(pipeline_dir, out, kind=kind) == 0
        for name in names:
            assert (out / name).read_bytes() == missed[name], name

    @pytest.mark.parametrize("kind", KINDS)
    def test_miss_and_hit_release_the_training_file_before_checking_the_cache(
        self, pipeline_dir, monkeypatch, kind
    ):
        # training keeps the split's labels only: the mapped file must be gone
        # before the fit on both paths, and on a hit before the cached outputs
        # are checked, or both stay resident; a miss checks the outputs it
        # scores from the file, so the file is mapped while it checks them
        out = pipeline_dir / "out"
        loaded, alive = [], []
        load_dataset_of = cli.load_dataset

        def spy_load(*args):
            dataset = load_dataset_of(*args)
            loaded.append(weakref.ref(dataset))
            return dataset

        def spy(name, call):
            def spied(*args):
                alive.append((name, [ref() is not None for ref in loaded]))
                return call(*args)
            return spied

        monkeypatch.setattr(cli, "load_dataset", spy_load)
        monkeypatch.setattr(cli, "HeadOutputs", spy("check", cli.HeadOutputs))
        monkeypatch.setattr(pipeline, "HeadOutputs", spy("check", pipeline.HeadOutputs))
        monkeypatch.setattr(pipeline, "train_metamodel", spy("train", pipeline.train_metamodel))
        assert self.train_meta(pipeline_dir, out, kind=kind) == 0  # a miss
        missed = (out / f"meta_{kind}.mmd").read_bytes()
        assert self.train_meta(pipeline_dir, out, kind=kind) == 0  # a hit
        assert alive == [
            ("check", [True]), ("check", [True]), ("train", [False]),
            ("check", [False, False]), ("check", [False, False]), ("train", [False, False]),
        ]
        assert (out / f"meta_{kind}.mmd").read_bytes() == missed

    @staticmethod
    def cache_header(pipeline_dir, train, trailer=b"7\n0.1\nfloat32 logits"):
        """(header, parts): the HOC1 header fields train-meta writes for the
        exact bytes of `train` and the heads at --seed 7 and --val-fraction
        0.1, and the split that the file's labels give. `trailer` is what the
        key hashes after the files: the seed, the fraction and the scoring
        tag."""
        art = pipeline_dir / "artifacts"
        key = hashlib.sha256(train.read_bytes())
        for i in range(2):
            key.update((art / f"head_{i}.hdw").read_bytes())
        key.update(trailer)
        labels = np.frombuffer(train.read_bytes(), _dataset_record_dtype(4), offset=16)["y"]
        parts = split_indices(labels, 3, 0.1, pipeline.split_seed(7, 0.1))
        return (key.digest(), len(parts[0]), len(parts[1]), 2, 3, bytes(12)), parts

    def forge_cache(self, pipeline_dir, train, out, **key):
        """A cache keyed, as train-meta keys it, to `train` (cache_header,
        which takes `key`), holding uniform outputs for its split."""
        header, parts = self.cache_header(pipeline_dir, train, **key)
        blocks = [np.full((len(rows), 2, 3), 1 / 3, dtype=np.float32) for rows in parts]
        out.mkdir(parents=True, exist_ok=True)
        container.write(out / HEAD_OUTPUTS_CACHE, cli._CACHE_MAGIC, cli._CACHE_HEADER, header,
                        blocks)

    @pytest.mark.parametrize("block_rows", [None, 40])
    def test_miss_writes_the_hoc1_layout(self, pipeline_dir, monkeypatch, block_rows):
        # the bytes every cache so far holds: magic, header, then the train
        # part's and the val part's f32 softmax outputs, row-major; at 40 rows
        # a block each part is scored in several blocks
        if block_rows is not None:
            monkeypatch.setattr(numerics, "BLOCK_BYTES", block_rows * 2 * 3 * 8)
        out, art = pipeline_dir / "out", pipeline_dir / "artifacts"
        train = pipeline_dir / "data" / "train.fds"
        assert self.train_meta(pipeline_dir, out) == 0
        header, parts = self.cache_header(pipeline_dir, train)
        features = load_dataset(train).features
        heads = [load_head(art / f"head_{i}.hdw") for i in range(2)]
        blocks = [
            np.stack([per_head_softmax(per_head_logits(h, features[rows])) for h in heads], axis=1)
            for rows in parts
        ]
        expect = b"HOC1" + struct.pack(cli._CACHE_HEADER, *header)
        expect += b"".join(block.astype("<f4").tobytes() for block in blocks)
        assert (out / HEAD_OUTPUTS_CACHE).read_bytes() == expect

    @pytest.mark.parametrize("fault, offset", [
        (None, None),
        ("nan feature", 16 + 5 * (4 * 4 + 4) + 4 * 1),  # feature 1 of record 5
        ("label >= C", 16 + 5 * (4 * 4 + 4) + 4 * 4),  # label of record 5
    ])
    def test_forged_cache_of_a_bad_file_still_exits_three_at_its_offset(
        self, pipeline_dir, capsys, monkeypatch, fault, offset
    ):
        train = pipeline_dir / "data" / "train.fds"
        raw = bytearray(train.read_bytes())
        if fault == "nan feature":
            raw[offset : offset + 4] = np.float32(np.nan).tobytes()
        if fault == "label >= C":
            raw[offset : offset + 4] = (3).to_bytes(4, "little")
        train.write_bytes(bytes(raw))
        flags = ["train-meta", "--kind", "SL", "--train", str(train),
                 "--heads-dir", str(pipeline_dir / "artifacts"), "--seed", "7", "--epochs", "1"]
        self.forge_cache(pipeline_dir, train, pipeline_dir / "forged")
        refuse_head_outputs(monkeypatch)
        if fault is None:  # the forged cache is a hit
            refuse_feature_casts(monkeypatch)
            assert run([*flags, "--out", str(pipeline_dir / "forged")]) == 0
            return
        assert run([*flags, "--out", str(pipeline_dir / "no-cache")]) == 3
        no_cache = capsys.readouterr().err
        assert run([*flags, "--out", str(pipeline_dir / "forged")]) == 3
        forged = capsys.readouterr().err
        assert f"(byte offset {offset})" in no_cache
        assert forged == no_cache

    @pytest.mark.parametrize("part", ["head", "head-count", "dataset", "seed", "val-fraction"])
    def test_cache_of_other_inputs_is_recomputed(self, pipeline_dir, part):
        out, fresh = pipeline_dir / "out", pipeline_dir / "fresh"
        assert self.train_meta(pipeline_dir, out) == 0
        flags = {"seed": ["--seed", "8"], "val-fraction": ["--val-fraction", "0.2"]}.get(part, [])
        if part == "head":
            save_head(random_heads(1, 4, 3, seed=11)[0], pipeline_dir / "artifacts" / "head_1.hdw")
        if part == "head-count":
            save_head(random_heads(3, 4, 3, seed=11)[2], pipeline_dir / "artifacts" / "head_2.hdw")
        if part == "dataset":
            assert run(gen_args(pipeline_dir / "other", seed=8)) == 0
            train = pipeline_dir / "data" / "train.fds"
            train.write_bytes((pipeline_dir / "other" / "train.fds").read_bytes())
        assert self.train_meta(pipeline_dir, out, *flags) == 0
        assert self.train_meta(pipeline_dir, fresh, *flags) == 0
        for name in ("meta_SL.mmd", HEAD_OUTPUTS_CACHE):
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name

    @pytest.mark.parametrize("damage", ["truncated", "bad magic", "stale key"])
    def test_damaged_cache_is_rewritten(self, pipeline_dir, damage):
        # a stale key is what a cache from a run whose key hashed other inputs holds
        out = pipeline_dir / "out"
        assert self.train_meta(pipeline_dir, out) == 0
        cache = out / HEAD_OUTPUTS_CACHE
        good, mmd = cache.read_bytes(), (out / "meta_SL.mmd").read_bytes()
        cache.write_bytes({
            "truncated": good[: len(good) - 8],
            "bad magic": b"XXXX" + good[4:],
            "stale key": good[:4] + bytes(b ^ 0xFF for b in good[4:36]) + good[36:],
        }[damage])
        assert self.train_meta(pipeline_dir, out) == 0
        assert cache.read_bytes() == good
        assert (out / "meta_SL.mmd").read_bytes() == mmd

    def test_non_finite_cached_value_exits_three_naming_the_file(self, pipeline_dir, capsys):
        out = pipeline_dir / "out"
        assert self.train_meta(pipeline_dir, out) == 0
        cache = out / HEAD_OUTPUTS_CACHE
        raw = bytearray(cache.read_bytes())
        raw[64:68] = np.float32(np.nan).tobytes()
        cache.write_bytes(bytes(raw))
        assert self.train_meta(pipeline_dir, out) == 3
        err = capsys.readouterr().err
        assert str(cache) in err and "head 0 output holds a non-finite value" in err

    @pytest.mark.parametrize("part", ["train", "val"])
    def test_miss_with_bad_outputs_writes_no_cache(self, pipeline_dir, capsys, monkeypatch, part):
        # a miss checks both parts' outputs before it writes them: the error
        # is the check's, and there is no cache file to delete; the val part
        # (30 of 300 rows) is the only part of fewer than 100 rows
        out = pipeline_dir / "out"

        def nan_output(rows, block):
            if (len(rows) < 100) is (part == "val"):
                block[0, 0, 0] = np.nan

        spy_scored_blocks(monkeypatch, nan_output)
        capsys.readouterr()
        assert self.train_meta(pipeline_dir, out) == 3
        err = capsys.readouterr().err
        assert "head 0 output holds a non-finite value" in err
        assert "delete the file" not in err
        assert not (out / HEAD_OUTPUTS_CACHE).exists()
        assert not list(out.glob("*.tmp"))

    def test_cached_outputs_are_read_only(self, pipeline_dir, monkeypatch):
        # a hit trains on read-only views of the mapped cache
        out = pipeline_dir / "out"
        assert self.train_meta(pipeline_dir, out) == 0  # a miss
        seen = []
        train_metamodel = pipeline.train_metamodel

        def spy(meta, train_outputs, train_labels, val_outputs, val_labels, cfg):
            seen.extend([train_outputs.values, val_outputs.values])
            return train_metamodel(meta, train_outputs, train_labels, val_outputs, val_labels, cfg)

        monkeypatch.setattr(pipeline, "train_metamodel", spy)
        assert self.train_meta(pipeline_dir, out) == 0  # a hit
        assert len(seen) == 2
        for values in seen:
            assert not values.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                values[0, 0, 0] = 0.5

    @pytest.mark.parametrize("path", ["miss", "hit"])
    def test_outputs_are_float32_on_every_path(self, pipeline_dir, monkeypatch, path):
        out = pipeline_dir / "out"
        if path == "hit":
            assert self.train_meta(pipeline_dir, out) == 0
        seen = []
        train_metamodel = pipeline.train_metamodel

        def spy(meta, train_outputs, train_labels, val_outputs, val_labels, cfg):
            seen.extend([train_outputs.values, val_outputs.values])
            return train_metamodel(meta, train_outputs, train_labels, val_outputs, val_labels, cfg)

        monkeypatch.setattr(pipeline, "train_metamodel", spy)
        assert self.train_meta(pipeline_dir, out) == 0
        assert [values.dtype for values in seen] == [DTYPE, DTYPE]
        assert all(values.flags.c_contiguous for values in seen)

    def test_float64_cache_of_the_same_inputs_is_rewritten_at_half_the_size(
        self, pipeline_dir, monkeypatch
    ):
        # a cache in the earlier layout (the same header, f64 blocks) fails the
        # length check: a miss, which scores the rows again and writes f32
        out = pipeline_dir / "out"
        assert self.train_meta(pipeline_dir, out) == 0
        cache = out / HEAD_OUTPUTS_CACHE
        good, mmd = cache.read_bytes(), (out / "meta_SL.mmd").read_bytes()
        _, n_train, n_val, m, c = struct.unpack("<32sIIII", good[4:52])
        assert len(good) == 64 + 4 * (n_train + n_val) * m * c
        wide = np.frombuffer(good, "<f4", offset=64).astype("<f8")
        cache.write_bytes(good[:64] + wide.tobytes())
        scored = []
        spy_scored_blocks(monkeypatch, lambda rows, block: scored.append(len(block)))
        assert self.train_meta(pipeline_dir, out) == 0
        assert sum(scored) == n_train + n_val
        assert cache.read_bytes() == good
        assert (out / "meta_SL.mmd").read_bytes() == mmd

    def test_cache_keyed_before_float32_scoring_is_rescored(self, pipeline_dir, monkeypatch):
        # a cache written before the heads were scored in float32 has this
        # layout and header, but its key lacks the scoring tag: a miss, which
        # scores every row once and replaces the file
        out, fresh = pipeline_dir / "out", pipeline_dir / "fresh"
        train = pipeline_dir / "data" / "train.fds"
        assert self.train_meta(pipeline_dir, fresh) == 0
        self.forge_cache(pipeline_dir, train, out, trailer=b"7\n0.1")
        header, parts = self.cache_header(pipeline_dir, train, trailer=b"7\n0.1")
        assert (out / HEAD_OUTPUTS_CACHE).read_bytes()[4:64] == struct.pack(
            cli._CACHE_HEADER, *header
        )
        scored = []
        spy_scored_blocks(monkeypatch, lambda rows, block: scored.append(len(block)))
        assert self.train_meta(pipeline_dir, out) == 0
        assert sum(scored) == len(parts[0]) + len(parts[1])
        for name in ("meta_SL.mmd", HEAD_OUTPUTS_CACHE):
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_failed_cache_trains_on_outputs_in_memory(self, pipeline_dir, capsys, monkeypatch):
        out, cached = pipeline_dir / "out", pipeline_dir / "cached"
        assert self.train_meta(pipeline_dir, cached) == 0
        write = container.write

        def fail_midway(path, magic, header, fields, payload):
            # the cache write runs out of disk after its first block
            def first_block_then_full_disk(blocks):
                yield next(iter(blocks))
                raise OSError(28, "No space left on device")

            if magic == cli._CACHE_MAGIC:
                payload = first_block_then_full_disk(payload)
            return write(path, magic, header, fields, payload)

        monkeypatch.setattr(cli.container, "write", fail_midway)
        assert self.train_meta(pipeline_dir, out) == 0
        err = capsys.readouterr().err
        assert "warning: head outputs not cached: " in err
        assert "No space left on device" in err
        assert not (out / HEAD_OUTPUTS_CACHE).exists()
        assert not list(out.glob("*.tmp"))
        assert (out / "meta_SL.mmd").read_bytes() == (cached / "meta_SL.mmd").read_bytes()

    def test_cache_that_cannot_be_replaced_scores_every_row_once(
        self, tmp_path, capsys, monkeypatch
    ):
        # a directory where the cache file goes makes the move fail after the
        # outputs are written: train-meta trains on the outputs in memory
        data, art, cached, out = (tmp_path / name for name in ("data", "art", "cached", "out"))
        assert run(["gen", "--n", "400", "--out", str(data)]) == 0
        assert run(["train-heads", "--train", str(data / "train.fds"), "--max-epochs", "2",
                    "--out", str(art)]) == 0
        argv = ["train-meta", "--kind", "SL", "--train", str(data / "train.fds"),
                "--heads-dir", str(art), "--epochs", "1", "--out"]
        assert run(argv + [str(cached)]) == 0
        (out / HEAD_OUTPUTS_CACHE).mkdir(parents=True)
        scored = []
        spy_scored_blocks(monkeypatch, lambda rows, block: scored.append(len(block)))
        capsys.readouterr()
        assert run(argv + [str(out)]) == 0
        assert "warning: head outputs not cached: " in capsys.readouterr().err
        assert sum(scored) == 400
        assert (out / HEAD_OUTPUTS_CACHE).is_dir()
        assert not list(out.glob("*.tmp"))
        assert (out / "meta_SL.mmd").read_bytes() == (cached / "meta_SL.mmd").read_bytes()

    @pytest.mark.parametrize("run_kind", ["hit", "miss"])
    def test_peak_memory_below_a_tenth_of_the_outputs(self, tmp_path, monkeypatch, run_kind):
        # a hit maps the cache: holding the DTYPE outputs in fresh arrays
        # would cost their whole size, and checking them in one piece a
        # quarter of it (a bool per value), so it stays below a tenth; n makes
        # a tenth of the outputs more than one and a half float64 scoring
        # blocks (BLOCK_BYTES). A miss holds the outputs it scored, one
        # scoring block and the check's row blocks, never a second copy
        m, c, dim, n = 5, 50, 2, 24000
        stream = RngStream(1)
        train = tmp_path / "train.fds"
        save_dataset(FeatureDataset(stream.standard_normal((n, dim)), np.arange(n) % c, c), train)
        art = save_heads(random_heads(m, dim, c, seed=2), tmp_path / "art")
        argv = ["train-meta", "--kind", "SL", "--train", str(train), "--heads-dir", str(art),
                "--epochs", "1"]
        assert run(argv) == 0
        if run_kind == "miss":
            (art / HEAD_OUTPUTS_CACHE).unlink()

        class OutputsObtained(Exception):
            pass

        def stop(*args):
            raise OutputsObtained(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(pipeline, "train_metamodel", stop)
        tracemalloc.start()
        try:
            with pytest.raises(OutputsObtained) as obtained:
                run(argv)
        finally:
            tracemalloc.stop()
        assert (art / HEAD_OUTPUTS_CACHE).exists()
        peak, outputs_bytes = obtained.value.args[0], n * m * c * DTYPE.itemsize
        assert outputs_bytes / 10 > 1.5 * numerics.BLOCK_BYTES
        assert peak < {"hit": 0.1, "miss": 1.25}[run_kind] * outputs_bytes, peak / outputs_bytes


class TestTrainingSettings:
    @pytest.mark.parametrize("command, flags", [
        ("train-heads", ["--momentum", "1.0"]),
        ("train-heads", ["--weight-decay", "-1"]),
        ("train-heads", ["--plateau-factor", "2"]),
        ("train-heads", ["--plateau-patience", "0"]),
        ("train-meta", ["--kind", "SL", "--momentum", "1.5"]),
        ("train-meta", ["--kind", "SL", "--plateau-factor", "0"]),
        ("train-meta", ["--kind", "SL", "--dropout", "1.5"]),
        ("train-heads", ["--m", "0"]),
        ("train-heads", ["--val-fraction", "2"]),
        ("train-meta", ["--kind", "SL", "--val-fraction", "2"]),
    ])
    def test_bad_setting_exits_two_before_reading_data(self, tmp_path, capsys, command, flags):
        # the dataset does not exist: reading it first would exit 3
        assert run([command, "--train", str(tmp_path / "missing.fds"),
                    "--out", str(tmp_path / "out"), *flags]) == 2
        assert flags[-2] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, name", [
        ("train-heads", "lr"),
        ("train-heads", "weight_decay"),
        ("train-meta", "lr"),
        ("train-meta", "weight_decay"),
    ])
    def test_infinite_step_setting_exits_two_before_reading_data(
        self, tmp_path, capsys, command, name, source
    ):
        # an infinite rate or decay used to pass, and the first epoch's loss
        # came out non-finite (exit 4); JSON's 1e400 parses to inf
        flag = "--" + name.replace("_", "-")
        argv = [command, "--train", str(tmp_path / "missing.fds"), "--out", str(tmp_path / "out")]
        if command == "train-meta":
            argv += ["--kind", "SL"]
        if source == "flag":
            argv += [flag, "inf"]
        else:
            (tmp_path / "inf.json").write_text(f'{{"{name}": 1e400}}')
            argv += ["--config", str(tmp_path / "inf.json")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {flag} must be" in err and "finite, got inf" in err
        assert not (tmp_path / "out").exists()


class TestEvaluate:
    def test_heads_only_rows(self, pipeline_dir):
        res = pipeline_dir / "results"
        assert run([
            "evaluate", "--test", str(pipeline_dir / "data" / "test.fds"),
            "--heads-dir", str(pipeline_dir / "artifacts"), "--out", str(res),
        ]) == 0
        summary = json.loads((res / "summary.json").read_text())
        names = [r["name"] for r in summary["rows"]]
        assert names == ["Head 1", "Head 2", "Avg.", "Vot."]
        assert summary["config"]["m"] == 2
        for row in summary["rows"]:
            assert (res / row["reliability_csv"]).exists()

    def test_with_metamodels_row_count(self, pipeline_dir):
        art = pipeline_dir / "artifacts"
        for kind in ("SL", "SLpC"):
            assert run([
                "train-meta", "--kind", kind, "--train",
                str(pipeline_dir / "data" / "train.fds"), "--heads-dir", str(art),
                "--seed", "7", "--epochs", "1",
            ]) == 0
        res = pipeline_dir / "results"
        assert run([
            "evaluate", "--test", str(pipeline_dir / "data" / "test.fds"),
            "--heads-dir", str(art), "--meta", "SL,SLpC", "--out", str(res),
        ]) == 0
        summary = json.loads((res / "summary.json").read_text())
        assert len(summary["rows"]) == 2 + 2 + 2  # m heads + Avg/Vot + 2 metamodels
        assert [r["name"] for r in summary["rows"][-2:]] == ["SL", "SLpC"]
        assert summary["rows"][-2]["param_count"] == 2 * 3 * 3 + 3

    def test_rows_equal_per_head_recipe(self, pipeline_dir):
        # reference: each head's logits computed on its own in float32 and
        # its softmax in float64, Avg. and Vot. fed those probabilities and
        # every combiner their DTYPE cast
        art, data = pipeline_dir / "artifacts", pipeline_dir / "data"
        for kind in ("SL", "DLL", "SLpC"):
            assert run([
                "train-meta", "--kind", kind, "--train", str(data / "train.fds"),
                "--heads-dir", str(art), "--seed", "7", "--epochs", "2",
            ]) == 0
        res = pipeline_dir / "results"
        assert run([
            "evaluate", "--test", str(data / "test.fds"), "--heads-dir", str(art),
            "--meta", "SL,DLL,SLpC", "--out", str(res),
        ]) == 0
        rows = json.loads((res / "summary.json").read_text())["rows"]

        test = load_dataset(data / "test.fds")
        heads = [load_head(art / f"head_{i}.hdw") for i in range(2)]
        probs = [per_head_softmax(per_head_logits(h, test.features)) for h in heads]
        preds = [predictions_from_probs(p, test.labels) for p in probs]
        preds += [
            combine_average(stacked_probs(probs), test.labels),
            combine_vote(stacked_probs(probs), test.labels),
        ]
        for kind in ("SL", "DLL", "SLpC"):
            meta = load_metamodel(art / f"meta_{kind}.mmd")
            preds.append(combine_metamodel(meta, head_outputs(probs), test.labels))
        assert len(rows) == len(preds) == 7
        for row, pred in zip(rows, preds):
            report = calibration_report(pred)
            assert row["accuracy_pct"] == report.accuracy * 100.0
            assert row["ece_pct"] == report.ece * 100.0
            assert row["mce_pct"] == report.mce * 100.0

    def test_test_set_with_other_class_count_exits_three_before_outputs(
        self, pipeline_dir, capsys, monkeypatch
    ):
        art = save_heads(random_heads(2, 4, 5, seed=6), pipeline_dir / "c5")
        refuse_head_outputs(monkeypatch)
        test = pipeline_dir / "data" / "test.fds"
        assert run([
            "evaluate", "--test", str(test), "--heads-dir", str(art),
            "--out", str(pipeline_dir / "results"),
        ]) == 3
        err = capsys.readouterr().err
        assert f"{test} has D=4, C=3, but {art / 'head_0.hdw'} has D=4, C=5" in err

    @pytest.mark.parametrize("m, c", [(3, 3), (2, 4)])
    def test_combiner_of_other_shape_exits_three_naming_it_before_outputs(
        self, pipeline_dir, capsys, monkeypatch, m, c
    ):
        art = pipeline_dir / "artifacts"  # m=2 heads, C=3
        save_metamodel(build_metamodel("SL", m, c, seed=1), art / "meta_SL.mmd")
        refuse_head_outputs(monkeypatch)
        assert run([
            "evaluate", "--test", str(pipeline_dir / "data" / "test.fds"), "--heads-dir", str(art),
            "--meta", "SL", "--out", str(pipeline_dir / "results"),
        ]) == 3
        err = capsys.readouterr().err
        assert f"{art / 'meta_SL.mmd'} has m={m}, C={c}, but {art} has m=2 heads with C=3" in err

    @pytest.mark.parametrize(
        "filename, text",
        [("heads.json", '{"seed": 1,'), ("heads.json", "[1]"), ("meta_SL.json", '{"kind": "SL",')],
    )
    def test_malformed_sidecar_exits_three_naming_it_before_outputs(
        self, pipeline_dir, capsys, monkeypatch, filename, text
    ):
        art = pipeline_dir / "artifacts"
        assert run([
            "train-meta", "--kind", "SL", "--train", str(pipeline_dir / "data" / "train.fds"),
            "--heads-dir", str(art), "--seed", "7", "--epochs", "1",
        ]) == 0
        (art / filename).write_text(text)
        refuse_head_outputs(monkeypatch)
        code = run([
            "evaluate", "--test", str(pipeline_dir / "data" / "test.fds"),
            "--heads-dir", str(art), "--meta", "SL", "--out", str(pipeline_dir / "results"),
        ])
        assert code == 3
        assert str(art / filename) in capsys.readouterr().err

    def test_zero_bins_exits_two_before_reading_any_file(self, tmp_path, capsys):
        # neither the test set nor the heads exist: reading either first would exit 3
        assert run(["evaluate", "--test", str(tmp_path / "missing.fds"),
                    "--heads-dir", str(tmp_path / "none"), "--meta", "all", "--bins", "0",
                    "--out", str(tmp_path / "out")]) == 2
        assert "error: --bins must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_metamodel_listed(self, pipeline_dir, capsys):
        code = run([
            "evaluate", "--test", str(pipeline_dir / "data" / "test.fds"),
            "--heads-dir", str(pipeline_dir / "artifacts"), "--meta", "DLL",
            "--out", str(pipeline_dir / "results"),
        ])
        assert code == 3
        assert "meta_DLL.mmd" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "filename, offset, value",
        [("meta_SL.mmd", 29, np.nan), ("head_1.hdw", 20, np.inf)],
    )
    def test_non_finite_weight_exits_three_naming_file_and_offset(
        self, pipeline_dir, capsys, filename, offset, value
    ):
        # offset: the first weight, right after the MMD1 or HDW1 header
        art = pipeline_dir / "artifacts"
        assert run([
            "train-meta", "--kind", "SL", "--train", str(pipeline_dir / "data" / "train.fds"),
            "--heads-dir", str(art), "--seed", "7", "--epochs", "1",
        ]) == 0
        raw = bytearray((art / filename).read_bytes())
        raw[offset : offset + 4] = np.asarray([value], dtype="<f4").tobytes()
        (art / filename).write_bytes(bytes(raw))
        code = run([
            "evaluate", "--test", str(pipeline_dir / "data" / "test.fds"),
            "--heads-dir", str(art), "--meta", "SL", "--out", str(pipeline_dir / "results"),
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert filename in err and f"offset {offset})" in err

    def test_reliability_csv_header(self, pipeline_dir):
        res = pipeline_dir / "results"
        run([
            "evaluate", "--test", str(pipeline_dir / "data" / "test.fds"),
            "--heads-dir", str(pipeline_dir / "artifacts"), "--out", str(res),
        ])
        first = (res / "reliability_head_1.csv").read_text().splitlines()
        assert first[0] == RELIABILITY_CSV_HEADER
        assert len(first) == 16  # header + 15 default bins

    def test_pass_through_head_on_miscal_fixture(self, tmp_path):
        # identity head turns stored logits into the fixture's probabilities,
        # so the reported ECE must be the engineered 20% gap
        c = 5
        fixture = synth_miscalibrated_predictions(
            MiscalSpec(10_000, c, confidence_level=0.8, true_accuracy=0.6, seed=3)
        )
        t = math.log(4.0 * (c - 1))  # softmax top prob = 0.8 for logits [t, 0, ..., 0]
        logits = np.zeros((fixture.n, c))
        logits[np.arange(fixture.n), fixture.predicted_class] = t
        ds = FeatureDataset(logits, fixture.labels, c)
        data = tmp_path / "fixture.fds"
        save_dataset(ds, data)
        art = tmp_path / "art"
        art.mkdir()
        save_head(LinearHead(np.eye(c), np.zeros(c), seed=0), art / "head_0.hdw")
        res = tmp_path / "res"
        assert run([
            "evaluate", "--test", str(data), "--heads-dir", str(art), "--out", str(res),
        ]) == 0
        summary = json.loads((res / "summary.json").read_text())
        head_row = summary["rows"][0]
        assert abs(head_row["ece_pct"] - 20.0) <= 2.0


class TestEvaluateBlocks:
    """evaluate walks the test set in row blocks of numerics.BLOCK_BYTES."""

    def test_block_run_writes_the_one_block_bytes(self, pipeline_dir, monkeypatch):
        art, data = pipeline_dir / "artifacts", pipeline_dir / "data"
        for kind in KINDS:
            assert run([
                "train-meta", "--kind", kind, "--train", str(data / "train.fds"),
                "--heads-dir", str(art), "--seed", "7", "--epochs", "2",
            ]) == 0

        def evaluate(out):
            return run([
                "evaluate", "--test", str(data / "test.fds"), "--heads-dir", str(art),
                "--meta", "all", "--out", str(out),
            ])

        one, blocks = pipeline_dir / "one", pipeline_dir / "blocks"
        assert evaluate(one) == 0
        block_rows = []
        scored_blocks = pipeline.scored_blocks

        def spy(heads, dataset, rows):
            for start, stop, block in scored_blocks(heads, dataset, rows):
                block_rows.append(stop - start)
                yield start, stop, block

        monkeypatch.setattr(pipeline, "scored_blocks", spy)
        monkeypatch.setattr(numerics, "BLOCK_BYTES", 70 * 2 * 3 * 8)  # 70 rows at m=2, C=3
        assert evaluate(blocks) == 0
        assert block_rows == [60] * 5
        files = sorted(p.name for p in one.iterdir())
        assert len(files) == 1 + 2 + 2 + len(KINDS)
        for name in files:
            assert (blocks / name).read_bytes() == (one / name).read_bytes(), name

    def test_short_class_sweeps_write_the_numpy_bytes(self, tmp_path, monkeypatch):
        # SHORT_CLASSES 0 sends every softmax's row max to numpy's reduction,
        # 10**6 to the column sweep
        m, c, dim, n = 4, 6, 3, 500
        stream = RngStream(5)
        test = tmp_path / "test.fds"
        save_dataset(FeatureDataset(stream.standard_normal((n, dim)), stream.integers(0, c, n), c), test)
        art = save_heads(random_heads(m, dim, c, seed=6), tmp_path / "art")
        for kind in KINDS:
            save_metamodel(build_metamodel(kind, m, c, seed=7), art / f"meta_{kind}.mmd")
        outs = {short: tmp_path / f"short_{short}" for short in (0, 10**6)}
        for short, out in outs.items():
            monkeypatch.setattr(numerics, "SHORT_CLASSES", short)
            assert run([
                "evaluate", "--test", str(test), "--heads-dir", str(art), "--meta", "all",
                "--out", str(out),
            ]) == 0
        files = sorted(p.name for p in outs[0].iterdir())
        assert len(files) == 1 + m + 2 + len(KINDS)
        for name in files:
            assert (outs[10**6] / name).read_bytes() == (outs[0] / name).read_bytes(), name

    def test_every_block_is_scored_into_one_buffer(self, pipeline_dir, monkeypatch):
        # each block is a prefix view of the buffer; keeping the views' bases
        # alive keeps a fresh array per block from reusing an id
        bases = []
        spy_scored_blocks(monkeypatch, lambda rows, block: bases.append(block.base))
        monkeypatch.setattr(numerics, "BLOCK_BYTES", 70 * 2 * 3 * 8)  # 70 rows at m=2, C=3
        assert run([
            "evaluate", "--test", str(pipeline_dir / "data" / "test.fds"),
            "--heads-dir", str(pipeline_dir / "artifacts"), "--out", str(pipeline_dir / "res"),
        ]) == 0
        assert len(bases) == 5
        assert all(base is bases[0] for base in bases)

    @pytest.mark.parametrize("rows, k", [(1, 1), (2, 3), (7, 1), (7, 5), (262, 190)])
    def test_blocks_cover_the_rows_without_a_short_tail(self, monkeypatch, rows, k):
        row_bytes = 4000
        monkeypatch.setattr(numerics, "BLOCK_BYTES", rows * row_bytes + row_bytes - 1)
        n = k * rows + 1
        blocks = row_blocks(n, row_bytes)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(prev[1] == nxt[0] for prev, nxt in zip(blocks, blocks[1:]))
        sizes = [stop - start for start, stop in blocks]
        assert len(blocks) == k + 1
        assert max(sizes) <= rows and min(sizes) >= rows / 2, sizes

    def test_row_wider_than_the_budget_is_its_own_block(self, monkeypatch):
        monkeypatch.setattr(numerics, "BLOCK_BYTES", 100)
        assert row_blocks(3, 800) == [(0, 1), (1, 2), (2, 3)]

    def test_peak_memory_below_a_quarter_of_the_outputs(self, tmp_path):
        # one (N, m, C) output array would be 64 blocks; evaluate must never
        # hold it, let alone the sorted copy that averaging makes of it
        m, c, dim = 5, 100, 8
        n = -(-64 * numerics.BLOCK_BYTES // (m * c * 8))
        stream = RngStream(1)
        test = tmp_path / "test.fds"
        save_dataset(FeatureDataset(stream.standard_normal((n, dim)), stream.integers(0, c, n), c), test)
        art = save_heads(random_heads(m, dim, c, seed=2), tmp_path / "art")
        for kind in KINDS:
            save_metamodel(build_metamodel(kind, m, c, seed=3), art / f"meta_{kind}.mmd")
        tracemalloc.start()
        try:
            code = run([
                "evaluate", "--test", str(test), "--heads-dir", str(art), "--meta", "all",
                "--out", str(tmp_path / "results"),
            ])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        outputs_bytes = n * m * c * 8
        assert peak < outputs_bytes / 4, peak / outputs_bytes


class TestReport:
    def make_summary(self, tmp_path, rows):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps({"version": "0.1.0", "rows": rows}))
        return path

    def test_table_layout(self, tmp_path, capsys):
        rows = [
            {"name": "Head 1", "kind": "head", "accuracy_pct": 75.081, "ece_pct": 4.414,
             "mce_pct": 27.468, "param_count": 1710},
            {"name": "Avg.", "kind": "combiner", "accuracy_pct": 75.058, "ece_pct": 4.433,
             "mce_pct": 10.66, "param_count": 0},
        ]
        assert run(["report", str(self.make_summary(tmp_path, rows))]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].split() == ["Name", "Acc", "ECE", "MCE", "Params"]
        assert out[2].split() == ["Head", "1", "75.08", "4.41", "27.47", "1710"]
        assert out[3].split() == ["Avg.", "75.06", "4.43", "10.66", "0"]

    def test_heads_sorted_before_combiners(self, tmp_path, capsys):
        rows = [
            {"name": "Avg.", "kind": "combiner", "accuracy_pct": 1.0, "ece_pct": 1.0,
             "mce_pct": 1.0, "param_count": 0},
            {"name": "Head 1", "kind": "head", "accuracy_pct": 1.0, "ece_pct": 1.0,
             "mce_pct": 1.0, "param_count": 5},
        ]
        run(["report", str(self.make_summary(tmp_path, rows))])
        out = capsys.readouterr().out.splitlines()
        assert out[2].startswith("Head 1")
        assert out[3].startswith("Avg.")

    def test_deterministic_output(self, tmp_path, capsys):
        rows = [{"name": "Head 1", "kind": "head", "accuracy_pct": 50.0, "ece_pct": 5.0,
                 "mce_pct": 10.0, "param_count": 12}]
        path = self.make_summary(tmp_path, rows)
        run(["report", str(path)])
        first = capsys.readouterr().out
        run(["report", str(path)])
        assert capsys.readouterr().out == first

    def test_malformed_json_exits_three(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["report", str(path)]) == 3

    def test_json_that_is_not_an_object_exits_three(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1]")
        assert run(["report", str(path)]) == 3
        assert str(path) in capsys.readouterr().err

    def test_missing_file_exits_three(self, tmp_path):
        assert run(["report", str(tmp_path / "none.json")]) == 3

    @pytest.mark.parametrize("rows", [
        [1, 2],
        [{"name": "Head 1", "kind": "head", "accuracy_pct": 1.0, "ece_pct": 1.0,
          "mce_pct": 1.0, "param_count": 5}, "Avg."],
    ])
    def test_rows_that_are_not_objects_exit_three(self, tmp_path, capsys, rows):
        path = self.make_summary(tmp_path, rows)
        assert run(["report", str(path)]) == 3
        assert str(path) in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_values_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "classes": 3, "dim": 4, "n": 200, "sep": 8.0, "noise": 0.1,
            "seed": 7, "out": str(tmp_path / "from_config"),
            "lr": 0.05, "test": "x.fds",  # other commands' keys: ignored by gen
        }))
        assert run(["gen", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_config" / "train.fds").exists()
        assert run(["gen", "--config", str(cfg), "--out", str(tmp_path / "override")]) == 0
        assert (tmp_path / "override" / "train.fds").exists()
        a = load_dataset(tmp_path / "from_config" / "train.fds")
        assert a.n == 200

    def test_invalid_config_json_exits_two(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("[1, 2")
        assert run(["gen", "--config", str(cfg)]) == 2

    def test_gen_accepts_a_pipeline_config_holding_kind(self, tmp_path):
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps({"kind": "SL", "n": 200, "out": str(tmp_path / "data")}))
        assert run(["gen", "--config", str(cfg)]) == 0
        assert load_dataset(tmp_path / "data" / "train.fds").n == 200

    @pytest.mark.parametrize("key, value, warned", [
        ("max_epoch", 1, True),  # a misspelling of max_epochs: no command takes it
        ("kind", "SL", False),  # train-meta's option, so a pipeline-wide config works
    ])
    def test_config_key_no_command_takes_is_named_in_a_warning(
        self, tmp_path, capsys, key, value, warned
    ):
        assert run(gen_args(tmp_path / "data", n=200)) == 0
        cfg = tmp_path / "train_heads.json"
        cfg.write_text(json.dumps({key: value}))
        argv = ["train-heads", "--config", str(cfg), "--train", str(tmp_path / "data" / "train.fds"),
                "--m", "1", "--max-epochs", "2", "--out", str(tmp_path / "art")]
        capsys.readouterr()
        assert run(argv) == 0
        warning = f"warning: {cfg}: {key} is not an option of any command; ignored"
        err = capsys.readouterr().err
        assert (warning in err) == warned and ("warning" in err) == warned

    @pytest.mark.parametrize("command, key, value", [("train-meta", "kind", "XL")])
    def test_config_value_outside_choices_exits_two(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "choices.json"
        cfg.write_text(json.dumps({key: value}))
        assert run([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and key in err and repr(value) in err

    @pytest.mark.parametrize("command, key, value", [
        ("train-heads", "m", [1]),
        ("train-heads", "lr", None),
        ("gen", "n", {"value": 300}),
        ("evaluate", "meta", None),
        ("evaluate", "meta", ["SL", 3]),
        # a JSON boolean is a Python int, and 1.5 is no int flag's text
        ("gen", "seed", True),
        ("gen", "out", True),
        ("train-heads", "max_epochs", 1.5),
    ])
    def test_config_value_of_a_type_no_flag_takes_exits_two(
        self, tmp_path, capsys, monkeypatch, command, key, value
    ):
        monkeypatch.chdir(tmp_path)  # were the value taken, gen would write here
        cfg = tmp_path / "types.json"
        cfg.write_text(json.dumps({key: value}))
        assert run([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and key in err

    def test_config_meta_may_list_kinds(self, tmp_path, capsys):
        cfg = tmp_path / "meta.json"
        cfg.write_text(json.dumps({"meta": ["SL", "DL"], "test": str(tmp_path / "t.fds")}))
        assert run(["evaluate", "--config", str(cfg), "--heads-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "meta_SL.mmd" in err and "meta_DL.mmd" in err

    def test_heads_sidecar_config_reproduces_heads(self, pipeline_dir):
        data = str(pipeline_dir / "data" / "train.fds")
        first, second = pipeline_dir / "first", pipeline_dir / "second"
        base = ["train-heads", "--train", data, "--m", "2", "--seed", "7"]
        assert run(base + ["--lr", "0.05", "--max-epochs", "8", "--out", str(first)]) == 0
        config = json.loads((first / "heads.json").read_text())["config"]
        path = pipeline_dir / "heads_config.json"
        path.write_text(json.dumps(config))
        assert run(base + ["--config", str(path), "--out", str(second)]) == 0
        assert json.loads((second / "heads.json").read_text())["config"] == config
        for i in range(2):
            name = f"head_{i}.hdw"
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_meta_sidecar_config_reproduces_combiner(self, pipeline_dir):
        first, second = pipeline_dir / "first", pipeline_dir / "second"
        base = ["train-meta", "--kind", "DL", "--train", str(pipeline_dir / "data" / "train.fds"),
                "--heads-dir", str(pipeline_dir / "artifacts"), "--seed", "7"]
        assert run(base + ["--lr", "0.05", "--dropout", "0.25", "--epochs", "3",
                           "--out", str(first)]) == 0
        config = json.loads((first / "meta_DL.json").read_text())["config"]
        path = pipeline_dir / "meta_config.json"
        path.write_text(json.dumps(config))
        assert run(base + ["--config", str(path), "--out", str(second)]) == 0
        assert json.loads((second / "meta_DL.json").read_text())["config"] == config
        assert (first / "meta_DL.mmd").read_bytes() == (second / "meta_DL.mmd").read_bytes()


class TestOptions:
    """Every long flag of every command, in declaration order: a flag added or
    removed later shows up as a change to this list."""

    FLAGS = {
        "gen": ["--config", "--classes", "--dim", "--n", "--test-n", "--sep", "--noise",
                "--seed", "--out"],
        "train-heads": ["--config", "--train", "--m", "--seed", "--val-fraction", "--out",
                        "--lr", "--momentum", "--weight-decay", "--batch-size", "--max-epochs",
                        "--plateau-factor", "--plateau-patience", "--early-stop-patience"],
        "train-meta": ["--config", "--kind", "--train", "--heads-dir", "--seed",
                       "--val-fraction", "--out", "--epochs", "--lr", "--momentum",
                       "--weight-decay", "--batch-size", "--plateau-factor",
                       "--plateau-patience", "--dropout"],
        "evaluate": ["--config", "--test", "--heads-dir", "--meta-dir", "--meta", "--bins",
                     "--out"],
        "report": [],
    }

    def test_long_flags_of_each_command(self):
        (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
        flags = {
            name: [flag for action in sub._actions for flag in action.option_strings
                   if flag.startswith("--") and flag != "--help"]
            for name, sub in commands.choices.items()
        }
        assert flags == self.FLAGS


class TestEndToEndAtDefaults:
    """gen -> train-heads -> train-meta (every kind) -> evaluate, all at CLI
    defaults: the paper's claim that a trained combiner keeps the ensemble's
    accuracy while calibrating at least as well as averaging."""

    def test_combiners_keep_accuracy_and_calibration(self, tmp_path):
        data, art, res = tmp_path / "data", tmp_path / "artifacts", tmp_path / "results"
        train = str(data / "train.fds")
        assert run(["gen", "--out", str(data)]) == 0
        assert run(["train-heads", "--train", train, "--out", str(art)]) == 0
        for kind in ("SL", "DL", "DLL", "SLpC"):
            assert run(["train-meta", "--kind", kind, "--train", train,
                        "--heads-dir", str(art)]) == 0
        assert run(["evaluate", "--test", str(data / "test.fds"), "--heads-dir", str(art),
                    "--meta", "all", "--out", str(res)]) == 0
        rows = {r["name"]: r for r in json.loads((res / "summary.json").read_text())["rows"]}
        test = load_dataset(data / "test.fds")
        bound = 100.0 * chance_level_bound(test.num_classes, test.n)
        heads = [r for r in rows.values() if r["kind"] == "head"]
        assert len(heads) == 5
        assert all(r["accuracy_pct"] > bound for r in heads), (bound, heads)
        avg = rows["Avg."]
        for kind in ("SL", "DL", "DLL", "SLpC"):
            row = rows[kind]
            assert abs(row["accuracy_pct"] - avg["accuracy_pct"]) <= 1.0, (row, avg)
            assert row["ece_pct"] <= avg["ece_pct"] + 0.5, (row, avg)
