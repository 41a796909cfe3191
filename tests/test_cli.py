import hashlib
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from calibens import cli, container, numerics
from calibens.cli import HEAD_OUTPUTS_CACHE, _head_outputs, build_parser, main
from calibens.combiners import (
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
    MappedDataset,
    _dataset_record_dtype,
    load_dataset,
    map_dataset,
    save_dataset,
    split_indices,
)
from calibens.heads import LinearHead, head_predict, load_head, save_head
from calibens.metrics import RELIABILITY_CSV_HEADER, calibration_report, predictions_from_probs
from calibens.numerics import RngStream, row_blocks, softmax_in_place

from fixtures import MiscalSpec, chance_level_bound, head_outputs, synth_miscalibrated_predictions


def run(argv):
    return main(argv)


def gen_args(out, n=300, classes=3, dim=4, seed=7, noise=0.1):
    return [
        "gen", "--classes", str(classes), "--dim", str(dim),
        "--n", str(n), "--sep", "8", "--noise", str(noise), "--seed", str(seed),
        "--out", str(out),
    ]


def per_head_logits(head, features):
    """A head's logits as computed before the outputs shared one array."""
    return features @ head.weights.T + head.bias


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
    """From here on, computing any head output fails the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("head outputs were computed")

    monkeypatch.setattr(cli, "head_predict", refuse)


def refuse_feature_casts(monkeypatch):
    """From here on, gathering or casting any feature row of a dataset file
    fails the test: MappedDataset.features is the only path from the f32
    records to float64, load_dataset's included."""

    def refuse(*args, **kwargs):
        raise AssertionError("features were cast to float64")

    monkeypatch.setattr(MappedDataset, "features", refuse)


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

    def test_missing_dataset_exits_three(self, tmp_path, capsys):
        assert run([
            "train-heads", "--train", str(tmp_path / "nope.fds"), "--m", "1",
            "--out", str(tmp_path / "a"),
        ]) == 3

    def test_zero_heads_exits_two(self, pipeline_dir):
        assert run([
            "train-heads", "--train", str(pipeline_dir / "data" / "train.fds"), "--m", "0",
            "--out", str(pipeline_dir / "none"),
        ]) == 2


def mapped_dataset(path, n, dim, num_classes, seed):
    """A MappedDataset of n random rows, written to `path` first."""
    stream = RngStream(seed)
    features, labels = stream.standard_normal((n, dim)), np.arange(n) % num_classes
    save_dataset(FeatureDataset(features, labels, num_classes), path)
    return map_dataset(path)


class TestHeadOutputsArray:
    """cli._head_outputs fills one (N, m, C) array block by block, head by head."""

    def test_peak_memory_within_one_and_a_half_output_sizes(self, tmp_path):
        heads = random_heads(5, 32, 40, seed=1)
        dataset = mapped_dataset(tmp_path / "d.fds", 8000, 32, 40, seed=2)
        tracemalloc.start()
        try:
            outputs = _head_outputs(heads, dataset, np.arange(8000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert outputs.values.shape == (8000, 5, 40)
        assert peak <= 1.5 * outputs.values.nbytes, peak / outputs.values.nbytes

    def test_views_equal_per_head_outputs_bit_for_bit(self, tmp_path):
        heads = random_heads(4, 96, 50, seed=3)
        dataset = mapped_dataset(tmp_path / "d.fds", 3000, 96, 50, seed=4)
        outputs = _head_outputs(heads, dataset, np.arange(3000))
        features = dataset.features()
        for i, head in enumerate(heads):
            expect = per_head_softmax(per_head_logits(head, features))
            assert np.array_equal(outputs.values[:, i, :], expect)

    def test_block_walk_equals_whole_matrix_bit_for_bit(self, tmp_path):
        # 1800 rows in split order: 7 blocks of at most 262 rows at m=5, C=100
        heads = random_heads(5, 256, 100, seed=5)
        dataset = mapped_dataset(tmp_path / "d.fds", 2000, 256, 100, seed=6)
        rows = split_indices(dataset.labels, 100, 0.1, seed=7)[0]
        assert len(row_blocks(len(rows), 5 * 100 * 8)) >= 3
        outputs = _head_outputs(heads, dataset, rows)
        features = dataset.features()[rows]
        expect = np.empty((len(rows), 5, 100))
        for i, head in enumerate(heads):
            head_predict(head, features, out=expect[:, i, :])
        assert np.array_equal(outputs.values, softmax_in_place(expect))

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
        initial = build_metamodel("SLpC", 2, 3, seed=7 + 2000 + 3)
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
    def test_hit_releases_the_training_file_before_checking_the_cache(
        self, pipeline_dir, monkeypatch, kind
    ):
        # a hit keeps the split's labels only: the mapped file must be gone
        # before the cached outputs are checked, or both stay resident
        out = pipeline_dir / "out"
        assert self.train_meta(pipeline_dir, out, kind=kind) == 0
        missed = (out / f"meta_{kind}.mmd").read_bytes()
        mapped, alive = [], []
        map_dataset_of, head_outputs_of = cli.map_dataset, cli.HeadOutputs

        def spy_map(*args):
            dataset = map_dataset_of(*args)
            mapped.append(weakref.ref(dataset))
            return dataset

        def spy_outputs(values):
            alive.append([ref() is not None for ref in mapped])
            return head_outputs_of(values)

        monkeypatch.setattr(cli, "map_dataset", spy_map)
        monkeypatch.setattr(cli, "HeadOutputs", spy_outputs)
        assert self.train_meta(pipeline_dir, out, kind=kind) == 0
        assert alive == [[False], [False]]
        assert (out / f"meta_{kind}.mmd").read_bytes() == missed

    @staticmethod
    def forge_cache(pipeline_dir, train, out):
        """A cache keyed, as train-meta keys it, to the exact bytes of
        `train` and the heads at --seed 7 and --val-fraction 0.1, holding
        uniform outputs for the split that the file's labels give."""
        art = pipeline_dir / "artifacts"
        key = hashlib.sha256(train.read_bytes())
        for i in range(2):
            key.update((art / f"head_{i}.hdw").read_bytes())
        key.update(b"7\n0.1")
        labels = np.frombuffer(train.read_bytes(), _dataset_record_dtype(4), offset=16)["y"]
        parts = split_indices(labels, 3, 0.1, 7 + 1000)
        header = (key.digest(), len(parts[0]), len(parts[1]), 2, 3, bytes(12))
        blocks = [np.full((len(rows), 2, 3), 1 / 3) for rows in parts]
        out.mkdir(parents=True, exist_ok=True)
        container.write(out / HEAD_OUTPUTS_CACHE, cli._CACHE_MAGIC, cli._CACHE_HEADER, header,
                        blocks, container.F64)

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
        raw[64:72] = np.float64(np.nan).tobytes()
        cache.write_bytes(bytes(raw))
        assert self.train_meta(pipeline_dir, out) == 3
        err = capsys.readouterr().err
        assert str(cache) in err and "head 0 output holds a non-finite value" in err

    def test_cached_outputs_are_read_only(self, pipeline_dir, monkeypatch):
        out = pipeline_dir / "out"
        assert self.train_meta(pipeline_dir, out) == 0
        seen = []
        train_metamodel = cli.train_metamodel

        def spy(meta, train_outputs, train_labels, val_outputs, val_labels, cfg):
            seen.extend([train_outputs.values, val_outputs.values])
            return train_metamodel(meta, train_outputs, train_labels, val_outputs, val_labels, cfg)

        monkeypatch.setattr(cli, "train_metamodel", spy)
        assert self.train_meta(pipeline_dir, out) == 0
        assert len(seen) == 2
        for values in seen:
            assert not values.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                values[0, 0, 0] = 0.5

    def test_hit_peak_memory_below_a_tenth_of_the_outputs(self, tmp_path, monkeypatch):
        # reading the file into fresh arrays would cost the outputs' size,
        # and checking them in one piece an eighth of it (a bool per value)
        m, c, dim, n = 5, 50, 2, 8000
        stream = RngStream(1)
        train = tmp_path / "train.fds"
        save_dataset(FeatureDataset(stream.standard_normal((n, dim)), np.arange(n) % c, c), train)
        art = save_heads(random_heads(m, dim, c, seed=2), tmp_path / "art")
        argv = ["train-meta", "--kind", "SL", "--train", str(train), "--heads-dir", str(art),
                "--epochs", "1"]
        assert run(argv) == 0

        class OutputsObtained(Exception):
            pass

        def stop(*args):
            raise OutputsObtained(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(cli, "train_metamodel", stop)
        tracemalloc.start()
        try:
            with pytest.raises(OutputsObtained) as obtained:
                run(argv)
        finally:
            tracemalloc.stop()
        peak, outputs_bytes = obtained.value.args[0], n * m * c * 8
        assert peak < outputs_bytes / 10, peak / outputs_bytes


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

    def test_legacy_logits_combiner_exits_two_before_reading_test_set(self, pipeline_dir, capsys):
        # a sidecar from a run that still trained combiners on head logits
        art = pipeline_dir / "artifacts"
        assert run([
            "train-meta", "--kind", "SL", "--train", str(pipeline_dir / "data" / "train.fds"),
            "--heads-dir", str(art), "--seed", "7", "--epochs", "1",
        ]) == 0
        sidecar = art / "meta_SL.json"
        assert "meta_input" not in json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "meta_input": "logits"}))
        test = pipeline_dir / "garbage.fds"
        test.write_bytes(b"not a dataset")  # reading it would exit 3
        assert run([
            "evaluate", "--test", str(test), "--heads-dir", str(art), "--meta", "SL",
            "--out", str(pipeline_dir / "results"),
        ]) == 2
        assert f"{sidecar}: SL was trained on head logits" in capsys.readouterr().err
        assert not (pipeline_dir / "results").exists()

    def test_sidecar_recording_probs_still_evaluates(self, pipeline_dir):
        # sidecars written before the option was removed record "probs"
        art, res = pipeline_dir / "artifacts", pipeline_dir / "results"
        assert run([
            "train-meta", "--kind", "SL", "--train", str(pipeline_dir / "data" / "train.fds"),
            "--heads-dir", str(art), "--seed", "7", "--epochs", "1",
        ]) == 0
        sidecar = art / "meta_SL.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "meta_input": "probs"}))
        assert run([
            "evaluate", "--test", str(pipeline_dir / "data" / "test.fds"), "--heads-dir", str(art),
            "--meta", "SL", "--out", str(res),
        ]) == 0
        config = json.loads((res / "summary.json").read_text())["config"]
        assert set(config["meta_training"]["SL"]) == {"seed", "config"}

    def test_rows_equal_per_head_recipe(self, pipeline_dir):
        # reference: each head's logits and softmax computed on its own, and
        # every rule and combiner fed the probabilities
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
            combine_average(head_outputs(probs), test.labels),
            combine_vote(head_outputs(probs), test.labels),
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
    """cmd_evaluate walks the test set in row blocks of numerics.BLOCK_BYTES."""

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
        head_outputs_of = cli._head_outputs

        def spy(heads, dataset, rows):
            block_rows.append(len(rows))
            return head_outputs_of(heads, dataset, rows)

        monkeypatch.setattr(cli, "_head_outputs", spy)
        monkeypatch.setattr(numerics, "BLOCK_BYTES", 70 * 2 * 3 * 8)  # 70 rows at m=2, C=3
        assert evaluate(blocks) == 0
        assert block_rows == [60] * 5
        files = sorted(p.name for p in one.iterdir())
        assert len(files) == 1 + 2 + 2 + len(KINDS)
        for name in files:
            assert (blocks / name).read_bytes() == (one / name).read_bytes(), name

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
    ])
    def test_config_value_of_a_type_no_flag_takes_exits_two(
        self, tmp_path, capsys, command, key, value
    ):
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
