import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import calibens.data as data_module
from calibens.data import (
    FeatureDataset,
    MiscalSpec,
    SynthSpec,
    chance_level_bound,
    import_csv,
    load_dataset,
    save_dataset,
    split,
    synth_cluster_pair,
    synth_clusters,
    synth_miscalibrated_predictions,
)
from calibens.errors import ConfigError, DataError, FormatError, StratificationError
from calibens.heads import HeadTrainConfig, head_predict, train_head
from calibens.metrics import accuracy, calibration_report, predictions_from_probs
from calibens.numerics import RngStream, softmax


def tiny_dataset(n=12, d=3, c=3, seed=0):
    stream = RngStream(seed)
    return FeatureDataset(
        features=stream.standard_normal((n, d)),
        labels=np.arange(n) % c,
        num_classes=c,
        name="tiny",
    )


class TestDatasetFile:
    def test_round_trip(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "ds.fds"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.features, ds.features.astype(np.float32))
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.num_classes == ds.num_classes

    def test_round_trip_is_byte_stable(self, tmp_path):
        ds = tiny_dataset()
        p1, p2 = tmp_path / "a.fds", tmp_path / "b.fds"
        save_dataset(ds, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "bad.fds"
        save_dataset(tiny_dataset(), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_dataset(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "trunc.fds"
        save_dataset(tiny_dataset(), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="bytes"):
            load_dataset(path)

    def test_label_equal_to_c_rejected_with_offset(self, tmp_path):
        ds = tiny_dataset(n=4, d=2, c=3)
        path = tmp_path / "lab.fds"
        save_dataset(ds, path)
        raw = bytearray(path.read_bytes())
        record_size = 4 * 2 + 4
        bad_offset = 16 + 2 * record_size + 4 * 2  # label of record 2
        raw[bad_offset : bad_offset + 4] = struct.pack("<I", 3)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"offset {bad_offset}"):
            load_dataset(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected_with_index(self, bad):
        features = np.zeros((4, 3))
        features[2, 1] = bad
        with pytest.raises(DataError, match=r"features .* index \[2, 1\]"):
            FeatureDataset(features, np.zeros(4, dtype=np.int64), 2)

    def test_features_are_read_only(self):
        ds = tiny_dataset()
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0
        with pytest.raises(ValueError):
            ds.labels[0] = 1


class TestCsvImport:
    def test_import(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("f0,f1,label\n1.5,-2.0,0\n0.25,3.0,2\n")
        ds = import_csv(path)
        assert ds.dim == 2 and ds.n == 2 and ds.num_classes == 3
        assert np.array_equal(ds.features, [[1.5, -2.0], [0.25, 3.0]])
        assert np.array_equal(ds.labels, [0, 2])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,label\n1,2,0\n")
        with pytest.raises(FormatError, match="header"):
            import_csv(path)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,0\nnope,1\n")
        with pytest.raises(FormatError, match="line 3"):
            import_csv(path)


class TestSplit:
    def test_balanced_stratification(self):
        ds = FeatureDataset(
            features=np.arange(1000, dtype=np.float64).reshape(1000, 1),
            labels=np.arange(1000) % 10,
            num_classes=10,
        )
        train, val = split(ds, 0.1, seed=3)
        assert val.n == 100 and train.n == 900
        for c in range(10):
            assert int((val.labels == c).sum()) == 10

    def test_same_seed_same_split(self):
        ds = tiny_dataset(n=60, c=3)
        a = split(ds, 0.25, seed=11)
        b = split(ds, 0.25, seed=11)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].features, b[1].features)

    def test_disjoint_union(self):
        ds = FeatureDataset(
            features=np.arange(90, dtype=np.float64).reshape(90, 1),
            labels=np.arange(90) % 3,
            num_classes=3,
        )
        train, val = split(ds, 0.2, seed=5)
        train_ids = set(train.features[:, 0].astype(int))
        val_ids = set(val.features[:, 0].astype(int))
        assert train_ids.isdisjoint(val_ids)
        assert train_ids | val_ids == set(range(90))

    def test_class_with_one_sample_rejected(self):
        ds = FeatureDataset(
            features=np.zeros((4, 1)), labels=np.asarray([0, 0, 0, 1]), num_classes=2
        )
        with pytest.raises(StratificationError, match="class 1"):
            split(ds, 0.5, seed=0)

    def test_slices_are_read_only_and_not_rechecked(self, monkeypatch):
        ds = tiny_dataset(n=60, c=3)
        checks = []
        monkeypatch.setattr(data_module, "require_finite", lambda *args: checks.append(args))
        parts = split(ds, 0.25, seed=2)
        assert checks == []
        parts += synth_cluster_pair(SynthSpec(3, 2, 40, 4.0, 0.1, 1), 20)
        assert len(checks) == 1  # the one draw that both parts are carved from
        for part in parts:
            assert part.features.dtype == np.float64 and part.features.flags.c_contiguous
            with pytest.raises(ValueError):
                part.features[0, 0] = 99.0
            with pytest.raises(ValueError):
                part.labels[0] = 1

    def test_val_fraction_bounds(self):
        ds = tiny_dataset()
        with pytest.raises(ConfigError):
            split(ds, 0.0, seed=0)
        with pytest.raises(ConfigError):
            split(ds, 1.0, seed=0)

    @given(st.integers(0, 2**31), st.floats(0.05, 0.5))
    @settings(max_examples=20, deadline=None)
    def test_per_class_share_within_one_sample(self, seed, frac):
        ds = tiny_dataset(n=121, c=4, seed=9)
        _, val = split(ds, frac, seed=seed)
        for c in range(4):
            n_c = int((ds.labels == c).sum())
            got = int((val.labels == c).sum())
            assert abs(got - frac * n_c) <= 1.0


class TestSynthClusters:
    def test_deterministic_per_seed(self):
        spec = SynthSpec(4, 6, 100, 5.0, 0.1, seed=21)
        a, b = synth_clusters(spec), synth_clusters(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_noise_flips_exact_fraction_and_keeps_features(self):
        clean = synth_clusters(SynthSpec(5, 4, 400, 8.0, 0.0, seed=2))
        noisy = synth_clusters(SynthSpec(5, 4, 400, 8.0, 0.25, seed=2))
        assert np.array_equal(clean.features, noisy.features)
        flipped = int((clean.labels != noisy.labels).sum())
        assert flipped == round(0.25 * 400)

    def test_zero_separation_gives_chance_accuracy(self):
        ds = synth_clusters(SynthSpec(4, 4, 1200, 0.0, 0.0, seed=6))
        train, val = split(ds, 0.25, seed=1)
        head = train_head(train, val, HeadTrainConfig(seed=3, max_epochs=15))
        probs = softmax(head_predict(head, val.features))
        acc = accuracy(predictions_from_probs(probs, val.labels))
        assert acc <= chance_level_bound(4, val.n)

    def test_wide_separation_is_linearly_separable(self):
        ds = synth_clusters(SynthSpec(3, 6, 900, 20.0, 0.0, seed=8))
        train, val = split(ds, 0.2, seed=1)
        head = train_head(train, val, HeadTrainConfig(seed=3, max_epochs=40))
        probs = softmax(head_predict(head, val.features))
        assert accuracy(predictions_from_probs(probs, val.labels)) >= 0.99

    def test_label_noise_caps_accuracy(self):
        ds = synth_clusters(SynthSpec(4, 8, 2000, 20.0, 0.2, seed=12))
        train, val = split(ds, 0.2, seed=1)
        head = train_head(train, val, HeadTrainConfig(seed=3, max_epochs=40))
        probs = softmax(head_predict(head, val.features))
        acc = accuracy(predictions_from_probs(probs, val.labels))
        assert 0.70 <= acc <= 0.88  # noise ceiling is 0.8

    def test_noise_needs_two_classes(self):
        with pytest.raises(ConfigError):
            SynthSpec(1, 2, 10, 1.0, 0.5, seed=0)


class TestMiscalFixture:
    def test_known_gap(self):
        spec = MiscalSpec(10_000, 10, confidence_level=0.8, true_accuracy=0.6, seed=4)
        pred = synth_miscalibrated_predictions(spec)
        report = calibration_report(pred, 15)
        assert abs(report.ece - 0.2) <= 0.02
        assert report.mce == report.ece  # single non-empty bin

    def test_matched_confidence_and_accuracy(self):
        spec = MiscalSpec(10_000, 10, confidence_level=0.8, true_accuracy=0.8, seed=4)
        report = calibration_report(synth_miscalibrated_predictions(spec), 15)
        assert report.ece <= 0.02

    def test_perfect_is_exactly_zero(self):
        spec = MiscalSpec(500, 5, confidence_level=1.0, true_accuracy=1.0, seed=4)
        report = calibration_report(synth_miscalibrated_predictions(spec), 15)
        assert report.ece == 0.0
        assert report.mce == 0.0

    def test_deterministic(self):
        spec = MiscalSpec(100, 3, 0.9, 0.5, seed=77)
        a = synth_miscalibrated_predictions(spec)
        b = synth_miscalibrated_predictions(spec)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.predicted_class, b.predicted_class)
