import struct
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import calibens.data as data_module
import calibens.numerics as numerics_module
from calibens.data import (
    FDS_HEADER,
    FDS_MAGIC,
    FeatureDataset,
    SynthSpec,
    _dataset_record_dtype,
    load_dataset,
    map_dataset,
    save_dataset,
    split,
    split_indices,
    synth_cluster_pair,
    synth_clusters,
)
from calibens.errors import ConfigError, DataError, FormatError, StratificationError
from calibens.heads import HeadTrainConfig, head_predict, train_head
from calibens.metrics import accuracy, calibration_report, predictions_from_probs
from calibens.numerics import BLOCK_BYTES, RngStream, softmax

from fixtures import MiscalSpec, chance_level_bound, synth_miscalibrated_predictions


def tiny_dataset(n=12, d=3, c=3, seed=0):
    stream = RngStream(seed)
    return FeatureDataset(
        features=stream.standard_normal((n, d)),
        labels=np.arange(n) % c,
        num_classes=c,
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
    def test_non_finite_feature_in_file_rejected_with_offset(self, tmp_path, bad):
        path = tmp_path / "nan.fds"
        save_dataset(tiny_dataset(n=4, d=2, c=3), path)
        raw = bytearray(path.read_bytes())
        bad_offset = 16 + 2 * (4 * 2 + 4) + 4  # feature 1 of record 2
        raw[bad_offset : bad_offset + 4] = np.asarray([bad], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"nan.fds: non-finite .* offset {bad_offset}"):
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


def single_records_bytes(dataset):
    """The FDS1 bytes of `dataset` built as one record array, as save_dataset
    wrote them before it streamed row blocks."""
    records = np.empty(dataset.n, dtype=_dataset_record_dtype(dataset.dim))
    records["f"] = dataset.features.astype("<f4")
    records["y"] = dataset.labels.astype("<u4")
    header = struct.pack(FDS_HEADER, dataset.n, dataset.dim, dataset.num_classes)
    return FDS_MAGIC + header + records.tobytes()


class TestStreamedSave:
    @pytest.mark.parametrize("dim", [1, 3, 256])
    @pytest.mark.parametrize("rows", ["1", "block - 1", "block", "block + 1", "3 blocks + 2"])
    def test_bytes_equal_one_record_array(self, tmp_path, dim, rows):
        block = BLOCK_BYTES // _dataset_record_dtype(dim).itemsize
        n = {"1": 1, "block - 1": block - 1, "block": block, "block + 1": block + 1,
             "3 blocks + 2": 3 * block + 2}[rows]
        stream = RngStream(dim)
        # magnitudes from below the f32 subnormals (rounding to zero) up to near its largest
        features = stream.standard_normal((n, dim)) * 10.0 ** stream.integers(-47, 37, (n, dim))
        dataset = FeatureDataset(features, stream.integers(0, 7, n), 7)
        path = tmp_path / "d.fds"
        save_dataset(dataset, path)
        assert path.read_bytes() == single_records_bytes(dataset)

    def test_gen_and_save_peak_at_most_1_2x_the_features(self, tmp_path):
        spec = SynthSpec(100, 256, 16_000, 6.0, 0.2, seed=1)
        tracemalloc.start()
        try:
            train, test = synth_cluster_pair(spec, 4_000)
            save_dataset(train, tmp_path / "train.fds")
            save_dataset(test, tmp_path / "test.fds")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        feature_bytes = 20_000 * 256 * 8
        assert peak <= 1.2 * feature_bytes, peak / feature_bytes
        assert train.features.base is test.features.base  # row views of one draw


def old_synth_clusters(spec):
    """synth_clusters as it was written before it added the centers in place."""
    stream = RngStream(spec.seed)
    c, d, n = spec.num_classes, spec.dim, spec.num_samples
    if spec.cluster_separation > 0.0:
        directions = stream.standard_normal((c, d))
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        centers = spec.cluster_separation * directions / norms
    else:
        centers = np.zeros((c, d))
    labels = np.arange(n, dtype=np.int64) % c
    features = centers[labels] + stream.standard_normal((n, d))
    if spec.label_noise > 0.0:
        num_noisy = int(round(spec.label_noise * n))
        noisy = stream.permutation(n)[:num_noisy]
        offsets = stream.integers(1, c, num_noisy)
        labels = labels.copy()
        labels[noisy] = (labels[noisy] + offsets) % c
    return features, labels


@st.composite
def synth_specs(draw):
    c = draw(st.integers(1, 12))
    noise = draw(st.sampled_from([0.0, 0.2, 0.5]) | st.floats(0.0, 0.9)) if c > 1 else 0.0
    sep = draw(st.sampled_from([0.0, 1e-300, 6.0, 1e6]) | st.floats(0.0, 100.0))
    return SynthSpec(c, draw(st.integers(1, 9)), draw(st.integers(1, 400)), sep, noise,
                     seed=draw(st.integers(0, 2**64 - 1)))


class TestSynthInPlace:
    @given(synth_specs(), st.integers(1, 4000))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_old_expression_bit_for_bit(self, spec, block_bytes):
        features, labels = old_synth_clusters(spec)
        with mock.patch.object(numerics_module, "BLOCK_BYTES", block_bytes):
            ds = synth_clusters(spec)
        assert ds.features.tobytes() == features.tobytes()
        assert np.array_equal(ds.labels, labels)

    @given(synth_specs(), st.integers(1, 50))
    @settings(max_examples=50, deadline=None)
    def test_pair_is_the_two_row_ranges_of_one_draw(self, spec, test_samples):
        features, labels = old_synth_clusters(
            replace(spec, num_samples=spec.num_samples + test_samples)
        )
        train, test = synth_cluster_pair(spec, test_samples)
        n = spec.num_samples
        assert train.features.tobytes() == features[:n].tobytes()
        assert test.features.tobytes() == features[n:].tobytes()
        assert np.array_equal(train.labels, labels[:n]) and np.array_equal(test.labels, labels[n:])


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

    @pytest.mark.parametrize("seed", [0, 3, 1000])
    @pytest.mark.parametrize("frac", [0.1, 0.25, 0.5])
    def test_split_is_split_indices_plus_the_gather(self, tmp_path, seed, frac):
        # train-heads splits the loaded dataset; train-meta draws the indices
        # from the labels and gathers rows of the mapped file: same rows, same order
        path = tmp_path / "d.fds"
        save_dataset(synth_clusters(SynthSpec(5, 3, 200, 2.0, 0.2, seed=seed)), path)
        mapped = map_dataset(path)
        rows = split_indices(mapped.labels, mapped.num_classes, frac, seed)
        for part, idx in zip(split(load_dataset(path), frac, seed), rows, strict=True):
            assert np.all(np.diff(idx) > 0)
            assert np.array_equal(part.features, mapped.features(idx))
            assert np.array_equal(part.labels, mapped.labels[idx])

    def test_mapped_file_is_read_only_and_casts_only_the_rows_asked_for(self, tmp_path):
        path = tmp_path / "d.fds"
        ds = tiny_dataset(n=12, d=3, c=3)
        save_dataset(ds, path)
        mapped = map_dataset(path)
        assert mapped.features_f32.dtype == np.float32 and mapped.labels.dtype == np.int64
        for array in (mapped.features_f32, mapped.labels):
            with pytest.raises(ValueError):
                array[0] = 1
        rows = mapped.features(np.asarray([7, 2]))
        assert rows.dtype == np.float64 and rows.flags.c_contiguous and rows.flags.writeable
        assert np.array_equal(rows, ds.features[[7, 2]].astype(np.float32))

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
