import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calibens.errors import ConfigError, DataError, DimensionError, LabelError
from calibens.metrics import (
    RELIABILITY_CSV_HEADER,
    BinStats,
    PredictionSet,
    accuracy,
    calibration_report,
    ece,
    mce,
    predictions_from_probs,
    reliability_bins,
    write_reliability_csv,
)
from calibens.numerics import RngStream


def brute_force_ece_mce(predicted, confidence, labels, num_bins):
    """Independent per-sample grouping oracle (pure Python, dict-based)."""
    groups = {}
    for p, c, y in zip(predicted, confidence, labels):
        b = min(int(math.floor(c * num_bins)), num_bins - 1)
        groups.setdefault(b, []).append((c, 1.0 if p == y else 0.0))
    n = len(labels)
    ece_val, mce_val = 0.0, 0.0
    for items in groups.values():
        conf_mean = sum(c for c, _ in items) / len(items)
        acc_mean = sum(h for _, h in items) / len(items)
        gap = abs(acc_mean - conf_mean)
        ece_val += (len(items) / n) * gap
        mce_val = max(mce_val, gap)
    return ece_val, mce_val


def random_prediction_set(stream, n=None, c=None):
    n = n if n is not None else int(stream.integers(1, 501))
    c = c if c is not None else int(stream.integers(2, 21))
    probs = stream.random((n, c))
    probs = probs / probs.sum(axis=1, keepdims=True)
    labels = stream.integers(0, c, n)
    return predictions_from_probs(probs, labels)


class TestPredictionsFromProbs:
    def test_simple(self):
        pred = predictions_from_probs([[0.1, 0.9]], [1])
        assert pred.predicted_class[0] == 1
        assert pred.confidence[0] == 0.9

    def test_tie_goes_to_lowest_index(self):
        pred = predictions_from_probs([[0.5, 0.5]], [1])
        assert pred.predicted_class[0] == 0

    def test_scan_oracle(self):
        pred = predictions_from_probs([[0.2, 0.3, 0.5]], [0])
        assert pred.predicted_class[0] == 2
        assert pred.confidence[0] == 0.5

    def test_label_length_mismatch(self):
        with pytest.raises(DimensionError):
            predictions_from_probs([[0.5, 0.5]], [0, 1])

    def test_label_out_of_range(self):
        with pytest.raises(LabelError, match="index 0"):
            predictions_from_probs([[0.5, 0.5]], [2])

    @given(st.integers(0, 2**31), st.integers(1, 40), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_confidence_is_the_row_max(self, seed, n, c):
        # the confidence is gathered at the argmax; rows with tied maxima and
        # zeros must still give exactly the row max
        stream = RngStream(seed)
        probs = stream.choice([0.0, 0.25, 0.5, 1.0], (n, c)) + stream.random((n, c)) * (
            stream.random((n, 1)) < 0.5
        )
        probs /= np.maximum(probs.sum(axis=1, keepdims=True), 1e-300)
        pred = predictions_from_probs(probs, stream.integers(0, c, n))
        assert np.array_equal(pred.confidence, probs.max(axis=1))

    def test_prediction_set_rejects_nan_confidence(self):
        with pytest.raises(DataError, match=r"confidence .* index \[1\]"):
            PredictionSet(predicted_class=[0, 1], confidence=[0.5, np.nan], labels=[0, 1])


def bin_of(confidence, num_bins):
    """Index of the one bin reliability_bins puts a single sample in."""
    bins = reliability_bins(PredictionSet([0], [confidence], [0]), num_bins)
    (index,) = [b.bin_index for b in bins if b.count]
    return index


class TestAssignBin:
    """Which bin reliability_bins assigns a confidence to: floor(conf * M),
    top bin closed at 1.0."""

    def test_top_edge_closure(self):
        assert bin_of(1.0, 15) == 14

    def test_bottom_edge(self):
        assert bin_of(0.0, 15) == 0

    def test_near_edge_cases_follow_float_product(self):
        # exact rational oracle: Fraction(0.7333) * 15 = 10.9995 -> bin 10,
        # while float(11/15) * 15 rounds up to exactly 11.0 -> bin 11
        assert Fraction(0.7333) * 15 < 11
        assert bin_of(0.7333, 15) == 10
        assert float(11 / 15) * 15 == 11.0
        assert bin_of(11 / 15, 15) == 11

    def test_domain_error(self):
        # out-of-range confidences never reach the binning
        with pytest.raises(DataError):
            PredictionSet([0], [1.2], [0])
        with pytest.raises(DataError):
            PredictionSet([0], [-0.1], [0])

    @given(st.floats(0.0, 1.0), st.integers(1, 50))
    def test_index_always_in_range(self, conf, m):
        assert 0 <= bin_of(conf, m) < m


class TestReliabilityBins:
    def test_all_correct_at_full_confidence(self):
        pred = PredictionSet([0, 0, 0], [1.0, 1.0, 1.0], [0, 0, 0])
        bins = reliability_bins(pred, 15)
        non_empty = [b for b in bins if b.count]
        assert len(non_empty) == 1
        assert non_empty[0].bin_index == 14
        assert non_empty[0].mean_accuracy == 1.0
        assert non_empty[0].mean_confidence == 1.0

    def test_two_samples_two_bins(self):
        pred = PredictionSet([0, 1], [0.05, 0.95], [0, 1])
        bins = reliability_bins(pred, 2)
        assert [b.count for b in bins] == [1, 1]

    def test_empty_bins_flag_absent_stats(self):
        pred = PredictionSet([0], [0.5], [0])
        bins = reliability_bins(pred, 4)
        for b in bins:
            if b.count == 0:
                assert b.mean_confidence is None and b.mean_accuracy is None

    def test_partition_covers_all_samples(self):
        pred = random_prediction_set(RngStream(5), n=200, c=7)
        bins = reliability_bins(pred, 10)
        assert sum(b.count for b in bins) == 200

    def test_matches_brute_force_grouping(self):
        stream = RngStream(17)
        pred = random_prediction_set(stream, n=100, c=5)
        bins = reliability_bins(pred, 10)
        groups = {}
        for p, c, y in zip(pred.predicted_class, pred.confidence, pred.labels):
            b = min(int(math.floor(c * 10)), 9)
            groups.setdefault(b, []).append((c, float(p == y)))
        for b in bins:
            if b.count:
                confs, hits = zip(*groups[b.bin_index])
                assert b.count == len(confs)
                assert b.mean_confidence == pytest.approx(sum(confs) / len(confs), abs=1e-12)
                assert b.mean_accuracy == pytest.approx(sum(hits) / len(hits), abs=1e-12)
            else:
                assert b.bin_index not in groups


def make_bins(specs, num_bins):
    """specs: {index: (count, conf, acc)}"""
    bins = []
    for i in range(num_bins):
        count, conf, acc = specs.get(i, (0, None, None))
        bins.append(BinStats(i, count, conf, acc, i / num_bins, (i + 1) / num_bins))
    return bins


class TestEceMce:
    def test_perfectly_calibrated_is_zero(self):
        pred = PredictionSet([0, 1], [1.0, 1.0], [0, 1])
        bins = reliability_bins(pred, 15)
        assert ece(bins, 2) == 0.0
        assert mce(bins) == 0.0

    def test_single_bin_arithmetic(self):
        bins = make_bins({12: (20, 0.80, 0.65)}, 15)
        assert ece(bins, 20) == pytest.approx(0.15, abs=1e-15)

    def test_two_equal_bins_weighted_mean(self):
        bins = make_bins({3: (10, 0.35, 0.25), 8: (10, 0.55, 0.85)}, 10)
        assert ece(bins, 20) == pytest.approx(0.2, abs=1e-15)
        assert mce(bins) == pytest.approx(0.3, abs=1e-15)

    def test_single_non_empty_bin_mce_equals_ece(self):
        bins = make_bins({4: (7, 0.62, 0.40)}, 15)
        assert mce(bins) == ece(bins, 7)

    def test_ece_count_mismatch(self):
        bins = make_bins({0: (5, 0.1, 0.1)}, 3)
        with pytest.raises(DataError):
            ece(bins, 7)

    def test_mce_all_empty(self):
        with pytest.raises(DataError):
            mce(make_bins({}, 5))


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(PredictionSet([0, 1], [0.9, 0.9], [0, 1])) == 1.0

    def test_all_wrong(self):
        assert accuracy(PredictionSet([0, 1], [0.9, 0.9], [1, 0])) == 0.0

    def test_counting_oracle(self):
        assert accuracy(PredictionSet([0, 1, 2, 0], [0.5] * 4, [0, 1, 2, 1])) == 0.75


class TestInvariants:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31), st.sampled_from([1, 5, 10, 15]))
    def test_brute_force_equivalence(self, seed, num_bins):
        pred = random_prediction_set(RngStream(seed))
        report = calibration_report(pred, num_bins)
        expect_ece, expect_mce = brute_force_ece_mce(
            pred.predicted_class, pred.confidence, pred.labels, num_bins
        )
        assert report.ece == pytest.approx(expect_ece, abs=1e-12)
        assert report.mce == pytest.approx(expect_mce, abs=1e-12)
        assert 0.0 <= report.ece <= report.mce <= 1.0

    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, seed):
        stream = RngStream(seed)
        pred = random_prediction_set(stream, n=64, c=4)
        perm = stream.permutation(64)
        shuffled = PredictionSet(
            pred.predicted_class[perm], pred.confidence[perm], pred.labels[perm]
        )
        a = calibration_report(pred, 10)
        b = calibration_report(shuffled, 10)
        assert a.ece == pytest.approx(b.ece, abs=1e-12)
        assert a.mce == pytest.approx(b.mce, abs=1e-12)

    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_single_bin_ece_is_exact_gap(self, seed):
        pred = random_prediction_set(RngStream(seed), n=97, c=6)
        bins = reliability_bins(pred, 1)
        expect = abs(accuracy(pred) - float(np.mean(pred.confidence)))
        assert ece(bins, pred.n) == expect  # bitwise, not approximate

    def test_report_accuracy_matches_bin_weighted_sum(self):
        pred = random_prediction_set(RngStream(33), n=250, c=8)
        report = calibration_report(pred, 15)
        weighted = sum(
            b.count * b.mean_accuracy for b in report.bins if b.count
        ) / pred.n
        assert report.accuracy == pytest.approx(weighted, abs=1e-12)

    def test_filling_empty_bins_leaves_others_unchanged(self):
        base = PredictionSet([0, 1, 0], [0.05, 0.12, 0.93], [0, 0, 0])
        before = reliability_bins(base, 10)
        extended = PredictionSet(
            [0, 1, 0, 1, 1],
            [0.05, 0.12, 0.93, 0.55, 0.41],  # new samples land in empty bins
            [0, 0, 0, 1, 0],
        )
        after = reliability_bins(extended, 10)
        for b_old, b_new in zip(before, after):
            if b_old.count:
                assert b_new.count == b_old.count
                assert b_new.mean_confidence == b_old.mean_confidence
                assert b_new.mean_accuracy == b_old.mean_accuracy


def masked_reliability_bins(pred, num_bins):
    """reliability_bins as written with one mask per bin, kept as the
    reference that the one-sort grouping must match bit for bit."""
    idx = np.minimum(np.floor(pred.confidence * num_bins).astype(np.int64), num_bins - 1)
    correct = (pred.predicted_class == pred.labels).astype(np.float64)
    bins = []
    for m in range(num_bins):
        mask = idx == m
        count = int(mask.sum())
        bins.append(
            BinStats(
                bin_index=m,
                count=count,
                mean_confidence=float(np.mean(pred.confidence[mask])) if count else None,
                mean_accuracy=float(np.mean(correct[mask])) if count else None,
                lower_edge=m / num_bins,
                upper_edge=(m + 1) / num_bins,
            )
        )
    return bins


@st.composite
def binned_predictions(draw):
    """(PredictionSet, M): up to 3000 samples, so a bin's mean runs numpy's
    pairwise sum over several blocks; a drawn share of the confidences comes
    from 0.0, 1.0, every edge k/M, 0.7333 and 11/15."""
    num_bins = draw(st.integers(1, 50))
    n = draw(st.integers(1, 3000))
    stream = RngStream(draw(st.integers(0, 2**31)))
    special = np.array([0.0, 1.0, 0.7333, 11 / 15] + [k / num_bins for k in range(num_bins + 1)])
    confidence = np.where(
        stream.random(n) < draw(st.floats(0.0, 1.0)), stream.choice(special, n), stream.random(n)
    )
    pred = PredictionSet(stream.integers(0, 3, n), confidence, stream.integers(0, 3, n))
    return pred, num_bins


class TestOneSortBinning:
    """reliability_bins groups the samples with one stable argsort and must
    give every bin the counts and means the per-bin masks gave it."""

    @given(binned_predictions())
    @settings(max_examples=150, deadline=None)
    def test_equals_per_bin_masks(self, case):
        pred, num_bins = case
        assert reliability_bins(pred, num_bins) == masked_reliability_bins(pred, num_bins)

    @pytest.mark.parametrize("num_bins", [1, 2, 7, 15, 50, 256, 257])
    def test_edges_and_pinned_cases(self, num_bins):
        confidence = [0.0, 1.0, 0.7333, 11 / 15] + [k / num_bins for k in range(num_bins + 1)]
        n = len(confidence)
        pred = PredictionSet(np.arange(n) % 2, confidence, np.zeros(n, dtype=np.int64))
        assert reliability_bins(pred, num_bins) == masked_reliability_bins(pred, num_bins)


class TestCsvExport:
    def test_format_and_empty_bins(self, tmp_path):
        pred = PredictionSet([0, 1], [0.05, 0.95], [0, 1])
        bins = reliability_bins(pred, 2)
        out = tmp_path / "rel.csv"
        write_reliability_csv(bins, out)
        lines = out.read_text().splitlines()
        assert lines[0] == RELIABILITY_CSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("0,0.0,0.5,1,")

    def test_empty_bin_row_has_empty_stats(self, tmp_path):
        pred = PredictionSet([0], [0.1], [0])
        out = tmp_path / "rel.csv"
        write_reliability_csv(reliability_bins(pred, 4), out)
        lines = out.read_text().splitlines()
        assert lines[2].endswith(",0,,")

    def test_invalid_bin_count(self):
        pred = PredictionSet([0], [0.1], [0])
        with pytest.raises(ConfigError):
            reliability_bins(pred, 0)
