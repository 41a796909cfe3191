import struct
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import calibens.combiners as combiners_module
import calibens.numerics as numerics_module
from calibens.combiners import (
    DTYPE,
    KINDS,
    HeadOutputs,
    _mean_over_heads,
    MetaTrainConfig,
    Metamodel,
    build_metamodel,
    check_probabilities,
    combine_average,
    combine_metamodel,
    combine_vote,
    hidden_width,
    load_metamodel,
    metamodel_forward,
    metamodel_gradients,
    param_count,
    save_metamodel,
    train_metamodel,
)
from calibens.errors import ConfigError, DataError, DimensionError, FormatError, LabelError
from calibens.numerics import (
    RngStream,
    _softmax_ce_grad,
    cross_entropy,
    dropout_mask,
    softmax,
    softmax_in_place,
)

from fixtures import head_outputs, stacked_probs
from gradcheck import finite_difference_grads, relative_error


def random_probs(stream, m, n, c):
    """(N, m, C) float64 softmax rows of m random heads, as evaluate's block."""
    return stacked_probs([softmax(stream.standard_normal((n, c))) for _ in range(m)])


def random_outputs(stream, m, n, c):
    """HeadOutputs of random_probs: their DTYPE cast."""
    return HeadOutputs(random_probs(stream, m, n, c))


class TestHeadOutputs:
    def test_shape_mismatch(self):
        # an (N, C) matrix lacks the heads axis
        with pytest.raises(DimensionError):
            HeadOutputs(np.full((2, 2), 0.5))

    def test_non_prob_rows_rejected(self):
        with pytest.raises(DataError):
            head_outputs([np.asarray([[0.9, 0.5]])])

    def test_nan_row_rejected_with_index(self):
        probs = np.asarray([[0.5, 0.5], [np.nan, np.nan]])
        with pytest.raises(DataError, match=r"head 1 output .* index \[1, 0\]"):
            head_outputs([np.full((2, 2), 0.5), probs])

    def test_concatenation_is_head_major(self):
        a = np.asarray([[0.2, 0.8]])
        b = np.asarray([[0.6, 0.4]])
        expect = np.asarray([[0.2, 0.8, 0.6, 0.4]], dtype=DTYPE)
        assert np.array_equal(head_outputs([a, b]).concatenated(), expect)

    def test_holds_the_dtype_cast_and_keeps_a_dtype_array(self):
        probs = softmax(RngStream(3).standard_normal((6, 4)))
        outputs = head_outputs([probs, probs[::-1]])
        assert outputs.values.dtype == DTYPE and outputs.values.flags.c_contiguous
        assert np.array_equal(outputs.values, np.stack([probs, probs[::-1]], axis=1).astype(DTYPE))
        assert HeadOutputs(outputs.values).values is outputs.values

    def test_float32_rounding_passes_and_names_the_bad_head(self):
        # head 0: float32 casts of float64 softmax rows of 1000 classes, whose
        # float64 sums lie up to about 2**-24 from 1; head 2 holds one row
        # summing to 1 + 1e-6, beyond the float32 slack
        stream = RngStream(5)
        rows = [softmax(stream.standard_normal((40, 1000))).astype(np.float32) for _ in range(3)]
        assert np.abs(rows[0].sum(axis=1, dtype=np.float64) - 1.0).max() > 1e-9
        assert HeadOutputs(np.stack(rows, axis=1)).values.dtype == DTYPE
        rows[2][7, 0] += np.float32(1e-6)
        with pytest.raises(DataError, match="head 2 rows are not probability vectors"):
            HeadOutputs(np.stack(rows, axis=1))


def two_pass_check(values):
    """The HeadOutputs check as two passes over the whole array: every value
    finite, then every row a probability vector; the first failing pass
    names the lowest offending head."""
    if not np.isfinite(values).all():
        i, n, c = np.argwhere(~np.isfinite(values.transpose(1, 0, 2)))[0]
        raise DataError(f"head {i} output holds a non-finite value at index [{n}, {c}]")
    off_simplex = (values < 0.0).any(axis=2) | (np.abs(values.sum(axis=2) - 1.0) > 1e-9)
    if off_simplex.any():
        i = np.nonzero(off_simplex.any(axis=0))[0][0]
        raise DataError(f"head {i} rows are not probability vectors")


# entries that break a probability row, or (0.0, -0.0) keep it one
ODD_ENTRY = st.sampled_from([np.nan, np.inf, -np.inf, -1e-300, -0.25, -0.0, 0.0, 1.5, 1e308])
# row scales that keep the sum within 1e-9 of 1, or take it out
ROW_SCALE = st.sampled_from([1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 1e-8, 1.0 - 1e-8, 0.5, 2.0])


@st.composite
def head_output_arrays(draw):
    """(N, m, C) softmax rows, N possibly 0, with a few rows damaged: an odd
    entry, a scaled row, or mass moved between two entries, which keeps the
    sum near 1 and can leave an entry at exactly 0 or below it."""
    n, m, c = draw(st.integers(0, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    values = softmax_in_place(RngStream(draw(st.integers(0, 2**32))).standard_normal((n, m, c)))
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        row = values[draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))]
        a, b = draw(st.integers(0, c - 1)), draw(st.integers(0, c - 1))
        damage = draw(st.sampled_from(["entry", "scale", "move"]))
        if damage == "entry":
            row[a] = draw(ODD_ENTRY)
        elif damage == "scale":
            row *= draw(ROW_SCALE)
        elif a != b:
            moved = draw(st.sampled_from([row[b], 1.0, 1e-3]))
            row[a] += moved
            row[b] -= moved
    return values


class TestOnePassCheck:
    """check_probabilities (which HeadOutputs runs) checks each row block in
    one pass (a min and the row sums) and must accept and reject float64
    blocks exactly as the two-pass check does."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # sums that overflow, inf - inf
    @settings(max_examples=400, deadline=None)
    @given(values=head_output_arrays(), block_rows=st.integers(1, 4))
    def test_same_arrays_pass_and_failures_read_the_same(self, values, block_rows):
        try:
            two_pass_check(values)
            expected = None
        except DataError as exc:
            expected = str(exc)
        row_bytes = values.shape[1] * values.shape[2] * 8
        with mock.patch.object(numerics_module, "BLOCK_BYTES", block_rows * row_bytes):
            if expected is None:
                check_probabilities(values)
                assert np.array_equal(HeadOutputs(values).values, values.astype(DTYPE))
            else:
                for check in (check_probabilities, HeadOutputs):
                    with pytest.raises(DataError) as exc:
                        check(values)
                    assert str(exc.value) == expected

    def test_empty_outputs_pass(self):
        values = np.empty((0, 2, 3))
        with pytest.raises(ValueError):
            values.min()  # why the check's min starts from an initial 0
        assert HeadOutputs(values).n == 0


class TestOneArrayLayout:
    """The (N, m, C) array must feed every consumer the operands that the
    list of m (N, C) matrices fed it, so that results stay bit-identical."""

    def per_head(self, m=5, n=300, c=40, seed=4, dtype=DTYPE):
        stream = RngStream(seed)
        return [softmax(3.0 * stream.standard_normal((n, c))).astype(dtype) for _ in range(m)]

    def test_batch_gather_equals_per_head_gather_then_concatenate(self):
        per_head = self.per_head()
        outputs = head_outputs(per_head)
        batch = RngStream(1).permutation(300)[:128]
        expect = np.concatenate([p[batch] for p in per_head], axis=1)
        batch_outputs = HeadOutputs.unchecked(outputs.values[batch])
        assert np.array_equal(batch_outputs.concatenated(), expect)
        expect = np.stack([p[batch] for p in per_head])
        assert np.array_equal(batch_outputs.stacked(), expect)

    def test_views_share_the_array(self):
        outputs = head_outputs(self.per_head())
        assert np.shares_memory(outputs.concatenated(), outputs.values)
        assert np.shares_memory(outputs.stacked(), outputs.values)

    def test_slpc_forward_and_gradients_equal_contiguous_stack(self):
        per_head = self.per_head()
        outputs = head_outputs(per_head)
        labels = RngStream(2).integers(0, 40, 300)
        meta = build_metamodel("SLpC", 5, 40, seed=3)
        (w, b), = meta.layers
        stacked = np.stack(per_head)  # the contiguous (m, N, C) copy stacked() used to return
        logits = np.einsum("cm,mnc->nc", w, stacked) + b
        assert np.array_equal(metamodel_forward(meta, outputs), logits)
        _, dz = _softmax_ce_grad(logits, labels)
        _, [(d_w, d_b)] = metamodel_gradients(meta, outputs, labels)
        assert np.array_equal(d_w, np.einsum("nc,mnc->cm", dz, stacked))
        assert np.array_equal(d_b, dz.sum(axis=0))

    def test_mean_over_heads_equals_list_reference(self):
        per_head = self.per_head(m=7, n=50, c=9, dtype=np.float64)
        expect = per_head[0].copy()
        for values in per_head[1:]:
            expect += values
        expect /= 7
        assert np.array_equal(_mean_over_heads(stacked_probs(per_head)), expect)


@st.composite
def head_cells(draw):
    """(N, m) or (N, m, C) finite arrays, m from 1 to 17, whose entries come
    from a short drawn pool, so cells repeat values and hold zeros."""
    m = draw(st.integers(1, 17))
    shape = (draw(st.integers(1, 5)), m) + draw(st.sampled_from([(), (1,), (3,)]))
    pool = draw(
        st.lists(
            st.sampled_from([0.0, 1.0, 0.1, 0.2, 1e-300, 5e-324])
            | st.floats(-1e3, 1e3, allow_subnormal=True),
            min_size=1,
            max_size=6,
        )
    )
    # -0.0 + 0.0 is 0.0: a cell mixing 0.0 and -0.0 may sum to either sign
    return draw(arrays(np.float64, shape, elements=st.sampled_from(pool))) + 0.0


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


class TestHeadOrderMean:
    """_mean_over_heads adds the head columns one at a time in head order."""

    @settings(max_examples=300, deadline=None)
    @given(values=head_cells())
    def test_each_cell_is_its_own_head_order_sum(self, values):
        # a cell's bits depend on its own m values only, never on how many
        # cells share the call, where numpy's sum over the axis adds pairwise
        # when there is a single cell
        mean = _mean_over_heads(values)
        for n in range(len(values)):
            assert np.array_equal(bits(_mean_over_heads(values[n : n + 1])[0]), bits(mean[n]))
            expect = values[n, 0].copy()
            for i in range(1, values.shape[1]):
                expect += values[n, i]
            assert np.array_equal(bits(expect / values.shape[1]), bits(mean[n]))

    def test_head_order_moves_a_mean_by_rounding_only(self):
        # the sum rounds in head order, so permuting the heads may move a
        # mean's last bits: each order's m - 1 adds and one divide round by
        # at most (m - 1 + 1) * 2**-53 of the mean, so two orders of
        # non-negative values differ by at most m * 2**-52 of it. A vote tie
        # between two means that close can go either way.
        values = random_probs(RngStream(11), 5, 400, 10)
        mean = _mean_over_heads(values)
        moved = _mean_over_heads(values[:, ::-1])
        assert not np.array_equal(mean, moved)
        np.testing.assert_allclose(moved, mean, rtol=5 * 2.0**-52, atol=0)

    @pytest.mark.parametrize("m", range(1, 14))
    def test_head_permutations_stay_within_the_rounding_bound(self, m):
        # one or two heads add commutatively, so any order gives the same
        # bits; from three heads on an order moves a mean by rounding only,
        # within the m * 2**-52 of the test above
        stream = RngStream(m)
        values = random_probs(stream, m, 300, 6)
        mean = _mean_over_heads(values)
        orders = [np.arange(m)[::-1]] + [stream.permutation(m) for _ in range(4)]
        moved = [_mean_over_heads(values[:, order]) for order in orders]
        for other in moved:
            if m <= 2:
                assert np.array_equal(bits(other), bits(mean))
            else:
                np.testing.assert_allclose(other, mean, rtol=m * 2.0**-52, atol=0)
        if m > 2:
            assert any(not np.array_equal(other, mean) for other in moved)

    def test_input_left_untouched(self):
        values = np.array([[[0.7, 0.3], [0.1, 0.9], [0.4, 0.6]]])
        before = values.copy()
        _mean_over_heads(values)
        assert np.array_equal(values, before)


class TestCombineAverage:
    """combine_average predicts the argmax and max of _mean_over_heads."""

    def test_identical_heads_idempotent(self):
        stream = RngStream(1)
        probs = softmax(stream.standard_normal((4, 3)))
        values = stacked_probs([probs.copy() for _ in range(4)])
        assert np.allclose(_mean_over_heads(values), probs, atol=1e-15)
        pred = combine_average(values, [0, 1, 2, 0])
        assert np.array_equal(pred.predicted_class, probs.argmax(axis=1))
        assert np.allclose(pred.confidence, probs.max(axis=1), atol=1e-15)

    def test_opposite_heads_tie_to_lowest_index(self):
        values = stacked_probs([np.asarray([[1.0, 0.0]]), np.asarray([[0.0, 1.0]])])
        assert np.array_equal(_mean_over_heads(values), [[0.5, 0.5]])
        pred = combine_average(values, [1])
        assert pred.predicted_class[0] == 0 and pred.confidence[0] == 0.5

    def test_matches_elementwise_mean_oracle(self):
        stream = RngStream(7)
        heads = random_probs(stream, 3, 10, 4)
        labels = stream.integers(0, 4, 10)
        expect = (heads[:, 0] + heads[:, 1] + heads[:, 2]) / 3
        assert np.allclose(_mean_over_heads(heads), expect, atol=1e-12)
        pred = combine_average(heads, labels)
        assert np.array_equal(pred.predicted_class, expect.argmax(axis=1))
        assert np.allclose(pred.confidence, expect.max(axis=1), atol=1e-12)

    def test_rows_remain_probability_vectors(self):
        values = random_probs(RngStream(9), 5, 50, 6)
        assert np.allclose(_mean_over_heads(values).sum(axis=1), 1.0, atol=1e-12)


def vote_reference(values):
    """combine_vote as written before it took the head classes and averaged
    only rows whose top count is shared, kept as the oracle it must match:
    (winner, confidence)."""
    n, _, c = values.shape
    rows = np.arange(n)
    votes = np.argmax(values, axis=2)
    cells = (rows[:, None] * c + votes).ravel()
    counts = np.bincount(cells, minlength=n * c).reshape(n, c)
    tied = counts == counts.max(axis=1, keepdims=True)
    mean_probs = np.zeros((n, c))
    mean_probs[tied] = _mean_over_heads(values.transpose(0, 2, 1)[tied])
    winner = np.argmax(np.where(tied, mean_probs, -1.0), axis=1)
    return winner, mean_probs[rows, winner]


def half_ulp_tie(ulps):
    """Two heads over 20 classes that split their votes between classes 0
    and 1, where class 1's mean exceeds class 0's by less than half an ulp
    of 1.0."""
    c, high = 20, 0.1
    for _ in range(ulps):
        high = np.nextafter(high, 1.0)
    h0 = np.full(c, 0.85 / (c - 2))
    h0[:2] = 0.1, 0.05
    h1 = np.full(c, (0.95 - high) / (c - 2))
    h1[:2] = 0.05, high
    return stacked_probs([h0[None], h1[None]])


@st.composite
def tied_vote_blocks(draw):
    """Checked (N, m, C) probabilities whose heads vote among a few classes, so top counts are
    often shared two or more ways; in some rows head 1 holds head 0's
    probabilities in reverse class order, so the classes they vote for can
    also tie exactly on their means."""
    stream = RngStream(draw(st.integers(0, 2**32)))
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 40))
    c = draw(st.sampled_from([2, 3, 5, 10, 40]))
    choices = draw(st.integers(1, min(c, 4)))
    logits = stream.standard_normal((n, m, c))
    votes = stream.integers(0, choices, (n, m))
    np.put_along_axis(logits, votes[:, :, None], logits.max(axis=2, keepdims=True) + 1.0, axis=2)
    values = softmax_in_place(logits)
    if m >= 2:
        mirrored = stream.random(n) < 0.3
        values[mirrored, 1] = values[mirrored, 0, ::-1]
    check_probabilities(values)
    return values


class TestCombineVoteOracle:
    """combine_vote equals vote_reference bit for bit, with the head classes
    passed in (as evaluate does) and without."""

    @staticmethod
    def assert_matches_reference(values):
        winner, confidence = vote_reference(values)
        labels = np.zeros(len(values), dtype=np.int64)
        for pred in (
            combine_vote(values, labels),
            combine_vote(values, labels, np.argmax(values, axis=2)),
        ):
            assert np.array_equal(pred.predicted_class, winner)
            assert np.array_equal(bits(pred.confidence), bits(confidence))

    @settings(max_examples=300, deadline=None)
    @given(values=tied_vote_blocks())
    def test_tied_blocks_match_the_reference(self, values):
        self.assert_matches_reference(values)

    @pytest.mark.parametrize("ulps", range(3, 8))
    def test_half_ulp_tie_matches_the_reference(self, ulps):
        self.assert_matches_reference(half_ulp_tie(ulps))


class TestCombineVote:
    def test_strict_majority(self):
        # head argmaxes {2, 2, 5} -> class 2
        rows = [np.zeros((1, 6)) for _ in range(3)]
        for row, cls in zip(rows, [2, 2, 5]):
            row[0, cls] = 1.0
        pred = combine_vote(stacked_probs(rows), [0])
        assert pred.predicted_class[0] == 2

    def test_tie_broken_by_mean_confidence(self):
        h1 = np.asarray([[0.9, 0.1]])
        h2 = np.asarray([[0.4, 0.6]])
        pred = combine_vote(stacked_probs([h1, h2]), [0])
        assert pred.predicted_class[0] == 0  # the 0.9 class wins
        assert pred.confidence[0] == pytest.approx(0.65, abs=1e-15)

    @pytest.mark.parametrize("ulps", range(3, 8))
    def test_tie_goes_to_the_higher_mean_however_close(self, ulps):
        # a tie score of 1 + mean would round both means to one value
        values = half_ulp_tie(ulps)
        mean = _mean_over_heads(values)[0]
        assert mean[1] > mean[0] and 1.0 + mean[1] == 1.0 + mean[0]
        pred = combine_vote(values, [0])
        assert pred.predicted_class[0] == 1
        assert pred.confidence[0] == mean[1]

    def test_remaining_tie_goes_to_lowest_index(self):
        h1 = np.asarray([[0.7, 0.3]])
        h2 = np.asarray([[0.3, 0.7]])
        pred = combine_vote(stacked_probs([h1, h2]), [0])
        assert pred.predicted_class[0] == 0

    @pytest.mark.parametrize("m", [3, 9, 12])
    def test_unanimous_vote_confidence_equals_average(self, m):
        # vote averages only the tied cells, averaging every cell; a lone
        # tied cell must get the bits that the full mean gives it
        stream = RngStream(m)
        for n in [1] * 20 + [6]:
            logits = stream.standard_normal((m, n, 4))
            logits[:, :, 2] = logits.max(axis=2) + 1.0  # every head votes class 2
            values = stacked_probs([softmax(x) for x in logits])
            vote, avg = combine_vote(values, [0] * n), combine_average(values, [0] * n)
            assert np.array_equal(vote.predicted_class, avg.predicted_class)
            assert np.array_equal(vote.confidence, avg.confidence)

    def test_single_head_equals_argmax(self):
        stream = RngStream(3)
        probs = softmax(stream.standard_normal((8, 4)))
        labels = stream.integers(0, 4, 8)
        pred = combine_vote(stacked_probs([probs]), labels)
        assert np.array_equal(pred.predicted_class, np.argmax(probs, axis=1))
        assert np.allclose(pred.confidence, np.max(probs, axis=1), atol=1e-15)


class TestHeadPermutation:
    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_average_and_vote_agree_under_head_permutation(self, seed):
        # the classes are the same, and a confidence moves by rounding only
        # (see TestHeadOrderMean): only a tie between means that close could
        # flip a class
        stream = RngStream(seed)
        m = int(stream.integers(2, 7))
        values = random_probs(stream, m, 20, 5)
        labels = stream.integers(0, 5, 20)
        perm = stream.permutation(m)
        shuffled = values[:, perm]
        for combine in (combine_average, combine_vote):
            a = combine(values, labels)
            b = combine(shuffled, labels)
            assert np.array_equal(a.predicted_class, b.predicted_class)
            np.testing.assert_allclose(b.confidence, a.confidence, rtol=m * 2.0**-52, atol=0)


class TestBuildMetamodel:
    def test_param_counts_match_formulas(self):
        assert param_count("SLpC", 5, 100) == 600
        assert param_count("SL", 5, 100) == 50_100
        assert param_count("DLL", 5, 100) == 300_600
        # DL at m=5, C=100: h=250; 250*500 + 250 + 250*100 + 100
        assert hidden_width("DL", 5, 100) == 250
        assert param_count("DL", 5, 100) == 250 * 500 + 250 + 250 * 100 + 100

    @pytest.mark.parametrize("kind", KINDS)
    def test_built_params_match_count(self, kind):
        meta = build_metamodel(kind, 3, 7, seed=5)
        assert meta.param_count == param_count(kind, 3, 7)

    @pytest.mark.parametrize("kind", KINDS)
    def test_deterministic(self, kind):
        a = build_metamodel(kind, 3, 4, seed=11)
        b = build_metamodel(kind, 3, 4, seed=11)
        for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)

    def test_init_respects_fan_in_bound(self):
        meta = build_metamodel("SL", 4, 25, seed=2)
        bound = 1.0 / np.sqrt(4 * 25)
        w, b = meta.layers[0]
        assert np.all(np.abs(w) <= bound)
        assert np.all(np.abs(b) <= bound)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_metamodel("XXL", 3, 4, seed=0)

    def test_hidden_widths(self):
        assert hidden_width("DL", 3, 5) == 8  # ceil(15 / 2)
        assert hidden_width("DLL", 3, 5) == 15
        assert hidden_width("SL", 3, 5) == 0


class TestMetamodelForward:
    def test_sl_zero_weights_yield_bias(self):
        meta = build_metamodel("SL", 2, 3, seed=1)
        meta.layers = [(np.zeros((3, 6)), np.asarray([1.0, -1.0, 0.5]))]
        outputs = random_outputs(RngStream(2), 2, 4, 3)
        logits = metamodel_forward(meta, outputs)
        assert np.array_equal(logits, np.tile([1.0, -1.0, 0.5], (4, 1)))

    def test_slpc_uniform_weights_recover_averaging(self):
        m, c = 4, 5
        meta = build_metamodel("SLpC", m, c, seed=1)
        meta.layers = [(np.full((c, m), 1.0 / m), np.zeros(c))]
        outputs = random_outputs(RngStream(3), m, 12, c)
        logits = metamodel_forward(meta, outputs)
        expect = np.mean(outputs.stacked(), axis=0)
        assert np.allclose(logits, expect, atol=1e-12)

    def test_dl_matches_hand_composed_oracle(self):
        meta = build_metamodel("DL", 2, 2, seed=6)
        outputs = random_outputs(RngStream(8), 2, 5, 2)
        (w1, b1), (w2, b2) = meta.layers
        x = outputs.concatenated()
        expect = np.maximum(x @ w1.T + b1, 0.0) @ w2.T + b2
        assert np.allclose(metamodel_forward(meta, outputs), expect, atol=1e-12)

    def test_shape_mismatch(self):
        meta = build_metamodel("SL", 3, 4, seed=0)
        outputs = random_outputs(RngStream(5), 2, 6, 4)
        with pytest.raises(DimensionError):
            metamodel_forward(meta, outputs)


def float64_copy(meta, outputs):
    """The model and outputs widened to float64 (exactly), wrapped without
    the HeadOutputs cast: the kernels then run in float64, as the central
    differences at h = 1e-5 need."""
    layers = [(w.astype(np.float64), b.astype(np.float64)) for w, b in meta.layers]
    wide = replace(meta, layers=layers)
    return wide, HeadOutputs.unchecked(outputs.values.astype(np.float64))


class TestGradients:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_finite_differences(self, kind):
        stream = RngStream(42)
        outputs = random_outputs(stream, 3, 9, 4)
        labels = stream.integers(0, 4, 9)
        meta, outputs = float64_copy(build_metamodel(kind, 3, 4, seed=17), outputs)
        _, analytic = metamodel_gradients(meta, outputs, labels)
        params = [arr for pair in meta.layers for arr in pair]
        loss_fn = lambda: metamodel_gradients(meta, outputs, labels)[0]
        numeric = finite_difference_grads(loss_fn, params)
        flat_analytic = [g for pair in analytic for g in pair]
        for a, n in zip(flat_analytic, numeric):
            assert relative_error(a, n) <= 1e-4

    @pytest.mark.parametrize("kind", KINDS)
    def test_float32_agrees_with_float64(self, kind):
        # the same operands in float32 and widened to float64: every gradient
        # within a relative error of 1e-5 (float32 rounds at 6e-8), and the
        # two losses, both float64, within 1e-6
        stream = RngStream(43)
        outputs = random_outputs(stream, 4, 200, 10)
        labels = stream.integers(0, 10, 200)
        meta = build_metamodel(kind, 4, 10, seed=18)
        mask = None
        if meta.hidden:
            mask = dropout_mask((200, meta.hidden), 0.5, RngStream(1))
        loss, grads = metamodel_gradients(meta, outputs, labels, mask)
        wide_meta, wide_outputs = float64_copy(meta, outputs)
        wide_mask = None if mask is None else mask.astype(np.float64)
        wide_loss, wide_grads = metamodel_gradients(wide_meta, wide_outputs, labels, wide_mask)
        assert type(loss) is float and loss == pytest.approx(wide_loss, rel=1e-6)
        for pair, wide_pair in zip(grads, wide_grads):
            for g, wide_g in zip(pair, wide_pair):
                assert wide_g.dtype == np.float64
                assert relative_error(g, wide_g) <= 1e-5


class TestFloat32Throughout:
    """No float64 array may enter a combiner product: numpy would promote it
    silently and run the float64 GEMM. Every array out of a DTYPE model on
    DTYPE outputs must be DTYPE."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_forward_and_gradients_stay_float32(self, kind):
        stream = RngStream(44)
        outputs = random_outputs(stream, 3, 64, 5)
        labels = stream.integers(0, 5, 64)
        meta = build_metamodel(kind, 3, 5, seed=19)
        assert all(a.dtype == DTYPE for pair in meta.layers for a in pair)
        assert outputs.values.dtype == DTYPE
        assert metamodel_forward(meta, outputs).dtype == DTYPE
        mask = None
        if meta.hidden:
            mask = dropout_mask((64, meta.hidden), 0.5, RngStream(2))
            assert mask.dtype == DTYPE
        for m in (None, mask):
            loss, grads = metamodel_gradients(meta, outputs, labels, m)
            assert type(loss) is float
            assert [g.dtype for pair in grads for g in pair] == [DTYPE] * 2 * len(meta.layers)
        assert combine_metamodel(meta, outputs, labels).confidence.dtype == np.float64

    @pytest.mark.parametrize("kind", KINDS)
    def test_trained_and_loaded_layers_are_float32(self, kind, tmp_path):
        stream = RngStream(45)
        train, val = random_outputs(stream, 2, 60, 3), random_outputs(stream, 2, 20, 3)
        meta = build_metamodel(kind, 2, 3, seed=20)
        trained = train_metamodel(
            meta, train, stream.integers(0, 3, 60), val, stream.integers(0, 3, 20),
            MetaTrainConfig(epochs=2, batch_size=16),
        )
        assert all(a.dtype == DTYPE for pair in trained.layers for a in pair)
        save_metamodel(trained, tmp_path / "m.mmd")
        loaded = load_metamodel(tmp_path / "m.mmd")
        for pair, loaded_pair in zip(trained.layers, loaded.layers):
            for a, b in zip(pair, loaded_pair):
                assert b.dtype == DTYPE and b.flags.writeable
                assert np.array_equal(a, b)


def informative_outputs(stream, m, n, c, labels):
    """Heads that lean toward the true label, softened with noise."""
    one_hot = np.eye(c)[labels]
    return head_outputs(
        [softmax(stream.standard_normal((n, c)) + 2.0 * one_hot) for _ in range(m)]
    )


class TestTrainMetamodel:
    def make_problem(self, seed=0, m=3, c=4, n_train=120, n_val=40):
        stream = RngStream(seed)
        train_labels = stream.integers(0, c, n_train)
        val_labels = stream.integers(0, c, n_val)
        train_outputs = informative_outputs(stream, m, n_train, c, train_labels)
        val_outputs = informative_outputs(stream, m, n_val, c, val_labels)
        return train_outputs, train_labels, val_outputs, val_labels

    def test_single_epoch_history(self):
        tr_out, tr_y, va_out, va_y = self.make_problem()
        meta = build_metamodel("SL", 3, 4, seed=9)
        trained = train_metamodel(meta, tr_out, tr_y, va_out, va_y, MetaTrainConfig(epochs=1))
        assert len(trained.training_history) == 1

    def test_slpc_from_averaging_point_never_validates_worse(self):
        tr_out, tr_y, va_out, va_y = self.make_problem(seed=2)
        meta = build_metamodel("SLpC", 3, 4, seed=9)
        meta.layers = [(np.full((4, 3), 1.0 / 3.0), np.zeros(4))]
        initial_loss = cross_entropy(softmax(metamodel_forward(meta, va_out)), va_y)
        trained = train_metamodel(meta, tr_out, tr_y, va_out, va_y, MetaTrainConfig())
        final_loss = cross_entropy(softmax(metamodel_forward(trained, va_out)), va_y)
        assert final_loss <= initial_loss

    def test_records_kept_snapshot(self):
        tr_out, tr_y, va_out, va_y = self.make_problem(seed=2)
        meta = build_metamodel("SL", 3, 4, seed=9)
        trained = train_metamodel(meta, tr_out, tr_y, va_out, va_y,
                                  MetaTrainConfig(epochs=4, lr=0.05))
        kept = cross_entropy(softmax(metamodel_forward(trained, va_out)), va_y)
        assert trained.best_val_loss == kept
        assert trained.training_history[trained.best_epoch - 1][2] == kept

    def test_bit_identical_across_runs(self):
        tr_out, tr_y, va_out, va_y = self.make_problem(seed=3)
        cfg = MetaTrainConfig(epochs=5)
        results = []
        for _ in range(2):
            meta = build_metamodel("DL", 3, 4, seed=13)
            results.append(train_metamodel(meta, tr_out, tr_y, va_out, va_y, cfg))
        for (wa, ba), (wb, bb) in zip(results[0].layers, results[1].layers):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)
        assert results[0].training_history == results[1].training_history

    def test_input_model_untouched(self):
        tr_out, tr_y, va_out, va_y = self.make_problem(seed=4)
        meta = build_metamodel("SL", 3, 4, seed=9)
        before = [(w.copy(), b.copy()) for w, b in meta.layers]
        train_metamodel(meta, tr_out, tr_y, va_out, va_y,
                        MetaTrainConfig(epochs=3, lr=0.05))
        for (w0, b0), (w1, b1) in zip(before, meta.layers):
            assert np.array_equal(w0, w1)
            assert np.array_equal(b0, b1)

    def test_higher_lr_actually_learns(self):
        tr_out, tr_y, va_out, va_y = self.make_problem(seed=6, n_train=300)
        meta = build_metamodel("SLpC", 3, 4, seed=9)
        cfg = MetaTrainConfig(epochs=30, lr=0.05)
        trained = train_metamodel(meta, tr_out, tr_y, va_out, va_y, cfg)
        pred = combine_metamodel(trained, va_out, va_y)
        baseline = combine_average(va_out.values, va_y)
        from calibens.metrics import accuracy

        assert accuracy(pred) >= accuracy(baseline) - 0.05

    @pytest.mark.parametrize("part", ["train", "val"])
    def test_label_out_of_range_rejected_before_any_step(self, monkeypatch, part):
        # the kernels index with labels unchecked (SLpC's with no other check
        # on its path), so the entry check must catch them
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(combiners_module, "fit", no_training)
        tr_out, tr_y, va_out, va_y = self.make_problem(seed=7)
        labels = (tr_y if part == "train" else va_y).copy()
        labels[17] = 4  # C = 4
        if part == "train":
            tr_y = labels
        else:
            va_y = labels
        meta = build_metamodel("SLpC", 3, 4, seed=9)
        with pytest.raises(LabelError, match="label 4 at index 17"):
            train_metamodel(meta, tr_out, tr_y, va_out, va_y, MetaTrainConfig())


def per_layer_training(meta, train_outputs, train_labels, val_outputs, val_labels, cfg):
    """train_metamodel as a per-layer, k = 1 loop: one permutation per epoch
    from the stream seeded meta.seed, dropout masks (DL/DLL) drawn from it
    after each permutation, and for each parameter in turn
    v *= momentum; v += g (+ wd * p); p -= lr * v, the rate cast to DTYPE.
    The untrained model is snapshot candidate zero, the first strictly
    lowest validation loss is kept, and the learning rate is cut after
    every plateau_patience + 1 epochs without an improvement of 1e-6.
    Returns (layers, history, best_epoch)."""
    params = [a.astype(DTYPE) for pair in meta.layers for a in pair]
    velocity = [np.zeros_like(p) for p in params]
    stream = RngStream(meta.seed)

    def model():
        return replace(meta, layers=list(zip(params[0::2], params[1::2])))

    def val_loss():
        return cross_entropy(softmax(metamodel_forward(model(), val_outputs)), val_labels)

    lr, history = cfg.lr, []
    best_val, best_epoch, best = val_loss(), 0, [p.copy() for p in params]
    best_metric, since_best = float("inf"), 0
    for epoch in range(1, cfg.epochs + 1):
        order = stream.permutation(train_outputs.n)
        total = 0.0
        for start in range(0, train_outputs.n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            mask = None
            if meta.hidden and meta.dropout_p > 0.0:
                mask = dropout_mask((len(batch), meta.hidden), meta.dropout_p, stream)
            outputs = HeadOutputs.unchecked(train_outputs.values[batch])
            loss, grads = metamodel_gradients(model(), outputs, train_labels[batch], mask)
            total += loss * len(batch)
            for p, v, g in zip(params, velocity, [g for pair in grads for g in pair]):
                v *= cfg.momentum
                if cfg.weight_decay:
                    v += g + cfg.weight_decay * p
                else:
                    v += g
                p -= DTYPE.type(lr) * v
        val = val_loss()
        history.append((epoch, total / train_outputs.n, val, lr))
        if val < best_val:
            best_val, best_epoch, best = val, epoch, [p.copy() for p in params]
        if val <= best_metric - 1e-6:
            best_metric, since_best = val, 0
            continue
        since_best += 1
        if since_best % (cfg.plateau_patience + 1) == 0:
            lr = max(lr * cfg.plateau_factor, 1e-6)
    return list(zip(best[0::2], best[1::2])), history, best_epoch


class TestTrainMetamodelBits:
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_the_per_layer_loop_bit_for_bit(self, kind, weight_decay):
        # 150 rows in batches of 32 leave a 22-row tail; at a plateau
        # patience of 1 every kind cuts its learning rate within 12 epochs
        # and keeps an epoch before the last
        stream = RngStream(50)
        train_labels, val_labels = stream.integers(0, 4, 150), stream.integers(0, 4, 40)
        train = informative_outputs(stream, 3, 150, 4, train_labels)
        val = informative_outputs(stream, 3, 40, 4, val_labels)
        meta = build_metamodel(kind, 3, 4, seed=21)
        cfg = MetaTrainConfig(epochs=12, lr=1.0, batch_size=32, plateau_patience=1,
                              weight_decay=weight_decay)
        trained = train_metamodel(meta, train, train_labels, val, val_labels, cfg)
        layers, history, best_epoch = per_layer_training(
            meta, train, train_labels, val, val_labels, cfg
        )
        assert len({rec[3] for rec in history}) > 1 and best_epoch < cfg.epochs
        assert trained.training_history == history
        assert trained.best_epoch == best_epoch
        for pair, ref_pair in zip(trained.layers, layers, strict=True):
            for a, ref in zip(pair, ref_pair):
                assert a.dtype == ref.dtype == DTYPE and a.shape == ref.shape
                assert a.tobytes() == ref.tobytes()


class TestSlpcAveragingArgmax:
    @given(st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_argmax_agreement(self, seed):
        stream = RngStream(seed)
        m = int(stream.integers(1, 6))
        c = int(stream.integers(2, 8))
        n = int(stream.integers(1, 30))
        outputs = random_outputs(stream, m, n, c)
        labels = stream.integers(0, c, n)
        meta = build_metamodel("SLpC", m, c, seed=0)
        meta.layers = [(np.full((c, m), 1.0 / m), np.zeros(c))]
        via_meta = combine_metamodel(meta, outputs, labels)
        via_avg = combine_average(outputs.values, labels)
        assert np.array_equal(via_meta.predicted_class, via_avg.predicted_class)


class TestMetamodelFile:
    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip_at_f32(self, kind, tmp_path):
        meta = build_metamodel(kind, 3, 5, seed=21, dropout_p=0.25)
        path = tmp_path / f"{kind}.mmd"
        save_metamodel(meta, path)
        loaded = load_metamodel(path)
        assert loaded.kind == kind
        assert loaded.num_heads == 3 and loaded.num_classes == 5
        assert loaded.hidden == meta.hidden
        assert loaded.seed == 21
        for (w0, b0), (w1, b1) in zip(meta.layers, loaded.layers):
            assert np.array_equal(w1, w0.astype(np.float32))
            assert np.array_equal(b1, b0.astype(np.float32))

    def test_slpc_file_size(self, tmp_path):
        m, c = 5, 100
        meta = build_metamodel("SLpC", m, c, seed=0)
        path = tmp_path / "slpc.mmd"
        save_metamodel(meta, path)
        assert path.stat().st_size == 4 + 1 + 4 + 4 + 4 + 4 + 8 + 4 * c * (m + 1)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.mmd"
        path.write_bytes(b"WHAT" + b"\x00" * 40)
        with pytest.raises(FormatError, match="magic"):
            load_metamodel(path)

    def test_unknown_kind_tag(self, tmp_path):
        meta = build_metamodel("SL", 2, 2, seed=0)
        path = tmp_path / "m.mmd"
        save_metamodel(meta, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="kind tag"):
            load_metamodel(path)

    def test_truncated(self, tmp_path):
        meta = build_metamodel("DL", 2, 3, seed=0)
        path = tmp_path / "m.mmd"
        save_metamodel(meta, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError):
            load_metamodel(path)

    @pytest.mark.parametrize("m, c, dropout, offset", [
        (0, 3, 0.0, 4), (2, 0, 0.0, 4), (2, 3, float("nan"), 17), (2, 3, 1.5, 17),
    ])
    def test_bad_header_values_rejected(self, tmp_path, m, c, dropout, offset):
        # SL headers of the right length: zero sizes, or a dropout outside [0, 1)
        path = tmp_path / "m.mmd"
        header = b"MMD1" + struct.pack("<BIIIfQ", 0, m, c, 0, dropout, 1)
        path.write_bytes(header + b"\x00" * (4 * (c * m * c + c)))
        with pytest.raises(FormatError, match="m.mmd") as exc:
            load_metamodel(path)
        assert exc.value.offset == offset
