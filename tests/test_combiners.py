import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import calibens.combiners as combiners_module
import calibens.numerics as numerics_module
from calibens.combiners import (
    KINDS,
    HeadOutputs,
    _mean_over_heads,
    _sorting_network,
    MetaTrainConfig,
    Metamodel,
    build_metamodel,
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
    relu,
    softmax,
    softmax_in_place,
)

from fixtures import head_outputs
from gradcheck import finite_difference_grads, relative_error


def random_outputs(stream, m, n, c, sharpness=1.0):
    return head_outputs([softmax(sharpness * stream.standard_normal((n, c))) for _ in range(m)])


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
        assert np.array_equal(head_outputs([a, b]).concatenated(), [[0.2, 0.8, 0.6, 0.4]])


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
    """HeadOutputs checks each row block in one pass (a min and the row sums)
    and must accept and reject exactly as the two-pass check does."""

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
                assert HeadOutputs(values).values is values
            else:
                with pytest.raises(DataError) as exc:
                    HeadOutputs(values)
                assert str(exc.value) == expected

    def test_empty_outputs_pass(self):
        values = np.empty((0, 2, 3))
        with pytest.raises(ValueError):
            values.min()  # why the check's min starts from an initial 0
        assert HeadOutputs(values).n == 0


class TestOneArrayLayout:
    """The (N, m, C) array must feed every consumer the operands that the
    list of m (N, C) matrices fed it, so that results stay bit-identical."""

    def per_head(self, m=5, n=300, c=40, seed=4):
        stream = RngStream(seed)
        return [softmax(3.0 * stream.standard_normal((n, c))) for _ in range(m)]

    def test_batch_gather_equals_per_head_gather_then_concatenate(self):
        per_head = self.per_head()
        outputs = head_outputs(per_head)
        batch = RngStream(1).permutation(300)[:128]
        expect = np.concatenate([p[batch] for p in per_head], axis=1)
        assert np.array_equal(outputs.values[batch].reshape(128, -1), expect)
        assert np.array_equal(outputs.subset(batch).concatenated(), expect)
        expect = np.stack([p[batch] for p in per_head])
        assert np.array_equal(outputs.subset(batch).stacked(), expect)

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
        per_head = self.per_head(m=7, n=50, c=9)
        ordered = np.stack(per_head)
        ordered.sort(axis=0)
        expect = ordered[0].copy()
        for values in ordered[1:]:
            expect += values
        expect /= 7
        assert np.array_equal(_mean_over_heads(head_outputs(per_head).values), expect)


def sorted_mean_reference(values):
    """_mean_over_heads as written with np.sort over the heads axis, kept as
    the reference that the sorting network must match bit for bit."""
    ordered = np.sort(values, axis=1)
    total = ordered[:, 0].copy()
    for i in range(1, ordered.shape[1]):
        total += ordered[:, i]
    return total / ordered.shape[1]


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


class TestNetworkMean:
    """_mean_over_heads orders each cell with a sorting network of
    np.minimum/np.maximum swaps instead of np.sort."""

    @settings(max_examples=300, deadline=None)
    @given(values=head_cells(), data=st.data())
    def test_equals_sorted_mean_bit_for_bit(self, values, data):
        expect = sorted_mean_reference(values)
        assert np.array_equal(bits(_mean_over_heads(values)), bits(expect))
        perm = data.draw(st.permutations(range(values.shape[1])))
        assert np.array_equal(bits(_mean_over_heads(values[:, perm])), bits(expect))

    @pytest.mark.parametrize("m", range(1, 14))
    def test_network_sorts_every_zero_one_input(self, m):
        # the 0-1 principle: a comparator network that sorts all 2^m inputs
        # of zeros and ones sorts every input
        columns = [((np.arange(2**m) >> i) & 1).astype(np.int8) for i in range(m)]
        for i, j in _sorting_network(m):
            columns[i], columns[j] = (
                np.minimum(columns[i], columns[j]),
                np.maximum(columns[i], columns[j]),
            )
        assert (np.diff(np.stack(columns, axis=1), axis=1) >= 0).all()

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
        outputs = head_outputs([probs.copy() for _ in range(4)])
        assert np.allclose(_mean_over_heads(outputs.values), probs, atol=1e-15)
        pred = combine_average(outputs, [0, 1, 2, 0])
        assert np.array_equal(pred.predicted_class, probs.argmax(axis=1))
        assert np.allclose(pred.confidence, probs.max(axis=1), atol=1e-15)

    def test_opposite_heads_tie_to_lowest_index(self):
        outputs = head_outputs([np.asarray([[1.0, 0.0]]), np.asarray([[0.0, 1.0]])])
        assert np.array_equal(_mean_over_heads(outputs.values), [[0.5, 0.5]])
        pred = combine_average(outputs, [1])
        assert pred.predicted_class[0] == 0 and pred.confidence[0] == 0.5

    def test_matches_elementwise_mean_oracle(self):
        stream = RngStream(7)
        outputs = random_outputs(stream, 3, 10, 4)
        labels = stream.integers(0, 4, 10)
        heads = outputs.values
        expect = (heads[:, 0] + heads[:, 1] + heads[:, 2]) / 3
        assert np.allclose(_mean_over_heads(heads), expect, atol=1e-12)
        pred = combine_average(outputs, labels)
        assert np.array_equal(pred.predicted_class, expect.argmax(axis=1))
        assert np.allclose(pred.confidence, expect.max(axis=1), atol=1e-12)

    def test_rows_remain_probability_vectors(self):
        outputs = random_outputs(RngStream(9), 5, 50, 6)
        assert np.allclose(_mean_over_heads(outputs.values).sum(axis=1), 1.0, atol=1e-12)


class TestCombineVote:
    def test_strict_majority(self):
        # head argmaxes {2, 2, 5} -> class 2
        rows = [np.zeros((1, 6)) for _ in range(3)]
        for row, cls in zip(rows, [2, 2, 5]):
            row[0, cls] = 1.0
        pred = combine_vote(head_outputs(rows), [0])
        assert pred.predicted_class[0] == 2

    def test_tie_broken_by_mean_confidence(self):
        h1 = np.asarray([[0.9, 0.1]])
        h2 = np.asarray([[0.4, 0.6]])
        pred = combine_vote(head_outputs([h1, h2]), [0])
        assert pred.predicted_class[0] == 0  # the 0.9 class wins
        assert pred.confidence[0] == pytest.approx(0.65, abs=1e-15)

    @pytest.mark.parametrize("ulps", range(3, 8))
    def test_tie_goes_to_the_higher_mean_however_close(self, ulps):
        # class 1's mean exceeds class 0's by less than half an ulp of 1.0,
        # so a tie score of 1 + mean would round both to one value
        c, high = 20, 0.1
        for _ in range(ulps):
            high = np.nextafter(high, 1.0)
        h0 = np.full(c, 0.85 / (c - 2))
        h0[:2] = 0.1, 0.05
        h1 = np.full(c, (0.95 - high) / (c - 2))
        h1[:2] = 0.05, high
        outputs = head_outputs([h0[None], h1[None]])
        mean = _mean_over_heads(outputs.values)[0]
        assert mean[1] > mean[0] and 1.0 + mean[1] == 1.0 + mean[0]
        pred = combine_vote(outputs, [0])
        assert pred.predicted_class[0] == 1
        assert pred.confidence[0] == mean[1]

    def test_remaining_tie_goes_to_lowest_index(self):
        h1 = np.asarray([[0.7, 0.3]])
        h2 = np.asarray([[0.3, 0.7]])
        pred = combine_vote(head_outputs([h1, h2]), [0])
        assert pred.predicted_class[0] == 0

    @pytest.mark.parametrize("m", [3, 9, 12])
    def test_unanimous_vote_confidence_equals_average(self, m):
        # vote averages only the tied cells, averaging every cell; a lone
        # tied cell must get the bits that the full mean gives it
        stream = RngStream(m)
        for n in [1] * 20 + [6]:
            logits = stream.standard_normal((m, n, 4))
            logits[:, :, 2] = logits.max(axis=2) + 1.0  # every head votes class 2
            outputs = head_outputs([softmax(x) for x in logits])
            vote, avg = combine_vote(outputs, [0] * n), combine_average(outputs, [0] * n)
            assert np.array_equal(vote.predicted_class, avg.predicted_class)
            assert np.array_equal(vote.confidence, avg.confidence)

    def test_single_head_equals_argmax(self):
        stream = RngStream(3)
        probs = softmax(stream.standard_normal((8, 4)))
        labels = stream.integers(0, 4, 8)
        pred = combine_vote(head_outputs([probs]), labels)
        assert np.array_equal(pred.predicted_class, np.argmax(probs, axis=1))
        assert np.allclose(pred.confidence, np.max(probs, axis=1), atol=1e-15)


class TestPermutationInvariance:
    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_average_and_vote_identical_under_head_permutation(self, seed):
        stream = RngStream(seed)
        m = int(stream.integers(2, 7))
        outputs = random_outputs(stream, m, 20, 5)
        labels = stream.integers(0, 5, 20)
        perm = stream.permutation(m)
        shuffled = HeadOutputs(outputs.values[:, perm])
        for combine in (combine_average, combine_vote):
            a = combine(outputs, labels)
            b = combine(shuffled, labels)
            assert np.array_equal(a.predicted_class, b.predicted_class)
            assert np.array_equal(a.confidence, b.confidence)


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
        expect = relu(x @ w1.T + b1) @ w2.T + b2
        assert np.allclose(metamodel_forward(meta, outputs), expect, atol=1e-12)

    def test_eval_mode_ignores_rng(self):
        meta = build_metamodel("DL", 2, 3, seed=4)
        outputs = random_outputs(RngStream(5), 2, 6, 3)
        a = metamodel_forward(meta, outputs)
        b = metamodel_forward(meta, outputs, rng=RngStream(99))
        assert np.array_equal(a, b)

    def test_training_mode_dropout_changes_output(self):
        meta = build_metamodel("DL", 2, 3, seed=4)
        outputs = random_outputs(RngStream(5), 2, 6, 3)
        evaluated = metamodel_forward(meta, outputs)
        trained = metamodel_forward(meta, outputs, training_mode=True, rng=RngStream(1))
        assert not np.array_equal(evaluated, trained)

    def test_training_mode_requires_rng(self):
        meta = build_metamodel("DLL", 2, 3, seed=4)
        outputs = random_outputs(RngStream(5), 2, 6, 3)
        with pytest.raises(ConfigError):
            metamodel_forward(meta, outputs, training_mode=True)

    def test_shape_mismatch(self):
        meta = build_metamodel("SL", 3, 4, seed=0)
        outputs = random_outputs(RngStream(5), 2, 6, 4)
        with pytest.raises(DimensionError):
            metamodel_forward(meta, outputs)


class TestGradients:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_finite_differences(self, kind):
        stream = RngStream(42)
        outputs = random_outputs(stream, 3, 9, 4)
        labels = stream.integers(0, 4, 9)
        meta = build_metamodel(kind, 3, 4, seed=17)
        _, analytic = metamodel_gradients(meta, outputs, labels)
        params = [arr for pair in meta.layers for arr in pair]
        loss_fn = lambda: metamodel_gradients(meta, outputs, labels)[0]
        numeric = finite_difference_grads(loss_fn, params)
        flat_analytic = [g for pair in analytic for g in pair]
        for a, n in zip(flat_analytic, numeric):
            assert relative_error(a, n) <= 1e-4


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
        meta = build_metamodel("SL", 3, 4, seed=5)
        trained = train_metamodel(meta, tr_out, tr_y, va_out, va_y, MetaTrainConfig(epochs=1, seed=9))
        assert len(trained.training_history) == 1

    def test_slpc_from_averaging_point_never_validates_worse(self):
        tr_out, tr_y, va_out, va_y = self.make_problem(seed=2)
        meta = build_metamodel("SLpC", 3, 4, seed=5)
        meta.layers = [(np.full((4, 3), 1.0 / 3.0), np.zeros(4))]
        initial_loss = cross_entropy(softmax(metamodel_forward(meta, va_out)), va_y)
        trained = train_metamodel(meta, tr_out, tr_y, va_out, va_y, MetaTrainConfig(seed=9))
        final_loss = cross_entropy(softmax(metamodel_forward(trained, va_out)), va_y)
        assert final_loss <= initial_loss

    def test_records_kept_snapshot(self):
        tr_out, tr_y, va_out, va_y = self.make_problem(seed=2)
        meta = build_metamodel("SL", 3, 4, seed=5)
        trained = train_metamodel(meta, tr_out, tr_y, va_out, va_y,
                                  MetaTrainConfig(epochs=4, lr=0.05, seed=9))
        kept = cross_entropy(softmax(metamodel_forward(trained, va_out)), va_y)
        assert trained.best_val_loss == kept
        assert trained.training_history[trained.best_epoch - 1][2] == kept

    def test_bit_identical_across_runs(self):
        tr_out, tr_y, va_out, va_y = self.make_problem(seed=3)
        cfg = MetaTrainConfig(epochs=5, seed=13)
        results = []
        for _ in range(2):
            meta = build_metamodel("DL", 3, 4, seed=5)
            results.append(train_metamodel(meta, tr_out, tr_y, va_out, va_y, cfg))
        for (wa, ba), (wb, bb) in zip(results[0].layers, results[1].layers):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)
        assert results[0].training_history == results[1].training_history

    def test_input_model_untouched(self):
        tr_out, tr_y, va_out, va_y = self.make_problem(seed=4)
        meta = build_metamodel("SL", 3, 4, seed=5)
        before = [(w.copy(), b.copy()) for w, b in meta.layers]
        train_metamodel(meta, tr_out, tr_y, va_out, va_y,
                        MetaTrainConfig(epochs=3, lr=0.05, seed=9))
        for (w0, b0), (w1, b1) in zip(before, meta.layers):
            assert np.array_equal(w0, w1)
            assert np.array_equal(b0, b1)

    def test_higher_lr_actually_learns(self):
        tr_out, tr_y, va_out, va_y = self.make_problem(seed=6, n_train=300)
        meta = build_metamodel("SLpC", 3, 4, seed=5)
        cfg = MetaTrainConfig(epochs=30, lr=0.05, seed=9)
        trained = train_metamodel(meta, tr_out, tr_y, va_out, va_y, cfg)
        pred = combine_metamodel(trained, va_out, va_y)
        baseline = combine_average(va_out, va_y)
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
        meta = build_metamodel("SLpC", 3, 4, seed=5)
        with pytest.raises(LabelError, match="label 4 at index 17"):
            train_metamodel(meta, tr_out, tr_y, va_out, va_y, MetaTrainConfig(seed=9))


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
        via_avg = combine_average(outputs, labels)
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
