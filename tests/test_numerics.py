import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calibens.combiners import MetaTrainConfig
from calibens.errors import ConfigError, DataError, DimensionError, TrainingError
from calibens.heads import HeadTrainConfig
from calibens.numerics import (
    RngStream,
    SgdState,
    backward_linear,
    backward_mlp,
    cross_entropy,
    derive_seed,
    dropout_mask,
    first_non_finite,
    fit,
    linear_forward,
    relu,
    require_finite,
    row_blocks,
    sgd_step,
    softmax,
)

from gradcheck import finite_difference_grads, relative_error


class TestFiniteScan:
    """The row-block scan names the entry a whole-array argwhere names."""

    # f64 in 1 MiB blocks: 131072 values, 8192 rows of 16 or 21845 rows of 2x3
    SHAPES = [(1,), (300_000,), (3, 4), (40_000, 16), (50_000, 2, 3)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("where", ["first block", "last block"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_index_equals_the_whole_array_argwhere(self, shape, where, bad):
        values = np.zeros(shape)
        flat = values.reshape(-1)
        at = min(1, flat.size - 1) if where == "first block" else max(0, flat.size - 2)
        flat[at] = bad
        if at < flat.size - 1:
            flat[-1] = np.nan  # a later fault must not be the one named
        if flat.size > 1000:
            assert len(row_blocks(len(values), values[0].nbytes)) >= 3
        expect = np.argwhere(~np.isfinite(values))[0]
        assert first_non_finite(values) == tuple(int(i) for i in expect)
        index = ", ".join(str(int(i)) for i in expect)
        with pytest.raises(DataError, match=rf"^x holds a non-finite value at index \[{index}\]$"):
            require_finite(values, "x")

    @pytest.mark.parametrize("shape", [(), (0,), (0, 5), (5, 0), (300_000,)])
    def test_finite_input_passes(self, shape):
        assert first_non_finite(np.ones(shape)) is None
        require_finite(np.ones(shape), "x")

    def test_zero_dimensional_input_names_the_empty_index(self):
        assert first_non_finite(np.array(np.inf)) == ()


class TestLinearForward:
    def test_zero_weights_pass_bias_through(self):
        out = linear_forward([[1.0, 2.0]], [[0.0, 0.0], [0.0, 0.0]], [3.0, 4.0])
        assert np.array_equal(out, [[3.0, 4.0]])

    def test_identity(self):
        eye = np.eye(2)
        assert np.array_equal(linear_forward(eye, eye, [0.0, 0.0]), eye)

    def test_hand_dot_product(self):
        # [1,-1] . [2,3] + 0.5 = -0.5 ; [1,-1] . [-1,0] + 0.5 = -0.5
        out = linear_forward([[1.0, -1.0]], [[2.0, 3.0], [-1.0, 0.0]], [0.5, 0.5])
        assert np.allclose(out, [[-0.5, -0.5]], atol=1e-15)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(1, 3\).*\(2, 2\)"):
            linear_forward(np.ones((1, 3)), np.ones((2, 2)), np.zeros(2))


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax([[0.0, 0.0, 0.0]]), [[1 / 3] * 3], atol=1e-15)

    def test_saturation_no_overflow(self):
        out = softmax([[1000.0, 0.0]])
        assert np.all(np.isfinite(out))
        assert np.allclose(out, [[1.0, 0.0]], atol=1e-12)

    def test_scalar_exp_oracle(self):
        out = softmax([[1.0, 2.0]])
        expect = [math.exp(1) / (math.exp(1) + math.exp(2)),
                  math.exp(2) / (math.exp(1) + math.exp(2))]
        assert np.allclose(out, [expect], atol=1e-15)

    @given(st.lists(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
                    min_size=1, max_size=5).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    def test_rows_sum_to_one(self, rows):
        out = softmax(np.asarray(rows))
        assert np.all(out >= 0.0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)

    @given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=6),
           st.integers(-10_000, 10_000))
    def test_integer_shift_is_bitwise_invariant(self, row, shift):
        # integer-valued doubles add exactly, so max subtraction cancels the shift
        logits = np.asarray([row], dtype=np.float64)
        assert np.array_equal(softmax(logits), softmax(logits + float(shift)))

    @given(st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=6),
           st.floats(-50.0, 50.0))
    def test_float_shift_invariance_within_tolerance(self, row, shift):
        logits = np.asarray([row], dtype=np.float64)
        assert np.allclose(softmax(logits), softmax(logits + shift), atol=1e-12)


class TestCrossEntropy:
    def test_one_hot_is_zero_up_to_clamp(self):
        probs = np.asarray([[1.0, 0.0], [0.0, 1.0]])
        assert cross_entropy(probs, [0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_four_classes(self):
        probs = np.full((3, 4), 0.25)
        assert cross_entropy(probs, [0, 1, 3]) == pytest.approx(math.log(4), abs=1e-12)

    def test_scalar_oracle(self):
        assert cross_entropy([[0.7, 0.3]], [1]) == pytest.approx(-math.log(0.3), abs=1e-15)


class TestReluDropout:
    def test_relu(self):
        assert np.array_equal(relu(np.asarray([[-1.0, 2.0]])), [[0.0, 2.0]])

    def test_dropout_p_zero_is_all_ones(self):
        mask = dropout_mask((3, 4), 0.0, RngStream(1))
        assert np.array_equal(mask, np.ones((3, 4)))

    def test_dropout_mean_is_one(self):
        # inverted scaling: E[mask] = (1-p)/(1-p) = 1
        mask = dropout_mask((100_000,), 0.5, RngStream(7))
        assert set(np.unique(mask)) <= {0.0, 2.0}
        assert abs(mask.mean() - 1.0) < 0.02

    def test_dropout_p_one_rejected(self):
        with pytest.raises(ConfigError):
            dropout_mask((2, 2), 1.0, RngStream(0))


class TestBackward:
    def test_zero_input_bias_gradient(self):
        # all logits equal the bias, so d_bias = softmax(b) - mean one-hot
        bias = np.asarray([0.3, -0.2, 0.5])
        weights = np.zeros((3, 4))
        inputs = np.zeros((6, 4))
        labels = np.asarray([0, 1, 2, 0, 1, 0])
        _, _, d_b = backward_linear(inputs, weights, bias, labels)
        one_hot_mean = np.asarray([3 / 6, 2 / 6, 1 / 6])
        expect = softmax(bias[None, :])[0] - one_hot_mean
        assert np.allclose(d_b, expect, atol=1e-12)

    def test_symmetric_point_has_zero_bias_gradient(self):
        weights = np.zeros((2, 3))
        bias = np.zeros(2)
        inputs = np.zeros((4, 3))
        labels = np.asarray([0, 1, 0, 1])  # balanced
        _, d_w, d_b = backward_linear(inputs, weights, bias, labels)
        assert np.allclose(d_b, 0.0, atol=1e-15)
        assert np.allclose(d_w, 0.0, atol=1e-15)

    def test_linear_matches_finite_differences(self):
        rng = RngStream(123)
        inputs = rng.standard_normal((11, 7))
        weights = rng.standard_normal((5, 7)) * 0.3
        bias = rng.standard_normal(5) * 0.1
        labels = rng.integers(0, 5, 11)
        _, d_w, d_b = backward_linear(inputs, weights, bias, labels)
        loss_fn = lambda: backward_linear(inputs, weights, bias, labels)[0]
        fd_w, fd_b = finite_difference_grads(loss_fn, [weights, bias])
        assert relative_error(d_w, fd_w) <= 1e-4
        assert relative_error(d_b, fd_b) <= 1e-4

    def test_mlp_matches_finite_differences(self):
        rng = RngStream(456)
        inputs = rng.standard_normal((9, 6))
        w1 = rng.standard_normal((8, 6)) * 0.4
        b1 = rng.standard_normal(8) * 0.1
        w2 = rng.standard_normal((4, 8)) * 0.4
        b2 = rng.standard_normal(4) * 0.1
        labels = rng.integers(0, 4, 9)
        _, *analytic = backward_mlp(inputs, w1, b1, w2, b2, labels)
        params = [w1, b1, w2, b2]
        loss_fn = lambda: backward_mlp(inputs, w1, b1, w2, b2, labels)[0]
        numeric = finite_difference_grads(loss_fn, params)
        for a, n in zip(analytic, numeric):
            assert relative_error(a, n) <= 1e-4

    def test_mlp_gradient_respects_dropout_mask(self):
        rng = RngStream(789)
        inputs = rng.standard_normal((5, 3))
        w1 = rng.standard_normal((6, 3)) * 0.5
        b1 = rng.standard_normal(6) * 0.1
        w2 = rng.standard_normal((2, 6)) * 0.5
        b2 = rng.standard_normal(2) * 0.1
        labels = rng.integers(0, 2, 5)
        mask = dropout_mask((5, 6), 0.5, RngStream(11))
        _, *analytic = backward_mlp(inputs, w1, b1, w2, b2, labels, mask=mask)
        params = [w1, b1, w2, b2]
        loss_fn = lambda: backward_mlp(inputs, w1, b1, w2, b2, labels, mask=mask)[0]
        numeric = finite_difference_grads(loss_fn, params)
        for a, n in zip(analytic, numeric):
            assert relative_error(a, n) <= 1e-4


class TestSgd:
    def test_plain_step(self):
        p = np.asarray([0.0])
        state = SgdState(learning_rate=0.1)
        sgd_step([p], [np.asarray([1.0])], state)
        assert p[0] == pytest.approx(-0.1, abs=1e-15)

    def test_weight_decay_only_decays_geometrically(self):
        # grad 0, momentum 0: param shrinks by (1 - lr*wd) per step
        p = np.asarray([2.0])
        state = SgdState(learning_rate=0.1, weight_decay=0.5)
        for _ in range(4):
            sgd_step([p], [np.zeros(1)], state)
        assert p[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5) ** 4, rel=1e-12)

    def test_momentum_accumulates(self):
        p = np.asarray([0.0])
        state = SgdState(learning_rate=1.0, momentum=0.9)
        sgd_step([p], [np.asarray([1.0])], state)
        sgd_step([p], [np.asarray([1.0])], state)
        assert state.velocity[0][0] == pytest.approx(1.9, abs=1e-15)

    def test_monotonic_descent_on_quadratic(self):
        # f(x) = 0.5 x^T A x with A spd; lr below 2/lambda_max descends monotonically
        rng = RngStream(99)
        basis = rng.standard_normal((4, 4))
        a = basis.T @ basis + 0.5 * np.eye(4)
        lam_max = np.linalg.eigvalsh(a)[-1]
        x = rng.standard_normal(4)
        state = SgdState(learning_rate=1.0 / lam_max)
        losses = [0.5 * x @ a @ x]
        for _ in range(50):
            sgd_step([x], [a @ x], state)
            losses.append(0.5 * x @ a @ x)
        assert all(l1 <= l0 for l0, l1 in zip(losses, losses[1:]))

    def test_shape_mismatch(self):
        p = np.zeros(2)
        state = SgdState(learning_rate=0.1)
        with pytest.raises(DimensionError):
            sgd_step([p], [np.zeros(3)], state)

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_matches_the_update_formula_bit_for_bit(self, weight_decay):
        # v <- momentum*v + (grad + wd*param); param <- param - lr*v, in that order
        stream = RngStream(5)
        p = stream.standard_normal((30, 20))
        ref_p, ref_v = p.copy(), np.zeros_like(p)
        state = SgdState(learning_rate=0.05, momentum=0.9, weight_decay=weight_decay)
        for _ in range(6):
            g = stream.standard_normal((30, 20))
            sgd_step([p], [g], state)
            ref_v = ref_v * 0.9 + (g + weight_decay * ref_p)
            ref_p = ref_p - 0.05 * ref_v
        assert np.array_equal(p, ref_p)
        assert np.array_equal(state.velocity[0], ref_v)

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_learning_rate_vector_equals_one_scalar_step_per_slice(self, weight_decay):
        stream = RngStream(6)
        rates = np.asarray([0.1, 0.05, 0.025])
        params = [stream.standard_normal((3, 4, 5)), stream.standard_normal((3, 4))]
        slices = [[p[i].copy() for p in params] for i in range(3)]
        stacked = SgdState(rates, momentum=0.9, weight_decay=weight_decay)
        alone = [SgdState(float(r), momentum=0.9, weight_decay=weight_decay) for r in rates]
        for _ in range(3):
            grads = [stream.standard_normal(p.shape) for p in params]
            sgd_step(params, grads, stacked)
            for i in range(3):
                sgd_step(slices[i], [g[i] for g in grads], alone[i])
        for i in range(3):
            for p, v, lone_p, lone_v in zip(params, stacked.velocity, slices[i], alone[i].velocity):
                assert np.array_equal(p[i], lone_p)
                assert np.array_equal(v[i], lone_v)

    def test_learning_rate_vector_must_match_the_leading_axis(self):
        with pytest.raises(DimensionError, match="learning rates"):
            sgd_step([np.zeros((3, 2))], [np.zeros((3, 2))], SgdState(np.ones(2)))


def sgd_cfg(**kw):
    base = dict(lr=0.1, momentum=0.0, weight_decay=0.0, batch_size=2,
                plateau_factor=0.5, plateau_patience=5)
    return SimpleNamespace(**(base | kw))


def scheduled_lrs(val_losses, early_stop_patience=None, **cfg):
    """The lr column of the history fit records when the validation losses
    are scripted; its length is the number of epochs run."""
    scripted = iter(val_losses)
    result, = fit([np.zeros((1, 1))], lambda params, idx: (np.zeros(1), [np.zeros((1, 1))]),
                  lambda params: np.array([next(scripted)]), sgd_cfg(**cfg), num_samples=2,
                  epochs=len(val_losses), streams=[RngStream(0)],
                  early_stop_patience=early_stop_patience)
    return [rec[3] for rec in result.history]


class TestSchedule:
    """fit's learning-rate cuts and early stop, read from FitResult.history.
    The lr of epoch e is the one set after epoch e - 1."""

    def test_improving_within_patience_keeps_lr(self):
        # improves every third epoch: 2 epochs since the best never reach 2 + 1
        losses = [1.0, 1.0, 1.0, 0.9, 0.9, 0.9, 0.8, 0.8, 0.8, 0.7]
        assert scheduled_lrs(losses, plateau_patience=2) == [0.1] * 10

    @pytest.mark.parametrize("drift", [0.0, 1e-7])
    def test_flat_losses_cut_every_patience_plus_one_epochs(self, drift):
        # nine drifts stay below the 1e-6 improvement threshold
        losses = [1.0 - drift * e for e in range(10)]
        assert scheduled_lrs(losses, plateau_patience=2) == [0.1] * 4 + [0.05] * 3 + [0.025] * 3

    def test_lr_floor(self):
        lrs = scheduled_lrs([1.0] * 20, lr=2e-6, plateau_patience=1)
        assert lrs == [2e-6] * 3 + [1e-6] * 17

    def test_improvement_after_a_cut_keeps_the_lower_lr(self):
        losses = [1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.2, 0.2, 0.2, 0.2]
        lrs = scheduled_lrs(losses, plateau_patience=1)
        assert lrs == [0.1] * 3 + [0.05] * 3 + [0.025] * 3 + [0.0125]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_stops_after_early_stop_patience_plus_one_flat_epochs(self):
        # epoch 1 sets the best; epochs 2-5 fail to improve, and 4 > 3 stops
        lrs = scheduled_lrs([1.0] * 10, early_stop_patience=3, plateau_patience=2)
        assert lrs == [0.1] * 4 + [0.05]

    def test_improvement_resets_the_count(self):
        losses = [1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]
        lrs = scheduled_lrs(losses, early_stop_patience=2, plateau_patience=1)
        assert lrs == [0.1] * 3 + [0.05] * 3 + [0.025]

    def test_cut_and_stop_share_one_count(self):
        # counts 2 and 4 cut; count 5 > 4 stops
        lrs = scheduled_lrs([1.0] * 10, early_stop_patience=4, plateau_patience=1)
        assert lrs == [0.1] * 3 + [0.05] * 2 + [0.025]


class TestSettings:
    @pytest.mark.parametrize("cls, name, value", [
        (HeadTrainConfig, "lr", 0.0),
        (MetaTrainConfig, "lr", float("nan")),
        (HeadTrainConfig, "momentum", 1.0),
        (MetaTrainConfig, "momentum", -0.1),
        (HeadTrainConfig, "weight_decay", -1.0),
        (MetaTrainConfig, "batch_size", 0),
        (HeadTrainConfig, "plateau_factor", 2.0),
        (MetaTrainConfig, "plateau_factor", 0.0),
        (HeadTrainConfig, "plateau_patience", 0),
        (HeadTrainConfig, "max_epochs", -1),
        (HeadTrainConfig, "early_stop_patience", 0),
        (MetaTrainConfig, "epochs", 0),
        (MetaTrainConfig, "dropout", 1.5),
    ])
    def test_config_rejects_setting_naming_its_flag(self, cls, name, value):
        with pytest.raises(ConfigError, match="--" + name.replace("_", "-")):
            cls(**{name: value})


class TestFit:
    """fit on a one-parameter problem whose validation losses are scripted."""

    def run(self, val_losses, epochs, **kw):
        param = np.zeros(1)
        scripted = iter(val_losses)

        def grad_fn(params, idx):
            return np.ones(1), [-np.ones((1, 1))]  # every step adds lr to the parameter

        result, = fit([param[None]], grad_fn, lambda params: np.array([next(scripted)]),
                      sgd_cfg(), num_samples=4, epochs=epochs, streams=[RngStream(0)], **kw)
        return param, result

    def test_keeps_first_lowest_epoch(self):
        param, result = self.run([3.0, 1.0, 1.0, 2.0], epochs=4)
        assert (result.best_epoch, result.best_val_loss) == (2, 1.0)
        # two steps of lr 0.1 per epoch; the kept copy is not the live parameter
        assert result.params[0][0] == pytest.approx(0.4)
        assert param[0] == pytest.approx(0.8)
        assert [rec[0] for rec in result.history] == [1, 2, 3, 4]
        assert all(rec[1] == 1.0 and rec[3] == 0.1 for rec in result.history)

    def test_untrained_candidate_wins_when_no_epoch_beats_it(self):
        _, result = self.run([2.0, 1.5, 1.0], epochs=3, initial_val_losses=np.ones(1))
        assert (result.best_epoch, result.best_val_loss) == (0, 1.0)
        assert np.array_equal(result.params[0], np.zeros(1))
        assert len(result.history) == 3

    def test_zero_epochs_keep_untrained_without_a_loss(self):
        _, result = self.run([], epochs=0)
        assert (result.history, result.best_epoch, result.best_val_loss) == ([], 0, None)
        assert np.array_equal(result.params[0], np.zeros(1))

    def test_early_stop_after_patience(self):
        _, result = self.run([1.0] * 10, epochs=10, early_stop_patience=2)
        assert len(result.history) == 4  # epoch 1 sets the best, 2-4 fail to improve

    def test_non_finite_initial_loss_names_epoch_zero(self):
        with pytest.raises(TrainingError, match="before training") as exc:
            self.run([], epochs=1, initial_val_losses=np.array([np.nan]))
        assert exc.value.epoch == 0

    def test_non_finite_val_loss_names_epoch(self):
        with pytest.raises(TrainingError, match="epoch 2"):
            self.run([1.0, float("inf")], epochs=3)

    def test_batches_walk_one_permutation_per_epoch(self):
        seen = []

        def grad_fn(params, idx):
            seen.append(idx[0].copy())
            return np.zeros(1), [np.zeros((1, 1))]

        fit([np.zeros((1, 1))], grad_fn, lambda params: np.zeros(1), sgd_cfg(batch_size=3),
            num_samples=7, epochs=2, streams=[RngStream(4)])
        reference = RngStream(4)
        assert [len(b) for b in seen] == [3, 3, 1, 3, 3, 1]
        for epoch in range(2):
            walked = np.concatenate(seen[3 * epoch : 3 * epoch + 3])
            assert np.array_equal(walked, reference.permutation(7))


class TestFitStack:
    """fit on k = 3 models at once. Column 0 of each model's parameter row
    is its index: it gets no gradient (and no weight decay), so the scripted
    losses can look up the model a row belongs to after rows are dropped."""

    # model 0 keeps improving; model 1 is flat from epoch 1, so it stops
    # after epoch 4 (early_stop_patience 2), with plateau cuts along the way;
    # model 2 improves, then goes flat and cuts its learning rate
    VAL = {0: [3.0, 2.5, 2.0, 1.5, 1.2, 1.0, 0.9, 0.8],
           1: [2.0] * 8,
           2: [4.0, 3.0, 3.0, 3.0, 2.0, 2.0, 2.0, 2.0]}

    def run(self, models, nan_at=None):
        """fit the listed models as one stack. nan_at = (what, epoch, failing)
        makes the training or validation loss of the models in `failing` NaN
        at that epoch."""
        params = [np.array([[i, 0.5 * (i + 1)] for i in models], dtype=np.float64)]
        done = [0]  # epochs finished

        def scripted(what, values, params):
            if nan_at is not None and nan_at[:2] == (what, done[0] + 1):
                values[np.isin(params[0][:, 0], nan_at[2])] = np.nan
            return values

        def grad_fn(params, idx):
            w = params[0]
            grad = np.zeros_like(w)
            grad[:, 1] = 0.5 * w[:, 1] - idx.mean(axis=1) / 5
            return scripted("training", w[:, 1] ** 2, params), [grad]

        def val_loss_fn(params):
            values = np.array([self.VAL[int(i)][done[0]] for i in params[0][:, 0]])
            values = scripted("validation", values, params)
            done[0] += 1
            return values

        return fit(params, grad_fn, val_loss_fn, sgd_cfg(momentum=0.9, plateau_patience=1),
                   num_samples=5, epochs=8, streams=[RngStream(10 + i) for i in models],
                   early_stop_patience=2)

    def test_each_model_equals_its_own_run(self):
        stacked = self.run([0, 1, 2])
        assert [len(r.history) for r in stacked] == [8, 4, 8]
        assert len({rec[3] for rec in stacked[2].history}) > 1
        for i, result in enumerate(stacked):
            alone, = self.run([i])
            assert len(result.params) == len(alone.params) == 1
            assert result.params[0].tobytes() == alone.params[0].tobytes()
            assert result.history == alone.history
            assert (result.best_epoch, result.best_val_loss) == (alone.best_epoch,
                                                                 alone.best_val_loss)

    @pytest.mark.parametrize("what", ["training", "validation"])
    @pytest.mark.parametrize("epoch, failing, model", [
        (1, [1, 2], 1),
        (1, [2], 2),
        (6, [2], 2),  # after model 1 stopped, model 2 is row 1 of the stack
        (6, [0, 2], 0),
    ])
    def test_non_finite_loss_names_the_lowest_failing_model(self, what, epoch, failing, model):
        with pytest.raises(TrainingError, match=f"non-finite {what} loss at epoch {epoch}") as exc:
            self.run([0, 1, 2], nan_at=(what, epoch, failing))
        assert (exc.value.model, exc.value.epoch) == (model, epoch)


class TestRngStream:
    def test_same_seed_bit_identical(self):
        a = RngStream(1234)
        b = RngStream(1234)
        assert np.array_equal(a.uniform(-1, 1, (5, 5)), b.uniform(-1, 1, (5, 5)))
        assert np.array_equal(a.permutation(100), b.permutation(100))
        assert np.array_equal(a.standard_normal((3,)), b.standard_normal((3,)))

    def test_derive_offsets_seed(self):
        assert derive_seed(10, 5) == 15
        assert derive_seed(2**64 - 1, 1) == 0  # wraps at 64 bits


@settings(max_examples=30)
@given(st.integers(0, 2**32), st.integers(1, 40), st.integers(1, 6))
def test_operations_deterministic_per_seed(seed, n, c):
    r1, r2 = RngStream(seed), RngStream(seed)
    logits1 = r1.standard_normal((n, c))
    logits2 = r2.standard_normal((n, c))
    assert np.array_equal(softmax(logits1), softmax(logits2))
    mask1 = dropout_mask((n, c), 0.3, r1)
    mask2 = dropout_mask((n, c), 0.3, r2)
    assert np.array_equal(mask1, mask2)
