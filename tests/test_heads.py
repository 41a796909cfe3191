import struct
from dataclasses import replace

import numpy as np
import pytest

from calibens.data import FeatureDataset, SynthSpec, split, synth_clusters
from calibens.errors import DataError, DimensionError, FormatError, TrainingError
from calibens.heads import (
    HeadTrainConfig,
    LinearHead,
    head_predict,
    init_head,
    load_head,
    save_head,
    train_head,
    train_head_family,
    train_heads_lockstep,
)
from calibens.metrics import accuracy, predictions_from_probs
from calibens.numerics import linear_forward, softmax


@pytest.fixture(scope="module")
def separable():
    ds = synth_clusters(SynthSpec(2, 2, 600, 10.0, 0.0, seed=31))
    return split(ds, 0.2, seed=2)


def quick_cfg(**kw):
    kw.setdefault("seed", 5)
    kw.setdefault("max_epochs", 40)
    return HeadTrainConfig(**kw)


class TestInitHead:
    def test_deterministic(self):
        a = init_head(3, 4, seed=9)
        b = init_head(3, 4, seed=9)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_different_seeds_differ(self):
        a = init_head(3, 4, seed=9)
        b = init_head(3, 4, seed=10)
        assert not np.array_equal(a.weights, b.weights)

    def test_uniform_bound_d4(self):
        # 2500 * 4 = 10^4 draws, all within [-1/sqrt(4), 1/sqrt(4)]
        head = init_head(4, 2500, seed=1)
        assert head.weights.size == 10_000
        assert np.all(np.abs(head.weights) <= 0.5)
        assert np.array_equal(head.bias, np.zeros(2500))

    def test_param_count(self):
        assert init_head(7, 5, seed=0).param_count == 5 * 7 + 5


class TestHeadPredict:
    def test_zero_weights_yield_bias_rows(self):
        head = LinearHead(weights=np.zeros((3, 2)), bias=np.asarray([1.0, 2.0, 3.0]), seed=0)
        out = head_predict(head, np.ones((4, 2)))
        assert np.array_equal(out, np.tile([1.0, 2.0, 3.0], (4, 1)))

    def test_matches_linear_forward(self):
        head = init_head(3, 2, seed=4)
        x = np.asarray([[0.5, -1.0, 2.0]])
        assert np.array_equal(
            head_predict(head, x), linear_forward(x, head.weights, head.bias)
        )

    def test_batch_consistency(self):
        head = init_head(3, 2, seed=4)
        batch = np.asarray([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        single = head_predict(head, batch[1:2])
        assert np.array_equal(single[0], head_predict(head, batch)[1])

    def test_width_mismatch(self):
        head = init_head(3, 2, seed=4)
        with pytest.raises(DimensionError):
            head_predict(head, np.ones((1, 5)))


class TestTrainHead:
    def test_separable_reaches_high_accuracy(self, separable):
        train, val = separable
        head = train_head(train, val, quick_cfg())
        probs = softmax(head_predict(head, val.features))
        assert accuracy(predictions_from_probs(probs, val.labels)) >= 0.99

    def test_zero_epochs_returns_init_unchanged(self, separable):
        train, val = separable
        head = train_head(train, val, quick_cfg(max_epochs=0))
        fresh = init_head(train.dim, train.num_classes, seed=5)
        assert np.array_equal(head.weights, fresh.weights)
        assert np.array_equal(head.bias, fresh.bias)
        assert head.training_history == []

    def test_bit_identical_across_runs(self, separable):
        train, val = separable
        a = train_head(train, val, quick_cfg())
        b = train_head(train, val, quick_cfg())
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
        assert a.training_history == b.training_history

    def test_history_records_every_epoch(self, separable):
        train, val = separable
        head = train_head(train, val, quick_cfg(max_epochs=7, early_stop_patience=50))
        assert [rec[0] for rec in head.training_history] == list(range(1, 8))

    def test_returned_head_is_best_val_snapshot(self, separable):
        train, val = separable
        head = train_head(train, val, quick_cfg())
        from calibens.heads import _validation_loss

        recomputed = _validation_loss(head.weights, head.bias, val)
        assert recomputed == min(rec[2] for rec in head.training_history)

    def test_records_kept_snapshot(self, separable):
        train, val = separable
        head = train_head(train, val, quick_cfg(max_epochs=10))
        losses = [rec[2] for rec in head.training_history]
        assert head.best_epoch == int(np.argmin(losses)) + 1
        assert head.best_val_loss == min(losses)

    def test_zero_epochs_keep_untrained_snapshot(self, separable):
        train, val = separable
        head = train_head(train, val, quick_cfg(max_epochs=0))
        assert (head.best_epoch, head.best_val_loss) == (0, None)

    def test_early_stop_bound(self, separable):
        train, val = separable
        patience = 4
        head = train_head(train, val, quick_cfg(max_epochs=100, early_stop_patience=patience))
        losses = [rec[2] for rec in head.training_history]
        best_epoch = int(np.argmin(losses)) + 1
        assert len(losses) <= best_epoch + patience + 1

    def test_mismatched_val_rejected(self, separable):
        train, _ = separable
        other = FeatureDataset(np.zeros((4, 5)), np.asarray([0, 1, 0, 1]), 2)
        with pytest.raises(DataError):
            train_head(train, other, quick_cfg())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_epoch(self, separable):
        train, val = separable
        with pytest.raises(TrainingError, match="epoch 1"):
            train_head(train, val, quick_cfg(lr=1e200, max_epochs=5))

    def test_dataset_not_mutated(self, separable):
        train, val = separable
        before = train.features.tobytes()
        train_head(train, val, quick_cfg(max_epochs=5))
        assert train.features.tobytes() == before


class TestHeadFamily:
    def test_m1_equals_single_train(self, separable):
        train, val = separable
        cfg = quick_cfg(max_epochs=10)
        family = train_head_family(train, val, 1, base_seed=50, cfg=cfg)
        single = train_head(train, val, replace(cfg, seed=50))
        assert np.array_equal(family[0].weights, single.weights)

    def test_members_differ(self, separable):
        train, val = separable
        family = train_head_family(train, val, 5, base_seed=50, cfg=quick_cfg(max_epochs=10))
        for i in range(5):
            for j in range(i + 1, 5):
                assert not np.array_equal(family[i].weights, family[j].weights)

    def test_seeds_are_base_plus_index(self, separable):
        train, val = separable
        family = train_head_family(train, val, 3, base_seed=50, cfg=quick_cfg(max_epochs=2))
        assert [h.seed for h in family] == [50, 51, 52]

    def test_accuracies_cluster_in_small_band(self):
        ds = synth_clusters(SynthSpec(4, 8, 1500, 8.0, 0.2, seed=40))
        train, val = split(ds, 0.2, seed=2)
        family = train_head_family(train, val, 5, base_seed=60, cfg=quick_cfg())
        accs = []
        for head in family:
            probs = softmax(head_predict(head, val.features))
            accs.append(accuracy(predictions_from_probs(probs, val.labels)))
        assert max(accs) - min(accs) <= 0.03

    def test_concurrent_equals_sequential(self, separable):
        # member i of either trainer is exactly a lone train_head run seeded base + i
        noisy = split(synth_clusters(SynthSpec(4, 8, 600, 3.0, 0.2, seed=40)), 0.2, seed=2)
        cases = [
            (separable, quick_cfg(max_epochs=8)),
            # these heads early-stop at different epochs
            (noisy, quick_cfg(max_epochs=60, early_stop_patience=3, batch_size=32)),
            # these cut their learning rates at different epochs, and weight
            # decay 0 takes sgd_step's v += g branch
            (noisy, quick_cfg(max_epochs=40, plateau_patience=1, early_stop_patience=4,
                              weight_decay=0.0, batch_size=32)),
        ]
        epochs_run, lrs = [], []
        for (train, val), cfg in cases:
            alone = [train_head(train, val, replace(cfg, seed=70 + i)) for i in range(4)]
            epochs_run.append([len(h.training_history) for h in alone])
            lrs.append([[rec[3] for rec in h.training_history] for h in alone])
            for trainer in (train_head_family, train_heads_lockstep):
                for member, lone in zip(trainer(train, val, 4, base_seed=70, cfg=cfg), alone):
                    assert np.array_equal(member.weights, lone.weights)
                    assert np.array_equal(member.bias, lone.bias)
                    assert member.training_history == lone.training_history
                    assert member.best_epoch == lone.best_epoch
                    assert member.best_val_loss == lone.best_val_loss
        assert len(set(epochs_run[1])) > 1 and max(epochs_run[1]) < 60
        assert any(len(set(at_epoch)) > 1 for at_epoch in zip(*lrs[2]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_error_names_head_index(self, separable):
        train, val = separable
        for trainer in (train_head_family, train_heads_lockstep):
            with pytest.raises(TrainingError, match="head 0"):
                trainer(train, val, 2, base_seed=0, cfg=quick_cfg(lr=1e200, max_epochs=5))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_validation_error_names_head_index(self, separable):
        # one mini-batch per epoch: every training loss is taken before the
        # step that diverges, so a validation loss is the first non-finite one
        train, val = separable
        cfg = quick_cfg(lr=1e200, max_epochs=5, batch_size=train.n)
        for trainer in (train_head_family, train_heads_lockstep):
            with pytest.raises(TrainingError, match="head 0: non-finite validation loss"):
                trainer(train, val, 2, base_seed=0, cfg=cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_both_trainers_name_the_same_epoch_and_model(self, separable):
        train, val = separable
        cfg = quick_cfg(lr=1e308, max_epochs=5, batch_size=train.n)
        raised = []
        for trainer in (train_head_family, train_heads_lockstep):
            with pytest.raises(TrainingError) as exc:
                trainer(train, val, 2, base_seed=0, cfg=cfg)
            raised.append((exc.value.epoch, exc.value.model, str(exc.value)))
        assert raised[0] == raised[1]
        assert raised[0][:2] == (1, 0)


class TestHeadFile:
    def test_round_trip_at_f32(self, tmp_path):
        head = init_head(6, 3, seed=123)
        path = tmp_path / "h.hdw"
        save_head(head, path)
        loaded = load_head(path)
        assert loaded.seed == 123
        assert np.array_equal(loaded.weights, head.weights.astype(np.float32))
        assert np.array_equal(loaded.bias, head.bias.astype(np.float32))

    def test_file_size(self, tmp_path):
        head = init_head(6, 3, seed=1)
        path = tmp_path / "h.hdw"
        save_head(head, path)
        assert path.stat().st_size == 4 + 4 + 4 + 8 + 4 * (3 * 6 + 3)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "h.hdw"
        path.write_bytes(b"ZZZZ" + b"\x00" * 30)
        with pytest.raises(FormatError, match="magic"):
            load_head(path)

    def test_truncated(self, tmp_path):
        head = init_head(6, 3, seed=1)
        path = tmp_path / "h.hdw"
        save_head(head, path)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(FormatError):
            load_head(path)

    @pytest.mark.parametrize("dim, num_classes", [(0, 0), (0, 3), (6, 0)])
    def test_zero_dimensions_rejected(self, tmp_path, dim, num_classes):
        # a header-only file is the right length for a D=0 or C=0 head
        path = tmp_path / "h.hdw"
        path.write_bytes(b"HDW1" + struct.pack("<IIQ", dim, num_classes, 1)
                         + b"\x00" * (4 * (num_classes * dim + num_classes)))
        with pytest.raises(FormatError, match="h.hdw") as exc:
            load_head(path)
        assert exc.value.offset == 4
