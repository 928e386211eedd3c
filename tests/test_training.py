import numpy as np
import pytest

from icumort.errors import ConfigError
from icumort.nn import predict
from icumort.training import EarlyStopper, EpochStats, TrainConfig, train
from icumort.metrics import auc_oracle


def toy_dataset(n, seed, separation=2.0):
    """Linearly separable toy data: channel 0's late values carry the label."""
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.5).astype(float)
    seq = rng.normal(scale=0.3, size=(n, 12, 13))
    seq[:, 6:, 0] += separation * (labels * 2 - 1)[:, None]
    static = rng.normal(scale=0.3, size=(n, 7))
    return seq, static, labels


class TestEarlyStopper:
    def test_hand_traced_stopping_rule(self):
        # Losses [0.7, 0.6, 0.65, 0.66, 0.67] with patience 3: best at epoch
        # 2, three non-improving epochs after it, stop after epoch 5.
        stopper = EarlyStopper(patience=3, mode="min")
        stops = []
        for epoch, value in enumerate([0.7, 0.6, 0.65, 0.66, 0.67], start=1):
            stopper.update(value, epoch)
            stops.append(stopper.should_stop)
        assert stops == [False, False, False, False, True]
        assert stopper.best_epoch == 2
        assert stopper.best == 0.6

    def test_zero_patience_stops_after_the_first_worse_epoch(self):
        stopper = EarlyStopper(patience=0, mode="min")
        stops = []
        for epoch, value in enumerate([1.0, 0.5, 0.7], start=1):
            stopper.update(value, epoch)
            stops.append(stopper.should_stop)
        assert stops == [False, False, True]

    def test_max_mode(self):
        stopper = EarlyStopper(patience=2, mode="max")
        assert stopper.update(0.6, 1) is True
        assert stopper.update(0.7, 2) is True
        assert stopper.update(0.65, 3) is False
        assert stopper.update(0.66, 4) is False
        assert stopper.should_stop


class TestTrain:
    def test_single_epoch_run(self):
        data = toy_dataset(24, seed=1)
        val = toy_dataset(12, seed=2)
        config = TrainConfig(batch_size=8, max_epochs=1, seed=3, hidden_size=4)
        model, history = train(data, val, config)
        assert len(history) == 1
        assert history[0].epoch == 1

    def test_loss_decreases_on_separable_data(self):
        data = toy_dataset(48, seed=4)
        val = toy_dataset(24, seed=5)
        config = TrainConfig(batch_size=16, max_epochs=10, patience=10,
                             seed=6, hidden_size=8, learning_rate=0.01)
        model, history = train(data, val, config)
        assert history[-1].train_loss < history[0].train_loss
        scores = predict(model, *data[:2])
        assert auc_oracle(scores, data[2]) > 0.9

    def test_two_runs_identical_history(self):
        data = toy_dataset(30, seed=7)
        val = toy_dataset(12, seed=8)
        config = TrainConfig(batch_size=8, max_epochs=3, seed=9, hidden_size=4)
        _, h1 = train(data, val, config)
        _, h2 = train(data, val, config)
        assert [(e.train_loss, e.val_loss, e.val_auc) for e in h1] == \
               [(e.train_loss, e.val_loss, e.val_auc) for e in h2]

    def test_best_weights_match_minimum_recorded_val_loss(self):
        from icumort.nn import forward_batch, bce_loss

        data = toy_dataset(40, seed=10)
        val = toy_dataset(20, seed=11)
        config = TrainConfig(batch_size=8, max_epochs=6, patience=6, seed=12,
                             hidden_size=4, learning_rate=0.01)
        model, history = train(data, val, config)
        scores = predict(model, val[0], val[1])
        returned_loss = bce_loss(scores, val[2])
        assert returned_loss == pytest.approx(
            min(h.val_loss for h in history), abs=1e-12
        )

    def test_partial_final_batch_is_trained(self):
        # 10 samples at batch size 8 leaves a remainder batch of 2; training
        # must accept it and still report a full-epoch loss.
        data = toy_dataset(10, seed=13)
        val = toy_dataset(10, seed=14)
        config = TrainConfig(batch_size=8, max_epochs=1, seed=15, hidden_size=4)
        _, history = train(data, val, config)
        assert np.isfinite(history[0].train_loss)

    @pytest.mark.parametrize("distinct", [5, 20])
    def test_val_auc_matches_pair_count_oracle(self, distinct):
        # Five distinct validation stays repeated four times tie their
        # scores; twenty distinct stays give untied random scores.
        data = toy_dataset(16, seed=17)
        seq, static, _ = toy_dataset(distinct, seed=18)
        reps = 20 // distinct
        labels = (np.random.default_rng(19).random(20) < 0.5).astype(float)
        labels[:2] = [0.0, 1.0]
        val = (np.tile(seq, (reps, 1, 1)), np.tile(static, (reps, 1)), labels)
        config = TrainConfig(batch_size=8, max_epochs=1, seed=20, hidden_size=4)
        model, history = train(data, val, config)
        scores = predict(model, val[0], val[1])
        assert len(set(scores.tolist())) == distinct
        assert abs(history[0].val_auc - auc_oracle(scores, labels)) < 1e-12

    def test_empty_split_rejected(self):
        data = toy_dataset(10, seed=16)
        empty = (np.zeros((0, 12, 13)), np.zeros((0, 7)), np.zeros(0))
        with pytest.raises(ConfigError):
            train(data, empty, TrainConfig())

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(monitor="accuracy").validate()
