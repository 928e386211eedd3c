import math
import os
import platform
import resource
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import icumort
from icumort.cli import _keep_freed_heap
from icumort.errors import ConfigError
from icumort.nn import predict
from icumort.training import EarlyStopper, EpochStats, TrainConfig, train
from icumort.metrics import auc_oracle, evaluate_scores


def toy_dataset(n, seed, separation=2.0, steps=12):
    """Linearly separable toy data: channel 0's late values carry the label."""
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.5).astype(float)
    seq = rng.normal(scale=0.3, size=(n, steps, 13))
    seq[:, steps // 2:, 0] += separation * (labels * 2 - 1)[:, None]
    static = rng.normal(scale=0.3, size=(n, 7))
    return seq, static, labels


class TestEarlyStopper:
    def test_hand_traced_stopping_rule(self):
        # Losses [0.7, 0.6, 0.65, 0.66, 0.67] with patience 3: best at epoch
        # 2, three non-improving epochs after it, stop after epoch 5.
        stopper = EarlyStopper(patience=3)
        stops = []
        for epoch, value in enumerate([0.7, 0.6, 0.65, 0.66, 0.67], start=1):
            stopper.update(value, epoch)
            stops.append(stopper.should_stop)
        assert stops == [False, False, False, False, True]
        assert stopper.best_epoch == 2
        assert stopper.best == 0.6

    def test_zero_patience_stops_after_the_first_worse_epoch(self):
        stopper = EarlyStopper(patience=0)
        stops = []
        for epoch, value in enumerate([1.0, 0.5, 0.7], start=1):
            stopper.update(value, epoch)
            stops.append(stopper.should_stop)
        assert stops == [False, False, True]

    def test_a_tie_is_not_an_improvement(self):
        stopper = EarlyStopper(patience=1)
        assert stopper.update(0.5, 1) is True
        assert stopper.update(0.5, 2) is False
        assert (stopper.best, stopper.best_epoch) == (0.5, 1)
        assert stopper.should_stop

    def test_max_mode(self):
        # An AUC is monitored as its negation, so a higher AUC improves.
        stopper = EarlyStopper(patience=2)
        assert stopper.update(-0.6, 1) is True
        assert stopper.update(-0.7, 2) is True
        assert stopper.update(-0.65, 3) is False
        assert stopper.update(-0.66, 4) is False
        assert stopper.should_stop

    def test_nan_improves_only_as_the_first_value(self):
        stopper = EarlyStopper(patience=2)
        assert stopper.update(float("nan"), 1) is True
        assert math.isnan(stopper.best) and stopper.best_epoch == 1
        assert stopper.update(float("nan"), 2) is False
        assert stopper.update(float("nan"), 3) is False
        assert math.isnan(stopper.best) and stopper.best_epoch == 1
        assert stopper.should_stop
        # After a finite best, a nan is one more non-improving epoch.
        stopper = EarlyStopper(patience=2)
        assert stopper.update(0.5, 1) is True
        assert stopper.update(float("nan"), 2) is False
        assert (stopper.best, stopper.best_epoch, stopper.bad_epochs) == (0.5, 1, 1)


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

    def test_best_weights_match_maximum_recorded_val_auc(self):
        # At these seeds the validation AUC peaks at epoch 2 and then falls,
        # so the returned model is not the last one.
        data = toy_dataset(24, seed=34, separation=0.5)
        val = toy_dataset(16, seed=134, separation=0.1)
        config = TrainConfig(batch_size=8, max_epochs=8, patience=8, seed=34,
                             hidden_size=4, learning_rate=0.05, monitor="auc")
        model, history = train(data, val, config)
        aucs = [h.val_auc for h in history]
        assert len(history) == 8 and max(aucs) > aucs[-1]
        scores = predict(model, val[0], val[1])
        assert evaluate_scores(scores, val[2]).auc == max(aucs)

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

    def test_one_batch_cache_is_the_whole_working_set(self):
        # A batch's BPTT cache must be freed before the next forward pass.
        # Four batches over three epochs then peak no higher than one batch
        # in one epoch, give or take the 24 extra stays' input bytes.
        val = toy_dataset(8, seed=21, steps=48)
        config = TrainConfig(batch_size=8, max_epochs=3, seed=22,
                             hidden_size=16)

        def traced_peak(data, max_epochs):
            tracemalloc.start()
            try:
                _, history = train(data, val, replace(config,
                                                      max_epochs=max_epochs))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(history) == max_epochs
            return peak

        many = traced_peak(toy_dataset(32, seed=23, steps=48), 3)
        one = traced_peak(toy_dataset(8, seed=24, steps=48), 1)
        assert many <= (one + 24 * 48 * 13 * 8) * 1.05, many / one

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="tunes the glibc heap")
    def test_freed_caches_are_reused_not_faulted_in_again(self):
        # Each batch frees its cache. By default glibc returns that memory to
        # the system, and these 12 batches fault in about 2,760 pages again.
        # The train stage keeps freed heap mapped for the next batch.
        _keep_freed_heap()
        data = toy_dataset(32, seed=23, steps=48)
        val = toy_dataset(8, seed=21, steps=48)
        config = TrainConfig(batch_size=8, max_epochs=3, seed=22,
                             hidden_size=16)
        train(data, val, config)  # the heap reaches its working size
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train(data, val, config)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100

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


def test_model_half_imports_no_data_half_module():
    # The model modules take their widths from the arrays they are given, so
    # they need none of the modules that build those arrays.
    src = str(Path(icumort.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys\n"
            "import icumort.nn, icumort.training, icumort.adam, icumort.metrics\n"
            "print(' '.join(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "icumort.training" in loaded
    assert loaded & {"icumort.featurize", "icumort.items", "icumort.cohort",
                     "icumort.synth"} == set()
