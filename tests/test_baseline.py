import math

import numpy as np
import pytest

from icumort.baseline import (
    LrModel,
    last_hour_features,
    load_lr,
    lr_gradients,
    lr_objective,
    predict_lr,
    save_lr,
    train_lr,
)
from icumort.errors import ConfigError, DataError


def batch_with(last_rows, statics):
    """(n, 48, 13) zero sequences with the given hour-47 rows, and statics."""
    last_rows = np.asarray(last_rows, float)
    seq = np.zeros((len(last_rows), 48, 13))
    seq[:, 47] = last_rows
    return seq, np.asarray(statics, float)


class TestLastHourFeatures:
    def test_construction(self):
        seq, static = batch_with([np.ones(13), np.full(13, 2.0)],
                                 [np.zeros(7), np.full(7, 3.0)])
        features = last_hour_features(seq, static)
        assert features.shape == (2, 20)
        assert list(features[0]) == [1.0] * 13 + [0.0] * 7
        assert list(features[1]) == [2.0] * 13 + [3.0] * 7

    def test_earlier_hours_are_invisible(self):
        a = batch_with([np.arange(13.0)], [np.ones(7)])
        b = batch_with([np.arange(13.0)], [np.ones(7)])
        b[0][:, :47] = 99.0
        assert np.array_equal(last_hour_features(*a), last_hour_features(*b))

    def test_golden_read(self):
        seq, static = batch_with([np.arange(13.0)], [[0.5, 1, 0, 0, 0, 1, 0]])
        expected = list(np.arange(13.0)) + [0.5, 1, 0, 0, 0, 1, 0]
        assert list(last_hour_features(seq, static)[0]) == expected


class TestTrainLr:
    def test_huge_lambda_shrinks_weights_to_intercept_model(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(200, 20))
        labels = (rng.random(200) < 0.3).astype(float)
        model = train_lr(features, labels, lam=1e6)
        assert np.linalg.norm(model.weights) < 1e-3
        base = labels.mean()
        assert model.bias == pytest.approx(math.log(base / (1 - base)), abs=0.01)

    def test_separable_data_classified_perfectly(self):
        features = np.zeros((40, 20))
        features[:20, 0] = -1.0
        features[20:, 0] = 1.0
        labels = np.array([0.0] * 20 + [1.0] * 20)
        model = train_lr(features, labels, lam=0.01)
        accuracy = np.mean((predict_lr(model, features) >= 0.5) == (labels == 1))
        assert accuracy == 1.0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(30, 20))
        labels = (rng.random(30) < 0.4).astype(float)
        weights = rng.normal(scale=0.5, size=20)
        bias = 0.3
        lam = 0.7
        grad_w, grad_b = lr_gradients(weights, bias, features, labels, lam)
        delta = 1e-6
        for i in range(20):
            up = weights.copy()
            up[i] += delta
            down = weights.copy()
            down[i] -= delta
            fd = (lr_objective(up, bias, features, labels, lam)
                  - lr_objective(down, bias, features, labels, lam)) / (2 * delta)
            assert abs(grad_w[i] - fd) / max(1.0, abs(fd)) < 1e-6
        fd_b = (lr_objective(weights, bias + delta, features, labels, lam)
                - lr_objective(weights, bias - delta, features, labels, lam)
                ) / (2 * delta)
        assert abs(grad_b - fd_b) / max(1.0, abs(fd_b)) < 1e-6

    def test_single_class_rejected(self):
        features = np.random.default_rng(1).normal(size=(10, 20))
        with pytest.raises(DataError):
            train_lr(features, np.zeros(10))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ConfigError):
            train_lr(np.zeros((1, 20)), np.array([1.0]))

    @pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
    def test_bad_lambda_rejected(self, lam):
        features = np.random.default_rng(1).normal(size=(10, 20))
        with pytest.raises(ConfigError, match="l2_lambda must be finite"):
            train_lr(features, np.arange(10) % 2, lam=lam)

    def test_final_objective_not_worse_than_zero_model(self):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(80, 20))
        labels = (rng.random(80) < 0.25).astype(float)
        for lam in (0.0, 0.1, 1.0):
            model = train_lr(features, labels, lam=lam)
            at_fit = lr_objective(model.weights, model.bias, features, labels, lam)
            at_zero = lr_objective(np.zeros(20), 0.0, features, labels, lam)
            assert at_fit <= at_zero

    def test_restart_from_optimum_is_stable(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(60, 20))
        labels = (rng.random(60) < 0.4).astype(float)
        model = train_lr(features, labels, lam=1.0)
        first = lr_objective(model.weights, model.bias, features, labels, 1.0)
        again = train_lr(features, labels, lam=1.0)
        second = lr_objective(again.weights, again.bias, features, labels, 1.0)
        assert abs(first - second) < 1e-10

    def test_intercept_unaffected_by_lambda_on_zero_features(self):
        # With all-zero features only the (unpenalized) intercept can move,
        # so any lambda gives the same solution.
        features = np.zeros((50, 20))
        labels = np.array([1.0] * 20 + [0.0] * 30)
        biases = [train_lr(features, labels, lam=lam).bias
                  for lam in (0.0, 1.0, 1e4)]
        assert max(biases) - min(biases) < 1e-9
        assert biases[0] == pytest.approx(math.log(0.4 / 0.6), abs=0.01)


class TestPredictLr:
    def test_zero_model_gives_half(self):
        model = LrModel(weights=np.zeros(20), bias=0.0, lam=1.0)
        assert predict_lr(model, np.ones(20)) == 0.5

    def test_logit_closed_form(self):
        model = LrModel(weights=np.zeros(20), bias=math.log(3.0), lam=1.0)
        assert predict_lr(model, np.zeros(20)) == pytest.approx(0.75, abs=1e-12)

    def test_monotone_in_positive_weight(self):
        weights = np.zeros(20)
        weights[4] = 0.8
        model = LrModel(weights=weights, bias=0.0, lam=1.0)
        lo = np.zeros(20)
        hi = np.zeros(20)
        hi[4] = 1.0
        assert predict_lr(model, hi) > predict_lr(model, lo)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    model = LrModel(weights=rng.normal(size=20), bias=-0.7, lam=0.5)
    path = tmp_path / "lr.txt"
    save_lr(model, path, seed=7)
    loaded = load_lr(path)
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.bias == model.bias
    assert loaded.lam == model.lam
    assert "seed 7" in path.read_text()


@pytest.mark.parametrize("garble", [
    "seq_c0_h47 1.0 2.0",  # an extra 3-field line
    "bias",
    "bias notanumber",
    "bias nan",
])
def test_garbled_checkpoint_line_rejected(tmp_path, garble):
    path = tmp_path / "lr.txt"
    save_lr(LrModel(weights=np.zeros(20), bias=0.5, lam=1.0), path, seed=1)
    lines = path.read_text().splitlines()
    if garble.startswith("bias"):
        lines[-1] = garble
    else:
        lines.append(garble)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="lr.txt"):
        load_lr(path)


def test_binary_checkpoint_rejected(tmp_path):
    path = tmp_path / "lr.txt"
    path.write_bytes(b"\xff\xfe bias 1\n")
    with pytest.raises(DataError, match="lr.txt"):
        load_lr(path)
