import math
import tracemalloc

import numpy as np
import pytest

from icumort import nn
from icumort.errors import DataError, DimensionError, TrainingError
from icumort.nn import (
    MAGIC,
    LstmLayerParams,
    backward_batch,
    bce_loss,
    forward_batch,
    init_weights,
    load_checkpoint,
    lstm_step,
    named_params,
    predict,
    save_checkpoint,
)
from icumort.seeding import SplitMix64, derive_seed


def make_model(hidden_size, seed):
    """A model of the pipeline's widths: 13 hourly channels, 7 static features."""
    return init_weights(hidden_size=hidden_size, n_features=13, n_static=7,
                        seed=seed)


def scalar_lstm_step(x, h_prev, c_prev, w_x, w_h, b):
    """Independent scalar reference for one LSTM step (pure Python loops)."""
    hidden = len(h_prev)

    def sig(z):
        return 1.0 / (1.0 + math.exp(-z))

    z = [
        b[row] + sum(w_x[row][k] * x[k] for k in range(len(x)))
        + sum(w_h[row][k] * h_prev[k] for k in range(hidden))
        for row in range(4 * hidden)
    ]
    h_new, c_new = [], []
    for j in range(hidden):
        i = sig(z[j])
        f = sig(z[hidden + j])
        g = math.tanh(z[2 * hidden + j])
        o = sig(z[3 * hidden + j])
        c = f * c_prev[j] + i * g
        c_new.append(c)
        h_new.append(o * math.tanh(c))
    return h_new, c_new


def forward(seq, static, model):
    """Probability of the positive class for a single stay."""
    p, _ = forward_batch(seq[None, :, :], np.asarray(static)[None, :], model)
    return float(p[0])


def run_step(x, h_prev, c_prev, params):
    """One production step on a layer input row; returns (h_t, c_t)."""
    b, h = h_prev.shape
    rec = np.empty((b, 4 * h))
    c_t, tanh_c, h_t = np.empty((b, h)), np.empty((b, h)), np.empty((b, h))
    lstm_step(x @ params.w_x.T + params.b, h_prev, c_prev,
              np.ascontiguousarray(params.w_h.T), rec, c_t, tanh_c, h_t)
    return h_t, c_t


def reference_bptt(seq, static, model, labels):
    """Batch-major forward and backward with 1/(1+exp(-z)) gates, step by
    step: returns (p, gradients keyed like named_params)."""
    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    h = model.hidden_size
    b, t, _ = seq.shape
    x, layer_steps = seq, []
    for layer in model.layers:
        h_state, c_state, steps = np.zeros((b, h)), np.zeros((b, h)), []
        for step in range(t):
            z = x[:, step] @ layer.w_x.T + h_state @ layer.w_h.T + layer.b
            i, f = sig(z[:, :h]), sig(z[:, h : 2 * h])
            g, o = np.tanh(z[:, 2 * h : 3 * h]), sig(z[:, 3 * h :])
            c_new = f * c_state + i * g
            steps.append((x[:, step], h_state, c_state, i, f, g, o,
                          np.tanh(c_new)))
            h_state, c_state = o * np.tanh(c_new), c_new
        layer_steps.append(steps)
        x = np.stack([o * tc for *_, o, tc in steps], axis=1)
    head_in = np.concatenate([x[:, -1], static], axis=1)
    p = sig(head_in @ model.head_w + model.head_b[0])

    dz_head = (p - labels) / b
    grads = {"head.w": head_in.T @ dz_head, "head.b": np.array([dz_head.sum()])}
    d_out = np.zeros((b, t, h))
    d_out[:, -1] = np.outer(dz_head, model.head_w[:h])
    for idx in range(len(model.layers) - 1, -1, -1):
        layer, name = model.layers[idx], f"layer{idx + 1}"
        grads.update({f"{name}.w_x": 0.0, f"{name}.w_h": 0.0, f"{name}.b": 0.0})
        d_in = np.zeros((b, t, layer.w_x.shape[1]))
        dh_next, dc_next = np.zeros((b, h)), np.zeros((b, h))
        for step in range(t - 1, -1, -1):
            x_t, h_prev, c_prev, i, f, g, o, tc = layer_steps[idx][step]
            dh = d_out[:, step] + dh_next
            dc = dc_next + dh * o * (1.0 - tc * tc)
            dz = np.concatenate([dc * g * i * (1.0 - i),
                                 dc * c_prev * f * (1.0 - f),
                                 dc * i * (1.0 - g * g),
                                 dh * tc * o * (1.0 - o)], axis=1)
            grads[f"{name}.w_x"] = grads[f"{name}.w_x"] + dz.T @ x_t
            grads[f"{name}.w_h"] = grads[f"{name}.w_h"] + dz.T @ h_prev
            grads[f"{name}.b"] = grads[f"{name}.b"] + dz.sum(axis=0)
            d_in[:, step] = dz @ layer.w_x
            dh_next, dc_next = dz @ layer.w_h, dc * f
        d_out = d_in
    return p, grads


def flat_params(model):
    return np.concatenate([a.ravel() for _, a in named_params(model)])


def set_flat(model, vec):
    pos = 0
    for _, a in named_params(model):
        a.ravel()[:] = vec[pos : pos + a.size]
        pos += a.size


def numerical_gradient(model, seq, static, labels, delta=1e-5):
    """Central finite differences over every parameter entry."""
    x0 = flat_params(model).copy()
    grad = np.empty_like(x0)
    for i in range(x0.size):
        for sign, slot in ((1.0, 0), (-1.0, 1)):
            x = x0.copy()
            x[i] += sign * delta
            set_flat(model, x)
            p, _ = forward_batch(seq, static, model)
            if slot == 0:
                up = bce_loss(p, labels)
            else:
                down = bce_loss(p, labels)
        grad[i] = (up - down) / (2.0 * delta)
    set_flat(model, x0)
    return grad


def analytic_gradient(model, seq, static, labels):
    _, cache = forward_batch(seq, static, model, want_cache=True)
    grads = backward_batch(model, cache, labels)
    return np.concatenate([grads[n].ravel() for n, _ in named_params(model)])


def relative_error(a, b):
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


class TestCell:
    def test_all_zero_weights_and_input(self):
        h = 3
        params = LstmLayerParams(
            w_x=np.zeros((4 * h, 2)), w_h=np.zeros((4 * h, h)), b=np.zeros(4 * h)
        )
        h_t, c_t = run_step(np.zeros((1, 2)), np.zeros((1, h)),
                            np.zeros((1, h)), params)
        assert np.all(h_t == 0.0)
        assert np.all(c_t == 0.0)

    def test_saturated_forget_gate_preserves_cell(self):
        h = 3
        params = LstmLayerParams(
            w_x=np.zeros((4 * h, 2)), w_h=np.zeros((4 * h, h)), b=np.zeros(4 * h)
        )
        params.b[h : 2 * h] = 100.0  # forget gate pinned open
        c_prev = np.array([[0.3, -0.7, 1.1]])
        _, c_t = run_step(np.zeros((1, 2)), np.zeros((1, 3)), c_prev, params)
        assert np.max(np.abs(c_t - c_prev)) < 1e-12

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(11)
        h, d = 2, 3
        params = LstmLayerParams(
            w_x=rng.normal(size=(4 * h, d)),
            w_h=rng.normal(size=(4 * h, h)),
            b=rng.normal(size=4 * h),
        )
        x = rng.normal(size=(1, d))
        h_prev = rng.normal(size=(1, h))
        c_prev = rng.normal(size=(1, h))
        h_t, c_t = run_step(x, h_prev, c_prev, params)
        h_ref, c_ref = scalar_lstm_step(
            x[0].tolist(), h_prev[0].tolist(), c_prev[0].tolist(),
            params.w_x.tolist(), params.w_h.tolist(), params.b.tolist(),
        )
        assert np.max(np.abs(h_t[0] - np.array(h_ref))) < 1e-12
        assert np.max(np.abs(c_t[0] - np.array(c_ref))) < 1e-12

    def test_shape_mismatch_reported(self):
        model = make_model(hidden_size=2, seed=0)
        with pytest.raises(DimensionError):
            forward_batch(np.zeros((1, 4, 5)), np.zeros((1, 7)), model)
        with pytest.raises(DimensionError):
            forward_batch(np.zeros((1, 4, 13)), np.zeros((1, 6)), model)


class TestForward:
    def test_zero_weights_give_half(self):
        model = make_model(hidden_size=4, seed=0)
        for _, arr in named_params(model):
            arr[:] = 0.0
        p = forward(np.zeros((48, 13)), np.zeros(7), model)
        assert p == 0.5

    def test_sequence_order_matters(self):
        model = make_model(hidden_size=8, seed=3)
        rng = np.random.default_rng(5)
        seq = rng.normal(size=(48, 13))
        static = rng.normal(size=7)
        p1 = forward(seq, static, model)
        p2 = forward(seq[::-1].copy(), static, model)
        assert p1 != p2

    def test_batch_of_identical_rows_is_constant(self):
        model = make_model(hidden_size=4, seed=1)
        seq = np.tile(np.random.default_rng(0).normal(size=(1, 10, 13)), (5, 1, 1))
        static = np.tile(np.random.default_rng(1).normal(size=(1, 7)), (5, 1))
        p, _ = forward_batch(seq, static, model)
        assert np.all(p == p[0])

    def test_nonfinite_input_rejected(self):
        model = make_model(hidden_size=4, seed=1)
        seq = np.zeros((48, 13))
        seq[0, 0] = np.nan
        with pytest.raises(DataError):
            forward(seq, np.zeros(7), model)

    def test_batch_matches_one_by_one(self):
        model = make_model(hidden_size=16, seed=9)
        rng = np.random.default_rng(2)
        seq = rng.normal(size=(7, 48, 13))
        static = rng.normal(size=(7, 7))
        batch, _ = forward_batch(seq, static, model)
        singles = np.array([forward(seq[i], static[i], model) for i in range(7)])
        assert np.max(np.abs(batch - singles)) < 1e-12

    @pytest.mark.parametrize("batch", [1, 7, 33])
    def test_whole_sequence_and_gradients_match_reference(self, batch):
        model = make_model(hidden_size=64, seed=batch)
        rng = np.random.default_rng(batch)
        seq = rng.normal(size=(batch, 48, 13))
        static = rng.normal(size=(batch, 7))
        labels = (rng.random(batch) < 0.5).astype(float)
        p, cache = forward_batch(seq, static, model, want_cache=True)
        p_ref, grads_ref = reference_bptt(seq, static, model, labels)
        assert np.max(np.abs(p - p_ref)) < 1e-12
        grads = backward_batch(model, cache, labels)
        for name, _ in named_params(model):
            assert np.max(np.abs(grads[name] - grads_ref[name])) < 1e-12, name

    @pytest.mark.parametrize("batch", [1, 7, 33])
    def test_cache_leaves_probabilities_bit_identical(self, batch):
        model = make_model(hidden_size=64, seed=4)
        rng = np.random.default_rng(batch)
        seq = rng.normal(size=(batch, 48, 13))
        static = rng.normal(size=(batch, 7))
        p_plain, none = forward_batch(seq, static, model)
        p_cached, cache = forward_batch(seq, static, model, want_cache=True)
        assert none is None
        assert np.array_equal(p_plain, p_cached)
        assert np.array_equal(cache.p, p_cached)
        assert len(cache.gates) == 3
        assert np.array_equal(cache.x, seq.transpose(1, 0, 2))
        assert np.all(cache.hs[0] == 0.0)
        assert np.array_equal(cache.h_top, cache.hs[-1])


class TestLoss:
    def test_half_probability(self):
        assert bce_loss(np.array([0.5]), np.array([1.0])) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_clamp_bounds_extreme_probability(self):
        loss = bce_loss(np.array([1.0 - 1e-9]), np.array([1.0]))
        assert loss == pytest.approx(-math.log1p(-1e-7), rel=1e-6)

    def test_batch_mean_symmetry(self):
        loss = bce_loss(np.array([0.5, 0.5]), np.array([0.0, 1.0]))
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)


class TestBackward:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(77)
        model = make_model(hidden_size=4, seed=21)
        seq = rng.normal(size=(3, 6, 13))
        static = rng.normal(size=(3, 7))
        labels = np.array([1.0, 0.0, 1.0])
        rel = relative_error(
            analytic_gradient(model, seq, static, labels),
            numerical_gradient(model, seq, static, labels),
        )
        assert rel.max() < 1e-4

    def test_balanced_batch_at_half_has_zero_head_bias_gradient(self):
        model = make_model(hidden_size=4, seed=2)
        for _, arr in named_params(model):
            arr[:] = 0.0  # p == 0.5 for every sample
        seq = np.zeros((2, 5, 13))
        static = np.zeros((2, 7))
        _, cache = forward_batch(seq, static, model, want_cache=True)
        grads = backward_batch(model, cache, np.array([0.0, 1.0]))
        assert grads["head.b"][0] == 0.0

    def test_duplicated_batch_leaves_mean_gradient_unchanged(self):
        rng = np.random.default_rng(8)
        model = make_model(hidden_size=3, seed=5)
        seq = rng.normal(size=(3, 4, 13))
        static = rng.normal(size=(3, 7))
        labels = np.array([1.0, 0.0, 0.0])
        g1 = analytic_gradient(model, seq, static, labels)
        g2 = analytic_gradient(
            model,
            np.concatenate([seq, seq]),
            np.concatenate([static, static]),
            np.concatenate([labels, labels]),
        )
        assert np.max(np.abs(g1 - g2)) < 1e-12

    def test_consumed_cache_is_rejected(self):
        rng = np.random.default_rng(4)
        model = make_model(hidden_size=4, seed=3)
        seq, static = rng.normal(size=(2, 5, 13)), rng.normal(size=(2, 7))
        labels = np.array([1.0, 0.0])
        _, cache = forward_batch(seq, static, model, want_cache=True)
        backward_batch(model, cache, labels)
        assert cache.gates == []
        with pytest.raises(TrainingError, match="already consumed"):
            backward_batch(model, cache, labels)

    def test_bptt_peak_allocation_is_the_cache(self):
        # The documented working set, 8 x B x (12TH + 2(T+1)H) bytes (10.53
        # MiB here: three layers' gates and one rebuilt hs and cs), is the
        # pass's peak; 2 MiB covers the first layer's input, one layer's
        # output gradient and the per-step temporaries.
        b, t, h = 32, 48, 64
        model = make_model(hidden_size=h, seed=3)
        rng = np.random.default_rng(6)
        seq, static = rng.normal(size=(b, t, 13)), rng.normal(size=(b, 7))
        labels = (rng.random(b) < 0.5).astype(float)

        def forward_and_backward():
            _, cache = forward_batch(seq, static, model, want_cache=True)
            backward_batch(model, cache, labels)

        forward_and_backward()  # warm up lazy imports and cached constants
        tracemalloc.start()
        try:
            forward_and_backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cache_bytes = 8 * b * (12 * t * h + 2 * (t + 1) * h)
        assert peak <= cache_bytes + 2 * 2**20, f"{peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("batch", [1, 19, 32])
    def test_rebuilt_states_equal_the_forward_states(self, batch, monkeypatch):
        # Backward rebuilds each layer's hs and cs from its cached gates, top
        # layer first; they must be the bits a loop that keeps them computes.
        t, h = 48, 64
        model = make_model(hidden_size=h, seed=batch)
        rng = np.random.default_rng(batch)
        seq, static = rng.normal(size=(batch, t, 13)), rng.normal(size=(batch, 7))
        labels = (rng.random(batch) < 0.5).astype(float)
        kept, x = [], np.ascontiguousarray(seq.transpose(1, 0, 2))
        rec, tanh_c = np.empty((batch, 4 * h)), np.empty((batch, h))
        for layer in model.layers:
            gates = (x.reshape(t * batch, -1) @ layer.w_x.T).reshape(t, batch, -1)
            gates += layer.b
            hs, cs = np.zeros((t + 1, batch, h)), np.zeros((t + 1, batch, h))
            w_hT = np.ascontiguousarray(layer.w_h.T)
            for step in range(t):
                lstm_step(gates[step], hs[step], cs[step], w_hT, rec,
                          cs[step + 1], tanh_c, hs[step + 1])
            kept.append((hs, cs))
            x = hs[1:]

        rebuilt = []
        rebuild = nn._rebuild_states

        def spy(gates, hs, cs, scratch):
            rebuild(gates, hs, cs, scratch)
            rebuilt.append((hs.copy(), cs.copy()))

        monkeypatch.setattr(nn, "_rebuild_states", spy)
        _, cache = forward_batch(seq, static, model, want_cache=True)
        backward_batch(model, cache, labels)
        assert len(rebuilt) == 3
        for (hs, cs), (hs_ref, cs_ref) in zip(rebuilt, kept[::-1]):
            assert np.array_equal(hs, hs_ref) and np.array_equal(cs, cs_ref)


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a = make_model(hidden_size=8, seed=4)
        b = make_model(hidden_size=8, seed=4)
        for (_, x), (_, y) in zip(named_params(a), named_params(b)):
            assert np.array_equal(x, y)

    def test_weights_within_bound(self):
        h = 16
        model = make_model(hidden_size=h, seed=1)
        bound = 1.0 / math.sqrt(h)
        for name, arr in named_params(model):
            if not name.endswith(".b"):
                assert np.all(np.abs(arr) < bound)

    def test_forget_bias_slice_is_one(self):
        h = 8
        model = make_model(hidden_size=h, seed=1)
        for layer in model.layers:
            assert np.all(layer.b[h : 2 * h] == 1.0)
            assert np.all(layer.b[:h] == 0.0)
            assert np.all(layer.b[2 * h :] == 0.0)
        assert model.head_b[0] == 0.0

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    @pytest.mark.parametrize("h", [4, 8])
    def test_weights_are_keyed_splitmix64_draws(self, h, seed):
        # Each weight tensor, in C order, is the scalar splitmix64 stream
        # keyed by its checkpoint name, mapped onto [-1/sqrt(H), 1/sqrt(H)).
        bound = 1.0 / math.sqrt(h)
        for name, arr in named_params(make_model(hidden_size=h, seed=seed)):
            if name.endswith(("w_x", "w_h", "head.w")):
                stream = SplitMix64(derive_seed(seed, name))
                expected = [stream.uniform() * (2 * bound) - bound
                            for _ in range(arr.size)]
                assert arr.ravel().tolist() == expected, name

    def test_each_weight_tensor_depends_only_on_its_own_size(self):
        # Keyed draws: a wider input changes layer1.w_x and no other tensor.
        narrow = init_weights(hidden_size=8, n_features=13, n_static=7, seed=3)
        wide = init_weights(hidden_size=8, n_features=14, n_static=7, seed=3)
        for (name, a), (_, b) in zip(named_params(narrow), named_params(wide)):
            if name == "layer1.w_x":
                assert a.shape == (32, 13) and b.shape == (32, 14)
            else:
                assert np.array_equal(a, b), name

    def test_three_layers_with_documented_widths(self):
        model = make_model(hidden_size=8, seed=0)
        assert len(model.layers) == 3
        assert model.layers[0].w_x.shape == (32, 13)
        assert model.layers[1].w_x.shape == (32, 8)
        assert model.layers[2].w_x.shape == (32, 8)
        assert model.head_w.shape == (15,)


class TestPredictAndCheckpoint:
    def test_predict_is_pure_and_bounded(self):
        model = make_model(hidden_size=4, seed=6)
        rng = np.random.default_rng(3)
        seq = rng.normal(size=(9, 48, 13))
        static = rng.normal(size=(9, 7))
        before = flat_params(model).copy()
        s1 = predict(model, seq, static, batch_size=4)
        s2 = predict(model, seq, static, batch_size=9)
        assert np.array_equal(flat_params(model), before)
        assert np.max(np.abs(s1 - s2)) < 1e-12
        assert np.all((s1 > 0.0) & (s1 < 1.0))

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 300])
    def test_predict_equals_one_whole_split_pass(self, n):
        model = make_model(hidden_size=64, seed=n)
        rng = np.random.default_rng(n)
        seq, static = rng.normal(size=(n, 48, 13)), rng.normal(size=(n, 7))
        whole, _ = forward_batch(seq, static, model)
        assert np.array_equal(predict(model, seq, static), whole)

    def test_predict_peak_does_not_grow_with_the_split(self):
        # The 64-stay batches bound predict's buffers: 1,000 stays peak no
        # higher than one batch of 64, plus 0.5 MiB for the output and the
        # per-batch input copies.
        model = make_model(hidden_size=64, seed=2)
        rng = np.random.default_rng(5)
        seq, static = rng.normal(size=(1000, 48, 13)), rng.normal(size=(1000, 7))

        def peak(n):
            tracemalloc.start()
            try:
                predict(model, seq[:n], static[:n])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        predict(model, seq[:64], static[:64])  # warm up cached constants
        one_batch, split = peak(64), peak(1000)
        assert split <= one_batch + 2**19, (
            f"{split / 2**20:.2f} against {one_batch / 2**20:.2f} MiB")

    def test_checkpoint_round_trip_is_exact(self, tmp_path):
        model = make_model(hidden_size=8, seed=13)
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.hidden_size == 8
        for (na, a), (nb, b) in zip(named_params(model), named_params(loaded)):
            assert na == nb
            assert np.array_equal(a, b)
        rng = np.random.default_rng(0)
        seq = rng.normal(size=(2, 10, 13))
        static = rng.normal(size=(2, 7))
        assert np.array_equal(
            predict(model, seq, static), predict(loaded, seq, static)
        )

    def test_checkpoint_magic_enforced(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTME" + b"\x00" * 64)
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_truncated_header_or_shape_record_rejected(self, tmp_path):
        model = make_model(hidden_size=2, seed=0)
        full = tmp_path / "model.bin"
        save_checkpoint(model, full)
        blob = full.read_bytes()
        header = len(MAGIC) + 4 + 8  # magic, hidden size, first shape record
        for cut in range(header + 1):
            path = tmp_path / f"cut{cut}.bin"
            path.write_bytes(blob[:cut])
            with pytest.raises(DataError, match=f"cut{cut}.bin"):
                load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(make_model(hidden_size=64, seed=0), path)
        path.write_bytes(path.read_bytes() + b"trailing garbage")
        with pytest.raises(DataError, match="model.bin: trailing bytes after "
                                            "the last tensor"):
            load_checkpoint(path)

    def test_inconsistent_shapes_rejected(self, tmp_path):
        model = make_model(hidden_size=2, seed=0)
        model.layers[1].b = np.zeros(5)
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        with pytest.raises(DataError, match="inconsistent tensor shapes"):
            load_checkpoint(path)

    def test_missing_checkpoint_names_file(self, tmp_path):
        with pytest.raises(DataError, match="nope.bin"):
            load_checkpoint(tmp_path / "nope.bin")
