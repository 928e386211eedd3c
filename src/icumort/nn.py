"""From-scratch stacked LSTM with exact backpropagation through time.

Three LSTM layers run over the 48 hourly rows of D features from zero
initial state; the final top-layer hidden state is concatenated with the S
static features and fed through a dense sigmoid head. Training takes D and S
from its data and a checkpoint stores them. Each initial weight tensor is
drawn from its own splitmix64 stream, keyed by its checkpoint name, so its
values depend only on the seed, the name and its size. Everything is
float64; backward returns exact gradients of the mean binary cross-entropy,
checked in the tests against central finite differences.

Gate packing order inside the 4H dimension is [input, forget, cell, output].
One ``tanh`` over the 4H columns makes all four gates of a step, with
sigmoid(z) = 1/2 + 1/2 tanh(z/2) on i, f and o; the head uses the exact
``sigmoid``. The forward cache is time-major, per layer of T steps over a
batch of B: ``gates`` (T, B, 4H), which one matmul fills with the input
projection x W_xᵀ + b before each step activates its row in place, and the
hidden and cell states ``hs``, ``cs`` (T+1, B, H) with ``hs[0] = cs[0] = 0``,
so that ``hs[:-1]`` holds each step's previous hidden state and ``hs[1:]`` the
output. Over the three layers that is 3 × 8 × B × (4TH + 2(T+1)H) bytes,
14.25 MB at B 32, T 48 and H 64, plus the first layer's (T, B, D) input.
``backward_batch`` consumes the cache: each step's gate gradients overwrite
its gates, and each layer's trace leaves the cache once its gradients are
taken.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import DataError, DimensionError, TrainingError
from .seeding import derive_seed, leading_uniforms
from .tables import read_artifact

N_LAYERS = 3
BCE_CLAMP = 1e-7

MAGIC = b"ICUM1"


@dataclass
class LstmLayerParams:
    w_x: np.ndarray  # (4H, D)
    w_h: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)


@dataclass
class LstmModel:
    layers: list[LstmLayerParams]
    head_w: np.ndarray  # (H + S,)
    head_b: np.ndarray  # (1,)
    hidden_size: int


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Exact logistic function, without overflow at large |z|."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def init_weights(hidden_size: int, n_features: int, n_static: int,
                 seed: int) -> LstmModel:
    """Biases 0 but forget 1. Each weight tensor is Uniform(-1/sqrt(H),
    1/sqrt(H)), mapped from the leading ``SplitMix64(derive_seed(seed,
    name)).uniform()`` draws for its ``named_params`` name, in C order."""
    if hidden_size < 1:
        raise DimensionError("hidden size must be at least 1")
    h = hidden_size
    layers = []
    for layer_idx in range(N_LAYERS):
        d = n_features if layer_idx == 0 else h
        b = np.zeros(4 * h)
        b[h : 2 * h] = 1.0  # forget gate bias keeps early memory open
        layers.append(LstmLayerParams(w_x=np.empty((4 * h, d)),
                                      w_h=np.empty((4 * h, h)), b=b))
    model = LstmModel(layers=layers, head_w=np.empty(h + n_static),
                      head_b=np.zeros(1), hidden_size=h)
    bound = 1.0 / np.sqrt(h)
    for name, arr in named_params(model):
        if not name.endswith(".b"):
            unit = leading_uniforms(derive_seed(seed, name), arr.size)
            arr[...] = (unit * (2 * bound) - bound).reshape(arr.shape)
    return model


def named_params(model: LstmModel) -> list[tuple[str, np.ndarray]]:
    """Parameter tensors in the fixed checkpoint order."""
    out: list[tuple[str, np.ndarray]] = []
    for i, layer in enumerate(model.layers, start=1):
        out.append((f"layer{i}.w_x", layer.w_x))
        out.append((f"layer{i}.w_h", layer.w_h))
        out.append((f"layer{i}.b", layer.b))
    out.append(("head.w", model.head_w))
    out.append(("head.b", model.head_b))
    return out


def copy_model(model: LstmModel) -> LstmModel:
    return LstmModel(
        layers=[LstmLayerParams(l.w_x.copy(), l.w_h.copy(), l.b.copy())
                for l in model.layers],
        head_w=model.head_w.copy(),
        head_b=model.head_b.copy(),
        hidden_size=model.hidden_size,
    )


@lru_cache(maxsize=8)
def _gate_affine(h: int) -> np.ndarray:
    """Read-only rows (scale, shift): tanh(z * scale) * scale + shift is the
    sigmoid on the i, f and o columns and tanh on the g columns."""
    affine = np.repeat([[0.5, 0.5, 1.0, 0.5], [0.5, 0.5, 0.0, 0.5]], h, axis=1)
    affine.flags.writeable = False
    return affine


def lstm_step(gates: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray,
              w_hT: np.ndarray, rec: np.ndarray, c_t: np.ndarray,
              tanh_c: np.ndarray, h_t: np.ndarray) -> None:
    """One LSTM step for a batch, written into the caller's arrays.

    ``gates`` (B, 4H) holds the step's input projection plus bias and
    receives the activated [i, f, g, o]; ``w_hT`` (H, 4H) is the transposed
    recurrent weights and ``rec`` (B, 4H) scratch for ``h_prev @ w_hT``.
    ``c_t``, ``tanh_c`` and ``h_t`` (B, H) receive the new cell state, its
    tanh and the new hidden state.
    """
    h = h_prev.shape[-1]
    scale, shift = _gate_affine(h)
    np.matmul(h_prev, w_hT, out=rec)
    gates += rec
    gates *= scale
    np.tanh(gates, out=gates)
    gates *= scale
    gates += shift
    i_g, f_g, g_g, o_g = gates.reshape(-1, 4, h).transpose(1, 0, 2)
    np.multiply(f_g, c_prev, out=c_t)
    c_t += i_g * g_g
    np.tanh(c_t, out=tanh_c)
    np.multiply(o_g, tanh_c, out=h_t)


@dataclass
class _LayerTrace:
    x: np.ndarray  # (T, B, D) layer input
    gates: np.ndarray  # (T, B, 4H) the gates, then their gradients
    hs: np.ndarray  # (T+1, B, H)
    cs: np.ndarray  # (T+1, B, H)


@dataclass
class ForwardCache:
    traces: list[_LayerTrace]
    h_top: np.ndarray  # (B, H) final hidden state of the top layer
    static: np.ndarray  # (B, S)
    p: np.ndarray  # (B,)


def forward_batch(seq: np.ndarray, static: np.ndarray, model: LstmModel,
                  want_cache: bool = False
                  ) -> tuple[np.ndarray, ForwardCache | None]:
    """Probabilities for a batch: seq (B, T, D), static (B, S)."""
    seq = np.asarray(seq, dtype=np.float64)
    static = np.asarray(static, dtype=np.float64)
    h = model.hidden_size
    if (seq.ndim != 3 or seq.shape[2] != model.layers[0].w_x.shape[1]
            or static.shape != (seq.shape[0], model.head_w.size - h)):
        raise DimensionError(f"inputs {seq.shape} and {static.shape} do not "
                             "fit the model's input and static widths")
    if not (np.all(np.isfinite(seq)) and np.all(np.isfinite(static))):
        raise DataError("non-finite model input")
    b, t, _ = seq.shape
    x = np.ascontiguousarray(seq.transpose(1, 0, 2))
    rec = np.empty((b, 4 * h))
    tanh_c = np.empty((b, h))
    # Without a cache only the hidden states outlive a step: one gate buffer
    # and one hidden-state buffer serve all three layers, and cs keeps two
    # slots, step k using slot k % 2.
    n_cs = t + 1 if want_cache else 2
    traces: list[_LayerTrace] = []
    gates = hs = None
    for layer in model.layers:
        if want_cache or gates is None:
            gates = np.empty((t, b, 4 * h))
            hs = np.zeros((t + 1, b, h))
        np.matmul(x.reshape(t * b, -1), layer.w_x.T,
                  out=gates.reshape(t * b, 4 * h))
        gates += layer.b
        w_hT = np.ascontiguousarray(layer.w_h.T)
        cs = np.zeros((n_cs, b, h))
        for step in range(t):
            lstm_step(gates[step], hs[step], cs[step % n_cs], w_hT, rec,
                      cs[(step + 1) % n_cs], tanh_c, hs[step + 1])
        if want_cache:
            traces.append(_LayerTrace(x=x, gates=gates, hs=hs, cs=cs))
        x = hs[1:]
    h_top = hs[t]
    z_head = h_top @ model.head_w[:h] + static @ model.head_w[h:] + model.head_b[0]
    p = sigmoid(z_head)
    cache = ForwardCache(traces=traces, h_top=h_top, static=static, p=p) \
        if want_cache else None
    return p, cache


def bce_loss(p: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy with probability clamping."""
    p = np.clip(np.asarray(p, dtype=np.float64), BCE_CLAMP, 1.0 - BCE_CLAMP)
    y = np.asarray(y, dtype=np.float64)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def backward_batch(model: LstmModel, cache: ForwardCache, labels: np.ndarray
                   ) -> dict[str, np.ndarray]:
    """Exact gradients of the mean BCE over the batch, keyed like named_params.

    Consumes ``cache``: each step's gate gradients overwrite its cached
    gates, and each layer's trace leaves ``cache.traces`` as its gradients
    are taken. A consumed cache raises TrainingError.

    The analytic head gradient uses dz = p - y, which matches the clamped
    loss everywhere except in the saturated clamp region (|z| above ~16).
    """
    if len(cache.traces) != N_LAYERS:
        raise TrainingError("forward cache already consumed by backward_batch")
    h = model.hidden_size
    y = np.asarray(labels, dtype=np.float64)
    b = y.shape[0]
    p = np.clip(cache.p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    dz = (p - y) / b  # (B,)

    grads: dict[str, np.ndarray] = {}
    head_in = np.concatenate([cache.h_top, cache.static], axis=1)
    grads["head.w"] = head_in.T @ dz
    grads["head.b"] = np.array([dz.sum()])

    t = cache.traces[0].gates.shape[0]
    deriv = np.empty((b, 4 * h))
    # Gradient flowing into each layer's output sequence; the top layer only
    # receives signal at the final step, through the head.
    d_out = None
    for layer_idx in range(N_LAYERS - 1, -1, -1):
        layer = model.layers[layer_idx]
        trace = cache.traces.pop()
        dh_carry = (np.outer(dz, model.head_w[:h]) if d_out is None
                    else np.zeros((b, h)))
        dc_carry = np.zeros((b, h))
        for step in range(t - 1, -1, -1):
            dh = dh_carry if d_out is None else d_out[step] + dh_carry
            row = trace.gates[step]
            i_g, f_g, g_g, o_g = row.reshape(b, 4, h).transpose(1, 0, 2)
            tanh_c = np.tanh(trace.cs[step + 1])
            dc = dc_carry + dh * o_g * (1.0 - tanh_c * tanh_c)
            dc_carry = dc * f_g
            # s(1 - s) on the sigmoid gates, 1 - g^2 on the cell gate.
            np.subtract(1.0, row, out=deriv)
            deriv *= row
            np.subtract(1.0, g_g * g_g, out=deriv[:, 2 * h : 3 * h])
            # Every gate is read; overwrite the row with the gate gradients.
            dc_i = dc * i_g
            np.multiply(dc, g_g, out=i_g)
            np.multiply(dc, trace.cs[step], out=f_g)
            g_g[...] = dc_i
            np.multiply(dh, tanh_c, out=o_g)
            row *= deriv
            dh_carry = row @ layer.w_h
        dz_flat = trace.gates.reshape(t * b, 4 * h)
        name = f"layer{layer_idx + 1}"
        grads[f"{name}.w_x"] = dz_flat.T @ trace.x.reshape(t * b, -1)
        grads[f"{name}.w_h"] = dz_flat.T @ trace.hs[:-1].reshape(t * b, h)
        grads[f"{name}.b"] = dz_flat.sum(axis=0)
        if layer_idx > 0:
            d_out = (dz_flat @ layer.w_x).reshape(t, b, -1)
        del trace, dz_flat  # free the layer before the next one's steps
    return grads


def predict(model: LstmModel, seq: np.ndarray, static: np.ndarray,
            batch_size: int = 256) -> np.ndarray:
    """Pure forward pass over many stays; no state is mutated."""
    seq = np.asarray(seq, dtype=np.float64)
    static = np.asarray(static, dtype=np.float64)
    out = np.empty(seq.shape[0])
    for start in range(0, seq.shape[0], batch_size):
        stop = start + batch_size
        p, _ = forward_batch(seq[start:stop], static[start:stop], model)
        out[start:stop] = p
    return out


def save_checkpoint(model: LstmModel, path: str | Path) -> None:
    """Versioned binary checkpoint.

    Layout: magic ``ICUM1``, little-endian u32 hidden size, then each
    parameter tensor from named_params in order as (u32 rows, u32 cols,
    row-major float64). Vectors are stored as a single column.
    """
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", model.hidden_size))
        for _, arr in named_params(model):
            mat = arr if arr.ndim == 2 else arr.reshape(-1, 1)
            fh.write(struct.pack("<II", mat.shape[0], mat.shape[1]))
            fh.write(np.ascontiguousarray(mat, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> LstmModel:
    """Read a save_checkpoint file; any malformed content is a DataError."""
    blob = read_artifact(path)
    buf = io.BytesIO(blob)
    if buf.read(len(MAGIC)) != MAGIC:
        raise DataError(f"{path}: not a model checkpoint (bad magic)")

    def take(n: int) -> bytes:
        if n > len(blob) - buf.tell():
            raise DataError(f"{path}: truncated checkpoint")
        return buf.read(n)

    def read_mat() -> np.ndarray:
        rows, cols = struct.unpack("<II", take(8))
        data = take(rows * cols * 8)
        return np.frombuffer(data, dtype="<f8").reshape(rows, cols).copy()

    (h,) = struct.unpack("<I", take(4))
    layers = [LstmLayerParams(read_mat(), read_mat(), read_mat().reshape(-1))
              for _ in range(N_LAYERS)]
    model = LstmModel(layers=layers, head_w=read_mat().reshape(-1),
                      head_b=read_mat().reshape(-1), hidden_size=h)
    if buf.tell() != len(blob):
        raise DataError(f"{path}: trailing bytes after the last tensor")
    widths = [layers[0].w_x.shape[1]] + [h] * (N_LAYERS - 1)
    expected = [((4 * h, d), (4 * h, h), (4 * h,)) for d in widths]
    found = [(l.w_x.shape, l.w_h.shape, l.b.shape) for l in layers]
    if h < 1 or found != expected or model.head_w.size <= h or model.head_b.size != 1:
        raise DataError(f"{path}: inconsistent tensor shapes")
    for name, arr in named_params(model):
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: {name} holds a non-finite value")
    return model
