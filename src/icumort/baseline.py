"""L2-regularized logistic regression on last-hour plus static features.

The comparison model sees the 13 channel values at hour 47 concatenated with
the 7 static features, exactly as standardized for the sequence model. It is
fit by full-batch gradient descent with the shared Adam kernel; the learning
rate holds at 0.1 for 300 iterations to cover distance, then decays
geometrically to 1e-8 over the remaining 200 so the iterate settles onto the
convex optimum instead of oscillating around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adam import AdamState, adam_step
from .errors import ConfigError, DataError
from .featurize import STATIC_FEATURES
from .items import N_CHANNELS
from .nn import sigmoid
from .tables import finite_float, read_artifact

MAX_ITERATIONS = 500
PLATEAU_ITERATIONS = 300
FINAL_LR_RATIO = 1e-7  # 0.1 decays to 1e-8 across the tail
GRAD_NORM_TOL = 1e-8


@dataclass
class LrModel:
    weights: np.ndarray  # (20,)
    bias: float
    lam: float


def last_hour_features(seq: np.ndarray, static: np.ndarray) -> np.ndarray:
    """Hour-47 channel values of (n, 48, 13) ``seq`` beside (n, 7) ``static``."""
    return np.concatenate([seq[:, -1, :], static], axis=1)


def lr_objective(weights: np.ndarray, bias: float, features: np.ndarray,
                 labels: np.ndarray, lam: float) -> float:
    """Mean BCE plus (lam/2)||w||^2; the bias is not penalized."""
    z = features @ weights + bias
    # log(1 + exp(-|z|)) form avoids overflow at large |z|.
    losses = np.logaddexp(0.0, -z) + (1.0 - labels) * z
    return float(np.mean(losses) + 0.5 * lam * np.dot(weights, weights))


def lr_gradients(weights: np.ndarray, bias: float, features: np.ndarray,
                 labels: np.ndarray, lam: float) -> tuple[np.ndarray, float]:
    p = sigmoid(features @ weights + bias)
    residual = p - labels
    grad_w = features.T @ residual / labels.size + lam * weights
    grad_b = float(np.mean(residual))
    return grad_w, grad_b


def check_lambda(lam: float) -> None:
    """Reject an L2 weight that is negative, nan or infinite."""
    if not 0.0 <= lam < math.inf:  # false for nan as well
        raise ConfigError(f"l2_lambda must be finite and nonnegative, got {lam}")


def train_lr(features: np.ndarray, labels: np.ndarray, lam: float = 1.0
             ) -> LrModel:
    """Fit the baseline; deterministic (zero init, fixed schedule).

    Stops at the iteration cap or when the joint gradient norm drops below
    1e-8. Requires at least two samples and both classes present.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ConfigError("features must be (n, d) aligned with labels")
    if features.shape[0] < 2:
        raise ConfigError("need at least two samples to fit")
    if len(set(labels.tolist())) < 2:
        raise DataError("labels are single-class; cannot fit a classifier")
    check_lambda(lam)

    weights = np.zeros(features.shape[1])
    bias = np.zeros(1)
    params = {"w": weights, "b": bias}
    state = AdamState(lr=0.1)
    decay = FINAL_LR_RATIO ** (1.0 / (MAX_ITERATIONS - PLATEAU_ITERATIONS))
    for it in range(MAX_ITERATIONS):
        grad_w, grad_b = lr_gradients(weights, float(bias[0]), features,
                                      labels, lam)
        norm = float(np.sqrt(np.dot(grad_w, grad_w) + grad_b * grad_b))
        if norm < GRAD_NORM_TOL:
            break
        if it >= PLATEAU_ITERATIONS:
            state.lr *= decay
        adam_step(params, {"w": grad_w, "b": np.array([grad_b])}, state)
    return LrModel(weights=weights, bias=float(bias[0]), lam=lam)


def predict_lr(model: LrModel, features: np.ndarray) -> np.ndarray:
    """sigmoid(w.x + b) for one feature vector or a batch."""
    features = np.asarray(features, dtype=np.float64)
    return sigmoid(features @ model.weights + model.bias)


_COEF_NAMES = [f"seq_c{i}_h47" for i in range(N_CHANNELS)] + list(STATIC_FEATURES)


def save_lr(model: LrModel, path: str | Path, seed: int) -> None:
    """Text checkpoint: 21 labeled coefficients plus lambda and seed."""
    lines = [f"lambda {model.lam:.17g}", f"seed {seed}"]
    for name, w in zip(_COEF_NAMES, model.weights):
        lines.append(f"{name} {w:.17g}")
    lines.append(f"bias {model.bias:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_lr(path: str | Path) -> LrModel:
    text = read_artifact(path).decode("utf-8", errors="replace")
    values: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 2:
            raise DataError(f"{path}:{lineno}: expected 'name value', "
                            f"got {line!r}")
        key, raw = fields
        value = finite_float(raw)
        if value is None:
            raise DataError(f"{path}:{lineno}: {key} is not a finite "
                            f"number: {raw!r}")
        values[key] = value
    try:
        weights = np.array([values[name] for name in _COEF_NAMES])
        return LrModel(weights=weights, bias=values["bias"], lam=values["lambda"])
    except KeyError as exc:
        raise DataError(f"{path}: missing coefficient {exc}") from exc
