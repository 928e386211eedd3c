"""Adam optimizer kernel shared by the LSTM and the baseline."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # the Adam paper's defaults


@dataclass
class AdamState:
    """Per-parameter moment accumulators and the shared step counter."""

    lr: float = 0.001
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState) -> dict[str, np.ndarray]:
    """One bias-corrected Adam update, applied in place to every parameter.

    The step counter is incremented before the update. A non-finite gradient
    aborts training, reporting the offending parameter.
    """
    state.t += 1
    corr1 = 1.0 - BETA1**state.t
    corr2 = 1.0 - BETA2**state.t
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {name}")
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        m_hat = m / corr1
        v_hat = v / corr2
        p -= state.lr * m_hat / (np.sqrt(v_hat) + EPS)
    return params
