"""Run configurations of the synth and train stages, with their defaults.

The fields of these dataclasses are exactly the synth and train options of
the command line, with their defaults, plus the ``seed`` that each stage
derives from ``--seed``. This module needs only the standard library, so
building the command-line parser loads no stage module.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import ConfigError


@dataclass
class SynthConfig:
    n_patients: int
    seed: int
    mortality_rate: float = 0.115
    readmission_rate: float = 0.15
    long_stay_frac: float = 0.8
    age_min: float = 14.0
    age_max: float = 97.0
    signal_mode: str = "none"
    effect_size: float = 1.0
    missing_scale: float = 1.0
    celsius_rate: float = 0.25
    error_text_rate: float = 0.05
    duplicate_rate: float = 0.05
    missing_span_rate: float = 0.1

    def validate(self) -> None:
        if self.n_patients < 5:
            raise ConfigError("n_patients must be at least 5")
        for name, value in asdict(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
            # Every *_rate and *_frac field is a probability.
            if name.endswith(("_rate", "_frac")) and not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.age_min >= self.age_max or self.age_min < 0:
            raise ConfigError("age range must satisfy 0 <= age_min < age_max")
        if self.signal_mode not in ("none", "static_only", "temporal_trend"):
            raise ConfigError(f"unknown signal_mode {self.signal_mode!r}")
        if self.effect_size < 0 or self.missing_scale < 0:
            raise ConfigError("effect_size and missing_scale must be nonnegative")


@dataclass
class TrainConfig:
    batch_size: int = 32
    max_epochs: int = 10
    patience: int = 3
    seed: int = 0
    learning_rate: float = 0.001
    hidden_size: int = 64
    monitor: str = "loss"  # "loss" (minimize) or "auc" (maximize)

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be at least 1")
        if self.patience < 0:
            raise ConfigError("patience must be nonnegative")
        if self.hidden_size < 1:
            raise ConfigError("hidden_size must be at least 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and positive, "
                              f"got {self.learning_rate}")
        if self.monitor not in ("loss", "auc"):
            raise ConfigError(f"unknown early-stopping monitor {self.monitor!r}")
