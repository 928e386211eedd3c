"""Training loop for the LSTM: minibatches, early stopping, best-weight restore."""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .adam import AdamState, adam_step
from .errors import ConfigError, TrainingError
from .metrics import evaluate_scores
from .nn import (
    LstmModel,
    backward_batch,
    bce_loss,
    copy_model,
    forward_batch,
    init_weights,
    named_params,
    predict,
)
from .seeding import SplitMix64, derive_seed

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    batch_size: int = 32
    max_epochs: int = 10
    patience: int = 3
    seed: int = 0
    shuffle: bool = True
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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and positive, "
                              f"got {self.learning_rate}")
        if self.monitor not in ("loss", "auc"):
            raise ConfigError(f"unknown early-stopping monitor {self.monitor!r}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_auc: float


class EarlyStopper:
    """Tracks the best monitored value and counts non-improving epochs."""

    def __init__(self, patience: int, mode: str = "min"):
        if mode not in ("min", "max"):
            raise ConfigError(f"unknown mode {mode!r}")
        self.patience = patience
        self.mode = mode
        self.best: Optional[float] = None
        self.best_epoch: Optional[int] = None
        self.bad_epochs = 0

    def update(self, value: float, epoch: int) -> bool:
        """Record an epoch's value; True when it is a strict improvement."""
        improved = (
            self.best is None
            or (self.mode == "min" and value < self.best)
            or (self.mode == "max" and value > self.best)
        )
        if math.isnan(value):
            improved = self.best is None
        if improved:
            self.best = value
            self.best_epoch = epoch
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
        return improved

    @property
    def should_stop(self) -> bool:
        # Never right after an improving epoch: patience 0 stops at the first
        # epoch that does not improve.
        return self.bad_epochs >= max(self.patience, 1)


def train(
    train_data: tuple[np.ndarray, np.ndarray, np.ndarray],
    val_data: tuple[np.ndarray, np.ndarray, np.ndarray],
    config: TrainConfig,
) -> tuple[LstmModel, list[EpochStats]]:
    """Train the LSTM; returns the best-validation model and the history.

    Runs at most ``max_epochs`` epochs of seeded-shuffle minibatches (the
    last partial batch is trained on, not dropped). After each epoch the
    validation loss and AUC are recorded; the parameters at the best
    monitored value are retained and returned after ``patience``
    non-improving epochs or at the epoch cap.
    """
    config.validate()
    seq_tr, static_tr, y_tr = (np.asarray(a, dtype=np.float64) for a in train_data)
    seq_va, static_va, y_va = (np.asarray(a, dtype=np.float64) for a in val_data)
    n = seq_tr.shape[0]
    if n == 0 or seq_va.shape[0] == 0:
        raise ConfigError("train and validation splits must be nonempty")

    model = init_weights(hidden_size=config.hidden_size,
                         n_features=seq_tr.shape[2],
                         n_static=static_tr.shape[1],
                         seed=derive_seed(config.seed, "init"))
    state = AdamState(lr=config.learning_rate)
    params = dict(named_params(model))
    stopper = EarlyStopper(config.patience,
                           mode="min" if config.monitor == "loss" else "max")
    best_model = copy_model(model)
    history: list[EpochStats] = []

    for epoch in range(1, config.max_epochs + 1):
        order = list(range(n))
        if config.shuffle:
            SplitMix64(derive_seed(config.seed, "epoch", epoch)).shuffle(order)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            p, cache = forward_batch(seq_tr[idx], static_tr[idx], model,
                                     want_cache=True)
            loss = bce_loss(p, y_tr[idx])
            if not math.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, "
                    f"batch {start // config.batch_size}"
                )
            grads = backward_batch(model, cache, y_tr[idx])
            adam_step(params, grads, state)
            loss_sum += loss * len(idx)
        train_loss = loss_sum / n

        val_scores = predict(model, seq_va, static_va)
        val_loss = bce_loss(val_scores, y_va)
        val_auc = evaluate_scores(val_scores, y_va).auc
        history.append(EpochStats(epoch, train_loss, val_loss, val_auc))
        monitored = val_loss if config.monitor == "loss" else val_auc
        if stopper.update(monitored, epoch):
            best_model = copy_model(model)
        log.info("epoch %d: train_loss=%.5f val_loss=%.5f val_auc=%.4f",
                 epoch, train_loss, val_loss, val_auc)
        if stopper.should_stop:
            log.info("early stop after epoch %d (best epoch %d)",
                     epoch, stopper.best_epoch)
            break
    return best_model, history


def write_history_csv(path: str | Path, history: list[EpochStats]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "train_loss", "val_loss", "val_auc"])
        for row in history:
            writer.writerow([
                row.epoch,
                f"{row.train_loss:.9g}",
                f"{row.val_loss:.9g}",
                f"{row.val_auc:.9g}",
            ])
