"""Training loop for the LSTM: minibatches, early stopping, best-weight restore."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .adam import AdamState, adam_step
from .config import TrainConfig
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
from .tables import write_artifact_rows

log = logging.getLogger(__name__)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_auc: float


class EarlyStopper:
    """Tracks the lowest monitored value and counts non-improving epochs."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best: Optional[float] = None
        self.best_epoch: Optional[int] = None
        self.bad_epochs = 0

    def update(self, value: float, epoch: int) -> bool:
        """Record an epoch's value; True when it is a strict improvement.

        A nan compares false, so it improves only as the first value, and
        no value improves on a nan best."""
        if self.best is None or value < self.best:
            self.best, self.best_epoch, self.bad_epochs = value, epoch, 0
            return True
        self.bad_epochs += 1
        return False

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

    Exactly one batch's BPTT cache is alive at a time. ``backward_batch``
    turns it into the batch's gate gradients in place, and the cache and
    gradients are freed once the Adam step returns, before the next batch's
    forward pass and before the validation pass.
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
    stopper = EarlyStopper(config.patience)
    best_model = copy_model(model)
    history: list[EpochStats] = []

    for epoch in range(1, config.max_epochs + 1):
        order = list(range(n))
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
            # Free this batch's BPTT cache and gradients before the next
            # forward pass (or the validation predict) builds its own.
            del p, cache, grads
        train_loss = loss_sum / n

        val_scores = predict(model, seq_va, static_va)
        val_loss = bce_loss(val_scores, y_va)
        val_auc = evaluate_scores(val_scores, y_va).auc
        history.append(EpochStats(epoch, train_loss, val_loss, val_auc))
        # Lower is better for the stopper: the loss, or the negated AUC.
        if stopper.update(val_loss if config.monitor == "loss" else -val_auc,
                          epoch):
            best_model = copy_model(model)
        log.info("epoch %d: train_loss=%.5f val_loss=%.5f val_auc=%.4f",
                 epoch, train_loss, val_loss, val_auc)
        if stopper.should_stop:
            log.info("early stop after epoch %d (best epoch %d)",
                     epoch, stopper.best_epoch)
            break
    return best_model, history


def write_history_csv(path: str | Path, history: list[EpochStats]) -> None:
    write_artifact_rows(
        path, ["epoch", "train_loss", "val_loss", "val_auc"],
        ([h.epoch, h.train_loss, h.val_loss, h.val_auc] for h in history))
