"""Binary classification evaluation: confusion counts, P/R/F1, ROC, AUC.

The trapezoidal AUC over the ROC sweep is cross-checked (in tests and on
demand) against an independent concordance oracle that enumerates every
positive/negative pair, crediting ties one half. Tied scores collapse to a
single ROC point, so both routes agree to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, DimensionError
from .tables import write_artifact_rows


@dataclass
class EvalReport:
    n: int
    positives: int
    threshold: float
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float
    recall: float
    f1: float
    auc: float


def _check_pair(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise DimensionError(
            f"scores and labels differ in length: {scores.shape} vs {labels.shape}"
        )
    if not np.all((labels == 0) | (labels == 1)):
        raise DataError("labels must be 0 or 1")
    if not np.isfinite(scores).all():
        raise DataError("scores must be finite")
    return scores, labels.astype(np.int64)


def confusion(scores: Sequence[float], labels: Sequence[int],
              threshold: float) -> tuple[int, int, int, int]:
    """(tp, fp, tn, fn) counting score >= threshold as a positive call."""
    scores, labels = _check_pair(scores, labels)
    pred = scores >= threshold
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    tn = int(np.sum(~pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    return tp, fp, tn, fn


def prf1(tp: int, fp: int, tn: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall, F1; empty denominators yield 0 by convention.

    F1 uses the count form 2tp/(2tp+fp+fn), which equals the harmonic mean
    of precision and recall wherever that is defined and rounds exactly.
    """
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2.0 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn > 0 else 0.0
    return precision, recall, f1


def roc_curve_with_thresholds(
    scores: Sequence[float], labels: Sequence[int]
) -> list[tuple[float, float, Optional[float]]]:
    """ROC points (fpr, tpr, threshold), threshold None on the prepended (0,0).

    Thresholds sweep the distinct scores in descending order; all samples
    tied at one score enter together, so ties produce a single point and the
    curve crosses any tie block along one diagonal segment. Every tie block
    moves tp or fp, and the last one counts every sample, so the points are
    distinct and end at (1,1).
    """
    scores, labels = _check_pair(scores, labels)
    n_pos = int(labels.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC requires both classes present")
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    block_change = ranked[1:] != ranked[:-1]
    # Read the running counts at the end of each tie block; its threshold is
    # the block's first score.
    ends = np.flatnonzero(np.append(block_change, True))
    tp = np.cumsum(labels[order])[ends].tolist()
    starts = np.flatnonzero(np.insert(block_change, 0, True))
    thresholds = ranked[starts].tolist()
    return [(0.0, 0.0, None)] + [
        ((end + 1 - t) / n_neg, t / n_pos, thr)
        for end, t, thr in zip(ends.tolist(), tp, thresholds)
    ]


def auc(roc_points: Sequence[tuple[float, ...]]) -> float:
    """Trapezoidal area under ROC points (fpr, tpr, ...), left to right."""
    area = 0.0
    for (x0, y0, *_), (x1, y1, *_) in zip(roc_points, roc_points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def auc_oracle(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Concordance AUC by exhaustive pair enumeration; ties credit one half."""
    scores, labels = _check_pair(scores, labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        raise DataError("AUC requires both classes present")
    concordant = np.sum(pos[:, None] > neg[None, :])
    tied = np.sum(pos[:, None] == neg[None, :])
    return float((concordant + 0.5 * tied) / (pos.size * neg.size))


def _both_classes(labels: np.ndarray) -> bool:
    positives = int(labels.sum())
    return 0 < positives < labels.size


def evaluate_scores(scores: Sequence[float], labels: Sequence[int],
                    threshold: float = 0.5) -> EvalReport:
    """Full evaluation of one model on one split.

    The AUC is the trapezoid under ``roc_curve_with_thresholds``. A split
    holding one class has no ROC: its ``auc`` is nan, while the confusion
    counts and P/R/F1 still hold.
    """
    scores_arr, labels_arr = _check_pair(scores, labels)
    tp, fp, tn, fn = confusion(scores_arr, labels_arr, threshold)
    precision, recall, f1 = prf1(tp, fp, tn, fn)
    return EvalReport(
        n=int(labels_arr.size),
        positives=int(labels_arr.sum()),
        threshold=threshold,
        tp=tp, fp=fp, tn=tn, fn=fn,
        precision=precision, recall=recall, f1=f1,
        auc=(auc(roc_curve_with_thresholds(scores_arr, labels_arr))
             if _both_classes(labels_arr) else float("nan")),
    )


def write_roc_csv(path: str | Path, scores: Sequence[float],
                  labels: Sequence[int]) -> None:
    """Export the ROC as ``fpr,tpr,threshold`` (blank on the prepended (0,0)).

    When the labels hold one class there is no ROC, and only the header row
    is written.
    """
    scores, labels = _check_pair(scores, labels)
    points = (roc_curve_with_thresholds(scores, labels)
              if _both_classes(labels) else [])
    write_artifact_rows(path, ["fpr", "tpr", "threshold"], points)


def write_report_csv(path: str | Path,
                     reports: Sequence[tuple[str, str, EvalReport]]) -> None:
    """One row per (model, split) with the report fields in order."""
    names = [f.name for f in fields(EvalReport)]
    write_artifact_rows(path, ["model", "split", *names], (
        [model, split, *(getattr(r, name) for name in names)]
        for model, split, r in reports
    ))
