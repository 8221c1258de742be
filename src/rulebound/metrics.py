"""Prediction-quality and rule-obedience metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .rules import RuleSet, violation_matrix
from .supervision import ORIGIN_MASKED, ORIGIN_SELF_CORRECTED, SupervisionState

if TYPE_CHECKING:
    from .data import Dataset


@dataclass(frozen=True)
class LabelScores:
    label: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class CorrectionStats:
    """How supervision repair handled the injected noise positions."""

    n_flipped: int
    n_corrected_right: int
    n_corrected_wrong: int
    n_still_masked: int
    n_undetected: int
    recovery_rate: float | None


@dataclass
class MetricsReport:
    per_label: list[LabelScores]
    macro_f1: float
    micro_f1: float
    exact_match: float
    cvr: float
    correction: CorrectionStats | None
    eval_target: str  # "clean" when scored against pre-noise labels, else "given"


def _binary_matrix(A, what: str) -> np.ndarray:
    arr = np.asarray(A)
    if arr.ndim != 2:
        raise ValueError(f"{what} must be 2-D, got shape {arr.shape}")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError(f"{what} entries must be 0 or 1")
    return arr.astype(np.int64)


def _prediction_pair(Yhat, Yref) -> tuple[np.ndarray, np.ndarray]:
    """Predictions and reference labels as 0/1 int64 matrices of one shape."""
    yhat = _binary_matrix(Yhat, "predictions")
    yref = _binary_matrix(Yref, "reference labels")
    if yhat.shape != yref.shape:
        raise ValueError(f"shape mismatch: {yhat.shape} vs {yref.shape}")
    return yhat, yref


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    # 0/0 counts as 0 throughout
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def f1_scores(
    Yhat, Yref, names: Sequence[str] | None = None
) -> tuple[list[LabelScores], float, float]:
    """Per-label precision/recall/F1 plus the macro and micro averages."""
    yhat, yref = _prediction_pair(Yhat, Yref)
    n_labels = yhat.shape[1]
    if names is not None and len(names) != n_labels:
        raise ValueError("names length differs from label count")
    # per-label counts as Python ints, one column-wise sum each
    tp = (yhat & yref).sum(axis=0).tolist()
    fp = (yhat > yref).sum(axis=0).tolist()
    fn = (yhat < yref).sum(axis=0).tolist()
    per_label: list[LabelScores] = []
    f1_sum = 0.0
    for j in range(n_labels):
        precision, recall, f1 = _prf(tp[j], fp[j], fn[j])
        per_label.append(
            LabelScores(names[j] if names is not None else str(j), precision, recall, f1, tp[j] + fn[j])
        )
        f1_sum += f1  # left to right: sum() compensates rounding on Python 3.12+
    macro = f1_sum / n_labels
    micro = _prf(sum(tp), sum(fp), sum(fn))[2]
    return per_label, macro, micro


def exact_match(Yhat, Yref) -> float:
    """Fraction of samples whose whole label vector is predicted exactly."""
    yhat, yref = _prediction_pair(Yhat, Yref)
    return float((yhat == yref).all(axis=1).mean())


def cvr(Yhat, rs: RuleSet) -> float:
    """Constraint violation rate: violated (sample, rule) pairs over all pairs."""
    violations = violation_matrix(rs, Yhat)
    n, r = violations.shape
    if r == 0:
        return 0.0
    return float(violations.sum() / (n * r))


def correction_report(state: SupervisionState, ds: "Dataset") -> CorrectionStats:
    """Partition the dataset's flipped positions by how training treated them.

    Positions that were never flagged stayed in the loss with their noisy
    value and count as undetected.
    """
    if ds.clean_Y is None:
        raise ValueError("dataset carries no noise record")
    flipped = ds.Y != ds.clean_Y
    corrected = flipped & (state.origin == ORIGIN_SELF_CORRECTED)
    right = int((corrected & (state.targets == ds.clean_Y)).sum())
    wrong = int(corrected.sum()) - right
    still_masked = int((flipped & (state.origin == ORIGIN_MASKED)).sum())
    n_flipped = int(flipped.sum())
    undetected = n_flipped - right - wrong - still_masked
    recovery = right / n_flipped if n_flipped else None
    return CorrectionStats(n_flipped, right, wrong, still_masked, undetected, recovery)
