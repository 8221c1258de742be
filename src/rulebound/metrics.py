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

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "support": self.support,
        }


@dataclass(frozen=True)
class CorrectionStats:
    """How supervision repair handled the injected noise positions."""

    n_flipped: int
    n_corrected_right: int
    n_corrected_wrong: int
    n_still_masked: int
    n_undetected: int
    recovery_rate: float | None

    def as_dict(self) -> dict:
        return {
            "n_flipped": self.n_flipped,
            "n_corrected_right": self.n_corrected_right,
            "n_corrected_wrong": self.n_corrected_wrong,
            "n_still_masked": self.n_still_masked,
            "n_undetected": self.n_undetected,
            "recovery_rate": self.recovery_rate,
        }


@dataclass
class MetricsReport:
    per_label: list[LabelScores]
    macro_f1: float
    micro_f1: float
    exact_match: float
    cvr: float
    correction: CorrectionStats | None
    eval_target: str  # "clean" when scored against pre-noise labels, else "given"

    def as_dict(self) -> dict:
        return {
            "per_label": [s.as_dict() for s in self.per_label],
            "macro_f1": self.macro_f1,
            "micro_f1": self.micro_f1,
            "exact_match": self.exact_match,
            "cvr": self.cvr,
            "correction": self.correction.as_dict() if self.correction else None,
            "eval_target": self.eval_target,
        }


def _binary_matrix(A, what: str) -> np.ndarray:
    arr = np.asarray(A)
    if arr.ndim != 2:
        raise ValueError(f"{what} must be 2-D, got shape {arr.shape}")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError(f"{what} entries must be 0 or 1")
    return arr.astype(np.int64)


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
    yhat = _binary_matrix(Yhat, "predictions")
    yref = _binary_matrix(Yref, "reference labels")
    if yhat.shape != yref.shape:
        raise ValueError(f"shape mismatch: {yhat.shape} vs {yref.shape}")
    n_labels = yhat.shape[1]
    if names is not None and len(names) != n_labels:
        raise ValueError("names length differs from label count")
    per_label: list[LabelScores] = []
    tp_total = fp_total = fn_total = 0
    f1_sum = 0.0
    for j in range(n_labels):
        tp = int(((yhat[:, j] == 1) & (yref[:, j] == 1)).sum())
        fp = int(((yhat[:, j] == 1) & (yref[:, j] == 0)).sum())
        fn = int(((yhat[:, j] == 0) & (yref[:, j] == 1)).sum())
        precision, recall, f1 = _prf(tp, fp, fn)
        per_label.append(
            LabelScores(names[j] if names is not None else str(j), precision, recall, f1, tp + fn)
        )
        tp_total += tp
        fp_total += fp
        fn_total += fn
        f1_sum += f1
    macro = f1_sum / n_labels
    micro = _prf(tp_total, fp_total, fn_total)[2]
    return per_label, macro, micro


def exact_match(Yhat, Yref) -> float:
    """Fraction of samples whose whole label vector is predicted exactly."""
    yhat = _binary_matrix(Yhat, "predictions")
    yref = _binary_matrix(Yref, "reference labels")
    if yhat.shape != yref.shape:
        raise ValueError(f"shape mismatch: {yhat.shape} vs {yref.shape}")
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
