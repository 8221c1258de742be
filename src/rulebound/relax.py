"""Smooth relaxation of label rules over predicted probabilities.

Boolean structure is relaxed multiplicatively: a rule's violation degree is
the product of its antecedent literal values with the complements of its
consequent literal values. The degree lives in [0, 1], is polynomial in the
probabilities, and agrees with crisp evaluation at 0/1 vectors (1 exactly on
violating assignments, 0 on satisfied ones). Rule sets are evaluated through
their compiled `RuleSet.factor_index`. Factors multiply and rules add in stored
order, and `domain_loss` runs over fixed blocks of rows, so results are bitwise
reproducible and a full-data pass holds one block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rules import Literal, Rule, RuleSet, _factor_row

# rows per block of a `domain_loss` pass
_BLOCK_ROWS = 512


@dataclass(frozen=True)
class PenaltyResult:
    """Violation degree of one rule at one probability vector, with its gradient."""

    value: float
    grad: np.ndarray


@dataclass(frozen=True)
class BatchPenaltyResult:
    """Per-sample violation degrees of one rule, with per-sample gradient rows."""

    values: np.ndarray  # (n,)
    grads: np.ndarray  # (n, n_labels)


def _check_probabilities(p) -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    # NaN and infinities fail the range test too
    if not ((arr >= 0) & (arr <= 1)).all():
        raise ValueError("probabilities must lie in [0, 1]")
    return arr


def literal_value(lit: Literal, p) -> float:
    """Relaxed truth value of a literal: p[label], or its complement when negated."""
    arr = _check_probabilities(p)
    if arr.ndim != 1:
        raise ValueError(f"probability vector must be 1-D, got shape {arr.shape}")
    if lit.label >= arr.shape[0]:
        raise ValueError(f"literal label {lit.label} outside vector of length {arr.shape[0]}")
    value = arr[lit.label]
    return float(1.0 - value) if lit.negated else float(value)


def _columns(P: np.ndarray) -> np.ndarray:
    """[P, 1 - P, 1]: the columns a factor index reads."""
    return np.concatenate([P, 1.0 - P, np.ones((P.shape[0], 1))], axis=1)


def _penalties(P: np.ndarray, index: np.ndarray, weights: np.ndarray):
    """Violation degrees (n x rules) of the rules in a factor index, and the
    gradient of their weighted sum in P, scattered in stored order.

    A factor's partial is the product of the others, prefix times suffix: no
    division, as factors may be exactly 0.
    """
    n, width = P.shape
    factors = _columns(P)[:, index]  # (n, rules, k)
    k = index.shape[1]
    prefix = np.ones(factors.shape[:2] + (k + 1,))
    np.multiply.accumulate(factors, axis=2, out=prefix[:, :, 1:])
    suffix = np.ones_like(prefix)
    suffix[:, :, :k] = np.multiply.accumulate(factors[:, :, ::-1], axis=2)[:, :, ::-1]
    sign = np.where(index < width, 1.0, np.where(index < 2 * width, -1.0, 0.0))
    partials = prefix[:, :, :k] * suffix[:, :, 1:] * (sign * weights[:, None])
    grad = np.zeros((n, width))
    # padding (column 2 * width) adds a zero partial to label 0
    np.add.at(grad, (np.arange(n)[:, None, None], index % width), partials)
    return prefix[:, :, k], grad


def rule_penalty(rule: Rule, p) -> PenaltyResult:
    """Violation degree of one rule and its exact gradient in each probability."""
    arr = _check_probabilities(p)
    if arr.ndim != 1:
        raise ValueError(f"probability vector must be 1-D, got shape {arr.shape}")
    batch = rule_penalty_batch(rule, arr[None, :])
    return PenaltyResult(float(batch.values[0]), batch.grads[0])


def rule_penalty_batch(rule: Rule, P) -> BatchPenaltyResult:
    """`rule_penalty` over a whole batch in one pass."""
    arr = _check_probabilities(P)
    if arr.ndim != 2:
        raise ValueError(f"probability matrix must be 2-D, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("empty batch")
    values, grads = _penalties(arr, np.array([_factor_row(rule, arr.shape[1])]), np.ones(1))
    return BatchPenaltyResult(values[:, 0], grads)


def _check_batch(rs: RuleSet, P) -> np.ndarray:
    arr = _check_probabilities(P)
    if arr.ndim != 2 or arr.shape[1] != len(rs.vocabulary):
        raise ValueError(
            f"probability matrix has shape {arr.shape}, expected (n, {len(rs.vocabulary)})"
        )
    if arr.shape[0] == 0:
        raise ValueError("empty batch")
    return arr


def domain_loss(rs: RuleSet, P) -> float:
    """Weight-normalized mean violation degree over a batch of probability rows.

    Zero for an empty rule set; per-sample degrees are averaged over samples.
    """
    arr = _check_batch(rs, P)
    if not rs.rules:
        return 0.0
    total = np.empty(arr.shape[0])
    for start in range(0, arr.shape[0], _BLOCK_ROWS):
        columns = _columns(arr[start : start + _BLOCK_ROWS])
        degrees = np.ones((columns.shape[0], len(rs.rules)))
        for factor in rs.factor_index.T:
            degrees *= columns[:, factor]
        total[start : start + _BLOCK_ROWS] = np.cumsum(degrees * rs.weights, axis=1)[:, -1]
    return float(np.mean(total / np.cumsum(rs.weights)[-1]))


def domain_loss_grad(rs: RuleSet, P) -> np.ndarray:
    """Exact gradient of `domain_loss` with respect to every probability entry."""
    arr = _check_batch(rs, P)
    if not rs.rules:
        return np.zeros_like(arr)
    _, grad = _penalties(arr, rs.factor_index, rs.weights)
    grad /= np.cumsum(rs.weights)[-1] * arr.shape[0]
    return grad
