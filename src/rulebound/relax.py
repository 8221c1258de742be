"""Smooth relaxation of label rules over predicted probabilities.

Boolean structure is relaxed multiplicatively: a rule's violation degree is
the product of its antecedent literal values with the complements of its
consequent literal values. The degree lives in [0, 1], is polynomial in the
probabilities, and agrees with crisp evaluation at 0/1 vectors (1 exactly on
violating assignments, 0 on satisfied ones).

Every penalty here runs on one kernel over a rule set's compiled
`RuleSet.factor_index`. It gathers the factors through `rules.factor_values`,
the gather the crisp checks use too, factor-major, as
(factors x rules x rows), so that a loop over the few factor positions
multiplies whole (rules x rows) slabs: forward for the prefix products, whose
last holds the degrees, and backward for the suffix products. A factor's
partial is its prefix times its suffix, so a factor that is exactly 0 needs
no division. Only the live factors' partials, those the rule set's
`ScatterPlan` lists, times each one's signed weight, are scattered onto the
labels by one `np.bincount`, which adds in input order: each gradient entry
sums its terms rule by rule, factor by factor, as an ordered
(row, rule, factor) scatter would. A padding factor's partial would add
+-0.0 to label 0, and leaving it out changes no bit: a bin's sum starts at
+0.0, adding +-0.0 to a nonzero sum or to +0.0 leaves it as it was, and a sum
of nonzero terms that cancels to zero is +0.0, so no bin ever holds -0.0.
Factors multiply left to right and rules add in stored order, so results
are bitwise reproducible. `domain_loss` runs over blocks of rows that each
hold a fixed number of factor entries, so a full-data pass holds one bounded
block at a time, whatever the rule count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rules import Rule, RuleSet, ScatterPlan, compile_factors, factor_values, scatter_plan

# factor entries (factors x rules x rows) per block of a `domain_loss` pass, so
# that a pass holds about as much memory however many rules the set has
_BLOCK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class BatchPenaltyResult:
    """Per-sample violation degrees of one rule, with per-sample gradient rows."""

    values: np.ndarray  # (n,)
    grads: np.ndarray  # (n, n_labels)


def _check_batch(P, width: int) -> np.ndarray:
    arr = np.asarray(P, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"probability matrix has shape {arr.shape}, expected (n, {width})")
    if arr.shape[0] == 0:
        raise ValueError("empty batch")
    # NaN and infinities fail the range test too
    if not ((arr >= 0) & (arr <= 1)).all():
        raise ValueError("probabilities must lie in [0, 1]")
    return arr


def _normalizer(rs: RuleSet, rows: int) -> float:
    """The rule weights' total times `rows`, which a penalty over `rows` rows
    is divided by. ValueError where it passes the float range: dividing by
    infinity would zero the penalty."""
    norm = rs.plan.weight_total * rows  # a float, which overflows to inf without a warning
    if not math.isfinite(norm):
        raise ValueError(f"rule weights too large: their total times {rows} rows passes the float range")
    return norm


def _degrees(P: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The factors of a factor index at every row of P (`factor_values`) and
    their prefix products, (factors + 1) x rules x rows: prefix[j] multiplies
    factors 0 to j - 1 from the left, so prefix[-1] holds the violation degrees."""
    factors = factor_values(index, P)
    prefix = np.empty((len(factors) + 1,) + factors.shape[1:])
    prefix[0] = 1.0
    for j, factor in enumerate(factors):
        np.multiply(prefix[j], factor, out=prefix[j + 1])
    return factors, prefix


def _penalty_grad(factors: np.ndarray, prefix: np.ndarray, plan: ScatterPlan, width: int) -> np.ndarray:
    """Gradient in P (rows x width) of the sum of the degrees that `_degrees`
    returned, each live slot's partial entering its label times its signed
    weight (see `ScatterPlan`)."""
    k, rules, n = factors.shape
    suffix = np.empty_like(factors)  # suffix[j] multiplies factors k - 1 down to j + 1
    suffix[-1] = 1.0
    for j in range(k - 2, -1, -1):
        np.multiply(suffix[j + 1], factors[j + 1], out=suffix[j])
    live = prefix[:k].reshape(k * rules, n)[plan.slots]
    live *= suffix.reshape(k * rules, n)[plan.slots]
    live *= plan.signed_weights[:, None]
    # in (rule, factor, row) order each gradient entry adds its terms rule by
    # rule, factor by factor
    bins = plan.labels[:, None] + np.arange(0, n * width, width)
    grad = np.bincount(bins.ravel(), live.ravel(), n * width)
    return grad.reshape(n, width)


def rule_penalty_batch(rule: Rule, P) -> BatchPenaltyResult:
    """Violation degree of one rule at each row of P, with its exact gradient in
    each probability of that row; a one-row batch gives one vector's."""
    arr = np.asarray(P, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"probability matrix must be 2-D, got shape {arr.shape}")
    arr = _check_batch(arr, arr.shape[1])
    index, signs, labels = compile_factors((rule,), arr.shape[1])
    factors, prefix = _degrees(arr, index)
    # the degree of one rule, unweighted
    grads = _penalty_grad(factors, prefix, scatter_plan(signs, labels, np.ones(1)), arr.shape[1])
    return BatchPenaltyResult(prefix[-1, 0], grads)


def domain_loss(rs: RuleSet, P) -> float:
    """Weight-normalized mean violation degree over a batch of probability rows.

    Zero for an empty rule set; per-sample degrees are averaged over samples.
    """
    arr = _check_batch(P, len(rs.vocabulary))
    if not rs.rules:
        return 0.0
    norm = _normalizer(rs, 1)  # the mean divides by the row count
    total = np.empty(arr.shape[0])
    rows = max(1, _BLOCK_ENTRIES // rs.factor_index.size)
    for start in range(0, arr.shape[0], rows):
        _, prefix = _degrees(arr[start : start + rows], rs.factor_index)
        total[start : start + rows] = np.cumsum(prefix[-1] * rs.weights[:, None], axis=0)[-1]
    return float(np.mean(total / norm))


def domain_loss_grad(rs: RuleSet, P) -> np.ndarray:
    """Exact gradient of `domain_loss` with respect to every probability entry."""
    arr = _check_batch(P, len(rs.vocabulary))
    if not rs.rules:
        return np.zeros_like(arr)
    norm = _normalizer(rs, arr.shape[0])
    factors, prefix = _degrees(arr, rs.factor_index)
    grad = _penalty_grad(factors, prefix, rs.plan, arr.shape[1])
    grad /= norm
    return grad
