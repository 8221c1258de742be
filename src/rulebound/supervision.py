"""Supervision bookkeeping: which labels to trust, mask, or self-correct.

Labels implicated in rule violations of the originally given supervision get
flagged once, up front. Masking modes give flagged entries ORIGIN_MASKED,
which drops them from the loss; the relabel schedule later re-admits an
entry when the model grows confident about it, permanently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rules import RuleSet, violation_matrix

CORRECTION_MODES = ("off", "mask_only", "relabel")

ORIGIN_GIVEN = 0
ORIGIN_MASKED = 1
ORIGIN_SELF_CORRECTED = 2


@dataclass
class SupervisionState:
    """Per-entry training targets plus where each target came from.

    Which entries the loss sees is derived from `origin`, never stored: see
    `mask`.
    """

    targets: np.ndarray  # float64 entries, each 0.0 or 1.0
    origin: np.ndarray  # uint8 origin codes

    def __post_init__(self):
        self.targets = np.asarray(self.targets, dtype=np.float64)
        self.origin = np.asarray(self.origin, dtype=np.uint8)
        if self.origin.shape != self.targets.shape:
            raise ValueError("supervision arrays must share one shape")
        if not ((self.targets == 0) | (self.targets == 1)).all():
            raise ValueError("targets must be 0 or 1")

    @property
    def mask(self) -> np.ndarray:
        """uint8 loss mask, 1 wherever the origin is not ORIGIN_MASKED. Built
        afresh on each read and read-only: change `origin` instead."""
        mask = (self.origin != ORIGIN_MASKED).view(np.uint8)
        mask.flags.writeable = False
        return mask

    @property
    def n_masked(self) -> int:
        return int((self.origin == ORIGIN_MASKED).sum())


def flag_inconsistent(rs: RuleSet, Y) -> np.ndarray:
    """Flag matrix: entry (i, j) is 1 when label j appears (either polarity)
    in at least one rule violated by row i."""
    violations = violation_matrix(rs, Y)
    # (rules x labels), 1 where a label is among a rule's live factor slots
    mentions = np.zeros((len(rs.rules), len(rs.vocabulary)))
    mentions[rs.plan.slots % len(rs.rules), rs.plan.labels] = 1.0
    return (violations.astype(np.float64) @ mentions > 0).astype(np.uint8)


def init_supervision(Y, F, mode: str) -> SupervisionState:
    """Initial state: targets are the given labels Y; masking modes mask where F is 1."""
    if mode not in CORRECTION_MODES:
        raise ValueError(f"correction mode must be one of {CORRECTION_MODES}, got {mode!r}")
    Y = np.asarray(Y)
    F = np.asarray(F)
    if Y.shape != F.shape:
        raise ValueError(f"labels {Y.shape} and flags {F.shape} differ in shape")
    origin = np.full(Y.shape, ORIGIN_GIVEN, dtype=np.uint8)
    if mode != "off":
        origin[F == 1] = ORIGIN_MASKED
    return SupervisionState(Y.astype(np.float64), origin)


def correct_labels(state: SupervisionState, P, tau: float) -> tuple[SupervisionState, int]:
    """Adopt confident predictions at still-masked entries.

    A masked entry becomes 1 when its probability is at least tau, 0 when at
    most 1 - tau, and rejoins the loss; corrections are permanent. Returns
    the updated state and how many entries were corrected.
    """
    if not 0.5 < tau < 1:
        raise ValueError(f"tau must lie in (0.5, 1), got {tau}")
    P = np.asarray(P, dtype=np.float64)
    if P.shape != state.targets.shape:
        raise ValueError(f"predictions {P.shape} and targets {state.targets.shape} differ")
    masked = state.origin == ORIGIN_MASKED
    up = masked & (P >= tau)
    down = masked & (P <= 1.0 - tau)
    hit = up | down
    n_corrected = int(hit.sum())
    if n_corrected == 0:
        return state, 0
    # a corrected target is 1.0 where it went up and 0.0 where it went down
    targets = np.where(hit, up, state.targets)
    return SupervisionState(targets, np.where(hit, ORIGIN_SELF_CORRECTED, state.origin)), n_corrected
