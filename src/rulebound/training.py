"""The full training schedule: mask rule-implicated labels, learn, self-correct.

`_epochs` is the one epoch loop; it starts from a supervision state and yields
an `_EpochEnd` per epoch. `train` starts it from flags computed once from the
originally given labels and never recomputed. Each epoch shuffles the sample
order with a generator seeded from (seed, epoch index) and trains on
contiguous slices of the shuffled order, so a run is bitwise reproducible
from (seed, config, dataset, rules) under single-threaded execution.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .metrics import MetricsReport, cvr, exact_match, f1_scores
from .model import (
    NO_SUPERVISION,
    ModelParams,
    TrainConfig,
    bce_masked,
    forward,
    init_params,
    loss_grads,
    sgd_step,
    total_loss_and_grads,  # noqa: F401  perfbench/layers.py traces this name
)
from .relax import domain_loss
from .rules import RuleSet, reindex_ruleset
from .supervision import SupervisionState, correct_labels, flag_inconsistent, init_supervision


@dataclass(frozen=True)
class EpochRecord:
    """Losses and supervision counts at the end of one epoch.

    Recorded off the state the epoch trained on, before any correction pass at
    the same boundary: n_corrected_cumulative counts earlier boundaries only.
    """

    epoch: int
    bce: float
    domain_loss: float
    total: float
    n_masked: int
    n_corrected_cumulative: int


def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    # the shuffle stream is keyed by (seed, epoch), not carried across epochs
    return np.random.default_rng([seed, epoch]).permutation(n)


@dataclass(frozen=True)
class _EpochEnd:
    """An epoch's end parameters and full-dataset probabilities, the state it trained
    on, and the one its correction pass left (`before` itself where none ran)."""

    epoch: int
    params: ModelParams
    probs: np.ndarray
    before: SupervisionState
    after: SupervisionState


def _epochs(data: Dataset, rs: RuleSet, cfg: TrainConfig, state: SupervisionState) -> Iterator[_EpochEnd]:
    """The schedule from `state` on, for `rs` in `data`'s label order. In relabel mode
    a correction pass runs on full-dataset predictions at the end of every epoch
    e >= warmup_epochs."""
    if not state.mask.any():  # corrections only unmask entries, so later epochs keep some supervision
        raise ValueError(NO_SUPERVISION)
    n = data.n_samples
    params = init_params(cfg.seed, data.X.shape[1], cfg.hidden_units, len(data.names))
    for epoch in range(1, cfg.epochs + 1):
        order = _epoch_order(cfg.seed, epoch, n)
        # the epoch's rows gathered once, in shuffled order; each step takes a slice
        X, T, M = data.X[order], state.targets[order], state.mask[order].astype(np.float64)
        for start in range(0, n, cfg.batch_size):
            stop = start + cfg.batch_size
            grads = loss_grads(params, X[start:stop], T[start:stop], M[start:stop], rs, cfg.lambda_)
            params = sgd_step(params, grads, cfg.learning_rate)
        probs, _ = forward(params, data.X)
        after = state
        if cfg.correction_mode == "relabel" and epoch >= cfg.warmup_epochs:
            after, _ = correct_labels(state, probs, cfg.tau)
        yield _EpochEnd(epoch, params, probs, state, after)
        state = after


def train(
    data: Dataset, rs: RuleSet, cfg: TrainConfig
) -> tuple[ModelParams, list[EpochRecord], SupervisionState]:
    """Run the schedule from the given labels' flags; returns final parameters,
    epoch records, and supervision state.

    A correction at the final boundary shows up only in the returned state.
    """
    rs = reindex_ruleset(rs, data.names)
    state = init_supervision(data.Y, flag_inconsistent(rs, data.Y), cfg.correction_mode)
    history: list[EpochRecord] = []
    for end in _epochs(data, rs, cfg, state):
        was = end.before
        bce, dom = bce_masked(end.probs, was.targets, was.mask), domain_loss(rs, end.probs)
        history.append(EpochRecord(end.epoch, bce, dom, bce + cfg.lambda_ * dom, was.n_masked, was.n_corrected))
    return end.params, history, end.after


def evaluate(params: ModelParams, data: Dataset, rs: RuleSet, threshold: float = 0.5) -> MetricsReport:
    """Threshold predictions (p >= threshold maps to 1) and score them.

    Scores are against the clean labels when the dataset has them, else
    against the given ones; `eval_target` records which.
    """
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    if params.n_features != data.X.shape[1]:
        raise ValueError(
            f"the checkpoint reads {params.n_features} features and the dataset has {data.X.shape[1]}"
        )
    if params.n_labels != len(data.names):
        raise ValueError(
            f"the checkpoint predicts {params.n_labels} labels and the dataset has {len(data.names)}"
        )
    rs = reindex_ruleset(rs, data.names)
    probs, _ = forward(params, data.X)
    yhat = (probs >= threshold).astype(np.int64)
    if data.clean_Y is not None:
        yref, target = data.clean_Y, "clean"
    else:
        yref, target = data.Y, "given"
    per_label, macro, micro = f1_scores(yhat, yref, names=data.names.names)
    return MetricsReport(
        per_label=per_label,
        macro_f1=macro,
        micro_f1=micro,
        exact_match=exact_match(yhat, yref),
        cvr=cvr(yhat, rs),
        correction=None,
        eval_target=target,
    )
