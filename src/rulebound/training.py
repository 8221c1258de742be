"""The full training schedule: mask rule-implicated labels, learn, self-correct.

Flags are computed once from the originally given labels and never
recomputed. Each epoch shuffles the sample order with a generator seeded
from (seed, epoch index) and trains on contiguous slices of the shuffled
order, so a run is bitwise reproducible from (seed, config, dataset, rules)
under single-threaded execution.
"""

from __future__ import annotations

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

    Recorded before any correction pass at the same epoch boundary, so
    n_corrected_cumulative counts corrections from earlier boundaries only.
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


def train(
    data: Dataset, rs: RuleSet, cfg: TrainConfig
) -> tuple[ModelParams, list[EpochRecord], SupervisionState]:
    """Run the schedule; returns final parameters, epoch records, and supervision state.

    In relabel mode a correction pass runs on full-dataset predictions at the
    end of every epoch e >= warmup_epochs. The epoch's history record is
    written before that pass, so a correction at the final boundary shows up
    only in the returned state.
    """
    rs = reindex_ruleset(rs, data.names)
    n = data.n_samples
    params = init_params(cfg.seed, data.X.shape[1], cfg.hidden_units, len(data.names))
    flags = flag_inconsistent(rs, data.Y)
    state = init_supervision(data.Y, flags, cfg.correction_mode)
    if not state.mask.any():  # corrections only unmask entries, so later epochs keep some supervision
        raise ValueError(NO_SUPERVISION)
    history: list[EpochRecord] = []
    n_corrected = 0
    for epoch in range(1, cfg.epochs + 1):
        order = _epoch_order(cfg.seed, epoch, n)
        mask = state.mask  # the state changes only at epoch ends
        # the epoch's rows gathered once, in shuffled order; each step takes a slice
        X, T, M = data.X[order], state.targets[order], mask[order].astype(np.float64)
        for start in range(0, n, cfg.batch_size):
            stop = start + cfg.batch_size
            grads = loss_grads(params, X[start:stop], T[start:stop], M[start:stop], rs, cfg.lambda_)
            params = sgd_step(params, grads, cfg.learning_rate)
        probs, _ = forward(params, data.X)
        epoch_bce = bce_masked(probs, state.targets, mask)
        epoch_domain = domain_loss(rs, probs)
        history.append(
            EpochRecord(
                epoch,
                epoch_bce,
                epoch_domain,
                epoch_bce + cfg.lambda_ * epoch_domain,
                state.n_masked,
                n_corrected,
            )
        )
        if cfg.correction_mode == "relabel" and epoch >= cfg.warmup_epochs:
            state, count = correct_labels(state, probs, cfg.tau)
            n_corrected += count
    return params, history, state


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
