"""Which rulebound calls the traced run wraps, and the per-layer metrics made from their spans.

Layers are the modules of `src/rulebound/`. Each per-layer metric names
the end-to-end metric it should move:

- relax.*: train_samples_per_s, mostly on train-rules.
- model.*: train_samples_per_s on train-dense; model.forward also eval_rows_per_s.
- training.*: train_samples_per_s on both train workloads.
- supervision.*: train_samples_per_s on train-rules.
- rules.parse_rules: setup_s; rules.violated_rules: synth and noise rows/s;
  rules.violation_matrix: audit and eval rows/s.
- data.load_dataset: every data-pipeline metric and setup_s; data.save_dataset
  and jsonio.dumps: synth and noise rows/s and the train writes;
  data.synthesize: synth; data.inject_noise: noise; data.audit: audit.
- metrics.*: eval_rows_per_s and the train report.
- cli.self_s and trace.overhead_frac: all of them.

Times are seconds per round (one pass of the five commands), the median over
the traced rounds; counts are per round too. Step times pool every step.
"""

from __future__ import annotations

import os
import statistics

from spans import COUNTS, END, NAME, OP, PARENT, START, Target, self_times


def _rule_rows(args, kwargs, result):
    rs, P = args[0], args[1]
    return {"rule_rows": len(rs.rules) * len(P)}


def _rows(args, kwargs, result):
    return {"rows": len(args[1])}


def _loaded(args, kwargs, result):
    return {"rows": result.n_samples, "bytes": os.path.getsize(args[0])}


def _saved(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _accepted(args, kwargs, result):
    return {"accepted": args[4]}


def _corrected(args, kwargs, result):
    from rulebound.supervision import ORIGIN_MASKED

    state = args[0]
    return {"examined": int((state.origin == ORIGIN_MASKED).sum()), "corrected": result[1]}


TARGETS = (
    Target("rulebound.cli", "parse_rules", "rules.parse_rules"),
    Target("rulebound.cli", "load_dataset", "data.load_dataset", _loaded),
    Target("rulebound.cli", "save_dataset", "data.save_dataset", _saved),
    Target("rulebound.cli", "synthesize", "data.synthesize", _accepted),
    Target("rulebound.cli", "inject_noise", "data.inject_noise"),
    Target("rulebound.cli", "audit", "data.audit"),
    Target("rulebound.cli", "train", "training.train"),
    Target("rulebound.cli", "evaluate", "training.evaluate"),
    Target("rulebound.cli", "correction_report", "metrics.correction_report"),
    Target("rulebound.cli", "save_model", "model.save_model"),
    Target("rulebound.cli", "load_model", "model.load_model"),
    Target("rulebound.data", "violated_rules", "rules.violated_rules"),
    Target("rulebound.data", "violation_matrix", "rules.violation_matrix", _rows),
    Target("rulebound.supervision", "violation_matrix", "rules.violation_matrix", _rows),
    Target("rulebound.metrics", "violation_matrix", "rules.violation_matrix", _rows),
    Target("rulebound.training", "total_loss_and_grads", "model.total_loss_and_grads"),
    Target("rulebound.training", "sgd_step", "model.sgd_step"),
    Target("rulebound.training", "forward", "model.forward"),
    Target("rulebound.model", "forward", "model.forward"),
    Target("rulebound.training", "domain_loss", "relax.domain_loss", _rule_rows),
    Target("rulebound.model", "domain_loss", "relax.domain_loss", _rule_rows),
    Target("rulebound.model", "domain_loss_grad", "relax.domain_loss_grad", _rule_rows),
    Target("rulebound.training", "flag_inconsistent", "supervision.flag_inconsistent"),
    Target("rulebound.training", "correct_labels", "supervision.correct_labels", _corrected),
    Target("rulebound.training", "f1_scores", "metrics.f1_scores"),
    Target("rulebound.training", "cvr", "metrics.cvr"),
    Target("rulebound.jsonio", "dumps", "jsonio.dumps"),
)

# The span the benchmark opens around each command.
ROOT = "cli"

PER_LAYER = (
    ("relax.domain_loss_grad.calls", "count", "lower"),
    ("relax.domain_loss_grad.self_s", "s", "lower"),
    ("relax.domain_loss.calls", "count", "lower"),
    ("relax.domain_loss.self_s", "s", "lower"),
    ("relax.rule_rows", "count", "lower"),
    ("relax.share", "ratio", "lower"),
    ("model.total_loss_and_grads.self_s", "s", "lower"),
    ("model.forward.calls", "count", "lower"),
    ("model.forward.self_s", "s", "lower"),
    ("model.sgd_step.self_s", "s", "lower"),
    ("model.share", "ratio", "lower"),
    ("training.train.s", "s", "lower"),
    ("training.train.self_s", "s", "lower"),
    ("training.steps", "count", "lower"),
    ("training.step_ms_p50", "ms", "lower"),
    ("training.step_ms_p99", "ms", "lower"),
    ("supervision.flag_inconsistent.s", "s", "lower"),
    ("supervision.correct_labels.calls", "count", "lower"),
    ("supervision.correct_labels.s", "s", "lower"),
    ("supervision.correct_hit_ratio", "ratio", "higher"),
    ("rules.parse_rules.s", "s", "lower"),
    ("rules.violated_rules.calls", "count", "lower"),
    ("rules.violated_rules.s", "s", "lower"),
    ("rules.violation_matrix.calls", "count", "lower"),
    ("rules.violation_matrix.rows", "count", "lower"),
    ("rules.violation_matrix.s", "s", "lower"),
    ("data.load_dataset.rows", "count", "lower"),
    ("data.load_dataset.bytes", "B", "lower"),
    ("data.load_dataset.s", "s", "lower"),
    ("data.save_dataset.bytes", "B", "lower"),
    ("data.save_dataset.s", "s", "lower"),
    ("data.synthesize.self_s", "s", "lower"),
    ("data.synth_accept_ratio", "ratio", "higher"),
    ("data.inject_noise.self_s", "s", "lower"),
    ("data.noise_flip_trials", "count", "lower"),
    ("data.audit.self_s", "s", "lower"),
    ("jsonio.dumps.calls", "count", "lower"),
    ("jsonio.dumps.s", "s", "lower"),
    ("metrics.f1_scores.s", "s", "lower"),
    ("metrics.cvr.s", "s", "lower"),
    ("metrics.correction_report.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def round_metrics(spans, own: list[float], ops: set[int]) -> dict[str, float]:
    """Per-layer totals of one traced round, from the spans of its operations and their self times."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    # rejection draws and flip trials are the crisp checks made inside synthesis and noise
    checks_under = {"data.synthesize": 0, "data.inject_noise": 0}
    in_train: dict[int, bool] = {}
    model_self = 0.0  # model time inside training.train, not in evaluate
    for i, (s, s_own) in enumerate(zip(spans, own)):
        if s[OP] not in ops:
            continue
        name = s[NAME]
        in_train[i] = name == "training.train" or in_train.get(s[PARENT], False)
        if in_train[i] and name.startswith("model."):
            model_self += s_own
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (s[END] - s[START])
        self_s[name] = self_s.get(name, 0.0) + s_own
        for key, value in (s[COUNTS] or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        if name == "rules.violated_rules" and s[PARENT] >= 0:
            parent = spans[s[PARENT]][NAME]
            if parent in checks_under:
                checks_under[parent] += 1

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    def own_s(name):
        return self_s.get(name, 0.0)

    relax_self = own_s("relax.domain_loss") + own_s("relax.domain_loss_grad")
    return {
        "relax.domain_loss_grad.calls": c("relax.domain_loss_grad"),
        "relax.domain_loss_grad.self_s": own_s("relax.domain_loss_grad"),
        "relax.domain_loss.calls": c("relax.domain_loss"),
        "relax.domain_loss.self_s": own_s("relax.domain_loss"),
        "relax.rule_rows": counts.get("relax.domain_loss.rule_rows", 0)
        + counts.get("relax.domain_loss_grad.rule_rows", 0),
        "relax.share": _ratio(relax_self, t("training.train")),
        "model.total_loss_and_grads.self_s": own_s("model.total_loss_and_grads"),
        "model.forward.calls": c("model.forward"),
        "model.forward.self_s": own_s("model.forward"),
        "model.sgd_step.self_s": own_s("model.sgd_step"),
        "model.share": _ratio(model_self, t("training.train")),
        "training.train.s": t("training.train"),
        "training.train.self_s": own_s("training.train"),
        "training.steps": c("model.sgd_step"),
        "supervision.flag_inconsistent.s": t("supervision.flag_inconsistent"),
        "supervision.correct_labels.calls": c("supervision.correct_labels"),
        "supervision.correct_labels.s": t("supervision.correct_labels"),
        "supervision.correct_hit_ratio": _ratio(
            counts.get("supervision.correct_labels.corrected", 0),
            counts.get("supervision.correct_labels.examined", 0),
        ),
        "rules.parse_rules.s": t("rules.parse_rules"),
        "rules.violated_rules.calls": c("rules.violated_rules"),
        "rules.violated_rules.s": t("rules.violated_rules"),
        "rules.violation_matrix.calls": c("rules.violation_matrix"),
        "rules.violation_matrix.rows": counts.get("rules.violation_matrix.rows", 0),
        "rules.violation_matrix.s": t("rules.violation_matrix"),
        "data.load_dataset.rows": counts.get("data.load_dataset.rows", 0),
        "data.load_dataset.bytes": counts.get("data.load_dataset.bytes", 0),
        "data.load_dataset.s": t("data.load_dataset"),
        "data.save_dataset.bytes": counts.get("data.save_dataset.bytes", 0),
        "data.save_dataset.s": t("data.save_dataset"),
        "data.synthesize.self_s": own_s("data.synthesize"),
        "data.synth_accept_ratio": _ratio(
            counts.get("data.synthesize.accepted", 0), checks_under["data.synthesize"]
        ),
        "data.inject_noise.self_s": own_s("data.inject_noise"),
        "data.noise_flip_trials": checks_under["data.inject_noise"],
        "data.audit.self_s": own_s("data.audit"),
        "jsonio.dumps.calls": c("jsonio.dumps"),
        "jsonio.dumps.s": t("jsonio.dumps"),
        "metrics.f1_scores.s": t("metrics.f1_scores"),
        "metrics.cvr.s": t("metrics.cvr"),
        "metrics.correction_report.s": t("metrics.correction_report"),
        "cli.self_s": own_s(ROOT),
    }


def step_times_ms(spans, ops: set[int]) -> list[float]:
    """One training step runs from the start of total_loss_and_grads to the end of the sgd_step after it."""
    steps = []
    start = None
    for s in spans:
        if s[OP] not in ops:
            continue
        if s[NAME] == "model.total_loss_and_grads":
            start = s[START]
        elif s[NAME] == "model.sgd_step" and start is not None:
            steps.append((s[END] - start) * 1e3)
            start = None
    return steps


def per_layer(spans, traced_rounds: list[set[int]], overheads: list[float]) -> dict[str, float]:
    """Median over traced rounds of each round's layer totals, plus pooled step percentiles."""
    own = self_times(spans)
    rounds = [round_metrics(spans, own, ops) for ops in traced_rounds]
    out = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    steps = step_times_ms(spans, set().union(*traced_rounds))
    if len(steps) >= 2:
        cuts = statistics.quantiles(steps, n=100)
        out["training.step_ms_p50"] = statistics.median(steps)
        out["training.step_ms_p99"] = cuts[98]
    else:
        out["training.step_ms_p50"] = out["training.step_ms_p99"] = steps[0] if steps else 0.0
    out["trace.overhead_frac"] = statistics.median(overheads) if overheads else 0.0
    return out
