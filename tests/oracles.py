"""Independent reference implementations the tests check the library against.

Everything here is written from the definitions, not by calling the library
code it verifies: a crisp truth-table evaluator, random rule generators, and
central finite differences for gradients.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from rulebound import (
    ORIGIN_MASKED,
    ORIGIN_SELF_CORRECTED,
    Dataset,
    Literal,
    ModelParams,
    Rule,
    RuleSet,
    SynthesisBudgetError,
    jsonio,
)


def crisp_satisfied(rule: Rule, y) -> bool:
    """Reference semantics: not(all antecedent literals hold) or any consequent literal holds."""
    holds = lambda lit: (y[lit.label] == 1) != lit.negated  # noqa: E731
    if not all(holds(lit) for lit in rule.antecedent):
        return True
    return any(holds(lit) for lit in rule.consequent)


def violating_assignments(rule: Rule, n_labels: int) -> set[tuple[int, ...]]:
    """All crisp label vectors the rule rejects, by exhaustive enumeration."""
    return {
        y for y in itertools.product((0, 1), repeat=n_labels) if not crisp_satisfied(rule, y)
    }


def brute_force_counts(rules, Y, n_labels: int) -> list[int]:
    """Per-rule violation counts via truth-table membership."""
    counts = []
    for rule in rules:
        bad = violating_assignments(rule, n_labels)
        counts.append(sum(1 for row in Y if tuple(int(v) for v in row) in bad))
    return counts


def synthesize_per_row(
    seed: int, n_samples: int, n_features: int, rs: RuleSet, k_patterns: int, budget: int | None = None
) -> Dataset:
    """Reference synthesis, one candidate label vector at a time.

    The stream SeedSequence([seed, 0]) draws n_labels bits per candidate. A
    candidate that breaks a rule or repeats an accepted one is a rejection,
    and `budget` rejections, by default 10000 * k_patterns, raise. The same
    stream then draws the k_patterns centroids; sample i comes from
    SeedSequence([seed, 1, i])."""
    n_labels = len(rs.vocabulary)
    stream = np.random.default_rng([seed, 0])
    patterns: list[tuple[int, ...]] = []
    budget = 10_000 * k_patterns if budget is None else budget
    rejections = 0
    while len(patterns) < k_patterns:
        if rejections >= budget:
            raise SynthesisBudgetError(
                f"no {k_patterns} distinct rule-consistent label vectors within {budget} rejections"
            )
        draw = tuple(int(v) for v in stream.integers(0, 2, size=n_labels))
        if draw in patterns or not all(crisp_satisfied(rule, draw) for rule in rs.rules):
            rejections += 1
            continue
        patterns.append(draw)
    centroids = stream.uniform(-1.0, 1.0, size=(k_patterns, n_features))
    X = np.empty((n_samples, n_features))
    Y = np.empty((n_samples, n_labels), dtype=np.int64)
    for i in range(n_samples):
        rng_i = np.random.default_rng([seed, 1, i])
        pick = int(rng_i.integers(k_patterns))
        X[i] = centroids[pick] + rng_i.normal(0.0, 0.3, size=n_features)
        Y[i] = patterns[pick]
    return Dataset(X, Y, rs.vocabulary, clean_Y=Y.copy())


def inject_noise_per_row(ds: Dataset, rho: float, seed: int, rs: RuleSet) -> Dataset:
    """Reference violating-mode noise, one row and one trial flip at a time.

    Each row draws one uniform; below rho, one of its bits flips, chosen by a
    second draw among the single-bit flips that break a rule the row keeps.
    Rule labels are matched to dataset columns by name."""
    columns = [ds.names.index[name] for name in rs.vocabulary.names]

    def broken(y) -> set[int]:
        y = [y[c] for c in columns]
        return {r for r, rule in enumerate(rs.rules) if not crisp_satisfied(rule, y)}

    rng = np.random.default_rng(seed)
    Y = ds.Y.copy()
    for i in range(len(Y)):
        if rng.random() >= rho:
            continue
        before = broken(Y[i])
        candidates = []
        for j in range(Y.shape[1]):
            trial = Y[i].copy()
            trial[j] = 1 - trial[j]
            if broken(trial) - before:
                candidates.append(j)
        if not candidates:
            continue
        j = candidates[int(rng.integers(len(candidates)))]
        Y[i, j] = 1 - Y[i, j]
    return Dataset(ds.X, Y, ds.names, clean_Y=ds.Y.copy())


def random_rule(
    rng: random.Random,
    n_labels: int,
    max_ant: int = 3,
    max_cons: int = 3,
    weights=(1.0,),
) -> Rule:
    """A syntactically valid random rule; consequent labels may repeat antecedent ones."""
    labels = list(range(n_labels))
    ant_labels = rng.sample(labels, rng.randint(1, min(max_ant, n_labels)))
    cons_labels = rng.sample(labels, rng.randint(0, min(max_cons, n_labels)))
    antecedent = tuple(Literal(lab, rng.random() < 0.5) for lab in ant_labels)
    consequent = tuple(Literal(lab, rng.random() < 0.5) for lab in cons_labels)
    return Rule(antecedent, consequent, rng.choice(weights))


def random_ruleset(rng: random.Random, vocab, n_rules: int, **kwargs) -> RuleSet:
    return RuleSet(vocab, tuple(random_rule(rng, len(vocab), **kwargs) for _ in range(n_rules)))


def product_domain_loss(rs: RuleSet, P) -> float:
    """Reference rule penalty, rule by rule: each rule's degree is the product of
    its antecedent literal values and its consequent literal complements, taken
    in stored order; degrees add in rule order, weighted, then are normalized by
    the weight sum and averaged over rows."""
    P = np.asarray(P, dtype=np.float64)
    total = np.zeros(len(P))
    weight_sum = 0.0
    for rule in rs.rules:
        degree = np.ones(len(P))
        for lit in rule.antecedent:
            degree = degree * (1.0 - P[:, lit.label] if lit.negated else P[:, lit.label])
        for lit in rule.consequent:
            degree = degree * (P[:, lit.label] if lit.negated else 1.0 - P[:, lit.label])
        total = total + rule.weight * degree
        weight_sum += rule.weight
    return float(np.mean(total / weight_sum))


def penalty_grad_reference(rs: RuleSet, P) -> np.ndarray:
    """Reference gradient of the rule penalty, the accumulate-and-scatter way.

    Each rule's factors are its antecedent literal values, then its consequent
    literal complements, as columns of [P, 1 - P, 1], padded with the constant
    column to the longest rule. Prefix and suffix products come from
    `np.multiply.accumulate` along the factor axis; a factor's partial is its
    prefix times its suffix, times the rule weight, negated for a 1 - P
    column and zeroed for padding. An ordered `np.add.at` adds the partials in
    (row, rule, factor) order, padding adding its zero to label 0. The sum is
    normalized by the weight sum and the row count, as the mean penalty is.
    """
    P = np.asarray(P, dtype=np.float64)
    n, width = P.shape
    if not rs.rules:
        return np.zeros_like(P)
    rows = [
        [lit.label + width * lit.negated for lit in rule.antecedent]
        + [lit.label + width * (not lit.negated) for lit in rule.consequent]
        for rule in rs.rules
    ]
    k = max(map(len, rows))
    index = np.array([row + [2 * width] * (k - len(row)) for row in rows])
    weights = np.array([rule.weight for rule in rs.rules])
    factors = np.concatenate([P, 1.0 - P, np.ones((n, 1))], axis=1)[:, index]
    prefix = np.ones((n, len(rows), k + 1))
    np.multiply.accumulate(factors, axis=2, out=prefix[:, :, 1:])
    suffix = np.ones_like(prefix)
    suffix[:, :, :k] = np.multiply.accumulate(factors[:, :, ::-1], axis=2)[:, :, ::-1]
    sign = np.where(index < width, 1.0, np.where(index < 2 * width, -1.0, 0.0))
    partials = prefix[:, :, :k] * suffix[:, :, 1:] * (sign * weights[:, None])
    grad = np.zeros((n, width))
    np.add.at(grad, (np.arange(n)[:, None, None], index % width), partials)
    grad /= np.cumsum(weights)[-1] * n
    return grad


def sigmoid_reference(z) -> np.ndarray:
    """The logistic function by two branches chosen per entry, so that no exp
    overflows: 1 / (1 + exp(-z)) where z >= 0, exp(z) / (1 + exp(z)) where z < 0."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expz = np.exp(z[~pos])
    out[~pos] = expz / (1.0 + expz)
    return out


def dataset_jsonl(ds) -> str:
    """Reference dataset file: the label header, then every row as a generic
    `jsonio.dumps` of its {"x": [float...], "y": [int...]} object, plus
    "y_clean" when the dataset carries clean labels; one line each."""
    lines = [jsonio.dumps({"labels": list(ds.names.names)})]
    for i in range(ds.n_samples):
        row = {"x": [float(v) for v in ds.X[i]], "y": [int(v) for v in ds.Y[i]]}
        if ds.clean_Y is not None:
            row["y_clean"] = [int(v) for v in ds.clean_Y[i]]
        lines.append(jsonio.dumps(row))
    return "\n".join(lines) + "\n"


def correction_buckets(state, ds) -> tuple[int, int, int, int, int]:
    """Reference correction accounting, flip by flip: (flipped, corrected
    right, corrected wrong, still masked, undetected). A flip is a position
    whose given label differs from its clean one, visited in row-major order."""
    n_rows, n_labels = ds.Y.shape
    flips = [(i, j) for i in range(n_rows) for j in range(n_labels) if ds.Y[i, j] != ds.clean_Y[i, j]]
    right = wrong = still_masked = undetected = 0
    for i, j in flips:
        origin = state.origin[i, j]
        if origin == ORIGIN_SELF_CORRECTED:
            if state.targets[i, j] == ds.clean_Y[i, j]:
                right += 1
            else:
                wrong += 1
        elif origin == ORIGIN_MASKED:
            still_masked += 1
        else:
            undetected += 1
    return len(flips), right, wrong, still_masked, undetected


def f1_reference(Yhat, Yref) -> tuple[list[tuple[float, float, float, int]], float, float]:
    """Reference F1 family, label by label: ((precision, recall, f1, support)
    per label, macro F1 summed left to right, micro F1 of the pooled counts),
    with 0/0 counted as 0."""

    def prf(tp, fp, fn):
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return precision, recall, f1

    per_label = []
    totals = [0, 0, 0]
    f1_sum = 0.0
    for j in range(Yref.shape[1]):
        counts = [0, 0, 0]  # tp, fp, fn
        for pred, ref in zip(Yhat[:, j].tolist(), Yref[:, j].tolist()):
            if pred and ref:
                counts[0] += 1
            elif pred:
                counts[1] += 1
            elif ref:
                counts[2] += 1
        precision, recall, f1 = prf(*counts)
        per_label.append((precision, recall, f1, counts[0] + counts[2]))
        totals = [a + b for a, b in zip(totals, counts)]
        f1_sum += f1
    return per_label, f1_sum / Yref.shape[1], prf(*totals)[2]


def checkpoint_json(params: ModelParams, seed: int, config) -> str:
    """Reference checkpoint file: the documented layout, every weight a float
    in a generic `jsonio.dumps` list."""
    doc = {
        "dims": {
            "n_features": params.W1.shape[1],
            "n_hidden": params.W1.shape[0],
            "n_labels": params.W2.shape[0],
        },
        "seed": seed,
        "W1": [float(v) for v in params.W1.ravel()],
        "b1": [float(v) for v in params.b1],
        "W2": [float(v) for v in params.W2.ravel()],
        "b2": [float(v) for v in params.b2],
        "config": config.as_dict() if config is not None else None,
    }
    return jsonio.dumps(doc) + "\n"


def max_rel_err(analytic, numeric, floor: float) -> float:
    """Worst-entry relative error, with a floor on the denominator so that
    near-zero entries compare absolutely at the floor's scale."""
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    if a.size == 0:
        return 0.0
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


def fd_grad(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of one array."""
    grad = np.zeros_like(x, dtype=np.float64)
    for idx in np.ndindex(x.shape):
        plus = x.astype(np.float64).copy()
        plus[idx] += h
        minus = x.astype(np.float64).copy()
        minus[idx] -= h
        grad[idx] = (fn(plus) - fn(minus)) / (2 * h)
    return grad


def fd_param_grads(loss_fn, params: ModelParams, h: float = 1e-6) -> ModelParams:
    """Central finite differences of a scalar loss over every model parameter."""
    arrays = [params.W1, params.b1, params.W2, params.b2]
    grads = []
    for k, arr in enumerate(arrays):
        g = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            plus = [a.copy() for a in arrays]
            plus[k][idx] += h
            minus = [a.copy() for a in arrays]
            minus[k][idx] -= h
            g[idx] = (loss_fn(ModelParams(*plus)) - loss_fn(ModelParams(*minus))) / (2 * h)
        grads.append(g)
    return ModelParams(*grads)
