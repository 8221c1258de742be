"""Correctness checks on the commands' outputs.

Crisp rule semantics come from `tests/oracles.py`, the test suite's
independent reference, evaluated once per distinct label row. No check pins
float bits: a later commit may change the arithmetic, not the meaning.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from oracles import crisp_satisfied


class CheckError(Exception):
    """An output of a command is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def read_jsonl(path: Path) -> tuple[list, list[dict]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return json.loads(lines[0])["labels"], [json.loads(line) for line in lines[1:] if line]


def violated(rules, ys) -> list[tuple[int, ...]]:
    """Indices of the rules each label row violates, by the reference semantics."""
    cache: dict[tuple, tuple[int, ...]] = {}
    out = []
    for y in ys:
        key = tuple(y)
        if key not in cache:
            cache[key] = tuple(r for r, rule in enumerate(rules) if not crisp_satisfied(rule, key))
        out.append(cache[key])
    return out


def check_synth(path: Path, wl, rs) -> list[dict]:
    labels, rows = read_jsonl(path)
    _require(labels == list(rs.vocabulary.names), "synth: label header differs from the rules")
    _require(len(rows) == wl.rows, f"synth: {len(rows)} rows, asked for {wl.rows}")
    for row in rows:
        _require(len(row["x"]) == wl.dims, "synth: wrong feature count")
        _require(all(math.isfinite(v) for v in row["x"]), "synth: non-finite feature")
        _require(row["y"] == row["y_clean"], "synth: labels differ from clean labels")
    _require(not any(violated(rs.rules, (row["y"] for row in rows))), "synth: a row violates a rule")
    return rows


def check_noise(path: Path, clean_rows: list[dict], rs) -> tuple[list[tuple[int, ...]], int]:
    """Violating-mode noise flips at most one bit per row, and every flip breaks a rule.

    Returns the rules each noisy row violates and the number of flips."""
    _, rows = read_jsonl(path)
    _require(len(rows) == len(clean_rows), "noise: row count changed")
    ys = [row["y"] for row in rows]
    vs = violated(rs.rules, ys)
    flipped = 0
    for row, clean, v in zip(rows, clean_rows, vs):
        _require(row["x"] == clean["x"], "noise: features changed")
        _require(row["y_clean"] == clean["y"], "noise: clean labels not kept")
        diff = sum(a != b for a, b in zip(row["y"], clean["y"]))
        _require(diff <= 1, "noise: more than one bit flipped in a row")
        if diff:
            flipped += 1
            _require(bool(v), "noise: a flip violates no rule")
    _require(flipped > 0, "noise: nothing flipped")
    return vs, flipped


def check_audit(stdout: str, vs: list[tuple[int, ...]], n_rules: int) -> None:
    """Audit counts equal the reference counts of the noisy labels."""
    report = json.loads(stdout)
    counts = [0] * n_rules
    for v in vs:
        for r in v:
            counts[r] += 1
    _require([row["count"] for row in report["per_rule"]] == counts, "audit: per-rule counts")
    expected = [{"sample": i, "violated": list(v)} for i, v in enumerate(vs) if v]
    _require(report["per_sample"] == expected, "audit: per-sample violations")
    _require(report["violating_samples"] == len(expected), "audit: violating sample count")
    _require(
        math.isclose(report["fraction"], len(expected) / len(vs), rel_tol=1e-12),
        "audit: violating fraction",
    )


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return True


def check_report(path: Path, n_labels: int) -> dict:
    """A metrics report is finite and every score lies in [0, 1]."""
    report = json.loads(path.read_text(encoding="utf-8"))
    _require(_finite(report), f"{path.name}: non-finite number")
    scores = [report[k] for k in ("macro_f1", "micro_f1", "exact_match", "cvr")]
    _require(len(report["per_label"]) == n_labels, f"{path.name}: per-label rows")
    for row in report["per_label"]:
        scores += [row["precision"], row["recall"], row["f1"]]
    _require(all(0.0 <= s <= 1.0 for s in scores), f"{path.name}: score outside [0, 1]")
    return report


def check_train(work: Path, wl, n_labels: int, n_flips: int) -> None:
    model = json.loads((work / "model.json").read_text(encoding="utf-8"))
    dims = model["dims"]
    _require(
        (dims["n_features"], dims["n_hidden"], dims["n_labels"]) == (wl.dims, wl.hidden, n_labels),
        "train: model dimensions",
    )
    _require(_finite(model), "train: non-finite weight")
    history = (work / "history.jsonl").read_text(encoding="utf-8").splitlines()
    _require(len(history) == wl.epochs, "train: one history line per epoch")
    _require(all(_finite(json.loads(line)) for line in history), "train: non-finite loss")
    report = check_report(work / "train_report.json", n_labels)
    correction = report["correction"]
    _require(correction is not None and correction["n_flipped"] == n_flips, "train: flip count")
