"""Dataset files, rule-consistent synthesis, noise injection, and auditing.

Datasets are JSON Lines: the first line is a header {"labels": [...]}, then
one object per sample {"x": [...], "y": [...]} with an optional "y_clean"
holding the pre-noise labels. Which positions were flipped is recovered from
y/y_clean on load, so noise records survive a save/load round trip.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .rules import LabelVocabulary, RuleSet, format_rule, reindex_ruleset, violation_matrix
from .rules import violated_rules  # noqa: F401  perfbench/layers.py traces this name


class DatasetError(ValueError):
    """A dataset file or Dataset value failed validation."""


class SynthesisBudgetError(RuntimeError):
    """Rejection sampling could not find enough rule-consistent label patterns."""


NOISE_MODES = ("uniform", "violating")


@dataclass
class Dataset:
    """Feature rows with multi-hot labels; optionally the pre-noise labels too.

    The noise record is clean_Y itself: `flips`, the positions where Y and
    clean_Y differ, is computed from them on every read and cannot be set.
    """

    X: np.ndarray
    Y: np.ndarray
    names: LabelVocabulary
    clean_Y: np.ndarray | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.Y = np.asarray(self.Y)
        if self.X.ndim != 2 or self.Y.ndim != 2:
            raise DatasetError("X and Y must be 2-D")
        if not np.isfinite(self.X).all():
            raise DatasetError("features must be finite")
        if not ((self.Y == 0) | (self.Y == 1)).all():
            raise DatasetError("labels must be 0 or 1")
        self.Y = self.Y.astype(np.int64)
        if self.X.shape[0] != self.Y.shape[0]:
            raise DatasetError("X and Y row counts differ")
        if self.X.shape[0] < 1:
            raise DatasetError("dataset has no samples")
        if self.Y.shape[1] != len(self.names):
            raise DatasetError(
                f"Y has {self.Y.shape[1]} columns but the vocabulary has {len(self.names)} labels"
            )
        if self.clean_Y is not None:
            self.clean_Y = np.asarray(self.clean_Y)
            if self.clean_Y.shape != self.Y.shape:
                raise DatasetError("clean_Y and Y differ in shape")
            if not ((self.clean_Y == 0) | (self.clean_Y == 1)).all():
                raise DatasetError("clean labels must be 0 or 1")
            self.clean_Y = self.clean_Y.astype(np.int64)

    @property
    def flips(self) -> list[tuple[int, int]] | None:
        """The (row, label) positions where Y differs from clean_Y, in row-major
        order; None when the dataset carries no clean labels."""
        if self.clean_Y is None:
            return None
        return list(map(tuple, np.argwhere(self.Y != self.clean_Y).tolist()))

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]


# ---- file io ----


# Rows are formatted this many at a time, so memory stays flat in the row count.
_BLOCK_ROWS = 1024


def _row_template(n_features: int, n_labels: int, with_clean: bool) -> str:
    """One %-format sample line, laid out by `jsonio.dumps` itself."""
    x = [jsonio.Raw(jsonio.FLOAT_FORMAT)] * n_features
    y = [jsonio.Raw("%d")] * n_labels
    row = {"x": x, "y": y, "y_clean": y} if with_clean else {"x": x, "y": y}
    return jsonio.dumps(row) + "\n"


def save_dataset(ds: Dataset, path) -> None:
    """Write the JSONL form; output bytes depend only on the dataset's values."""
    jsonio.check_finite(ds.X)
    columns = [ds.X, ds.Y] if ds.clean_Y is None else [ds.X, ds.Y, ds.clean_Y]
    template = _row_template(ds.X.shape[1], ds.Y.shape[1], ds.clean_Y is not None)
    with jsonio.atomic_write(path) as fh:
        fh.write(jsonio.dumps({"labels": list(ds.names.names)}) + "\n")
        for start in range(0, ds.n_samples, _BLOCK_ROWS):
            # object columns hold Python floats and ints, which %-format like float(v) and int(v)
            block = np.concatenate([c[start : start + _BLOCK_ROWS].astype(object) for c in columns], axis=1)
            fh.write("".join([template % tuple(row) for row in block.tolist()]))


def _parse_number_list(value, line_no: int, key: str, binary: bool) -> list:
    if not isinstance(value, list):
        raise DatasetError(f"line {line_no}: {key} must be a list")
    for v in value:
        if binary:
            if type(v) is not int or v not in (0, 1):
                raise DatasetError(f"line {line_no}: {key} entries must be 0 or 1")
        else:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise DatasetError(f"line {line_no}: {key} entries must be numbers")
    return value


def load_dataset(path) -> Dataset:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].strip():
        raise DatasetError(f"{path}: missing label header")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as err:
        raise DatasetError(f"line 1: invalid JSON: {err.msg}") from None
    if not isinstance(header, dict) or not isinstance(header.get("labels"), list):
        raise DatasetError("line 1: header must be an object with a 'labels' list")
    try:
        vocab = LabelVocabulary(header["labels"])
    except ValueError as err:
        raise DatasetError(f"line 1: bad label header: {err}") from None
    samples = lines[1:]
    X, Y, clean = _read_samples(samples, len(vocab)) or _read_samples_by_line(samples, len(vocab), path)
    return Dataset(X, Y, vocab, clean)


_SAMPLE_KEYS = ({"x", "y"}, {"x", "y", "y_clean"})

# The JSON integer token -0, which json reads as int 0 and so loses the sign
# that "%.17g" writes for a feature of -0.0.
_NEGATIVE_ZERO = re.compile(r"-0(?![\d.eE])")


def _int_keeping_negative_zero(token: str):
    return -0.0 if token == "-0" else int(token)


def _label_array(rows: list, width: int) -> np.ndarray | None:
    try:
        Y = np.array(rows)
    except ValueError:
        return None
    if Y.ndim != 2 or Y.dtype.kind != "i" or Y.shape[1] != width or not ((Y == 0) | (Y == 1)).all():
        return None
    return Y


def _read_samples(lines: list[str], width: int):
    """(X, Y, clean Y or None) from the sample lines in one parse, validated as
    whole arrays; None wherever the line-by-line reader has to decide.

    It accepts only files that reader accepts, with equal arrays: every line
    starts with { and ends with }; every row has keys exactly x and y, or x, y
    and y_clean; x holds numbers, y and y_clean the integers 0 and 1; widths
    match. Rows of that shape hold no braces but their own, so each line holds
    whole rows, and with as many rows as lines each line holds exactly the one
    row it parses to on its own. Numpy would read JSON true, false and null as
    numbers, so any of those tokens sends the file to the line-by-line reader,
    and so does -0, whose sign only that reader keeps.
    """
    if not lines or not all(line[:1] == "{" and line[-1:] == "}" for line in lines):
        return None
    body = "[" + ",".join(lines) + "]"
    if "true" in body or "false" in body or "null" in body or _NEGATIVE_ZERO.search(body):
        return None
    try:
        rows = json.loads(body)
    except (ValueError, RecursionError):
        return None
    keys = rows[0].keys() if len(rows) == len(lines) and type(rows[0]) is dict else None
    if keys not in _SAMPLE_KEYS or not all(type(row) is dict and row.keys() == keys for row in rows):
        return None
    try:
        X = np.array([row["x"] for row in rows])
    except ValueError:
        return None
    if X.ndim != 2 or X.dtype.kind not in "fi":
        return None
    Y = _label_array([row["y"] for row in rows], width)
    clean = _label_array([row["y_clean"] for row in rows], width) if "y_clean" in keys else None
    if Y is None or (clean is None and "y_clean" in keys):
        return None
    return X.astype(np.float64), Y, clean


def _read_samples_by_line(lines: list[str], width: int, path):
    """(X, Y, clean Y or None) from the sample lines, checked one at a time;
    errors name the file line, the header being line 1."""
    xs: list[list] = []
    ys: list[list] = []
    cleans: list[list] = []
    has_clean: bool | None = None
    n_features: int | None = None
    for line_no, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as err:
            raise DatasetError(f"line {line_no}: invalid JSON: {err.msg}") from None
        if not isinstance(row, dict) or "x" not in row or "y" not in row:
            raise DatasetError(f"line {line_no}: sample objects need 'x' and 'y'")
        x = _parse_number_list(row["x"], line_no, "x", binary=False)
        if _NEGATIVE_ZERO.search(line):
            x = json.loads(line, parse_int=_int_keeping_negative_zero)["x"]
        y = _parse_number_list(row["y"], line_no, "y", binary=True)
        if n_features is None:
            n_features = len(x)
        elif len(x) != n_features:
            raise DatasetError(f"line {line_no}: expected {n_features} features, got {len(x)}")
        if len(y) != width:
            raise DatasetError(f"line {line_no}: expected {width} labels, got {len(y)}")
        row_has_clean = "y_clean" in row
        if has_clean is None:
            has_clean = row_has_clean
        elif row_has_clean != has_clean:
            raise DatasetError(f"line {line_no}: y_clean must appear on every sample or on none")
        if row_has_clean:
            y_clean = _parse_number_list(row["y_clean"], line_no, "y_clean", binary=True)
            if len(y_clean) != width:
                raise DatasetError(
                    f"line {line_no}: expected {width} clean labels, got {len(y_clean)}"
                )
            cleans.append(y_clean)
        xs.append(x)
        ys.append(y)
    if not xs:
        raise DatasetError(f"{path}: dataset has no samples")
    try:
        X = np.asarray(xs, dtype=np.float64)
    except OverflowError:  # an integer past the float range, which a float token there reads as inf
        raise DatasetError("features must be finite") from None
    clean = np.asarray(cleans, dtype=np.int64) if has_clean else None
    return X, np.asarray(ys, dtype=np.int64), clean


# ---- synthesis ----


def synthesize(seed: int, n_samples: int, n_features: int, rs: RuleSet, k_patterns: int) -> Dataset:
    """Clustered features with rule-consistent labels; clean by construction.

    Label patterns are drawn by rejection sampling until k_patterns distinct
    rule-consistent vectors are found (duplicates count as rejections; error
    after 10000 * k_patterns rejections). Randomness is keyed so a sample
    depends only on (seed, sample index): patterns and centroids come from
    the stream SeedSequence([seed, 0]) and sample i from
    SeedSequence([seed, 1, i]), which makes parallel generation equal to the
    serial one.
    """
    if k_patterns < 2:
        raise ValueError("k_patterns must be at least 2")
    if n_samples < 1 or n_features < 1:
        raise ValueError("n_samples and n_features must be at least 1")
    n_labels = len(rs.vocabulary)
    if n_labels > 20:
        raise ValueError("synthesis supports at most 20 labels")
    stream = np.random.default_rng([seed, 0])
    accepted: dict[tuple[int, ...], None] = {}  # insertion-ordered, and the seen-set
    budget = 10_000 * k_patterns
    rejections = 0
    while len(accepted) < k_patterns:
        # no more draws than patterns missing, so the stream stops at the last accepted one
        block = stream.integers(0, 2, size=(k_patterns - len(accepted), n_labels))
        for draw, violates in zip(map(tuple, block.tolist()), violation_matrix(rs, block).any(axis=1)):
            if rejections >= budget:
                raise SynthesisBudgetError(
                    f"no {k_patterns} distinct rule-consistent label vectors "
                    f"within {budget} rejections"
                )
            if violates or draw in accepted:
                rejections += 1
            else:
                accepted[draw] = None
    patterns = list(accepted)
    centroids = stream.uniform(-1.0, 1.0, size=(k_patterns, n_features))
    X = np.empty((n_samples, n_features))
    Y = np.empty((n_samples, n_labels), dtype=np.int64)
    for i in range(n_samples):
        rng_i = np.random.default_rng([seed, 1, i])
        pick = int(rng_i.integers(k_patterns))
        X[i] = centroids[pick] + rng_i.normal(0.0, 0.3, size=n_features)
        Y[i] = patterns[pick]
    return Dataset(X, Y, rs.vocabulary, clean_Y=Y.copy())


# ---- noise ----


def inject_noise(
    ds: Dataset, rho: float, seed: int, mode: str, rs: RuleSet | None = None
) -> Dataset:
    """Flip label bits at rate rho and remember exactly what was flipped.

    uniform: every (sample, label) position flips independently with
    probability rho. violating: with probability rho per sample, one bit is
    flipped, chosen uniformly among the single-bit flips that create at
    least one new rule violation (the sample is skipped when no such flip
    exists); this mode needs the rule set.
    """
    if not 0 <= rho <= 1:
        raise ValueError("rho must lie in [0, 1]")
    if mode not in NOISE_MODES:
        raise ValueError(f"noise mode must be one of {NOISE_MODES}, got {mode!r}")
    if ds.clean_Y is not None and not np.array_equal(ds.Y, ds.clean_Y):
        raise DatasetError("dataset already carries noise records")
    rng = np.random.default_rng(seed)
    Y = ds.Y.copy()
    if mode == "uniform":
        flip = rng.random(Y.shape) < rho
        Y[flip] = 1 - Y[flip]
    else:
        if rs is None:
            raise ValueError("violating mode needs a rule set")
        rs = reindex_ruleset(rs, ds.names)
        # row 0 keeps the labels, row j + 1 flips label j
        flip_masks = np.eye(Y.shape[1] + 1, Y.shape[1], k=-1, dtype=Y.dtype)
        for i in range(Y.shape[0]):
            if rng.random() >= rho:
                continue
            violated = violation_matrix(rs, Y[i] ^ flip_masks)
            candidates = np.flatnonzero((violated[1:] & ~violated[0]).any(axis=1))
            if not len(candidates):
                continue
            j = candidates[int(rng.integers(len(candidates)))]
            Y[i, j] = 1 - Y[i, j]
    return Dataset(ds.X, Y, ds.names, clean_Y=ds.Y.copy())


# ---- audit ----

_TEXT_MAX_SAMPLES = 100  # violating samples the text report lists


@dataclass
class AuditReport:
    """Hard-violation counts of a dataset's labels against a rule set."""

    per_rule: list[dict]  # {"rule": index, "text": str, "count": int}
    per_sample: list[dict]  # {"sample": index, "violated": [rule indices]}, violating samples only
    violating_samples: int
    fraction: float

    def to_text(self) -> str:
        lines = [
            f"violating samples: {self.violating_samples} "
            f"(fraction {jsonio.format_float(self.fraction)})",
            "per-rule violation counts:",
        ]
        for row in self.per_rule:
            lines.append(f"  [{row['rule']}] {row['text']}: {row['count']}")
        if self.per_sample:
            shown = self.per_sample[:_TEXT_MAX_SAMPLES]
            suffix = f" (first {_TEXT_MAX_SAMPLES})" if len(self.per_sample) > _TEXT_MAX_SAMPLES else ""
            lines.append(f"violating samples{suffix}:")
            for row in shown:
                rule_list = ", ".join(str(r) for r in row["violated"])
                lines.append(f"  sample {row['sample']}: rules [{rule_list}]")
        return "\n".join(lines)


def audit(ds: Dataset, rs: RuleSet) -> AuditReport:
    """Count hard rule violations in a dataset's labels (vocabularies matched by name)."""
    rs = reindex_ruleset(rs, ds.names)
    violations = violation_matrix(rs, ds.Y)
    per_rule = [
        {"rule": r, "text": format_rule(rule, ds.names), "count": int(violations[:, r].sum())}
        for r, rule in enumerate(rs.rules)
    ]
    per_sample = [
        {"sample": int(i), "violated": [int(r) for r in np.flatnonzero(violations[i])]}
        for i in np.flatnonzero(violations.any(axis=1))
    ]
    count = len(per_sample)
    return AuditReport(per_rule, per_sample, count, count / ds.n_samples)
