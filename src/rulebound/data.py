"""Dataset files, rule-consistent synthesis, noise injection, and auditing.

Datasets are JSON Lines: the first line is a header {"labels": [...]}, then
one object per sample {"x": [...], "y": [...]} with an optional "y_clean"
holding the pre-noise labels. Which positions were flipped is recovered from
y/y_clean on load, so noise records survive a save/load round trip.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .rules import LabelVocabulary, RuleSet, breaking_flips, format_rule, reindex_ruleset, violation_matrix
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


# Sample lines are written and read in blocks of about this many features, so
# memory stays flat in the file size: the writer's and the reader's temporaries
# come to a few hundred bytes per feature.
_BLOCK_FEATURES = 1 << 14


def _sample_layout(width: int, with_clean: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A sample line as `jsonio.dumps` lays it out, as uint8 text cut around the
    x list's items: the x prefix, then the label suffix with every label 0, and
    the offsets of the label digits in that suffix, y's then y_clean's."""
    zeros = [0] * width
    row = {"x": [], "y": zeros, "y_clean": zeros} if with_clean else {"x": [], "y": zeros}
    line = np.frombuffer(jsonio.dumps(row).encode("ascii"), dtype=np.uint8)
    cut = np.argmax(line == ord("]"))  # the x list's end
    return line[:cut], line[cut:], np.flatnonzero(line[cut:] == ord("0"))


def save_dataset(ds: Dataset, path) -> None:
    """Write the JSONL form; output bytes depend only on the dataset's values.
    Each block of lines is laid out as one uint8 matrix, the x prefix, the
    items of `jsonio.float_rows` and the label suffix with its digits set, and
    written once its NUL bytes are dropped."""
    jsonio.check_finite(ds.X)
    labels = [ds.Y] if ds.clean_Y is None else [ds.Y, ds.clean_Y]
    prefix, suffix, digits = _sample_layout(ds.Y.shape[1], ds.clean_Y is not None)
    suffix = np.append(suffix, np.uint8(ord("\n")))
    rows = max(1, _BLOCK_FEATURES // max(ds.X.shape[1], 1))
    with jsonio.atomic_write(path) as fh:
        fh.write(jsonio.dumps({"labels": list(ds.names.names)}) + "\n")
        for start in range(0, ds.n_samples, rows):
            block = slice(start, start + rows)
            values = np.concatenate([Y[block] for Y in labels], axis=1) + ord("0")
            # labels set after the Dataset checked them would wrap in uint8 and could read back as 0 or 1
            if not ((values == ord("0")) | (values == ord("1"))).all():
                raise DatasetError("labels must be 0 or 1")
            n = len(values)
            tails = np.tile(suffix, (n, 1))
            tails[:, digits] = values
            heads = np.broadcast_to(prefix, (n, prefix.size))
            lines = np.concatenate([heads, jsonio.float_rows(ds.X[block]), tails], axis=1)
            fh.write(lines[lines != 0].tobytes().decode("ascii"))


def _parse_number_list(value, line_no: int, key: str, binary: bool) -> list:
    if not isinstance(value, list):
        raise DatasetError(f"line {line_no}: {key} must be a list")
    if binary:
        # the types first, so that an unhashable entry never reaches set(value)
        if not (set(map(type, value)) <= {int} and set(value) <= {0, 1}):
            raise DatasetError(f"line {line_no}: {key} entries must be 0 or 1")
    elif not set(map(type, value)) <= {int, float}:
        raise DatasetError(f"line {line_no}: {key} entries must be numbers")
    return value


def load_dataset(path) -> Dataset:
    """The dataset file at `path`: a label header, then the sample lines, which
    `_read_samples` reads; errors name the file, and the file line where there
    is one."""
    lines = jsonio.split_lines(jsonio.read_text(path))
    try:
        if not lines or not lines[0].strip():
            raise DatasetError("missing label header")
        try:
            header = jsonio.loads(lines[0])
        except json.JSONDecodeError as err:
            raise DatasetError(f"line 1: invalid JSON: {err.msg}") from None
        if not isinstance(header, dict) or not isinstance(header.get("labels"), list):
            raise DatasetError("line 1: header must be an object with a 'labels' list")
        try:
            vocab = LabelVocabulary(header["labels"])
        except ValueError as err:
            raise DatasetError(f"line 1: bad label header: {err}") from None
        X, Y, clean = _read_samples(lines[1:], len(vocab))
    except DatasetError as err:
        raise DatasetError(f"{path}: {err}") from None
    return Dataset(X, Y, vocab, clean)


def _read_samples(lines: list[str], width: int):
    """(X, Y, clean Y or None) from the sample lines, the header being file
    line 1. Blank lines are dropped; the first other line is parsed first, and
    sets the feature count and whether y_clean appears.

    A line in the writer's layout, which `_sample_layout` states, is the x
    prefix, its features and the label suffix byte for byte but for label
    digits that are 0 or 1; its labels come off those bytes. Its features are
    read in blocks of lines, `_BLOCK_FEATURES` features a block or one line if
    it holds more, by `jsonio.read_decimal_rows` when each is a plain decimal
    such as -0.25. Every other line is read by `_parse_sample`, in file order,
    and checked against the first. A line the decimal path reads cannot be
    faulty, so an error names the first faulty line.
    """
    line_nos = [line_no for line_no, line in enumerate(lines, start=2) if line.strip()]
    if not line_nos:
        raise DatasetError("dataset has no samples")
    lines = [lines[line_no - 2] for line_no in line_nos]
    sample = _parse_sample(lines[0], line_nos[0], width)
    d, with_clean = len(sample[0]), sample[2] is not None
    prefix, suffix, digits = _sample_layout(width, with_clean)
    n, h, w = len(lines), prefix.size, suffix.size
    layout = np.concatenate([prefix, suffix])
    # a line too short for the layout is padded with "?"s, which the layout does not hold,
    # and a character past ASCII reads as "?"
    text = "".join([end[:h] + end[-w:] for end in (line.rjust(h + w, "?") for line in lines)])
    codes = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8).reshape(n, h + w) ^ layout
    # 0 where a layout byte matches; a label digit, a "0" of the layout, reads 0 or 1 only for "0" or "1"
    written = ~(codes > (layout == ord("0"))).any(axis=1)
    labels = codes[:, h + digits].astype(np.int64)
    X = np.empty((n, d))
    decimal = np.zeros(n, dtype=bool)
    at = np.flatnonzero(written)
    features = [line[h:-w] for line in itertools.compress(lines, written)]
    rows = max(1, _BLOCK_FEATURES // max(d, 1))
    for start in range(0, len(at), rows):
        values, direct = jsonio.read_decimal_rows(features[start : start + rows], d)
        done = at[start : start + rows][direct]
        X[done] = values
        decimal[done] = True
    for i in np.flatnonzero(~decimal).tolist():
        x, y, y_clean = sample if i == 0 else _parse_sample(lines[i], line_nos[i], width)
        if len(x) != d:
            raise DatasetError(f"line {line_nos[i]}: expected {d} features, got {len(x)}")
        if (y_clean is not None) != with_clean:
            raise DatasetError(f"line {line_nos[i]}: y_clean must appear on every sample or on none")
        X[i] = x
        labels[i] = y + (y_clean or [])
    return X, labels[:, :width], labels[:, width:] if with_clean else None


def _finite(x: list) -> bool:
    try:
        return all(map(math.isfinite, x))
    except OverflowError:  # an integer past the float range, which a float token there reads as inf
        return False


def _parse_sample(line: str, line_no: int, width: int) -> tuple[list, list, list | None]:
    """(x, y, y_clean or None) of sample line `line_no`: x a list of finite
    numbers, -0 read as -0.0, and y and y_clean `width` labels 0 or 1."""
    try:
        row = jsonio.loads(line)
    except json.JSONDecodeError as err:
        raise DatasetError(f"line {line_no}: invalid JSON: {err.msg}") from None
    if not isinstance(row, dict) or "x" not in row or "y" not in row:
        raise DatasetError(f"line {line_no}: sample objects need 'x' and 'y'")
    x = _parse_number_list(row["x"], line_no, "x", binary=False)
    if not _finite(x):
        raise DatasetError(f"line {line_no}: features must be finite")
    x = jsonio.with_negative_zeros(line, row)["x"]
    y = _parse_number_list(row["y"], line_no, "y", binary=True)
    if len(y) != width:
        raise DatasetError(f"line {line_no}: expected {width} labels, got {len(y)}")
    if "y_clean" not in row:
        return x, y, None
    y_clean = _parse_number_list(row["y_clean"], line_no, "y_clean", binary=True)
    if len(y_clean) != width:
        raise DatasetError(f"line {line_no}: expected {width} clean labels, got {len(y_clean)}")
    return x, y, y_clean


# ---- synthesis ----

# Candidate label blocks grow to at most this many rows, so memory stays flat
# in the rejection budget.
_SEARCH_ROWS = 1 << 14

# The pattern search raises after this many rejections per pattern asked for.
_REJECTIONS_PER_PATTERN = 10_000

# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit multiplier (numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _uint32_words(n: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: 32-bit words, least significant first."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _row_seed_states(seed: int, rows: np.ndarray) -> np.ndarray:
    """`SeedSequence([seed, 1, i]).generate_state(4, np.uint64)` for each i of
    the uint32 array `rows`, as a (len(rows), 4) uint64 array: the SeedSequence
    hash run once over uint32 arrays with an entry per row, whose products wrap
    modulo 2**32 as the hash's do."""
    hash_const = _INIT_A

    def hashmix(value, mult):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    # the entropy words: the seed's, 1, then i's one word; a pool of 4 words
    entropy = [np.full(1, w, dtype=np.uint32) for w in [*_uint32_words(int(seed)), 1]]
    entropy.append(rows)
    entropy += [np.zeros(1, dtype=np.uint32)] * (4 - len(entropy))
    pool = [hashmix(word, _MULT_A) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src], _MULT_A))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word, _MULT_A))
    # i reaches every pool word, so each is one entry per row
    hash_const = _INIT_B
    words = np.stack([hashmix(pool[j % 4], _MULT_B) for j in range(8)], axis=1)
    return words.astype("<u4").view("<u8").astype(np.uint64)


def _row_generators(seed: int, rows: np.ndarray):
    """For each i of the uint32 array `rows`, one reused Generator set to the
    state `np.random.default_rng([seed, 1, i])` starts in."""
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    row_state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    for s_hi, s_lo, inc_hi, inc_lo in _row_seed_states(seed, rows).tolist():
        # PCG64's seeding: inc = 2 * initseq + 1; step; add initstate; step
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        row_state["state"] = {"state": state, "inc": inc}
        bit_generator.state = row_state
        yield rng


def _check_seed(seed) -> None:
    """Raise ValueError for a seed that is not a non-negative integer, whose
    rejection by `np.random.default_rng` would name neither seed nor value."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def synthesize(seed: int, n_samples: int, n_features: int, rs: RuleSet, k_patterns: int) -> Dataset:
    """Clustered features with rule-consistent labels; clean by construction.

    Label patterns are drawn by rejection sampling until k_patterns distinct
    rule-consistent vectors are found (duplicates count as rejections; error
    after 10000 * k_patterns rejections, or before the first draw when
    k_patterns passes the 2 ** n_labels vectors there are). Randomness is keyed so a sample
    depends only on (seed, sample index): patterns and centroids come from
    the stream SeedSequence([seed, 0]) and sample i from
    SeedSequence([seed, 1, i]), which makes parallel generation equal to the
    serial one.

    Sample i's generator is not built from its seed sequence. Its PCG64 state
    is computed for all rows at once by the algorithm of
    `numpy.random.SeedSequence` (numpy's port of Melissa O'Neill's
    seed_seq_fe hash), then set on one reused generator. That algorithm and
    the PCG64 state layout fall under NumPy's stream-compatibility policy,
    NEP 19 (https://numpy.org/neps/nep-0019-rng-policy.html), and the tests
    check the states and draws against `np.random.default_rng` bit for bit.
    """
    _check_seed(seed)
    if k_patterns < 2:
        raise ValueError("k_patterns must be at least 2")
    if n_samples < 1 or n_features < 1:
        raise ValueError("n_samples and n_features must be at least 1")
    if n_samples > 2**32:
        raise ValueError("synthesis supports at most 2**32 samples")
    n_labels = len(rs.vocabulary)
    if n_labels > 20:
        raise ValueError("synthesis supports at most 20 labels")
    if k_patterns > 2**n_labels:
        raise SynthesisBudgetError(
            f"no {k_patterns} distinct label vectors exist over {n_labels} labels, only {2**n_labels}"
        )
    stream = np.random.default_rng([seed, 0])
    accepted: dict[tuple[int, ...], None] = {}  # insertion-ordered, and the seen-set
    budget = _REJECTIONS_PER_PATTERN * k_patterns
    rejections = 0
    rows = k_patterns
    while len(accepted) < k_patterns:
        rows = min(rows, _SEARCH_ROWS)
        before = stream.bit_generator.state
        block = stream.integers(0, 2, size=(rows, n_labels))
        draws = zip(map(tuple, block.tolist()), violation_matrix(rs, block).any(axis=1))
        for used, (draw, violates) in enumerate(draws, start=1):
            if rejections >= budget:
                raise SynthesisBudgetError(
                    f"no {k_patterns} distinct rule-consistent label vectors "
                    f"within {budget} rejections"
                )
            if violates or draw in accepted:
                rejections += 1
            else:
                accepted[draw] = None
                if len(accepted) == k_patterns:
                    break
        rows *= 2
    # draw again only the rows examined, so the centroids follow the last accepted draw
    stream.bit_generator.state = before
    stream.integers(0, 2, size=(used, n_labels))
    patterns = list(accepted)
    centroids = stream.uniform(-1.0, 1.0, size=(k_patterns, n_features))
    picks = np.empty(n_samples, dtype=np.intp)
    noise = np.empty((n_samples, n_features))
    for i, rng_i in enumerate(_row_generators(seed, np.arange(n_samples, dtype=np.uint32))):
        picks[i] = rng_i.integers(k_patterns)
        noise[i] = rng_i.normal(0.0, 0.3, size=n_features)
    X = centroids[picks] + noise
    Y = np.array(patterns, dtype=np.int64)[picks]
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
    _check_seed(seed)
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
        # the table draws nothing, so each row's two draws keep their order
        table = breaking_flips(reindex_ruleset(rs, ds.names), Y)
        for i in range(Y.shape[0]):
            if rng.random() >= rho:
                continue
            candidates = np.flatnonzero(table[i])
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
