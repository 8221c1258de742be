"""Dataset files, rule-consistent synthesis, noise injection, and auditing.

Datasets are JSON Lines: the first line is a header {"labels": [...]}, then
one object per sample {"x": [...], "y": [...]} with an optional "y_clean"
holding the pre-noise labels. Which positions were flipped is recovered from
y/y_clean on load, so noise records survive a save/load round trip. A load
checks the bytes of every sample line, then converts the features; its
labels-only mode, which the audit command uses, skips the conversion. The
noise command, which changes labels only, has the load keep the sample lines,
marking each whose feature text it proves to be the writer's own, and a copy
of X; the save writes row i as line i with its label suffix replaced,
when line i is marked and row i still holds the bytes read from it, and
formats every other row. Violating noise replays its per-row draws from the
generator's raw words instead of calling the generator row by row, and
synthesis replays each row's pick and normals from its PCG64 words, computed
for a block of rows at once, and leaves to numpy the rest of a row from its
first normal that may leave the ziggurat's fast path.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field

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


@dataclass
class SampleLines:
    """What a load keeps of a file's sample lines for `save_dataset` to copy:
    the `texts` that `load_dataset` fills. `lines` are the sample lines, blank
    lines dropped and line breaks cut off; `proved` marks each line whose
    feature text is the one `save_dataset` would write for the row read from
    it; `X` is a copy of those rows and `labels` their label digits, y's then
    y_clean's, as 0 or 1; `suffix` is the label suffix of the file's layout.
    An empty one holds no line."""

    lines: list = field(default_factory=list)
    proved: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    X: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    labels: np.ndarray = field(default_factory=lambda: np.empty((0, 0), dtype=np.uint8))
    suffix: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))

    def copied(self, X: np.ndarray) -> np.ndarray:
        """Which rows of the float64 array X can be written from their lines:
        row i where line i was proved and the row's bytes equal row i read."""
        keep = np.zeros(len(X), dtype=bool)
        m = min(len(X), len(self.X))
        if X.shape[1] == self.X.shape[1]:
            same = (X[:m].view(np.uint64) == self.X[:m].view(np.uint64)).all(axis=1)
            keep[:m] = self.proved[:m] & same
        return keep


def save_dataset(ds: Dataset, path, texts: SampleLines | None = None) -> None:
    """Write the JSONL form; output bytes depend only on the dataset's values.
    The lines are formatted by `_formatted_lines`, a block at a time, each with
    its label suffix. Given `texts`, filled by `load_dataset`, a row that
    `texts.copied` marks is written as its line with the label suffix
    replaced (`_copied_lines`), and only the other rows are formatted, a
    block of them at a time."""
    labels = [ds.Y] if ds.clean_Y is None else [ds.Y, ds.clean_Y]
    prefix, suffix, digits = _sample_layout(ds.Y.shape[1], ds.clean_Y is not None)
    suffix = np.append(suffix, np.uint8(ord("\n")))
    rows = max(1, _BLOCK_FEATURES // max(ds.X.shape[1], 1))
    X = np.asarray(ds.X, dtype=np.float64)  # the rows are compared with texts.X as float64 bytes

    def tails(index) -> np.ndarray:
        """The label suffixes of the rows `index`, each ended by a line break."""
        values = np.concatenate([Y[index] for Y in labels], axis=1) + ord("0")
        # labels set after the Dataset checked them would wrap in uint8 and could read back as 0 or 1
        if not ((values == ord("0")) | (values == ord("1"))).all():
            raise DatasetError("labels must be 0 or 1")
        ends = np.tile(suffix, (len(values), 1))
        ends[:, digits] = values
        return ends

    copied = texts.copied(X) if texts is not None else np.zeros(len(X), dtype=bool)
    copying = copied.any()
    # the copied lines that need the new label suffix: all of them, but in the layout written,
    # where a line holds its label digits as the new suffix does, only those whose labels change
    stale = copied
    if copying and np.array_equal(texts.suffix, suffix[:-1]):
        m = min(len(copied), len(texts.labels))  # no row past the lines is copied
        stale = copied.copy()
        stale[:m] &= (np.concatenate([Y[:m] for Y in labels], axis=1) != texts.labels[:m]).any(axis=1)
    fresh = np.flatnonzero(~copied)
    # the lines of the rows not copied, formatted when first needed, a block of rows at a time
    made = (
        line
        for part in (fresh[start : start + rows] for start in range(0, len(fresh), rows))
        for line in _formatted_lines(prefix, X[part], tails(part)).splitlines()
    )
    with jsonio.atomic_write(path) as fh:
        fh.write(jsonio.dumps({"labels": list(ds.names.names)}) + "\n")
        for start in range(0, ds.n_samples, rows):
            block = slice(start, start + rows)
            if copying:
                at = np.flatnonzero(stale[block])  # only these of the copied rows take a new label suffix
                fh.write(_copied_lines(texts, copied[block], at, start, made, tails(start + at)))
            else:
                fh.write(_formatted_lines(prefix, X[block], tails(block)))


def _copied_lines(texts: SampleLines, keep: np.ndarray, stale: np.ndarray, start: int, made, ends) -> str:
    """The sample lines of the rows from `start` on, one per `keep` entry: a
    row marked `keep` from its line in `texts`, and each other row the next
    line of `made`. The copied rows at the offsets `stale` are cut from their
    old label suffix and joined to their new one, the rows of `ends` in turn."""
    lines = texts.lines[start : start + len(keep)]
    lines += [""] * (len(keep) - len(lines))
    for i in np.flatnonzero(~keep).tolist():
        lines[i] = next(made)
    # the new suffix without its line break, and the old one's width
    w, cut = ends.shape[1] - 1, texts.suffix.size
    tails = ends[:, :-1].tobytes().decode("ascii")
    for j, i in enumerate(stale.tolist()):
        lines[i] = lines[i][:-cut] + tails[j * w : (j + 1) * w]
    lines.append("")
    return "\n".join(lines)


def _formatted_lines(prefix: np.ndarray, X: np.ndarray, tails: np.ndarray) -> str:
    """The sample lines of the feature rows X and their label suffixes: the x
    prefix, the items of `jsonio.float_rows` and the suffix of each row, laid
    out as one uint8 matrix and joined once its NUL bytes are dropped."""
    heads = np.broadcast_to(prefix, (len(X), prefix.size))
    lines = np.concatenate([heads, jsonio.float_rows(X), tails], axis=1)
    return lines[lines != 0].tobytes().decode("ascii")


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


def load_dataset(path, features: bool = True, texts: SampleLines | None = None) -> Dataset:
    """The dataset file at `path`: a label header, then the sample lines, which
    `_read_samples` reads; errors name the file, and the file line where there
    is one. With `features` False, the labels-only mode, every line is checked
    as before, with the same errors, but no feature is converted: X has shape
    (n, 0). Given `texts`, the read keeps in it the sample lines, which of them
    hold their features as `save_dataset` would write them, and a copy of X,
    for `save_dataset` to copy."""
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
        X, Y, clean = _read_samples(lines[1:], len(vocab), features, texts)
    except DatasetError as err:
        raise DatasetError(f"{path}: {err}") from None
    return Dataset(X, Y, vocab, clean)


def _read_samples(lines: list[str], width: int, features: bool = True, texts: SampleLines | None = None):
    """(X, Y, clean Y or None) from the sample lines, the header being file
    line 1; X has shape (n, 0) without `features`. Blank lines are dropped;
    the first other line is parsed first, and sets the feature count and
    whether y_clean appears.

    A line in the writer's layout, which `_sample_layout` states, is the x
    prefix, its features and the label suffix byte for byte but for label
    digits that are 0 or 1; its labels come off those bytes. Its features are
    read in blocks of lines, `_BLOCK_FEATURES` features a block or one line if
    it holds more, by `jsonio.read_decimal_rows` when each is a plain decimal
    such as -0.25: its byte checks, then its conversion, which the
    labels-only read skips. Every other line is read by `_parse_sample`, in
    file order, and checked against the first. A line that passes the byte
    checks cannot be faulty, so an error names the first faulty line, and the
    labels-only read, which sends a subset of the same lines there, names
    the same one. Given `texts`, the conversion also certifies its lines,
    marking each line whose every token it proves to be `jsonio.FLOAT_FORMAT`'s
    text of its value, and `texts` keeps the lines, those marks, a copy of X
    and the layout's label suffix.
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
    X = np.empty((n, d if features else 0))
    decimal = np.zeros(n, dtype=bool)
    proved = np.zeros(n, dtype=bool)
    at = np.flatnonzero(written)
    rows = max(1, _BLOCK_FEATURES // max(d, 1))
    for start in range(0, len(at), rows):
        block = at[start : start + rows]
        values, direct, canonical = jsonio.read_decimal_rows(
            [lines[i][h:-w] for i in block.tolist()], d, features, texts is not None
        )
        X[block[direct]] = values
        decimal[block[direct]] = True
        proved[block[canonical]] = True
    for i in np.flatnonzero(~decimal).tolist():
        x, y, y_clean = sample if i == 0 else _parse_sample(lines[i], line_nos[i], width)
        if len(x) != d:
            raise DatasetError(f"line {line_nos[i]}: expected {d} features, got {len(x)}")
        if (y_clean is not None) != with_clean:
            raise DatasetError(f"line {line_nos[i]}: y_clean must appear on every sample or on none")
        if features:
            X[i] = x
        labels[i] = y + (y_clean or [])
    if texts is not None:
        texts.lines, texts.proved, texts.X, texts.suffix = lines, proved, X.copy(), suffix
        texts.labels = labels.astype(np.uint8)
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

# the multiplier as uint64 limbs, its low limb also as 32-bit halves
_MULT_HI, _MULT_LO = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & (1 << 64) - 1)
_MULT_LO1, _MULT_LO0 = np.uint64(_PCG64_MULT >> 32 & _MASK32), np.uint64(_PCG64_MULT & _MASK32)
_LOW32, _LOW52 = np.uint64(_MASK32), np.uint64((1 << 52) - 1)

# Rows are drawn in blocks of this many, so the replay's temporaries stay flat
# in the row count.
_DRAW_ROWS = 1 << 12

# Rows narrower than this many features have their normals replayed. About one
# draw in 70 may leave the ziggurat's fast path, and its row is then finished by
# numpy, so wider rows are drawn by numpy from their first normal: on 4000 rows
# the replay takes 0.98x the time of that at 56 features and 1.2x at 64.
_REPLAY_WIDTH_LIMIT = 60


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


def _pcg64_step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """PCG64's LCG step, (hi, lo) * M + inc modulo 2**128, on uint64 limbs, whose
    products wrap modulo 2**64; the high half of lo * M's low limb is built from
    32-bit halves."""
    lo0, lo1 = lo & _LOW32, lo >> np.uint64(32)
    p01, p10 = lo0 * _MULT_LO1, lo1 * _MULT_LO0
    mid = (lo0 * _MULT_LO0 >> np.uint64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = lo1 * _MULT_LO1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))
    new_lo = lo * _MULT_LO + inc_lo
    new_hi = carry + lo * _MULT_HI + hi * _MULT_LO + inc_hi + (new_lo < inc_lo).astype(np.uint64)
    return new_hi, new_lo


def _pcg64_output(hi, lo) -> np.ndarray:
    """PCG64's XSL-RR output of the states (hi, lo): hi ^ lo rotated right by hi >> 58."""
    x = hi ^ lo
    r = hi >> np.uint64(58)
    return (x >> r) | (x << ((np.uint64(64) - r) & np.uint64(63)))


def _pcg64_seeded(seed: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(hi, lo, inc_hi, inc_lo): the PCG64 state and increment that
    `np.random.default_rng([seed, 1, i])` starts in, for each i of the uint32
    array `rows`, as uint64 limbs. PCG64's seeding on `_row_seed_states`'
    (initstate, initseq): inc = 2 * initseq + 1, a step from 0, initstate added,
    a step."""
    s_hi, s_lo, q_hi, q_lo = _row_seed_states(seed, rows).T
    one = np.uint64(1)
    inc_hi, inc_lo = (q_hi << one) | (q_lo >> np.uint64(63)), (q_lo << one) | one
    lo = inc_lo + s_lo
    hi = inc_hi + s_hi + (lo < s_lo).astype(np.uint64)
    return (*_pcg64_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)


def _row_generators(hi, lo, inc_hi, inc_lo):
    """One reused Generator, set in turn to each PCG64 state and increment given
    as uint64 limbs."""
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    row_state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    for s_hi, s_lo, i_hi, i_lo in zip(hi.tolist(), lo.tolist(), inc_hi.tolist(), inc_lo.tolist()):
        row_state["state"] = {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}
        bit_generator.state = row_state
        yield rng


def _forced(bit_generator, word: int) -> None:
    """Set the PCG64 `bit_generator` so that its next output is `word`: the state
    (hi = 0, lo = word) outputs word, and is one step on from (word - 1) * M**-1
    with the increment 1."""
    state = (word - 1) * pow(_PCG64_MULT, -1, 1 << 128) & _MASK128
    bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": 1}, "has_uint32": 0, "uinteger": 0
    }


@functools.cache
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """(scale, bound), both indexed by a word's low 9 bits, for replaying
    `standard_normal`'s ziggurat (Marsaglia and Tsang, 2000), which takes one
    word w: its layer idx = w & 0xFF, its sign bit 8 and rabs = (w >> 9) & (2**52 - 1).
    It returns rabs * wi[idx], negated when the sign is set, while rabs < ki[idx];
    a replay returns rabs * scale[w & 0x1FF], which is the same product, whenever
    rabs < bound[w & 0x1FF], and otherwise leaves the draw to numpy.

    wi[idx] is read from numpy: the word with rabs = 1 and sign 0 draws exactly
    it (layer 1, which never returns from the fast path, returns it from its
    wedge test, where exp(-x**2 / 2) is 1.0). ki[idx] is
    2**52 * wi[idx - 1] / wi[idx] to within 0.75 (for layer 0, wi[255]'s ratio to
    wi[0], within 0.22); its float floor less 2 stays below it, and layer 1's
    bound is 0."""
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    wi = np.empty(256)
    for idx in range(256):
        _forced(bit_generator, 1 << 9 | idx)
        wi[idx] = rng.standard_normal()
    bound = np.floor(2.0**52 * np.roll(wi, 1) / wi) - 2
    bound[1] = 0
    tables = np.concatenate([wi, -wi]), np.tile(bound, 2)
    for table in tables:
        table.flags.writeable = False  # cached, so shared by every caller
    return tables


def _row_draws(seed: int, n_samples: int, n_features: int, k_patterns: int) -> tuple[np.ndarray, np.ndarray]:
    """(picks, noise): for each sample i, `integers(k_patterns)` and then
    `normal(0.0, 0.3, size=n_features)` of `np.random.default_rng([seed, 1, i])`,
    bit for bit, replayed from the rows' PCG64 words, block by block.

    The rows of a block are seeded and stepped at once (O'Neill, 2014: a
    128-bit LCG whose output is XSL-RR). `integers(k)` draws int64 with the
    range k - 1, which for every k from 2 to 2**20 (synthesis allows at most 20
    labels) fits 32 bits and is not 2**32 - 1, so numpy takes Lemire's bounded
    draw on one 32-bit output: the low half of the row's first word, the high
    half kept for a next 32-bit draw. Unless that draw rejects, the pick is
    ((w & 0xFFFFFFFF) * k) >> 32, and `standard_normal` reads the normals from
    the second word on, one word each while they take the ziggurat's fast
    path, which is replayed (`_ziggurat_tables`). At a row's first draw that
    may leave it, a reused Generator set to the state before that word draws
    the rest of the row; rows of at least `_REPLAY_WIDTH_LIMIT` features are
    drawn by it from their first normal. A rejected row, where the product's
    low half is below (2**32 - k) % k (odds below k / 2**32), is drawn again
    with `integers` and `normal`. `normal` returns 0.0 + 0.3 * z, which is the
    in-place scaling below, -0.0 made +0.0 included."""
    scale, bound = _ziggurat_tables()
    replayed = range(n_features if n_features < _REPLAY_WIDTH_LIMIT else 0)
    picks = np.empty(n_samples, dtype=np.intp)
    noise = np.empty((n_samples, n_features))
    rejected = []
    for start in range(0, n_samples, _DRAW_ROWS):
        stop = min(start + _DRAW_ROWS, n_samples)
        rows = np.arange(start, stop, dtype=np.uint32)
        hi, lo, inc_hi, inc_lo = _pcg64_seeded(seed, rows)
        hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
        m = (_pcg64_output(hi, lo) & _LOW32) * np.uint64(k_patterns)
        picks[start:stop] = m >> np.uint64(32)
        rejects = (m & _LOW32) < (2**32 - k_patterns) % k_patterns
        out = noise[start:stop]
        # the rows numpy finishes, each from column first with the state before its word
        finished = np.full(len(rows), not replayed)
        first = np.zeros(len(rows), dtype=np.intp)
        before_hi, before_lo = hi, lo
        for j in replayed:
            prev_hi, prev_lo = hi, lo
            hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
            w = _pcg64_output(hi, lo)
            low = (w & np.uint64(0x1FF)).astype(np.intp)
            rabs = ((w >> np.uint64(9)) & _LOW52).astype(np.float64)
            np.multiply(rabs, scale[low], out=out[:, j])
            slow = (rabs >= bound[low]) & ~finished
            np.copyto(before_hi, prev_hi, where=slow)
            np.copyto(before_lo, prev_lo, where=slow)
            first[slow] = j
            finished |= slow
        rows_left = np.flatnonzero(finished & ~rejects)
        before = before_hi[rows_left], before_lo[rows_left], inc_hi[rows_left], inc_lo[rows_left]
        for r, j, rng in zip(rows_left.tolist(), first[rows_left].tolist(), _row_generators(*before)):
            rng.standard_normal(out=out[r, j:])
        out *= 0.3
        out += 0.0
        rejected += rows[rejects].tolist()
    redraws = _row_generators(*_pcg64_seeded(seed, np.array(rejected, dtype=np.uint32)))
    for i, rng in zip(rejected, redraws):
        picks[i] = rng.integers(k_patterns)
        noise[i] = rng.normal(0.0, 0.3, size=n_features)
    return picks, noise


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

    Sample i's draws are not asked of a generator built from its seed
    sequence. Its PCG64 state is computed for a block of rows at once by the
    algorithm of `numpy.random.SeedSequence` (numpy's port of Melissa
    O'Neill's seed_seq_fe hash) and PCG64's seeding, and its words by PCG64's
    step and output. The pick, and each normal that `standard_normal` draws
    on its ziggurat's fast path, are computed from those words; from a row's
    first other normal on, one reused generator set to the row's state draws
    the rest (`_row_draws`). SeedSequence, the PCG64 state layout and its
    stream fall under NumPy's stream-compatibility policy, NEP 19
    (https://numpy.org/neps/nep-0019-rng-policy.html). The ziggurat's tables
    are read from numpy itself, and the tests check the states, the tables
    and the draws against `np.random.default_rng` bit for bit.
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
    picks, noise = _row_draws(seed, n_samples, n_features, k_patterns)
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
        rows, picks = _violating_draws(rng.bit_generator, rho, np.count_nonzero(table, axis=1).tolist())
        if rows:
            # the pick-th candidate of a row is the first label at which its running count passes the pick
            cols = np.argmax(table[rows].cumsum(axis=1) > np.array(picks)[:, None], axis=1)
            Y[rows, cols] = 1 - Y[rows, cols]
    return Dataset(ds.X, Y, ds.names, clean_Y=ds.Y.copy())


def _violating_draws(bit_generator, rho: float, counts: list[int]) -> tuple[list[int], list[int]]:
    """(rows, picks): the rows that violating noise flips, in order, and the
    place of each one's flip among its candidates, where counts[i] is row i's
    number of candidates. They are what a Generator on `bit_generator` draws
    when each row calls `random()` and, if that is below rho and the row has k
    candidates, `integers(k)`; here they are replayed from its raw words.

    `random()` is one word w, read as (w >> 11) * 2**-53, which is below rho
    exactly when w < ceil(rho * 2**53) * 2**11. `integers(1)` draws nothing.
    For k >= 2, `integers(k)` is Lemire's bounded draw on a 32-bit output x:
    the pick is (x * k) >> 32, and x is drawn again while the product's low
    half is below (2**32 - k) % k. PCG64 gives a 32-bit output as the low half
    of a new word and keeps its high half for the next 32-bit output; `random()`
    leaves that half kept. The words are drawn in bulk, so the generator ends
    past the state the per-row calls would leave it in."""
    limit = math.ceil(rho * 2.0**53) << 11
    bulk = 2 * len(counts) + 2  # enough words unless a draw is rejected
    words = itertools.chain.from_iterable(iter(lambda: bit_generator.random_raw(bulk).tolist(), None))
    rows, picks = [], []
    kept = None  # the high half of the last word a 32-bit output was taken from, until taken
    for i, k, w in zip(itertools.count(), counts, words):
        if w >= limit or not k:
            continue
        rows.append(i)
        if k == 1:
            picks.append(0)
            continue
        while True:
            if kept is None:
                x = next(words)
                x, kept = x & _MASK32, x >> 32
            else:
                x, kept = kept, None
            m = x * k
            if (m & _MASK32) >= (2**32 - k) % k:
                break
        picks.append(m >> 32)
    return rows, picks


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
    totals = violations.sum(axis=0).tolist()
    per_rule = [
        {"rule": r, "text": format_rule(rule, ds.names), "count": totals[r]} for r, rule in enumerate(rs.rules)
    ]
    # the violations in row-major order, cut where the sample changes
    samples, rules = np.nonzero(violations)
    cuts = np.flatnonzero(np.diff(samples, prepend=-1)).tolist()
    samples, rules = samples.tolist(), rules.tolist()
    per_sample = [
        {"sample": samples[a], "violated": rules[a:b]} for a, b in zip(cuts, cuts[1:] + [len(rules)])
    ]
    count = len(per_sample)
    return AuditReport(per_rule, per_sample, count, count / ds.n_samples)
