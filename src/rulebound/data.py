"""Dataset files, rule-consistent synthesis, noise injection, and auditing.

Datasets are JSON Lines: the first line is a header {"labels": [...]}, then
one object per sample {"x": [...], "y": [...]} with an optional "y_clean"
holding the pre-noise labels. Which positions were flipped is recovered from
y/y_clean on load, so noise records survive a save/load round trip.
"""

from __future__ import annotations

import json
import math
import re
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


# Rows are formatted this many at a time, so memory stays flat in the row count.
_BLOCK_ROWS = 1024

# Sample lines are read in blocks of about this many features, so memory stays
# flat in the file size: the reader's temporaries come to a few hundred bytes
# per feature.
_BLOCK_FEATURES = 1 << 14


def _sample_layout(n_features: int, width: int, with_clean: bool) -> tuple[str, np.ndarray, np.ndarray]:
    """A sample line as `jsonio.dumps` lays it out, cut where the x list ends:
    the %-format head that takes the features, then the label suffix as uint8
    text with every label 0, and the offsets of the label digits in that
    suffix, y's then y_clean's. With no features the head is the x prefix."""
    x = [jsonio.Raw(jsonio.FLOAT_FORMAT)] * n_features
    zeros = [0] * width
    row = {"x": x, "y": zeros, "y_clean": zeros} if with_clean else {"x": x, "y": zeros}
    line = jsonio.dumps(row)
    cut = line.index("]")  # the x list's end: no key or feature format holds "]"
    suffix = np.frombuffer(line[cut:].encode("ascii"), dtype=np.uint8)
    return line[:cut], suffix, np.flatnonzero(suffix == ord("0"))


def save_dataset(ds: Dataset, path) -> None:
    """Write the JSONL form; output bytes depend only on the dataset's values."""
    jsonio.check_finite(ds.X)
    labels = [ds.Y] if ds.clean_Y is None else [ds.Y, ds.clean_Y]
    head, suffix, digits = _sample_layout(ds.X.shape[1], ds.Y.shape[1], ds.clean_Y is not None)
    template, w = head + "%s\n", suffix.size
    with jsonio.atomic_write(path) as fh:
        fh.write(jsonio.dumps({"labels": list(ds.names.names)}) + "\n")
        for start in range(0, ds.n_samples, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            X = ds.X[rows].tolist()  # Python floats, which %-format like float(v)
            values = np.concatenate([Y[rows] for Y in labels], axis=1) + ord("0")
            # labels set after the Dataset checked them would wrap in uint8 and could read back as 0 or 1
            if not ((values == ord("0")) | (values == ord("1"))).all():
                raise DatasetError("labels must be 0 or 1")
            codes = np.tile(suffix, (len(X), 1))
            codes[:, digits] = values
            text = codes.tobytes().decode("ascii")
            suffixes = [text[k : k + w] for k in range(0, len(text), w)]
            fh.write("".join([template % (*x, t) for x, t in zip(X, suffixes)]))


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
    """The dataset file at `path`. Files in the writer's layout are read by
    `_read_written_samples`, any others by `_read_samples_by_line`, to the
    same arrays; errors name the file, and the file line where there is one."""
    lines = jsonio.split_lines(jsonio.read_text(path))
    try:
        if not lines or not lines[0].strip():
            raise DatasetError("missing label header")
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
        samples, width = lines[1:], len(vocab)
        X, Y, clean = _read_written_samples(samples, width) or _read_samples_by_line(samples, width)
    except DatasetError as err:
        raise DatasetError(f"{path}: {err}") from None
    return Dataset(X, Y, vocab, clean)


# The JSON integer token -0, which json reads as int 0 and so loses the sign
# that "%.17g" writes for a feature of -0.0.
_NEGATIVE_ZERO = re.compile(r"-0(?![\d.eE])")


def _int_keeping_negative_zero(token: str):
    return -0.0 if token == "-0" else int(token)


def _read_written_samples(lines: list[str], width: int):
    """(X, Y, clean Y or None) from sample lines in the writer's layout, which
    `_sample_layout` states; None for any other lines, which the line reader
    then reads or rejects.

    Every line must be the x prefix, then its features, then the label suffix
    byte for byte but for label digits that are 0 or 1. The labels come off
    those bytes as one uint8 matrix. The features are read in blocks of lines,
    `_BLOCK_FEATURES` features a block or one line if it holds more.
    `_read_decimal_rows` converts a line itself when each of its features is a
    plain decimal such as -0.25, and every other line of the block goes to one
    `json.loads`, each line's features as one list, which must come out as one
    flat list of finite numbers per line. A bracket among a line's features
    would add a list or nest one, so then each line's list is the x list that
    the line reader reads. Integer tokens parse as that reader parses them, so
    -0 keeps its sign. The letters of true, false and null, which numpy would
    read as numbers, send the file on, and so do those of Infinity. Every line
    must hold as many features as the first, and one `np.array` of all lines'
    numbers would have to be of a float or int dtype: integers alone, none
    negative and some in [2**63, 2**64), which it would read as uint64, send
    the file on too.
    """
    if not lines:
        return None
    with_clean = '"y_clean": [' in lines[0]
    head, suffix, digits = _sample_layout(0, width, with_clean)
    n, h, w = len(lines), len(head), suffix.size
    if min(map(len, lines)) < h + w or "".join([line[:h] for line in lines]) != head * n:
        return None
    try:
        tails = "".join([line[-w:] for line in lines]).encode("ascii")
    except UnicodeEncodeError:
        return None
    # 0 where a byte matches the suffix; a digit reads 0 or 1 only for "0" or "1"
    codes = np.frombuffer(tails, dtype=np.uint8).reshape(n, w) ^ suffix
    allowed = np.zeros(w, dtype=np.uint8)
    allowed[digits] = 1
    if (codes > allowed).any():
        return None
    features = [line[h:-w] for line in lines]
    # JSON reads a blank list as empty. A first line that is not a flat list of
    # numbers sends the file on at its own json.loads below, so its commas can
    # set the count
    d = features[0].count(",") + 1 if features[0].strip(" \t") else 0
    X = np.empty((n, d))
    dtypes = []  # each block's, whose promotion is the dtype one np.array of all lines would have
    rows = max(1, _BLOCK_FEATURES // max(d, 1))
    for start in range(0, n, rows):
        block, part = features[start : start + rows], X[start : start + rows]
        values, direct = _read_decimal_rows(block, d)
        part[direct] = values
        if direct.any():
            dtypes.append(values.dtype)
        rest = [text for text, done in zip(block, direct.tolist()) if not done]
        if not rest:
            continue
        body = "[[" + "],[".join(rest) + "]]"
        if "t" in body or "f" in body or "n" in body:
            return None
        try:
            parsed = np.array(json.loads(body, parse_int=_int_keeping_negative_zero))
        except (ValueError, RecursionError):
            return None
        if parsed.shape != (len(rest), d) or parsed.dtype.kind not in "fiu" or not np.isfinite(parsed).all():
            return None
        part[~direct] = parsed
        dtypes.append(parsed.dtype)
    if np.result_type(*dtypes).kind not in "fi":
        return None
    Y = codes[:, digits].astype(np.int64)
    return X, Y[:, :width], Y[:, width:] if with_clean else None


# 5**k for k <= 22, all exact in float64 (5**22 < 2**53).
_POW5 = np.array([5**k for k in range(23)], dtype=np.int64)


def _read_decimal_rows(texts: list[str], d: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, direct) for the x-list texts of a block of lines: `direct`
    marks each line that holds d features, all of the form
    -?(0|[1-9][0-9]*)\\.[0-9]+ with at most 18 significant and at most 22
    fraction digits, separated by ", ", whose values `_decimals_to_doubles`
    settles; `values` holds those lines' features, rounded as json.loads
    rounds them, as a (direct.sum(), d) array."""
    # every token lies between two commas, each followed by a space when the token is read
    text = ", " + ", ".join(texts) + ", "
    codes = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
    others = np.flatnonzero((codes - ord("0")) > 9)  # uint8 wraps below "0": every byte but a digit
    kinds = codes[others]
    at = np.flatnonzero(kinds == ord(","))  # the commas' places in `others`
    commas, before = others[at], at[1:] - 1
    starts, ends = commas[:-1] + 2, commas[1:]
    # a read token's last byte but a digit is its point, and the bytes but digits
    # from its comma to the next are the space, the sign if any, the point and that comma
    point = others[before]
    negative = codes[starts] == ord("-")
    lead = starts + negative
    fraction = ends - point - 1
    ok = (
        (codes[commas[:-1] + 1] == ord(" "))
        & (np.diff(at) == 3 + negative)
        & (kinds[before] == ord("."))
        & (point > lead)
        & (fraction >= 1)
        & (fraction <= 22)
        & ((codes[lead] != ord("0")) | (point == lead + 1))
    )
    # each line's tokens run up to the comma that follows its text
    lengths = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    last = np.searchsorted(commas, np.cumsum(lengths + 2))
    counts = np.diff(last, prepend=0)
    direct = (counts == d) & np.logical_and.reduceat(ok, last - counts)
    if not direct.any():
        return np.empty((0, d)), direct
    tokens = np.repeat(direct, counts)
    good = ", ".join([t for t, keep in zip(texts, direct.tolist()) if keep]).encode("ascii")
    mantissas = np.fromstring(good.replace(b".", b""), dtype=np.int64, sep=",")
    # more than 18 significant digits read as 10**18 or more: numpy's int64 text
    # parser clamps a value past the int64 range to its end
    fits = (mantissas > -(10**18)) & (mantissas < 10**18)
    values, settled = _decimals_to_doubles(np.abs(mantissas), fraction[tokens])
    values = np.where(negative[tokens], -values, values).reshape(-1, d)
    settled = (settled & fits).reshape(-1, d).all(axis=1)
    direct[direct] = settled
    return values[settled], direct


def _decimals_to_doubles(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, settled): a * 10**-k rounded to the nearest double, for int64
    mantissas 0 <= a < 10**18 and 0 <= k <= 22; settled is False where this
    could not show that rounding, and the value there is not to be used."""
    five = _POW5[k]
    # Let q = a / 5**k in float64, Q its 53-bit significand and q = Q * 2**-s.
    # The wanted value a * 10**-k is T * 2**-(s + k) for the exact
    # T = a * 2**s / 5**k, and the two roundings in q (a may need more than 53
    # bits) put Q within about 2 of T. For s >= 0, R = 2 * (a * 2**s - Q * 5**k)
    # = 2 * 5**k * (T - Q) is an even integer with |R| <= 4.1 * 5**22 < 2**54, so
    # a * 2**s and Q * 5**k taken modulo 2**64 (in wrapping uint64, where a * 2**s
    # is 0 once s >= 64) differ by exactly R / 2. Q moves once, by the integer
    # nearest R / (2 * 5**k) in float64; then |R| < 5**k holds exactly when Q is
    # the integer nearest T. A tie |R| = 5**k cannot occur, R being even and 5**k
    # odd: exact midpoints between doubles all have s < 0. Scaled by 2**-(s + k),
    # Q is the nearest double when T lies in [2**52, 2**53 + 1/2), where doubles
    # are 2**-(s + k) apart below 2**53 and twice that above: Q in (2**52, 2**53],
    # or Q = 2**52 with R >= 0. A token is left unsettled, and its line sent on,
    # when s < 0 (q >= 2**53), when the step missed (T - Q that near a
    # half-integer), or when Q leaves that window.
    m, e = np.frexp(a / five)
    Q = (m * 2.0**53).astype(np.int64)
    s = 53 - e.astype(np.int64)
    scaled = np.where(s < 64, a.astype(np.uint64) << np.clip(s, 0, 63).astype(np.uint64), np.uint64(0))
    R = 2 * (scaled - Q.astype(np.uint64) * five.astype(np.uint64)).view(np.int64)
    c = np.rint(R / (2.0 * five)).astype(np.int64)
    Q += c
    R -= 2 * c * five
    window = (Q <= 2**53) & ((Q > 2**52) | ((Q == 2**52) & (R >= 0)))
    settled = ((np.abs(R) < five) & window & (s >= 0)) | (a == 0)
    return np.ldexp(Q.astype(np.float64), -(s + k)), settled


def _finite(x: list) -> bool:
    try:
        return all(map(math.isfinite, x))
    except OverflowError:  # an integer past the float range, which a float token there reads as inf
        return False


def _read_samples_by_line(lines: list[str], width: int):
    """(X, Y, clean Y or None) from the sample lines, each checked in full
    before the next is read, so an error names the first faulty file line,
    the header being line 1."""
    xs: list[list] = []
    ys: list[list] = []
    cleans: list[list] = []
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
        if not _finite(x):
            raise DatasetError(f"line {line_no}: features must be finite")
        if _NEGATIVE_ZERO.search(line):
            x = json.loads(line, parse_int=_int_keeping_negative_zero)["x"]
        y = _parse_number_list(row["y"], line_no, "y", binary=True)
        # the first kept sample sets the feature count and whether y_clean appears
        if xs and len(x) != len(xs[0]):
            raise DatasetError(f"line {line_no}: expected {len(xs[0])} features, got {len(x)}")
        if len(y) != width:
            raise DatasetError(f"line {line_no}: expected {width} labels, got {len(y)}")
        if xs and ("y_clean" in row) != bool(cleans):
            raise DatasetError(f"line {line_no}: y_clean must appear on every sample or on none")
        if "y_clean" in row:
            y_clean = _parse_number_list(row["y_clean"], line_no, "y_clean", binary=True)
            if len(y_clean) != width:
                raise DatasetError(
                    f"line {line_no}: expected {width} clean labels, got {len(y_clean)}"
                )
            cleans.append(y_clean)
        xs.append(x)
        ys.append(y)
    if not xs:
        raise DatasetError("dataset has no samples")
    clean = np.asarray(cleans, dtype=np.int64) if cleans else None
    return np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.int64), clean


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
