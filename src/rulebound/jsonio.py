"""Deterministic JSON output: insertion-ordered keys, floats at 17 significant digits.

Every file the package writes goes through here so that identical inputs
produce byte-identical artifacts, and through `atomic_write` so that a
failed write leaves no half-written file behind.

A dataclass instance is written as an object of its fields in declaration
order, so a record's field order is its file layout, a list of floats as
one `float_rows` block, and a list of records (dicts with the same keys, each
key's values all ints or all lists of ints) a key at a time.
Both `float_rows` and `format_float` refuse a non-finite number. Input files
are read by `read_text`, which names one that is not UTF-8, and `loads`;
`read_object` does both for a JSON object file.
`read_decimal_rows` reads plain decimals back in numpy blocks, in two steps:
byte checks that decide which lines are valid, then the conversion of their
tokens to doubles, which a reader that needs no features skips. On request
the conversion also proves, from the residual it computes anyway, which
tokens are `FLOAT_FORMAT`'s own text of their value, so that a writer may
copy those instead of formatting the value again.
"""

from __future__ import annotations

import errno
import itertools
import json as _json
import math
import operator
import os
import re
import stat
from contextlib import contextmanager, suppress
from dataclasses import fields, is_dataclass

import numpy as np

# 17 significant digits round-trip every float exactly.
FLOAT_FORMAT = "%.17g"


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite number {value!r}")
    return FLOAT_FORMAT % value


# The bytes of a token slot: "-2.2250738585072014e-308", the longest
# FLOAT_FORMAT output, fills them.
_TOKEN_BYTES = 24

# 10**q in float64 and 5**q in uint64, both exact, for the scales q <= 22 of the
# two decimal kernels, `_round_scaled` (writing) and `_decimals_to_doubles`
# (reading). Each takes a float estimate of the rounded value and corrects it
# once, by the integer nearest a residual that wrapping uint64 products, modulo
# 2**64, give exactly; each states the bounds that keep its residual exact.
_POW10 = 10.0 ** np.arange(23)
_POW5 = np.array([5**q for q in range(23)], dtype=np.uint64)
# The 4 ASCII digits of each i < 10**4 as one uint32.
_DIGITS4 = np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
_DIGITS4 = _DIGITS4.astype(np.uint8).view(np.uint32).ravel()
# Bytes 0 to 7 of `_fixed_point_bytes`'s row as one uint64, at P * 10 + the first
# digit: three NULs, the leading "0" bytes that %g writes at X = P - 4 (one per
# column j < 4 with j >= P), and the digit.
_HEADS = np.array(
    [[0, 0, 0, *[ord("0") * (j >= P) for j in range(4)], ord("0") + d] for P in range(20) for d in range(10)],
    dtype=np.uint8,
).view(np.uint64).ravel()


def float_rows(rows: np.ndarray) -> np.ndarray:
    """The items of each row of a 2-D array of doubles as `dumps` writes a list
    of them, `FLOAT_FORMAT % v` for each v and ", " between them: an
    (n, d * (_TOKEN_BYTES + 2) - 2) uint8 matrix whose rows hold these bytes in
    order, with NUL bytes among them that the caller drops. A non-finite entry
    raises `format_float`'s error, the first one in row-major order.

    A token with 1e-4 <= |v| < 1e16 is made from the 17 digits that
    `_seventeen_digits` rounds |v| to: the sign, the integer digits or "0." and
    the leading zeros, the point, and the fraction digits up to the last one that
    is not 0, which is the %g layout of that range (no point when no such digit
    is left). Every other token is formatted by `FLOAT_FORMAT %` into its slot:
    0, -0, and a value below 1e-4 or from 1e16 up, the ones %g writes with an
    exponent among them."""
    n, d = rows.shape
    values = rows.ravel()
    if not np.isfinite(values).all():  # format_float raises its error for the first one
        format_float(float(values[~np.isfinite(values)][0]))
    a = np.abs(values)
    window = (a >= 1e-4) & (a < 1e16)
    # 1 stands in for every other token, whose slot is overwritten below
    N, X = _seventeen_digits(np.where(window, a, 1.0))
    slots = np.zeros((n * d, _TOKEN_BYTES + 2), dtype=np.uint8)
    slots[:, 0] = (values < 0) * ord("-")
    slots[:, 1:23] = _fixed_point_bytes(N, X)
    slots[:, _TOKEN_BYTES:] = np.frombuffer(b", ", dtype=np.uint8)
    rest = np.flatnonzero(~window)
    tokens = "".join([(FLOAT_FORMAT % v).ljust(_TOKEN_BYTES, "\0") for v in values[rest].tolist()])
    slots[rest, :_TOKEN_BYTES] = np.frombuffer(tokens.encode("ascii"), dtype=np.uint8).reshape(-1, _TOKEN_BYTES)
    return slots.reshape(n, d * (_TOKEN_BYTES + 2))[:, : max(d * (_TOKEN_BYTES + 2) - 2, 0)]


def _seventeen_digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, X) for doubles 1e-4 <= a < 1e16: N is a rounded to 17 significant
    digits, ties to even, as an int64 in [10**16, 10**17), and X in [-4, 15] the
    decimal exponent %g reads, so that a ~ N * 10**(X - 16). X comes from log10
    and is fixed once where N leaves [10**16, 10**17), as it does where log10 is
    one off near a power of ten. No double in that range rounds up to a power of
    ten it lies below (17 digits tell every double apart, and the double nearest
    each such power is not below it), so X needs no other fix."""
    X = np.floor(np.log10(a)).astype(np.int64)
    N = _round_scaled(a, 16 - X)
    moved = (N >= 10**17).astype(np.int64) - (N < 10**16)
    X += moved
    redo = np.flatnonzero(moved)
    N[redo] = _round_scaled(a[redo], 16 - X[redo])
    return N, X


def _round_scaled(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """a * 10**q rounded to the nearest integer, as int64, for doubles a > 0 and
    integers 0 <= q <= 22 with 2**53 <= a * 10**q < 10**17; ties go to the even
    one. Another a * 10**q below 2**62 rounds to a nearest integer."""
    # a = M * 2**(e - 53) for frexp's 53-bit M, so a * 10**q = M * 5**q * 2**s with
    # s = e - 53 + q. The float product puts its rounded value N within about
    # 2**-53 * a * 10**q of a * 10**q, and with k = max(-s, 0) the residual
    # D = (a * 10**q - N) * 2**k = M * 5**q * 2**max(s, 0) - N * 2**k is then below
    # 2**51 in size (k <= 47 for a >= 1e-4 at q = 20), so it and its float are exact.
    # N moves by rint(D / 2**k), the integer nearest a * 10**q - N. From 2**53 up,
    # N is an even integer, as every double there is, and rint takes a half to
    # the even side, so a tie lands on the even neighbour.
    N = np.rint(a * _POW10[q]).astype(np.int64)
    m, e = np.frexp(a)
    s = e.astype(np.int64) - 53 + q
    k = np.clip(-s, 0, 63)
    M = (m * 2.0**53).astype(np.uint64)
    D = (M * _POW5[q] << np.clip(s, 0, 63).astype(np.uint64)) - (N.view(np.uint64) << k.astype(np.uint64))
    return N + np.rint(np.ldexp(D.view(np.int64).astype(np.float64), -k)).astype(np.int64)


def _fixed_point_bytes(N: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The %g text of N * 10**(X - 16), unsigned, for 17-digit N and -4 <= X <= 15,
    as a (len(N), 22) uint8 matrix with NULs in place of the bytes %g drops.

    A row is built as four "0" columns, those %g writes kept, and then the 17
    digits; column P = X + 4 is the units digit, so that at X < 0 "0." and the
    -X - 1 leading zeros come from the four. Every column past P takes the byte
    before it, which frees column P + 1 for the point. The text ends at the last
    digit that is not 0, or at column P when no fraction digit but 0 is left."""
    P = X + 4
    # bytes 3 to 6 hold the leading zeros, 7 the first digit and 8 to 23 the others
    row = np.zeros((len(N), 32), dtype=np.uint8)
    high = N // 10**8  # the first 9 digits; uint32 holds them and the last 8
    low = (N - high * 10**8).astype(np.uint32)
    high = high.astype(np.uint32)
    row.view(np.uint64)[:, 0] = _HEADS[P * 10 + high // 10**8]
    high %= 10**8
    words = row.view(np.uint32)
    for k, part in enumerate([high // 10**4, high % 10**4, low // 10**4, low % 10**4]):
        words[:, 2 + k] = _DIGITS4[part]
    c = np.arange(22, dtype=np.uint8)
    here, before = row[:, 3:25], row[:, 2:24]
    text = here + (c > P.astype(np.uint8)[:, None]) * (before - here)  # uint8 wraps: `before` past P
    text.reshape(-1)[np.arange(len(N)) * 22 + P + 1] = ord(".")
    # the trailing zeros, searched only where the last digit is 0
    zero = np.flatnonzero(row[:, 23] == ord("0"))
    last = 16 - np.argmax(row[zero, 7:24][:, ::-1] != ord("0"), axis=1)
    end = np.where(last > X[zero], last + 5, P[zero])
    text[zero] *= c <= end[:, None]
    return text


def read_decimal_rows(
    texts: list[str], d: int, convert: bool = True, certify: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, direct, canonical) for the x-list texts of a block of lines, in
    two steps. The byte checks pass each line that holds d features, all of the
    form -?(0|[1-9][0-9]*)\\.[0-9]+ with at most 18 significant and at most 22
    fraction digits, separated by ", ": its tokens are JSON numbers, all
    finite. The conversion turns their tokens into doubles, rounded
    as json.loads rounds them, and keeps the lines whose values
    `_decimals_to_doubles` settles. `direct` marks the lines kept and `values`
    holds their features as a (direct.sum(), d) array. With `certify`,
    `canonical` marks the kept lines whose every token `_decimals_to_doubles`
    proves to be `FLOAT_FORMAT % v` of its value v, so that the text is the one
    `float_rows` makes; without it, no line is marked. Without `convert`, the
    conversion is skipped: `direct` marks the lines that pass the byte checks,
    `values` is (direct.sum(), 0) and no line is marked."""
    if d == 0:  # an empty text holds no token, though it lies between two commas below
        direct = np.array([not text for text in texts], dtype=bool)
        return np.empty((direct.sum(), 0)), direct, direct & certify
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
    # at most 18 significant digits, counted on the bytes, so that each mantissa parsed
    # fits int64: a token of more digits needs as many leading zeros, "0." and the
    # zeros after it, as it has digits past 18 (at most 5, as fraction <= 22). The
    # byte before the token, a space or "-", ends the run of 5
    long = np.flatnonzero(ends - lead > 19)
    run = np.argmin(codes[lead[long, None] + [0, 2, 3, 4, 5, -1]] == ord("0"), axis=1)
    ok[long] &= run >= ends[long] - lead[long] - 19
    # each line's tokens run up to the comma that follows its text
    lengths = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    last = np.searchsorted(commas, np.cumsum(lengths + 2))
    counts = np.diff(last, prepend=0)
    direct = (counts == d) & np.logical_and.reduceat(ok, last - counts)
    if not convert:
        return np.empty((direct.sum(), 0)), direct, np.zeros_like(direct)
    tokens = np.repeat(direct, counts)
    good = ", ".join([t for t, keep in zip(texts, direct.tolist()) if keep]).encode("ascii")
    mantissas = np.fromstring(good.replace(b".", b""), dtype=np.int64, sep=",")
    values, settled, own = _decimals_to_doubles(np.abs(mantissas), fraction[tokens], certify)
    values = np.where(negative[tokens], -values, values).reshape(-1, d)
    settled = settled.reshape(-1, d).all(axis=1)
    canonical = np.zeros_like(direct)
    if certify:
        canonical[direct] = own.reshape(-1, d).all(axis=1)
    direct[direct] = settled
    return values[settled], direct, canonical


# 10**q in int64 for q <= 18: the number of them a mantissa reaches is its count of
# digits n; and at each n, 10**(17 - n) in float64, exact for n <= 17.
_TENS = 10 ** np.arange(19, dtype=np.int64)
_SCALES = 10.0 ** (17 - np.arange(20))


def _decimals_to_doubles(
    a: np.ndarray, k: np.ndarray, certify: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(values, settled, canonical): a * 10**-k rounded to the nearest double,
    for int64 mantissas 0 <= a < 10**18 and 0 <= k <= 22; settled is False where
    this could not show that rounding, and the value there is not to be used.
    With `certify`, canonical marks the settled tokens whose value v has
    `FLOAT_FORMAT % v` equal to the token's own text; without it, it is None."""
    five = _POW5[k].view(np.int64)
    # Let q = a / 5**k in float64, Q its 53-bit significand and q = Q * 2**-s.
    # The wanted value a * 10**-k is T * 2**-(s + k) for the exact
    # T = a * 2**s / 5**k, and the two roundings in q (a may need more than 53
    # bits) put Q within about 2 of T. For s >= 0 the residual
    # R = 2 * (a * 2**s - Q * 5**k) = 2 * 5**k * (T - Q) is an even integer with
    # |R| <= 4.1 * 5**22 < 2**54 (a * 2**s wraps to 0 once s >= 64). Q moves once,
    # by the integer nearest R / (2 * 5**k); then |R| < 5**k holds exactly when Q
    # is the integer nearest T, and no tie |R| = 5**k occurs, R being even and
    # 5**k odd (exact midpoints between doubles all have s < 0). Scaled by
    # 2**-(s + k), Q is the nearest double when T lies in [2**52, 2**53 + 1/2),
    # where doubles are 2**-(s + k) apart below 2**53 and twice that above: Q in
    # (2**52, 2**53], or Q = 2**52 with R >= 0. Where q rounded up to a power of
    # two that T lies below, Q ends under the window: there the token is redone one
    # binade down, at s + 1, where T, Q and R double exactly and one more step moves
    # Q to the integer nearest T, just below 2**53. A token is left unsettled, and
    # its line sent on, when s < 0 (q >= 2**53), when a step missed (T - Q that
    # near a half-integer), or when Q still lies outside that window.
    m, e = np.frexp(a / five)
    Q = (m * 2.0**53).astype(np.int64)
    s = 53 - e.astype(np.int64)
    scaled = np.where(s < 64, a.astype(np.uint64) << np.clip(s, 0, 63).astype(np.uint64), np.uint64(0))
    R = 2 * (scaled - Q.view(np.uint64) * five.view(np.uint64)).view(np.int64)
    c = np.rint(R / (2.0 * five)).astype(np.int64)
    Q += c
    R -= 2 * c * five
    down = np.flatnonzero(Q <= 2**52)
    down = down[(Q[down] < 2**52) | (R[down] < 0)]
    s[down] += 1
    c = np.rint(R[down] / five[down]).astype(np.int64)
    Q[down] = 2 * Q[down] + c
    R[down] = 2 * (R[down] - c * five[down])
    window = (Q <= 2**53) & ((Q > 2**52) | ((Q == 2**52) & (R >= 0)))
    settled = ((np.abs(R) < five) & window & (s >= 0)) | (a == 0)
    # int32 exponents here and below (|s + k| < 130): numpy's ldexp loop for int64 ones is many times slower
    values = np.ldexp(Q.astype(np.float64), -(s + k).astype(np.int32))
    if not certify:
        return values, settled, None
    # The value lies |R| / (2**(s + k + 1) * 5**k) from the token t = a * 10**-k. Let t have
    # n significant digits, so that its %g exponent is X = n - 1 - k. %.17g writes t itself
    # when X >= -4 (no exponent), the last digit is not 0 (no trailing zero), n <= 17, and
    # the value rounds to t among the multiples of u = 10**(X - 16): |value - t| < u / 2,
    # that is |R| * 10**(17 - n) < 2**s. |R| < 5**k and 10**(17 - n) are exact doubles, so
    # their product, rounded, is below 2**s only when the exact one is; a tie, or a product
    # that rounds to 2**s, is left to formatting. For n >= 2 the multiples of u below t
    # keep exponent X; below a one-digit t they may not (%.17g writes 0.001 - u / 4 as
    # 0.00099999999999999998), so there the value must not lie below t: R <= 0.
    n = np.searchsorted(_TENS, a, side="right")
    canonical = settled & (a % 10 != 0) & (n <= 17) & (k - n <= 3) & ((n > 1) | (R <= 0))
    canonical &= np.abs(R) * _SCALES[n] < np.ldexp(1.0, s.astype(np.int32))
    return values, settled, canonical


def read_text(path) -> str:
    """The contents of a UTF-8 file, its newlines left as they are: its readers
    split lines with `split_lines` or parse JSON, which take \\r, \\r\\n and
    \\n alike. A file that is not UTF-8 raises ValueError naming it and the line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data[: err.start].count(b"\n") + 1
        raise ValueError(f"{path}: line {line}: not UTF-8 text") from None


def loads(text: str, parse_int=None):
    """`json.loads(text, parse_int=parse_int)`, also for valid JSON that it
    cannot read: nesting deeper than the parser's recursion limit raises
    `json.JSONDecodeError`, as invalid JSON does, and an integer token longer
    than `int` takes (CPython's digit limit) reads as +-inf, the value that
    every reader of the package gives an integer past the float range."""
    try:
        try:
            return _json.loads(text, parse_int=parse_int)
        except _json.JSONDecodeError:
            raise
        except ValueError:  # such a token: the text is read again, each integer through the fallback
            return _json.loads(text, parse_int=lambda token: _long_integer(token, parse_int))
    except RecursionError:
        raise _json.JSONDecodeError("Nesting too deep", text, 0) from None


# The JSON integer token -0, which json reads as int 0, losing the sign FLOAT_FORMAT writes for -0.0.
_NEGATIVE_ZERO = re.compile(r"-0(?![\d.eE])")


def _int_keeping_negative_zero(token: str):
    return -0.0 if token == "-0" else int(token)


def with_negative_zeros(text: str, doc):
    """`doc`, the `loads` of `text`, or `text` read again with each -0 token as
    -0.0 when it holds one; take only float fields from it, as an integer
    field's -0 is the int 0 in `doc`."""
    return loads(text, parse_int=_int_keeping_negative_zero) if _NEGATIVE_ZERO.search(text) else doc


def _long_integer(token: str, parse_int):
    try:
        return (parse_int or int)(token)
    except ValueError:  # thousands of digits, far past the float range
        return -math.inf if token[0] == "-" else math.inf


def read_object(path, what: str) -> tuple[str, dict]:
    """(text, doc) of the JSON file at `path`, read by `read_text` and parsed by
    `loads`. ValueError names the file when its text is not JSON or `doc` is not
    an object, `what` naming the document in that message."""
    text = read_text(path)
    try:
        doc = loads(text)
    except _json.JSONDecodeError as err:
        raise ValueError(f"{path}: invalid JSON: {err.msg}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: {what} must be a JSON object")
    return text, doc


def split_lines(text: str) -> list[str]:
    """The lines of `text`, each ended by LF, CRLF or CR, or by the end of the
    text. Unlike `str.splitlines`, no other character ends a line."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:  # the empty rest after a final line break
        lines.pop()
    return lines


def dumps(obj) -> str:
    """Serialize to a JSON string with a fixed, reproducible layout."""
    parts: list[str] = []
    _write(obj, parts)
    return "".join(parts)


def dump_lines(rows, path) -> None:
    """Write `dumps(row)` to `path` for each row, one per line (JSONL)."""
    with atomic_write(path) as fh:
        for row in rows:
            fh.write(dumps(row) + "\n")


@contextmanager
def atomic_write(path):
    """Open `path` for text writing so that it changes only if the block completes."""
    with atomic_paths(path) as (tmp,), open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        yield fh


def _landing(path: str) -> str:
    """Where writing `path` lands: its directory with every symlink resolved,
    plus its name. A name that is itself a symlink stays unresolved, because
    `os.replace` replaces the link and not the file it points to."""
    head, name = os.path.split(path)
    return os.path.join(os.path.realpath(head), name)


def check_targets(*paths, inputs=()) -> None:
    """Raise ValueError for a target that lands (see `_landing`) where one of
    `inputs` lands or on the file it resolves to, or where another target
    lands, IsADirectoryError for a target that is a directory, and, for a
    target whose directory is missing or not a directory, the error a write
    there would raise: FileNotFoundError, or NotADirectoryError when that
    directory or one above it is a file, and FileNotFoundError for an empty
    target, as `open("")` does. A target that is None is an option left unset
    and is skipped, as is an input that is None or empty. It writes nothing, so
    a command can call it before doing any work."""
    paths = [os.fspath(path) for path in paths if path is not None]
    inputs = [os.fspath(path) for path in inputs if path]
    sources = {*map(_landing, inputs), *map(os.path.realpath, inputs)}
    landings = [_landing(path) for path in paths]
    for k, path in enumerate(paths):
        if not path:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if landings[k] in sources:
            raise ValueError(f"{path} is named as both an input and an output")
        if landings[k] in landings[:k]:
            raise ValueError(f"{path} is named as more than one output")
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        try:
            directory = os.stat(os.path.dirname(path) or ".")
        except OSError as err:  # name the target, as a failed write would
            raise type(err)(err.errno, err.strerror, path) from None
        if not stat.S_ISDIR(directory.st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)


@contextmanager
def atomic_paths(*paths):
    """Temporary paths that replace `paths`, all of them, only if the block completes.

    The targets pass `check_targets` before any file is created. Each
    temporary file is created empty in its target's directory,
    so a target that cannot be written fails before anything is; after the
    block each one replaces its target with `os.replace`, in order. If anything
    raises, every temporary file is removed and each target keeps its old
    bytes, or stays absent. This guards against failures in the process, not
    against power loss: nothing is fsynced.
    """
    paths = [os.fspath(path) for path in paths]
    check_targets(*paths)
    tmps: list[str] = []
    try:
        for path in paths:
            head, name = os.path.split(path)
            tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
            try:
                open(tmp, "x").close()
            except OSError as err:  # name the file the caller asked for, not the temporary one
                raise type(err)(err.errno, err.strerror, path) from None
            tmps.append(tmp)
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            with suppress(FileNotFoundError):
                os.unlink(tmp)
        raise


def _write(obj, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(_json.encoder.encode_basestring_ascii(obj))  # what json.dumps runs for a str
    elif isinstance(obj, float):  # np.float64 included: it subclasses float
        parts.append(format_float(float(obj)))
    elif isinstance(obj, int):
        parts.append(str(int(obj)))
    elif isinstance(obj, list) and obj and all(type(item) is float for item in obj):
        items = float_rows(np.array(obj).reshape(1, -1))  # one block, as the dataset writer formats a row
        parts.append("[" + items[items != 0].tobytes().decode("ascii") + "]")
    elif isinstance(obj, list) and (records := _records(obj)) is not None:
        parts.append(records)
    elif isinstance(obj, list):
        parts.append("[")
        for k, item in enumerate(obj):
            if k:
                parts.append(", ")
            _write(item, parts)
        parts.append("]")
    elif isinstance(obj, dict):
        parts.append("{")
        for k, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key).__name__}")
            if k:
                parts.append(", ")
            parts.append(_json.encoder.encode_basestring_ascii(key))
            parts.append(": ")
            _write(value, parts)
        parts.append("}")
    elif is_dataclass(obj) and not isinstance(obj, type):
        # the fields themselves, not copies: dataclasses.asdict would deep-copy every row
        _write({f.name: getattr(obj, f.name) for f in fields(obj)}, parts)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _records(rows: list) -> str | None:
    """The text `_write` gives a non-empty list of dicts whose keys are the
    same strings in the same order, when each key's values are all ints or
    all lists of ints; None, for `_write` to take item by item, for any other
    list. Each key's values are converted at once by `str`, which writes an
    int list as `_write` does, and each row is laid out by one template."""
    if not rows or set(map(type, rows)) != {dict}:
        return None
    layouts = set(map(tuple, rows))
    if len(layouts) != 1:
        return None
    (keys,) = layouts
    if not keys or set(map(type, keys)) != {str}:
        return None
    columns = []
    for key in keys:
        column = list(map(operator.itemgetter(key), rows))
        kinds = set(map(type, column))
        if kinds == {list}:  # int lists: their items must be ints, if they hold any
            kinds = set(map(type, itertools.chain.from_iterable(column))) | {int}
        if kinds != {int}:
            return None
        columns.append(map(str, column))
    # a "%" in a key's text stays itself in the template
    names = [_json.encoder.encode_basestring_ascii(key).replace("%", "%%") for key in keys]
    row = "{" + ", ".join(name + ": %s" for name in names) + "}"
    return "[" + ", ".join(map(row.__mod__, zip(*columns))) + "]"
