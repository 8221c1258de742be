"""Deterministic JSON output: insertion-ordered keys, floats at 17 significant digits.

Every file the package writes goes through here so that identical inputs
produce byte-identical artifacts, and through `atomic_write` so that a
failed write leaves no half-written file behind.

A dataclass instance is written as an object of its fields in declaration
order, so a record's field order is its file layout. Input files are read
through `read_text`, so one that is not UTF-8 names itself.
"""

from __future__ import annotations

import errno
import json as _json
import math
import os
import secrets
from contextlib import contextmanager, suppress
from dataclasses import fields, is_dataclass

import numpy as np

# 17 significant digits round-trip every float exactly.
FLOAT_FORMAT = "%.17g"


class Raw(str):
    """Text that `dumps` emits verbatim: a value already serialized."""


def _non_finite(value: float) -> ValueError:
    return ValueError(f"cannot serialize non-finite number {value!r}")


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise _non_finite(value)
    return FLOAT_FORMAT % value


def check_finite(values: np.ndarray) -> None:
    """Raise `format_float`'s error for the first non-finite entry in row-major order."""
    if not np.isfinite(values).all():
        raise _non_finite(float(values[~np.isfinite(values)][0]))


def float_list(values) -> Raw:
    """A float array as one flat JSON list, formatted in a single pass."""
    values = np.asarray(values, dtype=np.float64).ravel()
    check_finite(values)
    return Raw("[" + ", ".join([FLOAT_FORMAT] * values.size) % tuple(values.tolist()) + "]")


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


def dump(obj, path) -> None:
    """Write `dumps(obj)` to `path` with a trailing newline."""
    dump_lines([obj], path)


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
    lands, and IsADirectoryError for a target that is a directory. A path that
    is None or empty is an option left unset and is skipped. It writes
    nothing, so a command can call it before doing any work."""
    paths = [os.fspath(path) for path in paths if path]
    inputs = [os.fspath(path) for path in inputs if path]
    sources = {*map(_landing, inputs), *map(os.path.realpath, inputs)}
    landings = [_landing(path) for path in paths]
    for k, path in enumerate(paths):
        if landings[k] in sources:
            raise ValueError(f"{path} is named as both an input and an output")
        if landings[k] in landings[:k]:
            raise ValueError(f"{path} is named as more than one output")
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


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
            tmp = os.path.join(head, f".{name}.{secrets.token_hex(4)}.tmp")
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
    elif isinstance(obj, Raw):
        parts.append(obj)
    elif isinstance(obj, str):
        parts.append(_json.dumps(obj))
    elif isinstance(obj, float):  # np.float64 included: it subclasses float
        parts.append(format_float(float(obj)))
    elif isinstance(obj, int):
        parts.append(str(int(obj)))
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
            parts.append(_json.dumps(key))
            parts.append(": ")
            _write(value, parts)
        parts.append("}")
    elif is_dataclass(obj) and not isinstance(obj, type):
        # the fields themselves, not copies: dataclasses.asdict would deep-copy every row
        _write({f.name: getattr(obj, f.name) for f in fields(obj)}, parts)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")
