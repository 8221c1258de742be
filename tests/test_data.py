"""Dataset files, synthesis, noise injection, and the audit command's core."""

import dataclasses
import decimal
import hashlib
import itertools
import json
import random
import re
from pathlib import Path

import numpy as np
import pytest

from rulebound import (
    Dataset,
    DatasetError,
    LabelVocabulary,
    RuleSet,
    SynthesisBudgetError,
    audit,
    inject_noise,
    load_dataset,
    parse_rules,
    save_dataset,
    synthesize,
    violated_rules,
)
from rulebound import data, jsonio
from rulebound import rules as rules_module
from rulebound.cli import run

import oracles


def _small_ds(with_clean=False):
    vocab = LabelVocabulary(("a", "b"))
    X = np.array([[0.5, -1.0], [2.0, 0.0], [0.0, 3.5]])
    Y = np.array([[1, 0], [0, 1], [1, 1]])
    if with_clean:
        clean = Y.copy()
        clean[2, 0] = 0
        return Dataset(X, Y, vocab, clean_Y=clean)
    return Dataset(X, Y, vocab)


# ---- dataset construction ----


def test_dataset_validation():
    vocab = LabelVocabulary(("a", "b"))
    X = np.zeros((2, 3))
    Y = np.array([[0, 1], [1, 0]])
    with pytest.raises(DatasetError):
        Dataset(X, np.array([[0, 2], [1, 0]]), vocab)
    with pytest.raises(DatasetError):
        Dataset(np.array([[np.nan, 0, 0], [0, 0, 0]]), Y, vocab)
    with pytest.raises(DatasetError):
        Dataset(X, Y[:1], vocab)
    with pytest.raises(DatasetError):
        Dataset(X, Y, LabelVocabulary(("a", "b", "c")))


# ---- file round trips ----


def test_round_trip_without_clean(tmp_path):
    ds = _small_ds()
    path = tmp_path / "data.jsonl"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.Y, ds.Y)
    assert back.names == ds.names
    assert back.clean_Y is None and back.flips is None


def test_round_trip_with_clean(tmp_path):
    ds = _small_ds(with_clean=True)
    path = tmp_path / "data.jsonl"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.clean_Y, ds.clean_Y)
    assert back.flips == [(2, 0)]


def test_save_bytes_deterministic(tmp_path):
    ds = _small_ds(with_clean=True)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(ds, p1)
    save_dataset(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "lines, match",
    [
        ([], "missing label header"),
        (['{"labels": "a"}'], "header must be"),
        (['{"labels": ["a", "a"]}'], "bad label header"),
        (['{"labels": ["a"]}', "{broken"], "line 2: invalid JSON"),
        (['{"labels": ["a"]}', '{"x": [1.0]}'], "need 'x' and 'y'"),
        (['{"labels": ["a"]}', '{"x": [1.0], "y": [2]}'], "line 2: y entries"),
        (['{"labels": ["a"]}', '{"x": [1.0], "y": [true]}'], "line 2: y entries"),
        (['{"labels": ["a"]}', '{"x": 1.0, "y": [1]}'], "line 2: x must be a list"),
        (['{"labels": ["a"]}', '{"x": [1.0], "y": [1, 0]}'], "expected 1 labels"),
        (
            ['{"labels": ["a"]}', '{"x": [1.0], "y": [1]}', '{"x": [1.0, 2.0], "y": [0]}'],
            "line 3: expected 1 features",
        ),
        (
            ['{"labels": ["a"]}', '{"x": [1.0], "y": [1], "y_clean": [1]}', '{"x": [2.0], "y": [0]}'],
            "line 3: y_clean must appear on every sample or on none",
        ),
        (['{"labels": ["a"]}'], "no samples"),
    ],
)
def test_loader_errors_carry_line_numbers(tmp_path, lines, match):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match=match):
        load_dataset(path)


def test_loader_skips_blank_lines(tmp_path):
    path = tmp_path / "ok.jsonl"
    path.write_text('{"labels": ["a"]}\n\n{"x": [0.25], "y": [1]}\n\n')
    ds = load_dataset(path)
    assert ds.n_samples == 1


def _random_ds(seed, n, d, n_labels, with_clean):
    rng = np.random.default_rng(seed)
    vocab = LabelVocabulary(tuple(f"l{j}" for j in range(n_labels)))
    X = rng.normal(0.0, 10.0 ** rng.integers(-3, 4), size=(n, d))
    Y = rng.integers(0, 2, size=(n, n_labels))
    if not with_clean:
        return Dataset(X, Y, vocab)
    clean = np.where(rng.random(Y.shape) < 0.2, 1 - Y, Y)
    return Dataset(X, Y, vocab, clean_Y=clean)


@pytest.mark.parametrize("with_clean", [False, True])
@pytest.mark.parametrize(
    "seed, n, d, n_labels",
    [(0, 1, 1, 1), (1, 7, 3, 2), (2, 2500, 16, 20), (3, 40, 0, 3), (5, 1023, 2, 3), (6, 1024, 1, 4), (7, 1025, 3, 2)],
)
def test_save_matches_generic_row_serializer(tmp_path, seed, n, d, n_labels, with_clean):
    ds = _random_ds(seed, n, d, n_labels, with_clean)
    path = tmp_path / "data.jsonl"
    save_dataset(ds, path)
    assert path.read_bytes() == oracles.dataset_jsonl(ds).encode()


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1, 1e16,
               1e17, 3.0, -7.0, 2.0**53, 1 / 3, 123456789.0]


@pytest.mark.parametrize("with_clean", [False, True])
def test_save_edge_floats_match_generic_row_serializer(tmp_path, with_clean):
    X = np.array(EDGE_FLOATS).reshape(-1, 3)
    ds = _random_ds(4, len(X), 3, 2, with_clean)
    ds.X = X
    path = tmp_path / "edge.jsonl"
    save_dataset(ds, path)
    assert path.read_bytes() == oracles.dataset_jsonl(ds).encode()
    back = load_dataset(path)
    assert back.X.tobytes() == X.tobytes()  # bitwise, so -0.0 survives


def test_save_rejects_non_finite_features(tmp_path):
    ds = _small_ds()
    ds.X[1, 1] = -np.inf
    ds.X[2, 0] = np.nan
    path = tmp_path / "data.jsonl"
    with pytest.raises(ValueError, match=r"^cannot serialize non-finite number -inf$"):
        save_dataset(ds, path)
    assert not path.exists()


@pytest.mark.parametrize("label", [2, -1, 256, 257])
def test_save_rejects_labels_set_to_other_values_after_construction(tmp_path, label):
    ds = _small_ds(with_clean=True)
    ds.clean_Y[2, 1] = label
    path = tmp_path / "data.jsonl"
    with pytest.raises(DatasetError, match="^labels must be 0 or 1$"):
        save_dataset(ds, path)
    assert not path.exists()


def test_save_load_save_is_byte_identical(tmp_path):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st
    from hypothesis.extra.numpy import arrays

    @st.composite
    def datasets(draw):
        n = draw(st.integers(1, 6))
        d = draw(st.integers(0, 4))
        n_labels = draw(st.integers(1, 4))
        X = draw(arrays(np.float64, (n, d), elements=st.floats(allow_nan=False, allow_infinity=False)))
        Y = draw(arrays(np.int64, (n, n_labels), elements=st.integers(0, 1)))
        vocab = LabelVocabulary(tuple(f"l{j}" for j in range(n_labels)))
        if not draw(st.booleans()):
            return Dataset(X, Y, vocab)
        clean = draw(arrays(np.int64, (n, n_labels), elements=st.integers(0, 1)))
        return Dataset(X, Y, vocab, clean_Y=clean)

    @settings(max_examples=150, deadline=None, database=None)
    @given(datasets())
    def check(ds):
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        save_dataset(ds, first)
        assert first.read_bytes() == oracles.dataset_jsonl(ds).encode()
        back = load_dataset(first)
        save_dataset(back, second)
        assert second.read_bytes() == first.read_bytes()
        assert back.flips == ds.flips

    check()


_HEADER = '{"labels": ["a", "b"]}'
_OK = ['{"x": [0.5, 1.0], "y": [1, 0]}', '{"x": [1.5, -2.0], "y": [0, 1]}']
_OK_CLEAN = [row[:-1] + ', "y_clean": [1, 0]}' for row in _OK]


def _row(k: int) -> str:
    """A sample line in the writer's layout with k features, each a plain decimal."""
    return '{"x": [' + ", ".join(f"{j}.25" for j in range(k)) + '], "y": [1, 0]}'


# Messages of the line reader, after the file's path; the writer-layout reader
# must leave every one of these files to it.
@pytest.mark.parametrize(
    "lines, message",
    [
        (_OK + ['{"x": [true, 1.0], "y": [1, 0]}'], "line 4: x entries must be numbers"),
        (_OK + ['{"x": [0.5, false], "y": [1, 0]}'], "line 4: x entries must be numbers"),
        (_OK + ['{"x": [null, 1.0], "y": [1, 0]}'], "line 4: x entries must be numbers"),
        (_OK + ['{"x": [0.5, 1.0], "y": [true, 0]}'], "line 4: y entries must be 0 or 1"),
        (_OK + ['{"x": [0.5, 1.0], "y": [1, false]}'], "line 4: y entries must be 0 or 1"),
        (_OK + ['{"x": [0.5, 1.0], "y": [null, 0]}'], "line 4: y entries must be 0 or 1"),
        (_OK + ['{"x": [0.5, 1.0], "y": [1.0, 0]}'], "line 4: y entries must be 0 or 1"),
        (_OK_CLEAN + ['{"x": [0.5, 1.0], "y": [1, 0], "y_clean": [0, 1.0]}'],
         "line 4: y_clean entries must be 0 or 1"),
        (_OK_CLEAN + ['{"x": [0.5, 1.0], "y": [1, 0], "y_clean": [false, 1]}'],
         "line 4: y_clean entries must be 0 or 1"),
        (_OK + ['{"x": [0.5, 1.0], "y": [1, 18446744073709551616]}'], "line 4: y entries must be 0 or 1"),
        (_OK + ['{"x": ["0.5", 1.0], "y": [1, 0]}'], "line 4: x entries must be numbers"),
        (_OK + ['{"x": [NaN, 1.0], "y": [1, 0]}'], "line 4: features must be finite"),
        (_OK + ['{"x": [0.5, Infinity], "y": [1, 0]}'], "line 4: features must be finite"),
        (_OK + ['{"x": [0.5, -Infinity], "y": [1, 0]}'], "line 4: features must be finite"),
        (_OK + _OK + ['{"x": [0.5, 1.0, 2.0], "y": [1, 0]}'], "line 6: expected 2 features, got 3"),
        # an x entry moved from line 3 to line 4 keeps the file's total of 3 x 16 entries
        ([_row(16), _row(15), _row(17)], "line 3: expected 16 features, got 15"),
        # the feature count is the first kept sample's, after blank lines
        (["", "  ", _OK[0], '{"x": [0.5], "y": [1, 0]}'], "line 5: expected 2 features, got 1"),
        ([_OK[0], _OK_CLEAN[1]], "line 3: y_clean must appear on every sample or on none"),
        ([_OK_CLEAN[0], '{"x": [1.5, -2.0], "y": [0, 1], "y_clean": [1]}'], "line 3: expected 2 clean labels, got 1"),
        (_OK + ['{"x": [0.5, 1.0], "y": [1,'], "line 4: invalid JSON: Expecting value"),
        # a row split over two lines, made up by two rows on one line
        (['{"x": [0.5, 1.0]', '"y": [1, 0]}, {"x": [1.5, -2.0], "y": [0, 1]}'],
         "line 2: invalid JSON: Expecting ',' delimiter"),
        (['{"x": [0.5, 1.0], "y": [1, 0], "z": [{}', '{}]}', _OK[0] + ", " + _OK[1]],
         "line 2: invalid JSON: Expecting ',' delimiter"),
        ([_OK[0], _OK[0] + ", " + _OK[1]], "line 3: invalid JSON: Extra data"),
        # an integer too large for a float fails like the float token 1e400
        (_OK + ['{"x": [0.5, 1' + "0" * 400 + '], "y": [1, 0]}'], "line 4: features must be finite"),
        (_OK + ['{"x": [-1' + "0" * 400 + ', 1.0], "y": [1, 0]}'], "line 4: features must be finite"),
        (_OK + ['{"x": [0.5, 1e400], "y": [1, 0]}'], "line 4: features must be finite"),
        # blank lines count, and the first line with a non-finite feature is named
        (_OK + ["", '{"x": [0.5, 1e400], "y": [1, 0]}'], "line 5: features must be finite"),
        (["  ", _OK[0], "", '{"x": [0.5, 1' + "0" * 400 + '], "y": [1, 0]}'], "line 5: features must be finite"),
        (_OK + ['{"x": [NaN, 1.0], "y": [1, 0]}', '{"x": [0.5, 1' + "0" * 400 + '], "y": [1, 0]}'],
         "line 4: features must be finite"),
        # each line is checked in full before the next is read
        ([_OK[0], '{"x": [NaN, 1.0], "y": [1, 0]}', '{"x": [0.5, 1.0], "y": [2, 0]}'],
         "line 3: features must be finite"),
        # the writer's prefix and label suffix around an x list split in two
        (['{"x": [0.5], [1.0], "y": [1, 0]}'], "line 2: invalid JSON: Expecting property name enclosed in double quotes"),
    ],
)
def test_loader_fault_paths_keep_their_messages(tmp_path, capsys, lines, message):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join([_HEADER] + lines) + "\n")
    with pytest.raises(DatasetError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}: {message}"
    rules = tmp_path / "rules.txt"
    rules.write_text("a => b\n")
    assert run(["audit", "--rules", str(rules), "--data", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_loader_accepts_what_the_line_reader_accepts(tmp_path):
    # integer features, escaped keys, surrounding whitespace and key order are all legal JSONL
    lines = ['{"y": [1, 0], "x": [1, 2]}', '  {"x": [0.25, -3], "y": [0, 1]}', '{"\\u0078": [7, 8], "y": [1, 1]}']
    path = tmp_path / "odd.jsonl"
    path.write_text("\n".join([_HEADER] + lines) + "\n")
    ds = load_dataset(path)
    assert ds.X.tolist() == [[1.0, 2.0], [0.25, -3.0], [7.0, 8.0]]
    assert ds.X.dtype == np.float64 and ds.Y.dtype == np.int64
    assert ds.Y.tolist() == [[1, 0], [0, 1], [1, 1]]


def test_loader_keeps_the_sign_of_negative_zero_features(tmp_path):
    path = tmp_path / "zero.jsonl"
    path.write_text("\n".join([_HEADER, '{"x": [-0, 0], "y": [-0, 1]}', '{"x": [-0.0, -0 ], "y": [1, 0]}']) + "\n")
    ds = load_dataset(path)
    assert np.signbit(ds.X).tolist() == [[True, False], [True, True]]
    assert ds.Y.tolist() == [[0, 1], [1, 0]]


# every character but LF and CR that str.splitlines ends a line at
_ODD_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("last", ['{"x": [0.5, 1.0], "y": [2, 0]}', _OK[1]], ids=["bad-label", "valid"])
def test_loader_ends_lines_only_at_lf_crlf_or_cr(tmp_path, capsys, last):
    # the character stays inside line 2, where JSON rejects it; the lines after keep their numbers
    path = tmp_path / "odd.jsonl"
    rules = tmp_path / "rules.txt"
    rules.write_text("a => b\n")
    for char in _ODD_BREAKS:
        path.write_text("\n".join([_HEADER, _OK[0] + char, last]) + "\n")
        assert run(["audit", "--rules", str(rules), "--data", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: line 2: invalid JSON: Extra data\n")


def test_loader_reads_cr_only_line_ends(tmp_path):
    for with_clean in (False, True):
        ds = _random_ds(3, 40, 3, 4, with_clean)
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
        got = load_dataset(path)
        assert got.X.tobytes() == ds.X.tobytes() and got.Y.tobytes() == ds.Y.tobytes()
        assert got.clean_Y is None if not with_clean else got.clean_Y.tobytes() == ds.clean_Y.tobytes()


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_TOKENS = ["true", "false", "null", "-0", "-0.0", "0", "1", "2", "-1", "1.0", "0.5", "1e400", "NaN",
           "Infinity", "-Infinity", '"1"', "[]", "[0]", "{}", "18446744073709551616", "1e-400"]


# Kinds 0 and 1, another token in place of a number, come up most often: on an
# x token they keep the writer's layout, so edited files get read, not deferred.
_MUTATION_KINDS = [0, 1] * 12 + list(range(2, 13))
_X_LIST = re.compile(r'"x": \[([^\]]*)\]')


def _mutate(rng: random.Random, lines: list[str]) -> list[str]:
    """One random edit of a sample file's lines. Some edits keep the file legal
    (another number, other spacing, an escaped key, keys reordered); others
    break it (another token, a key dropped or added, a blank line, a truncated
    last line, a list entry dropped or repeated, an x entry moved to another
    line, a line split in two, two lines joined, an indent)."""
    lines = list(lines)
    if not lines:
        return lines
    i = rng.randrange(len(lines))
    kind = rng.choice(_MUTATION_KINDS)
    if kind in (0, 1):
        tokens = list(_NUMBER.finditer(lines[i]))
        if tokens:
            m = rng.choice(tokens)
            token = rng.choice(["0", "1", "0", "1", "-3", "2.5e2", "-0"] if kind else _TOKENS)
            lines[i] = lines[i][: m.start()] + token + lines[i][m.end() :]
    elif kind == 2:
        old, new = rng.choice([(", ", ","), (": ", ":"), (", ", " ,\t")])
        lines[i] = lines[i].replace(old, new)
    elif kind == 3:
        lines[i] = lines[i].replace('"x"', '"\\u0078"')
    elif kind == 4:
        try:
            row = json.loads(lines[i])
            lines[i] = json.dumps(dict(reversed(list(row.items()))))
        except (ValueError, AttributeError):
            pass
    elif kind == 5:
        key = rng.choice(['"x"', '"y"', '"y_clean"'])
        lines[i] = re.sub(key + r": \[[^\]]*\](, )?", "", lines[i])
    elif kind == 6:
        lines[i] = lines[i][:-1] + rng.choice([', "z": 1}', ', "y_clean": [0, 1, 0]}', ', "x": [1.0]}'])
    elif kind == 7:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "   "]))
    elif kind == 8:
        lines[-1] = lines[-1][: rng.randrange(max(1, len(lines[-1])))]
    elif kind == 9:
        entries = list(re.finditer(r"[\[ ](-?[\d.e+-]+)[,\]]", lines[i]))
        if entries:
            m = rng.choice(entries)
            edit = "" if rng.random() < 0.5 else m.group(1) + ", " + m.group(1)
            lines[i] = lines[i][: m.start(1)] + edit + lines[i][m.end(1) :]
    elif kind == 12 and len(lines) > 1:  # the file keeps its count of x entries
        j = rng.choice([k for k in range(len(lines)) if k != i])
        source, target = _X_LIST.search(lines[i]), _X_LIST.search(lines[j])
        if source and target and source.group(1):
            entries = source.group(1).split(", ")
            moved = entries.pop(rng.randrange(len(entries)))
            into = target.group(1).split(", ") if target.group(1) else []
            into.insert(rng.randrange(len(into) + 1), moved)
            lines[i] = lines[i][: source.start(1)] + ", ".join(entries) + lines[i][source.end(1) :]
            lines[j] = lines[j][: target.start(1)] + ", ".join(into) + lines[j][target.end(1) :]
    elif kind == 10 and ", " in lines[i]:
        cut = rng.choice([m.start() for m in re.finditer(", ", lines[i])])
        lines[i : i + 1] = [lines[i][:cut], lines[i][cut + 2 :]]
    elif i + 1 < len(lines):
        lines[i : i + 2] = [lines[i] + rng.choice([", ", " ", ""]) + lines[i + 1]]
    else:
        lines[i] = " " + lines[i]
    return lines


_LABEL_LIST = re.compile(r'"(y|y_clean)": \[([^\]]*)\]')


def _mutate_labels(rng: random.Random, lines: list[str]) -> list[str]:
    """One random edit aimed at the label suffix of one line, or at what the
    label-byte stage reads around it. Some edits keep the file legal (a digit
    swapped for the other one, CRLF line ends); most break the writer's
    layout (a digit made 2, -0, 0.0 or true, an entry dropped or repeated,
    other spacing, y_clean dropped, non-ASCII text in x, an edited line end,
    one bit of a suffix byte flipped, a bracket in x)."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    line = lines[i]
    kind = rng.choice([0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9])  # a legal swap often, so edited files get read
    lists = list(_LABEL_LIST.finditer(line))
    if kind < 4 and lists:
        m = rng.choice(lists)
        entries = m.group(2).split(", ")
        k = rng.randrange(len(entries))
        sep, colon = ", ", ": "
        if kind == 0:
            entries[k] = {"0": "1", "1": "0"}.get(entries[k], "0")
        elif kind == 1:
            entries[k] = rng.choice(["2", "-0", "0.0", "true", "01", " 1"])
        elif kind == 2:
            entries[k : k + 1] = rng.choice([[], entries[k : k + 1] * 2])
        else:
            sep, colon = rng.choice([(",", ": "), (", ", ":"), (" , ", ": "), (", ", ":  ")])
        lines[i] = line[: m.start()] + f'"{m.group(1)}"{colon}[{sep.join(entries)}]' + line[m.end() :]
    elif kind == 4:
        lines[i] = re.sub(r', "y_clean": \[[^\]]*\]', "", line)
    elif kind == 5:
        lines = [line + "\r" for line in lines]  # CRLF ends, split on \n alone
    elif kind == 6:
        lines[i] = line.replace("[", rng.choice(['["\\u00e9", ', '["é", ', "[é"]), 1)
    elif kind == 7:
        lines[i] = line[:-1] + rng.choice(["", "}}", "} ", "é}"])
    elif kind == 8 and "]" in line:  # one bit of one byte after the x list: "y" becomes "x", ", " becomes "- "
        at = rng.randrange(line.index("]"), len(line))
        lines[i] = line[:at] + chr(ord(line[at]) ^ 1) + line[at + 1 :]
    elif kind == 9:  # the x list split in two or nested, when its first separator is in it
        lines[i] = line.replace(", ", rng.choice(["], [", ", [", "], "]), 1)
    return lines


@pytest.mark.parametrize(
    "mutate, seed, max_edits, floors",
    [
        # edits anywhere in the line: the reader reads files whose x tokens were edited, and defers
        (_mutate, 20261018, 3, {"edited": 200, "deferred": 200}),
        # edits aimed at the label suffix: it reads unedited files and edited ones that keep
        # the layout, and defers the rest
        (_mutate_labels, 20261019, 2, {"read": 600, "edited": 200, "deferred": 600}),
    ],
    ids=["anywhere", "labels"],
)
def test_loader_written_layout_returns_only_what_the_line_reader_returns(mutate, seed, max_edits, floors):
    rng = random.Random(seed)
    counts = dict.fromkeys(["read", "edited", "deferred"], 0)
    for trial in range(3000):
        ds = _random_ds(trial, rng.randint(1, 6), rng.randint(0, 3), rng.randint(1, 3), trial % 2 == 0)
        lines = clean_lines = oracles.dataset_jsonl(ds).splitlines()[1:]
        for _ in range(rng.randint(0, max_edits)):
            lines = mutate(rng, lines)
        width = len(ds.names)
        fast = data._read_written_samples(lines, width)
        if fast is None:
            counts["deferred"] += 1
            continue
        counts["read"] += 1
        counts["edited"] += lines != clean_lines
        slow = data._read_samples_by_line(lines, width)
        for a, b in zip(fast, slow):
            if a is None or b is None:
                assert a is None and b is None
            else:
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert all(counts[key] > floor for key, floor in floors.items()), counts


def _decimal_tokens(rng) -> list[str]:
    """Number tokens as writers print doubles, and the edge cases of the decimal reader."""
    doubles = (rng.normal(size=10_000) * 10.0 ** rng.integers(-5, 17, size=10_000)).tolist()
    tokens = [fmt % v for fmt in ("%.17g", "%.15g", "%.18g") for v in doubles] + list(map(repr, doubles))
    # 18 significant digits, with the point among them or after up to 5 leading zeros (22 fraction
    # digits fit), and 21, past int64
    for number in map(str, rng.integers(10**17, 10**18, size=2000).tolist()):
        cut = int(rng.integers(1, 18))
        tokens += [number[:cut] + "." + number[cut:], "0." + "0" * int(rng.integers(0, 6)) + number,
                   number[:cut] + "." + number[cut:] + "765"]
    # the 18-digit decimals on each side of the midpoint between a double and the next: the nearest
    # double to each is the one on its side, which an inexact quotient can miss
    context = decimal.Context(prec=18)
    near = [(decimal.Decimal(v) + decimal.Decimal(float(np.nextafter(v, np.inf)))) / 2 for v in map(abs, doubles[:3000])]
    # and the 18-digit decimals next to a power of two and to the points a fraction of an ulp
    # (2**-52 of it) away: the nearest double to those below may lie in the binade below, with
    # half the spacing
    near += [decimal.Decimal(2) ** p * (1 + decimal.Decimal(j) / 2**55)
             for p in range(-13, 54) for j in range(-5, 6)]
    for number in near:
        for text in map(format, [context.next_minus(number), context.next_plus(number)], "ff"):
            tokens.append(text if "." in text else text + ".0")
    # exact midpoints, which json.loads rounds to even, and zeros
    return tokens + ["9007199254740993.0", "9007199254740995.0", "0.0", "-0.0", "-0", "0", "-0.000"]


def test_decimal_reader_rounds_every_token_as_json_loads():
    tokens = _decimal_tokens(np.random.default_rng(20261019))
    expected = np.array([json.loads(t, parse_int=data._int_keeping_negative_zero) for t in tokens])
    values, direct = data._read_decimal_rows(tokens, 1)
    assert values.tobytes() == expected[direct].tobytes()  # bitwise, so -0.0 keeps its sign
    assert direct.sum() > 40_000, (direct.sum(), len(tokens))  # of 53481
    # the tokens it leaves (integers, exponents, more digits, exact midpoints) take json.loads
    X, _, _ = data._read_written_samples(['{"x": [' + t + '], "y": [1]}' for t in tokens], 1)
    assert X.tobytes() == expected.tobytes()


def test_loader_written_layout_reads_integers_as_one_np_array_of_the_file_would(monkeypatch):
    monkeypatch.setattr(data, "_BLOCK_FEATURES", 2)  # a block per line
    lines = ['{"x": [%d, %d], "y": [1, 0]}' % (2**63, 2**63 + 1), '{"x": [%d, 3], "y": [0, 1]}' % 2**64]
    assert data._read_written_samples(lines[:1], 2) is None  # uint64, which the line reader reads
    X, Y, _ = data._read_written_samples(lines[:1] + ['{"x": [-1, 0.5], "y": [0, 1]}'], 2)  # float64
    assert X.tolist() == [[2.0**63, 2.0**63], [-1.0, 0.5]] and Y.tolist() == [[1, 0], [0, 1]]
    assert data._read_written_samples(lines + ['{"x": [-1, 0.5], "y": [0, 1]}'], 2) is None  # 2**64: object


# Two-feature x texts that the decimal reader must leave to json.loads: JSON that is not the
# writer's ", " list of plain decimals, and text that is not JSON at all.
_NOT_DECIMAL = ["0.5,-2.25", "0.5 , -2.25", "0.5,  -2.25", " 0.5, -2.25", "0.5, -2.25 ", "0.5, -2.25, ",
                "01.5, 2.5", "-01.5, 2.5", "00.5, 2.5", ".5, 2.5", "-.5, 2.5", "1., 2.5", "+1.5, 2.5",
                "1.5-, 2.5", "--1.5, 2.5", "1.5.5, 2.5", "1..5, 2.5", "1e5, 2.5", "1.5e0, 2.5", "1, 2.5",
                "-0, 2.5", "1.5, 2", "1.5, 2.5, 3.5", "1.5", "1.5, [2.5]", '1.5, "2.5"', "1.5, 2.5\t",
                "1.5, NaN", "1.5, -Infinity", "1.5, 2\u00b75", "1.5, 2.5\u0661"]


def test_decimal_reader_takes_only_the_writers_plain_decimals():
    texts = ["0.25, -0.75"] + _NOT_DECIMAL + ["-0.0, 12.5"]
    values, direct = data._read_decimal_rows(texts, 2)
    assert direct.tolist() == [True] + [False] * len(_NOT_DECIMAL) + [True]
    assert values.tolist() == [[0.25, -0.75], [-0.0, 12.5]] and np.signbit(values[1, 0])


def test_loader_label_bytes_read_the_writers_files(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_BLOCK_FEATURES", 1000)  # blocks of 333 lines, the last one short
    for with_clean in (False, True):
        ds = _random_ds(8, 1500, 3, 5, with_clean)
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        lines = jsonio.read_text(path).splitlines()[1:]
        X, Y, clean = data._read_written_samples(lines, 5)
        assert X.tobytes() == ds.X.tobytes() and Y.tobytes() == ds.Y.tobytes()
        assert clean is None if not with_clean else clean.tobytes() == ds.clean_Y.tobytes()


# ---- synthesis ----


def test_synthesize_is_deterministic_and_clean():
    rs = parse_rules("a => b\nMUTEX(b, c)")
    d1 = synthesize(3, 50, 6, rs, k_patterns=3)
    d2 = synthesize(3, 50, 6, rs, k_patterns=3)
    assert np.array_equal(d1.X, d2.X)
    assert np.array_equal(d1.Y, d2.Y)
    assert not np.array_equal(d1.X, synthesize(4, 50, 6, rs, k_patterns=3).X)
    assert audit(d1, rs).violating_samples == 0
    assert np.array_equal(d1.clean_Y, d1.Y)
    assert d1.flips == []


def test_synthesize_patterns_come_from_the_consistent_set():
    rs = parse_rules("MUTEX(a, b)\na => c")
    allowed = {
        y
        for y in itertools.product((0, 1), repeat=3)
        if not violated_rules(rs, y)
    }
    assert len(allowed) == 5  # 000, 001, 010, 011, 101
    ds = synthesize(12, 400, 4, rs, k_patterns=5)
    rows = {tuple(int(v) for v in row) for row in ds.Y}
    assert rows == allowed


def test_synthesize_feature_geometry():
    # samples sharing a pattern sit near one centroid: sigma is 0.3 per axis
    rs = parse_rules("a => b")
    ds = synthesize(5, 300, 3, rs, k_patterns=2)
    for pattern in np.unique(ds.Y, axis=0):
        rows = ds.X[(ds.Y == pattern).all(axis=1)]
        spread = rows.std(axis=0)
        assert np.all(spread < 0.45)


def test_synthesize_budget_error_when_rules_unsatisfiable():
    rs = parse_rules("a => FALSE\n!a => FALSE")
    with pytest.raises(SynthesisBudgetError):
        synthesize(0, 10, 2, rs, k_patterns=2)


def test_synthesize_budget_error_when_too_few_patterns_exist():
    vocab = LabelVocabulary(("a",))
    rs = RuleSet(vocab, ())
    with pytest.raises(SynthesisBudgetError):
        synthesize(0, 10, 2, rs, k_patterns=3)  # only two vectors exist over one label


def test_synthesize_budget_error_names_the_label_count_before_any_draw(monkeypatch):
    def no_draws(rs, Y):
        raise AssertionError("drew candidate label vectors")

    monkeypatch.setattr(data, "violation_matrix", no_draws)
    rs = parse_rules("a => b\nc => FALSE")
    with pytest.raises(SynthesisBudgetError, match=r"^no 9 distinct label vectors exist over 3 labels, only 8$"):
        synthesize(0, 10, 2, rs, k_patterns=9)


def test_synthesize_validation():
    rs = parse_rules("a => b")
    with pytest.raises(ValueError):
        synthesize(0, 10, 2, rs, k_patterns=1)
    with pytest.raises(ValueError):
        synthesize(0, 0, 2, rs, k_patterns=2)


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, True, "3"])
def test_synthesize_and_noise_name_a_seed_that_is_not_a_non_negative_integer(seed):
    rs = parse_rules("a => b")
    message = re.escape(f"seed must be a non-negative integer, got {seed}")
    with pytest.raises(ValueError, match=message):
        synthesize(seed, 10, 2, rs, k_patterns=2)
    for mode in data.NOISE_MODES:
        with pytest.raises(ValueError, match=message):
            inject_noise(synthesize(0, 10, 2, rs, k_patterns=2), 0.5, seed, mode, rs)


def test_synthesize_and_noise_take_seeds_past_64_bits():
    rs = parse_rules("a => b")
    clean = synthesize(2**70, 20, 2, rs, k_patterns=2)
    assert clean.X.tobytes() == oracles.synthesize_per_row(2**70, 20, 2, rs, 2).X.tobytes()
    noisy = inject_noise(clean, 0.5, 2**70, "violating", rs)
    assert noisy.Y.tobytes() == oracles.inject_noise_per_row(clean, 0.5, 2**70, rs).Y.tobytes()


# ---- noise injection ----


def test_uniform_noise_rho_zero_and_one():
    ds = _small_ds()
    silent = inject_noise(ds, 0.0, 1, "uniform")
    assert np.array_equal(silent.Y, ds.Y) and silent.flips == []
    assert np.array_equal(silent.clean_Y, ds.Y)
    loud = inject_noise(ds, 1.0, 1, "uniform")
    assert np.array_equal(loud.Y, 1 - ds.Y)
    assert len(loud.flips) == ds.Y.size


def test_uniform_noise_flip_count_within_four_sigma():
    rs = parse_rules("a => b")
    ds = synthesize(2, 500, 3, rs, k_patterns=2)
    vocab4 = LabelVocabulary(("a", "b", "c", "d"))
    wide = Dataset(ds.X, np.random.default_rng(0).integers(0, 2, size=(500, 4)), vocab4)
    noisy = inject_noise(wide, 0.2, 17, "uniform")
    n = len(noisy.flips)
    mean, sigma = 500 * 4 * 0.2, (500 * 4 * 0.2 * 0.8) ** 0.5
    assert abs(n - mean) < 4 * sigma


def test_uniform_noise_flips_match_diff():
    ds = _small_ds()
    noisy = inject_noise(ds, 0.5, 23, "uniform")
    diff = {(int(i), int(j)) for i, j in np.argwhere(noisy.Y != ds.Y)}
    assert set(noisy.flips) == diff
    assert len(noisy.flips) == len(diff)
    assert np.array_equal(noisy.clean_Y, ds.Y)
    assert noisy.X is ds.X  # features are shared, not copied


def test_violating_noise_every_flip_creates_a_new_violation():
    rs = parse_rules("MUTEX(a, b)\na => c")
    ds = synthesize(9, 300, 4, rs, k_patterns=5)
    noisy = inject_noise(ds, 0.4, 31, "violating", rs=rs)
    assert noisy.flips, "expected some flips at rho 0.4"
    flipped_rows = {i for i, _ in noisy.flips}
    assert len(flipped_rows) == len(noisy.flips)  # at most one flip per sample
    for i, j in noisy.flips:
        before = set(violated_rules(rs, ds.Y[i]))
        after = set(violated_rules(rs, noisy.Y[i]))
        assert after - before, (i, j)


def _assert_flips_follow_labels(ds):
    assert ds.flips == list(map(tuple, np.argwhere(ds.Y != ds.clean_Y).tolist()))
    assert all(type(i) is int and type(j) is int for i, j in ds.flips)


@pytest.mark.parametrize("mode", ["uniform", "violating"])
def test_flips_are_derived_from_labels(tmp_path, mode):
    rs = parse_rules("MUTEX(a, b)\na => c")
    ds = synthesize(12, 200, 3, rs, k_patterns=5)
    _assert_flips_follow_labels(ds)
    assert ds.flips == []
    noisy = inject_noise(ds, 0.3, 5, mode, rs=rs)
    _assert_flips_follow_labels(noisy)
    assert noisy.flips
    path = tmp_path / "noisy.jsonl"
    save_dataset(noisy, path)
    back = load_dataset(path)
    _assert_flips_follow_labels(back)
    assert back.flips == noisy.flips


def test_violating_noise_skips_rows_with_no_harmful_flip():
    # single label, no rules: no flip can create a violation
    vocab = LabelVocabulary(("a",))
    rs = RuleSet(vocab, ())
    ds = Dataset(np.zeros((10, 2)), np.ones((10, 1), dtype=np.int64), vocab)
    noisy = inject_noise(ds, 1.0, 3, "violating", rs=rs)
    assert noisy.flips == []
    assert np.array_equal(noisy.Y, ds.Y)


# Rules that repeat a label, on one side or across both, in one polarity or both;
# "a & !a => b" itself is rejected by the parser, as every label repeated on one side is.
_HAND_WRITTEN_RULES = [
    "a => a", "a => !a", "!a => a", "a & b => !a | c", "!a & b => a | c", "a & !b => b | d",
    "a & b => FALSE", "MUTEX(a, b, c)", "", "a => b\nb => !a\nc & d => FALSE\nMUTEX(b, c, d)",
]


def _flip_table_reference(rs, Y):
    """Where flipping label j of row i makes the row violate a rule it did not:
    the crisp oracle's violated sets before and after each single flip."""
    table = np.zeros(Y.shape, dtype=bool)
    for i, y in enumerate(Y.tolist()):
        before = {r for r, rule in enumerate(rs.rules) if not oracles.crisp_satisfied(rule, y)}
        for j in range(len(y)):
            flipped = y[:j] + [1 - y[j]] + y[j + 1 :]
            after = {r for r, rule in enumerate(rs.rules) if not oracles.crisp_satisfied(rule, flipped)}
            table[i, j] = bool(after - before)
    return table


@pytest.mark.parametrize("rules", _HAND_WRITTEN_RULES)
def test_breaking_flips_equals_the_flip_by_flip_reference_on_hand_written_rules(monkeypatch, rules):
    monkeypatch.setattr(rules_module, "_FLIP_BLOCK_ROWS", 5)  # 16 rows in uneven blocks
    vocab = LabelVocabulary(("a", "b", "c", "d"))
    rs = parse_rules(rules, vocab) if rules else RuleSet(vocab, ())
    Y = np.array(list(itertools.product((0, 1), repeat=4)))  # every vertex
    table = rules_module.breaking_flips(rs, Y)
    assert table.dtype == bool and np.array_equal(table, _flip_table_reference(rs, Y))


def test_breaking_flips_equals_the_flip_by_flip_reference_on_random_rules(monkeypatch):
    monkeypatch.setattr(rules_module, "_FLIP_BLOCK_ROWS", 6)
    rng = random.Random(20)
    npr = np.random.default_rng(20)
    for n_labels in (1, 2, 3, 5, 7):
        vocab = LabelVocabulary(tuple(f"l{i}" for i in range(n_labels)))
        for _ in range(12):
            rs = oracles.random_ruleset(rng, vocab, rng.randint(0, 8), max_ant=4, max_cons=4)
            Y = npr.integers(0, 2, size=(rng.randint(1, 20), n_labels)).astype(np.uint8)
            assert np.array_equal(rules_module.breaking_flips(rs, Y), _flip_table_reference(rs, Y))


@pytest.mark.parametrize("rules", _HAND_WRITTEN_RULES)
@pytest.mark.parametrize("names", [("a", "b", "c", "d"), ("d", "b", "a", "c")], ids=["rule-order", "other-order"])
@pytest.mark.parametrize("rho", [0.5, 1.0])
def test_violating_noise_equals_the_per_row_reference_on_hand_written_rules(monkeypatch, rules, names, rho):
    monkeypatch.setattr(rules_module, "_FLIP_BLOCK_ROWS", 7)  # 128 rows in uneven blocks
    vocab = LabelVocabulary(("a", "b", "c", "d"))
    rs = parse_rules(rules, vocab) if rules else RuleSet(vocab, ())
    Y = np.array(list(itertools.product((0, 1), repeat=4)) * 8)  # every vertex, 8 times
    ds = Dataset(np.zeros((len(Y), 1)), Y, LabelVocabulary(names))
    for seed in range(5):
        noisy, reference = inject_noise(ds, rho, seed, "violating", rs), oracles.inject_noise_per_row(ds, rho, seed, rs)
        assert noisy.Y.tobytes() == reference.Y.tobytes()
        assert noisy.clean_Y.tobytes() == reference.clean_Y.tobytes()


def test_violating_noise_rate_roughly_rho():
    rs = parse_rules("MUTEX(a, b)\na => c")
    ds = synthesize(10, 500, 4, rs, k_patterns=5)
    noisy = inject_noise(ds, 0.2, 7, "violating", rs=rs)
    # every consistent sample admits a violating flip here, so the count is
    # Binomial(500, 0.2); stay within four sigma
    n = len(noisy.flips)
    assert abs(n - 100) < 4 * (500 * 0.2 * 0.8) ** 0.5


def test_noise_is_deterministic():
    ds = _small_ds()
    a = inject_noise(ds, 0.5, 11, "uniform")
    b = inject_noise(ds, 0.5, 11, "uniform")
    assert a.flips == b.flips
    assert np.array_equal(a.Y, b.Y)


def test_noise_validation():
    ds = _small_ds()
    with pytest.raises(ValueError):
        inject_noise(ds, -0.1, 0, "uniform")
    with pytest.raises(ValueError):
        inject_noise(ds, 0.2, 0, "gaussian")
    with pytest.raises(ValueError):
        inject_noise(ds, 0.2, 0, "violating")  # needs rules
    noisy = inject_noise(ds, 0.5, 11, "uniform")
    with pytest.raises(DatasetError, match="already carries noise"):
        inject_noise(noisy, 0.1, 0, "uniform")


# ---- audit ----


def test_audit_hand_counts():
    rs = parse_rules("a => b\nMUTEX(a, c)")
    vocab = rs.vocabulary
    Y = np.array(
        [
            [1, 0, 0],  # violates rule 0
            [1, 1, 1],  # violates rule 1 (the a,c exclusion)
            [0, 0, 0],  # clean
            [1, 0, 1],  # violates both
        ]
    )
    ds = Dataset(np.zeros((4, 2)), Y, vocab)
    report = audit(ds, rs)
    counts = [row["count"] for row in report.per_rule]
    assert counts == [2, 2]
    assert report.violating_samples == 3
    assert report.fraction == 0.75
    assert [row["sample"] for row in report.per_sample] == [0, 1, 3]
    assert report.per_sample[1]["violated"] == [1]
    assert report.per_sample[2]["violated"] == [0, 1]


def test_audit_counts_match_truth_table_oracle():
    rng = random.Random(4242)
    vocab = LabelVocabulary(tuple(f"l{i}" for i in range(4)))
    npr = np.random.default_rng(4242)
    for _ in range(25):
        rs = oracles.random_ruleset(rng, vocab, rng.randint(1, 5))
        Y = npr.integers(0, 2, size=(30, 4))
        ds = Dataset(npr.normal(size=(30, 2)), Y, vocab)
        report = audit(ds, rs)
        expected = oracles.brute_force_counts(rs.rules, Y, 4)
        assert [row["count"] for row in report.per_rule] == expected


def test_audit_matches_vocabularies_by_name():
    rs = parse_rules("a => b")
    shuffled = LabelVocabulary(("b", "a"))
    Y = np.array([[0, 1], [1, 1]])  # column order is (b, a); sample 0 violates
    ds = Dataset(np.zeros((2, 1)), Y, shuffled)
    report = audit(ds, rs)
    assert report.violating_samples == 1
    assert report.per_sample[0]["sample"] == 0
    with pytest.raises(Exception, match="vocabulary mismatch"):
        audit(ds, parse_rules("a => zzz"))


def test_audit_text_caps_sample_listing():
    vocab = LabelVocabulary(("a", "b"))
    rs = parse_rules("a => FALSE", vocab=vocab)
    Y = np.column_stack([np.ones(120, dtype=np.int64), np.zeros(120, dtype=np.int64)])
    ds = Dataset(np.zeros((120, 1)), Y, vocab)
    report = audit(ds, rs)
    assert len(report.per_sample) == 120
    text = report.to_text()
    assert "first 100" in text
    assert text.count("\n  sample ") == 100
    assert json.loads(jsonio.dumps(report))["per_sample"] == report.per_sample


# sha256 of clean.jsonl, noisy.jsonl and the audit stdout of the chain below
_GOLDEN = {
    "clean.jsonl": "7572c3919b9f3e1eb80ad0385d052913af125800685af801dba71000dd1abb92",
    "noisy.jsonl": "17818ff8a23a95a4d9462a1b484128d4f0b1f85abb4142be22adb2de59d7690f",
    "audit": "fd938a7686240dfc92c7f9072155b229be6d97fcb0e31661d1760c496a729f75",
}


def test_synth_noise_audit_bytes_match_golden_digests(tmp_path, monkeypatch, capsys):
    """synth, noise --mode violating and audit --json of train-rules' rule set at
    300 rows, seeds 1,2,3. None of them makes a BLAS call, so their bytes depend
    only on numpy's generator streams, the float format and the package."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    monkeypatch.chdir(tmp_path)
    (tmp_path / "work").mkdir()
    (tmp_path / "work" / "rules.txt").write_text(workloads.MANY_RULES)
    wl = dataclasses.replace(workloads.WORKLOADS["train-rules"], rows=300)
    for _, argv in workloads.commands(wl, "work", (1, 2, 3))[:3]:
        assert run(argv) == 0
    digests = {name: hashlib.sha256((tmp_path / "work" / name).read_bytes()).hexdigest()
               for name in ("clean.jsonl", "noisy.jsonl")}
    digests["audit"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == _GOLDEN
