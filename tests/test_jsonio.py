"""The serializer's array formatting, the decimal reader, and the atomic replacement of output files."""

import decimal
import json
import os
from dataclasses import asdict, dataclass

import numpy as np
import pytest

from rulebound import Dataset, EpochRecord, LabelVocabulary, save_dataset
from rulebound import data, jsonio

EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1, 1e16, 3.0, -2.0**53, 1 / 3]


def test_float_list_matches_generic_lists():
    for values in ([], EDGE_FLOATS, np.arange(12.0).reshape(3, 4) / 7):
        items = np.asarray(values, dtype=np.float64).ravel().tolist()
        assert jsonio.dumps(items) == "[" + ", ".join(map(jsonio.format_float, items)) + "]"
    assert jsonio.dumps({"w": [0.5, -0.0]}) == '{"w": [0.5, -0]}'


def _tokens_to_format():
    """Doubles for `float_rows`: random draws, the ulp neighbours of every power
    of ten from 1e-4 to 1e17 (the notation switches and the values whose log10
    floors one off among them), ties at the 17th digit, and edge values."""
    rng = np.random.default_rng(25)
    signs = rng.choice([-1.0, 1.0], 22_000)
    powers = 10.0 ** np.arange(-4, 18)
    neighbours = [powers]
    for direction in (0.0, np.inf):
        step = powers
        for _ in range(3):
            step = np.nextafter(step, direction)
            neighbours.append(step)
    # exact values of 18 significant digits that end in 5: integers with a
    # fraction k / 2**j of j decimals, and odd m / 2**18 in [0.1, 1)
    ties = [
        rng.integers(10 ** (17 - j), 10 ** (18 - j), 2_000)
        + (2 * rng.integers(0, 2 ** (j - 1), 2_000) + 1) / 2.0**j
        for j in (3, 4, 5)
    ]
    ties.append((2 * rng.integers(13_108, 2**17, 2_000) + 1) / 2.0**18)
    edges = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 123456789012345.125]
    return np.concatenate(
        [rng.normal(size=22_000), signs * 10 ** rng.uniform(-6, 18, 22_000), *neighbours, *ties, edges]
    )


def test_float_rows_match_float_format_bitwise(monkeypatch):
    values = _tokens_to_format()
    assert values.size >= 50_000
    a = np.abs(values)
    window = (a >= 1e-4) & (a < 1e16)
    # log10 floors one off on some of them, which the exponent fix must catch
    exponents = np.array([int(("%.16e" % v).split("e")[1]) for v in a[window]])
    assert (np.floor(np.log10(a[window])) != exponents).sum() >= 40
    formatted = []

    class Counting(str):
        def __mod__(self, value):
            formatted.append(value)
            return str.__mod__(self, value)

    monkeypatch.setattr(jsonio, "FLOAT_FORMAT", Counting("%.17g"))
    rows = jsonio.float_rows(values.reshape(1, -1))
    text = rows[rows != 0].tobytes().decode("ascii")
    assert text.split(", ") == ["%.17g" % v for v in values.tolist()]
    # every token in the window is made from its digits, and only the others are formatted by %
    assert window.mean() > 0.9
    assert np.array(formatted, dtype=np.float64).tobytes() == values[~window].tobytes()


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
    expected = np.array([json.loads(t, parse_int=jsonio._int_keeping_negative_zero) for t in tokens])
    values, direct = jsonio.read_decimal_rows(tokens, 1)
    assert values.tobytes() == expected[direct].tobytes()  # bitwise, so -0.0 keeps its sign
    assert direct.sum() > 40_000, (direct.sum(), len(tokens))  # of 53481
    # the tokens it leaves (integers, exponents, more digits, exact midpoints) take the per-line parse
    X, _, _ = data._read_samples(['{"x": [' + t + '], "y": [1]}' for t in tokens], 1)
    assert X.tobytes() == expected.tobytes()


# Two-feature x texts that the decimal reader must leave to the per-line parse: JSON that is
# not the writer's ", " list of plain decimals, and text that is not JSON at all.
_NOT_DECIMAL = ["0.5,-2.25", "0.5 , -2.25", "0.5,  -2.25", " 0.5, -2.25", "0.5, -2.25 ", "0.5, -2.25, ",
                "01.5, 2.5", "-01.5, 2.5", "00.5, 2.5", ".5, 2.5", "-.5, 2.5", "1., 2.5", "+1.5, 2.5",
                "1.5-, 2.5", "--1.5, 2.5", "1.5.5, 2.5", "1..5, 2.5", "1e5, 2.5", "1.5e0, 2.5", "1, 2.5",
                "-0, 2.5", "1.5, 2", "1.5, 2.5, 3.5", "1.5", "1.5, [2.5]", '1.5, "2.5"', "1.5, 2.5\t",
                "1.5, NaN", "1.5, -Infinity", "1.5, 2\u00b75", "1.5, 2.5\u0661"]


def test_decimal_reader_takes_only_the_writers_plain_decimals():
    texts = ["0.25, -0.75"] + _NOT_DECIMAL + ["-0.0, 12.5"]
    values, direct = jsonio.read_decimal_rows(texts, 2)
    assert direct.tolist() == [True] + [False] * len(_NOT_DECIMAL) + [True]
    assert values.tolist() == [[0.25, -0.75], [-0.0, 12.5]] and np.signbit(values[1, 0])


def test_decimal_reader_parses_no_mantissa_past_18_digits(monkeypatch):
    rng = np.random.default_rng(26)
    numbers = list(map(str, rng.integers(10**17, 10**18, size=300).tolist()))
    # 19 to 24 significant digits, which int64 may not hold, with at most 22 fraction digits
    long = [t for n in numbers for t in (n + "1.5", "-" + n[:5] + "." + n[5:] + "12", "0." + n + "9",
                                         "-0.000" + n + "1", "-99999" + n + ".5")]
    # the writer's tokens in [1e-4, 1e-1), up to 20 fraction digits, and 22 fraction digits with
    # 4 leading zeros or more
    short = ["%.17g" % v for v in 10 ** rng.uniform(-4, -1, size=300)] + ["0.0000" + n for n in numbers]
    short += ["0.000000" + n[:16] for n in numbers] + ["0." + "0" * 22, "-0." + "0" * 21 + "1"]
    assert max(map(len, short[:300])) == 22  # "0." and 20 fraction digits
    tokens = long + short
    received = []
    fromstring = np.fromstring

    def parse(text, **kwargs):
        received.extend(token.strip().lstrip(b"-").decode("ascii") for token in text.split(b","))
        return fromstring(text, **kwargs)

    monkeypatch.setattr(np, "fromstring", parse)
    X, _, _ = data._read_samples(['{"x": [' + t + '], "y": [1]}' for t in tokens], 1)
    assert X.tobytes() == np.array([json.loads(t) for t in tokens]).tobytes()
    assert max(len(token.lstrip("0")) for token in received) <= 18
    # the digit count takes off the zeros after "0.", so those tokens stay on the decimal path
    assert {t.lstrip("-").replace(".", "") for t in short} <= set(received)


def test_float_list_rejects_non_finite():
    with pytest.raises(ValueError, match=r"^cannot serialize non-finite number nan$"):
        jsonio.dumps([1.0, np.nan, np.inf])


def test_atomic_write_replaces_only_on_success(tmp_path):
    path = tmp_path / "out.json"
    path.write_bytes(b"old bytes\n")
    with pytest.raises(RuntimeError):
        with jsonio.atomic_write(path) as fh:
            fh.write("half a file")
            raise RuntimeError("fails midway")
    assert path.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["out.json"]

    with jsonio.atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_bytes() == b"new\n"
    assert os.listdir(tmp_path) == ["out.json"]


def test_atomic_write_failure_leaves_no_new_file(tmp_path):
    with pytest.raises(ValueError):
        jsonio.dump_lines([{"a": [1.0, float("inf")]}], tmp_path / "report.json")
    assert os.listdir(tmp_path) == []
    with pytest.raises(FileNotFoundError, match=r"missing/report\.json'$"):
        jsonio.dump_lines([{"a": 1}], tmp_path / "missing" / "report.json")
    assert os.listdir(tmp_path) == []


def test_history_write_failing_midway_keeps_old_file(tmp_path):
    path = tmp_path / "history.jsonl"
    path.write_bytes(b"previous run\n")
    history = [EpochRecord(0, 0.5, 0.1, 0.6, 0, 0), EpochRecord(1, float("nan"), 0.1, 0.6, 0, 0)]
    with pytest.raises(ValueError, match="non-finite"):
        jsonio.dump_lines(history, path)
    assert path.read_bytes() == b"previous run\n"
    assert os.listdir(tmp_path) == ["history.jsonl"]


def test_dataset_write_failing_midway_keeps_old_file(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_BLOCK_FEATURES", 4)  # blocks of two lines
    ds = Dataset(np.arange(10.0).reshape(5, 2), np.zeros((5, 1), dtype=int), LabelVocabulary(("a",)))
    path = tmp_path / "data.jsonl"
    save_dataset(ds, path)
    before = path.read_bytes()
    ds.Y = ds.Y.astype(object)
    ds.Y[4, 0] = "not a label"  # formatting fails in the last block, after two blocks were written
    with pytest.raises(TypeError):
        save_dataset(ds, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["data.jsonl"]


def test_save_dataset_non_finite_feature_in_last_block_keeps_old_file(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_BLOCK_FEATURES", 4)  # blocks of two lines
    ds = Dataset(np.arange(10.0).reshape(5, 2), np.zeros((5, 1), dtype=int), LabelVocabulary(("a",)))
    path = tmp_path / "data.jsonl"
    save_dataset(ds, path)
    before = path.read_bytes()
    ds.X[4, 1] = np.nan  # float_rows refuses it in the last block, after two blocks were written
    with pytest.raises(ValueError, match=r"^cannot serialize non-finite number nan$"):
        save_dataset(ds, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["data.jsonl"]


def test_atomic_paths_replace_all_targets_or_none(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_bytes(b"old\n")
    with pytest.raises(RuntimeError):
        with jsonio.atomic_paths(first, second) as (tmp_first, tmp_second):
            jsonio.dump_lines([{"a": 1}], tmp_first)
            raise RuntimeError("the second output fails")
    assert first.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["first.json"]

    with jsonio.atomic_paths(first, second) as (tmp_first, tmp_second):
        jsonio.dump_lines([1], tmp_first)
        jsonio.dump_lines([2], tmp_second)
    assert first.read_bytes() == b"1\n" and second.read_bytes() == b"2\n"
    assert sorted(os.listdir(tmp_path)) == ["first.json", "second.json"]


@dataclass(frozen=True)
class _Row:
    name: str
    score: float


@dataclass
class _Doc:
    rows: list[_Row]
    total: float
    note: _Row | None
    count: int


def test_dataclass_writes_its_fields_in_declaration_order():
    doc = _Doc([_Row("b", 0.1), _Row("a", -0.0)], 1 / 3, None, 7)
    by_hand = {
        "rows": [{"name": "b", "score": 0.1}, {"name": "a", "score": -0.0}],
        "total": 1 / 3,
        "note": None,
        "count": 7,
    }
    assert jsonio.dumps(doc) == jsonio.dumps(by_hand)
    assert json.loads(jsonio.dumps(doc)) == asdict(doc)
    assert jsonio.dumps(doc) == (
        '{"rows": [{"name": "b", "score": 0.10000000000000001}, {"name": "a", "score": -0}], '
        '"total": 0.33333333333333331, "note": null, "count": 7}'
    )
    with pytest.raises(TypeError, match="cannot serialize type to JSON"):
        jsonio.dumps(_Doc)


def test_dumps_takes_python_values_only():
    assert jsonio.dumps([np.float64(0.5)]) == "[0.5]"  # np.float64 subclasses float
    for value in (np.int64(1), np.zeros(2), (1, 2), np.bool_(True), np.float32(1)):
        with pytest.raises(TypeError, match=f"^cannot serialize {type(value).__name__} to JSON$"):
            jsonio.dumps(value)
