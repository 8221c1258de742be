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
    values, direct, _ = jsonio.read_decimal_rows(tokens, 1)
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
    values, direct, _ = jsonio.read_decimal_rows(texts, 2)
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


def _certified(tokens: list[str]) -> list[bool]:
    """Which single-token texts `read_decimal_rows` proves to be FLOAT_FORMAT's text of their value."""
    return jsonio.read_decimal_rows(tokens, 1, certify=True)[2].tolist()


def _writers_tie(v: float, token: str) -> bool:
    """Whether v lies halfway between two 17-digit decimals, `token` (%.17g's text of v) one of them."""
    t = decimal.Decimal(token)
    return 2 * abs(decimal.Decimal(v) - t) == decimal.Decimal(10) ** (t.adjusted() - 16)


def test_decimal_certificate_on_named_tokens_and_near_midpoints():
    named = {
        "0.1": False,  # json reads 0.1000000000000000055..., which %.17g writes with 17 digits
        "0.50": False,  # a trailing zero
        "0.0001": True,  # 1e-4 reads a little above it, closer than half a 17th digit
        "-0.0001": True,
        "0.000099": False,  # %.17g writes an exponent below 1e-4
        "0.00006103515625": False,  # 2**-14, read exactly, written 6.103515625e-05
        "9.9999999999999999": False,  # reads as 10.0
        "0.123456789012345678": False,  # 18 significant digits
        "562949953421312.125": False,  # 18 digits, read exactly: a tie %.17g rounds to ...312.12
        "4503599627370496.5": False,  # 2**52 + 1/2, halfway between two doubles: json reads 2**52
        "4503599627370497.5": False,  # and 2**52 + 2
        "0.10000000000000001": True,
        "123.25": True,
        "0.00012345678901234567": True,
    }
    assert _certified(list(named)) == list(named.values())
    assert all(jsonio.FLOAT_FORMAT % float(t) == t for t, ok in named.items() if ok)
    # 72040830101304.6875 is a double: %.17g writes the even neighbour of the tie, and a certificate
    # may take it or leave it to formatting, but must not take the odd one
    tie, odd = "72040830101304.688", "72040830101304.687"
    assert _writers_tie(float(tie), tie) and jsonio.FLOAT_FORMAT % float(tie) == tie
    assert _certified([odd]) == [False]
    # doubles just below a power of two: their quotients round up to it, so the reader redoes them one
    # binade down; each reads as json does, and is certified exactly when %.17g writes it back
    below = ["1.9999999999999998", "0.12499999999999999", "3.9999999999999996", "0.49999999999999994"]
    below += ["-1.9999999999999998", "1.99999999999999980", "0.124999999999999993", "3.9999999999999997"]
    # the writer's texts of 2**-2 and 2**3 less one ulp, last digit raised by one: they read as that double
    below += ["0.24999999999999998", "7.9999999999999992"]
    values, settled, certified = jsonio.read_decimal_rows(below, 1, certify=True)
    assert settled.all()
    assert values.tobytes() == np.array([json.loads(t) for t in below]).tobytes()
    expected = [True] * 5 + [False] * 5
    assert certified.tolist() == [jsonio.FLOAT_FORMAT % float(t) == t for t in below] == expected
    # no false certificate among the reader's adversarial tokens: the 18-digit decimals each side of
    # a midpoint between doubles, exact midpoints, zeros, and the writers' spellings at 15 to 18 digits
    tokens = _decimal_tokens(np.random.default_rng(34))
    for token, ok in zip(tokens, _certified(tokens)):
        assert not ok or jsonio.FLOAT_FORMAT % float(token) == token, token


def _respellings(v: float) -> list[str]:
    """Texts that read as v or as a double next to it: %g at 15, 16 and 18 digits, the shortest
    repr, fixed point at as many fraction digits as the writer's token has and at one more, and the
    writer's token with a 0 appended or its last digit moved by one."""
    token = jsonio.FLOAT_FORMAT % v
    spellings = [fmt % v for fmt in ("%.15g", "%.16g", "%.18g")] + [repr(v)]
    if "." in token:
        places = len(token) - token.index(".") - 1
        last = int(token[-1])
        spellings += [f"%.{places}f" % v, f"%.{places + 1}f" % v, token + "0"]
        spellings += [token[:-1] + str((last + step) % 10) for step in (1, 9)]
    return spellings + ["-" + s for s in spellings]


def test_decimal_certificate_takes_the_writers_tokens_and_no_other_spelling():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    def ulps_from(v: float, k: int) -> float:
        for _ in range(abs(k)):
            v = np.nextafter(v, np.inf if k > 0 else 0.0)
        return float(v)

    doubles = st.floats(min_value=1e-4, max_value=1e16, exclude_max=True)
    # the doubles a few ulps from d * 10**X, where a one-digit token and the rounding to 17 digits meet,
    # and from 2**E, where the reader's quotient may round up to the power of two
    near = st.builds(lambda d, x, k: ulps_from(d * 10.0**x, k), st.integers(1, 9), st.integers(-4, 15),
                     st.integers(-3, 3))
    powers = st.builds(lambda e, k: ulps_from(2.0**e, k), st.integers(-13, 53), st.integers(-3, 3))

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(st.one_of(doubles, near, powers).filter(lambda v: 1e-4 <= v < 1e16), min_size=1, max_size=20))
    def check(values):
        writers = [jsonio.FLOAT_FORMAT % v for v in values]
        tokens = writers + [s for v in values for s in _respellings(v)]
        _, settled, certified = jsonio.read_decimal_rows(tokens, 1, certify=True)
        for token, ok in zip(tokens, certified.tolist()):
            assert not ok or jsonio.FLOAT_FORMAT % float(token) == token, token
        # a writer's token with a point is settled, and certified unless v is a tie
        for v, token, read, ok in zip(values, writers, settled.tolist(), certified.tolist()):
            assert ok or "." not in token or _writers_tie(v, token), token
            assert read or "." not in token, token

    check()


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


def test_records_write_what_the_item_by_item_writer_writes():
    # lists of records that share their keys, each key's values all ints or all int lists
    records = [
        [{"sample": 3, "violated": [0, 2]}, {"sample": 7, "violated": []}, {"sample": -1, "violated": [10**30]}],
        [{"50%": 1, "%s": [2], "%%(x)d é\n": -0}],
    ]
    # lists written item by item: keys in another order, other types, no keys
    others = [
        [{"rule": 0, "text": 'a => b "q" \\ é\n', "count": 5}, {"rule": 1, "text": "", "count": 0}],
        [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
        [{"a": 1}, {"a": 1, "b": 2}],
        [{"a": True}],
        [{"a": 1}, {"a": 1.5}],
        [{"a": [1, True]}],
        [{"a": [1, 2.0]}],
        [{"a": [[1]]}],
        [{"a": None}],
        [{}, {}],
        [{"a": 1}, [1]],
    ]
    for rows in records + others:
        taken = jsonio._records(rows) is not None
        assert taken == (rows in records)
        assert jsonio.dumps(rows) == "[" + ", ".join(map(jsonio.dumps, rows)) + "]"
        if taken:
            assert jsonio.dumps(rows) == json.dumps(rows)
    for rows in ([{"a": np.int64(1)}], [{1: 2}], [{"a": 1}, {1: 2}]):
        with pytest.raises(TypeError):
            jsonio.dumps(rows)
