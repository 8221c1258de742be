"""The serializer's array formatting and the atomic replacement of output files."""

import json
import os
from dataclasses import asdict, dataclass

import numpy as np
import pytest

from rulebound import Dataset, EpochRecord, LabelVocabulary, TrainHistory, save_dataset
from rulebound import data, jsonio

EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1, 1e16, 3.0, -2.0**53, 1 / 3]


def test_float_list_matches_generic_lists():
    for values in ([], EDGE_FLOATS, np.arange(12.0).reshape(3, 4) / 7):
        arr = np.asarray(values, dtype=np.float64)
        assert jsonio.float_list(arr) == jsonio.dumps([float(v) for v in arr.ravel()])
    assert jsonio.dumps({"w": jsonio.float_list([0.5, -0.0])}) == '{"w": [0.5, -0]}'


def test_float_list_rejects_non_finite():
    with pytest.raises(ValueError, match=r"^cannot serialize non-finite number nan$"):
        jsonio.float_list([1.0, np.nan, np.inf])


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
        jsonio.dump({"a": [1.0, float("inf")]}, tmp_path / "report.json")
    assert os.listdir(tmp_path) == []
    with pytest.raises(FileNotFoundError, match=r"missing/report\.json'$"):
        jsonio.dump({"a": 1}, tmp_path / "missing" / "report.json")
    assert os.listdir(tmp_path) == []


def test_history_write_failing_midway_keeps_old_file(tmp_path):
    path = tmp_path / "history.jsonl"
    path.write_bytes(b"previous run\n")
    history = TrainHistory([EpochRecord(0, 0.5, 0.1, 0.6, 0, 0), EpochRecord(1, float("nan"), 0.1, 0.6, 0, 0)])
    with pytest.raises(ValueError, match="non-finite"):
        history.write_jsonl(path)
    assert path.read_bytes() == b"previous run\n"
    assert os.listdir(tmp_path) == ["history.jsonl"]


def test_dataset_write_failing_midway_keeps_old_file(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_BLOCK_ROWS", 2)
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


def test_atomic_paths_replace_all_targets_or_none(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_bytes(b"old\n")
    with pytest.raises(RuntimeError):
        with jsonio.atomic_paths(first, second) as (tmp_first, tmp_second):
            jsonio.dump({"a": 1}, tmp_first)
            raise RuntimeError("the second output fails")
    assert first.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["first.json"]

    with jsonio.atomic_paths(first, second) as (tmp_first, tmp_second):
        jsonio.dump(1, tmp_first)
        jsonio.dump(2, tmp_second)
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
