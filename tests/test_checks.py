"""Input checks that the other tests do not reach, one parametrized test per
module: each case names the exception class and its exact message, and the
command-line cases the exit code and stderr too."""

import json

import numpy as np
import pytest

from rulebound import jsonio
from rulebound.cli import run
from rulebound.data import Dataset, DatasetError, load_dataset, synthesize
from rulebound.metrics import exact_match, f1_scores
from rulebound.model import ModelParams
from rulebound.rules import LabelVocabulary, RuleSet, parse_rules, violation_matrix
from rulebound.supervision import SupervisionState, init_supervision

VOCAB = LabelVocabulary(["a", "b", "c"])
RULES = "MUTEX(a, b)\na => c\n"
DATA = '{"labels": ["a", "b", "c"]}\n{"x": [0.1, 0.2], "y": [1, 0, 1]}\n{"x": [0.3, 0.4], "y": [0, 1, 0]}\n'
# a checkpoint over 2 features, 1 hidden unit and 3 labels whose b1 has 2 entries
CHECKPOINT = {
    "dims": {"n_features": 2, "n_hidden": 1, "n_labels": 3},
    "seed": 0,
    "W1": [0.1, 0.2],
    "b1": [0.0, 0.0],
    "W2": [0.1, 0.2, 0.3],
    "b2": [0.0, 0.0, 0.0],
    "config": None,
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A rule file, a dataset and a checkpoint in the working directory, named relatively."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.txt").write_text(RULES)
    (tmp_path / "d.jsonl").write_text(DATA)
    (tmp_path / "m.json").write_text(json.dumps(CHECKPOINT))
    return tmp_path


@pytest.mark.parametrize(
    "config, argv, code, err",
    [
        ("not json", ["train", "--config", "cfg.json"], 2, "cfg.json: invalid JSON: Expecting value"),
        ("[1]", ["train", "--config", "cfg.json"], 2, "cfg.json: config must be a JSON object"),
        (None, ["train", "--data", "d.jsonl"], 1, "train needs a rule file (--rules or config key 'rules')"),
        (None, ["train", "--rules", "r.txt"], 1, "train needs a dataset (--data or config key 'data')"),
        (None, ["eval", "--rules", "r.txt", "--data", "d.jsonl", "--model", "m.json"], 2,
         "m.json: malformed checkpoint: parameter shapes are inconsistent"),
        ("[]", ["eval", "--rules", "r.txt", "--data", "d.jsonl", "--model", "cfg.json"], 2,
         "cfg.json: checkpoint must be a JSON object"),
        ("null", ["eval", "--rules", "r.txt", "--data", "d.jsonl", "--model", "cfg.json"], 2,
         "cfg.json: checkpoint must be a JSON object"),
    ],
)
def test_cli_rejects(workdir, capsys, config, argv, code, err):
    if config is not None:
        (workdir / "cfg.json").write_text(config)
    assert run(argv) == code
    assert capsys.readouterr() == ("", f"error: {err}\n")


def _bad_header():
    with open("h.jsonl", "w") as fh:
        fh.write('{"labels": [a]}\n{"x": [0.1], "y": [1, 0, 1]}\n')
    return load_dataset("h.jsonl")


@pytest.mark.parametrize(
    "call, exc, message",
    [
        (lambda: Dataset(np.zeros(3), np.zeros((3, 3)), VOCAB), DatasetError, "X and Y must be 2-D"),
        (lambda: Dataset(np.zeros((0, 2)), np.zeros((0, 3)), VOCAB), DatasetError, "dataset has no samples"),
        (lambda: Dataset(np.zeros((2, 2)), np.zeros((2, 3)), VOCAB, np.zeros((2, 2))), DatasetError,
         "clean_Y and Y differ in shape"),
        (lambda: Dataset(np.zeros((2, 2)), np.zeros((2, 3)), VOCAB, np.full((2, 3), 2)), DatasetError,
         "clean labels must be 0 or 1"),
        (_bad_header, DatasetError, "h.jsonl: line 1: invalid JSON: Expecting value"),
        (lambda: synthesize(0, 10, 2, RuleSet(LabelVocabulary([f"l{j}" for j in range(21)])), 2), ValueError,
         "synthesis supports at most 20 labels"),
    ],
)
def test_data_rejects(workdir, call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc and str(info.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: f1_scores(np.zeros(3), np.zeros(3)), "predictions must be 2-D, got shape (3,)"),
        (lambda: exact_match(np.zeros((2, 3)), np.zeros((3, 3))), "shape mismatch: (2, 3) vs (3, 3)"),
    ],
)
def test_metrics_rejects(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize(
    "weights, message",
    [
        ((np.zeros(2), np.zeros(1), np.zeros((3, 1)), np.zeros(3)),
         "weights must be 2-D matrices and biases 1-D vectors"),
        ((np.zeros((1, 2)), np.zeros(2), np.zeros((3, 1)), np.zeros(3)), "parameter shapes are inconsistent"),
    ],
)
def test_model_rejects(weights, message):
    with pytest.raises(ValueError) as info:
        ModelParams(*weights)
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize(
    "Y, message",
    [
        (np.zeros((2, 4)), "label matrix has shape (2, 4), expected (n, 3)"),
        (np.zeros(3), "label matrix has shape (3,), expected (n, 3)"),
    ],
)
def test_rules_rejects(Y, message):
    with pytest.raises(ValueError) as info:
        violation_matrix(parse_rules(RULES), Y)
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SupervisionState(np.zeros((2, 3)), np.zeros((2, 2))), "supervision arrays must share one shape"),
        (lambda: SupervisionState(np.full((2, 3), 0.5), np.zeros((2, 3))), "targets must be 0 or 1"),
        (lambda: init_supervision(np.zeros((2, 3)), np.zeros((2, 2)), "mask_only"),
         "labels (2, 3) and flags (2, 2) differ in shape"),
    ],
)
def test_supervision_rejects(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize(
    "obj, expected",
    [
        (True, "true"),
        (False, "false"),
        ({1: 2}, TypeError("JSON object keys must be strings, got int")),
    ],
)
def test_jsonio_writes_booleans_and_rejects_non_string_keys(obj, expected):
    if isinstance(expected, str):
        assert jsonio.dumps(obj) == expected
        return
    with pytest.raises(type(expected)) as info:
        jsonio.dumps(obj)
    assert type(info.value) is type(expected) and str(info.value) == str(expected)
