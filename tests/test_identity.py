"""The byte-identity tool (`tools/identity.py`) on one shrunken workload and one
seed triple: a tree against itself, against a copy whose writer formats floats
differently, and against a tree without the package."""

import dataclasses
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import identity  # noqa: E402

RUNS = [(dataclasses.replace(identity.WORKLOADS["train-rules"], rows=200, epochs=1, warmup=0), (1, 2, 3))]


def test_tree_against_itself_has_no_differences(tmp_path):
    # five commands; stdout and stderr of each plus six output files
    assert identity.compare(ROOT, ROOT, RUNS, tmp_path) == (5, 16, [])


def test_a_changed_float_format_is_named(tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    writer = copy / "src" / "rulebound" / "jsonio.py"
    text = writer.read_text(encoding="utf-8")
    assert text.count('FLOAT_FORMAT = "%.17g"') == 1
    writer.write_text(text.replace('FLOAT_FORMAT = "%.17g"', 'FLOAT_FORMAT = "%.16g"'), encoding="utf-8")
    _, _, differences = identity.compare(ROOT, copy, RUNS, tmp_path / "runs")
    assert any(line.startswith("train-rules seeds 1,2,3 synth: clean.jsonl differs") for line in differences)


def test_a_tree_without_the_package_is_an_error(tmp_path):
    (tmp_path / "empty" / "src").mkdir(parents=True)
    with pytest.raises(RuntimeError, match="rulebound not imported from"):
        identity.compare(tmp_path / "empty", ROOT, RUNS, tmp_path / "runs")
