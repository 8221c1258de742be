"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
from spans import Target, Tracer, self_times, traced
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_time_subtracts_nested_children_once():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),  # covered by "a", not subtracted from root again
        _span("b", 5.0, 7.0, 0),
        _span("late", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans) == [10.0 - 3.0 - 2.0 - 1.0, 2.0, 1.0, 2.0, 3.0]


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [_span("root", 0.0, 10.0, -1), _span("x", 1.0, 5.0, 0), _span("y", 3.0, 6.0, 0)]
    assert self_times(spans)[0] == 10.0 - 5.0


def test_wrapped_calls_record_parents_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    mod = sys.modules[__name__]
    targets = [
        Target(__name__, "_outer", "outer"),
        Target(__name__, "_inner", "inner", count=lambda args, kwargs, result: {"n": result}),
    ]
    with traced(tracer, targets):
        with tracer.span("cli"):
            assert mod._outer(3) == 6
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["cli", "outer", "inner"]
    assert parents == [-1, 0, 1]
    assert tracer.spans[2][5] == {"n": 6}


def _inner(x):
    return 2 * x


def _outer(x):
    return _inner(x)


def test_wrappers_are_removed_after_a_traced_block_even_on_error():
    assert run.use_checkout() == ""
    originals = {
        (t.module, t.attr): getattr(importlib.import_module(t.module), t.attr) for t in layers.TARGETS
    }
    with pytest.raises(RuntimeError):
        with traced(Tracer(), layers.TARGETS):
            wrapped = getattr(importlib.import_module("rulebound.training"), "sgd_step")
            assert wrapped is not originals[("rulebound.training", "sgd_step")]
            raise RuntimeError("abort the traced block")
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn


def _tiny(wl):
    return dataclasses.replace(wl, rows=240, epochs=2, warmup=1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric_without_failures(name, trace):
    assert run.use_checkout() == ""
    result, lines, _, _ = run.report(_tiny(WORKLOADS[name]), seed=3, seconds=0.0, trace=trace, setups=2)
    expected = [n for n, _, _ in layers.PER_LAYER] if trace else [n for n, _ in run.END_TO_END]
    assert list(result["metrics"]) == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 10
    assert "failed_ops_frac 0.0000  (0 of 10 operations)" in lines
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    # the wrappers are gone after a traced run
    from rulebound import model, training

    assert training.sgd_step is model.sgd_step


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
