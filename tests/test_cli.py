"""Command-line behavior: exit codes, config precedence, pipeline wiring."""

import json
import os
import sys

import numpy as np
import pytest

from rulebound import cli, load_dataset, load_model
from rulebound.cli import run


RULES = "MUTEX(a, b)\na => c\n"

# the JSON layouts of the reports: each record's dataclass fields, in declaration order
REPORT_KEYS = ["per_label", "macro_f1", "micro_f1", "exact_match", "cvr", "correction", "eval_target"]
LABEL_SCORE_KEYS = ["label", "precision", "recall", "f1", "support"]
CORRECTION_KEYS = [
    "n_flipped", "n_corrected_right", "n_corrected_wrong", "n_still_masked", "n_undetected",
    "recovery_rate",
]
AUDIT_KEYS = ["per_rule", "per_sample", "violating_samples", "fraction"]


@pytest.fixture
def rules_file(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text(RULES)
    return str(path)


def _write_plain_dataset(path, n=20):
    """A small dataset with no y_clean column; labels mostly obey RULES."""
    patterns = [(0, 0, 0), (1, 0, 1), (0, 1, 0), (1, 1, 1)]  # last one violates MUTEX
    lines = ['{"labels": ["a", "b", "c"]}']
    for i in range(n):
        y = patterns[i % 4 if i % 5 else 3]
        x = [round(0.8 * y[0] + 0.1 * ((i * 7) % 5), 3), round(0.8 * y[1] - 0.1 * ((i * 3) % 4), 3)]
        lines.append(json.dumps({"x": x, "y": list(y)}))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _synth(tmp_path, rules_file, name="data.jsonl", n=60):
    out = tmp_path / name
    code = run(
        ["synth", "--rules", rules_file, "--out", str(out), "--n", str(n), "--dims", "3",
         "--patterns", "4", "--seed", "5"]
    )
    assert code == 0
    return str(out)


# ---- happy paths ----


def test_synth_then_audit_is_clean(tmp_path, rules_file, capsys):
    data = _synth(tmp_path, rules_file)
    assert run(["audit", "--rules", rules_file, "--data", data]) == 0
    out = capsys.readouterr().out
    assert "violating samples: 0 (fraction 0)" in out


def test_noise_then_audit_reports_violations(tmp_path, rules_file, capsys):
    data = _synth(tmp_path, rules_file)
    noisy = tmp_path / "noisy.jsonl"
    code = run(
        ["noise", "--in", data, "--out", str(noisy), "--rho", "0.3", "--mode", "violating",
         "--seed", "2", "--rules", rules_file]
    )
    assert code == 0
    assert run(["audit", "--rules", rules_file, "--data", str(noisy), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == AUDIT_KEYS
    assert [list(row) for row in report["per_rule"]] == [["rule", "text", "count"]] * 2
    assert {tuple(row) for row in report["per_sample"]} == {("sample", "violated")}
    assert report["violating_samples"] > 0
    assert len(report["per_rule"]) == 2
    ds = load_dataset(noisy)
    assert ds.flips and len(ds.flips) == report["violating_samples"]


def test_train_writes_all_outputs(tmp_path, rules_file):
    data = _synth(tmp_path, rules_file)
    model, history, report = (str(tmp_path / n) for n in ("m.json", "h.jsonl", "r.json"))
    code = run(
        ["train", "--rules", rules_file, "--data", data, "--epochs", "3", "--warmup", "1",
         "--batch", "8", "--hidden", "4", "--seed", "1", "--out-model", model,
         "--out-history", history, "--out-report", report]
    )
    assert code == 0
    params, seed, echo = load_model(model)
    assert seed == 1
    assert echo["epochs"] == 3 and echo["lambda"] == 1.0
    assert len(open(history).read().splitlines()) == 3
    doc = json.loads(open(report).read())
    assert list(doc) == REPORT_KEYS
    assert [list(row) for row in doc["per_label"]] == [LABEL_SCORE_KEYS] * 3
    assert list(doc["correction"]) == CORRECTION_KEYS
    assert doc["eval_target"] == "clean"  # synthetic data carries its clean labels
    assert doc["correction"]["n_flipped"] == 0


def test_train_report_matches_eval_report(tmp_path, rules_file, capsys):
    data = _write_plain_dataset(tmp_path / "plain.jsonl")
    model, report = str(tmp_path / "m.json"), str(tmp_path / "r.json")
    code = run(
        ["train", "--rules", rules_file, "--data", data, "--epochs", "2", "--warmup", "0",
         "--hidden", "4", "--out-model", model, "--out-report", report]
    )
    assert code == 0
    report2 = str(tmp_path / "r2.json")
    code = run(
        ["eval", "--rules", rules_file, "--data", data, "--model", model,
         "--out-report", report2]
    )
    assert code == 0
    assert open(report, "rb").read() == open(report2, "rb").read()
    doc = json.loads(open(report).read())
    assert doc["eval_target"] == "given"
    assert doc["correction"] is None


def test_eval_prints_report_when_no_output_path(tmp_path, rules_file, capsys):
    data = _write_plain_dataset(tmp_path / "plain.jsonl")
    model = str(tmp_path / "m.json")
    run(["train", "--rules", rules_file, "--data", data, "--epochs", "1", "--warmup", "0",
         "--out-model", model])
    capsys.readouterr()
    assert run(["eval", "--rules", rules_file, "--data", data, "--model", model]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == REPORT_KEYS
    assert [list(row) for row in doc["per_label"]] == [LABEL_SCORE_KEYS] * 3


def test_config_file_supplies_values_and_flags_override(tmp_path, rules_file):
    data = _write_plain_dataset(tmp_path / "plain.jsonl")
    history = str(tmp_path / "h.jsonl")
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "rules": rules_file, "data": data, "epochs": 2, "warmup_epochs": 0,
        "hidden_units": 4, "out_history": history,
    }))
    assert run(["train", "--config", str(cfg_path)]) == 0
    assert len(open(history).read().splitlines()) == 2
    # a flag beats the config value
    assert run(["train", "--config", str(cfg_path), "--epochs", "4"]) == 0
    assert len(open(history).read().splitlines()) == 4


def test_fractional_integer_hyperparameter_exits_two(tmp_path, rules_file, capsys):
    data = _write_plain_dataset(tmp_path / "plain.jsonl")
    history = tmp_path / "h.jsonl"
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"rules": rules_file, "data": data, "epochs": 2.7, "warmup_epochs": 0}))
    assert run(["train", "--config", str(cfg_path), "--out-history", str(history)]) == 2
    assert capsys.readouterr().err == "error: epochs must be an integer, got 2.7\n"
    assert run(["train", "--rules", rules_file, "--data", data, "--epochs", "2", "--warmup", "0",
                "--hidden", "3.5", "--out-history", str(history)]) == 2
    assert capsys.readouterr().err == "error: hidden_units must be an integer, got 3.5\n"
    assert not history.exists()
    # integral values stay accepted, from the config and from a flag
    cfg_path.write_text(json.dumps({"rules": rules_file, "data": data, "epochs": 2.0, "warmup_epochs": 0}))
    assert run(["train", "--config", str(cfg_path), "--hidden", "3.0", "--out-history", str(history)]) == 0
    assert len(history.read_text().splitlines()) == 2
    assert run(["train", "--config", str(cfg_path), "--epochs", "many"]) == 1
    assert "invalid number value: 'many'" in capsys.readouterr().err
    # an integer past the float range reads as the float token 1e400 does
    cfg_path.write_text(f'{{"rules": "{rules_file}", "data": "{data}", "epochs": 1{"0" * 400}}}')
    assert run(["train", "--config", str(cfg_path), "--out-history", str(history)]) == 2
    assert capsys.readouterr().err == "error: epochs must be an integer, got inf\n"


def test_string_hyperparameters_in_a_config_exit_two(tmp_path, rules_file, capsys):
    # the config keys take JSON numbers; a string holding one is not read as a number
    data = _write_plain_dataset(tmp_path / "plain.jsonl")
    model = tmp_path / "m.json"
    cfg_path = tmp_path / "exp.json"
    doc = {"rules": rules_file, "data": data, "epochs": "6", "learning_rate": "0.1", "seed": " 7 "}
    cfg_path.write_text(json.dumps(doc))
    # the fields are checked in TrainConfig's order: learning_rate, epochs, ..., seed
    assert run(["train", "--config", str(cfg_path), "--out-model", str(model)]) == 2
    assert capsys.readouterr().err == "error: learning_rate must be a number, got '0.1'\n"
    doc["learning_rate"] = 0.1
    cfg_path.write_text(json.dumps(doc))
    assert run(["train", "--config", str(cfg_path), "--out-model", str(model)]) == 2
    assert capsys.readouterr().err == "error: epochs must be a number, got '6'\n"
    doc["epochs"] = 6
    cfg_path.write_text(json.dumps(doc))
    assert run(["train", "--config", str(cfg_path), "--out-model", str(model)]) == 2
    assert capsys.readouterr().err == "error: seed must be a number, got ' 7 '\n"
    assert not model.exists()


def test_config_and_flag_messages_name_the_config_key(tmp_path, rules_file, capsys):
    data = _write_plain_dataset(tmp_path / "plain.jsonl")
    history = tmp_path / "h.jsonl"
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"rules": rules_file, "data": data, "lambda": None, "epochs": 1}))
    assert run(["train", "--config", str(cfg_path), "--warmup", "0", "--out-history", str(history)]) == 2
    assert capsys.readouterr().err == "error: lambda must be a number, got None\n"
    assert run(["train", "--rules", rules_file, "--data", data, "--lambda", "-1", "--epochs", "1",
                "--warmup", "0", "--out-history", str(history)]) == 2
    assert capsys.readouterr().err == "error: lambda must be nonnegative\n"
    assert not history.exists()
    # the flag beats the config's bad value
    assert run(["train", "--config", str(cfg_path), "--lambda", "0.5", "--warmup", "0",
                "--out-history", str(history)]) == 0
    assert len(history.read_text().splitlines()) == 1


@pytest.mark.parametrize(
    "flag, value, key",
    [("--lambda", "nan", "lambda"), ("--lambda", "inf", "lambda"), ("--lr", "nan", "learning_rate"),
     ("--lr", "inf", "learning_rate"), ("--tau", "nan", "tau")],
)
def test_non_finite_hyperparameter_exits_two_before_training(
    tmp_path, rules_file, capsys, monkeypatch, flag, value, key
):
    data = _write_plain_dataset(tmp_path / "plain.jsonl")
    model = tmp_path / "m.json"

    def no_training(*args):
        raise AssertionError("training started")

    monkeypatch.setattr("rulebound.cli.train", no_training)
    assert run(["train", "--rules", rules_file, "--data", data, flag, value, "--epochs", "1",
                "--warmup", "0", "--out-model", str(model)]) == 2
    assert capsys.readouterr().err == f"error: {key} must be finite, got {value}\n"
    # the JSON reader takes NaN and Infinity in a config file too
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(f'{{"rules": "{rules_file}", "data": "{data}", "{key}": -Infinity}}')
    assert run(["train", "--config", str(cfg_path), "--out-model", str(model)]) == 2
    assert capsys.readouterr().err == f"error: {key} must be finite, got -inf\n"
    # and an integer past the float range reads as the float token -1e400 does
    cfg_path.write_text(f'{{"rules": "{rules_file}", "data": "{data}", "{key}": -1{"0" * 400}}}')
    assert run(["train", "--config", str(cfg_path), "--out-model", str(model)]) == 2
    assert capsys.readouterr().err == f"error: {key} must be finite, got -inf\n"
    assert not model.exists()


@pytest.mark.parametrize("name, text", [
    ("W1", "NaN"), ("b2", "Infinity"), ("W2", "-Infinity"),
    pytest.param("b2", "1" + "0" * 400, id="b2-integer-past-the-float-range"),
])
def test_eval_rejects_checkpoint_with_non_finite_weights(tmp_path, rules_file, capsys, name, text):
    data = _write_plain_dataset(tmp_path / "plain.jsonl")
    model = tmp_path / "m.json"
    assert run(["train", "--rules", rules_file, "--data", data, "--epochs", "1", "--warmup", "0",
                "--hidden", "2", "--out-model", str(model)]) == 0
    doc = json.loads(model.read_text())
    doc[name][0] = json.loads(text)  # json.dumps writes it back as the bare token
    model.write_text(json.dumps(doc))
    assert text in model.read_text()
    assert run(["eval", "--rules", rules_file, "--data", data, "--model", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {model}: malformed checkpoint: non-finite values in parameter {name}\n"


@pytest.mark.parametrize("name, edit", [
    ("W1", lambda values: [str(v) for v in values]),
    ("b2", lambda values: [True] * len(values)),
    ("W2", lambda values: [values]),
    ("b1", lambda values: [None] * len(values)),
    ("W1", lambda values: {"values": values}),
], ids=["strings", "booleans", "nested", "nulls", "object"])
def test_eval_rejects_checkpoint_weights_that_are_not_numbers(tmp_path, rules_file, capsys, name, edit):
    data = _write_plain_dataset(tmp_path / "plain.jsonl")
    model = tmp_path / "m.json"
    assert run(["train", "--rules", rules_file, "--data", data, "--epochs", "1", "--warmup", "0",
                "--hidden", "2", "--out-model", str(model)]) == 0
    doc = json.loads(model.read_text())
    doc[name] = edit(doc[name])
    model.write_text(json.dumps(doc))
    assert run(["eval", "--rules", rules_file, "--data", data, "--model", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {model}: malformed checkpoint: {name} must be a list of numbers\n"


def test_train_steps_over_a_batch_with_every_entry_masked(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("MUTEX(A, B)\nA => C\nD => !C\n")
    data = tmp_path / "data.jsonl"
    rows = [[1, 1, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]]  # the first row's labels are all flagged
    data.write_text("\n".join([json.dumps({"labels": ["A", "B", "C", "D"]})]
                              + [json.dumps({"x": [0.1 * i, -0.2], "y": y}) for i, y in enumerate(rows)]) + "\n")
    history = tmp_path / "h.jsonl"
    assert run(["train", "--rules", str(rules), "--data", str(data), "--batch", "1", "--mode", "mask_only",
                "--epochs", "2", "--warmup", "0", "--out-history", str(history)]) == 0
    assert capsys.readouterr().err == ""
    assert len(history.read_text().splitlines()) == 2


def _bad_config_run(tmp_path, rules_file, key, value):
    """Train from a config whose `key` is `value`; returns the exit code and the new files."""
    data = _write_plain_dataset(tmp_path / "plain.jsonl")
    doc = {"rules": rules_file, "data": data, "epochs": 1, "warmup_epochs": 0,
           "out_model": str(tmp_path / "m.json"), "out_history": str(tmp_path / "h.jsonl"), key: value}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(doc))
    before = set(tmp_path.iterdir())
    code = run(["train", "--config", str(cfg_path)])
    return code, set(tmp_path.iterdir()) - before


@pytest.mark.parametrize("key, value", [
    ("rules", 1.5), ("data", ["plain.jsonl"]), ("out_model", {"path": "m.json"}),
    ("out_history", 7), ("out_report", True),
])
def test_config_path_must_be_a_string(tmp_path, rules_file, capsys, key, value):
    code, written = _bad_config_run(tmp_path, rules_file, key, value)
    assert code == 2
    assert f"config key '{key}' must be a path string, got {json.dumps(value)}\n" in capsys.readouterr().err
    assert not written


@pytest.mark.parametrize("threshold", [7, 0, 1, True, "0.5", None, float("nan")])
def test_config_threshold_must_be_a_number_in_unit_interval(tmp_path, rules_file, capsys, threshold):
    # checked before training, also when no report is asked for
    code, written = _bad_config_run(tmp_path, rules_file, "threshold", threshold)
    assert code == 2
    err = capsys.readouterr().err
    assert f"config key 'threshold' must be a number in (0, 1), got {json.dumps(threshold)}\n" in err
    assert not written


def test_synth_output_is_byte_deterministic(tmp_path, rules_file):
    a = _synth(tmp_path, rules_file, "a.jsonl", n=30)
    b = _synth(tmp_path, rules_file, "b.jsonl", n=30)
    assert open(a, "rb").read() == open(b, "rb").read()


# ---- exit codes ----


def test_usage_errors_exit_one(tmp_path, rules_file, capsys):
    assert run([]) == 1
    assert run(["frobnicate"]) == 1
    assert run(["synth", "--rules", rules_file]) == 1  # missing required flags
    data = _synth(tmp_path, rules_file)
    noisy = str(tmp_path / "n.jsonl")
    code = run(["noise", "--in", data, "--out", noisy, "--rho", "0.2", "--mode", "violating",
                "--seed", "1"])
    assert code == 1  # violating mode without --rules
    assert "rule" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_main_exits_with_the_code_that_run_returns(tmp_path, rules_file, capsys, monkeypatch):
    missing = str(tmp_path / "missing.jsonl")
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({"rules": rules_file, "data": missing, "epochs": "6"}))
    for argv, code, err in [
        (["--help"], 0, ""),
        (["frobnicate"], 1, "invalid choice: 'frobnicate'"),
        (["train", "--config", str(config)], 2, "error: epochs must be a number, got '6'\n"),
        (["audit", "--rules", rules_file, "--data", missing], 3, f"No such file or directory: '{missing}'\n"),
    ]:
        monkeypatch.setattr(sys, "argv", ["rulebound", *argv])
        with pytest.raises(SystemExit) as exit_:
            cli.main()
        assert exit_.value.code == code
        assert err in capsys.readouterr().err


def test_validation_errors_exit_two(tmp_path, rules_file, capsys):
    bad_rules = tmp_path / "bad.rules"
    bad_rules.write_text("a & => b\n")
    data = _synth(tmp_path, rules_file)
    assert run(["audit", "--rules", str(bad_rules), "--data", data]) == 2
    assert "line 1" in capsys.readouterr().err

    bad_data = tmp_path / "bad.jsonl"
    bad_data.write_text('{"labels": ["a"]}\n{"x": [0.1], "y": [3]}\n')
    assert run(["audit", "--rules", rules_file, "--data", str(bad_data)]) == 2

    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"epoks": 3}')
    assert run(["train", "--config", str(cfg), "--rules", rules_file, "--data", data]) == 2
    assert "unknown config keys: epoks" in capsys.readouterr().err

    assert run(["train", "--rules", rules_file, "--data", data, "--tau", "0.4",
                "--epochs", "1", "--warmup", "0"]) == 2
    assert run(["eval", "--rules", rules_file, "--data", data, "--model", "nope.json",
                "--threshold", "0.5"]) == 3  # missing model file is a runtime error
    capsys.readouterr()


def test_rule_and_dataset_errors_name_their_file(tmp_path, rules_file, capsys):
    data = _write_plain_dataset(tmp_path / "d.jsonl")
    bad_rules = tmp_path / "r.txt"
    bad_rules.write_text("a => b\nz => c\n")
    assert run(["train", "--rules", str(bad_rules), "--data", data]) == 2
    assert capsys.readouterr().err == f"error: {bad_rules}: line 2, column 1: unknown label 'z'\n"

    bad_data = tmp_path / "bad.jsonl"
    bad_data.write_text('{"labels": ["a", "b", "c"]}\n{"x": [0.1], "y": [0, 1, 0]}\n{"x": [0.2], "y": [3, 0, 0]}\n')
    assert run(["train", "--rules", rules_file, "--data", str(bad_data)]) == 2
    assert capsys.readouterr().err == f"error: {bad_data}: line 3: y entries must be 0 or 1\n"

    # a rule file that fails to parse on its own, as synth reads it
    assert run(["synth", "--rules", str(bad_data), "--out", str(tmp_path / "o.jsonl"), "--n", "4",
                "--dims", "2", "--patterns", "2", "--seed", "0"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad_data}: line 1, column 1: ")


def test_train_settings_are_checked_before_any_file_is_read(tmp_path, rules_file, capsys):
    data = _write_plain_dataset(tmp_path / "plain.jsonl")
    model, adir = tmp_path / "m.json", tmp_path / "adir"
    adir.mkdir()
    before = sorted(p.name for p in tmp_path.iterdir())
    # the setting is named, not the missing dataset
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"rules": rules_file, "data": str(tmp_path / "missing.jsonl"), "epochs": "6"}))
    assert run(["train", "--config", str(cfg_path), "--out-model", str(model)]) == 2
    assert capsys.readouterr().err == "error: epochs must be a number, got '6'\n"
    # nor a rule file that does not parse, nor an output target that is a directory
    bad_rules = tmp_path / "bad.rules"
    bad_rules.write_text("a & => b\n")
    args = ["train", "--rules", str(bad_rules), "--data", data, "--tau", "2", "--out-model", str(model)]
    assert run(args) == 2
    assert capsys.readouterr().err == "error: tau must lie in (0.5, 1)\n"
    assert run(args + ["--out-history", str(adir)]) == 2
    assert capsys.readouterr().err == "error: tau must lie in (0.5, 1)\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before + ["bad.rules", "exp.json"])
    assert not list(adir.iterdir())


def test_runtime_errors_exit_three(tmp_path, rules_file, capsys):
    assert run(["audit", "--rules", rules_file, "--data", str(tmp_path / "missing.jsonl")]) == 3
    impossible = tmp_path / "impossible.rules"
    impossible.write_text("a => FALSE\n!a => FALSE\n")
    out = str(tmp_path / "never.jsonl")
    code = run(["synth", "--rules", str(impossible), "--out", out, "--n", "10", "--dims", "2",
                "--patterns", "2", "--seed", "0"])
    assert code == 3  # synthesis budget exhausted
    capsys.readouterr()


def test_train_into_missing_directory_writes_nothing(tmp_path, rules_file, capsys):
    data = _synth(tmp_path, rules_file)
    missing = tmp_path / "missing"
    code = run(["train", "--rules", rules_file, "--data", data, "--epochs", "1", "--warmup", "0",
                "--out-model", str(missing / "model.json"), "--out-history", str(tmp_path / "h.jsonl")])
    assert code == 3  # the model's directory is missing, which the target check finds before training
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing / 'model.json'}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "rules.txt"]


def test_train_failing_output_writes_none_of_them(tmp_path, rules_file, capsys):
    data = _synth(tmp_path, rules_file)
    model, report = tmp_path / "m.json", tmp_path / "r.json"
    args = ["train", "--rules", rules_file, "--data", data, "--epochs", "1", "--warmup", "0",
            "--out-model", str(model), "--out-history", str(tmp_path / "nodir" / "h.jsonl"),
            "--out-report", str(report)]
    assert run(args) == 3  # the history directory is missing
    assert "nodir/h.jsonl" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "rules.txt"]
    # outputs from an earlier run keep their bytes
    model.write_bytes(b"old model\n")
    report.write_bytes(b"old report\n")
    assert run(args) == 3
    assert model.read_bytes() == b"old model\n" and report.read_bytes() == b"old report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "m.json", "r.json", "rules.txt"]
    capsys.readouterr()


def test_output_that_is_a_directory_fails_before_any_write(tmp_path, rules_file, capsys):
    data = _synth(tmp_path, rules_file)
    model, adir = tmp_path / "m.json", tmp_path / "adir"
    model.write_bytes(b"old model\n")
    adir.mkdir()
    before = sorted(p.name for p in tmp_path.iterdir())
    args = ["train", "--rules", rules_file, "--data", data, "--epochs", "1", "--warmup", "0",
            "--out-model", str(model), "--out-history", str(adir)]
    assert run(args) == 3
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{adir}'\n"
    assert model.read_bytes() == b"old model\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before and not list(adir.iterdir())
    # a single output takes the same path
    assert run(["synth", "--rules", rules_file, "--out", str(adir), "--n", "10", "--dims", "3",
                "--patterns", "4", "--seed", "5"]) == 3
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{adir}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_output_named_twice_fails_before_any_write(tmp_path, rules_file, capsys, monkeypatch):
    data = _synth(tmp_path, rules_file)
    monkeypatch.chdir(tmp_path)
    same = tmp_path / "same.json"
    same.write_bytes(b"old bytes\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    code = run(["train", "--rules", rules_file, "--data", data, "--epochs", "1", "--warmup", "0",
                "--out-model", "same.json", "--out-history", "./same.json"])
    assert code == 2
    assert capsys.readouterr().err == "error: ./same.json is named as more than one output\n"
    assert same.read_bytes() == b"old bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.filterwarnings("error")  # an overflow warning would exit 3
@pytest.mark.parametrize("rules", ["A => B @ 1e307\n", "A => B @ 1e308\nC => D @ 1e308\n"])
def test_weights_past_the_float_range_exit_two(tmp_path, capsys, rules):
    rule_file = tmp_path / "heavy.txt"
    rule_file.write_text(rules)
    data = str(tmp_path / "data.jsonl")
    assert run(["synth", "--rules", str(rule_file), "--out", data, "--n", "40", "--dims", "3",
                "--patterns", "3", "--seed", "5"]) == 0
    history = tmp_path / "history.jsonl"
    assert run(["train", "--rules", str(rule_file), "--data", data, "--batch", "32", "--epochs", "2",
                "--warmup", "0", "--out-history", str(history)]) == 2
    assert capsys.readouterr() == ("", "error: rule weights too large: their total times 32 rows "
                                       "passes the float range\n")
    assert not history.exists()


def test_eval_names_the_label_counts_of_a_mismatched_checkpoint(tmp_path, rules_file, capsys):
    model = tmp_path / "m.json"
    assert run(["train", "--rules", rules_file, "--data", _synth(tmp_path, rules_file),
                "--epochs", "1", "--warmup", "0", "--out-model", str(model)]) == 0
    wider = tmp_path / "wider.txt"
    wider.write_text(RULES + "d => c\n")
    data = _synth(tmp_path, str(wider), "wider.jsonl")
    assert run(["eval", "--rules", str(wider), "--data", data, "--model", str(model)]) == 2
    assert capsys.readouterr().err == "error: the checkpoint predicts 3 labels and the dataset has 4\n"


def test_train_checks_its_output_targets_before_any_work(tmp_path, rules_file, capsys, monkeypatch):
    data = _write_plain_dataset(tmp_path / "plain.jsonl")
    adir = tmp_path / "adir"
    adir.mkdir()
    started = []
    monkeypatch.setattr("rulebound.cli.train", lambda *args: started.append(args))
    args = ["train", "--rules", rules_file, "--data", data, "--epochs", "1", "--warmup", "0"]
    assert run(args + ["--out-history", str(adir)]) == 3
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{adir}'\n"
    monkeypatch.chdir(tmp_path)
    assert run(args + ["--out-model", "m.json", "--out-report", "./m.json"]) == 2
    assert capsys.readouterr().err == "error: ./m.json is named as more than one output\n"
    assert started == [] and not (tmp_path / "m.json").exists()


@pytest.fixture
def chain_dir(tmp_path, rules_file, monkeypatch):
    """The working directory after synth, noise and train: every file a command reads."""
    monkeypatch.chdir(tmp_path)
    _synth(tmp_path, rules_file, "clean.jsonl", n=30)
    assert run(["noise", "--in", "clean.jsonl", "--out", "noisy.jsonl", "--rho", "0.2", "--mode", "uniform",
                "--seed", "1"]) == 0
    (tmp_path / "cfg.json").write_text(json.dumps({"rules": "rules.txt", "data": "noisy.jsonl", "epochs": 1,
                                                   "warmup_epochs": 0}))
    assert run(["train", "--config", "cfg.json", "--out-model", "m.json"]) == 0
    return tmp_path


_SYNTH = ["--n", "20", "--dims", "3", "--patterns", "4", "--seed", "5"]
_NOISE = ["--rho", "0.2", "--seed", "1"]


@pytest.mark.parametrize("argv, target", [
    (["synth", "--rules", "rules.txt", "--out", "./rules.txt", *_SYNTH], "./rules.txt"),
    (["noise", "--in", "clean.jsonl", "--out", "clean.jsonl", "--mode", "uniform", *_NOISE], "clean.jsonl"),
    (["noise", "--in", "clean.jsonl", "--out", "rules.txt", "--mode", "violating", "--rules", "rules.txt",
      *_NOISE], "rules.txt"),
    (["train", "--rules", "rules.txt", "--data", "noisy.jsonl", "--out-model", "noisy.jsonl"], "noisy.jsonl"),
    (["train", "--config", "cfg.json", "--out-history", "cfg.json"], "cfg.json"),
    (["train", "--config", "cfg.json", "--out-report", "rules.txt"], "rules.txt"),  # a config setting
    (["eval", "--rules", "rules.txt", "--data", "noisy.jsonl", "--model", "m.json", "--out-report", "m.json"],
     "m.json"),
    (["eval", "--rules", "rules.txt", "--data", "noisy.jsonl", "--model", "m.json", "--out-report",
      "noisy.jsonl"], "noisy.jsonl"),
    (["eval", "--rules", "rules.txt", "--data", "noisy.jsonl", "--model", "m.json", "--out-report",
      "rules.txt"], "rules.txt"),
])
def test_output_that_names_an_input_fails_before_any_read(chain_dir, capsys, argv, target):
    before = {path.name: path.read_bytes() for path in chain_dir.iterdir()}
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {target} is named as both an input and an output\n")
    assert {path.name: path.read_bytes() for path in chain_dir.iterdir()} == before


def _tree(directory):
    """Each file's bytes, and each symlink's target, by name."""
    return {p.name: os.readlink(p) if p.is_symlink() else p.read_bytes() for p in directory.iterdir()}


@pytest.fixture
def linked_dir(chain_dir):
    """chain_dir plus `d`, a symlink to chain_dir itself, and `s.jsonl`, one to noisy.jsonl."""
    (chain_dir / "d").symlink_to(".")
    (chain_dir / "s.jsonl").symlink_to("noisy.jsonl")
    return chain_dir


_TRAIN = ["train", "--rules", "rules.txt", "--epochs", "1", "--warmup", "0"]


@pytest.mark.parametrize("argv, message", [
    (_TRAIN + ["--data", "noisy.jsonl", "--out-model", "d/noisy.jsonl"],
     "d/noisy.jsonl is named as both an input and an output"),
    (_TRAIN + ["--data", "d/noisy.jsonl", "--out-model", "noisy.jsonl"],
     "noisy.jsonl is named as both an input and an output"),
    (_TRAIN + ["--data", "s.jsonl", "--out-model", "noisy.jsonl"],
     "noisy.jsonl is named as both an input and an output"),
    (_TRAIN + ["--data", "noisy.jsonl", "--out-model", "m.json", "--out-report", "d/m.json"],
     "d/m.json is named as more than one output"),
    (["synth", "--rules", "rules.txt", "--out", "d/rules.txt", *_SYNTH],
     "d/rules.txt is named as both an input and an output"),
], ids=["target-through-link", "input-through-link", "input-is-link", "twice-through-link", "synth"])
def test_targets_are_compared_where_they_land_through_symlinks(linked_dir, capsys, argv, message):
    before = _tree(linked_dir)
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert _tree(linked_dir) == before


def test_target_that_is_a_symlink_to_an_input_replaces_the_link(linked_dir, capsys):
    before = _tree(linked_dir)
    assert run(_TRAIN + ["--data", "noisy.jsonl", "--out-model", "s.jsonl"]) == 0
    assert capsys.readouterr() == ("", "")
    after = _tree(linked_dir)
    assert not (linked_dir / "s.jsonl").is_symlink()
    load_model(linked_dir / "s.jsonl")
    del before["s.jsonl"], after["s.jsonl"]
    assert after == before


@pytest.mark.parametrize("argv", [
    ["synth", "--rules", "missing.txt", "--out", "adir", *_SYNTH],
    ["noise", "--in", "missing.jsonl", "--out", "adir", "--mode", "uniform", *_NOISE],
    ["eval", "--rules", "rules.txt", "--data", "noisy.jsonl", "--model", "missing.json", "--out-report", "adir"],
])
def test_every_command_checks_its_output_target_before_any_read(chain_dir, capsys, argv):
    (chain_dir / "adir").mkdir()
    assert run(argv) == 3  # a missing input would exit 3 too, naming itself
    assert capsys.readouterr() == ("", "error: [Errno 21] Is a directory: 'adir'\n")
    assert not list((chain_dir / "adir").iterdir())


# each command with its one target under the directory put in for {}
_TARGET_UNDER = [
    ["train", "--rules", "rules.txt", "--data", "noisy.jsonl", "--epochs", "200", "--out-model", "m.json",
     "--out-history", "{}/out.json"],
    ["synth", "--rules", "rules.txt", "--out", "{}/out.json", *_SYNTH],
    ["noise", "--in", "clean.jsonl", "--out", "{}/out.json", "--mode", "uniform", *_NOISE],
    ["eval", "--rules", "rules.txt", "--data", "noisy.jsonl", "--model", "m.json", "--out-report",
     "{}/out.json"],
]


def _fails_before_any_work(chain_dir, capsys, monkeypatch, argv, message):
    def work(*args):
        pytest.fail("a command read its input before checking its targets")

    for name in ("load_dataset", "load_model", "synthesize"):
        monkeypatch.setattr(f"rulebound.cli.{name}", work)
    before = _tree(chain_dir)
    assert run(argv) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert _tree(chain_dir) == before


@pytest.mark.parametrize("argv", _TARGET_UNDER, ids=["train", "synth", "noise", "eval"])
def test_target_in_a_missing_directory_fails_before_any_work(chain_dir, capsys, monkeypatch, argv):
    argv = [arg.format("nodir") for arg in argv]
    message = "[Errno 2] No such file or directory: 'nodir/out.json'"
    _fails_before_any_work(chain_dir, capsys, monkeypatch, argv, message)


# a target under the rule file, or under a directory below it, which a write would find at its end
@pytest.mark.parametrize("parent", ["rules.txt", "rules.txt/sub"])
@pytest.mark.parametrize("argv", _TARGET_UNDER, ids=["train", "synth", "noise", "eval"])
def test_target_under_a_regular_file_fails_before_any_work(chain_dir, capsys, monkeypatch, argv, parent):
    argv = [arg.format(parent) for arg in argv]
    message = f"[Errno 20] Not a directory: '{parent}/out.json'"
    _fails_before_any_work(chain_dir, capsys, monkeypatch, argv, message)


def test_eval_names_the_feature_counts_of_a_mismatched_checkpoint(tmp_path, rules_file, capsys):
    model = tmp_path / "m.json"
    assert run(["train", "--rules", rules_file, "--data", _synth(tmp_path, rules_file),
                "--epochs", "1", "--warmup", "0", "--out-model", str(model)]) == 0
    wide = tmp_path / "wide.jsonl"
    assert run(["synth", "--rules", rules_file, "--out", str(wide), "--n", "20", "--dims", "5",
                "--patterns", "3", "--seed", "2"]) == 0
    assert run(["eval", "--rules", rules_file, "--data", str(wide), "--model", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the checkpoint reads 3 features and the dataset has 5\n"


_ECHO_KEYS = ", ".join(["learning_rate", "epochs", "batch_size", "lambda", "warmup_epochs", "tau",
                        "hidden_units", "seed", "correction_mode"])


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(seed=-1), "seed must be an integer in [0, 2**64), got -1"),
    (lambda doc: doc.update(seed="7"), 'seed must be an integer in [0, 2**64), got "7"'),
    (lambda doc: doc.update(seed=2**64), "seed must be an integer in [0, 2**64), got 18446744073709551616"),
    (lambda doc: doc["config"].update(epochs="x"), "config echo: epochs must be a number, got 'x'"),
    (lambda doc: doc["config"].update(seed="7"), "config echo: seed must be a number, got '7'"),
    (lambda doc: doc["config"].update(tau="0.9"), "config echo: tau must be a number, got '0.9'"),
    (lambda doc: doc["config"].update(tau=2), "config echo: tau must lie in (0.5, 1)"),
    (lambda doc: doc["config"].update(learning_rate=10**400), "config echo: learning_rate must be finite, got inf"),
    (lambda doc: doc["config"].pop("tau"), f"config echo must be an object with the keys {_ECHO_KEYS}"),
    (lambda doc: doc["config"].update(extra=1), f"config echo must be an object with the keys {_ECHO_KEYS}"),
    (lambda doc: doc.update(config=[]), f"config echo must be an object with the keys {_ECHO_KEYS}"),
], ids=["negative-seed", "string-seed", "seed-past-64-bits", "string-epochs", "echo-string-seed",
        "echo-string-tau", "tau-out-of-range", "echo-integer-past-the-float-range",
        "missing-key", "extra-key", "config-not-an-object"])
def test_eval_rejects_checkpoint_with_bad_seed_or_config_echo(tmp_path, rules_file, capsys, edit, message):
    data = _write_plain_dataset(tmp_path / "plain.jsonl")
    model = tmp_path / "m.json"
    assert run(["train", "--rules", rules_file, "--data", data, "--epochs", "1", "--warmup", "0",
                "--hidden", "2", "--out-model", str(model)]) == 0
    doc = json.loads(model.read_text())
    edit(doc)
    model.write_text(json.dumps(doc))
    assert run(["eval", "--rules", rules_file, "--data", data, "--model", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {model}: malformed checkpoint: {message}\n"


@pytest.mark.parametrize("edit, message", [
    (lambda dims: dims.update(n_features="2"), 'dims key \'n_features\' must be a non-negative integer, got "2"'),
    (lambda dims: dims.update(n_hidden=2.0), "dims key 'n_hidden' must be a non-negative integer, got 2.0"),
    (lambda dims: dims.update(n_hidden=-1), "dims key 'n_hidden' must be a non-negative integer, got -1"),
    (lambda dims: dims.update(n_labels=True), "dims key 'n_labels' must be a non-negative integer, got true"),
    (lambda dims: dims.pop("n_labels"), "'n_labels'"),
], ids=["string", "float", "negative", "bool", "missing"])
def test_eval_rejects_checkpoint_dims_that_are_not_integers(tmp_path, rules_file, capsys, edit, message):
    data = _write_plain_dataset(tmp_path / "plain.jsonl")
    model = tmp_path / "m.json"
    assert run(["train", "--rules", rules_file, "--data", data, "--epochs", "1", "--warmup", "0",
                "--hidden", "2", "--out-model", str(model)]) == 0
    doc = json.loads(model.read_text())
    edit(doc["dims"])
    model.write_text(json.dumps(doc))
    assert run(["eval", "--rules", rules_file, "--data", data, "--model", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {model}: malformed checkpoint: {message}\n"


def test_synth_and_noise_name_a_negative_seed(tmp_path, rules_file, capsys):
    out = tmp_path / "out.jsonl"
    assert run(["synth", "--rules", rules_file, "--out", str(out), "--n", "10", "--dims", "2",
                "--patterns", "2", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
    data = _synth(tmp_path, rules_file)
    for mode in ("uniform", "violating"):
        assert run(["noise", "--in", data, "--out", str(out), "--rho", "0.5", "--mode", mode,
                    "--seed", "-1", "--rules", rules_file]) == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
    assert not out.exists()


def test_rule_file_that_is_not_utf8_names_itself(tmp_path, rules_file, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"MUTEX(a, b)\na => \xff c\n")
    out = tmp_path / "out.jsonl"
    assert run(["synth", "--rules", str(bad), "--out", str(out), "--n", "10", "--dims", "2",
                "--patterns", "2", "--seed", "1"]) == 2
    assert capsys.readouterr().err == f"error: {bad}: line 2: not UTF-8 text\n"
    assert not out.exists()
    assert run(["audit", "--rules", str(bad), "--data", _synth(tmp_path, rules_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: line 2: not UTF-8 text\n"


def test_dataset_that_is_not_utf8_names_itself(tmp_path, rules_file, capsys):
    bad = tmp_path / "bad.jsonl"
    lines = _synth(tmp_path, rules_file, "good.jsonl", n=5)
    text = open(lines, "rb").read().split(b"\n")
    text[3] = text[3].replace(b"]", b"\xff]", 1)
    bad.write_bytes(b"\n".join(text))
    out = tmp_path / "out.jsonl"
    assert run(["noise", "--in", str(bad), "--out", str(out), "--rho", "0.5", "--mode", "uniform",
                "--seed", "1"]) == 2
    assert capsys.readouterr().err == f"error: {bad}: line 4: not UTF-8 text\n"
    assert not out.exists()
    assert run(["audit", "--rules", rules_file, "--data", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: line 4: not UTF-8 text\n"


def test_config_and_checkpoint_that_are_not_utf8_name_themselves(tmp_path, rules_file, capsys):
    data = _write_plain_dataset(tmp_path / "plain.jsonl")
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{\n"epochs": 1,\n"seed": "\xe9"}\n')
    model = tmp_path / "m.json"
    assert run(["train", "--config", str(bad), "--rules", rules_file, "--data", data,
                "--out-model", str(model)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: line 3: not UTF-8 text\n"
    assert not model.exists()
    assert run(["eval", "--rules", rules_file, "--data", data, "--model", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: line 3: not UTF-8 text\n"
