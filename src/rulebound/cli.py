"""Command line: synthesize, corrupt, audit, train, evaluate.

Exit codes: 0 success, 1 usage error, 2 input validation error (rule files,
datasets, configs, hyperparameter values), 3 runtime failure. Given identical
arguments and inputs, every subcommand writes byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from . import jsonio
from .data import NOISE_MODES, audit, inject_noise, load_dataset, save_dataset, synthesize
from .metrics import correction_report
from .model import TrainConfig, load_model, save_model
from .rules import parse_rules
from .supervision import CORRECTION_MODES
from .training import evaluate, train


class UsageError(Exception):
    pass


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


# config keys of the TrainConfig fields, in field order; each is also its flag's dest
_TRAIN_KEYS = tuple(TrainConfig().as_dict())
_PATH_KEYS = ("rules", "data", "out_model", "out_history", "out_report")
_CONFIG_KEYS = _TRAIN_KEYS + _PATH_KEYS + ("threshold",)


def number(text: str) -> int | float:
    """An integer-valued train flag, read as a JSON number would be, so that
    `TrainConfig` checks it like a config value: `--epochs 2.7` exits 2."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _read_text(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON: {err.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = sorted(set(doc) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
    for key in _PATH_KEYS:  # null leaves a path unset, as a missing key does
        value = doc.get(key)
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"{path}: config key '{key}' must be a path string, got {json.dumps(value)}")
    if "threshold" in doc:
        threshold = doc["threshold"]
        if isinstance(threshold, bool) or not isinstance(threshold, (int, float)) or not 0 < threshold < 1:
            raise ConfigError(
                f"{path}: config key 'threshold' must be a number in (0, 1), got {json.dumps(threshold)}"
            )
    return doc


def build_parser() -> _Parser:
    parser = _Parser(prog="rulebound", description="Rule-constrained multi-label training.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("synth", help="generate a rule-consistent synthetic dataset")
    p.add_argument("--rules", required=True, help="rule file")
    p.add_argument("--out", required=True, help="output dataset (JSONL)")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--dims", type=int, required=True, help="feature dimensions")
    p.add_argument("--patterns", type=int, required=True, help="distinct label patterns")
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("noise", help="flip label bits and record the flips")
    p.add_argument("--in", dest="in_path", required=True, help="input dataset")
    p.add_argument("--out", required=True, help="output dataset")
    p.add_argument("--rho", type=float, required=True, help="noise rate")
    p.add_argument("--mode", choices=NOISE_MODES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rules", help="rule file (required for violating mode)")

    p = sub.add_parser("audit", help="count hard rule violations in a dataset")
    p.add_argument("--rules", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--json", action="store_true", help="emit the full JSON report")

    p = sub.add_parser("train", help="train a classifier under the rule-aware schedule")
    p.add_argument("--rules")
    p.add_argument("--data")
    p.add_argument("--config", help="experiment config (JSON); flags override its values")
    p.add_argument("--lambda", dest="lambda", metavar="LAMBDA_", type=float)
    p.add_argument("--epochs", type=number)
    p.add_argument("--warmup", dest="warmup_epochs", metavar="WARMUP", type=number)
    p.add_argument("--tau", type=float)
    p.add_argument("--lr", dest="learning_rate", metavar="LR", type=float)
    p.add_argument("--batch", dest="batch_size", metavar="BATCH", type=number)
    p.add_argument("--hidden", dest="hidden_units", metavar="HIDDEN", type=number)
    p.add_argument("--seed", type=number)
    p.add_argument("--mode", dest="correction_mode", choices=CORRECTION_MODES)
    p.add_argument("--out-model")
    p.add_argument("--out-history")
    p.add_argument("--out-report")

    p = sub.add_parser("eval", help="score a saved model against a dataset")
    p.add_argument("--rules", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out-report", help="report path (default: print to stdout)")
    return parser


def cmd_synth(args) -> int:
    rs = parse_rules(_read_text(args.rules))
    ds = synthesize(args.seed, args.n, args.dims, rs, args.patterns)
    save_dataset(ds, args.out)
    return 0


def cmd_noise(args) -> int:
    if args.mode == "violating" and not args.rules:
        raise UsageError("--mode violating requires --rules")
    ds = load_dataset(args.in_path)
    rs = parse_rules(_read_text(args.rules), ds.names) if args.rules else None
    save_dataset(inject_noise(ds, args.rho, args.seed, args.mode, rs), args.out)
    return 0


def cmd_audit(args) -> int:
    ds = load_dataset(args.data)
    rs = parse_rules(_read_text(args.rules), ds.names)
    report = audit(ds, rs)
    print(jsonio.dumps(report) if args.json else report.to_text())
    return 0


def cmd_train(args) -> int:
    doc = _load_config(args.config) if args.config else {}

    def pick(flag_value, key, default=None):
        return flag_value if flag_value is not None else doc.get(key, default)

    rules_path = pick(args.rules, "rules")
    data_path = pick(args.data, "data")
    if not rules_path:
        raise UsageError("train needs a rule file (--rules or config key 'rules')")
    if not data_path:
        raise UsageError("train needs a dataset (--data or config key 'data')")
    ds = load_dataset(data_path)
    rs = parse_rules(_read_text(rules_path), ds.names)
    # a flag beats its config key; a key set by neither keeps the TrainConfig default
    cfg = TrainConfig(**{
        f.name: pick(getattr(args, key), key)
        for f, key in zip(fields(TrainConfig), _TRAIN_KEYS)
        if getattr(args, key) is not None or key in doc
    })
    params, history, state = train(ds, rs, cfg)
    out_report = pick(args.out_report, "out_report")
    if out_report:
        report = evaluate(params, ds, rs, doc.get("threshold", 0.5))
        if ds.clean_Y is not None:
            report.correction = correction_report(state, ds)
    writes = [
        (pick(args.out_model, "out_model"), lambda tmp: save_model(params, tmp, cfg.seed, cfg)),
        (pick(args.out_history, "out_history"), history.write_jsonl),
        (out_report, lambda tmp: jsonio.dump(report, tmp)),
    ]
    writes = [(path, write) for path, write in writes if path]
    # every output is written in full before any of them replaces its target
    with jsonio.atomic_paths(*(path for path, _ in writes)) as tmps:
        for tmp, (_, write) in zip(tmps, writes):
            write(tmp)
    return 0


def cmd_eval(args) -> int:
    params, _, _ = load_model(args.model)
    ds = load_dataset(args.data)
    rs = parse_rules(_read_text(args.rules), ds.names)
    report = evaluate(params, ds, rs, args.threshold)
    if args.out_report:
        jsonio.dump(report, args.out_report)
    else:
        print(jsonio.dumps(report))
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "noise": cmd_noise,
    "audit": cmd_audit,
    "train": cmd_train,
    "eval": cmd_eval,
}


def run(argv=None) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(err, file=sys.stderr)
        return 1
    except SystemExit as err:  # --help
        return int(err.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001  runtime failures map to exit 3
        print(f"error: {err}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
