"""Command line: synthesize, corrupt, audit, train, evaluate.

Exit codes: 0 success, 1 usage error, 2 input validation error (rule files,
datasets, configs, hyperparameter values), 3 runtime failure. Given identical
arguments and inputs, every subcommand writes byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .data import NOISE_MODES, audit, inject_noise, load_dataset, save_dataset, synthesize
from .metrics import correction_report
from .model import TrainConfig, load_model, save_model
from .rules import RuleError, parse_rules
from .supervision import CORRECTION_MODES
from .training import evaluate, train


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


# config keys of the TrainConfig fields, in field order; each is also its flag's dest
_TRAIN_KEYS = tuple(TrainConfig().as_dict())
_OUTPUT_KEYS = ("out_model", "out_history", "out_report")
_PATH_KEYS = ("rules", "data") + _OUTPUT_KEYS
_CONFIG_KEYS = _TRAIN_KEYS + _PATH_KEYS + ("threshold",)


def number(text: str) -> int | float:
    """An integer-valued train flag, read as a JSON number would be, so that
    `TrainConfig` checks it like a config value: `--epochs 2.7` exits 2."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _load_config(path) -> dict:
    try:
        doc = json.loads(jsonio.read_text(path))
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: invalid JSON: {err.msg}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(doc) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    for key in _PATH_KEYS:  # null leaves a path unset, as a missing key does
        value = doc.get(key)
        if value is not None and not isinstance(value, str):
            raise ValueError(f"{path}: config key '{key}' must be a path string, got {json.dumps(value)}")
    if "threshold" in doc:
        threshold = doc["threshold"]
        if isinstance(threshold, bool) or not isinstance(threshold, (int, float)) or not 0 < threshold < 1:
            raise ValueError(
                f"{path}: config key 'threshold' must be a number in (0, 1), got {json.dumps(threshold)}"
            )
    return doc


def _load_rules(path, vocab=None):
    """`parse_rules` of the rule file at `path`, whose errors name the file."""
    try:
        return parse_rules(jsonio.read_text(path), vocab)
    except RuleError as err:
        raise RuleError(f"{path}: {err}") from None


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
    jsonio.check_targets(args.out, inputs=[args.rules])
    rs = _load_rules(args.rules)
    ds = synthesize(args.seed, args.n, args.dims, rs, args.patterns)
    save_dataset(ds, args.out)
    return 0


def cmd_noise(args) -> int:
    if args.mode == "violating" and not args.rules:
        raise UsageError("--mode violating requires --rules")
    jsonio.check_targets(args.out, inputs=[args.in_path, args.rules])
    ds = load_dataset(args.in_path)
    rs = _load_rules(args.rules, ds.names) if args.rules else None
    save_dataset(inject_noise(ds, args.rho, args.seed, args.mode, rs), args.out)
    return 0


def cmd_audit(args) -> int:
    ds = load_dataset(args.data)
    rs = _load_rules(args.rules, ds.names)
    report = audit(ds, rs)
    print(jsonio.dumps(report) if args.json else report.to_text())
    return 0


def cmd_train(args) -> int:
    settings = _load_config(args.config) if args.config else {}
    # a flag beats its config key; a key set by neither keeps the TrainConfig default
    flags = vars(args).items()
    settings.update((key, value) for key, value in flags if key in _CONFIG_KEYS and value is not None)
    if not settings.get("rules"):
        raise UsageError("train needs a rule file (--rules or config key 'rules')")
    if not settings.get("data"):
        raise UsageError("train needs a dataset (--data or config key 'data')")
    cfg = TrainConfig.from_dict(settings)
    inputs = [settings["rules"], settings["data"], args.config]
    jsonio.check_targets(*(settings.get(key) for key in _OUTPUT_KEYS), inputs=inputs)
    ds = load_dataset(settings["data"])
    rs = _load_rules(settings["rules"], ds.names)
    params, history, state = train(ds, rs, cfg)
    if settings.get("out_report"):
        report = evaluate(params, ds, rs, settings.get("threshold", 0.5))
        if ds.clean_Y is not None:
            report.correction = correction_report(state, ds)
    writes = [
        ("out_model", lambda tmp: save_model(params, tmp, cfg.seed, cfg)),
        ("out_history", history.write_jsonl),
        ("out_report", lambda tmp: jsonio.dump(report, tmp)),
    ]
    writes = [(settings[key], write) for key, write in writes if settings.get(key)]
    # every output is written in full before any of them replaces its target
    with jsonio.atomic_paths(*(path for path, _ in writes)) as tmps:
        for tmp, (_, write) in zip(tmps, writes):
            write(tmp)
    return 0


def cmd_eval(args) -> int:
    jsonio.check_targets(args.out_report, inputs=[args.rules, args.data, args.model])
    params, _, _ = load_model(args.model)
    ds = load_dataset(args.data)
    rs = _load_rules(args.rules, ds.names)
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
