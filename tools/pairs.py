"""Paired benchmark runs of this checkout against a git revision.

    python tools/pairs.py --against REV --workload NAME --pairs N --seconds S [--first-seed K]

Builds two trees in a temporary directory: one with REV's `src/`, exported
with `git archive` as `tools/identity.py` does, and one with this checkout's
working-tree `src/`. Both get this checkout's `perfbench/` and
`tests/oracles.py`, so the same benchmark runs on both. Pair k runs
`perfbench/run.py --workload NAME --seed k --seconds S --trace 0` on each
tree, for k = K..K+N-1 (K is 1 unless given), REV first when k is odd and the
change first when it is even. A claim can so be checked again on seeds that
were not used while the change was written.

Per end-to-end metric of `BENCHMARK.json` it prints REV's median, the
change's, their ratio (change over REV), each side's interquartile range,
and the pairs the change won: the ones where its value is better, in the
metric's direction, than REV's in the same pair. Exits 1 when a run fails,
reads incorrect or has a failed operation, and 2 when REV cannot be
exported. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from identity import ROOT, WORKLOADS, export

SIDES = ("rev", "change")


def _tree(dest: Path, rev: str | None) -> None:
    """A tree at `dest` with REV's `src/` (the working tree's when `rev` is
    None) and this checkout's benchmark."""
    dest.mkdir(parents=True)
    if rev is None:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    else:
        export(rev, dest)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    (dest / "tests").mkdir()
    shutil.copy2(ROOT / "tests" / "oracles.py", dest / "tests" / "oracles.py")


def _run(tree: Path, workload: str, seed: int, seconds: float) -> str:
    """The last stdout line of one benchmark run, its result JSON, or a line
    that names how the run failed."""
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=tree, capture_output=True, text=True, check=False
    )
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        error = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return f"exit code {proc.returncode}: {error}"
    return lines[-1]


def _result(line: str) -> tuple[dict, str]:
    """(metric values, error) of a run's last line; the error is '' for a
    correct run with no failed operation."""
    try:
        result = json.loads(line)
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        return {}, line
    if result.get("correct") is not True or result.get("failed") != 0:
        return values, f"correct {result.get('correct')}, {result.get('failed')} failed operations"
    return values, ""


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: list[tuple[str, str]], metrics: list[dict], first_seed: int = 1) -> tuple[list[str], int]:
    """The report lines and the exit code for `pairs`, each the (REV, change)
    last lines of one pair's runs, the first at seed `first_seed`, over
    `metrics`, the `end_to_end` entries of BENCHMARK.json. Only the pairs
    whose two runs are both correct count toward the medians and the wins; a
    tie is no win."""
    lines, good = [], []
    for seed, pair in enumerate(pairs, start=first_seed):
        (rev, rev_error), (change, change_error) = map(_result, pair)
        for side, error in zip(SIDES, (rev_error, change_error)):
            if error:
                lines.append(f"# FAILED pair {seed} {side}: {error}")
        if not (rev_error or change_error):
            good.append((rev, change))
    lines.append(f"{'metric':<22} {'rev median':>12} {'change median':>14} {'ratio':>7} "
                 f"{'rev IQR':>10} {'change IQR':>11} {'wins':>6}")
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        both = [(r[name], c[name]) for r, c in good if name in r and name in c]
        if not both:
            continue
        rev, change = map(list, zip(*both))
        wins = sum((c > r) if higher else (c < r) for r, c in both)
        a, b = statistics.median(rev), statistics.median(change)
        ratio = f"{b / a:.3f}" if a else "-"
        lines.append(f"{name:<22} {a:>12.6g} {b:>14.6g} {ratio:>7} {_iqr(rev):>10.6g} {_iqr(change):>11.6g} "
                     f"{f'{wins}/{len(both)}':>6}")
    failed = len(pairs) - len(good)
    lines.append(f"pairs: {len(pairs)} run, {failed} with a failed run")
    return lines, 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV", help="git revision to compare with")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--pairs", required=True, type=int, metavar="N")
    parser.add_argument("--seconds", required=True, type=float, metavar="S", help="seconds per run")
    parser.add_argument("--first-seed", type=int, default=1, metavar="K", help="seed of the first pair (default 1)")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    pairs = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        try:
            _tree(trees["rev"], args.against)
        except subprocess.CalledProcessError as err:
            print(f"error: cannot export {args.against}: {err.stderr.decode(errors='replace').strip()}",
                  file=sys.stderr)
            return 2
        _tree(trees["change"], None)
        for seed in range(args.first_seed, args.first_seed + args.pairs):
            order = SIDES if seed % 2 else SIDES[::-1]
            out = {side: _run(trees[side], args.workload, seed, args.seconds) for side in order}
            pairs.append((out["rev"], out["change"]))
            print(f"# pair {seed}: {' then '.join(order)}", file=sys.stderr, flush=True)
    lines, code = summarize(pairs, metrics, args.first_seed)
    seeds = f"seeds {args.first_seed}..{args.first_seed + args.pairs - 1}"
    print(f"# {args.workload}, {args.pairs} pairs of {args.seconds:g} s runs against {args.against}, {seeds}")
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
