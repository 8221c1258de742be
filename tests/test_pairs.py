"""The paired-run tool's summary (`tools/pairs.py`) on canned result lines of
`perfbench/run.py`: medians, ratios, interquartile ranges, win counts and the
exit code; and, with its runs stubbed, the seeds and the side order of its
pairs."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import pairs  # noqa: E402

METRICS = [
    {"name": "audit_rows_per_s", "unit": "rows/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
]


def _line(audit, rss, correct=True, failed=0):
    metrics = {"audit_rows_per_s": {"value": audit, "unit": "rows/s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return json.dumps({"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics})


def _row(lines, name):
    return next(line.split() for line in lines if line.split()[0] == name)


GOOD = [
    (_line(50000.0, 90.0), _line(90000.0, 86.0)),
    (_line(52000.0, 91.0), _line(88000.0, 92.0)),
    (_line(54000.0, 89.0), _line(91000.0, 89.0)),  # a tie in peak_rss_mb is no win
    (_line(56000.0, 90.0), _line(50000.0, 86.0)),
]


def test_summary_gives_medians_ratios_quartile_ranges_and_wins():
    lines, code = pairs.summarize(GOOD, METRICS)
    assert code == 0
    # medians 53000 and 89000; quartiles 51500, 54500 and 78500, 90250 (inclusive method)
    assert _row(lines, "audit_rows_per_s") == ["audit_rows_per_s", "53000", "89000", "1.679", "3000", "11750", "3/4"]
    # lower is better: medians 90 and 87.5, quartiles 89.75, 90.25 and 86, 89.75
    assert _row(lines, "peak_rss_mb") == ["peak_rss_mb", "90", "87.5", "0.972", "0.5", "3.75", "2/4"]
    assert lines[-1] == "pairs: 4 run, 0 with a failed run"
    assert not any(line.startswith("# FAILED") for line in lines)


def test_summary_of_one_pair_has_no_quartile_range():
    lines, code = pairs.summarize(GOOD[:1], METRICS)
    assert code == 0
    assert _row(lines, "audit_rows_per_s") == ["audit_rows_per_s", "50000", "90000", "1.800", "0", "0", "1/1"]


def test_a_failed_or_incorrect_run_exits_one_and_leaves_its_pair_out():
    bad = [
        (_line(1.0, 1.0, correct=False, failed=1), GOOD[0][1]),
        (GOOD[1][0], _line(1.0, 1.0, failed=2)),
        ("exit code 3: error: set-up failed", GOOD[2][1]),
        (GOOD[3][0], "{not json"),
    ]
    lines, code = pairs.summarize(GOOD[:2] + bad, METRICS)
    assert code == 1
    assert [line for line in lines if line.startswith("# FAILED")] == [
        "# FAILED pair 3 rev: correct False, 1 failed operations",
        "# FAILED pair 4 change: correct True, 2 failed operations",
        "# FAILED pair 5 rev: exit code 3: error: set-up failed",
        "# FAILED pair 6 change: {not json",
    ]
    # the two good pairs alone
    assert _row(lines, "audit_rows_per_s")[1:3] == ["51000", "89000"]
    assert lines[-1] == "pairs: 6 run, 4 with a failed run"
    # every pair failed: no metric row, still exit 1
    lines, code = pairs.summarize(bad, METRICS)
    assert code == 1 and not any(line.startswith("audit_rows_per_s") for line in lines)


def test_first_seed_sets_the_seeds_and_odd_seeds_run_rev_first(monkeypatch, capsys):
    runs = []

    def run(tree, workload, seed, seconds):
        runs.append((tree.name, seed))
        if (tree.name, seed) == ("change", 13):
            return "exit code 1: boom"
        return _line(50000.0, 90.0) if tree.name == "rev" else _line(60000.0, 90.0)

    monkeypatch.setattr(pairs, "_tree", lambda dest, rev: None)
    monkeypatch.setattr(pairs, "_run", run)
    argv = ["--against", "HEAD", "--workload", "data-pipeline", "--pairs", "3", "--seconds", "1", "--first-seed", "11"]
    assert pairs.main(argv) == 1
    assert runs == [("rev", 11), ("change", 11), ("change", 12), ("rev", 12), ("rev", 13), ("change", 13)]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# data-pipeline, 3 pairs of 1 s runs against HEAD, seeds 11..13"
    # a failed run is named by its pair's seed
    assert lines[1] == "# FAILED pair 13 change: exit code 1: boom"
    assert _row(lines, "audit_rows_per_s")[1:] == ["50000", "60000", "1.200", "0", "0", "2/2"]


def test_seeds_start_at_one_by_default(monkeypatch):
    seeds = []
    monkeypatch.setattr(pairs, "_tree", lambda dest, rev: None)
    monkeypatch.setattr(pairs, "_run", lambda tree, workload, seed, seconds: seeds.append(seed) or _line(1.0, 1.0))
    assert pairs.main(["--against", "HEAD", "--workload", "data-pipeline", "--pairs", "2", "--seconds", "1"]) == 0
    assert seeds == [1, 1, 2, 2]
