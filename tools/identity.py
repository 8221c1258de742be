"""Byte-identity check of the command-line outputs against a git revision.

    python tools/identity.py --against REV [--workload NAME]... [--seeds A,B,C]...

Exports REV's `src/` with `git archive` into a temporary directory and runs
the benchmark's command chains (`perfbench/workloads.commands`) on it and on
this checkout's working tree: by default the three workloads with seeds
(1, 2, 3) and (4, 5, 6), 30 commands per tree. Each command is its own
subprocess with one BLAS thread, which must import `rulebound` from its
tree's `src/`. Both trees run a chain in a work directory of the same
relative name, so paths in messages match. For every command the exit code
is compared, and the sha256 of its stdout, its stderr and each file it
writes (`workloads.OUTPUTS`). Prints every difference, then a summary line;
exits 1 on any difference, and 2 when REV cannot be exported or a tree's
`rulebound` cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import OUTPUTS, WORKLOADS, commands  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEEDS = ((1, 2, 3), (4, 5, 6))
WORK = "work"  # each chain's work directory, relative to its run directory

# exit code of a command that could not import rulebound from its tree's src/;
# the CLI exits 0 to 3
_WRONG_TREE = 125
_RUNNER = """\
import os, sys
src = os.path.realpath(sys.argv[1])
sys.path.insert(0, src)
try:
    import rulebound.cli
    where = os.path.realpath(rulebound.cli.__file__)
except ImportError as err:
    where = repr(err)
if not where.startswith(src + os.sep):
    print(f"rulebound not imported from {src}: {where}", file=sys.stderr)
    sys.exit(%d)
sys.exit(rulebound.cli.run(sys.argv[2:]))
""" % _WRONG_TREE


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _start(tree: Path, run_dir: Path, argv: list[str]) -> subprocess.Popen:
    env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
    return subprocess.Popen(
        [sys.executable, "-I", "-c", _RUNNER, str(tree / "src"), *argv],
        cwd=run_dir,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def _outcome(proc: subprocess.Popen, stdout: bytes, stderr: bytes, run_dir: Path, name: str) -> dict:
    """The exit code, and the digests of stdout, stderr and each output file,
    of one finished command."""
    if proc.returncode == _WRONG_TREE:
        raise RuntimeError(stderr.decode(errors="replace").strip())
    outcome = {"exit code": proc.returncode, "stdout": _sha(stdout), "stderr": _sha(stderr)}
    for file in OUTPUTS[name]:
        path = run_dir / WORK / file
        outcome[file] = _sha(path.read_bytes()) if path.is_file() else "missing"
    return outcome


def compare(tree_a: Path, tree_b: Path, runs, scratch: Path) -> tuple[int, int, list[str]]:
    """Run each (workload, seeds) chain of `runs` on the `src/` of both trees,
    in run directories under `scratch`; returns the commands run per tree, the
    digests compared and the differences."""
    n_commands = n_digests = 0
    differences = []
    for wl, seeds in runs:
        label = f"{wl.name} seeds {','.join(map(str, seeds))}"
        run_dirs = []
        for side in ("a", "b"):
            run_dir = scratch / side / f"{wl.name}-{'-'.join(map(str, seeds))}"
            (run_dir / WORK).mkdir(parents=True)
            (run_dir / WORK / "rules.txt").write_text(wl.rules, encoding="utf-8")
            run_dirs.append(run_dir)
        for name, argv in commands(wl, WORK, seeds):
            procs = [_start(tree, run_dir, argv) for tree, run_dir in zip((tree_a, tree_b), run_dirs)]
            outputs = [proc.communicate() for proc in procs]
            a, b = (_outcome(p, *out, d, name) for p, out, d in zip(procs, outputs, run_dirs))
            n_commands += 1
            n_digests += len(a) - 1
            for key in a:
                if a[key] != b[key]:
                    differences.append(f"{label} {name}: {key} differs ({a[key]} != {b[key]})")
    return n_commands, n_digests, differences


def export(rev: str, dest: Path) -> None:
    """Write the `src/` of git revision `rev` of this checkout under `dest`."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        capture_output=True,
        check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, capture_output=True, check=True)


def _seeds(text: str) -> tuple[int, int, int]:
    seeds = tuple(int(s) for s in text.split(","))
    if len(seeds) != 3 or min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"expected three non-negative integers A,B,C, got {text!r}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV", help="git revision to compare with")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS), help="default: all")
    parser.add_argument("--seeds", action="append", type=_seeds, metavar="A,B,C",
                        help="synth, noise and train seeds; default: 1,2,3 and 4,5,6")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    runs = [(WORKLOADS[name], seeds) for name in names for seeds in (args.seeds or DEFAULT_SEEDS)]
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        other = Path(tmp) / "rev"
        other.mkdir()
        try:
            export(args.against, other)
        except subprocess.CalledProcessError as err:
            print(f"error: cannot export {args.against}: {err.stderr.decode(errors='replace').strip()}",
                  file=sys.stderr)
            return 2
        try:
            n_commands, n_digests, differences = compare(other, ROOT, runs, Path(tmp) / "runs")
        except RuntimeError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
    for line in differences:
        print(line)
    print(f"identity: {n_commands} runs, {n_digests} digests compared against {args.against}: "
          f"{len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
