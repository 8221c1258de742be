"""rulebound's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
One run sets up several times in fresh processes (set-up time is their
median), then runs rounds of the five commands back to back in this process
until S seconds have passed, checking every output. Every timing is divided
by the machine's slowdown measured around it (see reference.py), and each
metric is the median over the run. With --trace 0 it reports the end-to-end
metrics; with --trace 1 it alternates untraced and traced rounds on the same
inputs and reports per-layer metrics from the traced ones, plus the tracing
overhead. Lines before the last describe the run, including the failed
fraction of operations; the last line is the JSON result, whose `failed` and
`attempted` carry that fraction. Result files and spans go to `.perfbench/`
in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import layers
from spans import Tracer, traced
from workloads import OUTPUTS, WORKLOADS

# rulebound, numpy and the modules that import them (checks, reference) are
# imported inside functions, after use_checkout() has fixed the BLAS threads.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

# One BLAS thread, set before numpy loads: the package promises bitwise
# reproducible runs only single-threaded, and thread scheduling adds noise.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("train_samples_per_s", "samples/s"),
    ("synth_rows_per_s", "rows/s"),
    ("noise_rows_per_s", "rows/s"),
    ("audit_rows_per_s", "rows/s"),
    ("eval_rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
)
THROUGHPUT_OF = {
    "synth": "synth_rows_per_s",
    "noise": "noise_rows_per_s",
    "audit": "audit_rows_per_s",
    "train": "train_samples_per_s",
    "eval": "eval_rows_per_s",
}


class SetupError(RuntimeError):
    pass


@dataclass
class Op:
    name: str
    op_id: int
    seconds: float
    ok: bool
    error: str
    slowdown: float


@dataclass
class Run:
    """Everything one run measured."""

    setups: list[tuple[float, float]] = field(default_factory=list)  # (seconds, slowdown)
    rounds: list[list[Op]] = field(default_factory=list)  # with tracing, the odd ones are traced

    @property
    def ops(self) -> list[Op]:
        return [op for ops in self.rounds for op in ops]


def measure_setup(wl, seed: int, work: Path) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), json.dumps(asdict(wl)), str(seed), str(work)],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up failed with exit code {proc.returncode}:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


def _digest(work: Path, files, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for name in files:
        h.update((work / name).read_bytes())
    return h.hexdigest()


class Rounds:
    """Runs rounds of the plan and checks their outputs.

    The first round on a sub-seed gets the full checks; a later round on the
    same sub-seed must reproduce its outputs byte for byte.
    """

    def __init__(self, wl, work: Path, plan, rs, reference):
        self.wl, self.work, self.plan, self.rs = wl, work, plan, rs
        self.reference = reference
        self.next_op = 0
        self.digests: dict[tuple[int, str], str] = {}

    def run(self, sub: int, tracer=None) -> list[Op]:
        from reference import slowdown
        from rulebound import cli

        ops = []
        state: dict = {}
        before = self.reference.measure()
        for name, argv in self.plan[sub]:
            self.next_op += 1
            out = io.StringIO()
            if tracer is not None:
                tracer.op = self.next_op
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                if tracer is not None:
                    with tracer.span("cli"):
                        code = cli.run(argv)
                else:
                    code = cli.run(argv)
            seconds = time.perf_counter() - t0
            error = f"exit code {code}" if code else self.check(name, sub, out.getvalue(), state)
            after = self.reference.measure()
            ops.append(Op(name, self.next_op, seconds, not error, error, slowdown(before, after)))
            before = after
            if error:
                break
        return ops

    def check(self, name: str, sub: int, stdout: str, state: dict) -> str:
        import checks

        try:
            digest = _digest(self.work, OUTPUTS[name], stdout)
            if (sub, name) in self.digests:
                if digest != self.digests[sub, name]:
                    return f"{name}: repeated command wrote different output"
                return ""
            self.digests[sub, name] = digest
            if name == "synth":
                state["clean"] = checks.check_synth(self.work / "clean.jsonl", self.wl, self.rs)
            elif name == "noise":
                state["vs"], state["flips"] = checks.check_noise(
                    self.work / "noisy.jsonl", state["clean"], self.rs
                )
            elif name == "audit":
                checks.check_audit(stdout, state["vs"], len(self.rs.rules))
            elif name == "train":
                checks.check_train(self.work, self.wl, len(self.rs.vocabulary), state["flips"])
            else:
                checks.check_report(self.work / "eval_report.json", len(self.rs.vocabulary))
        except (checks.CheckError, OSError, ValueError, KeyError, TypeError, IndexError) as err:
            return f"{name}: {type(err).__name__}: {err}"
        return ""


def run_workload(wl, seed: int, seconds: float, trace: bool, work: Path, setups=SETUP_REPEATS):
    """Set up, then run rounds until `seconds` pass; returns the Run and, when tracing, the tracer."""
    from reference import Reference, slowdown
    from rulebound import parse_rules

    reference = Reference()
    run = Run()
    before = reference.measure()
    for k in range(setups):
        took = measure_setup(wl, seed, work / f"setup{k}")
        after = reference.measure()
        run.setups.append((took, slowdown(before, after)))
        before = after
    inputs = work / "setup0"

    rs = parse_rules(wl.rules)
    plan = json.loads((inputs / "plan.json").read_text(encoding="utf-8"))
    rounds = Rounds(wl, inputs, plan, rs, reference)
    tracer = Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    # Round 1 repeats round 0 to check determinism; later rounds take a new
    # sub-seed each, so a run's medians average over many inputs. With
    # tracing, rounds come in pairs on one sub-seed, untraced then traced.
    index = 0
    while True:
        sub = index // 2 if trace else max(index - 1, 0)
        if sub >= len(plan):
            break
        start = time.perf_counter()
        if trace and index % 2:
            with traced(tracer, layers.TARGETS):
                ops = rounds.run(sub, tracer)
        else:
            ops = rounds.run(sub)
        run.rounds.append(ops)
        if not all(op.ok for op in ops):
            break
        # stop when another round would overrun, but not inside a traced pair
        last = time.perf_counter() - start
        if index >= 1 and (index % 2 or not trace) and time.perf_counter() + last > deadline:
            break
        index += 1
    return run, tracer


def tail(durations: list[float]):
    """The highest percentile with at least ten samples beyond it, as (percent, value), or None."""
    n = len(durations)
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            cuts = statistics.quantiles(durations, n=1000, method="inclusive")
            return pct, cuts[round(pct * 10) - 1]
    return None


def end_to_end(run: Run, wl) -> tuple[dict, list[str]]:
    """Metric values, each timing divided by the slowdown measured around it, and one line per metric."""
    values: dict[str, float] = {}
    raw = statistics.median(s for s, _ in run.setups)
    values["setup_s"] = statistics.median(s / k for s, k in run.setups)
    lines = [
        "# machine slowdown around operations (reference kernel time over nominal): median "
        f"{statistics.median(op.slowdown for op in run.ops):.3f}; timings are divided by it",
        f"setup_s {values['setup_s']:.4f} s  (raw {raw:.4f}; median of {len(run.setups)} set-ups)",
    ]
    units = {"train": wl.rows * wl.epochs}
    for op_name, metric in THROUGHPUT_OF.items():
        done = [op for op in run.ops if op.name == op_name and op.ok]
        if not done:
            continue
        n = units.get(op_name, wl.rows)
        values[metric] = statistics.median(n / op.seconds * op.slowdown for op in done)
        raw = statistics.median(n / op.seconds for op in done)
        pct = tail([op.seconds for op in done])
        slow = f"p{pct[0]:g} op time {pct[1]:.4f} s" if pct else "no percentile has 10 samples beyond it"
        lines.append(f"{metric} {values[metric]:.1f}  (raw {raw:.1f}; median of {len(done)} ops; {slow})")
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines.append(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB")
    return values, lines


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def overheads(run: Run) -> list[float]:
    """Traced round time over the untraced round on the same inputs, minus one."""
    out = []
    for k in range(0, len(run.rounds) - 1, 2):
        plain = sum(op.seconds / op.slowdown for op in run.rounds[k])
        with_trace = sum(op.seconds / op.slowdown for op in run.rounds[k + 1])
        out.append(with_trace / plain - 1)
    return out


def use_checkout() -> str:
    """Point imports at this checkout and fix the BLAS threads; returns an error or ''."""
    for path in (ROOT / "src" / "rulebound" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not path.is_file():
            return f"{path} is missing: run from the root of a rulebound checkout"
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    for path in (str(ROOT / "tests"), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    return ""


def report(wl, seed: int, seconds: float, trace: bool, setups=SETUP_REPEATS):
    """One run: returns the result object, the descriptive lines, the full record and the tracer."""
    work = OUT / f"work-{wl.name}-{seed}-{os.getpid()}"
    try:
        run, tracer = run_workload(wl, seed, seconds, trace, work, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = run.ops
    failed = [op for op in ops if not op.ok]
    env = environment()
    lines = [
        f"# workload {wl.name}: {wl.why}",
        f"# seed {seed}, {len(run.rounds)} rounds, {len(ops)} operations",
        "# env " + json.dumps(env),
        *(f"# FAILED op {op.op_id}: {op.error}" for op in failed),
        f"failed_ops_frac {len(failed) / len(ops):.4f}  ({len(failed)} of {len(ops)} operations)",
    ]
    if trace:
        traced_rounds = [{op.op_id for op in ops} for ops in run.rounds[1::2]]
        values = layers.per_layer(tracer.spans, traced_rounds, overheads(run)) if traced_rounds else {}
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        lines += [f"{name} {values.get(name, 0.0):.6g} {unit}" for name, unit in units.items()]
        if values.get("training.train.s"):
            lines.append(
                f"# train time per round {values['training.train.s']:.3f} s: "
                f"relax {values['relax.share']:.0%}, model {values['model.share']:.0%}, "
                f"training loop {values['training.train.self_s'] / values['training.train.s']:.0%}"
            )
    else:
        values, metric_lines = end_to_end(run, wl)
        units = dict(END_TO_END)
        lines += metric_lines
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}
    record = dict(
        result, workload=wl.name, why=wl.why, seed=seed, seconds=seconds, environment=env,
        setups=run.setups, ops=[[op.name, op.seconds, op.slowdown, op.ok, op.error] for op in ops],
    )
    return result, lines, record, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    error = use_checkout()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 1
    wl = WORKLOADS[args.workload]
    try:
        result, lines, record, tracer = report(wl, args.seed, args.seconds, bool(args.trace))
    except (SetupError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    stem = f"{wl.name}-seed{args.seed}"
    OUT.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.jsonl.gz")
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
