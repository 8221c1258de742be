"""The benchmark's workloads.

Every workload is a closed loop: one caller runs rounds back to back in one
process, and a round is the README's experiment chain
synth -> noise (violating) -> audit --json -> train -> eval,
each command run in process through `rulebound.cli.run`. The workloads
differ in rule set, data shape and training settings, so that each one
spends most of its time in a different layer.
"""

from __future__ import annotations

from dataclasses import dataclass

# Two MUTEX groups (8 and 6 labels, 28 + 15 rules), 16 implications with
# negation and disjunction, one FALSE rule and non-unit weights: 60 rules over
# 20 labels. About 1 in 350 uniform label draws satisfies all of them, so
# synthesis rejection sampling does real work without exhausting its budget.
MANY_RULES = """\
MUTEX(g0, g1, g2, g3, g4, g5, g6, g7)
MUTEX(h0, h1, h2, h3, h4, h5) @ 1.5
g0 => f0 | f1 | f2
g1 => !f0 | f2 | f3 @ 2.0
g2 & f2 => h0 | h1 | f3 @ 0.5
g3 => f3 | f4 | !f1
g4 => !f5 | f1 | f0
g5 & !f1 => h2 | f2 | f4
g6 => f1 | !f3 | f5 @ 1.25
g7 => h4 | f5 | f0
h0 => f2 | !f4 | f5
h1 & f0 => !f3 | g1 | f4
h2 => g0 | f1 | f4 @ 0.75
h3 & f2 => f5 | f1
h4 & f4 => f0 | f1 | !f2
h5 => !g2
f0 & f1 & f2 & f3 => g3 | h3 | f5 @ 2.5
f4 & !f5 & f3 => g6 | h0 | f0 | f1
g0 & h0 => FALSE @ 3.0
"""

# The paper's rule set. The command line takes the vocabulary from the rule
# file, so it has the four labels the rules mention.
PAPER_RULES = """\
MUTEX(A, B)
A => C
D => !C
"""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rules: str
    rows: int
    dims: int
    patterns: int
    rho: float
    epochs: int
    warmup: int
    lambda_: float
    hidden: int
    batch: int
    mode: str

    def train_flags(self) -> list[str]:
        return [
            "--epochs", str(self.epochs),
            "--warmup", str(self.warmup),
            "--lambda", repr(self.lambda_),
            "--hidden", str(self.hidden),
            "--batch", str(self.batch),
            "--mode", self.mode,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-rules",
            why=(
                "60 rules over 20 labels: the per-rule Python loop in relax takes most of train "
                "time, so an optimisation of the rule penalty shows here"
            ),
            rules=MANY_RULES,
            rows=4000,
            dims=16,
            patterns=12,
            rho=0.2,
            epochs=3,
            warmup=1,
            lambda_=1.0,
            hidden=32,
            batch=32,
            mode="relabel",
        ),
        Workload(
            name="train-dense",
            why=(
                "paper's 3 rules, 64 features, hidden 128: model matmuls and the training loop "
                "dominate and relax is small, so a relax change should not show here"
            ),
            rules=PAPER_RULES,
            rows=4000,
            dims=64,
            patterns=6,
            rho=0.2,
            epochs=12,
            warmup=4,
            lambda_=1.0,
            hidden=128,
            batch=128,
            mode="relabel",
        ),
        Workload(
            name="data-pipeline",
            why=(
                "6000 rows, 60 rules, one plain-BCE epoch: JSONL reads and writes and crisp rule "
                "checks, per row in synth and noise and batched in audit and eval, dominate"
            ),
            rules=MANY_RULES,
            rows=6000,
            dims=16,
            patterns=12,
            rho=0.1,
            epochs=1,
            warmup=0,
            lambda_=0.0,
            hidden=16,
            batch=128,
            mode="off",
        ),
    )
}


# Files each command writes, in the work directory its plan points at.
OUTPUTS = {
    "synth": ("clean.jsonl",),
    "noise": ("noisy.jsonl",),
    "audit": (),
    "train": ("model.json", "history.jsonl", "train_report.json"),
    "eval": ("eval_report.json",),
}


def commands(wl: Workload, work: str, seeds) -> list[tuple[str, list[str]]]:
    """The five command lines of one round, with their seeds, reading and writing under `work`."""
    synth_seed, noise_seed, train_seed = (str(int(s)) for s in seeds)
    rules = f"{work}/rules.txt"
    clean, noisy = f"{work}/clean.jsonl", f"{work}/noisy.jsonl"
    model = f"{work}/model.json"
    return [
        ("synth", ["synth", "--rules", rules, "--out", clean, "--n", str(wl.rows),
                   "--dims", str(wl.dims), "--patterns", str(wl.patterns), "--seed", synth_seed]),
        ("noise", ["noise", "--in", clean, "--out", noisy, "--rho", repr(wl.rho),
                   "--mode", "violating", "--seed", noise_seed, "--rules", rules]),
        ("audit", ["audit", "--rules", rules, "--data", noisy, "--json"]),
        ("train", ["train", "--rules", rules, "--data", noisy, *wl.train_flags(), "--seed", train_seed,
                   "--out-model", model, "--out-history", f"{work}/history.jsonl",
                   "--out-report", f"{work}/train_report.json"]),
        ("eval", ["eval", "--rules", rules, "--data", noisy, "--model", model,
                  "--out-report", f"{work}/eval_report.json"]),
    ]
