"""Set-up of one benchmark run, timed from process start.

    python3 perfbench/prepare.py WORKLOAD_JSON SEED WORKDIR

WORKLOAD_JSON holds the fields of a `workloads.Workload`. Imports the
package, parses the workload's rules, and writes the rule file
and the plan: the command lines of every round, with seeds derived from SEED.
Prints the `time.perf_counter()` reading at which the first operation could
start; on Linux that clock is shared by all processes, so the parent turns
it into a set-up time.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# More sub-seeds than rounds fit in a run of 60 seconds.
MAX_SUBSEEDS = 64


def main(workload: str, seed: int, work: Path) -> None:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import numpy as np

    from rulebound import parse_rules
    from workloads import Workload, commands

    wl = Workload(**json.loads(workload))
    parse_rules(wl.rules)
    work.mkdir(parents=True, exist_ok=True)
    (work / "rules.txt").write_text(wl.rules, encoding="utf-8")
    plan = [
        commands(wl, str(work), np.random.SeedSequence([seed, k]).generate_state(3))
        for k in range(MAX_SUBSEEDS)
    ]
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    print(repr(time.perf_counter()))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
