"""A fixed computation timed between operations, to measure how fast the machine runs right now.

Shared virtual machines change speed by up to 2x over minutes, which moves
every timing of a run together. The benchmark times this kernel before and
after every operation and every set-up, and divides each timing by the
slowdown around it: the kernel's mean time over NOMINAL_S. Drift common to
the kernel and the commands cancels. The kernel mixes the kinds of work the
commands do (seeding a generator per row, small array checks per row, float
formatting, JSON parsing, interpreted loops, small matrix products) and
never calls rulebound, so a change to the package cannot move it.
"""

from __future__ import annotations

import json
import time

import numpy as np

# The kernel's time on an unloaded 2-vCPU Xeon VM; it only sets the scale.
NOMINAL_S = 0.016


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.uniform(-0.2, 0.2, size=(64, 64))
        self.floats = [float(v) for v in rng.normal(size=4000)]
        self.text = json.dumps([{"x": self.floats[k : k + 16]} for k in range(0, 4000, 16)])
        self.rows = [[int(v) for v in rng.integers(0, 2, size=20)] for _ in range(600)]

    def measure(self) -> float:
        """Run the kernel once; returns its time in seconds."""
        t0 = time.perf_counter()
        draws = [np.random.default_rng([7, 1, i]).normal(0.0, 0.3, size=16) for i in range(300)]
        binary = 0
        for row in self.rows:
            arr = np.asarray(row)
            binary += bool(((arr == 0) | (arr == 1)).all())
            arr.astype(np.int64)
        parts = [format(v, ".17g") for v in self.floats]
        json.loads(self.text)
        acc = 0
        for i in range(30000):
            acc += i % 7
        m = self.matrix
        for _ in range(100):
            m = np.tanh(m @ self.matrix)
        seconds = time.perf_counter() - t0
        if len(draws) != 300 or binary != len(self.rows) or not parts or not np.isfinite(m).all():
            raise AssertionError("reference kernel broke")
        return seconds


def slowdown(before: float, after: float) -> float:
    """How much slower than nominal the machine ran between two kernel timings."""
    return (before + after) / (2 * NOMINAL_S)
