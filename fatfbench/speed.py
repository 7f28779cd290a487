"""Machine-speed calibration for the timed figures.

The benchmark runs on shared machines whose speed drifts: a fixed piece of
pure-Python work took from 0.21 s to 0.36 s within one minute, in phases
lasting from seconds to half a minute, so 30-second runs of identical code
differed by 19-31% (IQR over median). A calibration round, a fixed piece of
pure-Python work that imports nothing from fatf, is timed before every
operation. Each operation's time is scaled by REFERENCE_S over the median of
the calibration rounds around it, which reports every time at the speed at
which one round takes REFERENCE_S. The raw times are printed beside the
scaled ones.
"""

from __future__ import annotations

import statistics
import time

# seconds one calibration round takes at the reference speed, about the
# median speed of the 2-core machine the benchmark was written on
REFERENCE_S = 0.0017
# rounds on each side of an operation that enter its median
WINDOW = 3


def calibration_round() -> float:
    """Time a fixed mix of tuple building, free reduction, dictionary updates
    and integer arithmetic, the operations fatf's Python code is made of."""
    t0 = time.perf_counter()
    counts: dict = {}
    acc = 0
    for i in range(300):
        w = tuple((i * 7 + k) % 11 - 5 for k in range(12))
        out: list[int] = []
        for a in w:
            if out and out[-1] == -a:
                out.pop()
            else:
                out.append(a)
        key = tuple(out)
        counts[key] = counts.get(key, 0) + 1
        acc += sum(x * x for x in out) * (i | 1)
    if acc < 0:
        raise AssertionError("unreachable")
    return time.perf_counter() - t0


class Speed:
    """Calibration rounds in the order they were taken."""

    def __init__(self) -> None:
        self.rounds: list[float] = []

    def tick(self) -> int:
        """Take one round; returns its index."""
        self.rounds.append(calibration_round())
        return len(self.rounds) - 1

    def factor(self, before: int) -> float:
        """Scale for work done between round `before` and the next round."""
        window = self.rounds[max(0, before - WINDOW + 1): before + WINDOW + 1]
        return REFERENCE_S / statistics.median(window)
