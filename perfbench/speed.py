"""A machine-speed reference for scaling wall times.

The machines these runs share change speed by up to about 1.6x for seconds
at a time, and every wall time moves with them.  A fixed standard-library
kernel, an 8x8 product of Fractions plus the build of a 4-ary tree of
tuples, is timed right before every job.  A
job's wall time is multiplied by ``REFERENCE_S`` over the median of the
reference samples around it, so it reads as seconds on a machine that runs
the kernel in ``REFERENCE_S``.  Nothing in blocklin runs in the kernel.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.003
WINDOW = 2  # samples taken on each side of a job's own sample

_rng = random.Random(0)
_ROWS = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(8)] for _ in range(8)]
_COLS = list(zip(*_ROWS))


def _tree(depth):
    if depth == 0:
        return (depth,)
    return tuple(_tree(depth - 1) for _ in range(4))


def reference_seconds():
    start = perf_counter()
    [[sum(a * b for a, b in zip(row, col)) for col in _COLS] for row in _ROWS]
    _tree(6)
    return perf_counter() - start


class SpeedLog:
    """Reference samples in the order they were taken."""

    def __init__(self):
        self.samples = []

    def sample(self) -> int:
        self.samples.append(reference_seconds())
        return len(self.samples) - 1

    def factor(self, first, last=None):
        """Scale for wall time spent between samples ``first`` and ``last``."""
        last = first if last is None else last
        window = self.samples[max(0, first - WINDOW): last + WINDOW + 1]
        return REFERENCE_S / statistics.median(window)
