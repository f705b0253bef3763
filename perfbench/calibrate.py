"""Yardsticks for how fast this box runs Python right now.

On a shared box a core runs Python up to 1.7x faster or slower from one
second, or one minute, to the next, so times taken apart differ for
reasons outside the program.  Two fixed yardsticks use no repro code, so a change
to repro never moves them:

* :class:`Kernel` -- a pure-Python kernel doing the simulator's kind of
  work (generator resumes, heap operations, dict stores), timed in the
  measuring process around and inside each pass.  The box's cores drift
  apart, and a sample taken in the process comes from the core that runs
  the pass;
* :func:`import_s` -- a fresh interpreter importing repro's third-party
  stack, timed next to each set-up probe.  Start-up and imports speed up
  and slow down less than the interpreter loop, so set-up needs its own.

:func:`scale` turns a measured time into host seconds at the reference
speed, at which the yardsticks take :data:`KERNEL_S` and :data:`IMPORT_S`
(a quiet 2-core x86_64 box, Python 3.11).  Only ratios between runs
matter; the constants keep calibrated times near their raw size.
"""

from __future__ import annotations

import heapq
import subprocess
import sys
import time

KERNEL_S = 0.1
IMPORT_S = 1.0
IMPORT_STACK = "import numpy, scipy.optimize, networkx"


def _driver():
    value = 0.0
    while True:
        value = yield value * 0.5 + 1.0


class Kernel:
    """The pass yardstick: generator resumes, heap replacements and table
    stores, the simulator's inner loop without the simulator.

    Everything it touches is allocated here and only overwritten by
    :meth:`seconds`, so a sample taken mid-pass allocates nothing that
    lasts: it moves neither the measured program's heap nor its collector.
    """

    SLOTS = 4096
    # KERNEL_S is the reference time of exactly this many steps.
    STEPS = 160_000

    def __init__(self):
        self.heap = [float(i) for i in range(self.SLOTS)]
        self.table = dict.fromkeys(range(self.SLOTS), 0.0)
        self.gen = _driver()
        next(self.gen)

    def run(self) -> float:
        heap, table, send, slots = self.heap, self.table, self.gen.send, self.SLOTS
        total = 0.0
        for i in range(self.STEPS):
            value = send(total * 1e-9 + i)
            smallest = heapq.heapreplace(heap, value * 7919.0 % slots)
            table[i & (slots - 1)] = smallest
            total += smallest
        return total

    def seconds(self) -> float:
        """Host seconds of one run, now."""
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0


def import_s() -> float:
    """Host seconds for a fresh interpreter to import the third-party stack."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_STACK], check=True, timeout=60)
    return time.perf_counter() - t0


def scale(seconds: float, yardstick_s: float, reference_s: float) -> float:
    """``seconds`` measured while a yardstick took ``yardstick_s``,
    expressed at the speed where it takes ``reference_s``."""
    return seconds * reference_s / yardstick_s

