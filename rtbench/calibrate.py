"""Machine-speed calibration for the timed figures.

On the shared virtual machines this benchmark runs on, the same
interpreter work can take twice as long from one fraction of a second
to the next, with no CPU time stolen: other tenants slow the same
instructions down.  Every timed figure inherits that drift.  So each
run times a fixed slice of pure-Python work (no code from the program
under test) at the boundaries of its measurements (before and after
each set-up and closed-loop pass, between a pass's steps, after each
open-loop tick), and the gated figures are scaled to the speed at
which one slice takes :data:`REFERENCE_S`:

    time_at_reference = time_measured * REFERENCE_S / slice_time_nearby

The slice reads a small table that it pulls into cache before the
clock starts, so its time does not depend on how much memory the
program uses or what it left in the cache: a change to the program's
footprint moves the scaled figures as much as the raw ones.  A run
whose work is split between this process and a worker on another CPU
times each slice on both CPUs (:func:`time_on`) and uses their mean.
Raw figures are printed beside the scaled ones.
"""

from __future__ import annotations

import os
import random
import time
from typing import List, Sequence

#: One slice's time at the reference speed: roughly its median in the
#: quiet stretches of the 2-vCPU, 2.1 GHz virtual machine the benchmark
#: was defined on (Python 3.11).
REFERENCE_S = 0.0002
SLICE_STEPS = 500
#: Entries in the table a slice reads: about 150 KB with their int
#: objects, so the warmed table stays in the core's own cache.
TABLE_ENTRIES = 4096

_TABLE = list(range(TABLE_ENTRIES))
random.Random(3).shuffle(_TABLE)
#: CPUs each slice is timed on in turn; empty: wherever this process is.
_CPUS: List[int] = []


def time_on(cpus: Sequence[int]) -> None:
    """Time every later slice once on each CPU in ``cpus`` (moving this
    process there and back) and count their mean."""
    _CPUS[:] = cpus


def slice_s() -> float:
    """Time one fixed slice of interpreter work: random reads from the
    table, summed into a small list.  It allocates almost no
    containers, so no garbage collection of the program's objects can
    start (and be timed) inside it."""
    entries = _TABLE
    n = len(entries)
    rng = random.Random(7)
    sums = [0] * 256
    sum(entries)  # warm the table
    t0 = time.perf_counter()
    for _ in range(SLICE_STEPS):
        k = entries[rng.randrange(n)]
        sums[k & 255] += k
    return time.perf_counter() - t0


def machine_slice_s() -> float:
    """One slice, or the mean of one on each CPU named by :func:`time_on`."""
    if not _CPUS:
        return slice_s()
    home = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in _CPUS:
            os.sched_setaffinity(0, {cpu})
            times.append(slice_s())
    finally:
        os.sched_setaffinity(0, home)
    return sum(times) / len(times)


class Speed:
    """Slice timings taken through a run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, n: int = 1) -> None:
        """Time ``n`` slices."""
        self.samples.extend(machine_slice_s() for _ in range(n))

    def scale(self, since: int = 0) -> float:
        """``REFERENCE_S`` over the mean slice from sample ``since`` on:
        multiply a time measured over that stretch by this."""
        recent = self.samples[since:]
        return REFERENCE_S * len(recent) / sum(recent)
