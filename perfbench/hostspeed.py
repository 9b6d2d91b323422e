"""Host-speed reference: a fixed task timed between the measured pieces of work.

The benchmark runs on a few cores of a shared host whose speed drifts:
on a 2-vCPU Xeon VM the reference task below took from 0.9x to 1.7x
NOMINAL_S from one run to the next, and a repeated query's time swung as
widely, on CPU time as much as on wall time, so neither longer runs nor
CPU clocks steady it. The drift hits all Python code much alike, so the
benchmark times this reference task before and after each query and each
set-up, and reports times in nominal seconds: wall seconds x NOMINAL_S /
(median time of the reference runs nearest on each side). A nominal
second is the time the host takes while the reference task takes
NOMINAL_S. Repeating one query on that VM, this cut the quartile spread
of its time from 0.23-0.41 of the median to 0.10-0.13.

The task is the benchmark's own code, fixed at import and independent of
the seed and of nfakit, so no change to the program moves it: one
boolean squaring of a 1024 x 1024 matrix with 24 bits per row, walking
set bits, then a byte scan of the product (about 13 ms on that VM).
"""

from __future__ import annotations

import gc
import random
import statistics
import time

NOMINAL_S = 0.0125  # sets the scale of a nominal second only

_DIM = 1024
_ROWS = tuple(
    sum(1 << j for j in rng.sample(range(_DIM), 24))
    for rng in [random.Random("perfbench-reference")]
    for _ in range(_DIM)
)


def _task() -> int:
    rows = _ROWS
    total = 0
    for row in rows:
        acc = 0
        while row:
            low = row & -row
            acc |= rows[low.bit_length() - 1]
            row ^= low
        for byte in acc.to_bytes(_DIM // 8, "little"):
            total += byte
    return total


_CHECK = _task()


def reference_seconds() -> float:
    """Wall time of one run of the reference task, after a collection."""
    gc.collect()
    begin = time.perf_counter()
    total = _task()
    seconds = time.perf_counter() - begin
    if total != _CHECK:
        raise RuntimeError("the reference task gave a different result")
    return seconds


class HostClock:
    """Wall times of work, each bracketed by reference runs, in nominal seconds."""

    def __init__(self):
        self.refs = [reference_seconds()]
        self.walls: list[tuple[float, int]] = []  # (wall seconds, refs timed before it)

    def add(self, wall: float) -> int:
        """Record one piece of work just ended, time the reference after it."""
        self.walls.append((wall, len(self.refs)))
        self.refs.append(reference_seconds())
        return len(self.walls) - 1

    def nominal(self, index: int) -> float:
        """Work `index` scaled by the median of the two references on each side."""
        wall, before = self.walls[index]
        near = self.refs[max(0, before - 2) : before + 2]
        return wall * NOMINAL_S / statistics.median(near)

    def speed(self) -> float:
        """Median reference time over NOMINAL_S: above 1 means a slow host."""
        return statistics.median(self.refs) / NOMINAL_S
