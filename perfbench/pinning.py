"""Pin this process to the faster of two CPUs, judged by a fixed probe loop.

On a shared host each CPU slows down by up to 1.75x for seconds at a time,
mostly independently of the other CPUs.  ``CpuPicker.pin_faster`` times a
fixed pure-Python loop on the current CPU and on one other CPU, taken in
turn, and pins the process (``os.sched_setaffinity``, this process only) to
the faster one.  It probes two CPUs whatever the host's CPU count, so one
call costs the same everywhere (about 4 ms).  Children started after a call
inherit the pin; ``release`` lets them use every usable CPU again.
"""

from __future__ import annotations

import math
import os
import time

PROBE_LOOP = 10_000


def _probe() -> float:
    """Seconds the fixed loop takes on the current CPU, best of three."""
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best


class CpuPicker:
    """Moves the process between its usable CPUs, two probes at a time."""

    def __init__(self) -> None:
        self._cpus = sorted(os.sched_getaffinity(0))
        self._current = self._cpus[0]
        self._turn = 0

    def pin_faster(self) -> None:
        """Pin to the faster of the current CPU and the next other CPU in turn."""
        if len(self._cpus) < 2:
            return
        self._turn = (self._turn + 1) % len(self._cpus)
        if self._cpus[self._turn] == self._current:
            self._turn = (self._turn + 1) % len(self._cpus)
        speeds = {}
        for cpu in (self._current, self._cpus[self._turn]):
            os.sched_setaffinity(0, {cpu})
            speeds[cpu] = _probe()
        self._current = min(speeds, key=speeds.get)
        os.sched_setaffinity(0, {self._current})

    def release(self) -> None:
        """Let this process, and the children it starts next, use every usable CPU."""
        os.sched_setaffinity(0, set(self._cpus))
