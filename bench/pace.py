"""The host's pace: how long a fixed piece of Python takes right now.

The machine this benchmark was made on is a 2-vCPU virtual machine on a
shared host.  Its speed drifts by up to 2x over seconds to minutes, and
the drift shows in CPU time as much as in wall time, so neither tells a
slower program from a slower host.  A fixed reference loop run *inside*
the repetition, between the program's own bytecodes, slows down with it:
every ``INTERVAL`` seconds of CPU time a SIGPROF handler times one pass
of the loop.  Each process forked from the one that calls ``start`` (the
``--jobs`` pool workers) re-arms the timer and adds its samples to its
own row of a shared table.

``factor(rows)`` is ``(REFERENCE_S / mean pass time) ** EXPONENT`` per
process, averaged weighted by samples (that is, by CPU time): about 1 on
an idle host, below 1 on a contended one, and times multiplied by it
read as on the idle host.  Program code slows down more than the loop:
over 9 to 13 repetitions of each workload, log wall time rose 1.05 to
1.44 times as fast as log pass time (least squares), hence the exponent
1.2.  With it, single repetitions on CPython 3.11 spread 3-5% (IQR over
median; 8-12% for the pooled sweep's wall time) where their raw wall
times spread 15-40%.  The sampling costs about 0.6% of the CPU time, and
the figures carry it.
"""

from __future__ import annotations

import mmap
import os
import signal
import time

INTERVAL = 0.01
# the pass time of the loop on an idle host (2-vCPU Xeon VM, CPython 3.11.7)
REFERENCE_S = 55e-6
# program code slows down more than the loop does (see above)
EXPONENT = 1.2
MAX_PROCS = 16  # the main process and the first 15 it forks
FIELDS = 2  # per process: passes, seconds spent in them
WARM_PASSES = 20


def _loop() -> int:
    x = 0x5BD1E995
    s = 0
    for _ in range(400):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        s ^= x >> 3
    return s


class Pace:
    def __init__(self):
        self._mem = mmap.mmap(-1, MAX_PROCS * FIELDS * 8)  # shared with forked children
        self.table = memoryview(self._mem).cast("d")
        self.slot = 0
        self._forks = 0

    def start(self) -> None:
        for _ in range(WARM_PASSES):  # past the interpreter's specialisation warm-up
            _loop()
        signal.signal(signal.SIGPROF, self._tick)
        os.register_at_fork(before=self._before_fork, after_in_child=self._in_child)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def _before_fork(self) -> None:
        self._forks += 1

    def _in_child(self) -> None:
        # interval timers are not inherited across fork
        self.slot = self._forks
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)

    def _tick(self, signum, frame) -> None:
        if self.slot >= MAX_PROCS:
            return
        start = time.perf_counter()
        _loop()
        i = self.slot * FIELDS
        self.table[i + 1] += time.perf_counter() - start
        self.table[i] += 1

    def totals(self) -> list[tuple[int, float]]:
        """(passes, seconds in them) of each process that took samples."""
        rows = [(int(self.table[i]), self.table[i + 1]) for i in range(0, len(self.table), FIELDS)]
        return [row for row in rows if row[0]]


def factor(totals: list[tuple[int, float]]) -> float:
    """The host's speed relative to an idle one, 1 without samples.

    Each process gets its own factor, since the vCPUs of a pool can be
    slowed unequally, and the factors are averaged weighted by samples,
    that is by CPU time.
    """
    passes = sum(n for n, _ in totals)
    if not passes:
        return 1.0
    return sum(n * (REFERENCE_S * n / seconds) ** EXPONENT for n, seconds in totals) / passes
