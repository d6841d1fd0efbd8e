"""Scale measured times to a fixed reference speed of the machine.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 1.7x within tens of seconds, and by tens of percent within a second,
with other tenants' load: the same pass of the same code reads 2.5 s in one
minute and 4.2 s in the next.  A fixed pure-Python loop slows down with it.
One slice of the loop (about 0.5 ms on its own) mixes the kinds of work the
engine's interpreter-bound code does: small-dict stores with integer
arithmetic, scattered access to a few MB of list and dict, and tuple
building.

``Probe`` samples the loop's speed while an operation runs: a SIGALRM
handler runs one slice every ``INTERVAL_S`` seconds and times it.  The
worker subtracts the handlers' time from the operation's time, runs one
more slice after every operation, and reports the raw time also as

    scaled = raw * REF_SLICE_S / mean(slices during the operation,
                                      the slice after the previous one,
                                      the slice after it)

that is, in seconds on a machine where one slice takes ``REF_SLICE_S``.
Over four minutes of repeated operations, single operations' scaled times
spread by 10% (quartile distance over median), against 15% with slices
timed only between operations and 30% raw.

Every slice runs right after engine work, so all are taken in the same
state; on caches the engine has just used, a slice takes about twice as
long as on its own.  The loop uses nothing from the repository, but a
change to the engine's memory traffic moves the slices too, and part of its
effect cancels in the scaled time; the raw time shows it in full.  The
gated end-to-end metrics are the scaled times; ``run.py`` prints the raw
ones beside them.  The loop's tables add about 4 MB to every process's peak
RSS.
"""

from __future__ import annotations

import signal
import time
from typing import List

INTERVAL_S = 0.02
REF_SLICE_S = 0.0005

# Working set of the memory-bound part: a few MB, beyond the core's own caches.
_LIST = list(range(1 << 16))
_DICT = {i: i for i in range(1 << 15)}
_PERM = (1, 2, 3, 4, 5, 6, 7, 0)


def sample() -> float:
    """Run one slice, three kinds of work of about equal length; return its
    wall time in seconds."""
    t = time.perf_counter()
    table = {}
    acc = 0
    for i in range(900):
        table[i % 97] = acc
        acc = (acc * 31 + i) % 1000003
    j = 0
    for i in range(480):
        j = (j * 75 + 74) % 65537
        _DICT[j >> 1] = acc
        acc = (acc + _LIST[j & 0xFFFF]) % 1000003
    p = tuple(range(8))
    seen = {}
    for i in range(150):
        p = tuple(_PERM[x] for x in p)
        seen[p, i % 13] = p
    return time.perf_counter() - t


class Probe:
    """Times loop slices in a signal handler while an operation runs."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        self.samples.append(sample())
        self.spent += time.perf_counter() - t

    def __enter__(self) -> "Probe":
        self.samples = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scaled(raw_s: float, slice_times: List[float]) -> float:
    return raw_s * REF_SLICE_S * len(slice_times) / sum(slice_times)
