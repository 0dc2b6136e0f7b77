"""How fast the host runs Python right now, sampled through a round.

A shared host changes speed by tens of percent within seconds (a busy
hyperthread sibling, cache and memory contention from other tenants),
and drifts further over minutes.  Two runs of the same code then differ
by more than a regression worth catching, and no amount of repetition
inside one run removes drift that outlasts it.

So every round carries a :class:`Sampler`.  Every :data:`INTERVAL_S` of
wall time it interrupts the round's main process and times :func:`probe`,
a fixed piece of pure-Python work (heap, dict and attribute traffic, as
in the simulator's event loop).  The probe runs twice and only the
second run is timed, with its code and data in cache, so the sample
measures the core's speed and not what the program left in the cache.
Samples are CPU time of the probe itself, so waiting for a core does not
count.

:func:`at_reference` turns a time measured during a phase into the time
it would have taken at a host speed where the probe takes
:data:`REF_PROBE_S`: ``t * REF_PROBE_S / mean(samples)``.  The mean,
not the median, because host speed flips between a few levels and what
the round pays is the time-average of them.
"""

from __future__ import annotations

import signal
import time
from typing import List, Optional

#: Wall time between two samples.  With a probe of ~0.1-0.2 ms run
#: twice, sampling costs about 1.5% of one core.
INTERVAL_S = 0.02

#: The probe's duration at the reference host speed.  Any constant
#: works, as long as it stays fixed; this one is near the probe's
#: duration on a quiet 2.1 GHz Xeon VM, so reference seconds read close
#: to that host's seconds.
REF_PROBE_S = 1.2e-4


class _Item:
    __slots__ = ("weight", "bucket")

    def __init__(self, weight: float, bucket: int) -> None:
        self.weight = weight
        self.bucket = bucket


def probe(n: int = 150) -> float:
    """A fixed amount of interpreter work: push ``n`` keyed items onto a
    heap, pop them in order and fold them into a dict."""
    import heapq
    heap = []
    x = 12345
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x / 2147483648.0, i, _Item(i * 0.5, i & 7)))
    totals = {}
    acc = 0.0
    while heap:
        key, _, item = heapq.heappop(heap)
        totals[item.bucket] = totals.get(item.bucket, 0.0) + key * item.weight
        acc += key
    return acc


class Sampler:
    """Time :func:`probe` every ``interval`` seconds of wall time, from a
    ``SIGALRM`` handler in this process's main thread.

    Forked children inherit the handler but not the timer, so workers are
    never interrupted; a round whose main process waits on workers is
    still sampled, from that waiting process."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: List[float] = []
        #: CPU time spent probing (both runs), to take out of the round's
        self.cpu_s = 0.0
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        c0 = time.thread_time()
        probe()
        c1 = time.thread_time()
        probe()
        c2 = time.thread_time()
        self.samples.append(c2 - c1)
        self.cpu_s += c2 - c0

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mean(self, since: int = 0) -> Optional[float]:
        """Mean probe time of the samples taken from index ``since`` on,
        or None if there are none."""
        part = self.samples[since:]
        return sum(part) / len(part) if part else None


def at_reference(seconds: float, probe_s: Optional[float]) -> float:
    """``seconds`` measured while the probe took ``probe_s`` on average,
    scaled to the reference host speed."""
    if not probe_s:
        raise ValueError("no probe sample covers this phase")
    return seconds * REF_PROBE_S / probe_s
