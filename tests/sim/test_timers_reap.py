"""Cancelled-timer tombstones drain to the last deadline.

Cancellation is lazy: a cancelled timer stays on the heap and pops at
its ``(time, seq)`` slot without triggering.  When every timer is
cancelled, the run still drains those tombstones, so the final clock is
the last deadline — on both run loops (race detector disarmed, and
armed with its per-event probe).
"""

from __future__ import annotations

import pytest

from repro.lint.races import RaceDetector
from repro.sim.engine import Simulator, Timeout


@pytest.mark.parametrize("armed", [True, False])
def test_cancel_all_still_advances_clock(armed):
    """Every timer cancelled: the tombstones still drain, landing the
    clock on the last deadline."""
    sim = Simulator()
    if armed:
        RaceDetector(sim, strict=False).arm()

    def proc():
        timers = [sim.timer(100.0 * (i + 1)) for i in range(32)]
        yield Timeout(5.0)
        for timer in timers:
            timer.cancel()

    sim.spawn(proc())
    sim.run()
    assert sim.now == 3200.0
