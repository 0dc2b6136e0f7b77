"""Cancellable timers: lazy cancellation on the engine's heap.

A cancelled :class:`~repro.sim.timers.Timer` stays a tombstone that
still pops at its ``(time, seq)`` slot and merely skips its trigger, so
the clock trajectory never depends on whether a watchdog was cancelled.
The engine's ordering spec lives in tests/sim/test_engine_order.py.
"""

from __future__ import annotations

from repro.sim.engine import Simulator, Timeout
from repro.sim.timers import WHEEL_STATS


def test_cancelled_timer_never_fires():
    sim = Simulator()
    fired = []

    def waiter(watchdog):
        value = yield watchdog.event
        fired.append(value)

    def proc():
        watchdog = sim.timer(100.0, "bang")
        sim.spawn(waiter(watchdog))
        yield Timeout(10.0)
        assert watchdog.active
        assert watchdog.cancel()
        yield Timeout(500.0)

    sim.run_process(proc())
    assert fired == []
    assert sim.now == 510.0


def test_timer_fires_with_value_when_not_cancelled():
    sim = Simulator()

    def proc():
        watchdog = sim.timer(100.0, "bang")
        value = yield watchdog.event
        assert not watchdog.active
        assert not watchdog.cancel()      # too late: already fired
        return value

    assert sim.run_process(proc()) == "bang"


def test_cancelled_timer_still_advances_clock_identically():
    """Lazy cancel: the tombstone still pops at its deadline, so the
    clock trajectory is identical with and without the cancel — the
    property the byte-identity of experiment outputs rests on."""
    def trajectory(cancel):
        sim = Simulator()
        ticks = []

        def proc():
            watchdog = sim.timer(50.0)
            if cancel:
                watchdog.cancel()
            for _ in range(3):
                yield Timeout(40.0)
                ticks.append(sim.now)

        sim.spawn(proc())
        sim.run()
        return ticks, sim.now

    assert trajectory(True) == trajectory(False)


def test_stats_count_fired_and_cancelled_timers():
    WHEEL_STATS.reset()
    sim = Simulator()

    def proc():
        kept = sim.timer(10.0)
        dropped = sim.timer(20.0)
        dropped.cancel()
        dropped.cancel()                  # idempotent: counted once
        yield kept.event

    sim.run_process(proc())
    sim.run()
    assert WHEEL_STATS.snapshot() == {"fired": 1, "cancelled": 1}


def test_bounded_run_does_not_wedge_later_earlier_timers():
    """``run(until=X)`` that stops short of a far deadline must leave
    the queue able to fire timers scheduled afterwards at earlier
    deadlines (the rack's per-epoch heartbeats depend on this)."""
    sim = Simulator()

    def sleeper(delay):
        yield Timeout(delay)

    far = sim.spawn(sleeper(6_080_000.0))
    sim.run(until=0.0)
    assert not far.finished
    near = sim.spawn(sleeper(500.0))
    sim.run(until=1_000.0)
    assert near.finished, "near-deadline timer wedged behind a stale entry"
    assert not far.finished
    sim.run()
    assert far.finished
