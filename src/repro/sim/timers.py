"""Cancellable timers for the event engine.

:meth:`Simulator.timer <repro.sim.engine.Simulator.timer>` returns a
:class:`Timer` handle whose entry lives on the simulator's heap like any
other scheduled callback.  Cancellation is **lazy**: :meth:`Timer.cancel`
marks a tombstone, the entry still pops at its ``(time, seq)`` position,
and :meth:`Timer._fire` skips the user-visible trigger.  Cancel is
therefore O(1) with no queue surgery, and the clock advances through a
cancelled deadline exactly as it would through a live one — which is
what keeps experiment outputs independent of whether a watchdog was
cancelled or left to fire.
"""

from __future__ import annotations

from typing import Any

__all__ = ["Timer", "TimerStats", "WHEEL_STATS"]


class TimerStats:
    """Process-global cancellable-timer counters.

    ``fired`` counts timers that triggered, ``cancelled`` timers that
    were cancelled before triggering.  The name ``WHEEL_STATS`` is kept
    for readers that look the counters up by path; the wheel's
    structure counters (cascades, far/overflow inserts, refills, reaped
    tombstones, sweeps) were removed with the wheel.
    """

    __slots__ = ("fired", "cancelled")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.fired = 0
        self.cancelled = 0

    def snapshot(self) -> dict:
        return {"fired": self.fired, "cancelled": self.cancelled}


WHEEL_STATS = TimerStats()


class Timer:
    """A cancellable timer handle from :meth:`Simulator.timer`.

    ``event`` triggers with the timer's value at the deadline unless
    :meth:`cancel` ran first.  Cancellation is a tombstone: the
    scheduled entry still pops at its ``(time, seq)`` and the trigger is
    simply skipped.

    The ``event`` itself is allocated lazily: timeout races that never
    fire — the whole reason this API exists — usually never wait on it
    either (``sim.any_of`` holds its own reference; watchdogs that are
    cancelled every period touch only the handle), so the common
    cancel-before-fire path allocates no Event at all.
    """

    __slots__ = ("_event", "cancelled", "_sim")

    def __init__(self, sim: Any) -> None:
        self._event = None
        self.cancelled = False
        self._sim = sim

    @property
    def event(self) -> Any:
        """The completion event (created on first access)."""
        ev = self._event
        if ev is None:
            from repro.sim.engine import Event
            ev = self._event = Event(self._sim, name="timer")
        return ev

    def cancel(self) -> bool:
        """Stop the timer from triggering; returns False if it already
        fired (too late), True otherwise.  Idempotent."""
        ev = self._event
        if ev is not None and ev._triggered:
            return False
        if not self.cancelled:
            self.cancelled = True
            WHEEL_STATS.cancelled += 1
        return True

    @property
    def active(self) -> bool:
        if self.cancelled:
            return False
        ev = self._event
        return ev is None or not ev._triggered

    def _fire(self, value: Any) -> None:
        if not self.cancelled:
            WHEEL_STATS.fired += 1
            self.event.succeed(value)
