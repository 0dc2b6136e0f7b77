"""The discrete-event engine: simulator clock, events, and processes.

Hot-path design (see docs/PERFORMANCE.md): zero-delay work — every
``call_soon``, event trigger, and process hand-off — bypasses the heap
and lands on a FIFO *delta queue* drained at the current timestamp.
Both queues share one monotone sequence counter and :meth:`Simulator.run`
merges them by it, so the documented contract — *equal timestamps fire
in scheduling order* — is preserved exactly; the delta queue is a
faster carrier for the same order, not a new ordering domain
(pinned by ``tests/sim/test_engine_order.py``).
"""

from __future__ import annotations

import heapq
from types import GeneratorType
from typing import TYPE_CHECKING, Any, Callable, Deque, Generator, Iterable, Optional

from collections import deque

from repro.errors import SimulationError
from repro.sim.timers import Timer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.races import RaceDetector

ProcessGen = Generator[Any, Any, Any]

# Triggered events hand their (cleared) callback lists back to the
# simulator for reuse; the cap bounds the memory kept across bursts.
_CB_POOL_MAX = 128

_heappush = heapq.heappush


class Timeout:
    """Command yielded by a process to suspend for ``delay`` ns."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = float(delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeout({self.delay!r})"


class WakeAt:
    """Command yielded by a process to suspend until the *absolute*
    simulated time ``at`` (ns).

    ``Timeout`` advances the clock by ``now + delay`` — one float
    addition chosen by the engine.  Bulk fast-forward paths
    (``docs/PERFORMANCE.md``) instead compute an end-of-train timestamp
    with exactly the same sequence of additions the per-line path would
    have performed, and need to land on *that* float bit-for-bit;
    ``WakeAt`` schedules at the precomputed absolute time with no
    further arithmetic.  ``at`` equal to the current time resumes via
    the delta queue; a past timestamp is an error.
    """

    __slots__ = ("at",)

    def __init__(self, at: float):
        self.at = float(at)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WakeAt({self.at!r})"


class _Failure:
    """Internal envelope carrying a failed event's exception to waiters."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException):
        self.exc = exc


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` triggers it exactly
    once, delivering ``value`` to every waiter.  Waiting on an already
    triggered event resumes the waiter immediately (at the current time).

    Calling :meth:`fail` instead triggers the event *with an exception*:
    every process waiting at a ``yield`` has the exception thrown into it
    at that point, where ordinary ``try/except`` handles it.  A failure
    nobody waits on raises a :class:`SimulationError` diagnostic out of
    :meth:`Simulator.run` so injected faults can never vanish silently;
    :meth:`defuse` suppresses the diagnostic for callers that inspect
    :attr:`exc` out-of-band.

    Callback storage is adaptive: ``None`` (no waiter), a bare callable
    (exactly one waiter — the overwhelmingly common case), or a list
    recycled through the simulator's pool (multiple waiters).  Fire-and-
    forget and single-waiter events never allocate a list at all.
    """

    __slots__ = ("sim", "name", "_value", "_triggered", "_callbacks",
                 "_exc", "_defused")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._value: Any = None
        self._triggered = False
        # None | a single callable | a pooled list of callables.
        self._callbacks: Any = None
        self._exc: Optional[BaseException] = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def failed(self) -> bool:
        return self._triggered and self._exc is not None

    @property
    def exc(self) -> Optional[BaseException]:
        """The failure exception, or None for pending/succeeded events."""
        return self._exc

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        if self._exc is not None:
            raise self._exc
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = value
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            sim = self.sim
            if type(callbacks) is not list:
                # Single waiter: inlined call_soon (the hot path).
                if sim.race_detector is None:
                    sim._seq = seq = sim._seq + 1
                    sim._delta.append((seq, callbacks, (value,)))
                else:
                    sim.call_soon(callbacks, value)
            else:
                if sim.race_detector is None:
                    # Inline the call_soon loop: one shared seq bump per
                    # callback, straight onto the delta queue.
                    delta = sim._delta
                    seq = sim._seq
                    for cb in callbacks:
                        seq += 1
                        delta.append((seq, cb, (value,)))
                    sim._seq = seq
                else:
                    for cb in callbacks:
                        sim.call_soon(cb, value)
                callbacks.clear()
                pool = sim._cb_pool
                if len(pool) < _CB_POOL_MAX:
                    pool.append(callbacks)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with ``exc``; waiters have it thrown at their
        ``yield``."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        if not isinstance(exc, BaseException):
            raise SimulationError(f"Event.fail needs an exception, "
                                  f"got {exc!r}")
        self._triggered = True
        self._exc = exc
        callbacks = self._callbacks
        self._callbacks = None
        sim = self.sim
        if callbacks is None:
            # Nobody is waiting: raise a diagnostic unless a waiter (or a
            # defuse) arrives within the current delta-cycle.
            sim.call_soon(self._unhandled_check)
        elif type(callbacks) is not list:
            self._defused = True
            sim.call_soon(callbacks, _Failure(exc))
        else:
            self._defused = True
            failure = _Failure(exc)
            for cb in callbacks:
                sim.call_soon(cb, failure)
            callbacks.clear()
            pool = sim._cb_pool
            if len(pool) < _CB_POOL_MAX:
                pool.append(callbacks)
        return self

    def defuse(self) -> "Event":
        """Mark this event's (current or future) failure as handled
        out-of-band, suppressing the uncaught-failure diagnostic."""
        self._defused = True
        return self

    def _unhandled_check(self) -> None:
        if not self._defused:
            where = self.name or "event"
            raise SimulationError(
                f"uncaught failure in {where}: {self._exc!r}"
            ) from self._exc

    def add_callback(self, cb: Callable[[Any], None]) -> None:
        """Run ``cb(value)`` when (or immediately-soon if already)
        triggered."""
        if self._triggered:
            if self._exc is not None:
                self._defused = True
                self.sim.call_soon(cb, _Failure(self._exc))
            else:
                self.sim.call_soon(cb, self._value)
        else:
            callbacks = self._callbacks
            if callbacks is None:
                self._callbacks = cb          # first waiter: stored bare
            elif type(callbacks) is list:
                callbacks.append(cb)
            else:
                # Second waiter: promote to a (pooled) list.
                pool = self.sim._cb_pool
                promoted = pool.pop() if pool else []
                promoted.append(callbacks)
                promoted.append(cb)
                self._callbacks = promoted


class Process:
    """A running generator-based process.

    Created via :meth:`Simulator.spawn`.  A ``Process`` is itself waitable:
    yielding it from another process suspends the waiter until this process
    returns, delivering the return value.
    """

    __slots__ = ("sim", "name", "done", "_stack")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = ""):
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self.done = Event(sim, name=f"process {self.name!r}")
        # Explicit call stack of generators: yielding a generator pushes it,
        # StopIteration pops it and sends the return value to the caller.
        self._stack: list[ProcessGen] = [gen]

    @property
    def finished(self) -> bool:
        return self.done.triggered

    @property
    def failed(self) -> bool:
        return self.done.failed

    @property
    def result(self) -> Any:
        """The return value; re-raises the exception for a failed process."""
        return self.done.value

    # -- driving ----------------------------------------------------------

    def _step(self, sent_value: Any) -> None:
        """Advance the top generator with ``sent_value`` and interpret the
        command it yields.  A :class:`_Failure` is thrown into the
        generator at its ``yield``; an exception the generator does not
        handle unwinds the explicit stack and ultimately fails
        :attr:`done` (failing the waiters of this process in turn)."""
        stack = self._stack
        while True:
            gen = stack[-1]
            try:
                if type(sent_value) is _Failure:
                    exc = sent_value.exc
                    sent_value = None
                    command = gen.throw(exc)
                else:
                    command = gen.send(sent_value)
            except StopIteration as stop:
                stack.pop()
                if not stack:
                    self.done.succeed(stop.value)
                    return
                sent_value = stop.value
                continue
            except Exception as exc:     # noqa: BLE001 - fault propagation
                stack.pop()
                if not stack:
                    self.done.fail(exc)
                    return
                sent_value = _Failure(exc)
                continue
            # Dispatch inline, hottest commands first: a Timeout is the
            # single most common yield across every model, a plain Event
            # the second; exact-type tests beat isinstance chains and the
            # slow path keeps subclasses working.
            cls = command.__class__
            if cls is Timeout:
                self.sim.schedule(command.delay, self._step, None)
            elif cls is Event:
                command.add_callback(self._step)
            elif cls is WakeAt:
                self.sim.schedule_at(command.at, self._step, None)
            else:
                self._dispatch(command)
            return

    def _dispatch(self, command: Any) -> None:
        if type(command) is GeneratorType:
            self._stack.append(command)
            self.sim.call_soon(self._step, None)
        elif isinstance(command, Timeout):
            self.sim.schedule(command.delay, self._step, None)
        elif isinstance(command, Event):
            command.add_callback(self._step)
        elif isinstance(command, WakeAt):
            self.sim.schedule_at(command.at, self._step, None)
        elif isinstance(command, Process):
            command.done.add_callback(self._step)
        elif _is_generator(command):
            self._stack.append(command)
            self.sim.call_soon(self._step, None)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported command: "
                f"{command!r}"
            )


def _is_generator(obj: Any) -> bool:
    """Duck-typed fallback for generator-shaped objects that are not
    ``GeneratorType`` (e.g. instrumented wrappers); the common case is
    handled by the exact type check in :meth:`Process._dispatch`."""
    return hasattr(obj, "send") and hasattr(obj, "throw")


class Simulator:
    """Deterministic event loop.

    Events at equal timestamps fire in scheduling order.  Time is a float
    in nanoseconds and never decreases.

    Two queues carry the work: a heap for future timestamps and a FIFO
    *delta queue* for zero-delay callbacks at the current timestamp.
    Every entry carries a globally monotone sequence number and the run
    loop merges the queues by it, so queue placement is invisible to the
    ordering contract.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        # Zero-delay callbacks at the current time, FIFO in seq order.
        # Invariant: entries are only drained at the timestamp they were
        # appended at — time cannot advance while the queue is non-empty.
        self._delta: Deque[tuple[int, Callable[..., None], tuple]] = deque()
        # Recycled Event callback lists (see Event.add_callback).
        self._cb_pool: list[list[Callable[[Any], None]]] = []
        # Sanitizer hooks (see repro.lint.races): when armed, the engine
        # feeds the detector one causal edge per scheduled callback and
        # exposes which task/process is currently executing.  Disarmed
        # (the default), the only cost is an `is None` test per schedule.
        self.race_detector: Optional["RaceDetector"] = None
        self.current_task = 0
        self.current_actor: Any = None

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- checkpointing ----------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Live entries across both queues (heap/delta), cancelled-timer
        tombstones included."""
        return len(self._heap) + len(self._delta)

    @property
    def quiescent(self) -> bool:
        """True when every queue has drained — the state :meth:`run`
        leaves behind (absent an ``until`` cutoff), and the state
        :meth:`checkpoint` wants: nothing pending means no live
        generator frames can be waiting in the queues."""
        return self.pending_count == 0

    def checkpoint(self, root: Any = None, label: str = "") -> Any:
        """Snapshot ``root`` (default: this simulator alone) and
        everything reachable from it into an immutable, forkable
        :class:`~repro.sim.checkpoint.Checkpoint`.

        Pass the object graph that owns this simulator (a Platform, or
        a tuple of platform + workload objects) as ``root`` — restoring
        the checkpoint then yields an independent copy of the whole
        graph, clock and ``(time, seq)`` ordering preserved, ambient
        page-store/work-cache state included.  Raises
        :class:`~repro.errors.CheckpointError` if the graph holds live
        generator-based processes (run to quiescence first).
        """
        from repro.sim.checkpoint import snapshot
        return snapshot(self if root is None else root, label=label)

    @staticmethod
    def restore(cp: Any) -> Any:
        """Fork an independent copy of a checkpointed graph; see
        :meth:`~repro.sim.checkpoint.Checkpoint.restore`."""
        return cp.restore()

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` ns of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        self._seq = seq = self._seq + 1
        if delay == 0.0:
            self._delta.append((seq, fn, args))
        else:
            _heappush(self._heap, (self._now + delay, seq, fn, args))
        if self.race_detector is not None:
            self.race_detector.note_schedule(seq, self.current_task)

    def schedule_at(self, at: float, fn: Callable[..., None],
                    *args: Any) -> None:
        """Run ``fn(*args)`` at the *absolute* simulated time ``at``.

        Unlike :meth:`schedule`, no ``now + delay`` addition is
        performed — the callback fires at exactly the float given, which
        is what the bulk fast-forward layer needs to reproduce per-line
        timestamps bit-for-bit.  ``at == now`` lands on the delta queue.
        """
        if at < self._now:
            raise SimulationError(
                f"cannot schedule into the past: {at} < {self._now}")
        self._seq = seq = self._seq + 1
        if at == self._now:
            self._delta.append((seq, fn, args))
        else:
            _heappush(self._heap, (at, seq, fn, args))
        if self.race_detector is not None:
            self.race_detector.note_schedule(seq, self.current_task)

    # Absolute-time scheduling under its conventional event-loop name.
    call_at = schedule_at

    def call_soon(self, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at the current time, after already queued
        same-time work."""
        self._seq = seq = self._seq + 1
        self._delta.append((seq, fn, args))
        if self.race_detector is not None:
            self.race_detector.note_schedule(seq, self.current_task)

    def event(self) -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout_event(self, delay: float, value: Any = None) -> Event:
        """An event that triggers ``delay`` ns from now."""
        ev = Event(self)
        # Inlined self.schedule(delay, ev.succeed, value): this is the
        # hottest constructor in the transfer models.
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        self._seq = seq = self._seq + 1
        if delay == 0.0:
            self._delta.append((seq, ev.succeed, (value,)))
        else:
            _heappush(self._heap,
                      (self._now + delay, seq, ev.succeed, (value,)))
        if self.race_detector is not None:
            self.race_detector.note_schedule(seq, self.current_task)
        return ev

    def timer(self, delay: float, value: Any = None) -> Timer:
        """A *cancellable* timeout: returns a :class:`Timer` handle whose
        ``event`` triggers with ``value`` after ``delay`` ns unless
        :meth:`Timer.cancel` runs first.

        Cancel is O(1) and lazy — the tombstoned entry still pops at its
        ``(time, seq)`` slot without triggering, so the clock's
        trajectory (and every output byte) is identical whether or not
        the timer was cancelled.  Use this for timeout races that
        usually *don't* fire (doorbell completion waits, RAS watchdogs):
        the skipped trigger saves the dead event delivery that
        ``timeout_event`` would still pay.
        """
        handle = Timer(self)
        self.schedule(delay, handle._fire, value)
        return handle

    def spawn(self, gen: ProcessGen, name: str = "") -> Process:
        """Start a process; it takes its first step at the current time."""
        proc = Process(self, gen, name)
        self.call_soon(proc._step, None)
        return proc

    # -- running ----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Execute events until both queues drain or ``until`` is reached.

        Returns the final simulated time.  When ``until`` is given, the
        clock is advanced exactly to ``until`` even if the last event fired
        earlier.
        """
        # Hot loop: heap/delta/heappop bound locally, and the armed state
        # is sampled once — arm sanitizers *before* calling run() (every
        # Platform path does).  The disarmed loop carries no per-event
        # race-detector probe at all.
        heap = self._heap
        delta = self._delta
        heappop = heapq.heappop
        if self.race_detector is None:
            while heap or delta:
                # Merge the two queues by sequence number: a delta entry
                # is next unless a heap entry at the *same* timestamp was
                # scheduled earlier (the heap head is never in the past).
                if delta:
                    if until is not None and self._now > until:
                        break
                    if heap:
                        head = heap[0]
                        if head[0] == self._now and head[1] < delta[0][0]:
                            heappop(heap)
                            head[2](*head[3])
                            continue
                    entry = delta.popleft()
                    entry[1](*entry[2])
                else:
                    head = heap[0]
                    at = head[0]
                    if until is not None and at > until:
                        break
                    heappop(heap)
                    self._now = at
                    head[2](*head[3])
        else:
            while heap or delta:
                if delta and (not heap or heap[0][0] != self._now
                              or heap[0][1] > delta[0][0]):
                    if until is not None and self._now > until:
                        break
                    seq, fn, args = delta.popleft()
                else:
                    at = heap[0][0]
                    if until is not None and at > until:
                        break
                    at, seq, fn, args = heappop(heap)
                    self._now = at
                self.current_task = seq
                owner = getattr(fn, "__self__", None)
                self.current_actor = owner if isinstance(owner, Process) \
                    else fn
                fn(*args)
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def run_process(self, gen: ProcessGen, name: str = "") -> Any:
        """Spawn ``gen``, run the simulation until it finishes, and return
        its result.  Raises if the queues drain first (deadlock), and
        re-raises the process's own exception if it failed."""
        proc = self.spawn(gen, name)
        # The caller reads `result` below, which re-raises failures, so
        # the in-loop uncaught-failure diagnostic would be redundant.
        proc.done.defuse()
        self.run()
        if not proc.finished:
            raise SimulationError(
                f"simulation deadlocked: process {proc.name!r} never finished"
            )
        return proc.result

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that triggers once every input event has triggered,
        with the list of their values (input order preserved).

        If any input *fails*, the aggregate fails immediately with that
        exception (first failure wins; later outcomes are absorbed)."""
        events = list(events)
        done = Event(self, name="all_of")
        if not events:
            # Deferred trigger keeps "waiting on all_of([])" consistent
            # with the non-empty case (resume via the scheduling queue).
            self.call_soon(done.succeed, [])  # reprolint: disable=PERF401
            return done
        remaining = [len(events)]
        values: list[Any] = [None] * len(events)

        def make_cb(i: int) -> Callable[[Any], None]:
            def cb(value: Any) -> None:
                if done.triggered:
                    return                 # a sibling already failed it
                if type(value) is _Failure:
                    done.fail(value.exc)
                    return
                values[i] = value
                remaining[0] -= 1
                if remaining[0] == 0:
                    done.succeed(list(values))

            return cb

        for i, ev in enumerate(events):
            ev.add_callback(make_cb(i))
        return done

    def any_of(self, events: Iterable[Event]) -> Event:
        """An event that triggers with ``(index, value)`` of the first
        input to trigger (useful for racing a completion against a
        timeout).  If the first outcome is a failure, the aggregate fails
        with it; later outcomes are absorbed either way."""
        events = list(events)
        if not events:
            raise SimulationError("any_of needs at least one event")
        done = Event(self, name="any_of")

        def make_cb(i: int) -> Callable[[Any], None]:
            def cb(value: Any) -> None:
                if done.triggered:
                    return
                if type(value) is _Failure:
                    done.fail(value.exc)
                    return
                done.succeed((i, value))

            return cb

        for i, ev in enumerate(events):
            ev.add_callback(make_cb(i))
        return done
