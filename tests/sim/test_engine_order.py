"""Same-timestamp ordering guarantees of the event engine.

The engine's documented contract is *equal timestamps fire in scheduling
order*, and every figure in the reproduction leans on it: a refactor
that reorders same-time callbacks silently changes tables without
failing a conventional unit test.  These tests pin the contract from
every angle the models use — ``call_soon`` vs ``schedule(0)`` vs
delayed events landing at an equal ``now``, aggregate events, and
``Resource`` grant fairness under release storms — so the fast-path
engine work (docs/PERFORMANCE.md) refactors against a fixed spec.

Written against the pre-delta-queue engine; any engine change must keep
every test green unmodified.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator, Timeout
from repro.sim.resources import Pipe, Resource


# ---------------------------------------------------------------------------
# call_soon / schedule(0) / delayed arrivals at one timestamp
# ---------------------------------------------------------------------------


def test_call_soon_is_fifo(sim):
    order = []
    for tag in range(8):
        sim.call_soon(order.append, tag)
    sim.run()
    assert order == list(range(8))


def test_call_soon_and_schedule_zero_interleave_in_scheduling_order(sim):
    order = []
    sim.call_soon(order.append, "soon-1")
    sim.schedule(0.0, order.append, "zero-1")
    sim.call_soon(order.append, "soon-2")
    sim.schedule(0.0, order.append, "zero-2")
    sim.run()
    assert order == ["soon-1", "zero-1", "soon-2", "zero-2"]


def test_delayed_event_beats_later_call_soon_at_equal_now(sim):
    """A delayed callback landing at t=5 was scheduled before the
    call_soon issued *while handling* an earlier t=5 callback, so it
    must fire first: scheduling order, not queue-of-origin, decides."""
    order = []

    def first():
        order.append("first")
        # Scheduled at t=5 *after* `second` (seq order): must run after it.
        sim.call_soon(order.append, "soon-from-first")

    sim.schedule(5.0, first)
    sim.schedule(5.0, order.append, "second")
    sim.run()
    assert order == ["first", "second", "soon-from-first"]


def test_zero_delay_chain_runs_before_time_advances(sim):
    trace = []

    def chain(depth):
        trace.append((sim.now, depth))
        if depth:
            sim.call_soon(chain, depth - 1)

    sim.call_soon(chain, 3)
    sim.schedule(1.0, trace.append, (1.0, "tick"))
    sim.run()
    assert trace == [(0.0, 3), (0.0, 2), (0.0, 1), (0.0, 0), (1.0, "tick")]


def test_call_soon_issued_before_run_fires_at_current_time(sim):
    """call_soon before run() fires at t=0 even when an earlier-seq heap
    entry exists at a later time."""
    order = []
    sim.schedule(5.0, order.append, "late")
    sim.call_soon(order.append, "now")
    sim.run()
    assert order == ["now", "late"]
    assert sim.now == 5.0


def test_mixed_sources_all_land_at_same_time(sim):
    """Timeout-driven, schedule(0)-driven and call_soon-driven work at
    one timestamp fires strictly in the order it was scheduled."""
    order = []

    def proc(tag):
        yield Timeout(2.0)
        order.append(tag)

    sim.spawn(proc("p0"))                    # seq: spawn step, then t=2 step
    sim.schedule(2.0, order.append, "direct")
    sim.spawn(proc("p1"))
    sim.run()
    # p0's timeout was scheduled during its first step (at t=0, seq
    # before `direct`'s)?  No: `direct` is scheduled at spawn time,
    # before either process has taken its first step, so it wins.
    assert order == ["direct", "p0", "p1"]


def test_run_until_does_not_run_same_time_work_past_until(sim):
    order = []
    sim.schedule(4.0, order.append, "a")
    sim.run(until=4.0)
    sim.call_soon(order.append, "b")
    sim.run(until=2.0)       # until in the past: nothing may fire
    assert order == ["a"]
    sim.run()
    assert order == ["a", "b"]


def test_spawn_order_is_execution_order(sim):
    order = []

    def proc(tag):
        order.append(("start", tag))
        yield Timeout(1.0)
        order.append(("end", tag))

    for tag in range(4):
        sim.spawn(proc(tag))
    sim.run()
    assert order == [("start", 0), ("start", 1), ("start", 2), ("start", 3),
                     ("end", 0), ("end", 1), ("end", 2), ("end", 3)]


def test_event_succeed_wakes_waiters_in_wait_order(sim):
    ev = sim.event()
    order = []

    def waiter(tag):
        yield ev
        order.append(tag)

    for tag in range(5):
        sim.spawn(waiter(tag))
    sim.schedule(3.0, ev.succeed, None)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_already_triggered_event_resumes_after_queued_work(sim):
    """Waiting on a triggered event defers to already-queued same-time
    callbacks (the resume goes through the scheduling queue)."""
    ev = sim.event()
    ev.succeed("v")
    order = []

    def waiter():
        sim.call_soon(order.append, "queued-before-yield")
        value = yield ev
        order.append(f"resumed-{value}")

    sim.spawn(waiter())
    sim.run()
    assert order == ["queued-before-yield", "resumed-v"]


# ---------------------------------------------------------------------------
# all_of / any_of
# ---------------------------------------------------------------------------


def test_all_of_same_time_triggers_preserve_input_order(sim):
    events = [sim.timeout_event(3.0, tag) for tag in "abc"]

    def waiter():
        values = yield sim.all_of(events)
        return values

    assert sim.run_process(waiter()) == ["a", "b", "c"]


def test_all_of_fires_in_same_delta_cycle_as_last_input(sim):
    order = []
    events = [sim.timeout_event(2.0, i) for i in range(3)]

    def waiter():
        yield sim.all_of(events)
        order.append(("all_of", sim.now))

    sim.spawn(waiter())
    sim.schedule(2.0, order.append, ("direct", 2.0))
    sim.run()
    assert sim.now == 2.0
    assert order == [("direct", 2.0), ("all_of", 2.0)]


def test_any_of_same_time_first_scheduled_wins(sim):
    """Two inputs trigger at the same timestamp: the one scheduled
    first delivers its (index, value); the other is absorbed."""
    ev_a = sim.event()
    ev_b = sim.event()
    sim.schedule(4.0, ev_b.succeed, "b")     # scheduled first: wins
    sim.schedule(4.0, ev_a.succeed, "a")

    def waiter():
        result = yield sim.any_of([ev_a, ev_b])
        return result

    assert sim.run_process(waiter()) == (1, "b")


def test_any_of_timeout_race_is_deterministic(sim):
    """The completion-vs-timeout race the offload engine runs: at the
    exact deadline, the earlier-scheduled event wins every run."""
    deadline = sim.timeout_event(10.0, "deadline")   # scheduled first
    work = sim.timeout_event(10.0, "work")

    def waiter():
        index, value = yield sim.any_of([work, deadline])
        return index, value

    assert sim.run_process(waiter()) == (1, "deadline")


# ---------------------------------------------------------------------------
# Resource fairness
# ---------------------------------------------------------------------------


def test_resource_grants_fifo_under_contention(sim):
    res = Resource(sim, capacity=1)
    order = []

    def worker(tag):
        yield res.acquire()
        order.append(tag)
        yield Timeout(1.0)
        res.release()

    for tag in range(6):
        sim.spawn(worker(tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4, 5]


def test_resource_release_storm_wakes_waiters_in_arrival_order(sim):
    """All holders release at one timestamp; the queued waiters must be
    admitted oldest-first regardless of release order."""
    res = Resource(sim, capacity=4)
    admitted = []

    def holder(tag):
        yield res.acquire()
        yield Timeout(5.0)
        res.release()

    def waiter(tag):
        yield Timeout(1.0)           # arrive after holders hold
        yield res.acquire()
        admitted.append((sim.now, tag))
        res.release()

    for tag in range(4):
        sim.spawn(holder(tag))
    for tag in range(8):
        sim.spawn(waiter(tag))
    sim.run()
    assert [tag for _, tag in admitted] == list(range(8))
    # All four slots free at t=5; every waiter admitted there.
    assert all(t == 5.0 for t, _ in admitted)


def test_resource_handoff_does_not_leak_capacity(sim):
    res = Resource(sim, capacity=2)
    peak = []

    def worker(tag):
        yield res.acquire()
        peak.append(res.in_use)
        yield Timeout(2.0)
        res.release()

    for tag in range(10):
        sim.spawn(worker(tag))
    sim.run()
    assert max(peak) <= 2
    assert res.in_use == 0
    with pytest.raises(SimulationError):
        res.release()


def test_pipe_delivers_in_put_order_to_getters_in_arrival_order(sim):
    pipe = Pipe(sim)
    got = []

    def getter(tag):
        value = yield pipe.get()
        got.append((tag, value))

    for tag in range(3):
        sim.spawn(getter(tag))

    def producer():
        yield Timeout(1.0)
        for item in "xyz":
            pipe.put(item)

    sim.spawn(producer())
    sim.run()
    assert got == [(0, "x"), (1, "y"), (2, "z")]


# ---------------------------------------------------------------------------
# Sequence numbers keep monotonicity across run() calls (the race
# detector's causality walk depends on it)
# ---------------------------------------------------------------------------


def test_interleaved_runs_preserve_scheduling_order(sim):
    order = []
    sim.schedule(10.0, order.append, "late-1")
    sim.run(until=5.0)
    sim.schedule(5.0, order.append, "late-2")   # lands at t=10 too
    sim.call_soon(order.append, "mid")          # fires at t=5
    sim.run()
    assert order == ["mid", "late-1", "late-2"]


def test_new_simulator_is_reproducible():
    def drive():
        sim = Simulator()
        order = []

        def proc(tag):
            for _ in range(3):
                yield Timeout(1.5)
                order.append((sim.now, tag))

        for tag in range(3):
            sim.spawn(proc(tag))
        sim.call_soon(order.append, "first")
        sim.run()
        return order

    assert drive() == drive()


# ---------------------------------------------------------------------------
# Generated interleavings of heap/delta/timer traffic: a pinned literal
# trace (captured from the engine before any alternative timer carrier
# existed) guards the order itself, and arming the race detector must
# only observe, never perturb it.
# ---------------------------------------------------------------------------

from hypothesis import given, settings          # noqa: E402
from hypothesis import strategies as st         # noqa: E402

from repro.lint.races import RaceDetector       # noqa: E402

# Delays spanning the delta queue (0), a float-extreme tiny delay, and
# deadlines from a few ns to ~80 s out.
_DELAYS = (0.0, 1e-9, 0.5, 7.0, 4095.0, 4096.0,
           50_000.0, 3_000_000.0, 400_000_000.0, 80_000_000_000.0)

_op = st.one_of(
    st.tuples(st.just("timeout_chain"), st.sampled_from(_DELAYS),
              st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("schedule"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("call_soon")),
    st.tuples(st.just("timer"), st.sampled_from(_DELAYS),
              st.sampled_from(_DELAYS + (None,))),
)


def _replay(program, armed=False):
    """Run one generated schedule; return the full observable trace:
    (now, tag) in fire order, final clock, final sequence counter."""
    sim = Simulator()
    if armed:
        RaceDetector(sim, strict=False).arm()
    trace = []

    def chain(tag, delay, steps):
        for k in range(steps):
            yield Timeout(delay)
            trace.append((sim.now, f"chain{tag}.{k}"))

    def guarded(tag, work, timeout):
        watchdog = sim.timer(timeout, f"{tag}-late")
        index, value = yield sim.any_of(
            [sim.timeout_event(work, f"{tag}-ok"), watchdog.event])
        if index == 0:
            watchdog.cancel()
        trace.append((sim.now, f"{tag}={value}"))

    for i, op in enumerate(program):
        if op[0] == "timeout_chain":
            sim.spawn(chain(i, op[1], op[2]))
        elif op[0] == "schedule":
            sim.schedule(op[1], trace.append, (i, "sched"))
        elif op[0] == "call_soon":
            sim.call_soon(trace.append, (i, "soon"))
        else:
            work = op[1]
            timeout = op[2] if op[2] is not None else op[1] + 1.0
            sim.spawn(guarded(f"g{i}", work, timeout))
    sim.run()
    return trace, sim.now, sim._seq


@settings(max_examples=25, deadline=None)
@given(st.lists(_op, min_size=1, max_size=10))
def test_property_race_detector_armed_does_not_perturb_trace(program):
    assert _replay(program, armed=True) == _replay(program, armed=False)


def test_trace_matches_pinned_reference():
    """One handcrafted interleaving with its full trace pinned
    literally, armed and disarmed."""
    program = [("call_soon",), ("schedule", 0.0), ("timeout_chain", 7.0, 2),
               ("timer", 0.5, None), ("schedule", 50_000.0),
               ("timeout_chain", 0.0, 1)]
    expected = ([(0, "soon"), (1, "sched"), (0.0, "chain5.0"),
                 (0.5, "g3=g3-ok"), (7.0, "chain2.0"), (14.0, "chain2.1"),
                 (4, "sched")],
                50_000.0, 13)
    assert _replay(program) == expected
    assert _replay(program, armed=True) == expected


def test_experiment_cell_byte_identical_with_sanitizers_armed(monkeypatch):
    """A real fig8 zswap cell — doorbell watchdogs, cancelled timers,
    open loop clients — produces identical results with sanitizers
    armed and disarmed."""
    import dataclasses

    import repro.experiments.fig8_tail_latency as fig8
    from repro.config import SanitizerConfig
    from repro.experiments.fig8_tail_latency import (ScenarioConfig,
                                                     run_zswap_cell)
    from repro.units import ms

    scenario = ScenarioConfig(duration_ns=ms(20.0))
    disarmed = run_zswap_cell("a", "cxl", scenario)

    armed = SanitizerConfig(coherence=True, races=True, strict=True)
    base_config = fig8.sub_numa_half_system()
    monkeypatch.setattr(
        fig8, "sub_numa_half_system",
        lambda: dataclasses.replace(base_config, sanitizers=armed))
    assert run_zswap_cell("a", "cxl", scenario) == disarmed


def test_fig8_sweep_byte_identical_at_jobs_1_and_4():
    """The full sweep fans out across worker processes; the job count
    may not change a single cell."""
    from repro.experiments.fig8_tail_latency import ScenarioConfig, run
    from repro.units import ms

    scenario = ScenarioConfig(duration_ns=ms(10.0))

    def sweep(jobs):
        return run(features=("zswap",), workloads=("a",),
                   backends=("none", "cxl"), scenario=scenario, jobs=jobs)

    assert sweep(4) == sweep(1)
