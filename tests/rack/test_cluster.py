"""Rack trajectory determinism: jobs-independence, kill/rebalance.

The determinism contract (docs/RACK.md): a rack run is a pure function
of :class:`~repro.rack.host.RackConfig` — the worker count changes only
wall-clock, never a byte of the result.  These tests pin that at small
scale; CI's ``rack-smoke`` job re-pins it on the full CLI stdout.
"""

from __future__ import annotations

import pytest

from repro.rack import RackConfig, run_rack
from repro.rack.fabric import Fabric

HOSTS = 4
USERS = 2000          # >= cfg.buckets; ~7 epochs, sub-second serial


@pytest.fixture(scope="module")
def serial_result():
    return run_rack(RackConfig(hosts=HOSTS, users=USERS, seed=42), jobs=1)


def test_config_guards():
    with pytest.raises(ValueError):
        RackConfig(hosts=4, users=100, seed=42)        # users < buckets
    with pytest.raises(ValueError):
        RackConfig(hosts=4, users=2000, seed=42, kill=(1, 0.0))
    with pytest.raises(ValueError):
        RackConfig(hosts=4, users=2000, seed=42, kill=(9, 0.4))


def test_every_user_served_at_least_once(serial_result):
    assert serial_result.distinct_users == USERS
    assert serial_result.served >= USERS
    assert serial_result.rebalances == 0
    assert serial_result.killed is None


def test_result_is_byte_identical_across_worker_counts(serial_result):
    """jobs=2 and jobs=4 reproduce the serial trajectory exactly."""
    cfg = RackConfig(hosts=HOSTS, users=USERS, seed=42)
    base = serial_result.stats()
    for jobs in (2, 4):
        stats = run_rack(cfg, jobs=jobs).stats()
        assert stats == base, f"jobs={jobs} diverged"


def test_probe_hook_does_not_perturb_the_trajectory(serial_result):
    cfg = RackConfig(hosts=HOSTS, users=USERS, seed=42)
    probed = run_rack(cfg, jobs=1, probe=lambda epoch: None, probe_every=2)
    assert probed.stats() == serial_result.stats()


def test_host_kill_rebalances_and_keeps_every_slice_served():
    cfg = RackConfig(hosts=HOSTS, users=2 * USERS, seed=42, kill=(1, 0.4))
    result = run_rack(cfg, jobs=1)
    assert result.killed == 1
    assert result.rebalances == 1
    assert result.migrated_records > 0
    # Availability: completions in every time slice of the run — the
    # outage is a dip, never a hole.
    assert len(result.availability) == 10
    assert min(result.availability) > 0, result.availability
    # Requests in flight against the dead host are dropped or nacked,
    # never silently lost; survivors still cover most users (the short
    # run leaves only ~10 % request slack to re-reach users whose
    # arrivals fell inside the outage window).
    assert result.dropped + result.nacked > 0
    assert result.distinct_users >= int(2 * USERS * 0.8)
    # The kill trajectory is jobs-independent too.
    assert run_rack(cfg, jobs=2).stats() == result.stats()


def test_disarmed_kill_plan_is_byte_identical_to_no_plan(serial_result):
    """A fault armed past the end of the run (kill frac >= 1) must not
    change a byte: the armed-plan code path is observationally identical
    to the unarmed one when nothing fires."""
    cfg = RackConfig(hosts=HOSTS, users=USERS, seed=42, kill=(1, 5.0))
    armed = run_rack(cfg, jobs=1)
    assert armed.killed is None and armed.rebalances == 0
    assert armed.stats() == serial_result.stats()


#: ``stats()`` of the small rack (``serial_result``'s config), captured
#: before the epoch loop lost its fast-forward and the fabric its packed
#: wire codec: the per-epoch loop and tuple payloads must reproduce it
#: byte for byte.
PINNED_STATS = {
    "hosts": 4, "users": 2000, "requests": 2200, "served": 2225,
    "dropped": 0, "nacked": 0, "distinct_users": 2000, "epochs": 7,
    "rebalances": 0, "migrated_records": 0, "remote_sent": 85,
    "remote_served": 85, "breaker_trips": 0, "routed_wires": 62,
    "bounced_wires": 0, "store_evictions": 0, "store_keys": 1012,
    "p50_us": 12.500474553179254, "p99_us": 1927.015067385704,
    "mean_us": 78.32397182736544,
    "avail_0": 198, "avail_1": 239, "avail_2": 236, "avail_3": 204,
    "avail_4": 224, "avail_5": 223, "avail_6": 214, "avail_7": 221,
    "avail_8": 179, "avail_9": 287,
}

#: The same capture for a twice-as-large rack whose host 1 is killed at
#: 40 % of the run: bounces, breaker trips, and migration wires all flow.
PINNED_KILL_STATS = {
    "hosts": 4, "users": 4000, "requests": 4400, "served": 3989,
    "dropped": 233, "nacked": 24, "distinct_users": 3530, "epochs": 12,
    "rebalances": 1, "migrated_records": 327, "remote_sent": 176,
    "remote_served": 143, "breaker_trips": 3, "routed_wires": 117,
    "bounced_wires": 2, "store_evictions": 0, "store_keys": 1823,
    "p50_us": 12.149896292570316, "p99_us": 2758.9639123284205,
    "mean_us": 85.64187877478727,
    "avail_0": 438, "avail_1": 441, "avail_2": 443, "avail_3": 442,
    "avail_4": 379, "avail_5": 303, "avail_6": 302, "avail_7": 301,
    "avail_8": 397, "avail_9": 543,
}


def test_small_rack_stats_match_pinned_reference(serial_result):
    assert serial_result.stats() == PINNED_STATS
    assert serial_result.fabric_stats == {
        "epochs_run": 7, "wires": 62, "bounces": 0}


def test_small_rack_stats_match_pinned_reference_with_kill_firing():
    cfg = RackConfig(hosts=HOSTS, users=2 * USERS, seed=42, kill=(1, 0.4))
    result = run_rack(cfg, jobs=1)
    assert result.killed == 1
    assert result.stats() == PINNED_KILL_STATS
    assert result.fabric_stats == {
        "epochs_run": 12, "wires": 117, "bounces": 2}


def test_each_shard_sends_one_wire_per_destination_and_kind_per_epoch(
        monkeypatch):
    """The batching contract (docs/RACK.md): a shard frames everything
    it sends one destination in one epoch as a single wire per message
    kind, so fabric cost scales with destinations, not requests.  Each
    ``Fabric.push`` call is one shard's outbox for one epoch (or one
    switch bounce); together they must account for every wire routed."""
    pushes = []
    push = Fabric.push

    def recording_push(self, wires):
        wires = tuple(wires)
        pushes.append(wires)
        push(self, wires)

    monkeypatch.setattr(Fabric, "push", recording_push)
    cfg = RackConfig(hosts=HOSTS, users=2 * USERS, seed=42, kill=(1, 0.4))
    result = run_rack(cfg, jobs=1)
    assert sum(len(wires) for wires in pushes) \
        == result.fabric_stats["wires"] > 0
    kinds = set()
    for wires in pushes:
        keys = [(w.src, w.dst, w.kind) for w in wires]
        assert len(set(keys)) == len(keys), keys
        kinds.update(w.kind for w in wires)
    assert kinds == {"req", "rep", "nack", "migrate"}
