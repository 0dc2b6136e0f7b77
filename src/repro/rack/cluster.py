"""Rack coordinator: boot N shard hosts, step them epoch-BSP, rebalance.

:func:`run_rack` is the tentpole entry point.  It measures one shared
:class:`~repro.kernel.daemons.CostProfile` on a calibration platform,
hands that frozen profile to every shard (so no shard re-measures, and
no platform crosses a process boundary), boots one
:class:`~repro.rack.host.ShardHost` per host on a
:class:`~repro.sim.parallel.ShardPool`, and then runs the epoch loop:

1. collect the fabric's deliveries for ``[t0, t1)`` — wires to retired
   hosts bounce back as nacks;
2. step every shard with its wires + any pending cluster directives
   (reports come back merged in shard-id order, any worker count);
3. route the outboxes into the fabric, in shard-id order;
4. watch health: a shard reporting FAILED is scheduled for rebalance —
   next epoch it receives a ``handoff`` directive (drain its buckets to
   their new owners over the fabric) while everyone else receives the
   post-removal ``ring``.

Because the coordinator is single-threaded and the pool merges reports
in shard-id order, the entire trajectory — and therefore the result —
is a pure function of :class:`~repro.rack.host.RackConfig`, independent
of ``--jobs``.  ``tests/rack/test_cluster.py`` pins this byte-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.offload import OffloadEngine
from repro.core.platform import Platform
from repro.errors import SimulationError
from repro.faults import HealthState
from repro.kernel.daemons import CostProfile
from repro.rack.fabric import FABRIC_STATS, Fabric
from repro.rack.host import (AVAIL_BUCKETS, RackConfig, ShardHost,
                             FinalReport, rack_calibration_seed)
from repro.sim.parallel import ShardPool
from repro.sim.stats import StreamingLatencyStats

#: Epochs the rack may keep running past the configured duration to
#: drain in-flight fabric traffic and rebalance backlogs.
DRAIN_EPOCH_LIMIT = 64


@dataclass
class RackResult:
    """Everything a rack run produced, merged across shards."""

    cfg: RackConfig
    recorder: StreamingLatencyStats
    served: int
    dropped: int
    nacked: int
    distinct_users: int
    availability: Tuple[int, ...]      # completions per time slice
    epochs: int
    jobs: int
    killed: Optional[int]
    rebalances: int
    migrated_records: int
    remote_sent: int
    remote_served: int
    breaker_trips: int
    bounced_wires: int
    routed_wires: int
    routed_bytes: int
    store_evictions: int
    store_keys: int
    finals: Tuple[FinalReport, ...]
    #: Per-run :data:`~repro.rack.fabric.FABRIC_STATS` delta: epochs
    #: run, wires, bounces.  Telemetry only — never part of stdout.
    fabric_stats: Dict[str, int] = field(default_factory=dict)

    def stats(self) -> Dict[str, float]:
        """Deterministic scalar summary (what the CLI prints)."""
        out = {
            "hosts": self.cfg.hosts,
            "users": self.cfg.users,
            "requests": self.cfg.requests_effective,
            "served": self.served,
            "dropped": self.dropped,
            "nacked": self.nacked,
            "distinct_users": self.distinct_users,
            "epochs": self.epochs,
            "rebalances": self.rebalances,
            "migrated_records": self.migrated_records,
            "remote_sent": self.remote_sent,
            "remote_served": self.remote_served,
            "breaker_trips": self.breaker_trips,
            "routed_wires": self.routed_wires,
            "bounced_wires": self.bounced_wires,
            "store_evictions": self.store_evictions,
            "store_keys": self.store_keys,
            "p50_us": self.recorder.percentile(50) / 1e3,
            "p99_us": self.recorder.percentile(99) / 1e3,
            "mean_us": self.recorder.mean() / 1e3,
        }
        for i, n in enumerate(self.availability):
            out[f"avail_{i}"] = n
        return out


def _calibration_profile(cfg: RackConfig) -> CostProfile:
    """Measure the shared CostProfile once, on a calibration platform.

    The calibration platform's seed depends only on ``cfg.seed`` (not on
    any shard id), so every shard gets the profile it would have
    measured itself — sharing it is a pure accelerator.
    """
    platform = Platform(seed=rack_calibration_seed(cfg))
    engine = OffloadEngine(platform)
    return CostProfile.from_engine(platform, engine, "cxl")


def _boot_shard(sid: int, cfg: RackConfig,
                profile: CostProfile) -> ShardHost:
    """ShardPool boot hook: build a host on the shared profile."""
    return ShardHost(sid, cfg, profile)


def run_rack(cfg: RackConfig, jobs=None, probe=None,
             probe_every: int = 0) -> RackResult:
    """Run one full rack trajectory; byte-identical for any ``jobs``.

    ``probe`` (with ``probe_every`` > 0) is called as ``probe(epoch)``
    every ``probe_every`` epochs — a coordinator-side hook for
    wall-clock telemetry like RSS sampling.  It must not touch
    simulated state; the trajectory is the same with or without it.
    """
    profile = _calibration_profile(cfg)
    sids = list(range(cfg.hosts))
    epoch_ns = cfg.fabric.epoch_ns
    duration = cfg.duration_ns
    n_epochs = int(math.ceil(duration / epoch_ns))
    fabric = Fabric(cfg.fabric)
    stats_before = FABRIC_STATS.snapshot()

    alive = set(sids)
    retired: set = set()
    to_rebalance: List[int] = []     # FAILED, awaiting handoff directive
    directives: Dict[int, List[tuple]] = {sid: [] for sid in sids}
    availability = [0] * AVAIL_BUCKETS
    dropped_replies = 0
    rebalances = 0
    nacked = 0
    killed: Optional[int] = None

    with ShardPool("rack", sids, _boot_shard, (cfg, profile),
                   jobs=jobs) as pool:
        effective_jobs = pool.jobs
        epoch = 0
        while True:
            t0 = epoch * epoch_ns
            t1 = t0 + epoch_ns
            delivered = fabric.deliveries(t0, t1)
            payloads: Dict[int, dict] = {}
            for sid in sids:
                wires = delivered.get(sid, ())
                if sid in retired:
                    # Off the ring: the switch bounces requests back to
                    # their senders; stale replies/nacks are dropped.
                    for wire in wires:
                        if wire.kind == "req":
                            fabric.bounce(wire, t1)
                        else:
                            dropped_replies += 1
                    wires = ()
                payloads[sid] = {"op": "epoch", "epoch": epoch,
                                 "t0": t0, "t1": t1, "wires": wires,
                                 "directives": directives[sid]}
                directives[sid] = []
            reports = pool.step(payloads)
            FABRIC_STATS.epochs_run += 1

            backlog = 0
            for sid in sids:
                rep = reports[sid]
                fabric.push(rep.outbox)
                backlog += rep.backlog
                nacked += rep.nacked
                if rep.retired and sid not in retired:
                    retired.add(sid)
                if (rep.health == HealthState.FAILED.value
                        and sid in alive):
                    alive.discard(sid)
                    to_rebalance.append(sid)
                    killed = sid
            if to_rebalance:
                if len(alive) == 0:
                    raise SimulationError("rack lost every host")
                new_hosts = tuple(sorted(alive))
                for dead in to_rebalance:
                    directives[dead].append(("handoff", new_hosts))
                for sid in sorted(alive):
                    directives[sid].append(("ring", new_hosts))
                rebalances += 1
                to_rebalance = []

            if probe is not None and probe_every > 0 \
                    and epoch % probe_every == 0:
                probe(epoch)
            epoch += 1
            done_load = epoch >= n_epochs
            drained = (fabric.in_flight == 0 and backlog == 0
                       and not any(directives[s] for s in sids))
            if done_load and drained:
                break
            if epoch >= n_epochs + DRAIN_EPOCH_LIMIT:
                raise SimulationError(
                    f"rack failed to drain within {DRAIN_EPOCH_LIMIT} "
                    f"epochs past the run ({fabric.in_flight} wires, "
                    f"backlog {backlog})")

        finals = pool.step({sid: {"op": "finalize"} for sid in sids})

    merged = StreamingLatencyStats()
    served = dropped = distinct = migrated = 0
    remote_sent = remote_served = trips = evictions = keys = 0
    for sid in sids:
        fin = finals[sid]
        merged.merge(fin.recorder)
        served += fin.served
        dropped += fin.dropped
        distinct += fin.distinct_users
        for i, n in enumerate(fin.availability):
            availability[i] += n
        migrated += fin.migrated_in
        remote_sent += fin.remote_sent
        remote_served += fin.remote_served
        trips += fin.breaker_trips
        evictions += fin.store_evictions
        keys += fin.store_keys

    return RackResult(
        cfg=cfg, recorder=merged, served=served, dropped=dropped,
        nacked=nacked, distinct_users=distinct,
        availability=tuple(availability), epochs=epoch, jobs=effective_jobs,
        killed=killed, rebalances=rebalances, migrated_records=migrated,
        remote_sent=remote_sent, remote_served=remote_served,
        breaker_trips=trips, bounced_wires=fabric.bounced_wires,
        routed_wires=fabric.routed_wires, routed_bytes=fabric.routed_bytes,
        store_evictions=evictions, store_keys=keys,
        finals=tuple(finals[sid] for sid in sids),
        fabric_stats={name: after - stats_before[name]
                      for name, after in FABRIC_STATS.snapshot().items()},
    )
