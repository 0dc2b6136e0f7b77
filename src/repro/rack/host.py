"""One simulated rack host: a full Platform + CXL device serving a shard.

A :class:`ShardHost` owns a slice of the key space (buckets assigned by
the consistent-hash ring), a bounded hot-tier KVS, ``servers_per_host``
FIFO server lanes, and a real :class:`~repro.core.platform.Platform`
whose CXL link carries a per-epoch heartbeat offload — the RAS hook:
when the link dies (``link_dead`` in the armed
:class:`~repro.faults.FaultPlan`), the heartbeat's retries exhaust the
:class:`~repro.faults.DeviceHealthMonitor` budget and the host reports
FAILED, which is what triggers the cluster's rebalance.

Execution is epoch-BSP: :meth:`step` receives one
``{"op": "epoch", ...}`` payload per epoch — inbound fabric wires plus
cluster directives — and returns an :class:`EpochReport` whose outbox
the coordinator routes.  All serving math is vectorized per epoch
(numpy Lindley recursion per lane), so per-request Python work is one
recorder update and, for writes, one store insert.  Everything a shard
does is a pure function of ``(sid, config, payload sequence)`` — the
determinism contract that lets shards run in any worker process.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.apps.kvs import (BASE_SERVICE_NS, UPDATE_EXTRA_NS,
                            BoundedKeyValueStore)
from repro.core.offload import OffloadEngine
from repro.core.platform import Platform
from repro.errors import ConfigError, FaultError
from repro.faults import FaultPlan
from repro.rack.fabric import FabricConfig, FabricPort, Wire
from repro.rack.ring import HashRing
from repro.resilience import CircuitBreaker
from repro.sim.parallel import derive_seed
from repro.sim.rng import DeterministicRng
from repro.sim.stats import StreamingLatencyStats

#: Nominal mean service time used to size the run duration from the
#: request budget (the measured profile only shifts it by ~1 %).
NOMINAL_SERVICE_NS = BASE_SERVICE_NS + 0.5 * UPDATE_EXTRA_NS + 200.0

#: Time-sliced availability histogram resolution (fractions of the
#: run).  Completions are bucketed by their own completion time, so the
#: histogram is exact at any epoch count.
AVAIL_BUCKETS = 10


@dataclass(frozen=True)
class RackConfig:
    """Everything a rack run is a function of (plus ``--jobs``, which
    only changes wall-clock time)."""

    hosts: int = 16
    users: int = 10_000_000
    #: 0 = derive from ``users`` (1.1 requests per user, so every
    #: bucket's cycle covers all its users with margin).
    requests: int = 0
    seed: int = 42
    buckets: int = 1024
    vnodes: int = 64
    servers_per_host: int = 8
    update_frac: float = 0.5
    remote_frac: float = 0.05
    hot_capacity: int = 65_536
    #: Client updates amortized per CXL page flush (64 B values).
    updates_per_flush: int = 64
    #: Target per-lane utilization; with the nominal service time this
    #: fixes the run duration for a given request budget.
    target_utilization: float = 0.45
    #: ``(victim_sid, fraction_of_duration)`` — arm ``link_dead`` on the
    #: victim at that point of the run; None = no kill.
    kill: Optional[Tuple[int, float]] = None
    fabric: FabricConfig = field(default_factory=FabricConfig)

    def __post_init__(self) -> None:
        if self.hosts < 1:
            raise ConfigError(f"need at least one host: {self.hosts}")
        if self.buckets < self.hosts:
            raise ConfigError(
                f"buckets ({self.buckets}) < hosts ({self.hosts})")
        if self.users < self.buckets:
            raise ConfigError(
                f"users ({self.users}) < buckets ({self.buckets})")
        if self.kill is not None:
            victim, frac = self.kill
            if not 0 <= victim < self.hosts:
                raise ConfigError(f"kill victim {victim} out of range")
            if frac <= 0.0:
                raise ConfigError(f"kill fraction must be positive: {frac}")
            # frac >= 1 is legal: the fault is armed but never fires
            # (the disarmed-identity contract in tests/rack).

    @property
    def requests_effective(self) -> int:
        if self.requests > 0:
            return self.requests
        return (self.users * 11 + 9) // 10

    @property
    def duration_ns(self) -> float:
        lanes = self.hosts * self.servers_per_host
        rate_per_lane = self.target_utilization / NOMINAL_SERVICE_NS
        return self.requests_effective / (lanes * rate_per_lane)

    @property
    def kill_at_ns(self) -> Optional[float]:
        if self.kill is None:
            return None
        return self.kill[1] * self.duration_ns

    def bucket_users(self, bucket: int) -> int:
        """How many user ids in ``range(users)`` map to ``bucket``
        (users are assigned ``user % buckets``)."""
        return self.users // self.buckets + \
            (1 if bucket < self.users % self.buckets else 0)


@dataclass
class EpochReport:
    """What one shard tells the coordinator after an epoch."""

    sid: int
    epoch: int
    health: str
    retired: bool
    outbox: Tuple[Wire, ...]
    served: int        # completions this epoch (local + remote-side)
    replies: int       # cross-shard replies absorbed (requester side)
    dropped: int       # local arrivals lost to a dead link
    nacked: int        # inbound requests bounced while dead
    backlog: int       # buffered remote items + buckets awaiting migrate


@dataclass
class FinalReport:
    """End-of-run state: the shard's recorder plus accounting."""

    sid: int
    health: str
    retired: bool
    recorder: StreamingLatencyStats
    served: int
    dropped: int
    availability: Tuple[int, ...]
    distinct_users: int
    bucket_cursors: Dict[int, int]
    store_keys: int
    store_sets: int
    store_gets: int
    store_evictions: int
    migrated_in: int
    migrated_out: int
    remote_sent: int
    remote_served: int
    breaker_trips: int
    engine_timeouts: int
    engine_retries: int
    engine_fault_errors: int


def _lindley(carry_wait: float, y: np.ndarray) -> np.ndarray:
    """Vectorized Lindley recursion: ``W[k] = max(0, W[k-1] + y[k])``
    with ``W[0-] = carry_wait``.  ``y[k] = s[k-1] - (a[k] - a[k-1])``
    gives each FIFO request's wait-before-service."""
    s = np.cumsum(y)
    prefix = np.minimum.accumulate(np.concatenate(([0.0], s[:-1])))
    return np.maximum(0.0, s - np.minimum(prefix, -carry_wait))


def rack_calibration_seed(cfg: RackConfig) -> int:
    """The (shard-independent) seed of the calibration platform, so one
    measured :class:`~repro.kernel.daemons.CostProfile` serves every
    shard."""
    return derive_seed(cfg.seed, "rack-calibration")


class ShardHost:
    """One shard: platform, ring slice, lanes, stores, fabric port."""

    def __init__(self, sid: int, cfg: RackConfig, profile) -> None:
        self.sid = sid
        self.cfg = cfg
        seed = derive_seed(cfg.seed, ("shard", sid))
        self.platform = Platform(seed=seed)
        self.engine = OffloadEngine(self.platform)
        if cfg.kill is not None and cfg.kill[0] == sid:
            plan = FaultPlan.parse(f"link_dead@t={cfg.kill_at_ns:.1f}",
                                   seed=derive_seed(seed, "kill"))
            self.platform.arm_faults(plan)
        rng = DeterministicRng(seed)
        self._arr_rng = rng.fork(11)    # interarrival stream
        self._svc_rng = rng.fork(12)    # local service jitter
        self._mix_rng = rng.fork(13)    # op mix / remote choice / partner
        self._rsvc_rng = rng.fork(14)   # remote-lane service jitter

        self.port = FabricPort(sid, cfg.fabric)
        self.ring = HashRing(range(cfg.hosts), cfg.seed, cfg.vnodes)
        self.store = BoundedKeyValueStore(cfg.hot_capacity)
        self.recorder = StreamingLatencyStats()
        self.avail = np.zeros(AVAIL_BUCKETS, dtype=np.int64)

        # Per-update CXL cost: one measured compress+flush of a 4 KiB
        # page amortized over the updates that fill it.
        flush_ns = profile.compress.total_ns / cfg.updates_per_flush
        self._read_service_ns = BASE_SERVICE_NS
        self._update_service_ns = BASE_SERVICE_NS + UPDATE_EXTRA_NS + flush_ns

        # Server lanes 0..S-1 serve local arrivals round-robin; lane S
        # serves inbound cross-shard requests.  Carry state per lane:
        # last arrival / its wait / its service (Lindley continuity).
        lanes = cfg.servers_per_host + 1
        self._lane_arr = [0.0] * lanes
        self._lane_wait = [0.0] * lanes
        self._lane_svc = [0.0] * lanes
        self._lane_cursor = 0

        # Bucket ownership.  cursors count arrivals ever routed to each
        # bucket (they travel with the bucket on migration, so distinct-
        # user accounting is conserved across a rebalance).
        self._cursor = np.zeros(cfg.buckets, dtype=np.int64)
        self._owner_arr = np.empty(cfg.buckets, dtype=np.int64)
        for b in range(cfg.buckets):
            self._owner_arr[b] = self.ring.owner(b)
        self.owned: List[int] = [int(b) for b in
                                 np.nonzero(self._owner_arr == sid)[0]]
        self.pending_buckets: set = set()
        self._owned_arr = np.empty(0, dtype=np.int64)
        self._countb_arr = np.empty(0, dtype=np.int64)
        self._offset_arr = np.empty(0, dtype=np.int64)
        self._arrival_idx = 0
        self._mean_ia: Optional[float] = None
        self._rebuild_owned()
        self._next_arrival = (self._arr_rng.exponential(self._mean_ia)
                              if self._mean_ia is not None else float("inf"))

        # Cross-shard requests buffered per destination until the epoch
        # flush (one bulk wire per destination), and
        # a per-destination breaker that stops hammering a dead peer
        # while the rack converges.
        self._pending_remote: Dict[int, List[Tuple[int, float]]] = \
            defaultdict(list)
        self._retry_items: List[Tuple[int, float]] = []
        self._breakers: Dict[int, CircuitBreaker] = {}

        self.dead = False
        self.retired = False
        self.served = 0
        self.dropped = 0
        self.replies = 0
        self.nacked = 0
        self.remote_sent = 0
        self.remote_served = 0
        self.migrated_in = 0
        self.migrated_out = 0

    # -- ownership ---------------------------------------------------------

    def _rebuild_owned(self) -> None:
        """Refresh the vectorized ownership tables after any change to
        ``self.owned`` (boot, migration absorb, handoff)."""
        cfg = self.cfg
        self.owned.sort()
        self._owned_arr = np.asarray(self.owned, dtype=np.int64)
        self._countb_arr = np.asarray(
            [cfg.bucket_users(b) for b in self.owned], dtype=np.int64)
        self._offset_arr = self._cursor[self._owned_arr].copy() \
            if self.owned else np.empty(0, dtype=np.int64)
        self._arrival_idx = 0
        owned_users = int(self._countb_arr.sum()) if self.owned else 0
        if owned_users == 0:
            self._mean_ia = None
            return
        # Global arrival rate split by owned share of the user base.
        rate = (cfg.requests_effective / cfg.duration_ns) * \
            (owned_users / cfg.users)
        self._mean_ia = 1.0 / rate

    def _breaker(self, dst: int) -> CircuitBreaker:
        br = self._breakers.get(dst)
        if br is None:
            br = CircuitBreaker(threshold=2,
                                probe_interval_ns=4 * self.cfg.fabric.epoch_ns)
            self._breakers[dst] = br
        return br

    # -- stepping ----------------------------------------------------------

    def step(self, msg: dict):
        if msg["op"] == "finalize":
            return self._finalize()
        return self._epoch(msg)

    def _epoch(self, msg: dict) -> EpochReport:
        t0, t1, epoch = msg["t0"], msg["t1"], msg["epoch"]
        served_before = self.served
        replies_before = self.replies
        dropped_before = self.dropped
        nacked_before = self.nacked
        # Advance the platform clock: scheduled faults (link_dead) fire.
        self.platform.sim.run(until=t0)
        for directive in msg["directives"]:
            if directive[0] == "ring":
                self._apply_ring(tuple(directive[1]), t0)
            elif directive[0] == "handoff":
                self._handoff(tuple(directive[1]), t0)
        if not self.retired:
            self._heartbeat(t1)
        for wire in msg["wires"]:
            arrival = self.cfg.fabric.arrival_ns(wire.send_ns, wire.nbytes)
            if wire.kind == "req":
                self._serve_remote(wire, arrival, t1)
            elif wire.kind == "rep":
                self._absorb_replies(wire, arrival)
            elif wire.kind == "nack":
                self._absorb_nack(wire, arrival)
            elif wire.kind == "migrate":
                self._absorb_migrate(wire)
        self._serve_local(t1)
        self._flush_remote(t1)
        self.platform.sim.run(until=t1)
        backlog = (len(self._retry_items) + len(self.pending_buckets)
                   + sum(len(v) for v in self._pending_remote.values()))
        return EpochReport(
            sid=self.sid, epoch=epoch,
            health=self.engine.health.state.value,
            retired=self.retired,
            outbox=self.port.drain(),
            served=self.served - served_before,
            replies=self.replies - replies_before,
            dropped=self.dropped - dropped_before,
            nacked=self.nacked - nacked_before,
            backlog=backlog,
        )

    def _heartbeat(self, t1: float) -> None:
        """One real offload through the CXL link per epoch.  On a dead
        link the engine's bounded retries each record a failure, so one
        heartbeat is enough to exhaust the health budget (FAILED).

        The simulator runs only to the epoch boundary — never past it —
        so an armed-but-unfired fault schedule stays unfired until its
        own epoch (``run_process`` would drain the queue straight
        through it)."""
        proc = self.platform.sim.spawn(self.engine.compress_page("cxl"),
                                       "heartbeat")
        proc.done.defuse()
        self.platform.sim.run(until=t1)
        if not proc.finished:
            # Cannot happen with the stock timeouts (worst case ~220 us
            # of retries inside a 500 us epoch); dead is the safe read.
            self.dead = True
            return
        try:
            proc.result
        except FaultError:
            self.dead = True
        # The engine retains one OffloadReport per offload for the
        # paper-figure experiments; nothing in the rack reads them, and
        # one per epoch per shard is unbounded growth over a 10M-user
        # run.  Telemetry, not trajectory — draining cannot change the
        # simulated timeline.
        self.engine.reports.clear()

    def _note_avail(self, completion: np.ndarray) -> None:
        """Bucket completions into the availability histogram by their
        completion time (drain-phase completions clamp to the last
        slice)."""
        idx = np.minimum(
            (completion * (AVAIL_BUCKETS / self.cfg.duration_ns))
            .astype(np.int64), AVAIL_BUCKETS - 1)
        self.avail += np.bincount(idx, minlength=AVAIL_BUCKETS)

    # -- local serving -----------------------------------------------------

    def _draw_users(self, n: int) -> np.ndarray:
        """User ids for ``n`` arrivals: round-robin over owned buckets,
        cycling each bucket's user population via its cursor."""
        nb = len(self._owned_arr)
        idx = self._arrival_idx + np.arange(n, dtype=np.int64)
        pos = idx % nb
        buckets = self._owned_arr[pos]
        occurrence = self._offset_arr[pos] + idx // nb
        users = buckets + self.cfg.buckets * \
            (occurrence % self._countb_arr[pos])
        self._arrival_idx += n
        np.add.at(self._cursor, buckets, 1)
        return users

    def _serve_local(self, t1: float) -> None:
        cfg = self.cfg
        if self._mean_ia is None:
            return
        end = min(t1, cfg.duration_ns)
        arrivals: List[float] = []
        nxt = self._next_arrival
        mean = self._mean_ia
        draw = self._arr_rng.exponential
        while nxt < end:
            arrivals.append(nxt)
            nxt += draw(mean)
        self._next_arrival = nxt
        n = len(arrivals)
        if n == 0:
            return
        if self.dead:
            # Link down, server unreachable: the offered load is lost
            # (clients time out).  Cursors do not advance — these users
            # were not served.
            self.dropped += n
            return
        a = np.asarray(arrivals, dtype=float)
        users = self._draw_users(n)
        update = self._mix_rng.random_array(n) < cfg.update_frac
        partner = self._mix_rng.integers_array(0, cfg.buckets, n)
        remote = self._mix_rng.random_array(n) < cfg.remote_frac
        base = np.where(update, self._update_service_ns,
                        self._read_service_ns)
        svc = self._svc_rng.jitter_array(base, 0.12)
        lanes = cfg.servers_per_host
        lane_of = (self._lane_cursor + np.arange(n)) % lanes
        completion = np.empty(n, dtype=float)
        for lane in range(lanes):
            mask = lane_of == lane
            if not mask.any():
                continue
            al = a[mask]
            sl = svc[mask]
            y = np.empty(len(al))
            y[0] = self._lane_svc[lane] - (al[0] - self._lane_arr[lane])
            y[1:] = sl[:-1] - np.diff(al)
            waits = _lindley(self._lane_wait[lane], y)
            completion[mask] = al + waits + sl
            self._lane_arr[lane] = float(al[-1])
            self._lane_wait[lane] = float(waits[-1])
            self._lane_svc[lane] = float(sl[-1])
        self._lane_cursor = (self._lane_cursor + n) % lanes
        self.recorder.extend((completion - a).tolist())
        self._note_avail(completion)
        self.served += n
        # Functional half: writes land in the bounded hot tier; reads
        # are counted in bulk (the per-key dict walk is pure overhead
        # at 10M requests — migration integrity pins read-after-write).
        for user in users[update].tolist():
            self.store.set(user, user.to_bytes(8, "little"))
        self.store.gets += int(n - int(update.sum()))
        # Cross-shard pair-ops: a GET against a partner bucket's owner,
        # issued when the local phase completes.  Batched per
        # destination at the epoch flush — never one wire per request.
        dsts = self._owner_arr[partner]
        issue = np.nonzero(remote & (dsts != self.sid))[0]
        for i in issue.tolist():
            self._pending_remote[int(dsts[i])].append(
                (int(partner[i]), float(completion[i])))

    # -- fabric input ------------------------------------------------------

    def _serve_remote(self, wire: Wire, arrival: float, t1: float) -> None:
        """Serve one inbound cross-shard batch on the remote lane."""
        items = wire.payload
        if not items:
            return
        if self.dead:
            self.port.send_bulk(wire.src, "nack", items, send_ns=t1 - 1.0)
            self.nacked += len(items)
            return
        lane = self.cfg.servers_per_host   # the remote-serve lane
        n = len(items)
        base = np.full(n, self._read_service_ns)
        svc = self._rsvc_rng.jitter_array(base, 0.12)
        al = np.full(n, arrival)
        y = np.empty(n)
        y[0] = self._lane_svc[lane] - (al[0] - self._lane_arr[lane])
        y[1:] = svc[:-1] - np.diff(al)
        waits = _lindley(self._lane_wait[lane], y)
        completion = al + waits + svc
        self._lane_arr[lane] = float(al[-1])
        self._lane_wait[lane] = float(waits[-1])
        self._lane_svc[lane] = float(svc[-1])
        for user, _issue in items:
            self.store.get(user)
        self.remote_served += n
        self.served += n
        self._note_avail(completion)
        reply = tuple((user, issue, float(completion[i]))
                      for i, (user, issue) in enumerate(items))
        self.port.send_bulk(wire.src, "rep", reply, send_ns=t1 - 1.0)

    def _absorb_replies(self, wire: Wire, arrival: float) -> None:
        """Record cross-shard latencies: issue -> reply arrival (a reply
        cannot arrive before its op completed plus the return trip)."""
        base = self.cfg.fabric.base_ns
        latencies = [max(arrival, completion + base) - issue
                     for _user, issue, completion in wire.payload]
        self.recorder.extend(latencies)
        self.replies += len(latencies)
        self._breaker(wire.src).record_success(arrival)

    def _absorb_nack(self, wire: Wire, arrival: float) -> None:
        """A batch bounced off a dead host: trip that destination's
        breaker and requeue the items against the *current* ring."""
        self._breaker(wire.src).record_failure(arrival)
        self._retry_items.extend(
            (int(user), float(issue)) for user, issue in wire.payload)

    def _absorb_migrate(self, wire: Wire) -> None:
        """Install a migrated bucket: records, then the cursor — the
        bucket only starts serving once its state has arrived."""
        for bucket, cursor, records in wire.payload:
            self._cursor[bucket] = cursor
            for key, value in records:
                self.store.install(key, value)
            self.migrated_in += len(records)
            self.pending_buckets.discard(bucket)
            if bucket not in self.owned:
                self.owned.append(bucket)
        self._rebuild_owned()
        if self._next_arrival == float("inf") and self._mean_ia is not None:
            # First ownership after a quiet spell: restart arrivals.
            send_epoch_start = self.cfg.fabric.arrival_ns(
                wire.send_ns, wire.nbytes)
            self._next_arrival = send_epoch_start + \
                self._arr_rng.exponential(self._mean_ia)

    # -- rebalance ---------------------------------------------------------

    def _apply_ring(self, hosts: Tuple[int, ...], now: float) -> None:
        """Adopt the post-rebalance ring.  Gained buckets wait for their
        migration wire before serving; buffered requests to removed
        hosts are re-homed at the next flush."""
        self.ring = HashRing(hosts, self.cfg.seed, self.cfg.vnodes)
        for b in range(self.cfg.buckets):
            self._owner_arr[b] = self.ring.owner(b)
        mine = set(self.owned)
        for b in np.nonzero(self._owner_arr == self.sid)[0]:
            if int(b) not in mine:
                self.pending_buckets.add(int(b))
        gone = [dst for dst in self._pending_remote if dst not in hosts]
        for dst in sorted(gone):
            self._retry_items.extend(self._pending_remote.pop(dst))
        # Topology repaired: let any OPEN breaker probe immediately.
        for dst in sorted(self._breakers):
            self._breakers[dst].note_repair(now)

    def _handoff(self, hosts: Tuple[int, ...], t0: float) -> None:
        """Drain this (dead) host's shard.  The rack controller reads
        the node's CXL .mem through the switch — device memory survives
        the host — and ships each bucket (records + cursor) to its new
        owner as one migration wire per destination."""
        new_ring = HashRing(hosts, self.cfg.seed, self.cfg.vnodes)
        by_bucket: Dict[int, List[Tuple[int, bytes]]] = defaultdict(list)
        for key, value in self.store._data.items():
            by_bucket[key % self.cfg.buckets].append((key, value))
        per_dst: Dict[int, List[Tuple]] = defaultdict(list)
        for b in sorted(set(self.owned) | self.pending_buckets):
            records = tuple(sorted(by_bucket.get(b, ())))
            per_dst[new_ring.owner(b)].append(
                (b, int(self._cursor[b]), records))
            self.migrated_out += len(records)
            self._cursor[b] = 0
        for dst in sorted(per_dst):
            self.port.send_bulk(dst, "migrate", tuple(per_dst[dst]),
                                send_ns=t0)
        self.ring = new_ring
        self.owned = []
        self.pending_buckets.clear()
        self.store._data.clear()
        self._rebuild_owned()
        self._next_arrival = float("inf")
        self.retired = True

    # -- output ------------------------------------------------------------

    def _flush_remote(self, t1: float) -> None:
        """Send this epoch's buffered cross-shard batches: one bulk wire
        per destination, breaker permitting.  Requeued (nacked) items
        are re-homed first; any now owned locally serve on the remote
        lane."""
        if self._retry_items:
            retry = self._retry_items
            self._retry_items = []
            local: List[Tuple[int, float]] = []
            for user, issue in retry:
                dst = int(self._owner_arr[user % self.cfg.buckets])
                if dst == self.sid:
                    local.append((user, issue))
                else:
                    self._pending_remote[dst].append((user, issue))
            if local and not self.dead:
                fake = Wire(self.sid, self.sid, "req", t1 - 1.0, -1, 0,
                            tuple(local))
                # Rebalance made these local: serve them here, at the
                # epoch boundary (their fabric detour already paid).
                self._serve_retried_local(fake, t1)
            elif local:
                self._retry_items.extend(local)
        send_ns = t1 - 1.0
        for dst in sorted(self._pending_remote):
            items = self._pending_remote[dst]
            if not items:
                continue
            if not self._breaker(dst).allow(send_ns):
                continue
            self.port.send_bulk(dst, "req", tuple(items), send_ns)
            self.remote_sent += len(items)
            self._pending_remote[dst] = []

    def _serve_retried_local(self, wire: Wire, t1: float) -> None:
        """Serve re-homed items that now belong to this shard."""
        items = wire.payload
        lane = self.cfg.servers_per_host
        n = len(items)
        base = np.full(n, self._read_service_ns)
        svc = self._rsvc_rng.jitter_array(base, 0.12)
        al = np.full(n, t1 - 1.0)
        y = np.empty(n)
        y[0] = self._lane_svc[lane] - (al[0] - self._lane_arr[lane])
        y[1:] = svc[:-1] - np.diff(al)
        waits = _lindley(self._lane_wait[lane], y)
        completion = al + waits + svc
        self._lane_arr[lane] = float(al[-1])
        self._lane_wait[lane] = float(waits[-1])
        self._lane_svc[lane] = float(svc[-1])
        for user, _issue in items:
            self.store.get(user)
        latencies = [float(completion[i]) - issue
                     for i, (_user, issue) in enumerate(items)]
        self.recorder.extend(latencies)
        self._note_avail(completion)
        self.served += n
        self.replies += n

    def _finalize(self) -> FinalReport:
        cfg = self.cfg
        accounted = sorted(set(self.owned) | self.pending_buckets)
        distinct = sum(min(int(self._cursor[b]), cfg.bucket_users(b))
                       for b in accounted)
        return FinalReport(
            sid=self.sid,
            health=self.engine.health.state.value,
            retired=self.retired,
            recorder=self.recorder,
            served=self.served,
            dropped=self.dropped,
            availability=tuple(int(x) for x in self.avail),
            distinct_users=distinct,
            bucket_cursors={b: int(self._cursor[b]) for b in accounted},
            store_keys=len(self.store),
            store_sets=self.store.sets,
            store_gets=self.store.gets,
            store_evictions=self.store.evictions,
            migrated_in=self.migrated_in,
            migrated_out=self.migrated_out,
            remote_sent=self.remote_sent,
            remote_served=self.remote_served,
            breaker_trips=sum(br.trips for br in self._breakers.values()),
            engine_timeouts=self.engine.timeouts,
            engine_retries=self.engine.retries,
            engine_fault_errors=self.engine.fault_errors,
        )
