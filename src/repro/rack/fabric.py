"""Deterministic cross-shard message fabric.

Hosts exchange messages (cross-shard requests, replies, NACK bounces,
rebalance migrations) through a simulated switch.  Determinism rests on
three rules:

* **latency is simulated, not wall-clock** — a wire sent at
  ``send_ns`` arrives at ``send_ns + base_ns + nbytes * per_byte_ns``;
* **conservative lookahead** — ``base_ns >= epoch_ns`` (validated), so
  a message sent during epoch ``k`` can only arrive in epoch ``k+1`` or
  later: shards never need mid-epoch input from each other, which is
  what lets them run as parallel processes;
* **total delivery order** — each epoch's inbound wires are sorted by
  ``(arrival_ns, src, seq)``.  ``(src, seq)`` is unique per wire, so
  the order is total and independent of which worker produced which
  outbox first.  Any interleaving of shard execution yields the same
  delivery sequence, byte for byte.

Batching: :meth:`FabricPort.send_bulk` puts a whole per-destination
batch on one wire (one header, ``item_bytes`` per record); a shard
sends at most one wire per destination and kind each epoch — see
docs/RACK.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple


class FabricStats:
    """Coordinator-side fabric counters.

    Process-global and cumulative; :func:`repro.rack.cluster.run_rack`
    snapshots before/after to report per-run deltas.  Everything here
    is measured on the coordinator, so the numbers are identical at any
    ``--jobs``.  The fast-forward counters (epochs skipped, jumps,
    demotions) and the packed-codec counters (frames, framed bytes)
    were removed together with those accelerators.
    """

    __slots__ = ("epochs_run", "wires", "bounces")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.epochs_run = 0        # epochs stepped
        self.wires = 0             # wires routed through Fabric.push
        self.bounces = 0           # NACK bounces off retired hosts

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


FABRIC_STATS = FabricStats()

@dataclass(frozen=True)
class FabricConfig:
    """Switch timing/framing parameters (all simulated)."""

    #: Epoch length; also the parallel-execution quantum.
    epoch_ns: float = 500_000.0
    #: Propagation + switch + serialization floor per wire.  Must be at
    #: least ``epoch_ns`` (conservative lookahead; see module docs).
    base_ns: float = 600_000.0
    #: Per-byte serialization cost (~40 GB/s links).
    per_byte_ns: float = 0.025
    #: Framing overhead per wire.
    header_bytes: int = 64
    #: Wire size of one request/reply/migration record.
    item_bytes: int = 96

    def __post_init__(self) -> None:
        if self.epoch_ns <= 0:
            raise ValueError(f"epoch_ns must be positive: {self.epoch_ns}")
        if self.base_ns < self.epoch_ns:
            raise ValueError(
                f"base_ns ({self.base_ns}) < epoch_ns ({self.epoch_ns}): "
                "fabric latency is the conservative lookahead; a message "
                "must never arrive inside its own send epoch")
        if self.per_byte_ns < 0:
            raise ValueError(f"negative per_byte_ns: {self.per_byte_ns}")

    def arrival_ns(self, send_ns: float, nbytes: int) -> float:
        return send_ns + self.base_ns + nbytes * self.per_byte_ns


@dataclass(frozen=True)
class Wire:
    """One message on the fabric."""

    src: int
    dst: int
    kind: str          # "req" | "rep" | "nack" | "migrate"
    send_ns: float
    seq: int           # per-source counter; (src, seq) is unique
    nbytes: int
    payload: Tuple

    @property
    def count(self) -> int:
        return len(self.payload)


class FabricPort:
    """A shard's transmit side: sequences and frames outbound wires."""

    def __init__(self, sid: int, cfg: FabricConfig):
        self.sid = sid
        self.cfg = cfg
        self._seq = 0
        self._out: List[Wire] = []
        self.sent_wires = 0
        self.sent_items = 0
        self.sent_bytes = 0

    def send_bulk(self, dst: int, kind: str, items: Sequence[Tuple],
                  send_ns: float) -> Wire:
        """Frame a whole per-destination batch as one wire."""
        if dst == self.sid:
            raise ValueError(f"shard {self.sid} sending to itself")
        nbytes = self.cfg.header_bytes + len(items) * self.cfg.item_bytes
        wire = Wire(self.sid, dst, kind, send_ns, self._seq, nbytes,
                    tuple(items))
        self._seq += 1
        self._out.append(wire)
        self.sent_wires += 1
        self.sent_items += len(items)
        self.sent_bytes += nbytes
        return wire

    def drain(self) -> Tuple[Wire, ...]:
        """This epoch's outbox, in send order; clears the buffer."""
        out = tuple(self._out)
        self._out.clear()
        return out


class Fabric:
    """Coordinator side: routes outboxes into per-epoch deliveries."""

    def __init__(self, cfg: FabricConfig):
        self.cfg = cfg
        self._pending: List[Tuple[float, int, int, Wire]] = []
        self._bounce_seq = 1 << 40
        self.routed_wires = 0
        self.routed_bytes = 0
        self.bounced_wires = 0

    def push(self, wires: Iterable[Wire]) -> None:
        """Accept outbound wires (coordinator calls this in sid order)."""
        for wire in wires:
            arrival = self.cfg.arrival_ns(wire.send_ns, wire.nbytes)
            self._pending.append((arrival, wire.src, wire.seq, wire))
            self.routed_wires += 1
            self.routed_bytes += wire.nbytes
            FABRIC_STATS.wires += 1

    def bounce(self, wire: Wire, now_ns: float) -> Wire:
        """NACK a wire whose destination is off the ring: the switch
        returns it to the sender with the same payload, paying another
        fabric traversal.  The nack carries the dead destination as its
        src (so requester breakers attribute the failure); bounce seqs
        come from a fabric-owned counter offset far above any port's own
        range, keeping ``(src, seq)`` unique."""
        nbytes = self.cfg.header_bytes + wire.count * self.cfg.item_bytes
        nack = Wire(wire.dst, wire.src, "nack", now_ns, self._bounce_seq,
                    nbytes, wire.payload)
        self._bounce_seq += 1
        self.bounced_wires += 1
        FABRIC_STATS.bounces += 1
        self.push((nack,))
        return nack

    def deliveries(self, t0: float, t1: float) -> Dict[int, Tuple[Wire, ...]]:
        """Wires arriving in ``[t0, t1)``, grouped by destination, each
        group sorted by ``(arrival_ns, src, seq)`` — the total order."""
        due: List[Tuple[float, int, int, Wire]] = []
        keep: List[Tuple[float, int, int, Wire]] = []
        for entry in self._pending:
            (due if t0 <= entry[0] < t1 else keep).append(entry)
        self._pending = keep
        due.sort(key=lambda e: (e[0], e[1], e[2]))
        grouped: Dict[int, List[Wire]] = {}
        for arrival, _src, _seq, wire in due:
            grouped.setdefault(wire.dst, []).append(wire)
        return {dst: tuple(ws) for dst, ws in grouped.items()}

    @property
    def in_flight(self) -> int:
        return len(self._pending)
