"""Fig 8: p99 latency of Redis under YCSB with zswap/ksm backends.

Methodology mirrors SVII on the sub-NUMA half system:

* **zswap scenario** — 2 Redis servers (+ their clients) on 8 app cores,
  an antagonist allocating/freeing on the other 8, kswapd floating over
  the app cores; requests that allocate below the *min* watermark enter
  direct reclaim themselves;
* **ksm scenario** — 16 VM vCPUs pinned one per core, 4 of them Redis
  servers; ksmd scans continuously, hopping cores.

Each (feature, workload, backend) cell reports p99 latency normalized to
the same workload with the feature disabled (``none``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.apps.antagonist import Antagonist
from repro.apps.kvs import RedisServer
from repro.apps.latency import OpenLoopClient
from repro.apps.node import MemoryPressure, ServerNode
from repro.apps.ycsb import YcsbWorkload
from repro.config import sub_numa_half_system
from repro.core.offload import OffloadEngine
from repro.core.platform import Platform
from repro.errors import WorkloadError
from repro.kernel.daemons import CostProfile, ReclaimDaemon, ScanDaemon
from repro.sim.parallel import ForkSpec, run_forked_sweep
from repro.units import ms

BACKENDS = ("none", "cpu", "pcie-rdma", "pcie-dma", "cxl")
WORKLOAD_NAMES = ("a", "b", "c", "d")


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs for one Fig-8 run (defaults sized for CI speed; scale
    ``duration_ns`` and ``rate_per_s`` up for tighter percentiles)."""

    duration_ns: float = ms(400.0)
    rate_per_s: float = 32_000.0        # per Redis server (open loop)
    zswap_servers: int = 2
    zswap_app_cores: int = 8
    ksm_servers: int = 4
    ksm_cores: int = 16
    antagonist_burst_pages: int = 1800
    antagonist_period_ns: float = ms(8.0)
    key_distribution: str = "uniform"   # the paper's choice; or "zipfian"
    functional: bool = False            # really execute requests on the KVS
    # Interference-channel ablation knobs (DESIGN.md section 6):
    pollution_scale: float = 1.0        # 0 disables the LLC channel
    direct_reclaim_enabled: bool = True # False disables the inline channel


@dataclass(frozen=True)
class CellResult:
    feature: str
    workload: str
    backend: str
    p99_ns: float
    p50_ns: float
    requests: int
    direct_reclaims: int
    feature_core_busy_ns: float
    pages_processed: int


@dataclass(frozen=True)
class Fig8Result:
    cells: Dict[str, CellResult]        # "<feature>/<workload>/<backend>"

    def get(self, feature: str, workload: str, backend: str) -> CellResult:
        return self.cells[f"{feature}/{workload}/{backend}"]

    def normalized_p99(self, feature: str, workload: str,
                       backend: str) -> float:
        cell = self.get(feature, workload, backend)
        base = self.get(feature, workload, "none")
        return cell.p99_ns / base.p99_ns


def _profile_for(backend: str, seed: int) -> Optional[CostProfile]:
    if backend == "none":
        return None
    calib = Platform(seed=seed)
    return CostProfile.from_engine(calib, OffloadEngine(calib), backend)


def _zswap_warmup(backend: str, scenario: ScenarioConfig, seed: int):
    """Everything of a zswap cell that does not depend on the workload:
    platform, pressure, node, the calibrated reclaim daemon, and the
    antagonist — all *constructed but not spawned* (constructors are
    passive and ``rng.fork`` is pure, so nothing here advances the
    simulator or any RNG stream).  The root this returns is quiescent
    and therefore checkpointable; one warm-up serves every workload of
    the (backend, scenario, seed) group."""
    platform = Platform(sub_numa_half_system(), seed=seed)
    sim, rng = platform.sim, platform.rng
    pressure = MemoryPressure.sized(1 << 17)
    # Start just above the low watermark so reclaim engages immediately.
    pressure.free_pages = pressure.low_pages + 2048
    node = ServerNode(sim, rng.fork(1), scenario.zswap_app_cores, pressure)
    daemon = None
    antagonist = None
    if backend != "none":
        profile = _profile_for(backend, seed + 1)
        assert profile is not None
        daemon = ReclaimDaemon(node, profile,
                               pollution_scale=scenario.pollution_scale)
        antagonist = Antagonist(
            sim, pressure, rng.fork(2),
            burst_pages=scenario.antagonist_burst_pages,
            period_ns=scenario.antagonist_period_ns)
    return (platform, node, daemon, antagonist)


def _zswap_point(root, workload_name: str, backend: str,
                 scenario: ScenarioConfig) -> CellResult:
    """The workload-dependent half of a zswap cell: spawn the daemons,
    build and spawn the clients, run, reduce.  Spawn order matches the
    pre-split code exactly (kswapd, antagonist, client0, client1, ...),
    so the ``(time, seq)`` schedule — and every output byte — is
    unchanged whether ``root`` is freshly built or checkpoint-forked."""
    platform, node, daemon, antagonist = root
    sim, rng = platform.sim, platform.rng
    direct = None
    if daemon is not None:
        sim.spawn(daemon.run(scenario.duration_ns), "kswapd")
        direct = (daemon.inline_reclaim
                  if scenario.direct_reclaim_enabled else None)
        sim.spawn(antagonist.run(scenario.duration_ns), "antagonist")

    clients = []
    for i in range(scenario.zswap_servers):
        server = RedisServer(f"redis{i}", rng.fork(10 + i))
        workload = YcsbWorkload(workload_name, rng.fork(20 + i),
                                distribution=scenario.key_distribution)
        client = OpenLoopClient(
            node, server, node.core(i), workload, rng.fork(30 + i),
            scenario.rate_per_s, direct_reclaim=direct,
            functional=scenario.functional)
        clients.append(client)
        sim.spawn(client.run(scenario.duration_ns), f"client{i}")

    sim.run(until=scenario.duration_ns + ms(5.0))
    stats = _merge_stats(clients)
    return CellResult(
        "zswap", workload_name, backend,
        p99_ns=stats.p99(), p50_ns=stats.p50(), requests=stats.count,
        direct_reclaims=sum(c.direct_reclaim_hits for c in clients),
        feature_core_busy_ns=node.feature_core_busy_ns,
        pages_processed=daemon.pages_reclaimed if daemon else 0,
    )


def run_zswap_cell(workload_name: str, backend: str,
                   scenario: ScenarioConfig, seed: int = 29) -> CellResult:
    """One zswap cell: Redis + antagonist + kswapd on a shared node
    (the pinned cold path: warm-up and point back to back)."""
    return _zswap_point(_zswap_warmup(backend, scenario, seed),
                        workload_name, backend, scenario)


def _ksm_warmup(backend: str, scenario: ScenarioConfig, seed: int):
    """The workload-independent half of a ksm cell (see
    :func:`_zswap_warmup`): platform, node, calibrated scan daemon."""
    platform = Platform(sub_numa_half_system(), seed=seed)
    sim, rng = platform.sim, platform.rng
    node = ServerNode(sim, rng.fork(1), scenario.ksm_cores)
    daemon = None
    if backend != "none":
        profile = _profile_for(backend, seed + 1)
        assert profile is not None
        daemon = ScanDaemon(node, profile,
                            pollution_scale=scenario.pollution_scale)
    return (platform, node, daemon)


def _ksm_point(root, workload_name: str, backend: str,
               scenario: ScenarioConfig) -> CellResult:
    platform, node, daemon = root
    sim, rng = platform.sim, platform.rng
    if daemon is not None:
        sim.spawn(daemon.run(scenario.duration_ns), "ksmd")

    clients = []
    for i in range(scenario.ksm_servers):
        server = RedisServer(f"redis-vm{i}", rng.fork(10 + i))
        workload = YcsbWorkload(workload_name, rng.fork(20 + i),
                                distribution=scenario.key_distribution)
        client = OpenLoopClient(
            node, server, node.core(i), workload, rng.fork(30 + i),
            scenario.rate_per_s, functional=scenario.functional)
        clients.append(client)
        sim.spawn(client.run(scenario.duration_ns), f"vm-client{i}")

    sim.run(until=scenario.duration_ns + ms(5.0))
    stats = _merge_stats(clients)
    return CellResult(
        "ksm", workload_name, backend,
        p99_ns=stats.p99(), p50_ns=stats.p50(), requests=stats.count,
        direct_reclaims=0,
        feature_core_busy_ns=node.feature_core_busy_ns,
        pages_processed=daemon.pages_scanned if daemon else 0,
    )


def run_ksm_cell(workload_name: str, backend: str,
                 scenario: ScenarioConfig, seed: int = 31) -> CellResult:
    """One ksm cell: 16 pinned VMs, 4 Redis servers, floating ksmd
    (the pinned cold path: warm-up and point back to back)."""
    return _ksm_point(_ksm_warmup(backend, scenario, seed),
                      workload_name, backend, scenario)


def _merge_stats(clients):
    if not clients:
        raise WorkloadError("no clients ran")
    merged = clients[0].stats
    for client in clients[1:]:
        merged.extend(client.stats._samples)
    return merged


def run(features=("zswap", "ksm"), workloads=WORKLOAD_NAMES,
        backends=BACKENDS, scenario: Optional[ScenarioConfig] = None,
        seed: int = 37, jobs: Optional[int] = None) -> Fig8Result:
    scenario = scenario or ScenarioConfig()
    # Every cell is a pure function of (workload, backend, scenario,
    # seed), and the expensive half — platform build plus backend cost
    # calibration — depends only on (feature, backend).  Group the grid
    # into one ForkSpec per (feature, backend) and run every group in
    # one call, so all cells share one process pool.  A group with two
    # or more workloads snapshots its warm-up once and forks each
    # workload from it; a one-workload group (the CLI default) just
    # warms up cold inside its worker.  Byte-identical to per-cell cold
    # runs at any --jobs count.
    specs = []
    for feature in features:
        warmup = _zswap_warmup if feature == "zswap" else _ksm_warmup
        point = _zswap_point if feature == "zswap" else _ksm_point
        for backend in backends:
            specs.append(ForkSpec.build(
                f"fig8/{feature}/{backend}", warmup,
                [(f"{feature}/{workload}/{backend}", point,
                  (workload, backend, scenario), {})
                 for workload in workloads],
                warmup_args=(backend, scenario, seed)))
    cells: Dict[str, CellResult] = run_forked_sweep(*specs, jobs=jobs)
    # Reassemble in the canonical feature -> workload -> backend order
    # the pre-split sweep produced.
    ordered = {f"{feature}/{workload}/{backend}":
               cells[f"{feature}/{workload}/{backend}"]
               for feature in features
               for workload in workloads
               for backend in backends}
    return Fig8Result(ordered)


def format_table(result: Fig8Result) -> str:
    lines = ["Fig 8: Redis p99 latency normalized to no-zswap/no-ksm"]
    features = sorted({key.split("/")[0] for key in result.cells})
    workloads = sorted({key.split("/")[1] for key in result.cells})
    backends = [b for b in BACKENDS
                if any(key.endswith("/" + b) for key in result.cells)]
    for feature in features:
        lines.append(f"--- {feature} ---")
        lines.append(f"{'ycsb':6s} " + " ".join(f"{b:>10s}" for b in backends))
        for workload in workloads:
            row = []
            for backend in backends:
                norm = result.normalized_p99(feature, workload, backend)
                row.append(f"{norm:10.2f}")
            lines.append(f"{workload:6s} " + " ".join(row))
    return "\n".join(lines)
