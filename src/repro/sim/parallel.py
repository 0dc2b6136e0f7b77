"""Deterministic multiprocessing fan-out for embarrassingly parallel sweeps.

Most experiments are grids of *independent* simulator instances: fig6
builds one fresh :class:`~repro.core.platform.Platform` per transfer
mechanism, fig8 one per (feature, workload, backend) cell, the fault /
LSU / sleep sweeps one per point.  Each point is a pure function of its
arguments (including an explicit seed), so running points in worker
processes cannot change any result — it only changes wall-clock time.

The determinism contract (docs/PERFORMANCE.md):

* an experiment declares its points as a :class:`SweepSpec` — a named,
  ordered list of ``(key, fn, args, kwargs)`` tuples where ``fn`` is a
  module-level callable and every argument is picklable;
* every point carries its seed *in its arguments*, derived the same way
  the serial loop derives it (use :func:`derive_seed` for new sweeps) —
  workers never consult global RNG state;
* :func:`run_sweep` merges results **in submission order**, never in
  completion order, so the assembled mapping is byte-identical to the
  serial loop's for any worker count;
* ``jobs=1`` (the default) runs the points in-process with no
  multiprocessing import at all, and any pool-setup failure (missing
  semaphores in a sandbox, fork limits) degrades to the same serial
  path with a warning rather than an error.

``--jobs N`` on the CLI and the ``REPRO_JOBS`` environment variable
feed :func:`resolve_jobs`.
"""

from __future__ import annotations

import os
import sys
import warnings
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Mapping, Sequence, Tuple

__all__ = [
    "ShardPool",
    "SweepPoint",
    "SweepSpec",
    "ForkSpec",
    "derive_seed",
    "resolve_jobs",
    "run_sweep",
    "run_forked_sweep",
]


@dataclass(frozen=True)
class SweepPoint:
    """One independent cell of a sweep.

    ``fn`` must be importable from the top level of its module (the
    multiprocessing pickle contract); args/kwargs must be picklable and
    must embed the point's seed explicitly.
    """

    key: Hashable
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def run(self) -> Any:
        return self.fn(*self.args, **dict(self.kwargs))


@dataclass(frozen=True)
class SweepSpec:
    """An ordered set of independent points, ready to fan out."""

    name: str
    points: Tuple[SweepPoint, ...]

    def __post_init__(self) -> None:
        keys = [p.key for p in self.points]
        if len(set(keys)) != len(keys):
            raise ValueError(f"sweep {self.name!r} has duplicate point keys")

    @classmethod
    def build(cls, name: str,
              points: Sequence[Tuple[Hashable, Callable[..., Any],
                                     Tuple[Any, ...], Mapping[str, Any]]]
              ) -> "SweepSpec":
        return cls(name, tuple(SweepPoint(k, f, tuple(a), dict(kw))
                               for k, f, a, kw in points))


def derive_seed(base_seed: int, key: Hashable) -> int:
    """A stable per-point seed: independent of process hash randomization
    (``hash(str)`` is salted; ``zlib.crc32`` is not), identical in every
    worker and on every platform."""
    return (base_seed * 1_000_003 + zlib.crc32(repr(key).encode())) % (1 << 31)


def resolve_jobs(jobs: Any = None) -> int:
    """Resolve a worker count: explicit value > ``REPRO_JOBS`` > 1.

    ``0`` (or ``"auto"``) means one worker per CPU.  An explicit positive
    count is honored as-is (like ``make -j``) — even above ``cpu_count``
    — so the multiprocessing path stays exercisable on small runners."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        jobs = env
    if isinstance(jobs, str):
        if jobs.lower() == "auto":
            jobs = 0
        else:
            try:
                jobs = int(jobs)
            except ValueError:
                warnings.warn(f"unparseable jobs value {jobs!r}; running "
                              "serial", RuntimeWarning, stacklevel=2)
                return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return int(jobs)


@dataclass(frozen=True)
class ForkSpec:
    """A sweep whose points share one warm-up.

    ``warmup(*warmup_args, **warmup_kwargs)`` builds and warms a root
    object graph (a Platform, or a tuple of platform + workload
    objects), leaving its simulator *quiescent*; each point's ``fn``
    then receives the root as its first argument, followed by the
    point's own args/kwargs.  :func:`run_forked_sweep` runs the warm-up
    of a multi-point spec **once**, snapshots it, and forks every point
    from the checkpoint — or, for a one-point spec or with
    checkpointing disabled (``REPRO_CHECKPOINT=0``), replays the
    warm-up per point.  Both paths produce byte-identical results;
    the contract mirrors :class:`SweepSpec`, plus: the warm-up must be
    a module-level callable with picklable arguments, and the root
    graph must be checkpointable (quiescent — see
    ``docs/CHECKPOINT.md``).
    """

    name: str
    warmup: Callable[..., Any]
    warmup_args: Tuple[Any, ...]
    warmup_kwargs: Mapping[str, Any]
    points: Tuple[SweepPoint, ...]

    def __post_init__(self) -> None:
        keys = [p.key for p in self.points]
        if len(set(keys)) != len(keys):
            raise ValueError(f"sweep {self.name!r} has duplicate point keys")

    @classmethod
    def build(cls, name: str, warmup: Callable[..., Any],
              points: Sequence[Tuple[Hashable, Callable[..., Any],
                                     Tuple[Any, ...], Mapping[str, Any]]],
              warmup_args: Tuple[Any, ...] = (),
              warmup_kwargs: Mapping[str, Any] = (),
              ) -> "ForkSpec":
        return cls(name, warmup, tuple(warmup_args),
                   dict(warmup_kwargs or {}),
                   tuple(SweepPoint(k, f, tuple(a), dict(kw))
                         for k, f, a, kw in points))

    def run_warmup(self) -> Any:
        return self.warmup(*self.warmup_args, **dict(self.warmup_kwargs))


def _run_point(point: SweepPoint) -> Any:
    return point.run()


def _run_forked_point(task: Tuple[Any, SweepPoint]) -> Any:
    """Fork the shared snapshot, then run the point against the private
    copy."""
    cp, point = task
    root = cp.restore()
    return point.fn(root, *point.args, **dict(point.kwargs))


def _run_cold_point(task: Tuple[ForkSpec, SweepPoint]) -> Any:
    """Replay the warm-up, then run the point — the pre-checkpoint
    behavior, kept as the pinned reference."""
    from repro.sim.checkpoint import CHECKPOINT_STATS
    spec, point = task
    CHECKPOINT_STATS.cold_warmups += 1
    root = spec.run_warmup()
    return point.fn(root, *point.args, **dict(point.kwargs))


def _run_fork_task(task: Tuple[Callable[[Any], Any], Any]) -> Any:
    """Pool worker: one point of a :func:`run_forked_sweep` call, on the
    forked or cold path its spec was assigned."""
    runner, arg = task
    return runner(arg)


def run_forked_sweep(*specs: ForkSpec, jobs: Any = None
                     ) -> Dict[Hashable, Any]:
    """Run every point of every spec against its spec's warm-up; return
    ``{key: result}`` in submission order (spec by spec, point by
    point), byte-identical to :func:`run_sweep` over per-point cold
    runs.  A key that appears in two specs is a ``ValueError``.

    All points of all specs share one process pool, so a call made of
    many small specs still fans out across ``jobs`` workers.  A spec
    with two or more points runs its warm-up once in the parent,
    snapshots it, and every point — including the first, so all points
    see the same restored-from-snapshot world — forks from the
    snapshot; each fork reinstalls the warm-up's ambient
    page-store/work-cache state, so per-point intern/release accounting
    balances exactly as a cold run's would.  A spec with exactly one
    point never snapshots: nothing else would read the snapshot, so the
    point replays the warm-up cold, inside its worker.
    ``REPRO_CHECKPOINT=0`` sends every spec down that cold path.
    """
    from repro.sim.checkpoint import checkpoint_enabled, snapshot
    name = "+".join(spec.name for spec in specs)
    keys = [p.key for spec in specs for p in spec.points]
    if len(set(keys)) != len(keys):
        raise ValueError(f"sweep {name!r} has duplicate point keys")
    jobs = resolve_jobs(jobs)
    forking = checkpoint_enabled()
    tasks: list = []
    for spec in specs:
        if forking and len(spec.points) > 1:
            cp = snapshot(spec.run_warmup(), label=spec.name)
            tasks.extend((_run_forked_point, (cp, p)) for p in spec.points)
        else:
            tasks.extend((_run_cold_point, (spec, p)) for p in spec.points)
    if jobs > 1 and len(tasks) > 1:
        results = _map_parallel(name, _run_fork_task, tasks,
                                min(jobs, len(tasks)))
        if results is not None:
            return dict(zip(keys, results))
    return {key: _run_fork_task(t) for key, t in zip(keys, tasks)}


def run_sweep(spec: SweepSpec, jobs: Any = None) -> Dict[Hashable, Any]:
    """Run every point of ``spec``; return ``{key: result}`` with keys in
    submission order (dict insertion order == ``spec.points`` order).

    With ``jobs > 1`` the points execute in a process pool; results are
    still collected in submission order, so the returned mapping — and
    anything formatted from it — is identical to the serial run.
    """
    jobs = resolve_jobs(jobs)
    if jobs > 1 and len(spec.points) > 1:
        results = _run_parallel(spec, min(jobs, len(spec.points)))
        if results is not None:
            return dict(zip((p.key for p in spec.points), results))
    return {p.key: p.run() for p in spec.points}


def _run_parallel(spec: SweepSpec, jobs: int) -> Any:
    """Fan the points out to ``jobs`` workers; None means "fall back to
    serial" (pool setup failed — sandboxed /dev/shm, missing fork, ...)."""
    return _map_parallel(spec.name, _run_point, spec.points, jobs)


def _pool_context():
    """The preferred multiprocessing context (fork where available)."""
    import multiprocessing
    if sys.platform != "win32" and \
            "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _shard_worker_main(conn: Any, boot: Callable[..., Any],
                       boot_args: Tuple[Any, ...],
                       sids: Tuple[Hashable, ...]) -> None:
    """Worker loop: boot this worker's shards once, then serve ``step``
    batches until told to stop.  Shard state lives here for the whole
    run — only per-epoch payloads and reports cross the pipe."""
    try:
        shards = {sid: boot(sid, *boot_args) for sid in sids}
        conn.send(("ready", len(shards)))
        while True:
            cmd, data = conn.recv()
            if cmd == "stop":
                break
            results = [(sid, shards[sid].step(payload))
                       for sid, payload in data]
            conn.send(("ok", results))
    except EOFError:  # pragma: no cover - coordinator died
        pass
    except BaseException:
        import traceback
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, BrokenPipeError):  # pragma: no cover
            pass
    finally:
        conn.close()


class ShardPool:
    """Long-lived shard workers for epoch-stepped cluster simulations.

    :func:`run_sweep` fits one-shot points; a rack run instead steps
    ``n`` stateful shards through thousands of epochs, and shipping
    each shard's full state per epoch would drown the win.  ShardPool
    keeps the sweep layer's determinism contract with a different
    execution shape:

    * each shard boots **once** (``boot(sid, *boot_args)``) inside a
      sticky worker — shard ``i`` always runs in worker ``i % jobs``,
      so its state never moves between processes;
    * :meth:`step` delivers one payload per shard and returns the
      reports merged **in shard-id order** (the submission-order rule),
      so the coordinator observes the same sequence for any worker
      count — including ``jobs=1``, which runs the shards in-process
      with no multiprocessing at all;
    * shards must be pure functions of ``(sid, boot_args, payloads so
      far)`` — no shared mutable state — which is what makes worker
      *grouping* (which shards share a process) unobservable;
    * pool-setup failures degrade to the serial path with a warning,
      mirroring :func:`run_sweep`.

    Use as a context manager; :meth:`close` tears the workers down.
    """

    def __init__(self, name: str, shard_ids: Sequence[Hashable],
                 boot: Callable[..., Any], boot_args: Tuple[Any, ...] = (),
                 jobs: Any = None):
        self.name = name
        self._sids = sorted(shard_ids)
        if len(set(self._sids)) != len(self._sids):
            raise ValueError(f"pool {name!r} has duplicate shard ids")
        if not self._sids:
            raise ValueError(f"pool {name!r} has no shards")
        jobs = resolve_jobs(jobs)
        self._workers = max(1, min(jobs, len(self._sids)))
        self._shards: Any = None      # serial mode: {sid: shard}
        self._procs: list = []
        self._conns: list = []
        self._worker_of: Dict[Hashable, int] = {
            sid: i % self._workers for i, sid in enumerate(self._sids)}
        if self._workers == 1 or not self._spawn(boot, boot_args):
            self._shards = {sid: boot(sid, *boot_args)
                            for sid in self._sids}

    def _spawn(self, boot: Callable[..., Any],
               boot_args: Tuple[Any, ...]) -> bool:
        """Start the workers; False means "fall back to serial"."""
        per_worker: list = [[] for _ in range(self._workers)]
        for sid in self._sids:
            per_worker[self._worker_of[sid]].append(sid)
        try:
            import multiprocessing  # noqa: F401 - availability probe
            ctx = _pool_context()
            for sids in per_worker:
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_shard_worker_main,
                    args=(child, boot, boot_args, tuple(sids)),
                    daemon=True)
                proc.start()
                child.close()
                self._procs.append(proc)
                self._conns.append(parent)
        except (ImportError, OSError, PermissionError,
                NotImplementedError) as exc:
            self.close()
            warnings.warn(
                f"pool {self.name!r}: shard workers unavailable ({exc}); "
                "running serial", RuntimeWarning, stacklevel=3)
            return False
        for conn in self._conns:
            tag, data = conn.recv()
            if tag != "ready":
                detail = data
                self.close()
                raise RuntimeError(
                    f"pool {self.name!r}: shard boot failed:\n{detail}")
        return True

    @property
    def jobs(self) -> int:
        """Effective worker count (1 when running serial)."""
        return 1 if self._shards is not None else self._workers

    def step(self, payloads: Mapping[Hashable, Any]) -> Dict[Hashable, Any]:
        """Deliver one payload per shard; return ``{sid: report}`` in
        shard-id order regardless of which worker finished first."""
        order = sorted(payloads)
        if self._shards is not None:
            return {sid: self._shards[sid].step(payloads[sid])
                    for sid in order}
        batches: list = [[] for _ in range(self._workers)]
        for sid in order:
            batches[self._worker_of[sid]].append((sid, payloads[sid]))
        for conn, batch in zip(self._conns, batches):
            conn.send(("step", batch))
        merged: Dict[Hashable, Any] = {}
        for conn in self._conns:
            try:
                tag, data = conn.recv()
            except EOFError:
                self.close()
                raise RuntimeError(
                    f"pool {self.name!r}: a shard worker died")
            if tag != "ok":
                detail = data
                self.close()
                raise RuntimeError(
                    f"pool {self.name!r}: shard step failed:\n{detail}")
            merged.update(data)
        return {sid: merged[sid] for sid in order}

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("stop", None))
            except (OSError, BrokenPipeError):
                pass
        for proc in self._procs:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in self._conns:
            conn.close()
        self._procs = []
        self._conns = []

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _map_parallel(name: str, fn: Callable[[Any], Any],
                  items: Sequence[Any], jobs: int) -> Any:
    """``list(map(fn, items))`` across ``jobs`` worker processes, results
    in submission order; None means "fall back to serial"."""
    try:
        from concurrent.futures import ProcessPoolExecutor

        # fork is measurably cheaper than spawn and inherits sys.path;
        # platforms without it (Windows) use their default start method.
        with ProcessPoolExecutor(max_workers=jobs,
                                 mp_context=_pool_context()) as pool:
            # map() yields results in submission order regardless of
            # which worker finishes first — the determinism keystone.
            return list(pool.map(fn, items))
    except (ImportError, OSError, PermissionError, NotImplementedError) as exc:
        warnings.warn(
            f"sweep {name!r}: process pool unavailable ({exc}); "
            "running serial", RuntimeWarning, stacklevel=3)
        return None
