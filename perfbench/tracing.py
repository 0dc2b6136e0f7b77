"""The traced run: spans around the calls into each layer, a profiler
that attributes self time and calls to layers, and work counters.

Everything here patches ``repro`` from the outside for the duration of
one traced round and restores it afterwards; nothing under ``src/``
knows it is being traced.  The traced round runs at ``jobs=1`` so that
the profiler and the process-global counters see all of the work.
"""

from __future__ import annotations

import cProfile
import importlib
import os
import pstats
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Layer -> the modules it owns (a package name owns its submodules).
#: Every ``repro`` module belongs to at most one layer; the rest, and
#: all code outside ``repro`` that no layer calls, is ``other``.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "engine": ("repro.sim.engine", "repro.sim.resources"),
    "timers": ("repro.sim.timers",),
    "stats": ("repro.sim.stats",),
    "rng": ("repro.sim.rng",),
    "checkpoint": ("repro.sim.checkpoint",),
    "parallel": ("repro.sim.parallel",),
    "fastpath": ("repro.core.fastpath", "repro.sim.bulk"),
    "mem": ("repro.mem",),
    "devices": ("repro.devices",),
    "interconnect": ("repro.interconnect",),
    "host": ("repro.host",),
    "kernel": ("repro.kernel",),
    "offload": ("repro.core.offload", "repro.core.doorbell"),
    "resilience": ("repro.resilience", "repro.faults"),
    "apps": ("repro.apps",),
    "rack": ("repro.rack",),
    "pickle": ("pickle", "copyreg", "_pickle", "_compat_pickle"),
    "other": (),
}


def layer_of(module: str) -> Optional[str]:
    """The layer owning ``module``, or None when no layer claims it."""
    for layer, owned in LAYERS.items():
        for name in owned:
            if module == name or module.startswith(name + "."):
                return layer
    return None


# -- profiler attribution ---------------------------------------------------

def _module_of(filename: str, funcname: str, src_root: str) -> Optional[str]:
    """Module name of a profiled function (None: a builtin with no
    recognisable owner, or code outside repro and the pickle modules)."""
    if filename == "~":                  # builtins: "<built-in method ...>"
        return "_pickle" if "_pickle" in funcname else None
    path = os.path.abspath(filename)
    if path.startswith(src_root + os.sep):
        rel = os.path.relpath(path, src_root)[:-len(".py")]
        parts = rel.split(os.sep)
        if parts[-1] == "__init__":
            parts.pop()
        return ".".join(parts)
    base = os.path.basename(path)
    if base in ("pickle.py", "copyreg.py", "_compat_pickle.py"):
        return base[:-len(".py")]
    return None


def attribute(stats: Dict[Any, Any], src_root: str
              ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self seconds and calls per layer from ``pstats.Stats.stats``.

    A function in a layer's module counts for that layer, and one in
    any other ``repro`` module for ``other``.  Code outside ``repro`` --
    builtins, the standard library -- is charged to the layers of its
    callers, per call edge, so ``heappush`` from the engine is engine
    time; with no caller it is ``other``.  Calls count only the layer's
    own functions."""
    direct: Dict[Any, Optional[str]] = {}
    for func in stats:
        module = _module_of(func[0], func[2], src_root)
        if module is None:
            direct[func] = None
        elif module.split(".")[0] == "repro":
            direct[func] = layer_of(module) or "other"
        else:
            direct[func] = layer_of(module)
    owners: Dict[Any, Dict[str, float]] = {}

    def owner(func: Any, visiting: set) -> Dict[str, float]:
        if direct.get(func):
            return {direct[func]: 1.0}
        if func in owners:
            return owners[func]
        callers = stats[func][4] if func in stats else {}
        if not callers or func in visiting:
            return {"other": 1.0}
        visiting.add(func)
        total = sum(edge[3] for edge in callers.values())
        mix: Dict[str, float] = {}
        for caller, edge in callers.items():
            weight = edge[3] / total if total > 0 else 1.0 / len(callers)
            for layer, share in owner(caller, visiting).items():
                mix[layer] = mix.get(layer, 0.0) + weight * share
        visiting.discard(func)
        owners[func] = mix
        return mix

    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20_000))
    try:
        for func, (_cc, nc, tt, _ct, callers) in stats.items():
            layer = direct[func]
            if layer:
                self_s[layer] += tt
                calls[layer] += nc
            elif not callers:
                self_s["other"] += tt
            else:
                for caller, edge in callers.items():
                    for owner_layer, share in owner(caller, set()).items():
                        self_s[owner_layer] += edge[2] * share
    finally:
        sys.setrecursionlimit(limit)
    return self_s, calls


# -- spans --------------------------------------------------------------------

class Spans:
    """Spans kept in memory: (id, parent id, name, start s, end s, cell).

    Times are ``perf_counter`` seconds; the traced round is one
    single-threaded process, so its wall time is its CPU time up to
    scheduling noise."""

    def __init__(self) -> None:
        self.records: List[Tuple[int, int, str, float, float, str]] = []
        self._stack: List[int] = [0]
        self._next_id = 1
        self.cell = ""

    def wrap(self, name: str, fn: Callable[..., Any],
             on_enter: Optional[Callable[[], None]] = None,
             on_exit: Optional[Callable[[], None]] = None
             ) -> Callable[..., Any]:
        spans = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = spans._next_id
            spans._next_id += 1
            parent = spans._stack[-1]
            spans._stack.append(span_id)
            if on_enter is not None:
                on_enter()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                spans._stack.pop()
                spans.records.append(
                    (span_id, parent, name, start, end, spans.cell))
                if on_exit is not None:
                    on_exit()
        return traced

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self seconds (self = duration
        minus the part its child spans cover)."""
        child_time: Dict[int, float] = {}
        for _i, parent, _n, start, end, _c in self.records:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: Dict[str, Dict[str, float]] = {}
        for span_id, _p, name, start, end, _c in self.records:
            row = out.setdefault(name, {"count": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time.get(span_id, 0.0)
        return out

    def to_json(self, t0: float) -> List[Dict[str, Any]]:
        return [{"id": i, "parent": p, "name": n, "start_s": s - t0,
                 "end_s": e - t0, "cell": c}
                for i, p, n, s, e, c in sorted(self.records)]


def _resolve(path: str) -> Optional[Tuple[Any, str]]:
    """``"module:Attr.attr"`` -> (owner object, attribute name), or None
    when a later version of the program no longer has it."""
    module_name, _, dotted = path.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = dotted.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Counters:
    """Work counters read at the layer boundaries.

    Reads the process-global stats objects by name and tolerates any of
    them being absent, so the benchmark keeps running when a later
    change renames or removes one (the metric then reads 0)."""

    GLOBALS = {
        "timers": ("repro.sim.timers:WHEEL_STATS",
                   ("fired", "cancelled", "reaped", "cascades")),
        "checkpoint": ("repro.sim.checkpoint:CHECKPOINT_STATS",
                       ("snapshots", "restores", "snapshot_bytes")),
        "fastpath": ("repro.sim.bulk:BULK_STATS",
                     ("total_lines", "total_batches", "fallbacks")),
        "rack": ("repro.rack.fabric:FABRIC_STATS",
                 ("epochs_run", "epochs_skipped", "wires", "framed_bytes",
                  "bounces")),
    }
    #: Caches whose counters a checkpoint restore overwrites with the
    #: snapshot's values; restores bank the counts made so far.
    CACHES = {"workcache": "repro.kernel.workcache:WORK_CACHE",
              "pagestore": "repro.kernel.pagestore:PAGE_STORE"}

    def __init__(self) -> None:
        self.events = 0
        self._start: Dict[str, Dict[str, float]] = {}
        self._banked: Dict[str, List[int]] = {k: [0, 0] for k in self.CACHES}
        self._base: Dict[str, List[int]] = {}

    @staticmethod
    def _read(path: str, fields: Iterable[str]) -> Dict[str, float]:
        found = _resolve(path)
        obj = getattr(*found) if found else None
        out = {}
        for field in fields:
            value = getattr(obj, field, 0) if obj is not None else 0
            if isinstance(value, dict):       # per-kind counters
                value = sum(value.values())
            out[field] = float(value or 0)
        return out

    def _cache_counts(self, name: str) -> List[int]:
        found = _resolve(self.CACHES[name])
        obj = getattr(*found) if found else None
        return [int(getattr(obj, "hits", 0)), int(getattr(obj, "misses", 0))]

    def bank_caches(self) -> None:
        for name in self.CACHES:
            now = self._cache_counts(name)
            for i in range(2):
                self._banked[name][i] += now[i] - self._base[name][i]

    def rebase_caches(self) -> None:
        self._base = {name: self._cache_counts(name) for name in self.CACHES}

    def start(self) -> None:
        self._start = {layer: self._read(path, fields)
                       for layer, (path, fields) in self.GLOBALS.items()}
        self.rebase_caches()

    def stop(self) -> Dict[str, float]:
        self.bank_caches()
        out: Dict[str, float] = {}
        for layer, (path, fields) in self.GLOBALS.items():
            now = self._read(path, fields)
            for field in fields:
                out[f"{layer}.{field}"] = now[field] - self._start[layer][field]
        for name, (hits, misses) in self._banked.items():
            out[f"{name}.hits"] = float(hits)
            out[f"{name}.misses"] = float(misses)
        out["engine.events"] = float(self.events)
        return out


class Tracer:
    """Installs the spans and counters for one traced round."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.counters = Counters()
        self._patched: List[Tuple[Any, str, Any]] = []

    def _patch(self, path: str, name: str,
               wrap: Optional[Callable[[Callable], Callable]] = None,
               **hooks: Any) -> None:
        """Wrap ``path`` in a span named ``name`` (skipped when a later
        version of the program no longer has it)."""
        found = _resolve(path)
        if found is None:
            return
        owner, attr = found
        original = owner.__dict__[attr]
        fn = getattr(owner, attr)
        wrapped = self.spans.wrap(name, wrap(fn) if wrap else fn, **hooks)
        if isinstance(original, staticmethod):
            wrapped = staticmethod(wrapped)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        if isinstance(owner, type):
            return
        # Modules that imported a function by name hold their own
        # reference; rebind those too.
        for module in list(sys.modules.values()):
            if (module is not owner
                    and getattr(module, "__name__", "").startswith("repro")
                    and module.__dict__.get(attr) is fn):
                self._patched.append((module, attr, fn))
                setattr(module, attr, wrapped)

    def install(self) -> None:
        counters = self.counters

        def count_events(run: Callable[..., Any]) -> Callable[..., Any]:
            def counted(sim: Any, *args: Any, **kwargs: Any) -> Any:
                seq0 = getattr(sim, "_seq", 0)
                try:
                    return run(sim, *args, **kwargs)
                finally:
                    counters.events += getattr(sim, "_seq", 0) - seq0
            return counted

        self._patch("repro.sim.engine:Simulator.run", "Simulator.run",
                    wrap=count_events)
        self._patch("repro.sim.parallel:ForkSpec.run_warmup", "warm-up")
        self._patch("repro.sim.checkpoint:snapshot", "checkpoint.snapshot")
        self._patch("repro.sim.checkpoint:Checkpoint.restore",
                    "Checkpoint.restore", on_enter=counters.bank_caches,
                    on_exit=counters.rebase_caches)
        self._patch("repro.sim.parallel:ShardPool.step", "ShardPool.step")
        self._patch("repro.rack.fabric:Fabric.deliveries",
                    "Fabric.deliveries")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def cell_wrapper(self, guarded: Callable[..., Any]) -> Callable[..., Any]:
        """Wraps the benchmark's cell runner in a ``cell`` span."""
        spans = self.spans
        traced = spans.wrap("cell", guarded)

        def cell(fn: Callable[..., Any], key: str, *rest: Any) -> Any:
            spans.cell = str(key)
            return traced(fn, key, *rest)
        return cell


def profile(run: Callable[[], Any]) -> Tuple[Any, Dict[Any, Any]]:
    """``run()`` under cProfile; returns its result and the raw stats."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run()
    finally:
        profiler.disable()
    return result, pstats.Stats(profiler).stats
