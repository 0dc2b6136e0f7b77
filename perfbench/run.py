"""The repository benchmark: run one workload, check its outputs, and
print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics: it times set-up in
several fresh interpreters, then runs whole rounds of the workload at
``jobs = nproc`` until ``--seconds`` is spent (at least two rounds), each
round in a fresh interpreter, and reports medians of the times scaled to
a reference host speed that each round samples (hostspeed.py).  ``--trace 1`` runs
one such round plus one traced round at ``jobs=1`` and reports the
per-layer metrics.  Details (digests, cell errors, toggles, paper
claims) go to ``perfbench/out/``; the last line of stdout is the JSON
result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
ROUND = os.path.join(HERE, "round.py")

SETUP_PROBES = 5
MIN_ROUNDS = 2
#: Every child must be done by then; the benchmark must exit within 180 s.
DEADLINE_S = 170.0

END_TO_END = {"cpu_s": "s", "wall_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
#: Per-layer metrics besides every layer's self_s, share and calls.
LAYER_EXTRAS = {
    "engine.events": "count", "engine.ns_per_event": "ns",
    "timers.fired": "count", "timers.cancelled": "count",
    "timers.cancel_ratio": "ratio", "timers.reaped": "count",
    "timers.cascades": "count",
    "checkpoint.snapshots": "count", "checkpoint.restores": "count",
    "checkpoint.snapshot_bytes": "B", "checkpoint.save_s": "s",
    "checkpoint.restore_s": "s",
    "parallel.efficiency": "ratio",
    "fastpath.bulk_lines": "count", "fastpath.bulk_batches": "count",
    "fastpath.fallbacks": "count",
    "kernel.workcache_hit_rate": "ratio", "kernel.pagestore_hit_rate": "ratio",
    "offload.retries": "count", "offload.timeouts": "count",
    "offload.fault_errors": "count",
    "resilience.hedges_fired": "count", "resilience.hedge_win_ratio": "ratio",
    "resilience.shed": "count", "resilience.breaker_trips": "count",
    "apps.requests": "count",
    "rack.epochs_run": "count", "rack.epochs_skipped": "count",
    "rack.wires": "count", "rack.framed_bytes": "B", "rack.bounces": "count",
    "trace.overhead_s": "s",
    "fail_ratio": "ratio",
    "paper_claims_in_band": "count",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name -> its unit, in report order."""
    from tracing import LAYERS
    units = {f"{layer}.{name}": unit for layer in LAYERS
             for name, unit in (("self_s", "s"), ("share", "ratio"),
                                ("calls", "count"))}
    units.update(LAYER_EXTRAS)
    return units


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _child_env() -> Dict[str, str]:
    """The environment of every round: no ``REPRO_*`` toggle from the
    caller, the experiment cache off, this checkout's sources first,
    and a fixed hash seed so call counts repeat."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_EXPCACHE"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _children_usage() -> resource.struct_rusage:
    return resource.getrusage(resource.RUSAGE_CHILDREN)


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.env = _child_env()

    def _start(self, jobs: int, *extra: str) -> Dict[str, Any]:
        cmd = [sys.executable, ROUND, "--workload", self.workload,
               "--seed", str(self.seed), "--jobs", str(jobs), *extra]
        if time.perf_counter() - self.started >= DEADLINE_S:
            raise BenchError("out of time before the next round")
        spawned = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, text=True,
                                stdout=subprocess.PIPE,
                                start_new_session=True)
        return {"proc": proc, "cmd": cmd, "spawned": spawned}

    def _finish(self, started: Dict[str, Any]) -> Dict[str, Any]:
        proc, cmd = started["proc"], " ".join(started["cmd"])
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        try:
            stdout, _ = proc.communicate(timeout=max(remaining, 0.1))
        except subprocess.TimeoutExpired:
            _kill(proc)
            raise BenchError(f"round timed out: {cmd}")
        except BaseException:   # interrupted: stop the round, re-raise
            _kill(proc)
            raise
        if proc.returncode != 0:
            raise BenchError(f"round exited {proc.returncode}: {cmd}")
        report = json.loads(stdout.strip().splitlines()[-1])
        report["setup_s"] = report["cells_start"] - started["spawned"]
        return report

    def child(self, jobs: int, *extra: str) -> Dict[str, Any]:
        """Run round.py once; returns its report plus ``setup_s`` and
        ``cpu_s`` (the cells' CPU time over the child and its workers,
        without the host-speed probe's own)."""
        before = _children_usage()
        report = self._finish(self._start(jobs, *extra))
        after = _children_usage()
        if "cpu_before_cells" in report:
            tree = (after.ru_utime + after.ru_stime
                    - before.ru_utime - before.ru_stime)
            probe_cpu = (report["probe"] or {}).get("cpu_s", 0.0)
            report["cpu_s"] = tree - report["cpu_before_cells"] - probe_cpu
        return report

    def children(self, runs: List[tuple], width: int
                 ) -> List[Dict[str, Any]]:
        """Run round.py once per entry of ``runs`` (each one's ``(jobs,
        *extra)``), ``width`` processes at a time; reports in order."""
        started: List[Dict[str, Any]] = []
        lock = threading.Lock()

        def one(run: tuple) -> Dict[str, Any]:
            with lock:
                child = self._start(*run)
                started.append(child)
            return self._finish(child)

        pool = ThreadPoolExecutor(max_workers=width)
        try:
            return list(pool.map(one, runs))
        finally:
            # On an error, stop what still runs instead of waiting for it.
            with lock:
                for child in started:
                    _kill(child["proc"])
            pool.shutdown(wait=True, cancel_futures=True)


def _kill(proc: subprocess.Popen) -> None:
    """Stop a round and every process it started, then reap it."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()


def _cells(rounds: List[Dict[str, Any]]) -> tuple:
    attempted = failed = 0
    for r in rounds:
        for command in r["commands"].values():
            for cell in command["cells"].values():
                attempted += 1
                failed += not cell["ok"]
    return attempted, failed


def _golden() -> Dict[str, Optional[str]]:
    with open(os.path.join(HERE, "golden.json")) as fh:
        return json.load(fh)["sha256"]


def check(rounds: List[Dict[str, Any]], default_seed: bool) -> List[str]:
    """Output problems; empty means correct.  Every round must produce
    the same digests and cell statuses (determinism, also across
    ``--jobs``), every completed table must be finite, and at the
    default seed every command whose cells all completed must print
    exactly what ``python -m repro`` prints."""
    problems = []
    first = rounds[0]["commands"]
    for r in rounds[1:]:
        for name, command in r["commands"].items():
            ref = first[name]
            if None not in (command["digest"], ref["digest"]) \
                    and command["digest"] != ref["digest"]:
                problems.append(f"{name}: output differs between rounds")
            for key, cell in command["cells"].items():
                if (cell["ok"], cell["digest"]) != (
                        ref["cells"][key]["ok"], ref["cells"][key]["digest"]):
                    problems.append(f"{name}/{key}: cell differs between "
                                    "rounds")
    golden = _golden() if default_seed else {}
    for name, command in first.items():
        if not command["output"].strip() or not command["finite"]:
            problems.append(f"{name}: empty or non-finite output")
        want = golden.get(name)
        if command["complete"] and want and command["digest"] != want:
            problems.append(f"{name}: output differs from the CLI's")
    return problems


def _end_to_end(runner: Runner, seconds: float, jobs: int) -> tuple:
    setups = [runner.child(jobs, "--setup-only")
              for _ in range(SETUP_PROBES)]
    rounds: List[Dict[str, Any]] = []
    while True:
        t0 = time.perf_counter()
        rounds.append(runner.child(jobs))
        took = time.perf_counter() - t0
        elapsed = time.perf_counter() - runner.started
        if len(rounds) >= MIN_ROUNDS and elapsed + took > seconds:
            break
        if elapsed + 2 * took > DEADLINE_S:
            break
    setups += rounds
    ref = hostspeed.at_reference
    metrics = {
        "cpu_s": statistics.median(ref(r["cpu_s"], r["probe"]["cells_s"])
                                   for r in rounds),
        "wall_s": statistics.median(ref(r["wall_s"], r["probe"]["cells_s"])
                                    for r in rounds),
        "setup_s": statistics.median(ref(s["setup_s"], s["probe"]["setup_s"])
                                     for s in setups),
        "peak_rss_mb": _children_usage().ru_maxrss / 1024.0,
    }
    host_s = {
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
    }
    return metrics, rounds, {
        "host_seconds": host_s,
        "setup_samples": [{k: s[k] for k in ("setup_s", "probe")}
                          for s in setups]}


def _traced(runner: Runner, jobs: int) -> tuple:
    """The traced round: every cell in a fresh interpreter of its own at
    ``jobs=1``, so its profiler and counters see all of its work,
    ``jobs`` such processes at a time.  Their reports are summed."""
    import workloads
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{runner.workload}-seed{runner.seed}-spans")
    n = workloads.cell_count(workloads.WORKLOADS[runner.workload])
    parts = runner.children([(1, "--trace", f"{stem}-{i}.json",
                              "--cell", str(i)) for i in range(n)], jobs)
    merged = {"commands": {}, "claims": {}, "toggles": parts[0]["toggles"]}
    trace: Dict[str, Any] = {}
    spans = []
    for i, part in enumerate(parts):
        for name, command in part["commands"].items():
            if name in merged["commands"]:      # a multi-cell command
                merged["commands"][name]["cells"].update(command["cells"])
            else:
                merged["commands"][name] = command
        merged["claims"].update(part["claims"])
        _add(trace, part["trace"])
        with open(f"{stem}-{i}.json") as fh:
            spans.append({"cell_index": i, "spans": json.load(fh)})
        os.remove(f"{stem}-{i}.json")
    merged["claims_in_band"] = workloads.claims_in_band(merged["claims"])
    merged["trace"] = trace
    with open(f"{stem}.json", "w") as fh:
        json.dump(spans, fh)
    return merged, os.path.relpath(f"{stem}.json", ROOT)


def _add(into: Dict[str, Any], part: Dict[str, Any]) -> None:
    """Sum nested dicts of numbers."""
    for key, value in part.items():
        if isinstance(value, dict):
            _add(into.setdefault(key, {}), value)
        else:
            into[key] = into.get(key, 0) + value


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(plain: Dict[str, Any], traced: Dict[str, Any], jobs: int,
              rounds: List[Dict[str, Any]]) -> Dict[str, float]:
    """The per-layer metrics of one traced round (see README.md)."""
    import tracing
    t = traced["trace"]
    cpu = t["cpu_s"]
    c = t["counters"]
    res = t["results"]
    spans = t["spans"]
    m: Dict[str, float] = {}
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = t["self_s"][layer]
        m[f"{layer}.share"] = _ratio(t["self_s"][layer], cpu)
        m[f"{layer}.calls"] = t["calls"][layer]
    events = c["engine.events"]
    m["engine.events"] = events
    m["engine.ns_per_event"] = _ratio(plain["cpu_s"] * 1e9, events)
    for name in ("fired", "cancelled", "reaped", "cascades"):
        m[f"timers.{name}"] = c[f"timers.{name}"]
    m["timers.cancel_ratio"] = _ratio(
        c["timers.cancelled"], c["timers.fired"] + c["timers.cancelled"])
    for name in ("snapshots", "restores", "snapshot_bytes"):
        m[f"checkpoint.{name}"] = c[f"checkpoint.{name}"]
    m["checkpoint.save_s"] = spans.get("checkpoint.snapshot",
                                       {}).get("total_s", 0.0)
    m["checkpoint.restore_s"] = spans.get("Checkpoint.restore",
                                          {}).get("total_s", 0.0)
    m["parallel.efficiency"] = _ratio(plain["cpu_s"], plain["wall_s"] * jobs)
    m["fastpath.bulk_lines"] = c["fastpath.total_lines"]
    m["fastpath.bulk_batches"] = c["fastpath.total_batches"]
    m["fastpath.fallbacks"] = c["fastpath.fallbacks"]
    for cache in ("workcache", "pagestore"):
        hits, misses = c[f"{cache}.hits"], c[f"{cache}.misses"]
        m[f"kernel.{cache}_hit_rate"] = _ratio(hits, hits + misses)
    for name in ("retries", "timeouts", "fault_errors"):
        m[f"offload.{name}"] = res[name]
    m["resilience.hedges_fired"] = res["hedges_fired"]
    m["resilience.hedge_win_ratio"] = _ratio(res["hedge_wins"],
                                             res["hedges_fired"])
    m["resilience.shed"] = res["shed"]
    m["resilience.breaker_trips"] = res["breaker_trips"]
    m["apps.requests"] = res["requests"]
    for name in ("epochs_run", "epochs_skipped", "wires", "framed_bytes",
                 "bounces"):
        m[f"rack.{name}"] = c[f"rack.{name}"]
    m["trace.overhead_s"] = cpu - plain["cpu_s"]
    attempted, failed = _cells(rounds)
    m["fail_ratio"] = _ratio(failed, attempted)
    m["paper_claims_in_band"] = traced["claims_in_band"]
    return {name: m[name] for name in per_layer_units()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")

    def terminate(signum, _frame):
        raise BenchError(f"terminated by signal {signum}")

    signal.signal(signal.SIGTERM, terminate)
    runner = Runner(args.workload, args.seed)
    jobs = _nproc()
    try:
        if args.trace:
            plain = runner.child(jobs)
            traced, spans_file = _traced(runner, jobs)
            rounds = [plain, traced]
            metrics = per_layer(plain, traced, jobs, rounds)
            extra = {"spans_file": spans_file, "trace": traced["trace"],
                     "self_s_sum": sum(traced["trace"]["self_s"].values())}
            units = per_layer_units()
        else:
            metrics, rounds, extra = _end_to_end(runner, args.seconds, jobs)
            units = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = check(rounds, args.seed == workloads.DEFAULT_SEED)
    attempted, failed = _cells(rounds)
    details = {
        "workload": args.workload, "seed": args.seed, "jobs": jobs,
        "nproc": _nproc(), "trace": args.trace,
        "toggles": rounds[0]["toggles"], "problems": problems,
        "attempted": attempted, "failed": failed,
        "rounds": [{k: r.get(k) for k in ("cpu_s", "wall_s", "setup_s",
                                          "probe")}
                   for r in rounds],
        "commands": {name: {"seed": c["seed"], "digest": c["digest"],
                            "complete": c["complete"], "cells": c["cells"]}
                     for name, c in rounds[0]["commands"].items()},
        "claims": rounds[-1]["claims"],
        "metrics": metrics, **extra,
    }
    os.makedirs(OUT, exist_ok=True)
    out_path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)

    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    for name, value in extra.get("host_seconds", {}).items():
        print(f"{name + ' (host seconds)':32s} {value:14.6g} s")
    for problem in problems:
        print(f"problem: {problem}")
    print(f"cells: {attempted} attempted, {failed} failed; details in "
          f"{os.path.relpath(out_path, ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
