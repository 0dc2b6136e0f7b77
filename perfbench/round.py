"""One round of a workload in a fresh interpreter (started by run.py).

Usage::

    python3 perfbench/round.py --workload NAME --seed N --jobs J
        [--trace SPANS_JSON] [--cell I] [--setup-only]

Prints one JSON object on stdout: when the first cell started (the end
of set-up), the process's own CPU time at that instant, the cells' wall
time, the host-speed probe's mean during set-up and during the cells
(hostspeed.py; untraced rounds only), and per command the digest of its
formatted output and each cell's status.  With ``--trace`` the round runs under the profiler and
spans of tracing.py, and the JSON adds per-layer time, calls and counters;
the spans themselves go to SPANS_JSON.  ``--cell I`` runs only the
workload's I-th cell.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import sys
import time

import hostspeed


def _cpu_self() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _toggles() -> dict:
    """Effective value of every feature toggle the program reads from
    ``REPRO_*`` variables (run.py clears them all before each round)."""
    import importlib
    probes = {
        "REPRO_TIMERS": "repro.sim.timers:timers_mode",
        "REPRO_TIMERS_REAP": "repro.sim.timers:timers_reap_enabled",
        "REPRO_STATS": "repro.sim.stats:stats_mode",
        "REPRO_BULK": "repro.sim.bulk:bulk_enabled",
        "REPRO_CHECKPOINT": "repro.sim.checkpoint:checkpoint_enabled",
        "REPRO_PAGESTORE": "repro.kernel.pagestore:pagestore_enabled",
        "REPRO_WORKCACHE": "repro.kernel.workcache:workcache_enabled",
        "REPRO_RACK_FF": "repro.rack.cluster:rack_ff_enabled",
        "REPRO_WIRE_CODEC": "repro.rack.fabric:wire_codec_enabled",
        "REPRO_EXPCACHE": "repro.analysis.expcache:expcache_enabled",
        "REPRO_JOBS": "repro.sim.parallel:resolve_jobs",
    }
    out = {}
    for var, path in probes.items():
        module, _, fn = path.partition(":")
        try:
            out[var] = getattr(importlib.import_module(module), fn)()
        except (ImportError, AttributeError):
            out[var] = None
    out["set"] = sorted(k for k in os.environ if k.startswith("REPRO_"))
    return out


def _finite(text: str) -> bool:
    return re.search(r"\b(nan|inf)\b", text, re.IGNORECASE) is None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--trace", default=None, metavar="SPANS_JSON")
    parser.add_argument("--cell", type=int, default=None, metavar="I")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # The traced round is timed by the profiler, not against the host.
    sampler = None if args.trace else hostspeed.Sampler().start()
    # Set-up is what a `python -m repro` user pays before the first
    # cell: the interpreter, the CLI's import closure, the workload's.
    import repro.cli  # noqa: F401
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    cells_start = time.perf_counter()
    if sampler is not None:
        setup_samples, setup_probe = len(sampler.samples), sampler.mean()
        setup_probe_cpu = sampler.cpu_s
    if args.setup_only:
        sampler.stop()
        print(json.dumps({"cells_start": cells_start,
                          "probe": {"setup_s": setup_probe}}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        tracer.counters.start()
    cpu0 = _cpu_self()
    t0 = time.perf_counter()
    if tracer is None:
        done = workloads.run_round(workload, args.seed, args.jobs,
                                   only=args.cell)
        stats = None
    else:
        def traced_round():
            return tracer.spans.wrap("workload", workloads.run_round)(
                workload, args.seed, args.jobs, tracer.cell_wrapper, args.cell)
        done, stats = tracing.profile(traced_round)
    wall = time.perf_counter() - t0
    cpu_cells = _cpu_self() - cpu0
    probe = None
    if sampler is not None:
        sampler.stop()
        probe = {"setup_s": setup_probe,
                 "cells_s": sampler.mean(setup_samples),
                 "cpu_s": sampler.cpu_s - setup_probe_cpu}

    claims = {}
    for co in done:
        claims.update(co.claims())
    report = {
        "cells_start": cells_start,
        "cpu_before_cells": cpu0,
        "wall_s": wall,
        "probe": probe,
        "commands": command_reports(done),
        "claims": claims,
        "claims_in_band": workloads.claims_in_band(claims),
        "toggles": _toggles(),
    }
    if tracer is not None:
        tracer.uninstall()
        src_root = os.path.dirname(os.path.dirname(repro.cli.__file__))
        self_s, calls = tracing.attribute(stats, src_root)
        report["trace"] = {
            "cpu_s": cpu_cells,
            "self_s": self_s,
            "calls": calls,
            "counters": tracer.counters.stop(),
            "results": _result_counters(done),
            "spans": tracer.spans.summary(),
        }
        with open(args.trace, "w") as fh:
            json.dump(tracer.spans.to_json(t0), fh)
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


def command_reports(done) -> dict:
    """Per command: its output, the output's sha256, and each cell's
    status, error and digest."""
    from workloads import sha256
    commands = {}
    for co in done:
        output = co.output() if co.whole else ""
        commands[co.command.name] = {
            "seed": co.seed,
            "complete": co.complete,
            "digest": sha256(output) if co.whole else None,
            "finite": _finite(output),
            "output": output,
            "cells": {o.key: {"ok": o.ok, "error": o.error,
                              "digest": (sha256(co.cell_output(o))
                                         if o.ok else None)}
                      for o in co.outcomes},
        }
    return commands


#: Counters the cells' own result objects carry (attribute or stats key).
RESULT_FIELDS = ("requests", "retries", "timeouts", "fault_errors",
                 "hedges_fired", "hedge_wins", "shed", "breaker_trips")


def _result_counters(done) -> dict:
    totals = {field: 0.0 for field in RESULT_FIELDS}

    def visit(obj) -> None:
        if obj is None:
            return
        cells = getattr(obj, "cells", None)
        if isinstance(cells, dict):
            for cell in cells.values():
                visit(cell)
            return
        for part in ("baseline", "host_kill"):     # ext_rack's report
            if hasattr(obj, part):
                visit(getattr(obj, part))
        stats = getattr(obj, "stats", None)
        source = stats if isinstance(stats, dict) else None
        for field in RESULT_FIELDS:
            value = (source.get(field) if source is not None
                     else getattr(obj, field, None))
            if isinstance(value, (int, float)) and math.isfinite(value):
                totals[field] += value

    for co in done:
        for result in co.results:
            visit(result)
    return totals


if __name__ == "__main__":
    raise SystemExit(main())
