"""Command-line entry point: regenerate any paper table or figure.

Usage::

    python -m repro <experiment> [options]
    python -m repro lint [paths ...] [--format json]

Experiments: ``fig3 fig4 fig5 fig6 fig8 table3 table4 sec7 all``; the
``lint`` subcommand runs reprolint (see ``docs/LINT.md``).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import Callable, Dict, NoReturn

from repro.errors import ConfigError
from repro.sim.parallel import SweepPoint, SweepSpec, resolve_jobs, run_sweep

from repro.experiments import (
    fig3_d2h,
    fig4_d2d,
    fig5_h2d,
    fig6_transfer,
    fig8_tail_latency,
    sec7_accounting,
    table3_coherence,
    table4_breakdown,
)
from repro.units import ms


def _run_fig3(args) -> str:
    return fig3_d2h.format_table(fig3_d2h.run(reps=args.reps))


def _run_fig4(args) -> str:
    return fig4_d2d.format_table(fig4_d2d.run(reps=args.reps))


def _run_fig5(args) -> str:
    return fig5_h2d.format_table(fig5_h2d.run(reps=args.reps))


def _run_fig6(args) -> str:
    return fig6_transfer.format_table(
        fig6_transfer.run(reps=max(2, args.reps // 4), jobs=args.jobs))


def _run_fig8(args) -> str:
    scenario = fig8_tail_latency.ScenarioConfig(
        duration_ns=ms(args.duration_ms))
    workloads = tuple(args.workloads)
    result = fig8_tail_latency.run(workloads=workloads, scenario=scenario,
                                   jobs=args.jobs)
    return fig8_tail_latency.format_table(result)


def _run_table3(args) -> str:
    return table3_coherence.format_table(table3_coherence.run())


def _run_table4(args) -> str:
    return table4_breakdown.format_table(table4_breakdown.run(reps=args.reps))


def _run_sec7(args) -> str:
    scenario = fig8_tail_latency.ScenarioConfig(
        duration_ns=ms(args.duration_ms))
    return sec7_accounting.format_table(
        sec7_accounting.run(scenario=scenario, jobs=args.jobs))


def _run_report(args) -> str:
    from repro.analysis.report import generate
    report = generate(fig8_duration_ms=args.duration_ms,
                      reps=args.reps, include_fig8=not args.quick,
                      jobs=args.jobs)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report)
        return f"report written to {args.output}"
    return report


def _run_calibration(args) -> str:
    from repro.analysis.calibration import render
    return render()


def _run_faults(args) -> str:
    from repro.experiments import ext_fault_resilience
    if args.fault_plan:
        cell = ext_fault_resilience.run_cell(
            f"cxl {args.fault_plan}", transport="cxl",
            fault_spec=args.fault_plan)
        result = ext_fault_resilience.FaultResilienceResult(
            {cell.scenario: cell}, ())
        return ext_fault_resilience.format_table(result)
    return ext_fault_resilience.format_table(
        ext_fault_resilience.run(jobs=args.jobs))


def _run_ext_degradation(args) -> str:
    from repro.experiments import ext_degradation
    # A fifth of the fig8 duration: the storm grid runs 5 cells whose
    # per-op cost is dominated by the (expensive) fault windows.
    result = ext_degradation.run(duration_ns=ms(args.duration_ms / 5.0),
                                 jobs=args.jobs)
    return ext_degradation.format_table(result)


def _run_speed(args) -> str:
    from repro.analysis.speed import measure, render, write_json
    payload = measure(rounds=args.rounds)
    if args.output:
        write_json(payload, args.output)
    return render(payload)


def _run_ext_scale(args) -> str:
    from repro.experiments import ext_scale
    # The tolerance check only makes sense with a streamed headline.
    mode = "stream" if args.compare_exact else None
    result = ext_scale.run(requests=args.requests, mode=mode,
                           compare_exact=args.compare_exact)
    # The RSS trace is wall-clock process state — operator feedback on
    # stderr, never part of the deterministic stdout record.
    print(ext_scale.format_rss_trace(result), file=sys.stderr)
    return ext_scale.format_table(result)


def _run_ext_rack(args) -> str:
    from repro.experiments import ext_rack
    result = ext_rack.run(hosts=args.hosts, users=args.users,
                          jobs=args.jobs)
    # The RSS trace is wall-clock process state — operator feedback on
    # stderr, never part of the deterministic stdout record.
    print(ext_rack.format_rss_trace(result), file=sys.stderr)
    return ext_rack.format_table(result)


RUNNERS: Dict[str, Callable] = {
    "report": _run_report,
    "speed": _run_speed,
    "ext_scale": _run_ext_scale,
    "ext_rack": _run_ext_rack,
    "calibration": _run_calibration,
    "faults": _run_faults,
    "ext_degradation": _run_ext_degradation,
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig8": _run_fig8,
    "table3": _run_table3,
    "table4": _run_table4,
    "sec7": _run_sec7,
}

#: Experiment -> module whose transitive ``repro.*`` import closure is
#: the experiment's code fingerprint (see repro.analysis.expcache).
#: ``speed`` (prints wall times) and ``report`` (writes files / composes
#: everything) are deliberately absent — they are never cached.
CACHEABLE: Dict[str, str] = {
    "ext_scale": "repro.experiments.ext_scale",
    "ext_rack": "repro.experiments.ext_rack",
    "calibration": "repro.analysis.calibration",
    "faults": "repro.experiments.ext_fault_resilience",
    "ext_degradation": "repro.experiments.ext_degradation",
    "fig3": "repro.experiments.fig3_d2h",
    "fig4": "repro.experiments.fig4_d2d",
    "fig5": "repro.experiments.fig5_h2d",
    "fig6": "repro.experiments.fig6_transfer",
    "fig8": "repro.experiments.fig8_tail_latency",
    "table3": "repro.experiments.table3_coherence",
    "table4": "repro.experiments.table4_breakdown",
    "sec7": "repro.experiments.sec7_accounting",
}


def _cache_key(name: str, args: argparse.Namespace) -> Dict:
    """The content address of one experiment run: code fingerprint plus
    every determinism-relevant argument and ambient mode.  ``--jobs``
    and the byte-identity-pinned toggles are excluded on purpose — see
    repro.analysis.expcache."""
    from repro.analysis.expcache import ambient_modes, module_fingerprint
    return {
        "experiment": name,
        "code": module_fingerprint(CACHEABLE[name]),
        "args": {
            "reps": args.reps,
            "duration_ms": args.duration_ms,
            "workloads": list(args.workloads),
            "fault_plan": args.fault_plan,
            "requests": args.requests,
            "compare_exact": args.compare_exact,
            "hosts": args.hosts,
            "users": args.users,
        },
        "modes": ambient_modes(),
    }


def _run_cached(name: str, args: argparse.Namespace) -> str:
    """Run one experiment through the content-addressed cache: an
    unchanged (code, args, modes) cell is served from disk, skipping
    the simulation entirely — sound because CI pins every experiment's
    stdout as a pure function of exactly that key."""
    from repro.analysis.expcache import ExperimentCache, expcache_enabled
    if (name not in CACHEABLE or not expcache_enabled()
            or getattr(args, "no_expcache", False)):
        return RUNNERS[name](args)
    cache = ExperimentCache()
    key = _cache_key(name, args)
    hit = cache.lookup(key)
    if hit is not None:
        print(f"[{name} served from expcache]", file=sys.stderr)
        return hit
    output = RUNNERS[name](args)
    cache.store(key, output)
    return output


class _Parser(argparse.ArgumentParser):
    """Reports bad input as one ``repro: error: ...`` line (exit 2)."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


def _positive(kind: type) -> Callable[[str], float]:
    """An argparse type accepting only finite values > 0 of ``kind``."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(
                f"must be a positive number, got {text!r}")
        return value
    parse.__name__ = kind.__name__      # "invalid int value: ..."
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Regenerate tables/figures of 'Demystifying a CXL "
                    "Type-2 Device' (MICRO 2024) from the simulator.",
    )
    parser.add_argument("experiment",
                        choices=sorted(RUNNERS) + ["all"],
                        help="which table/figure to regenerate")
    parser.add_argument("--reps", type=_positive(int), default=20,
                        help="microbenchmark repetitions (default 20)")
    parser.add_argument("--duration-ms", type=_positive(float), default=300.0,
                        help="fig8/sec7 simulated duration per cell")
    parser.add_argument("--workloads", nargs="+", default=["a"],
                        choices=["a", "b", "c", "d"],
                        help="YCSB workloads for fig8")
    parser.add_argument("--fault-plan", default=None, metavar="SPEC",
                        help="faults: inject this plan on the cxl backend, "
                             "e.g. 'link_crc=1e-6,device_hang@t=50ms'")
    parser.add_argument("--quick", action="store_true",
                        help="report: skip the (slow) fig8/sec7 section")
    parser.add_argument("--output", default=None,
                        help="report: write markdown to this file; "
                             "speed: write BENCH_speed.json here")
    parser.add_argument("--rounds", type=_positive(int), default=3,
                        help="speed: benchmark repetitions (best-of)")
    parser.add_argument("--requests", type=_positive(int), default=5_000_000,
                        help="ext_scale: total requests to drive")
    parser.add_argument("--hosts", type=_positive(int), default=16,
                        help="ext_rack: simulated hosts in the rack")
    parser.add_argument("--users", type=_positive(int), default=10_000_000,
                        help="ext_rack: simulated users to shard")
    parser.add_argument("--compare-exact", action="store_true",
                        help="ext_scale: shadow-run with exact stats and "
                             "report the streamed percentiles' error")
    parser.add_argument("--jobs", "-j", default=None, metavar="N",
                        help="worker processes for parallel sweeps "
                             "(0 or 'auto' = one per CPU; default: "
                             "$REPRO_JOBS or 1).  Results are "
                             "byte-identical for every N.")
    parser.add_argument("--checkpoint", choices=["on", "off"], default=None,
                        help="fork sweep points from a shared warm-up "
                             "snapshot (on, the default) or replay the "
                             "warm-up per point (off).  Byte-identical "
                             "either way; also $REPRO_CHECKPOINT.")
    parser.add_argument("--no-expcache", action="store_true",
                        help="always re-simulate, even when the "
                             "content-addressed experiment cache has the "
                             "cell (also REPRO_EXPCACHE=0; the cache "
                             "directory defaults to .repro_expcache)")
    return parser


def _run_named(name: str, args: argparse.Namespace) -> str:
    """Experiment-level worker for ``repro all`` (module-level so it
    pickles into pool workers).  Routes through the experiment cache,
    so a warm ``repro all`` reads every unchanged cell from disk."""
    return _run_cached(name, args)


def _run_all(names, args, jobs: int):
    """Run several experiments, fanning out across processes when
    ``jobs > 1``.  Workers get ``jobs=1`` so cell-level sweeps inside an
    experiment never nest a second pool."""
    worker_args = argparse.Namespace(**{**vars(args), "jobs": 1})
    spec = SweepSpec("all", tuple(
        SweepPoint(name, _run_named, (name, worker_args))
        for name in names))
    return run_sweep(spec, jobs=jobs)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "lint":
        # The lint subcommand has its own argument surface; dispatch
        # before the experiment parser sees (and rejects) it.
        from repro.lint.cli import main as lint_main
        return lint_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _main(args)
    except ConfigError as exc:
        # Bad input (a malformed --fault-plan, say) is a usage error;
        # faults raised mid-simulation keep their traceback.
        parser.error(str(exc))


def _main(args: argparse.Namespace) -> int:
    args.jobs = resolve_jobs(args.jobs)
    if args.checkpoint is not None:
        from repro.sim.checkpoint import set_checkpoint
        set_checkpoint(args.checkpoint == "on")
    if args.experiment == "all":
        # "report" re-runs everything; "speed" prints wall times, which
        # would make `all` output nondeterministic; "ext_scale" and
        # "ext_rack" are multi-minute scale runs.  All four stay opt-in.
        names = [name for name in sorted(RUNNERS)
                 if name not in ("report", "speed", "ext_scale",
                                 "ext_rack")]
        # Elapsed wall time is operator feedback on stderr, not simulated
        # time — the monotonic clock is the right tool for it.
        start = time.perf_counter()  # reprolint: disable=DET101
        outputs = _run_all(names, args, args.jobs)
        for name in names:
            print(outputs[name])
            print()
        print(f"[all ({len(names)} experiments, jobs={args.jobs}) "
              f"regenerated in {time.perf_counter() - start:.1f}s]",
              file=sys.stderr)
        return 0
    name = args.experiment
    start = time.perf_counter()  # reprolint: disable=DET101
    output = _run_cached(name, args)
    print(output)
    print(f"[{name} regenerated in {time.perf_counter() - start:.1f}s]",
          file=sys.stderr)
    print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
