"""Tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import hostspeed
import repro
import run
import tracing
import workloads
from repro.analysis.expected import PAPER
from repro.sim.engine import Simulator
from repro.sim.parallel import SweepPoint
from round import command_reports

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- layer aggregation --------------------------------------------------------

def _repro_modules():
    yield "repro"
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        yield info.name


def test_every_repro_module_maps_to_exactly_one_layer_or_other():
    modules = list(_repro_modules())
    assert len(modules) > 100
    for module in modules:
        owners = [layer for layer, names in tracing.LAYERS.items()
                  for name in names
                  if module == name or module.startswith(name + ".")]
        assert len(owners) <= 1, (module, owners)
        assert tracing.layer_of(module) == (owners[0] if owners else None)


def test_every_layer_owns_an_existing_module():
    modules = set(_repro_modules())
    for layer, names in tracing.LAYERS.items():
        if layer in ("pickle", "other"):
            continue
        for name in names:
            assert name in modules, (layer, name)


def _func(path, name, line=1):
    return (path, line, name)


def test_attribute_charges_foreign_code_to_its_callers():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    engine = _func(os.path.join(src, "repro", "sim", "engine.py"), "run")
    cache = _func(os.path.join(src, "repro", "mem", "cache.py"), "access")
    experiment = _func(os.path.join(src, "repro", "experiments",
                                    "fig3_d2h.py"), "run")
    heappush = _func("~", "<built-in method _heapq.heappush>", 0)
    loads = _func("~", "<built-in method _pickle.loads>", 0)
    helper = _func("/usr/lib/python3/random.py", "random")
    top = _func("/usr/lib/python3/runpy.py", "_run_code")
    stats = {
        # func: (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})
        top: (1, 1, 0.5, 10.0, {}),
        experiment: (1, 1, 1.0, 9.5, {top: (1, 1, 1.0, 9.5)}),
        engine: (2, 2, 3.0, 6.0, {experiment: (2, 2, 3.0, 6.0)}),
        cache: (5, 5, 1.0, 2.0, {engine: (5, 5, 1.0, 2.0)}),
        # heappush: 2 s from the engine, 1 s from the cache
        heappush: (9, 9, 3.0, 3.0, {engine: (6, 6, 2.0, 2.0),
                                    cache: (3, 3, 1.0, 1.0)}),
        loads: (1, 1, 0.25, 0.25, {experiment: (1, 1, 0.25, 0.25)}),
        # a stdlib helper called only by another foreign function
        helper: (4, 4, 0.4, 0.4, {heappush: (4, 4, 0.4, 0.4)}),
    }
    self_s, calls = tracing.attribute(stats, src)
    total_tt = sum(entry[2] for entry in stats.values())
    assert math.isclose(sum(self_s.values()), total_tt)
    assert math.isclose(self_s["engine"], 3.0 + 2.0 + 0.4 * 2 / 3)
    assert math.isclose(self_s["mem"], 1.0 + 1.0 + 0.4 / 3)
    assert math.isclose(self_s["pickle"], 0.25)
    assert math.isclose(self_s["other"], 0.5 + 1.0)
    assert calls["engine"] == 2 and calls["mem"] == 5
    assert calls["pickle"] == 1 and calls["other"] == 1


# -- metric names --------------------------------------------------------------

def test_metric_names_and_units_are_valid_and_match_the_code():
    bench = _bench()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == list(run.per_layer_units().items())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for metric in bench["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


def test_per_layer_reports_exactly_the_declared_metrics():
    counters = tracing.Counters()
    counters.start()
    fields = {f: 1.0 for f in (
        "requests", "retries", "timeouts", "fault_errors", "hedges_fired",
        "hedge_wins", "shed", "breaker_trips")}
    traced = {"claims_in_band": 3, "commands": {}, "trace": {
        "cpu_s": 4.0, "self_s": {layer: 0.25 for layer in tracing.LAYERS},
        "calls": {layer: 1 for layer in tracing.LAYERS},
        "counters": counters.stop(), "results": fields, "spans": {}}}
    plain = {"cpu_s": 2.0, "wall_s": 1.0, "commands": {}}
    metrics = run.per_layer(plain, traced, 2, [plain, traced])
    assert list(metrics) == list(run.per_layer_units())
    assert metrics["trace.overhead_s"] == 2.0
    assert metrics["parallel.efficiency"] == 1.0
    assert metrics["engine.share"] == 0.25 / 4.0


# -- failure accounting ----------------------------------------------------------

def _raising_cells(seed, jobs):
    return [SweepPoint("bad", int, ("not a number",)),
            SweepPoint("good", abs, (-3,))]


def _fake(name, cells):
    return workloads.Command(name, (name,), cells,
                             lambda results: " ".join(map(str, results)))


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_raising_cell_fails_alone(jobs):
    workload = workloads.Workload("injected", "test", (
        _fake("mixed", _raising_cells),
        workloads.COMMANDS["table3"]))
    done = workloads.run_round(workload, workloads.DEFAULT_SEED, jobs)
    mixed, table3 = done
    bad, good = mixed.outcomes
    assert not bad.ok and bad.error.startswith("ValueError:")
    assert good.ok and good.result == 3
    assert not mixed.complete and mixed.output() == "3"
    assert table3.complete
    attempted, failed = run._cells([{"commands": command_reports(done)}])
    assert (attempted, failed) == (3, 1)
    assert failed / attempted > 0


def test_rounds_that_disagree_are_not_correct():
    workload = workloads.Workload("injected", "test",
                                  (workloads.COMMANDS["table3"],))
    report = {"commands": command_reports(
        workloads.run_round(workload, workloads.DEFAULT_SEED, 1))}
    assert run.check([report, report], default_seed=True) == []
    changed = json.loads(json.dumps(report))
    changed["commands"]["table3"]["digest"] = "0" * 64
    assert run.check([report, changed], default_seed=False)


# -- seeds, outputs and claims ------------------------------------------------------

def test_default_seed_prints_what_the_cli_prints():
    env = run._child_env()
    cli = subprocess.run([sys.executable, "-m", "repro", "table3"],
                         cwd=run.ROOT, env=env, text=True,
                         capture_output=True, check=True).stdout
    workload = workloads.Workload("t", "test", (workloads.COMMANDS["table3"],))
    (done,) = workloads.run_round(workload, workloads.DEFAULT_SEED, 1)
    assert cli == done.output() + "\n\n"
    with open(os.path.join(run.HERE, "golden.json")) as fh:
        golden = json.load(fh)
    assert golden["sha256"]["table3"] == workloads.sha256(done.output())
    assert set(golden["sha256"]) == set(workloads.COMMANDS)


def test_other_seeds_derive_each_commands_seed():
    seeded = workloads.WORKLOADS["device_paths"]
    fig3 = workloads.COMMANDS["fig3"]
    assert seeded.seed_for(fig3, workloads.DEFAULT_SEED) is None
    assert seeded.seed_for(fig3, 5) == seeded.seed_for(fig3, 5)
    assert seeded.seed_for(fig3, 5) != seeded.seed_for(fig3, 6)
    pinned = workloads.WORKLOADS["fault_recovery"]
    assert pinned.seed_for(workloads.COMMANDS["faults"], 5) is None


@pytest.mark.parametrize("name,run_small", [
    ("fig3", lambda: workloads.fig3_d2h.run(reps=2)),
    ("fig4", lambda: workloads.fig4_d2d.run(reps=2)),
    ("fig5", lambda: workloads.fig5_h2d.run(reps=2)),
    ("fig6", lambda: workloads.fig6_transfer.run(reps=2)),
    ("table4", lambda: workloads.table4_breakdown.run(reps=1)),
])
def test_claims_cover_every_paper_key_of_the_figure(name, run_small):
    claims = workloads.COMMANDS[name].claims([run_small()])
    expected = {key for key in PAPER if key.split("/")[0] == name}
    assert set(claims) == expected
    assert all(math.isfinite(v) for v in claims.values())


# -- tracing -------------------------------------------------------------------------

def test_tracer_records_spans_and_events_then_restores():
    original = Simulator.__dict__["run"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
    finally:
        tracer.uninstall()
    assert Simulator.__dict__["run"] is original
    assert tracer.counters.events == 0      # scheduled before run()
    summary = tracer.spans.summary()
    assert summary["Simulator.run"]["count"] == 1

    tracer = tracing.Tracer()
    tracer.install()
    try:
        sim = Simulator()
        sim.schedule(0.0, lambda: sim.schedule(1.0, lambda: None))
        sim.run()
    finally:
        tracer.uninstall()
    assert tracer.counters.events == 1


# -- host speed ----------------------------------------------------------------------

def test_sampler_times_the_probe_while_busy_then_restores_the_handler():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler(interval=0.005).start()
    try:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            hostspeed.probe()
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 5
    assert all(s > 0 for s in sampler.samples)
    assert sampler.cpu_s >= sum(sampler.samples)
    assert sampler.mean(len(sampler.samples)) is None


def test_times_scale_to_the_reference_speed():
    ref = hostspeed.REF_PROBE_S
    assert hostspeed.at_reference(10.0, ref) == 10.0
    assert hostspeed.at_reference(10.0, 2 * ref) == 5.0
    with pytest.raises(ValueError):
        hostspeed.at_reference(10.0, None)


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(run.HERE):
        if name.endswith((".py", ".json", ".md")):
            (bench / name).write_bytes(
                open(os.path.join(run.HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "redis_tail",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
