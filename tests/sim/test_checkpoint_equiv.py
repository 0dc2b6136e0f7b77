"""Forked-vs-cold equivalence: the checkpoint determinism contract.

Pinned exactly the way bulk off/on is pinned: for every experiment that
declares a :class:`~repro.sim.parallel.ForkSpec`,
the formatted output of a checkpoint-forked sweep must be **byte
identical** to the cold path that replays the warm-up per point — at
any worker count, with RAS fault plans armed or disarmed, and with the
runtime sanitizers armed.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.sim.checkpoint import set_checkpoint
from repro.sim.parallel import ForkSpec, run_forked_sweep
from repro.units import ms


@pytest.fixture(autouse=True)
def _restore_toggle():
    yield
    set_checkpoint(None)


def _forked_vs_cold(fn):
    """Run ``fn`` cold and forked; return the pair."""
    set_checkpoint(False)
    cold = fn()
    set_checkpoint(True)
    forked = fn()
    return cold, forked


class TestFig6:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_byte_identical(self, jobs):
        from repro.experiments import fig6_transfer
        cold, forked = _forked_vs_cold(
            lambda: fig6_transfer.format_table(
                fig6_transfer.run(reps=2, jobs=jobs)))
        assert forked == cold


class TestFig8:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_byte_identical(self, jobs):
        from repro.experiments import fig8_tail_latency as fig8
        scenario = fig8.ScenarioConfig(duration_ns=ms(20.0))
        cold, forked = _forked_vs_cold(
            lambda: fig8.format_table(
                fig8.run(workloads=("a",), backends=("none", "cxl"),
                         scenario=scenario, jobs=jobs)))
        assert forked == cold

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_byte_identical_with_two_point_groups(self, jobs):
        """With two workloads every (feature, backend) group has two
        points, so the forked side really snapshots and restores (a
        one-workload group warms up cold on both sides)."""
        from repro.experiments import fig8_tail_latency as fig8
        from repro.sim.checkpoint import CHECKPOINT_STATS
        scenario = fig8.ScenarioConfig(duration_ns=ms(20.0))

        def run():
            CHECKPOINT_STATS.reset()
            return fig8.format_table(
                fig8.run(workloads=("a", "b"), backends=("none", "cxl"),
                         scenario=scenario, jobs=jobs))
        cold, forked = _forked_vs_cold(run)
        assert CHECKPOINT_STATS.snapshots == 4
        assert forked == cold


class TestExtScale:
    def test_byte_identical_with_exact_shadow(self):
        from repro.experiments import ext_scale
        cold, forked = _forked_vs_cold(
            lambda: ext_scale.format_table(
                ext_scale.run(requests=2_000, mode="stream",
                              checkpoints=3, compare_exact=True)))
        assert forked == cold


class TestSleepTuning:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_byte_identical(self, jobs):
        from repro.experiments import ext_sleep_tuning as st
        cold, forked = _forked_vs_cold(
            lambda: st.format_table(
                st.run(duration_ns=ms(30.0), jobs=jobs)))
        assert forked == cold


# -- RAS armed: the fault plan is part of the snapshotted graph --------------


def _armed_warmup(seed: int):
    from repro.core.platform import Platform
    platform = Platform(seed=seed)
    platform.arm_faults("link_crc=1e-3")
    return platform


def _armed_point(platform, direction: str, nbytes: int):
    from repro.core.transfer import TransferBench
    bench = TransferBench(platform, reps=2)
    return bench.measure("cxl-ldst", direction, nbytes)


def _armed_sweep(jobs: int):
    spec = ForkSpec.build(
        "ras-armed", _armed_warmup,
        [((d, n), _armed_point, (d, n), {})
         for d in ("d2h", "h2d") for n in (16384, 65536)],
        warmup_args=(77,))
    return run_forked_sweep(spec, jobs=jobs)


class TestRasArmed:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fault_plan_survives_fork(self, jobs):
        cold, forked = _forked_vs_cold(lambda: _armed_sweep(jobs))
        assert forked == cold

    def test_armed_differs_from_disarmed(self):
        """The armed sweep must actually exercise the fault plan — a
        plan that pickled into inertness would pass equivalence
        trivially."""
        set_checkpoint(True)
        armed = _armed_sweep(jobs=1)

        def _disarmed():
            from repro.core.platform import Platform
            spec = ForkSpec.build(
                "ras-off", Platform,
                [((d, n), _armed_point, (d, n), {})
                 for d in ("d2h", "h2d") for n in (16384, 65536)],
                warmup_kwargs={"seed": 77})
            return run_forked_sweep(spec, jobs=1)

        assert armed != _disarmed()


# -- sanitizers armed: detectors ride the snapshot ---------------------------


def _sanitized_warmup(seed: int):
    from repro.config import SanitizerConfig, default_system
    from repro.core.platform import Platform
    armed = dataclasses.replace(
        default_system(), latency_noise=0.0,
        sanitizers=SanitizerConfig(coherence=True, races=True, strict=True))
    return Platform(armed, seed=seed)


def _sanitized_sweep(jobs: int):
    spec = ForkSpec.build(
        "sanitized", _sanitized_warmup,
        [((d, n), _armed_point, (d, n), {})
         for d in ("d2h", "h2d") for n in (16384, 65536)],
        warmup_args=(99,))
    return run_forked_sweep(spec, jobs=jobs)


class TestSanitizersArmed:
    def test_byte_identical(self):
        cold, forked = _forked_vs_cold(lambda: _sanitized_sweep(1))
        assert forked == cold
