"""Tests for the reproduction-report generator."""

from __future__ import annotations

import pytest

from repro.analysis.report import Check, generate
from repro.analysis.expected import PAPER


def test_check_row_rendering():
    key = "table4/ip-speedup"
    check = Check(key, 2.3, True)
    row = check.row()
    assert key in row and "ok" in row
    bad = Check(key, 9.0, False)
    assert "DEVIATES" in bad.row()


@pytest.mark.slow
def test_generate_quick_report():
    report = generate(reps=4, include_fig8=False)
    for section in ("# Reproduction report", "## Table III", "## Fig 3",
                    "## Fig 6", "## Table IV", "scorecard"):
        assert section in report
    assert "checks within band" in report
    # The quick report must not run the slow end-to-end section.
    assert "## Fig 8" not in report


@pytest.mark.slow
def test_generate_threads_jobs_into_sweeps(monkeypatch):
    """``jobs`` reaches the fig6, fig8 and SVII sweeps (each pinned
    byte-identical at any worker count by its own tests)."""
    from repro.analysis import report as report_mod

    seen = {}

    def spy(name, module):
        original = module.run

        def run(*args, **kwargs):
            seen[name] = kwargs.get("jobs")
            return original(*args, **kwargs)
        monkeypatch.setattr(module, "run", run)

    spy("fig6", report_mod.fig6_transfer)
    spy("fig8", report_mod.fig8_tail_latency)
    spy("sec7", report_mod.sec7_accounting)

    generate(fig8_duration_ms=20.0, reps=4, jobs=2)
    assert seen == {"fig6": 2, "fig8": 2, "sec7": 2}
