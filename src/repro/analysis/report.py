"""Reproduction report generator.

Runs every experiment and emits a self-contained markdown report with
the regenerated tables and an automatic shape-check against the paper's
bands (:mod:`repro.analysis.expected`) — the programmatic counterpart of
EXPERIMENTS.md.  Exposed via ``python -m repro report``.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.compare import within_band
from repro.analysis.expected import PAPER
from repro.core.requests import D2HOp, HostOp
from repro.experiments import (
    ext_lsu_scaling,
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


@dataclass
class Check:
    """One shape check: a paper band against a measured value."""

    key: str
    measured: float
    passed: bool

    def row(self) -> str:
        band = PAPER[self.key]
        span = (f"{band.low:g}" if band.low == band.high
                else f"{band.low:g}..{band.high:g}")
        flag = "ok" if self.passed else "DEVIATES"
        return f"| `{self.key}` | {span} | {self.measured:.3g} | {flag} |"


def _check(checks: List[Check], key: str, measured: float,
           slack: float = 0.5) -> None:
    checks.append(Check(key, measured, within_band(measured, PAPER[key],
                                                   slack=slack)))


def generate(fig8_duration_ms: float = 300.0, reps: int = 12,
             include_fig8: bool = True, jobs: Optional[int] = None) -> str:
    """Run everything; return the markdown report.  ``jobs`` fans the
    fig6, fig8 and SVII sweeps out across worker processes; the report
    is byte-identical for every count."""
    out = io.StringIO()
    checks: List[Check] = []
    # Wall clock is for the human-facing "generated in Ns" footer only —
    # it never feeds a simulated quantity.
    started = time.time()  # reprolint: disable=DET101

    out.write("# Reproduction report\n\n")
    out.write("Auto-generated by `python -m repro report`: every table/"
              "figure regenerated from the simulator, with shape checks "
              "against the paper's numbers.\n\n")

    # Table III --------------------------------------------------------
    t3 = table3_coherence.run()
    out.write("## Table III\n\n```\n")
    out.write(table3_coherence.format_table(t3))
    out.write("\n```\n")
    out.write(f"\nAll cells match the paper: **{t3.all_match}**\n\n")

    # Fig 3 --------------------------------------------------------------
    f3 = fig3_d2h.run(reps=reps)
    out.write("## Fig 3\n\n```\n")
    out.write(fig3_d2h.format_table(f3))
    out.write("\n```\n\n")
    for op, llc in ((D2HOp.CS_READ, True), (D2HOp.CS_READ, False),
                    (D2HOp.NC_WRITE, True), (D2HOp.CO_WRITE, False)):
        key = f"fig3/latency-delta/llc-{int(llc)}/{op.value}"
        _check(checks, key, f3.latency_delta(op, llc), slack=0.6)
    _check(checks, "fig3/bw-ratio/llc-0/cs-rd",
           f3.bandwidth_ratio(D2HOp.CS_READ, False))

    # Fig 4 --------------------------------------------------------------
    f4 = fig4_d2d.run(reps=max(4, reps // 2))
    out.write("## Fig 4\n\n```\n")
    out.write(fig4_d2d.format_table(f4))
    out.write("\n```\n\n")
    _check(checks, "fig4/device-bias-latency-gain/dmc-1/co-wr",
           f4.device_bias_latency_gain(D2HOp.CO_WRITE, True), slack=0.25)
    _check(checks, "fig4/device-bias-bw-gain/co-wr",
           f4.device_bias_bw_gain(D2HOp.CO_WRITE, True), slack=0.8)

    # Fig 5 --------------------------------------------------------------
    f5 = fig5_h2d.run(reps=max(4, reps // 2))
    out.write("## Fig 5\n\n```\n")
    out.write(fig5_h2d.format_table(f5))
    out.write("\n```\n\n")
    _check(checks, "fig5/t2-penalty/ld", f5.t2_penalty(HostOp.LOAD),
           slack=1.0)
    _check(checks, "fig5/dmc-modified-penalty/ld",
           f5.dmc_hit_penalty(HostOp.LOAD, "modified"), slack=0.4)
    _check(checks, "fig5/ncp-latency-gain",
           f5.ncp_latency_gain(HostOp.LOAD), slack=0.15)

    # Fig 6 --------------------------------------------------------------
    f6 = fig6_transfer.run(reps=max(3, reps // 4), jobs=jobs)
    out.write("## Fig 6\n\n```\n")
    out.write(fig6_transfer.format_table(f6))
    out.write("\n```\n\n")
    _check(checks, "fig6/h2d-256B-gain/pcie-mmio",
           f6.latency_gain("h2d", "cxl-ldst", "pcie-mmio", 256), slack=0.35)
    rdma = f6.get("d2h", "pcie-rdma", 4096).latency.median
    cxl = f6.get("d2h", "cxl-ldst", 4096).latency.median
    _check(checks, "fig6/d2h-rdma-over-cxl", rdma / cxl, slack=0.2)

    # Table IV -----------------------------------------------------------
    t4 = table4_breakdown.run(reps=7)
    out.write("## Table IV\n\n```\n")
    out.write(table4_breakdown.format_table(t4))
    out.write("\n```\n\n")
    _check(checks, "table4/total-ratio/pcie-rdma",
           t4.total_ratio("pcie-rdma", "cxl"), slack=0.25)
    _check(checks, "table4/ip-speedup", t4.ip_speedup_over_cpu(),
           slack=0.05)

    # Extension ----------------------------------------------------------
    ext = ext_lsu_scaling.run(counts=(1, 2, 4, 8))
    out.write("## Extension: LSU scaling\n\n```\n")
    out.write(ext_lsu_scaling.format_table(ext))
    out.write("\n```\n\n")

    # Fig 8 + SVII (optional: the slow part) -----------------------------
    if include_fig8:
        scenario = fig8_tail_latency.ScenarioConfig(
            duration_ns=ms(fig8_duration_ms))
        f8 = fig8_tail_latency.run(workloads=("a",), scenario=scenario,
                                   jobs=jobs)
        out.write("## Fig 8 (YCSB-a)\n\n```\n")
        out.write(fig8_tail_latency.format_table(f8))
        out.write("\n```\n\n")
        for feature in ("zswap", "ksm"):
            for backend in ("cpu", "pcie-rdma", "pcie-dma", "cxl"):
                _check(checks, f"fig8/{feature}/{backend}",
                       f8.normalized_p99(feature, "a", backend), slack=0.45)
        s7 = sec7_accounting.run(scenario=scenario, jobs=jobs)
        out.write("## SVII accounting\n\n```\n")
        out.write(sec7_accounting.format_table(s7))
        out.write("\n```\n\n")
        for feature in ("zswap", "ksm"):
            for backend in ("pcie-rdma", "pcie-dma", "cxl"):
                _check(checks, f"sec7/{feature}-share-vs-cpu/{backend}",
                       s7.share_vs_cpu(feature, backend), slack=0.55)

    # Scorecard ----------------------------------------------------------
    out.write("## Shape-check scorecard\n\n")
    out.write("| check | paper band | measured | verdict |\n")
    out.write("|---|---|---|---|\n")
    for check in checks:
        out.write(check.row() + "\n")
    passed = sum(1 for c in checks if c.passed)
    out.write(f"\n**{passed}/{len(checks)} checks within band** "
              f"(generated in {time.time() - started:.0f}s)\n")  # reprolint: disable=DET101
    return out.getvalue()
