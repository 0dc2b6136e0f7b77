"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import RUNNERS, build_parser, main


def test_parser_accepts_all_experiments():
    parser = build_parser()
    for name in list(RUNNERS) + ["all"]:
        args = parser.parse_args([name])
        assert args.experiment == name


def test_parser_rejects_unknown():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["fig99"])


def test_table3_via_cli(capsys):
    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "Table III" in out


def test_fig3_via_cli_small(capsys):
    assert main(["fig3", "--reps", "3"]) == 0
    out = capsys.readouterr().out
    assert "Fig 3" in out
    assert "cs-rd" in out


def test_fig8_via_cli_tiny(capsys):
    assert main(["fig8", "--duration-ms", "60", "--workloads", "c"]) == 0
    out = capsys.readouterr().out
    assert "Fig 8" in out and "cxl" in out


def test_calibration_via_cli(capsys):
    assert main(["calibration"]) == 0
    out = capsys.readouterr().out
    assert "Component latencies" in out
    assert "Analytic path sums" in out


def test_calibration_anchor_holds():
    """The analytic H2D Type-3 sum must sit near the ~390 ns anchor."""
    from repro.analysis.calibration import path_sums
    table = path_sums()
    line = next(l for l in table.splitlines() if "Type-3" in l)
    value = float(line.rsplit(None, 1)[-1])
    assert 350 <= value <= 430


@pytest.mark.parametrize("argv", [
    ["faults", "--fault-plan", "garbage=1"],
    ["fig3", "--reps", "0"],
    ["ext_rack", "--hosts", "0", "--users", "1000"],
    ["fig8", "--duration-ms", "-5"],
    ["ext_rack", "--users", "1000"],      # fewer users than key buckets
])
def test_bad_input_is_a_one_line_usage_error(argv, tmp_path):
    """Bad flags and specs exit 2 with one ``repro: error:`` line, not a
    traceback."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, REPRO_EXPCACHE="0")
    proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("repro: error:"), lines
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
