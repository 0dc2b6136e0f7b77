"""Record the CLI's stdout digests that the benchmark checks itself
against at its default seed.

Usage (from the repository root)::

    python3 perfbench/golden.py

Runs ``python -m repro <argv>`` for every benchmark command, with the
same clean environment as the benchmark's rounds, and writes the sha256
of each printed table to perfbench/golden.json.  A command that exits
non-zero is recorded as null with its error: there is no CLI output to
match.  Re-run it only when a change is meant to alter simulated output.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cli_table(argv, env) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "repro", *argv], cwd=ROOT,
                          env=env, text=True, capture_output=True,
                          timeout=600)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import run
    import workloads
    env = run._child_env()
    digests, errors = {}, {}
    for name, command in workloads.COMMANDS.items():
        proc = cli_table(command.argv, env)
        if proc.returncode != 0:
            digests[name] = None
            errors[name] = proc.stderr.strip().splitlines()[-1]
            continue
        # The CLI prints the table, then an empty line.
        table = proc.stdout.removesuffix("\n").removesuffix("\n")
        digests[name] = hashlib.sha256(table.encode()).hexdigest()
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump({"argv": {n: list(c.argv)
                            for n, c in workloads.COMMANDS.items()},
                   "sha256": digests, "cli_errors": errors}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
