"""Performance-hazard rules (PERF4xx).

The engine's hot paths are measured (``python -m repro speed``) and
baselined in CI, but the most common way to *creep* slower is idiomatic
code that double-pays scheduling overhead.  These rules flag the known
shapes.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, LintModule, Rule, dotted_name

_TRIGGERS = ("succeed", "fail")


def check_perf401(module: LintModule) -> Iterator[Finding]:
    """PERF401: ``sim.call_soon(ev.succeed, ...)`` double-defers.

    ``Event.succeed``/``Event.fail`` already deliver their callbacks
    through the zero-delay queue, so wrapping the trigger in
    ``call_soon`` costs a second trip through the scheduler (and a
    second seq number) for nothing.  Call the trigger directly — unless
    the *trigger itself* must be deferred, e.g. a resource hand-off
    that returns the event untriggered to the caller first; suppress
    those sites with ``# reprolint: disable=PERF401`` and a comment
    saying why.
    """
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = dotted_name(node.func)
        if not (func == "call_soon" or func.endswith(".call_soon")):
            continue
        target = node.args[0]
        if isinstance(target, ast.Attribute) and target.attr in _TRIGGERS:
            owner = dotted_name(target.value) or "<event>"
            yield Finding(
                "PERF401", module.path, node.lineno, node.col_offset,
                f"`call_soon({owner}.{target.attr}, ...)` defers a trigger "
                "that already defers its callbacks — call "
                f"`{owner}.{target.attr}(...)` directly, or suppress with "
                "a comment if the double deferral is load-bearing",
            )


_PER_LINE_CHARGES = {
    "using": "`Resource.using_bulk(cost, count)` or a fastpath train",
    "send": "`Link.send_bulk(direction, payload, count)`",
}


def check_perf402(module: LintModule) -> Iterator[Finding]:
    """PERF402: per-line FIFO charge inside a streaming loop.

    A loop that ``yield from``s a single-grant charge (``Resource.using``,
    ``Link.send``) once per iteration walks the full scheduler once per
    line — the shape the bulk fast-forward layer exists to replace.  Use
    the batched API, or hand the stream to
    :mod:`repro.core.fastpath`.  Loops that *must* stay per-line (fault
    paths, contended FIFOs whose holders interleave) should carry
    ``# reprolint: disable=PERF402`` on the loop line with a comment
    saying why.
    """
    seen = set()
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.For, ast.While)):
            continue
        for sub in ast.walk(node):
            if not (isinstance(sub, ast.YieldFrom)
                    and isinstance(sub.value, ast.Call)
                    and isinstance(sub.value.func, ast.Attribute)):
                continue
            attr = sub.value.func.attr
            if attr not in _PER_LINE_CHARGES or sub.lineno in seen:
                continue
            seen.add(sub.lineno)
            owner = dotted_name(sub.value.func.value) or "<obj>"
            yield Finding(
                "PERF402", module.path, node.lineno, node.col_offset,
                f"loop charges `{owner}.{attr}(...)` once per iteration; "
                f"batch it with {_PER_LINE_CHARGES[attr]}, or suppress "
                "with a comment if per-line interleaving is load-bearing",
            )


_PERF403_PATHS = ("repro/apps", "repro/experiments")


def _reads_clock(expr: ast.expr) -> bool:
    """Whether the expression reads the simulated clock (``*.now``)."""
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Attribute) and sub.attr == "now":
            return True
    return False


def check_perf403(module: LintModule) -> Iterator[Finding]:
    """PERF403: per-event latency samples accumulated into a bare list.

    In experiment/app code, ``somelist.append(<clock-derived value>)``
    inside a loop grows one entry per simulated event — on a scale run
    that is an unbounded RSS leak (the failure mode ``ext_scale``
    exists to prevent).  Record samples through a latency recorder
    instead (:func:`repro.sim.stats.latency_recorder`, or an injected
    :class:`~repro.sim.stats.StreamingLatencyStats` for shared O(1)
    accumulation).  Sites that *deliberately* keep every sample (a
    bounded result vector that is part of the experiment's payload)
    should carry ``# reprolint: disable=PERF403`` with a comment saying
    what bounds them.
    """
    path = module.path.replace("\\", "/")
    if not any(fragment in path for fragment in _PERF403_PATHS):
        return
    seen = set()
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.For, ast.While)):
            continue
        for sub in ast.walk(node):
            if not (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "append"
                    and len(sub.args) == 1):
                continue
            if sub.lineno in seen or not _reads_clock(sub.args[0]):
                continue
            seen.add(sub.lineno)
            owner = dotted_name(sub.func.value) or "<list>"
            yield Finding(
                "PERF403", module.path, sub.lineno, sub.col_offset,
                f"`{owner}.append(...)` accumulates a clock-derived "
                "sample per loop iteration — unbounded on scale runs; "
                "record through a latency recorder "
                "(repro.sim.stats.latency_recorder), or suppress with "
                "a comment saying what bounds the list",
            )


def _sweep_point_fn_names(tree: ast.AST) -> set:
    """Names referenced as the point-``fn`` of a cold sweep: the second
    argument of ``SweepPoint(...)`` calls and the second element of the
    ``(key, fn, args, kwargs)`` tuples fed to ``SweepSpec.build``.
    ``ForkSpec`` warm-ups and points are deliberately not collected —
    they already share their warm-up through a checkpoint."""
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = dotted_name(node.func) or ""
        if func == "SweepPoint" or func.endswith(".SweepPoint"):
            if len(node.args) >= 2 and isinstance(node.args[1], ast.Name):
                names.add(node.args[1].id)
        elif func == "SweepSpec.build" or func.endswith(".SweepSpec.build"):
            for sub in ast.walk(node):
                if (isinstance(sub, (ast.Tuple, ast.List))
                        and len(sub.elts) >= 2
                        and isinstance(sub.elts[1], ast.Name)):
                    names.add(sub.elts[1].id)
    return names


def check_perf404(module: LintModule) -> Iterator[Finding]:
    """PERF404: a sweep point that rebuilds Platforms on every point.

    A point function that constructs two or more ``Platform`` instances
    (typically its own plus a calibration throwaway) repeats the same
    point-independent warm-up once per swept value — the shape
    :func:`repro.sim.parallel.run_forked_sweep` exists to remove.  Split
    the warm-up into a module-level function, declare the sweep as a
    :class:`~repro.sim.parallel.ForkSpec`, and let every point fork from
    one checkpoint (see ``docs/CHECKPOINT.md``).  Points whose warm-up
    genuinely differs per value (e.g. per-point fault arming) should
    carry ``# reprolint: disable=PERF404`` with a comment saying why.
    """
    point_fns = _sweep_point_fn_names(module.tree)
    if not point_fns:
        return
    for node in module.tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name not in point_fns:
            continue
        sites = [sub for sub in ast.walk(node)
                 if isinstance(sub, ast.Call)
                 and ((dotted_name(sub.func) or "").split(".")[-1]
                      == "Platform")]
        if len(sites) >= 2:
            yield Finding(
                "PERF404", module.path, node.lineno, node.col_offset,
                f"sweep point `{node.name}` constructs {len(sites)} "
                "Platforms per point (its own plus calibration); hoist "
                "the shared warm-up into a ForkSpec and fork each point "
                "from a checkpoint (repro.sim.parallel.run_forked_sweep), "
                "or suppress with a comment saying why every point must "
                "rebuild",
            )


RULES = [
    Rule("PERF401", "redundant call_soon around an Event trigger",
         check_perf401),
    Rule("PERF402", "per-line FIFO charge in a streaming loop",
         check_perf402),
    Rule("PERF403", "unbounded clock-sample accumulation in a bare list",
         check_perf403),
    Rule("PERF404", "sweep point rebuilding Platforms per point",
         check_perf404),
]
