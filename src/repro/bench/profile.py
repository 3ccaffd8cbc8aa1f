"""Host-side self-profiling: where does *our* wall time go?

``repro bench profile CASE`` wraps one case execution in
:mod:`cProfile` and answers two questions the simulated-cycle tracer
cannot: which **repro subsystem** (``hw``/``jit``/``gc``/``vm``/
``core``/``harness``/``telemetry``/``lineage``/...) the host CPU time
lands in, and what the hot stacks look like.  The attribution table is
exact (cProfile self time summed per subsystem); the collapsed-stack
export reconstructs full stacks from cProfile's caller→callee edge
times by distributing each callee's profile proportionally along its
incoming edges (the flameprof technique) — an estimate good enough
for a flame graph, emitted in the same ``frame;frame weight`` format
as the simulated-cycle exporter so both feed flamegraph.pl or
speedscope unchanged.
"""

from __future__ import annotations

import cProfile
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Repro's own top-level packages double as subsystem names; anything
#: else in the package tree (a stray top-level module) counts as core.
_REPRO_MARKER = os.sep + "repro" + os.sep

#: Stacks narrower than this (seconds) are pruned during the walk.
_MIN_STACK_S = 1e-6

#: Depth bound for the proportional stack walk (recursion guard).
_MAX_DEPTH = 64


def subsystem_of(filename: Optional[str]) -> str:
    """Map a frame's filename to a repro subsystem bucket.

    ``repro/<pkg>/...`` maps to ``<pkg>`` (hw, jit, gc, vm, core,
    perfmon, harness, telemetry, lineage, analysis, workloads, bench);
    repro's top-level modules map to ``core``; builtins and frames
    without a file map to ``builtin``; the Python installation's own
    modules map to ``stdlib``; everything else is ``host``.
    """
    if not filename or filename.startswith("<"):
        return "builtin"
    norm = os.path.abspath(filename)
    if _REPRO_MARKER in norm:
        rest = norm.rsplit(_REPRO_MARKER, 1)[1]
        head = rest.split(os.sep, 1)[0]
        return "core" if head.endswith(".py") else head
    prefix = os.path.dirname(os.__file__)
    if norm.startswith(prefix):
        return "stdlib"
    return "host"


def _frame_label(code) -> str:
    """A collapsed-stack frame for one cProfile code object."""
    if isinstance(code, str):  # builtins: "<built-in method ...>"
        label = code.strip("<>")
    else:
        filename = code.co_filename or ""
        norm = os.path.abspath(filename) if filename else ""
        if _REPRO_MARKER in norm:
            rest = norm.rsplit(_REPRO_MARKER, 1)[1]
            module = "repro." + rest[:-3].replace(os.sep, ".") \
                if rest.endswith(".py") else "repro"
            label = f"{module}:{code.co_name}"
        else:
            base = os.path.basename(filename) or "?"
            label = f"{base}:{code.co_name}"
    return label.replace(" ", "_").replace(";", ":")


def _code_key(code):
    return code if isinstance(code, str) else id(code)


@dataclass
class SubsystemRow:
    """Aggregated cost of one subsystem bucket."""

    subsystem: str
    self_s: float = 0.0
    calls: int = 0
    top_label: str = ""
    top_self_s: float = 0.0


@dataclass
class ProfileReport:
    """One profiled case execution."""

    name: str
    wall_s: float
    total_self_s: float
    rows: List[SubsystemRow] = field(default_factory=list)
    stacks: Dict[tuple, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        total = self.total_self_s or 1.0
        return {
            "schema": 1,
            "name": self.name,
            "wall_s": round(self.wall_s, 4),
            "total_self_s": round(self.total_self_s, 4),
            "subsystems": [
                {"subsystem": r.subsystem,
                 "self_s": round(r.self_s, 4),
                 "share": round(r.self_s / total, 4),
                 "calls": r.calls,
                 "top": r.top_label}
                for r in self.rows],
            "stacks": len(self.stacks),
        }


def _attribution(entries) -> Tuple[List[SubsystemRow], float]:
    per: Dict[str, SubsystemRow] = {}
    total = 0.0
    for entry in entries:
        code = entry.code
        filename = None if isinstance(code, str) else code.co_filename
        row = per.setdefault(subsystem_of(filename),
                             SubsystemRow(subsystem_of(filename)))
        row.self_s += entry.inlinetime
        row.calls += entry.callcount
        total += entry.inlinetime
        if entry.inlinetime > row.top_self_s:
            row.top_self_s = entry.inlinetime
            row.top_label = _frame_label(code)
    rows = sorted(per.values(), key=lambda r: -r.self_s)
    return rows, total


def _collapsed(entries) -> Dict[tuple, int]:
    """Proportional full-stack reconstruction from the call graph."""
    by_code = {_code_key(e.code): e for e in entries}
    callees = set()
    for entry in entries:
        for sub in entry.calls or ():
            callees.add(_code_key(sub.code))
    roots = [e for e in entries if _code_key(e.code) not in callees]
    if not roots and entries:  # fully cyclic graph: start at the widest
        roots = [max(entries, key=lambda e: e.totaltime)]

    out: Dict[tuple, int] = {}

    def walk(entry, scale: float, path: tuple, seen: frozenset,
             depth: int) -> None:
        key = _code_key(entry.code)
        path = path + (_frame_label(entry.code),)
        self_s = entry.inlinetime * scale
        if self_s >= _MIN_STACK_S:
            us = int(round(self_s * 1e6))
            if us > 0:
                out[path] = out.get(path, 0) + us
        if depth >= _MAX_DEPTH or key in seen:
            return
        seen = seen | {key}
        for sub in entry.calls or ():
            if sub.totaltime * scale < _MIN_STACK_S:
                continue
            callee = by_code.get(_code_key(sub.code))
            if callee is None or callee.totaltime <= 0:
                leaf = path + (_frame_label(sub.code),)
                us = int(round(sub.totaltime * scale * 1e6))
                if us > 0:
                    out[leaf] = out.get(leaf, 0) + us
                continue
            walk(callee, scale * (sub.totaltime / callee.totaltime),
                 path, seen, depth + 1)

    for root in roots:
        walk(root, 1.0, (), frozenset(), 0)
    return out


def profile_callable(fn, name: str = "callable") -> ProfileReport:
    """Run ``fn()`` under cProfile; attribute and fold its cost."""
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    wall = time.perf_counter() - start
    entries = profiler.getstats()
    rows, total = _attribution(entries)
    return ProfileReport(name=name, wall_s=wall, total_self_s=total,
                         rows=rows, stacks=_collapsed(entries))


def profile_case(case, overrides: Optional[Dict[str, object]] = None
                 ) -> ProfileReport:
    """Profile one registry case (a single execution, gates ignored)."""
    from repro.bench.execute import run_case

    def once():
        run_case(case, overrides)

    return profile_callable(once, name=case.name)


def format_report(report: ProfileReport, top: int = 12) -> str:
    """Render the subsystem attribution table."""
    total = report.total_self_s or 1.0
    lines = [f"profile of {report.name!r}: wall {report.wall_s:.2f}s, "
             f"profiled self time {report.total_self_s:.2f}s, "
             f"{len(report.stacks)} distinct stacks"]
    header = f"{'subsystem':<10} {'self_s':>8} {'share':>7} " \
             f"{'calls':>10}  hottest frame"
    lines.append(header)
    lines.append("-" * len(header))
    for row in report.rows[:top]:
        lines.append(f"{row.subsystem:<10} {row.self_s:>8.3f} "
                     f"{row.self_s / total:>6.1%} {row.calls:>10,}  "
                     f"{row.top_label}")
    hidden = len(report.rows) - top
    if hidden > 0:
        lines.append(f"... {hidden} smaller subsystem(s) elided")
    return "\n".join(lines)
