"""In-memory span tracing of the program's public calls, from outside.

A traced run wraps the public functions the benchmark drives (and the
ones those call through module or class attributes) with a recorder
that notes name, start, end, the span that caused it, and the pass it
belongs to.  Nothing under ``src/`` is edited: the wrappers are
installed on the imported modules and classes for the length of the
traced run and removed afterwards, and an untraced run never imports
this file's patch list at all.

A layer's *self time* is its span's duration minus the part its child
spans cover.  Only spans of the thread that runs the passes enter the
per-pass sums; the in-process fleet server's spans are kept in the
trace file under their own thread id, because the client span that
waits for them already covers that time.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Dict, List, Optional


class SpanTracer:
    """Records finished spans; one parent stack per thread."""

    def __init__(self):
        self.spans: List[dict] = []
        self.pass_id: Optional[int] = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: List[tuple] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> dict:
        stack = self._stack()
        span = {"id": next(self._ids), "name": name,
                "parent": stack[-1]["id"] if stack else None,
                "pass": self.pass_id,
                "thread": threading.current_thread().name,
                "start": time.perf_counter(), "end": None}
        stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()
        if span["pass"] is not None:    # only the traced passes are kept
            self.spans.append(span)

    def wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
        return traced

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrapper(name, raw.__func__))
        else:
            new = self.wrapper(name, raw)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, new)

    def unpatch_all(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------------

    def self_ms_by_name(self, thread: str) -> Dict[str, float]:
        """Summed self time (ms) per span name on one thread."""
        mine = [s for s in self.spans if s["thread"] == thread]
        child_ms: Dict[int, float] = {}
        for s in mine:
            if s["parent"] is not None:
                child_ms[s["parent"]] = child_ms.get(s["parent"], 0.0) \
                    + (s["end"] - s["start"]) * 1e3
        out: Dict[str, float] = {}
        for s in mine:
            self_ms = (s["end"] - s["start"]) * 1e3 - child_ms.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + self_ms
        return out

    def write(self, path: str, header: dict) -> None:
        """Write every span (times in ms from the first span's start)."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        doc = dict(header)
        doc["clock"] = "host ms since first span"
        doc["spans"] = [
            {"id": s["id"], "name": s["name"], "parent": s["parent"],
             "pass": s["pass"], "thread": s["thread"],
             "start_ms": round((s["start"] - origin) * 1e3, 4),
             "end_ms": round((s["end"] - origin) * 1e3, 4)}
            for s in sorted(self.spans, key=lambda s: s["id"])]
        with open(path, "w") as fh:
            json.dump(doc, fh)


def install(tracer: SpanTracer) -> None:
    """Wrap every public call the benchmark drives, layer by layer."""
    from repro.analysis import diff
    from repro.fleet.client import FleetClient
    from repro.harness import engine, runner
    from repro.harness.diskcache import DiskCache
    from repro.harness.record import RunRecord
    from repro.vm.snapshot import Snapshot
    from repro.vm.vmcore import VM
    from repro.workloads import suite

    for owner, attr, name in (
            (suite, "build", "workloads.build"),
            (VM, "__init__", "vm.init"),
            (VM, "begin", "vm.begin"),
            (VM, "advance", "vm.advance"),
            (VM, "finish", "vm.finish"),
            (Snapshot, "capture", "vm.snapshot_capture"),
            (Snapshot, "restore", "vm.snapshot_restore"),
            (Snapshot, "to_bytes", "vm.snapshot_to_bytes"),
            (Snapshot, "from_bytes", "vm.snapshot_from_bytes"),
            (runner, "execute", "harness.execute"),
            (runner, "record_from_result", "harness.record_mint"),
            (engine, "run_specs", "harness.run_specs"),
            (RunRecord, "to_json", "harness.record_to_json"),
            (RunRecord, "from_json", "harness.record_from_json"),
            (DiskCache, "get", "harness.diskcache_get"),
            (DiskCache, "put", "harness.diskcache_put"),
            (DiskCache, "get_snapshot", "harness.snapshot_get"),
            (DiskCache, "put_snapshot", "harness.snapshot_put"),
            (FleetClient, "submit", "fleet.submit"),
            (FleetClient, "job", "fleet.job"),
            (FleetClient, "record", "fleet.record"),
            (FleetClient, "metrics", "fleet.metrics"),
            (diff, "diff_records", "analysis.diff")):
        tracer.patch(owner, attr, name)
