"""Live terminal dashboard over the fleet event stream.

``repro watch`` tails ``GET /events`` and folds every event into a
:class:`FleetState`; :func:`render` turns that state into a compact
dashboard (fleet totals, cache-hit rate, ETA, one progress line per
job).  The fold is pure — event docs in, state out — so
``repro watch --from events.jsonl`` replays a recorded stream through
the *same* renderer offline, and the whole pipeline is unit-testable
without a socket.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, Iterable, List, Optional, TextIO

#: Engine event kinds that advance a spec toward terminal.
_TERMINAL_KINDS = ("finished", "cache-hit")


class JobView:
    """Folded view of one batch, fed by fleet + engine events."""

    __slots__ = ("id", "state", "specs", "fresh", "cache_hits",
                 "coalesced", "finished_specs", "benchmarks", "wall_s",
                 "error", "eta_s")

    def __init__(self, job_id: str):
        self.id = job_id
        self.state = "queued"
        self.specs = 0
        self.fresh = 0
        self.cache_hits = 0
        self.coalesced = 0
        self.finished_specs = 0
        self.benchmarks: List[str] = []
        self.wall_s: Optional[float] = None
        self.error: Optional[str] = None
        self.eta_s: Optional[float] = None


class FleetState:
    """Everything the dashboard shows, folded from the event stream."""

    def __init__(self) -> None:
        self.jobs: Dict[str, JobView] = {}
        self.order: List[str] = []
        self.events = 0
        self.sim_runs = 0
        self.sim_wall_s = 0.0
        self.cache_hits = 0
        self.coalesced = 0
        self.shutdown = False

    def _job(self, job_id: str) -> JobView:
        view = self.jobs.get(job_id)
        if view is None:
            view = self.jobs[job_id] = JobView(job_id)
            self.order.append(job_id)
        return view

    def apply(self, doc: dict) -> None:
        """Fold one event document (fleet- or engine-level) in."""
        self.events += 1
        if doc.get("type") == "fleet":
            self._apply_fleet(doc)
            return
        # Engine job documents: demuxed by their batch tag.
        batch = doc.get("batch")
        kind = doc.get("kind")
        view = self._job(batch) if batch else None
        if kind == "finished":
            self.sim_runs += 1
            self.sim_wall_s += float(doc.get("wall_s") or 0.0)
            if view is not None:
                view.finished_specs += 1
                view.eta_s = doc.get("eta_s")
        elif kind == "cache-hit" and view is not None:
            view.finished_specs += 1

    def _apply_fleet(self, doc: dict) -> None:
        kind = doc.get("kind")
        if kind == "shutdown":
            self.shutdown = True
            return
        view = self._job(doc.get("batch", "?"))
        if kind == "job-submitted":
            view.specs = int(doc.get("specs", 0))
            view.fresh = int(doc.get("fresh", 0))
            view.cache_hits = int(doc.get("cache_hits", 0))
            view.coalesced = int(doc.get("coalesced", 0))
            view.benchmarks = list(doc.get("benchmarks") or ())
            self.cache_hits += view.cache_hits
            self.coalesced += view.coalesced
        elif kind == "job-started":
            view.state = "running"
        elif kind == "job-finished":
            view.state = doc.get("state", "done")
            view.wall_s = doc.get("wall_s")
            view.error = doc.get("error")
            view.eta_s = None
            if view.state == "done":
                # Coalesced specs finish under their owning batch's
                # tag; a closed job is complete by definition.
                view.finished_specs = max(view.finished_specs,
                                          view.specs - view.cache_hits)

    # -- derived -------------------------------------------------------------

    @property
    def total_specs(self) -> int:
        return sum(v.specs for v in self.jobs.values())

    @property
    def cache_hit_rate(self) -> Optional[float]:
        if not self.total_specs:
            return None
        return self.cache_hits / self.total_specs

    @property
    def eta_s(self) -> Optional[float]:
        etas = [v.eta_s for v in self.jobs.values() if v.eta_s is not None]
        return max(etas) if etas else None


def _bar(done: int, total: int, width: int = 20) -> str:
    total = max(total, 1)
    fill = int(width * min(done, total) / total)
    return "[" + "#" * fill + "-" * (width - fill) + "]"


def render(state: FleetState, width: int = 80) -> str:
    """The dashboard: a header of fleet totals + one line per job."""
    counts: Dict[str, int] = {}
    for view in state.jobs.values():
        counts[view.state] = counts.get(view.state, 0) + 1
    rate = state.cache_hit_rate
    header = (f"fleet: {len(state.jobs)} job(s) "
              f"({counts.get('queued', 0)} queued, "
              f"{counts.get('running', 0)} running, "
              f"{counts.get('done', 0)} done, "
              f"{counts.get('failed', 0)} failed)  "
              f"specs {state.total_specs}  sims {state.sim_runs}")
    second = (f"cache-hit {rate:.0%}  " if rate is not None else "") + \
        f"coalesced {state.coalesced}  events {state.events}"
    eta = state.eta_s
    if eta is not None:
        second += f"  eta {eta:.1f}s"
    if state.shutdown:
        second += "  [daemon shut down]"
    lines = [header[:width], second[:width]]
    for job_id in state.order:
        view = state.jobs[job_id]
        done = view.finished_specs + view.cache_hits
        line = (f"  {view.id:<5} {view.state:<8} "
                f"{_bar(done, view.specs)} {done}/{view.specs}")
        if view.benchmarks:
            line += "  " + ",".join(view.benchmarks)
        if view.wall_s is not None:
            line += f"  {view.wall_s:.1f}s"
        if view.error:
            line += f"  error: {view.error}"
        lines.append(line[:width])
    return "\n".join(lines)


def replay_lines(lines: Iterable[str]) -> FleetState:
    """Fold a recorded JSONL event stream (``watch --from``)."""
    state = FleetState()
    for line in lines:
        line = line.strip()
        if line.startswith("data:"):  # tolerate recorded SSE frames
            line = line[len("data:"):].strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict):
            state.apply(doc)
    return state


def replay_file(path: str) -> FleetState:
    with open(path, "r") as fh:
        return replay_lines(fh)


def watch_stream(events: Iterable[dict], out: TextIO = sys.stdout,
                 redraw: Optional[bool] = None, width: int = 100,
                 raw_json: bool = False) -> FleetState:
    """Drive the dashboard from a live event iterator.

    With ``raw_json`` every event is passed through as one JSON line
    (machine-friendly ``repro watch --json``).  Otherwise the dashboard
    redraws in place on a tty (ANSI cursor-up) and appends frames on a
    pipe.
    """
    state = FleetState()
    if redraw is None:
        redraw = out.isatty()
    last_height = 0
    for doc in events:
        state.apply(doc)
        if raw_json:
            out.write(json.dumps(doc, sort_keys=True) + "\n")
            out.flush()
            continue
        frame = render(state, width=width)
        if redraw and last_height:
            out.write(f"\x1b[{last_height}F\x1b[J")
        out.write(frame + "\n")
        out.flush()
        last_height = frame.count("\n") + 1
        if state.shutdown:
            break
    return state
