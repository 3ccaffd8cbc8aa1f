"""Asyncio job queue over the experiment engine, with in-flight dedup.

One :class:`FleetScheduler` owns everything a daemon needs to serve
simulation jobs at scale:

* **Job queue** — a submitted batch becomes one :class:`Job`; batches
  are admitted to the engine one at a time (``max_concurrent_batches``
  raises that), so the engine's own process pool keeps every core busy
  within a batch while further batches wait with a real, observable
  queue depth.
* **In-flight dedup** — every spec key ever seen maps to one
  :class:`SpecEntry`.  A batch submitting a key that is already queued
  or running *coalesces*: it waits for the owning batch's simulation
  instead of launching its own, so concurrent submitters of identical
  specs share exactly one simulation.  Completed entries are served
  from the runner's record cache (memo + disk), so the dedup layer is
  simply the in-flight slice of the cache.
* **Event bus** — engine :class:`~repro.harness.engine.JobEvent`\\ s
  (tagged with their batch id) plus fleet-level job lifecycle events
  are multiplexed onto one stream that any number of subscribers
  (``GET /events`` connections) can tail live.
* **Fleet metrics** — queue depth, in-flight specs, cache hit/miss,
  coalesced submissions, simulations launched, per-benchmark wall-time
  histograms — rendered by ``GET /metrics`` via the same Prometheus
  exposition the single-run harness uses.

The scheduler is loop-affine: every public method must run on the
event loop that created it (the HTTP server guarantees this).  The
blocking engine call runs in a worker thread; its progress events hop
back onto the loop via ``call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.harness import engine, runner
from repro.harness.diskcache import spec_key
from repro.harness.engine import JobEvent
from repro.harness.runner import RunSpec
from repro.telemetry.metrics import MetricsRegistry
from repro.workloads import suite

#: Spec states a batch can observe through ``GET /jobs/<id>``.
TERMINAL_STATES = ("done", "cache-hit", "failed")

_SPEC_FIELDS = {f.name for f in fields(RunSpec)}


class FleetError(ValueError):
    """Invalid submission (unknown benchmark, malformed spec, ...)."""


class FleetUnavailable(RuntimeError):
    """The daemon is draining and no longer accepts jobs."""


class EventBus:
    """Multiplexed event stream with bounded replayable history.

    ``publish`` fans a JSON-ready dict out to every subscriber queue
    and appends it to a bounded history; ``subscribe(backlog=True)``
    seeds a fresh queue with that history so a late-joining dashboard
    reconstructs the fleet state before going live.
    """

    def __init__(self, retain: int = 4096):
        self.history: deque = deque(maxlen=retain)
        self.published = 0
        self._subscribers: List[asyncio.Queue] = []

    def publish(self, doc: dict) -> None:
        self.history.append(doc)
        self.published += 1
        for queue in self._subscribers:
            queue.put_nowait(doc)

    def subscribe(self, backlog: bool = True) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue()
        if backlog:
            for doc in self.history:
                queue.put_nowait(doc)
        self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        if queue in self._subscribers:
            self._subscribers.remove(queue)


class SpecEntry:
    """One unique spec key's lifecycle across every batch that names it."""

    __slots__ = ("spec", "key", "state", "owner", "wall_s", "error", "done")

    def __init__(self, spec: RunSpec, key: str, state: str, owner: str):
        self.spec = spec
        self.key = key
        self.state = state          # queued|running|done|cache-hit|failed
        self.owner = owner          # batch id that simulates (or found) it
        self.wall_s: Optional[float] = None
        self.error: Optional[str] = None
        self.done = asyncio.Event()
        if state in TERMINAL_STATES:
            self.done.set()


class Job:
    """One submitted batch of specs."""

    __slots__ = ("id", "specs", "keys", "coalesced", "coalesced_idx",
                 "state", "error", "leg_cycles", "created", "started",
                 "finished", "done_event")

    def __init__(self, job_id: str, specs: List[RunSpec], keys: List[str],
                 leg_cycles: Optional[int]):
        self.id = job_id
        self.specs = specs
        self.keys = keys
        self.coalesced: set = set()       # keys to await (dedup waits)
        self.coalesced_idx: set = set()   # positions shown as coalesced
        self.state = "queued"       # queued|running|done|failed
        self.error: Optional[str] = None
        self.leg_cycles = leg_cycles
        self.created = time.monotonic()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.done_event = asyncio.Event()


class FleetScheduler:
    """Job queue + dedup + event bus + metrics over the engine.

    ``engine_call`` defaults to :func:`repro.harness.engine.run_specs`
    (a batch's ``leg_cycles`` is passed straight through) and is
    injectable so tests can hold a simulation in flight and prove the
    dedup semantics deterministically.
    """

    def __init__(self, jobs: Optional[int] = None,
                 max_concurrent_batches: int = 1,
                 engine_call: Optional[Callable] = None,
                 retain_events: int = 4096):
        self.jobs = engine.resolve_jobs(jobs)
        self.engine_call = engine_call
        self.bus = EventBus(retain=retain_events)
        self.metrics = MetricsRegistry()
        self.started_at = time.monotonic()
        self.draining = False
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._entries: Dict[str, SpecEntry] = {}
        self._next_id = 0
        self._admission = asyncio.Semaphore(max_concurrent_batches)
        self._engine_pool = ThreadPoolExecutor(
            max_workers=max_concurrent_batches,
            thread_name_prefix="fleet-engine")
        self._tasks: List[asyncio.Task] = []

        m = self.metrics
        self._queue_depth = m.gauge(
            "fleet.queue_depth", "batches waiting for engine admission")
        self._in_flight = m.gauge(
            "fleet.in_flight", "specs currently simulating")
        self._jobs_submitted = m.counter(
            "fleet.jobs_submitted", "batches accepted")
        self._jobs_completed = m.counter(
            "fleet.jobs_completed", "batches finished")
        self._jobs_failed = m.counter("fleet.jobs_failed", "batches failed")
        self._specs_submitted = m.counter(
            "fleet.specs_submitted", "specs across all batches")
        self._cache_hits = m.counter(
            "fleet.cache_hits", "specs served from the record cache")
        self._cache_misses = m.counter(
            "fleet.cache_misses", "specs that needed a simulation")
        self._coalesced = m.counter(
            "fleet.dedup_coalesced",
            "specs coalesced onto an identical in-flight simulation")
        self._sim_runs = m.counter(
            "fleet.sim_runs", "simulations actually launched")
        m.gauge("fleet.uptime_seconds", "seconds since daemon start")
        m.gauge("fleet.runner_sim_runs",
                "runner.SIM_RUNS in the daemon process (in-process "
                "simulations only)")

    # -- submission ----------------------------------------------------------

    def parse_specs(self, docs: List[dict]) -> List[RunSpec]:
        """Validate raw spec dicts into :class:`RunSpec`\\ s (raises
        :class:`FleetError` with a readable message on bad input)."""
        if not isinstance(docs, list) or not docs:
            raise FleetError("specs must be a non-empty list")
        specs = []
        known = set(suite.extended_names())
        for i, doc in enumerate(docs):
            if not isinstance(doc, dict):
                raise FleetError(f"specs[{i}] is not an object")
            unknown = set(doc) - _SPEC_FIELDS
            if unknown:
                raise FleetError(f"specs[{i}] has unknown field(s) "
                                 f"{sorted(unknown)}")
            if doc.get("benchmark") not in known:
                raise FleetError(
                    f"specs[{i}]: unknown benchmark "
                    f"{doc.get('benchmark')!r}; known: "
                    f"{', '.join(sorted(known))}")
            try:
                specs.append(RunSpec(**doc))
            except TypeError as exc:
                raise FleetError(f"specs[{i}]: {exc}")
        return specs

    def submit(self, specs: List[RunSpec],
               leg_cycles: Optional[int] = None) -> Job:
        """Accept one batch; classify each spec, start the job task.

        Classification per unique key, in order:

        1. already terminal in the record cache or the entry table —
           ``cache-hit`` (free),
        2. queued/running under another batch — ``coalesced`` (waits
           for that simulation; never launches its own),
        3. otherwise — fresh: a new ``queued`` entry owned by this
           batch.
        """
        if self.draining:
            raise FleetUnavailable("daemon is draining; job refused")
        if leg_cycles is not None and leg_cycles < 1:
            raise FleetError(f"leg_cycles must be >= 1, got {leg_cycles}")
        self._next_id += 1
        job = Job(f"b{self._next_id}", list(specs),
                  [spec_key(s) for s in specs], leg_cycles)
        self._jobs[job.id] = job
        self._order.append(job.id)
        self._jobs_submitted.inc()
        self._specs_submitted.inc(len(job.specs))

        fresh: List[RunSpec] = []
        hits = coalesced = 0
        for index, (spec, key) in enumerate(zip(job.specs, job.keys)):
            entry = self._entries.get(key)
            if entry is not None and entry.state in ("queued", "running"):
                job.coalesced.add(key)
                job.coalesced_idx.add(index)
                self._coalesced.inc()
                coalesced += 1
                continue
            if entry is not None and entry.state in ("done", "cache-hit"):
                self._cache_hits.inc()
                hits += 1
                continue
            if runner.cached_record(spec) is not None:
                self._entries[key] = SpecEntry(spec, key, "cache-hit",
                                               job.id)
                self._cache_hits.inc()
                hits += 1
                continue
            # Fresh: this batch owns the simulation.  A duplicate key
            # later in the same batch hits the queued entry above and
            # coalesces, so one batch never simulates a spec twice.
            self._entries[key] = SpecEntry(spec, key, "queued", job.id)
            self._cache_misses.inc()
            fresh.append(spec)

        self.publish({"type": "fleet", "kind": "job-submitted",
                      "batch": job.id, "ts": round(time.monotonic(), 4),
                      "specs": len(job.specs), "fresh": len(fresh),
                      "cache_hits": hits, "coalesced": coalesced,
                      "benchmarks": sorted({s.benchmark
                                            for s in job.specs})})
        task = asyncio.get_running_loop().create_task(
            self._run_job(job, fresh))
        self._tasks.append(task)
        task.add_done_callback(self._tasks.remove)
        return job

    # -- execution -----------------------------------------------------------

    async def _run_job(self, job: Job, fresh: List[RunSpec]) -> None:
        loop = asyncio.get_running_loop()
        self._queue_depth.inc()
        async with self._admission:
            self._queue_depth.dec()
            job.state = "running"
            job.started = time.monotonic()
            self.publish({"type": "fleet", "kind": "job-started",
                          "batch": job.id,
                          "ts": round(job.started, 4)})
            owned = [s for s in fresh
                     if self._entries[spec_key(s)].owner == job.id]
            try:
                if owned:
                    bridge = _BridgeSink(self, loop)
                    await loop.run_in_executor(
                        self._engine_pool,
                        partial(self.engine_call or engine.run_specs,
                                owned, jobs=self.jobs,
                                progress=bridge, batch=job.id,
                                leg_cycles=job.leg_cycles))
                for spec in owned:
                    entry = self._entries[spec_key(spec)]
                    if entry.state not in TERMINAL_STATES:
                        entry.state = "done"
                    entry.done.set()
            except Exception as exc:  # engine/worker failure
                job.error = f"{type(exc).__name__}: {exc}"
                for spec in owned:
                    entry = self._entries[spec_key(spec)]
                    if entry.state not in TERMINAL_STATES:
                        entry.state = "failed"
                        entry.error = job.error
                    entry.done.set()

        # Wait for coalesced keys simulated by other batches.
        for key in job.coalesced:
            entry = self._entries.get(key)
            if entry is not None and entry.owner != job.id:
                await entry.done.wait()
        failed = [k for k in job.keys
                  if self._entries.get(k) is not None
                  and self._entries[k].state == "failed"]
        job.state = "failed" if (job.error or failed) else "done"
        if job.state == "failed":
            self._jobs_failed.inc()
            if job.error is None:
                job.error = (f"{len(failed)} spec(s) failed in the "
                             f"owning batch")
        else:
            self._jobs_completed.inc()
        job.finished = time.monotonic()
        self.publish({"type": "fleet", "kind": "job-finished",
                      "batch": job.id, "state": job.state,
                      "ts": round(job.finished, 4),
                      "wall_s": round(job.finished - job.created, 4),
                      "error": job.error})
        job.done_event.set()

    def _on_engine_event(self, event: JobEvent) -> None:
        """Loop-side handler for one engine progress event."""
        entry = self._entries.get(event.spec_key)
        if entry is not None:
            if event.kind == "started":
                entry.state = "running"
                self._in_flight.inc()
            elif event.kind == "cache-hit":
                # Another process warmed the shared disk cache between
                # submission and admission; the engine skipped the run.
                entry.state = "cache-hit"
                self._cache_hits.inc()
            elif event.kind == "finished":
                if entry.state == "running":
                    self._in_flight.dec()
                entry.state = "done"
                entry.wall_s = event.wall_s
                self._sim_runs.inc()
                wall_ms = int((event.wall_s or 0.0) * 1000)
                self.metrics.histogram(
                    f"fleet.wall_ms.{event.benchmark}",
                    "per-benchmark simulation wall time (ms)"
                ).observe(wall_ms)
        self.publish(event.to_json())

    def publish(self, doc: dict) -> None:
        self.bus.publish(doc)

    # -- views ---------------------------------------------------------------

    def spec_row(self, job: Job, index: int) -> dict:
        key = job.keys[index]
        entry = self._entries.get(key)
        row = {"spec": key, "benchmark": job.specs[index].benchmark,
               "state": entry.state if entry is not None else "unknown",
               "coalesced": index in job.coalesced_idx}
        if entry is not None and entry.wall_s is not None:
            row["wall_s"] = round(entry.wall_s, 4)
        if entry is not None and entry.error:
            row["error"] = entry.error
        return row

    def job_json(self, job: Job, specs: bool = True) -> dict:
        rows = [self.spec_row(job, i) for i in range(len(job.specs))]
        doc = {"job": job.id, "state": job.state,
               "specs": len(job.specs),
               "completed": sum(1 for r in rows
                                if r["state"] in TERMINAL_STATES),
               "error": job.error,
               "age_s": round(time.monotonic() - job.created, 3)}
        if specs:
            doc["spec_states"] = rows
        return doc

    def jobs_json(self) -> List[dict]:
        return [self.job_json(self._jobs[jid], specs=False)
                for jid in self._order]

    def get_job(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def record_json(self, key: str) -> Optional[dict]:
        """The cached record for one spec key, in the disk-cache
        envelope shape (``{"spec", "record"}``), or None."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        record = runner.cached_record(entry.spec)
        if record is None:
            return None
        return {"spec": asdict(entry.spec), "record": record.to_json()}

    def refresh_gauges(self) -> None:
        """Scrape-time gauges (uptime, in-process SIM_RUNS)."""
        self.metrics.gauge("fleet.uptime_seconds").set(
            round(time.monotonic() - self.started_at, 3))
        self.metrics.gauge("fleet.runner_sim_runs").set(runner.SIM_RUNS)

    # -- shutdown ------------------------------------------------------------

    async def drain(self) -> int:
        """Refuse new jobs, wait for every accepted one, announce
        shutdown on the bus; returns the number of jobs drained."""
        self.draining = True
        pending = list(self._tasks)
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self.publish({"type": "fleet", "kind": "shutdown",
                      "ts": round(time.monotonic(), 4),
                      "jobs": len(self._order)})
        self._engine_pool.shutdown(wait=True)
        return len(pending)


class _BridgeSink:
    """ProgressSink that hops engine-thread events onto the loop."""

    def __init__(self, scheduler: FleetScheduler,
                 loop: asyncio.AbstractEventLoop):
        self.scheduler = scheduler
        self.loop = loop

    def emit(self, event: JobEvent) -> None:
        self.loop.call_soon_threadsafe(
            self.scheduler._on_engine_event, event)

    def close(self) -> None:
        pass
