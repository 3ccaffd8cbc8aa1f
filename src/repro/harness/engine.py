"""Parallel experiment execution engine.

The paper's evaluation is dozens of independent, deterministic
:class:`~repro.harness.runner.RunSpec` runs.  They share no state — every
run builds a fresh guest program and VM — so the engine fans them out
across cores with a :class:`~concurrent.futures.ProcessPoolExecutor` and
collects results in input order, which (with a fixed seed per spec)
makes parallel output bit-identical to serial output.

:func:`run_specs` is the only batch driver.  It runs every uncached
spec as a *chain of legs* through one worker entry point
(:func:`_run_leg`) and accepts every leg's outcome in one place (its
``absorb`` step), which installs the leg's checkpoint and — once the
chain ends — its portable :class:`~repro.harness.record.RunRecord`
into the runner's memo and the persistent disk cache as it arrives.
Every later ``run_specs``/``record_for`` of the same spec is therefore
a cache hit, and a batch that fails midway keeps what it finished.

Knobs:

* ``jobs`` argument > ``REPRO_JOBS`` env > ``os.cpu_count()``;
  ``jobs=1`` runs the same legs in-process (debugger-friendly: no
  subprocesses at all),
* ``leg_cycles`` — when set, each run is cut on that absolute cycle
  grid and shipped leg by leg as wire-form snapshots, so the legs of
  many long runs interleave on the pool; unset, a chain is one leg,
* ``progress`` — a :class:`ProgressSink` receiving structured job
  events (queued / started / leg / finished / cache-hit, with an ETA
  derived from completed-job wall times; :func:`run_specs` gives the
  order).  :class:`StderrProgress` renders them as one-line updates,
  :class:`JsonlProgress` appends them to an
  append-only JSONL event log, and :func:`set_default_progress`
  installs a process-wide default so the figure drivers stay
  signature-stable (the CLI's ``--progress`` / ``--progress-log``).

Progress events carry harness wall-clock times — they describe the
*fleet*, not the simulation, so they are exempt from (and irrelevant
to) the simulated-determinism guarantees.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass
from typing import Iterable, List, Optional, Protocol, TextIO

from repro.harness import runner
from repro.harness.diskcache import spec_key
from repro.harness.record import RunRecord
from repro.harness.runner import RunSpec
from repro.vm.snapshot import Snapshot


# ---------------------------------------------------------------------------
# Fleet progress
# ---------------------------------------------------------------------------

def estimate_eta(elapsed: float, completed: int, total: int) -> Optional[float]:
    """Remaining wall time from the mean pace so far, or None.

    Guarded against every degenerate batch: nothing completed yet (all
    cache hits, or a clock that has not advanced past the first job),
    zero/negative elapsed time, and non-finite intermediates — an ETA is
    either a finite non-negative float or absent, never ``inf``/``nan``
    in a progress line or a JSONL event log.
    """
    if completed <= 0 or total <= completed:
        return None if total != completed else 0.0
    if not math.isfinite(elapsed) or elapsed < 0:
        return None
    eta = elapsed / completed * (total - completed)
    if not math.isfinite(eta):
        return None
    return max(0.0, eta)


@dataclass
class JobEvent:
    """One structured fleet event.

    ``kind`` is ``queued`` / ``started`` / ``leg`` / ``finished`` /
    ``cache-hit``.  ``wall_s`` (finished only) is the job's wall time,
    first leg to record; ``eta_s`` (finished only) extrapolates the
    remaining work from the mean wall time of the jobs completed so
    far.

    ``ts`` (monotonic seconds, stamped at construction unless given)
    orders events when several streams are multiplexed into one log;
    ``batch`` tags every event of one engine call with the submitter's
    batch id, so a consumer tailing a shared stream — the fleet
    server's ``/events`` endpoint — can demux concurrent batches.
    Both are additive: consumers of the pre-existing keys are
    unaffected, and ``batch`` is omitted from the JSON when unset.
    """

    kind: str
    benchmark: str
    spec_key: str
    index: int            # position within this batch (0-based)
    total: int            # jobs in this batch (cache hits excluded)
    completed: int = 0    # jobs finished so far, including this one
    wall_s: Optional[float] = None
    eta_s: Optional[float] = None
    ts: Optional[float] = None     # monotonic seconds (auto-stamped)
    batch: Optional[str] = None    # submitting batch id, if any

    def __post_init__(self):
        if self.ts is None:
            self.ts = time.monotonic()

    def to_json(self) -> dict:
        doc = {"type": "job", "kind": self.kind,
               "benchmark": self.benchmark, "spec": self.spec_key,
               "index": self.index, "total": self.total,
               "completed": self.completed}
        if self.ts is not None and math.isfinite(self.ts):
            doc["ts"] = round(self.ts, 4)
        if self.batch is not None:
            doc["batch"] = self.batch
        if self.wall_s is not None and math.isfinite(self.wall_s):
            doc["wall_s"] = round(self.wall_s, 4)
        if self.eta_s is not None and math.isfinite(self.eta_s):
            doc["eta_s"] = round(self.eta_s, 1)
        return doc


class ProgressSink(Protocol):
    """Receiver of :class:`JobEvent` streams."""

    def emit(self, event: JobEvent) -> None:  # pragma: no cover - protocol
        ...

    def close(self) -> None:  # pragma: no cover - protocol
        ...


class StderrProgress:
    """One line per event on stderr (never stdout: reports stay clean)."""

    def __init__(self, stream: Optional[TextIO] = None):
        self.stream = stream if stream is not None else sys.stderr

    def emit(self, event: JobEvent) -> None:
        parts = [f"[engine] {event.kind:>9} {event.benchmark}"
                 f" ({event.spec_key[:10]})"]
        if event.kind == "finished":
            parts.append(f" {event.completed}/{event.total}")
            if event.wall_s is not None:
                parts.append(f" in {event.wall_s:.1f}s")
            if event.eta_s is not None and math.isfinite(event.eta_s) \
                    and event.completed < event.total:
                parts.append(f", eta {event.eta_s:.0f}s")
        print("".join(parts), file=self.stream, flush=True)

    def close(self) -> None:
        pass


class JsonlProgress:
    """Append-only JSONL event log (one self-describing object/line)."""

    def __init__(self, path: str):
        self.path = path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fh = open(path, "a")

    def emit(self, event: JobEvent) -> None:
        self._fh.write(json.dumps(event.to_json()))
        self._fh.write("\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


class TeeProgress:
    """Fan one event stream out to several sinks.

    ``close()`` is exception-safe: every sink's ``close`` runs even
    when an earlier one raises (the first failure is re-raised after
    the sweep).  The fleet server tees one engine stream to many
    subscriber sinks, and one subscriber's broken pipe must not leak
    the others' file handles.
    """

    def __init__(self, *sinks: ProgressSink):
        self.sinks = [s for s in sinks if s is not None]

    def emit(self, event: JobEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        first_error: Optional[BaseException] = None
        for sink in self.sinks:
            try:
                sink.close()
            except Exception as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error


#: Process-wide default sink (installed by the CLI's --progress flags);
#: an explicit ``progress=`` argument always wins.  Guarded by a lock:
#: the fleet server installs/clears sinks from its event loop thread
#: while engine calls resolve them from worker threads.
_DEFAULT_PROGRESS: Optional[ProgressSink] = None
_DEFAULT_PROGRESS_LOCK = threading.Lock()


def set_default_progress(sink: Optional[ProgressSink]) -> None:
    """Install (or clear, with None) the process-wide progress sink."""
    global _DEFAULT_PROGRESS
    with _DEFAULT_PROGRESS_LOCK:
        _DEFAULT_PROGRESS = sink


def _resolve_progress(progress: Optional[ProgressSink]) -> Optional[ProgressSink]:
    if progress is not None:
        return progress
    with _DEFAULT_PROGRESS_LOCK:
        return _DEFAULT_PROGRESS


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit arg > ``REPRO_JOBS`` > ``os.cpu_count()``."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return os.cpu_count() or 1
        try:
            jobs = int(env)
        except ValueError:
            jobs = 0    # refused below, quoting the text as given
        if jobs < 1:
            raise ValueError(f"REPRO_JOBS must be an integer >= 1, "
                             f"got {env!r}")
    elif jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _run_leg(payload) -> dict:
    """Worker entry point: simulate one leg of one spec's chain.

    A leg starts from a shipped snapshot (or boots at cycle 0) and
    advances to the next absolute ``leg_cycles`` grid boundary — or,
    without ``leg_cycles``, to the end state.  Returns ``{"snapshot",
    "record"}``: the leg's end state in wire form whenever the guest
    has not exited (the parent ships it into the next leg and banks it
    as a checkpoint), and the record, minted in-worker, once the chain
    reached its end state (else None).

    Top-level (picklable) and self-contained.
    """
    spec_dict, snap_data, leg_cycles = payload
    spec = RunSpec(**spec_dict)
    vm = runner.start(
        spec,
        resume_from=Snapshot.from_bytes(snap_data) if snap_data else None)
    snaps: List[Snapshot] = []
    result = runner.drive(
        vm, until_cycles=spec.until_cycles, checkpoint_every=leg_cycles,
        on_checkpoint=snaps.append, one_leg=True)
    record = None if result is None \
        else runner.record_from_result(spec, result).to_json()
    return {"snapshot": snaps[-1].to_bytes() if snaps else None,
            "record": record}


def run_specs(specs: Iterable[RunSpec], jobs: Optional[int] = None,
              progress: Optional[ProgressSink] = None,
              batch: Optional[str] = None,
              leg_cycles: Optional[int] = None) -> List[RunRecord]:
    """Compute (or recall) records for ``specs``; results in input order.

    Every unique uncached spec is simulated exactly once, as a *chain
    of legs* through :func:`_run_leg`; duplicates and cache hits are
    free.  Without ``leg_cycles`` a chain is one leg.  With it, each
    leg stops on the absolute ``leg_cycles`` grid and its end state is
    shipped into the next: one run cannot be parallelized internally —
    leg N+1 needs leg N's end state — but while a spec waits for its
    next leg to be scheduled, *other specs'* legs fill the pool, and
    the parent overlaps installing checkpoints and finished records
    with the simulation still in flight.

    Every chain starts from the deepest cached checkpoint
    (:func:`runner.best_snapshot`) and banks its leg-boundary and
    truncation snapshots, so extending a bounded run simulates only
    the delta.  Each leg's outcome is validated and installed into the
    memo and disk layers the moment it arrives: a failure in one spec
    re-raises only after the work already finished has been banked.

    Records are bit-identical serial, pooled and legged — legs stop on
    scheduler-quantum boundaries the unbroken run passes through, and
    the round trip through RunRecord JSON is the same at every
    ``jobs`` (``jobs=1`` runs the same legs in-process) — so neither
    knob can change a result, only how fast it arrives.

    ``progress`` (or the default installed via
    :func:`set_default_progress`) observes the fleet: per chain
    ``queued``, ``started``, one ``leg`` per shipped boundary,
    ``finished`` (with ``wall_s`` and ``eta_s``); ``cache-hit`` for a
    spec that needed no chain.  ``batch`` tags every emitted event
    with the submitter's batch id so concurrent engine calls sharing
    one sink stay demuxable.
    """
    if leg_cycles is not None and leg_cycles < 1:
        raise ValueError(f"leg_cycles must be >= 1, got {leg_cycles}")
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    progress = _resolve_progress(progress)

    missing: List[RunSpec] = []
    seen = set()
    for spec in specs:
        if spec not in seen:
            seen.add(spec)
            if runner.cached_record(spec) is None:
                missing.append(spec)
            elif progress is not None:
                progress.emit(JobEvent("cache-hit", spec.benchmark,
                                       spec_key(spec), index=len(seen) - 1,
                                       total=0, batch=batch))

    if missing:
        total = len(missing)
        keys = [spec_key(spec) for spec in missing]
        chain_t0 = [0.0] * total
        batch_t0 = time.monotonic()
        completed = 0

        def emit(kind: str, i: int, **fields) -> None:
            if progress is not None:
                progress.emit(JobEvent(kind, missing[i].benchmark, keys[i],
                                       index=i, total=total, batch=batch,
                                       **fields))

        def payload(i: int, snap_data: Optional[bytes]) -> tuple:
            return (asdict(missing[i]), snap_data, leg_cycles)

        def launch(i: int) -> tuple:
            """Start chain ``i``: its first leg's payload."""
            emit("started", i)
            chain_t0[i] = time.monotonic()
            snap = runner.best_snapshot(missing[i])
            return payload(i, snap.to_bytes() if snap is not None else None)

        def absorb(i: int, outcome: dict) -> Optional[tuple]:
            """Accept one leg's outcome; the next leg's payload, or
            None when the chain is done."""
            nonlocal completed
            snap_data, doc = outcome["snapshot"], outcome["record"]
            if snap_data is not None:
                runner.store_snapshot(missing[i],
                                      Snapshot.from_bytes(snap_data))
            if doc is None:
                if snap_data is None:
                    raise ValueError(f"leg of {keys[i]} returned neither "
                                     f"a record nor a snapshot")
                emit("leg", i, completed=completed)
                return payload(i, snap_data)
            runner.store_record(missing[i], RunRecord.from_json(doc))
            completed += 1
            now = time.monotonic()
            emit("finished", i, completed=completed,
                 wall_s=now - chain_t0[i],
                 eta_s=estimate_eta(now - batch_t0, completed, total))
            return None

        for i in range(total):
            emit("queued", i)
        if jobs == 1 or total == 1:
            for i in range(total):
                leg = launch(i)
                while leg is not None:
                    leg = absorb(i, _run_leg(leg))
        else:
            with ProcessPoolExecutor(max_workers=min(jobs, total)) as pool:
                futures = {pool.submit(_run_leg, launch(i)): i
                           for i in range(total)}
                failure: Optional[Exception] = None
                while futures:
                    done, _ = wait(futures, return_when=FIRST_COMPLETED)
                    for fut in done:
                        i = futures.pop(fut)
                        try:
                            leg = absorb(i, fut.result())
                        except Exception as exc:
                            # Keep banking what the other workers
                            # finish; ship no further legs.
                            failure = failure or exc
                            continue
                        if leg is not None and failure is None:
                            futures[pool.submit(_run_leg, leg)] = i
                if failure is not None:
                    raise failure

    return [runner.record_for(spec) for spec in specs]

