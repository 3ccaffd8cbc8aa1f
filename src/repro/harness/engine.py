"""Parallel experiment execution engine.

The paper's evaluation is dozens of independent, deterministic
:class:`~repro.harness.runner.RunSpec` runs.  They share no state — every
run builds a fresh guest program and VM — so the engine fans them out
across cores with a :class:`~concurrent.futures.ProcessPoolExecutor` and
collects results in input order, which (with a fixed seed per spec)
makes parallel output bit-identical to serial output.

:func:`run_specs` is the only path from a spec to a cached record
(:func:`~repro.harness.runner.record_for` simulates through it too).
It runs every uncached spec as a *chain of legs* through one worker
entry point (:func:`_run_leg`) and accepts every leg's outcome in one
place (its ``absorb`` step), which installs the leg's checkpoint and —
once the chain ends — its portable
:class:`~repro.harness.record.RunRecord` into the runner's memo and the
persistent disk cache as it arrives.
Every later ``run_specs``/``record_for`` of the same spec is therefore
a cache hit, and a batch that fails midway keeps what it finished.

Knobs:

* ``jobs`` argument > ``REPRO_JOBS`` env > ``os.cpu_count()``;
  ``jobs=1`` runs the same legs in-process (debugger-friendly: no
  subprocesses at all),
* ``leg_cycles`` — when set, each run is cut on that absolute cycle
  grid and shipped leg by leg as wire-form snapshots, so the legs of
  many long runs interleave on the pool; unset, a chain is one leg,
* ``progress`` — a callable receiving one JSON document per job event
  (queued / started / leg / finished / cache-hit, with an ETA derived
  from completed-job wall times; :func:`run_specs` gives the order).
  :class:`EventBus` fans such a stream out to its subscribers —
  :class:`StderrProgress` renders one-line updates, :class:`JsonlLog`
  appends a JSONL event log — and :func:`set_default_progress`
  installs a process-wide default so the figure drivers stay
  signature-stable (the CLI's ``--progress`` / ``--progress-log``).
  The fleet daemon publishes on a bus of its own, so one document
  format serves the terminal, the logs and ``GET /events``.

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
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, Iterable, List, Optional, TextIO

from repro.harness import runner
from repro.harness.diskcache import spec_key
from repro.harness.record import RunRecord
from repro.harness.runner import RunSpec
from repro.vm.snapshot import Snapshot


# ---------------------------------------------------------------------------
# Fleet progress
# ---------------------------------------------------------------------------

#: What receives the host-side event stream: one JSON document per call.
Subscriber = Callable[[dict], None]


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


class StderrProgress:
    """One line per job document on stderr (never stdout: reports stay
    clean)."""

    def __init__(self, stream: Optional[TextIO] = None):
        self.stream = stream if stream is not None else sys.stderr

    def __call__(self, doc: dict) -> None:
        parts = [f"[engine] {doc['kind']:>9} {doc['benchmark']}"
                 f" ({doc['spec'][:10]})"]
        if doc["kind"] == "finished":
            parts.append(f" {doc['completed']}/{doc['total']}")
            if "wall_s" in doc:
                parts.append(f" in {doc['wall_s']:.1f}s")
            if "eta_s" in doc and doc["completed"] < doc["total"]:
                parts.append(f", eta {doc['eta_s']:.0f}s")
        print("".join(parts), file=self.stream, flush=True)


class JsonlLog:
    """JSONL event log: one sorted-key JSON document per line.

    ``mode`` is ``"a"`` to append (``--progress-log``) or ``"w"`` to
    start afresh (``serve --events-log``); missing parent directories
    are created.
    """

    def __init__(self, path: str, mode: str = "a"):
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fh = open(path, mode)

    def __call__(self, doc: dict) -> None:
        self._fh.write(json.dumps(doc, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


class EventBus:
    """The host-side event stream: JSON documents fanned out to
    subscriber callables, with a bounded replayable history.

    ``publish`` appends a document to the history and hands it to every
    subscriber; ``subscribe(backlog=True)`` first replays that history,
    so a late-joining dashboard reconstructs the fleet state before
    going live.  ``close()`` closes every subscriber that has a
    ``close``, even when an earlier one raises (the first failure is
    re-raised after the sweep): one subscriber's broken file must not
    leak the others' handles.
    """

    def __init__(self, retain: int = 4096):
        self.history: deque = deque(maxlen=retain)
        self._subscribers: List[Subscriber] = []

    def publish(self, doc: dict) -> None:
        self.history.append(doc)
        for fn in self._subscribers:
            fn(doc)

    def subscribe(self, fn: Subscriber, backlog: bool = True) -> None:
        if backlog:
            for doc in self.history:
                fn(doc)
        self._subscribers.append(fn)

    def unsubscribe(self, fn: Subscriber) -> None:
        if fn in self._subscribers:
            self._subscribers.remove(fn)

    def close(self) -> None:
        first_error: Optional[BaseException] = None
        for fn in self._subscribers:
            try:
                getattr(fn, "close", lambda: None)()
            except Exception as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error


#: Process-wide default subscriber (installed by the CLI's --progress
#: flags); an explicit ``progress=`` argument always wins.  Guarded by a
#: lock: :func:`run_specs` is a library call that may run on any
#: thread, so a resolve racing an install or clear must not depend on
#: the interpreter's guarantees about global stores.
_DEFAULT_PROGRESS: Optional[Subscriber] = None
_DEFAULT_PROGRESS_LOCK = threading.Lock()


def set_default_progress(fn: Optional[Subscriber]) -> None:
    """Install (or clear, with None) the process-wide progress callable."""
    global _DEFAULT_PROGRESS
    with _DEFAULT_PROGRESS_LOCK:
        _DEFAULT_PROGRESS = fn


def _resolve_progress(progress: Optional[Subscriber]) -> Optional[Subscriber]:
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
              progress: Optional[Subscriber] = None,
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
    :func:`set_default_progress`) is called with one ``"type": "job"``
    document per event: per chain ``queued``, ``started``, one ``leg``
    per shipped boundary, ``finished`` (with ``wall_s`` and ``eta_s``);
    ``cache-hit`` for a spec that needed no chain.  Every document
    carries ``ts`` (monotonic seconds), which orders events when
    several streams are multiplexed into one log, and — when ``batch``
    is given — the submitter's batch id, so a consumer tailing a shared
    stream (the fleet server's ``/events``) can demux concurrent
    batches.  ``wall_s`` is a job's wall time, first leg to record;
    ``eta_s`` extrapolates the remaining work from the mean wall time
    of the jobs completed so far; either is left out when not finite.
    """
    if leg_cycles is not None and leg_cycles < 1:
        raise ValueError(f"leg_cycles must be >= 1, got {leg_cycles}")
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    progress = _resolve_progress(progress)

    def publish(kind: str, spec: RunSpec, key: str, index: int, total: int,
                completed: int = 0, wall_s: Optional[float] = None,
                eta_s: Optional[float] = None) -> None:
        if progress is None:
            return
        doc = {"type": "job", "kind": kind, "benchmark": spec.benchmark,
               "spec": key, "index": index, "total": total,
               "completed": completed}
        ts = time.monotonic()
        if math.isfinite(ts):
            doc["ts"] = round(ts, 4)
        if batch is not None:
            doc["batch"] = batch
        if wall_s is not None and math.isfinite(wall_s):
            doc["wall_s"] = round(wall_s, 4)
        if eta_s is not None and math.isfinite(eta_s):
            doc["eta_s"] = round(eta_s, 1)
        progress(doc)

    missing: List[RunSpec] = []
    seen = set()
    for spec in specs:
        if spec not in seen:
            seen.add(spec)
            if runner.cached_record(spec) is None:
                missing.append(spec)
            elif progress is not None:
                publish("cache-hit", spec, spec_key(spec),
                        index=len(seen) - 1, total=0)

    if missing:
        total = len(missing)
        keys = [spec_key(spec) for spec in missing]
        chain_t0 = [0.0] * total
        batch_t0 = time.monotonic()
        completed = 0

        def emit(kind: str, i: int, **fields) -> None:
            publish(kind, missing[i], keys[i], index=i, total=total,
                    **fields)

        def payload(i: int, snap_data: Optional[bytes]) -> tuple:
            return (missing[i].as_dict(), snap_data, leg_cycles)

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

    return [runner.cached_record(spec) for spec in specs]

