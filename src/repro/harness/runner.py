"""Benchmark runner: one entry point per (benchmark, configuration).

The experiment figures share many configurations (Figure 4's large-heap
runs are Figure 5's 4x points, ...), so results are cached in layers:

1. an in-process memo of :class:`~repro.harness.record.RunRecord`
   results and resumable snapshots, keyed by spec,
2. a persistent on-disk cache (:mod:`repro.harness.diskcache`) keyed by
   the spec plus a code-version hash, so re-running any figure across
   processes or CI runs is near-instant,
3. the simulator itself (:func:`execute`), which always runs fresh —
   guest programs carry mutable static state, so each run builds a new
   program.

:func:`record_for` traffics in portable :class:`RunRecord` results (no
live VM reference), which is what lets the parallel scheduler in
:mod:`repro.harness.engine` compute them in worker processes and the
disk cache replay them without any simulation work.

The paper reports timing as averages over 3 executions; the simulator
is deterministic for a fixed seed, so one run per spec is the number,
and a different ``seed`` is a different spec with its own cache entry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.core.config import GCConfig, SystemConfig, scaled_interval
from repro.harness import diskcache
from repro.harness.record import RunRecord
from repro.vm.snapshot import Snapshot
from repro.vm.vmcore import RunResult, VM
from repro.workloads import suite

#: Interval names accepted by the harness: the paper's three plus auto.
INTERVAL_NAMES = ("25K", "50K", "100K", "auto")

#: Simulations actually executed by this process (not served from any
#: cache layer) — the counter the warm-cache "zero simulation work"
#: assertions read.
SIM_RUNS = 0

#: Cycles actually *simulated* by this process.  A resumed run adds
#: only its delta, which is how tests prove that extending a cached
#: ``until_cycles`` run never re-executes the prefix.
SIM_CYCLES = 0


@dataclass(frozen=True)
class RunSpec:
    """One benchmark execution configuration."""

    benchmark: str
    heap_mult: float = 4.0
    coalloc: bool = False
    monitoring: bool = True
    interval: str = "auto"          # "25K" | "50K" | "100K" | "auto"
    gc_plan: str = "genms"
    event: str = "L1D_MISS"
    seed: int = 1
    #: Stop (and record) once the cycle clock passes this bound; None
    #: runs to completion.  Two specs differing only here share one
    #: checkpoint family in the caches (see :func:`base_spec`).
    until_cycles: Optional[int] = None

    def as_dict(self) -> dict:
        """The fields by name, as a new dict.

        Every field is a scalar, so a shallow copy of the instance dict
        is the whole form; the deep copy ``dataclasses.asdict`` makes
        would cost as much as the rest of a disk-cache lookup.
        """
        return dict(self.__dict__)

    def base(self) -> "RunSpec":
        """The spec with the cycle bound stripped — the snapshot key."""
        return replace(self, until_cycles=None) \
            if self.until_cycles is not None else self

    def system_config(self, min_heap_bytes: int) -> SystemConfig:
        sampling = (None if self.interval == "auto"
                    else scaled_interval(self.interval))
        return SystemConfig(
            gc=GCConfig(heap_bytes=int(min_heap_bytes * self.heap_mult)),
            coalloc=self.coalloc,
            monitoring=self.monitoring,
            sampling_interval=sampling,
            sampled_event=self.event,
            gc_plan=self.gc_plan,
            seed=self.seed,
        )


_RECORDS: Dict[RunSpec, RunRecord] = {}
#: In-process checkpoint memo: base spec -> {cycle: Snapshot}.
_SNAPSHOTS: Dict[RunSpec, Dict[int, Snapshot]] = {}
_DISK: Optional[diskcache.DiskCache] = None
_DISK_RESOLVED = False


def _disk() -> Optional[diskcache.DiskCache]:
    """The process-wide disk cache (None when disabled via env)."""
    global _DISK, _DISK_RESOLVED
    if not _DISK_RESOLVED:
        _DISK = diskcache.DiskCache() if diskcache.cache_enabled() else None
        _DISK_RESOLVED = True
    return _DISK


def set_disk_cache(cache: Optional[diskcache.DiskCache]) -> None:
    """Inject (or disable, with None) the persistent cache layer."""
    global _DISK, _DISK_RESOLVED
    _DISK = cache
    _DISK_RESOLVED = True


def start(spec: RunSpec, telemetry=None, fastpath=None,
          lineage=None, health=None,
          resume_from: Optional[Snapshot] = None) -> VM:
    """A begun VM for ``spec``, ready for :func:`drive`.

    ``resume_from`` continues a captured :class:`Snapshot` instead of
    booting at cycle 0 — bit-identical to the unbroken run.  A resumed
    run keeps the snapshot's own telemetry/lineage/health observers
    (they hold the already-recorded prefix); only ``fastpath`` may be
    overridden.
    """
    if resume_from is not None:
        return resume_from.restore(fastpath=fastpath)
    vm, _ = make_vm(spec.benchmark, spec, telemetry=telemetry,
                    fastpath=fastpath, lineage=lineage, health=health)
    vm.begin()
    return vm


def execute(spec: RunSpec, telemetry=None, fastpath=None,
            lineage=None, health=None,
            resume_from: Optional[Snapshot] = None,
            checkpoint_every: Optional[int] = None,
            on_checkpoint=None) -> RunResult:
    """Run one spec once (no caching): :func:`start`, then
    :func:`drive` to the end state.

    ``telemetry``, ``lineage``, ``health``, and ``fastpath`` ride on
    the :class:`SystemConfig`, never on the frozen spec, so they cannot
    pollute the memoization key used by :func:`record_for` (nor the
    disk-cache key): telemetry, the lineage ledger, and the health
    monitor are pure observers, and the interpreters are bit-identical,
    so a record computed under any knob setting is valid for all of
    them.

    ``checkpoint_every`` slices the run on an absolute cycle grid and
    hands each boundary snapshot to ``on_checkpoint``; the grid is
    absolute (multiples of the stride, not offsets from the start) so
    resumed legs land on the same checkpoints the unbroken run would.
    """
    vm = start(spec, telemetry=telemetry, fastpath=fastpath,
               lineage=lineage, health=health, resume_from=resume_from)
    return drive(vm, until_cycles=spec.until_cycles,
                 checkpoint_every=checkpoint_every,
                 on_checkpoint=on_checkpoint)


def drive(vm: VM, until_cycles: Optional[int] = None,
          checkpoint_every: Optional[int] = None,
          on_checkpoint=None, one_leg: bool = False) -> Optional[RunResult]:
    """Advance a begun (or restored) VM to its end state and finish it.

    The end state is completion, or the first scheduler-quantum
    boundary past ``until_cycles``.  Every stop short of completion —
    a ``checkpoint_every`` grid boundary, or the truncating bound — is
    captured *before* ``finish()`` (whose sample drain mutates
    controller state) and handed to ``on_checkpoint``, so the same
    simulation yields both the truncated record and the checkpoint a
    later extension resumes from.

    With ``one_leg`` the VM stops at the first grid boundary and the
    call returns None unless that leg reached the end state; a chain
    of such legs, each resumed from the previous one's checkpoint, is
    the unbroken run (this is how the engine ships a run through
    worker processes).  This loop is the only place ``SIM_CYCLES``
    (per simulated cycle) and ``SIM_RUNS`` (per run finished) move.
    """
    global SIM_RUNS, SIM_CYCLES
    start_cycles = vm.cpu.cycles
    while True:
        stop = until_cycles
        if checkpoint_every:
            grid = (vm.cpu.cycles // checkpoint_every + 1) * checkpoint_every
            stop = grid if until_cycles is None else min(grid, until_cycles)
        done = vm.advance(until_cycles=stop)
        if not done and on_checkpoint is not None:
            on_checkpoint(Snapshot.capture(vm))
        ended = done or (until_cycles is not None
                         and vm.cpu.cycles >= until_cycles)
        if ended or one_leg:
            break
    SIM_CYCLES += vm.cpu.cycles - start_cycles
    if not ended:
        return None
    SIM_RUNS += 1
    return vm.finish()


def cached_record(spec: RunSpec) -> Optional[RunRecord]:
    """Look ``spec`` up in the memo and disk layers without computing."""
    record = _RECORDS.get(spec)
    if record is None:
        disk = _disk()
        if disk is not None:
            record = disk.get(spec)
            if record is not None:
                _RECORDS[spec] = record
    return record


def store_record(spec: RunSpec, record: RunRecord) -> None:
    """Install a computed record in the memo and disk layers."""
    _RECORDS[spec] = record
    disk = _disk()
    if disk is not None:
        disk.put(spec, record)


def record_from_result(spec: RunSpec, result: RunResult,
                       fastpath: "int | None" = None) -> RunRecord:
    """Extract a portable record and stamp its provenance manifest.

    This is the one place records are minted (the engine's legs and
    ``repro run --record`` go through it), so every stored record
    carries the inputs it is a pure function of.
    """
    from repro.analysis import provenance

    record = RunRecord.from_result(result)
    record.provenance = provenance.manifest(spec, fastpath)
    return record


def store_snapshot(spec: RunSpec, snap: Snapshot) -> None:
    """Install one checkpoint in the memo and disk layers.

    Keyed by the *base* spec (``until_cycles`` stripped): every cycle
    bound of the same configuration draws from one checkpoint family.
    """
    base = spec.base()
    _SNAPSHOTS.setdefault(base, {})[snap.cycle] = snap
    disk = _disk()
    if disk is not None:
        disk.put_snapshot(base, snap)


def best_snapshot(spec: RunSpec) -> Optional[Snapshot]:
    """The latest cached checkpoint usable for ``spec``, or None.

    Usable means *pure* (no live observers — a cached record must come
    out identical whether simulated fresh or resumed) and strictly
    before the spec's ``until_cycles`` bound (resuming at or past the
    bound would skip the recorded end state).
    """
    base = spec.base()
    bound = spec.until_cycles
    memo = _SNAPSHOTS.get(base, {})
    cycles = [c for c in memo
              if memo[c].pure and (bound is None or c < bound)]
    best = memo[max(cycles)] if cycles else None
    disk = _disk()
    if disk is not None:
        from_disk = disk.get_snapshot(base, max_cycle=bound,
                                      require_pure=True)
        if from_disk is not None and (best is None
                                      or from_disk.cycle > best.cycle):
            _SNAPSHOTS.setdefault(base, {})[from_disk.cycle] = from_disk
            best = from_disk
    return best


def record_for(spec: RunSpec) -> RunRecord:
    """One spec's portable result: memo -> disk -> simulate.

    This is ``engine.run_specs([spec], jobs=1)``, the engine in
    process: simulation resumes from the best cached checkpoint when
    one exists, and a run truncated by ``until_cycles`` deposits its
    end state back into the snapshot layers — so extending a bounded
    run's horizon simulates only the delta (``SIM_CYCLES`` proves it).
    """
    from repro.harness import engine  # engine imports this module

    return engine.run_specs([spec], jobs=1)[0]


def clear_cache(disk: bool = False) -> None:
    """Drop the in-process memo; with ``disk=True`` also the disk layer."""
    _RECORDS.clear()
    _SNAPSHOTS.clear()
    if disk:
        layer = _disk()
        if layer is not None:
            layer.clear()


def make_vm(benchmark: str, spec: Optional[RunSpec] = None,
            telemetry=None, fastpath=None,
            lineage=None, health=None) -> Tuple[VM, object]:
    """Build a VM without running it — the one place a spec becomes a
    VM.  :func:`start` boots it; experiments that intervene mid-run,
    like Figure 8's manual gap insertion, drive it themselves.

    Returns ``(vm, workload)``.
    """
    spec = spec or RunSpec(benchmark=benchmark, coalloc=True)
    if spec.interval not in INTERVAL_NAMES:
        raise ValueError(f"unknown interval {spec.interval!r}")
    workload = suite.build(benchmark)
    config = spec.system_config(workload.min_heap_bytes)
    if telemetry is not None:
        config.telemetry = telemetry
    if lineage is not None:
        config.lineage = lineage
    if health is not None:
        config.health = health
    if fastpath is not None:
        config.fastpath = fastpath
    vm = VM(workload.program, config, compilation_plan=workload.plan)
    return vm, workload
