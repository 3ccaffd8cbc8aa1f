"""The four workloads: what one pass does, and how its outputs are checked.

A *pass* is a fixed list of operations, the same in every pass of a
run, so everything a pass reports (simulated cycles and instructions,
records delivered) repeats exactly for a seed, however many passes the
run's ``--seconds`` leaves room for.  Host time is taken per segment of
roughly 0.1 s through :class:`hostclock.HostClock`.

The program is driven through public functions only; nothing here
reaches into a module's private state.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional

from repro.analysis import diff
from repro.fleet.client import FleetClient
from repro.fleet.server import BackgroundFleet
from repro.harness import engine, runner
from repro.harness.diskcache import DiskCache, spec_key
from repro.harness.experiments import figure_specs
from repro.harness.record import RunRecord
from repro.harness.runner import RunSpec
from repro.health import HealthMonitor
from repro.lineage import DecisionLedger
from repro.telemetry import Telemetry
from repro.telemetry.export import parse_prometheus_text
from repro.vm.snapshot import Snapshot
from repro.vm.vmcore import VM
from repro.workloads import suite

#: Simulated cycles per timed ``VM.advance`` slice (about 0.1 s of host
#: time): short enough that the calibration kernel on either side of it
#: saw the same host speed, long enough that the kernel stays under a
#: sixth of the run.
SLICE_CYCLES = 1_000_000

#: ``--quick`` bounds every guest here, so the shape tests finish in
#: seconds; far enough in that monitored runs have taken PEBS samples.
QUICK_CYCLES = 500_000


class Gate:
    """Counts checked operations; a mismatch prints the surfaces that differ."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: WRONG {label} {detail}", file=sys.stderr)

    def same(self, label: str, got: RunRecord, want: RunRecord) -> None:
        """Equal on every surface ``diff_records`` compares.  Field-for-
        field equality settles nearly every check at a fifth of the cost;
        ``diff_records`` is asked only when that fails."""
        if got == want:
            self.check(label, True)
            return
        delta = diff.diff_records(got, want)
        self.check(label, not delta.deltas,
                   "\n" + diff.format_diff(delta, "got", "want"))


@dataclass
class PassResult:
    """What one pass took and delivered."""

    ref_s: float = 0.0       # reference seconds (hostclock)
    wall_s: float = 0.0
    probe_ref_ms: List[float] = field(default_factory=list)
    cycles: int = 0          # simulated, summed over the delivered records
    instructions: int = 0
    #: The delivered records; ``run.py`` drops them after the warm-up
    #: pass so that memory does not grow with the number of passes.
    records: List[RunRecord] = field(default_factory=list)

    def add(self, ref_s: float, wall_s: float) -> None:
        self.ref_s += ref_s
        self.wall_s += wall_s

    def deliver(self, record: RunRecord) -> None:
        self.cycles += record.cycles
        self.instructions += record.instructions
        self.records.append(record)


@dataclass(frozen=True)
class Guest:
    """One simulated run of a pass; ``observed`` attaches all three observers."""

    spec: RunSpec
    observed: bool = False


def _observers(guest: Guest) -> dict:
    if not guest.observed:
        return {}
    return {"telemetry": Telemetry(), "lineage": DecisionLedger(),
            "health": HealthMonitor()}


def run_guest(clock, guest: Guest, result: PassResult) -> RunRecord:
    """Build, boot, advance in slices and finish one guest at level 2.

    The same steps as ``runner.execute``, with the advance cut into
    :data:`SLICE_CYCLES` slices so each can be timed against the host's
    speed at that moment; slicing is bit-identical to an unbroken run.
    """
    spec = guest.spec

    def boot() -> VM:
        workload = suite.build(spec.benchmark)
        config = spec.system_config(workload.min_heap_bytes)
        config.fastpath = 2
        for name, observer in _observers(guest).items():
            setattr(config, name, observer)
        vm = VM(workload.program, config, compilation_plan=workload.plan)
        vm.begin()
        return vm

    vm, ref_s, wall_s = clock.timed(boot)
    result.add(ref_s, wall_s)
    bound = spec.until_cycles
    stop = 0
    done = False
    while not done and (bound is None or vm.cpu.cycles < bound):
        stop += SLICE_CYCLES
        done, ref_s, wall_s = clock.timed(
            vm.advance, until_cycles=stop if bound is None
            else min(stop, bound))
        result.add(ref_s, wall_s)
    record, ref_s, wall_s = clock.timed(
        lambda: runner.record_from_result(spec, vm.finish()))
    result.add(ref_s, wall_s)
    return record


def reference_check(clock, gate: Gate, guest: Guest, cycles: int) -> None:
    """The guest's first ``cycles`` on the reference interpreter must
    equal the same slice at level 2 (driven in slices, as the passes are)."""
    bound = cycles if guest.spec.until_cycles is None \
        else min(cycles, guest.spec.until_cycles)
    sliced = replace(guest, spec=replace(guest.spec, until_cycles=bound))
    reference = runner.record_from_result(
        sliced.spec, runner.execute(sliced.spec, fastpath=0,
                                    **_observers(sliced)))
    gate.same(f"reference-vs-level2 {guest.spec.benchmark}",
              run_guest(clock, sliced, PassResult()), reference)


class SimWorkload:
    """A pass is a fixed list of guests simulated cold, one after another."""

    def __init__(self, guests: List[Guest], check_cycles: int):
        self.guests = guests
        self.check_cycles = check_cycles
        self.first: Optional[List[RunRecord]] = None

    def setup(self, clock, gate: Gate) -> None:
        self.first = None
        for guest in self.guests:
            reference_check(clock, gate, guest, self.check_cycles)

    def run_pass(self, clock, gate: Gate) -> PassResult:
        """Simulate every guest; the probe is the first guest's run."""
        result = PassResult()
        for i, guest in enumerate(self.guests):
            before = result.ref_s
            result.deliver(run_guest(clock, guest, result))
            if i == 0:
                result.probe_ref_ms.append((result.ref_s - before) * 1e3)
        if self.first is None:
            self.first = list(result.records)
        for got, want in zip(result.records, self.first):
            gate.same(f"pass-vs-first {got.program}", got, want)
        return result

    def close(self) -> None:
        pass


def _quick_spec(spec: RunSpec) -> RunSpec:
    return replace(spec, until_cycles=min(spec.until_cycles or QUICK_CYCLES,
                                          QUICK_CYCLES))


def _quick(guests: List[Guest]) -> List[Guest]:
    return [replace(g, spec=_quick_spec(g.spec)) for g in guests]


def sim_compute(seed: int, quick: bool, out_dir=None) -> SimWorkload:
    # Monitoring is off, so the seed cannot reach the simulation through
    # the PEBS jitter; it draws where the mpegaudio run is cut instead,
    # inside a window narrow enough to keep sim_cycles within its bound.
    cut = (QUICK_CYCLES if quick else 4_400_000) + seed * 7919 % 100_000
    guests = [
        Guest(RunSpec("compress", monitoring=False,
                      until_cycles=QUICK_CYCLES if quick else None)),
        Guest(RunSpec("mpegaudio", monitoring=False, until_cycles=cut)),
    ]
    return SimWorkload(guests, check_cycles=QUICK_CYCLES if quick
                       else 1_500_000)


def sim_memory(seed: int, quick: bool, out_dir=None) -> SimWorkload:
    guests = [
        Guest(RunSpec("db", coalloc=True, seed=seed,
                      until_cycles=16_000_000)),
        Guest(RunSpec("pseudojbb", coalloc=True, seed=seed,
                      until_cycles=8_000_000)),
        Guest(RunSpec("db", coalloc=True, seed=seed,
                      until_cycles=4_000_000), observed=True),
    ]
    return SimWorkload(_quick(guests) if quick else guests,
                       check_cycles=QUICK_CYCLES if quick else 1_500_000)


def sim_churn(seed: int, quick: bool, out_dir=None) -> SimWorkload:
    guests = [Guest(RunSpec(name, heap_mult=1.0, coalloc=True, seed=seed))
              for name in ("javac", "jack", "fop", "antlr")]
    guests += [Guest(RunSpec(name, heap_mult=1.0, gc_plan="gencopy",
                             seed=seed))
               for name in ("javac", "fop")]
    return SimWorkload(_quick(guests) if quick else guests,
                       check_cycles=QUICK_CYCLES if quick else 750_000)


class HarnessWarm:
    """A pass replays, fetches and resumes results that setup simulated.

    Setup fills a private :class:`DiskCache` with a small figure matrix
    and one ``db`` checkpoint and starts the fleet daemon in-process.
    A pass then does only what a warm user does: re-reads the matrix
    through ``engine.run_specs``, submits cached specs to the daemon and
    fetches their records, and resumes the checkpoint for a fixed delta.
    """

    REPLAYS = 100          # cold-memo matrix replays per pass
    TRIPS = 40             # fleet submit->record round trips per pass
    CHECKPOINT = 2_000_000
    RESUME_DELTA = 250_000

    def __init__(self, seed: int, quick: bool, out_dir: str):
        self.seed = seed
        self.quick = quick
        self.out_dir = out_dir
        self.root: Optional[str] = None
        self.fleet: Optional[BackgroundFleet] = None

    # -- setup ---------------------------------------------------------------

    def setup(self, clock, gate: Gate) -> None:
        self.close()
        os.makedirs(self.out_dir, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="warm-", dir=self.out_dir)
        self.cache = DiskCache(root=self.root)
        runner.set_disk_cache(self.cache)
        runner.clear_cache()

        matrix = figure_specs(benchmarks=["antlr"], heap_mults=(4.0,),
                              intervals=("25K",))
        matrix = [replace(s, seed=self.seed) if s.monitoring else s
                  for s in matrix]
        checkpoint = RunSpec("db", coalloc=True, seed=self.seed,
                             until_cycles=self.CHECKPOINT)
        if self.quick:
            matrix = [_quick_spec(s) for s in matrix]
            checkpoint = _quick_spec(checkpoint)
        self.matrix = matrix
        #: What each spec's record must be: the directly simulated one.
        self.expected: Dict[RunSpec, RunRecord] = dict(
            zip(matrix, engine.run_specs(matrix, jobs=1)))

        snaps: List[Snapshot] = []
        runner.execute(checkpoint, on_checkpoint=snaps.append)
        self.base = checkpoint.base()
        self.cache.put_snapshot(self.base, snaps[-1])
        self.resume = replace(
            checkpoint, until_cycles=snaps[-1].cycle + self.RESUME_DELTA)
        self.expected[self.resume] = runner.record_from_result(
            self.resume, runner.execute(self.resume))

        # One monitored matrix spec and the checkpointed one: this
        # workload's own gate is delivered == simulated, checked per pass.
        for spec in (matrix[1], checkpoint):
            reference_check(clock, gate, Guest(spec), 300_000)

        self.fleet = BackgroundFleet(jobs=1)
        self.client = FleetClient(self.fleet.base_url, timeout=60)
        self.docs = {spec: asdict(spec) for spec in matrix}
        self.keys = {spec: spec_key(spec) for spec in matrix}
        job = self.client.submit([self.docs[s] for s in matrix], wait=True)
        gate.check("fleet warm-up job", job["state"] == "done", str(job))
        self.sim_runs_floor = self._fleet_sim_runs()

    def _fleet_sim_runs(self) -> float:
        parsed = parse_prometheus_text(self.client.metrics())
        return sum(value for _series, _labels, value
                   in parsed["repro_fleet_sim_runs"]["samples"])

    # -- one pass ------------------------------------------------------------

    def _replay(self) -> List[List[RunRecord]]:
        out = []
        for _ in range(self.REPLAYS):
            runner.clear_cache()      # the memo only: the disk layer stays
            out.append(engine.run_specs(self.matrix, jobs=1))
        return out

    def _trips(self) -> List[tuple]:
        """Closed loop, one connection at a time: submit, wait, fetch."""
        out = []
        n = len(self.matrix)
        for i in range(self.TRIPS):
            if i % 5 == 4:   # a batch with one key twice
                specs = [self.matrix[(i + j) % n] for j in (0, 1, 2, 0)]
            else:
                specs = [self.matrix[i % n]]
            start = time.perf_counter()
            job = self.client.submit([self.docs[s] for s in specs],
                                     wait=True)
            fetched = {s: self.client.record(self.keys[s])
                       for s in dict.fromkeys(specs)}
            out.append((len(specs), time.perf_counter() - start, job,
                        fetched))
        return out

    def _resume(self) -> tuple:
        snap = self.cache.get_snapshot(self.base)
        blobs: List[bytes] = []
        result = runner.execute(
            self.resume, resume_from=snap,
            on_checkpoint=lambda s: blobs.append(s.to_bytes()))
        return runner.record_from_result(self.resume, result), blobs

    def run_pass(self, clock, gate: Gate) -> PassResult:
        """Replay, fetch, resume; the probe is the one-spec round trip."""
        result = PassResult()

        replays, ref_s, wall_s = clock.timed(self._replay)
        result.add(ref_s, wall_s)
        for records in replays:
            for spec, record in zip(self.matrix, records):
                gate.same(f"replayed {spec.benchmark}", record,
                          self.expected[spec])
                result.deliver(record)

        trips, ref_s, wall_s = clock.timed(self._trips)
        result.add(ref_s, wall_s)
        speed = wall_s / ref_s
        for n_specs, trip_s, job, fetched in trips:
            if n_specs == 1:
                result.probe_ref_ms.append(trip_s / speed * 1e3)
            states = {row["state"] for row in job["spec_states"]}
            gate.check("fleet job served from cache",
                       job["state"] == "done" and states <= {"cache-hit"},
                       str(job))
            for spec, doc in fetched.items():
                record = diff.record_from_doc(doc)
                gate.same(f"fetched {spec.benchmark}", record,
                          self.expected[spec])
                result.deliver(record)

        (record, blobs), ref_s, wall_s = clock.timed(self._resume)
        result.add(ref_s, wall_s)
        gate.same("resumed-vs-unbroken db", record,
                  self.expected[self.resume])
        gate.check("resumed run deposits its end state",
                   len(blobs) == 1 and Snapshot.from_bytes(blobs[0]).cycle
                   >= self.resume.until_cycles, f"{len(blobs)} snapshots")
        result.deliver(record)

        sim_runs = self._fleet_sim_runs()
        gate.check("fleet simulated nothing for cached specs",
                   sim_runs == self.sim_runs_floor,
                   f"sim_runs {self.sim_runs_floor} -> {sim_runs}")
        return result

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.stop()
            self.fleet = None
        if self.root is not None:
            runner.set_disk_cache(None)
            runner.clear_cache()
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None


#: name -> factory(seed, quick, out_dir).  Why each was chosen is in
#: BENCHMARK.json and README.md.
WORKLOADS = {
    "sim_compute": sim_compute,
    "sim_memory": sim_memory,
    "sim_churn": sim_churn,
    "harness_warm": HarnessWarm,
}
