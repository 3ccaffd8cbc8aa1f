"""Deterministic run snapshotting and time-sliced execution.

The contract under test: a :class:`~repro.vm.snapshot.Snapshot` is a
*perfect* copy of a mid-run VM — capture, restore, and run to the end,
and every observable surface (cycles, instructions, exit value, event
counters, PEBS sample count, revert log, lineage ids) is bit-identical
to never having stopped, at every fastpath level and at any scheduler
boundary the run was cut at.  On top of that sit the incremental
layers: extending a cached ``until_cycles`` run simulates only the
delta, and the engine splits runs into legs without changing a
single bit.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.harness import engine, runner
from repro.harness.diskcache import DiskCache
from repro.harness.runner import RunSpec, execute
from repro.vm.snapshot import Snapshot, SnapshotError

LEVELS = (0, 1, 2)

#: Monitored + co-allocating fop: exercises sampling, the controller,
#: GC (3 minor collections), and the feedback loop in ~2.4M cycles.
FOP = RunSpec(benchmark="fop", heap_mult=2.0, coalloc=True)
#: Compress cut at 2M cycles: a *truncated* record end-to-end.
COMPRESS = RunSpec(benchmark="compress", heap_mult=2.0, coalloc=True,
                   until_cycles=2_000_000)


@pytest.fixture()
def disk(tmp_path):
    cache = DiskCache(root=str(tmp_path), version="v-snap-test")
    runner.clear_cache()
    runner.set_disk_cache(cache)
    yield cache
    runner.set_disk_cache(None)
    runner.clear_cache()


def fingerprint(result):
    """Every surface the bit-identity guarantee covers."""
    vm = result.vm
    reverted = None
    if vm.controller is not None:
        reverted = [e.name for e in
                    vm.controller.feedback.reverted_experiments()]
    return (
        result.cycles,
        result.instructions,
        result.exit_value,
        result.app_cycles,
        result.gc_cycles,
        result.monitoring_cycles,
        dict(result.counters),
        result.gc_stats,
        result.monitor_summary,
        vm.pebs.samples_taken if vm.pebs is not None else None,
        vm.pebs.samples_dropped if vm.pebs is not None else None,
        reverted,
    )


def run_broken(spec, level, break_at, lineage=None):
    """Truncate ``spec`` at ``break_at``, then resume to its real end.

    Returns the finished RunResult of the *resumed* VM — the snapshot
    hop is the only difference from a plain ``execute``.
    """
    snaps = []
    bounded = replace(spec, until_cycles=break_at)
    execute(bounded, fastpath=level, lineage=lineage,
            on_checkpoint=snaps.append)
    assert snaps, "truncated run must deposit its end-state checkpoint"
    vm = snaps[-1].restore(fastpath=level)
    vm.advance(until_cycles=spec.until_cycles)
    return vm.finish()


# ---------------------------------------------------------------------------
# Bit-identity: snapshot -> restore -> run == never having stopped
# ---------------------------------------------------------------------------

class TestBitIdentity:
    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("spec", [FOP, COMPRESS],
                             ids=["fop", "compress-2M"])
    def test_resume_matches_unbroken(self, spec, level):
        unbroken = execute(spec, fastpath=level)
        resumed = run_broken(spec, level, break_at=1_000_000)
        assert fingerprint(resumed) == fingerprint(unbroken)

    @pytest.mark.parametrize("level", LEVELS)
    def test_resumed_record_equals_unbroken_record(self, level):
        a = runner.record_from_result(FOP, execute(FOP, fastpath=level))
        b = runner.record_from_result(FOP, run_broken(FOP, level, 800_000))
        assert a == b

    def test_cross_level_restore_is_identical(self):
        """One capture replays identically under all three interpreters."""
        snaps = []
        execute(replace(FOP, until_cycles=1_000_000),
                on_checkpoint=snaps.append)
        prints = []
        for level in LEVELS:
            vm = snaps[-1].restore(fastpath=level)
            vm.advance()
            prints.append(fingerprint(vm.finish()))
        assert prints[0] == prints[1] == prints[2]

    @pytest.mark.parametrize("level", LEVELS)
    def test_lineage_ids_survive_resume(self, level):
        from repro.lineage import DecisionLedger

        unbroken = DecisionLedger()
        execute(FOP, fastpath=level, lineage=unbroken)
        resumed = run_broken(FOP, level, break_at=1_200_000,
                             lineage=DecisionLedger())
        a, b = unbroken.to_json(), resumed.vm.observers.lineage.to_json()
        assert [e["id"] for e in a["entries"]] \
            == [e["id"] for e in b["entries"]]
        assert a == b


# ---------------------------------------------------------------------------
# until_cycles boundary conditions: any scheduler cut point is safe
# ---------------------------------------------------------------------------

class TestBoundaries:
    #: Cut points chosen to land the *requested* bound awkwardly; the
    #: scheduler rounds each up to its next quantum boundary.
    #:   1         — before the first quantum (main's superblock leader)
    #:   127       — one cycle before the first scheduler quantum (128)
    #:   300_013   — odd bound mid-method, far from any quantum multiple
    #:   1_000_000 — past the first minor GC safepoint (fop GCs 3x)
    BREAKS = (1, 127, 300_013, 1_000_000)

    @pytest.mark.parametrize("level", LEVELS)
    def test_every_cut_point_resumes_identically(self, level):
        unbroken = fingerprint(execute(FOP, fastpath=level))
        for break_at in self.BREAKS:
            resumed = run_broken(FOP, level, break_at)
            assert fingerprint(resumed) == unbroken, \
                f"divergence after cut at {break_at} (level {level})"

    def test_gc_actually_happened(self):
        """The 1M cut point really does span GC work (guards BREAKS)."""
        result = execute(FOP)
        assert "0 minor" not in result.gc_stats.summary()

    def test_double_break_chains(self):
        """Checkpoint-of-a-resumed-run resumes again, still identical."""
        unbroken = fingerprint(execute(FOP))
        snaps = []
        execute(replace(FOP, until_cycles=600_000),
                on_checkpoint=snaps.append)
        vm = snaps[-1].restore()
        vm.advance(until_cycles=1_400_000)
        second = Snapshot.capture(vm)
        vm2 = second.restore()
        vm2.advance()
        assert fingerprint(vm2.finish()) == unbroken


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

class TestWireFormat:
    def _snap(self):
        snaps = []
        execute(replace(FOP, until_cycles=200_000),
                on_checkpoint=snaps.append)
        return snaps[-1]

    def test_bytes_round_trip(self):
        snap = self._snap()
        clone = Snapshot.from_bytes(snap.to_bytes())
        assert clone.cycle == snap.cycle
        assert clone.program == snap.program
        assert clone.pure == snap.pure
        vm_a, vm_b = snap.restore(), clone.restore()
        vm_a.advance()
        vm_b.advance()
        assert fingerprint(vm_a.finish()) == fingerprint(vm_b.finish())

    def test_bad_magic_rejected(self):
        with pytest.raises(SnapshotError, match="magic"):
            Snapshot.from_bytes(b"NOPE" + b"\x00" * 64)

    def test_truncated_rejected(self):
        with pytest.raises(SnapshotError):
            Snapshot.from_bytes(b"RSNP\x00")

    def test_stale_code_version_rejected(self):
        import struct

        data = self._snap().to_bytes()
        (hlen,) = struct.unpack(">I", data[4:8])
        header = json.loads(data[8:8 + hlen].decode())
        header["code_version"] = "0" * 16
        tampered = json.dumps(header).encode()
        data = (data[:4] + struct.pack(">I", len(tampered)) + tampered
                + data[8 + hlen:])
        with pytest.raises(SnapshotError, match="code version"):
            Snapshot.from_bytes(data)
        # ... unless the caller explicitly opts out.
        assert Snapshot.from_bytes(data, check_code_version=False) is not None


# ---------------------------------------------------------------------------
# Purity: only observer-free snapshots may serve the record cache
# ---------------------------------------------------------------------------

class TestPurity:
    def test_observer_snapshots_are_impure(self):
        from repro.lineage import DecisionLedger

        snaps = []
        execute(replace(FOP, until_cycles=200_000),
                lineage=DecisionLedger(), on_checkpoint=snaps.append)
        assert not snaps[-1].pure
        pure_snaps = []
        execute(replace(FOP, until_cycles=200_000),
                on_checkpoint=pure_snaps.append)
        assert pure_snaps[-1].pure

    def test_record_cache_skips_impure_checkpoints(self, disk):
        from repro.lineage import DecisionLedger

        bounded = replace(FOP, until_cycles=200_000)
        snaps = []
        execute(bounded, lineage=DecisionLedger(),
                on_checkpoint=snaps.append)
        runner.store_snapshot(bounded, snaps[-1])
        # best_snapshot (the record cache's lookup) refuses it ...
        assert runner.best_snapshot(replace(FOP, until_cycles=400_000)) \
            is None
        # ... but an unrestricted disk lookup (the CLI --resume path)
        # still serves it.
        found = disk.get_snapshot(FOP.base())
        assert found is not None and not found.pure
        assert disk.get_snapshot(FOP.base(), require_pure=True) is None


# ---------------------------------------------------------------------------
# Incremental extension: only the delta is ever simulated
# ---------------------------------------------------------------------------

class TestIncremental:
    def test_extension_simulates_only_the_delta(self, disk):
        short = replace(COMPRESS, until_cycles=500_000)
        long = replace(COMPRESS, until_cycles=2_000_000)

        runner.record_for(short)
        before = runner.SIM_CYCLES
        extended = runner.record_for(long)
        delta = runner.SIM_CYCLES - before
        # The prefix (>= 500K cycles) was served by the checkpoint; only
        # the remaining ~1.5M simulated (plus sub-quantum slack).
        assert 0 < delta < 1_700_000

        # And the result is bit-identical to an unbroken bounded run.
        runner.set_disk_cache(None)
        runner.clear_cache()
        fresh = runner.record_for(long)
        assert extended == fresh

    def test_engine_extension_simulates_only_the_delta(self, disk):
        """Engine chains start from the family's deepest checkpoint and
        bank their own, exactly as ``record_for`` does."""
        runs = runner.SIM_RUNS
        engine.run_specs([replace(COMPRESS, until_cycles=500_000)], jobs=1)
        assert runner.SIM_RUNS == runs + 1
        before = runner.SIM_CYCLES
        long = replace(COMPRESS, until_cycles=2_000_000)
        [extended] = engine.run_specs([long], jobs=1)
        assert 0 < runner.SIM_CYCLES - before < 1_700_000
        assert runner.SIM_RUNS == runs + 2

        runner.set_disk_cache(None)
        runner.clear_cache()
        assert extended == runner.record_for(long)

    def test_warm_snapshot_cache_survives_processes(self, disk):
        """A second "process" (cleared memo) resumes from disk."""
        short = replace(COMPRESS, until_cycles=500_000)
        runner.record_for(short)
        runner._RECORDS.clear()
        runner._SNAPSHOTS.clear()
        before = runner.SIM_CYCLES
        runner.record_for(replace(COMPRESS, until_cycles=1_000_000))
        assert 0 < runner.SIM_CYCLES - before < 700_000
        assert disk.snapshot_hits >= 1

    def test_full_run_reuses_bounded_prefix(self, disk):
        """An *unbounded* spec also resumes from its family's checkpoints."""
        runner.record_for(replace(FOP, until_cycles=1_000_000))
        before = runner.SIM_CYCLES
        record = runner.record_for(FOP)
        assert runner.SIM_CYCLES - before < 1_600_000
        runner.set_disk_cache(None)
        runner.clear_cache()
        assert record == runner.record_for(FOP)


# ---------------------------------------------------------------------------
# Reseeding: every seed's cached/resumed record is its own unbroken run
# ---------------------------------------------------------------------------

class TestReseed:
    def test_each_seed_is_bit_exact(self, disk):
        seeds = [replace(FOP, seed=FOP.seed + r) for r in range(2)]
        for spec in seeds:      # leave each seed a checkpoint to resume
            runner.record_for(replace(spec, until_cycles=400_000))
        resumed = [runner.record_for(spec) for spec in seeds]
        assert disk.snapshot_hits >= 2
        runner.set_disk_cache(None)
        runner.clear_cache()
        for spec, record in zip(seeds, resumed):
            assert record == runner.record_for(spec), \
                f"seed {spec.seed} diverged"


# ---------------------------------------------------------------------------
# Legged engine chains: legs can never change a bit
# ---------------------------------------------------------------------------

class TestSharded:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sharded_equals_serial(self, disk, jobs):
        serial = [runner.record_for(FOP), runner.record_for(COMPRESS)]
        runner.clear_cache()
        disk.clear()
        sharded = engine.run_specs([FOP, COMPRESS], leg_cycles=800_000,
                                   jobs=jobs)
        assert sharded == serial

    def test_sharded_legs_deposit_checkpoints(self, disk):
        engine.run_specs([FOP], leg_cycles=700_000, jobs=1)
        assert disk.snapshot_cycles(FOP.base())


# ---------------------------------------------------------------------------
# Disk cache: snapshot entries, stats by kind, prune
# ---------------------------------------------------------------------------

class TestDiskCacheSnapshots:
    def test_stats_split_records_from_snapshots(self, disk):
        runner.record_for(replace(COMPRESS, until_cycles=500_000))
        stats = disk.stats()
        assert stats["records"]["entries"] == 1
        assert stats["snapshots"]["entries"] >= 1
        assert stats["snapshots"]["bytes"] > 0
        assert stats["entries"] == (stats["records"]["entries"]
                                    + stats["snapshots"]["entries"])

    def test_zero_bound_shares_the_checkpoint_family(self):
        """``until_cycles=0`` is a bound like any other: its checkpoint
        is filed under the same base spec every other bound looks up."""
        zero = replace(FOP, until_cycles=0)
        assert zero.base() == FOP
        assert zero.base() == replace(FOP, until_cycles=500_000).base()
        assert FOP.base() is FOP

    def test_failed_put_snapshot_leaves_no_tmp_file(self, disk, tmp_path,
                                                    monkeypatch):
        snaps = []
        execute(replace(FOP, until_cycles=200_000),
                on_checkpoint=snaps.append)

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            disk.put_snapshot(FOP, snaps[-1])
        assert not [name for _dir, _sub, names in os.walk(tmp_path)
                    for name in names if ".tmp." in name]

    def test_corrupt_snapshot_is_a_miss_not_a_crash(self, disk, tmp_path):
        short = replace(COMPRESS, until_cycles=500_000)
        runner.record_for(short)
        for cycle in disk.snapshot_cycles(short.base()):
            path = disk._snapshot_path(short.base(), cycle)
            with open(path, "wb") as fh:
                fh.write(b"garbage")
        assert disk.get_snapshot(short.base()) is None
        assert disk.snapshot_cycles(short.base()) == []

    def test_prune_drops_stale_versions_and_fits_budget(self, disk,
                                                        tmp_path):
        import os

        runner.record_for(replace(COMPRESS, until_cycles=500_000))
        stale_dir = tmp_path / "v-old"
        stale_dir.mkdir()
        (stale_dir / "dead.json").write_text("{}")
        (stale_dir / "dead.snap.5.bin").write_bytes(b"x" * 100)

        outcome = disk.prune()
        assert outcome["removed_stale"] == 2
        assert not os.path.isdir(stale_dir)
        assert outcome["removed_current"] == 0

        outcome = disk.prune(max_bytes=0)
        assert outcome["removed_current"] >= 2
        assert outcome["bytes"] == 0
        assert disk.stats()["entries"] == 0
