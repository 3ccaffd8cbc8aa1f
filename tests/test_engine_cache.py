"""The parallel engine and the persistent result cache.

The contract under test: ``jobs`` and the cache layers can change how
fast a result arrives, never what it is.  Records computed in worker
processes, recalled from disk, or replayed across simulated "processes"
must compare equal field-for-field to ones computed inline — and a
warmed cache must leave the harness doing zero simulation work.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.harness import engine, runner
from repro.harness.diskcache import DiskCache, code_version, spec_key
from repro.harness.record import RunRecord, SCHEMA_VERSION
from repro.harness.runner import RunSpec


CHEAP = RunSpec(benchmark="fop", heap_mult=1.0, coalloc=False,
                monitoring=False)
CHEAP2 = RunSpec(benchmark="fop", heap_mult=2.0, coalloc=False,
                 monitoring=False)
MONITORED = RunSpec(benchmark="fop", heap_mult=2.0, coalloc=True,
                    monitoring=True)


@pytest.fixture()
def disk(tmp_path):
    """A real DiskCache against a temp root, injected into the runner."""
    cache = DiskCache(root=str(tmp_path), version="v-test")
    runner.clear_cache()
    runner.set_disk_cache(cache)
    yield cache
    runner.set_disk_cache(None)
    runner.clear_cache()


def sim_runs():
    return runner.SIM_RUNS


# ---------------------------------------------------------------------------
# RunRecord portability
# ---------------------------------------------------------------------------

class TestRunRecord:
    def test_json_round_trip_is_lossless(self):
        record = runner.record_for(MONITORED)
        clone = RunRecord.from_json(record.to_json())
        assert clone == record
        # A second hop through an actual JSON string too.
        clone2 = RunRecord.from_json(json.loads(json.dumps(record.to_json())))
        assert clone2 == record

    def test_record_carries_derived_surfaces(self):
        record = runner.record_for(MONITORED)
        assert record.cycles > 0
        assert record.map_sizes[0] > 0, "machine-code size extracted"
        assert record.field_series, "per-field series extracted"
        name = next(iter(record.field_series))
        cumulative = record.cumulative_series(name)
        assert cumulative[-1][1] == sum(n for _, n in record.series(name))
        assert record.reverted_experiments == []

    def test_foreign_schema_rejected(self):
        record = runner.record_for(CHEAP)
        doc = record.to_json()
        doc["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            RunRecord.from_json(doc)


# ---------------------------------------------------------------------------
# Disk cache layer
# ---------------------------------------------------------------------------

class TestDiskCache:
    def test_miss_then_hit(self, disk):
        assert disk.get(CHEAP) is None
        record = runner.record_for(CHEAP)  # computes + stores
        loaded = disk.get(CHEAP)
        assert loaded == record
        # Two misses: the probe above plus record_for's own lookup.
        assert disk.misses == 2 and disk.hits >= 1

    def test_warm_cache_means_zero_simulation_work(self, disk):
        runner.record_for(CHEAP)
        runner.clear_cache()  # drop the memo, keep the disk layer
        before = sim_runs()
        replay = runner.record_for(CHEAP)
        assert sim_runs() == before, "disk hit must not simulate"
        assert replay.cycles > 0

    def test_version_change_invalidates(self, disk, tmp_path):
        record = runner.record_for(CHEAP)
        other = DiskCache(root=str(tmp_path), version="v-other")
        assert other.get(CHEAP) is None, "new code version sees no entries"
        assert disk.get(CHEAP) == record, "old version's entry intact"
        assert other.stats()["stale_entries"] >= 1

    def test_failed_put_leaves_no_tmp_file(self, disk, tmp_path,
                                           monkeypatch):
        """``stats``/``prune`` skip ``*.tmp.*`` names, so a tmp file a
        failed write left behind would stay forever."""
        record = runner.record_for(CHEAP2)

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            disk.put(CHEAP, record)
        names = os.listdir(tmp_path / "v-test")
        assert not [n for n in names if ".tmp." in n], names

    def test_corrupt_entry_recomputed_not_trusted(self, disk, tmp_path):
        runner.record_for(CHEAP)
        runner.clear_cache()
        path = os.path.join(str(tmp_path), "v-test",
                            spec_key(CHEAP) + ".json")
        with open(path, "w") as fh:
            fh.write('{"version": "v-test", "record": {"cyc')  # torn write
        assert disk.get(CHEAP) is None
        assert not os.path.exists(path), "corrupt entry swept"
        before = sim_runs()
        record = runner.record_for(CHEAP)
        assert sim_runs() == before + 1, "recomputed, not trusted"
        assert record.cycles > 0

    def test_clear_and_stats(self, disk):
        runner.record_for(CHEAP)
        runner.record_for(CHEAP2)
        stats = disk.stats()
        assert stats["entries"] == 2 and stats["bytes"] > 0
        removed = disk.clear()
        assert removed == 2
        assert disk.stats()["entries"] == 0

    def test_runner_clear_cache_disk_flag(self, disk):
        runner.record_for(CHEAP)
        runner.clear_cache()  # memo only: disk entry survives
        assert disk.stats()["entries"] == 1
        runner.clear_cache(disk=True)
        assert disk.stats()["entries"] == 0

    def test_code_version_is_stable_within_process(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16

    def test_spec_key_distinguishes_specs(self):
        assert spec_key(CHEAP) != spec_key(CHEAP2)
        assert spec_key(CHEAP) == spec_key(RunSpec(**{
            "benchmark": "fop", "heap_mult": 1.0,
            "coalloc": False, "monitoring": False}))


# ---------------------------------------------------------------------------
# Parallel engine
# ---------------------------------------------------------------------------

class TestEngine:
    def test_resolve_jobs_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert engine.resolve_jobs(3) == 3
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert engine.resolve_jobs() == 5
        assert engine.resolve_jobs(2) == 2, "explicit arg beats env"
        monkeypatch.delenv("REPRO_JOBS")
        assert engine.resolve_jobs() == (os.cpu_count() or 1)
        with pytest.raises(ValueError):
            engine.resolve_jobs(0)

    def test_parallel_equals_serial(self, disk):
        """The acceptance equality: records from worker processes are
        bit-identical (as JSON) to records computed inline."""
        specs = [CHEAP, CHEAP2]
        serial = [r.to_json() for r in engine.run_specs(specs, jobs=1)]
        runner.clear_cache(disk=True)  # force full recompute
        parallel = [r.to_json() for r in engine.run_specs(specs, jobs=2)]
        assert parallel == serial
        runner.clear_cache(disk=True)
        assert [runner.record_for(s).to_json() for s in specs] == serial

    def test_run_specs_preserves_order_and_dedupes(self, disk):
        specs = [CHEAP2, CHEAP, CHEAP2]  # duplicate, out of key order
        before = sim_runs()
        records = engine.run_specs(specs, jobs=1)
        assert sim_runs() == before + 2, "duplicate simulated once"
        assert records[0] is records[2]
        assert [r.cycles for r in records] == [records[0].cycles,
                                               records[1].cycles,
                                               records[0].cycles]

    def test_warm_then_measure_is_pure_cache(self, disk):
        before = sim_runs()
        warmed = engine.run_specs([CHEAP, CHEAP2], jobs=1)
        assert sim_runs() == before + 2
        assert [runner.record_for(CHEAP), runner.record_for(CHEAP2)] == warmed
        assert engine.run_specs([CHEAP, CHEAP2], jobs=1) == warmed
        assert sim_runs() == before + 2, "a warmed spec is never re-simulated"

    def test_parallel_results_cached_to_disk(self, disk):
        engine.run_specs([CHEAP, CHEAP2], jobs=2)
        assert disk.stats()["entries"] == 2, \
            "worker results land in the parent's disk cache"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_spec_keeps_finished_work(self, disk, jobs):
        """Outcomes are installed as they arrive: one spec's failure
        re-raises without discarding another's finished simulation."""
        bad = RunSpec(benchmark="no-such-benchmark")
        with pytest.raises(KeyError, match="no-such-benchmark"):
            engine.run_specs([CHEAP, bad], jobs=jobs)
        assert CHEAP in runner._RECORDS, "memo layer has the record"
        assert disk.get(CHEAP) is not None, "disk layer has the record"
        before = sim_runs()
        engine.run_specs([CHEAP], jobs=jobs)
        assert sim_runs() == before

    def test_nonpositive_leg_cycles_rejected(self, disk):
        with pytest.raises(ValueError, match="leg_cycles"):
            engine.run_specs([CHEAP], jobs=1, leg_cycles=0)

    def test_seeds_are_independent_cache_entries(self, disk):
        reseeded = replace(CHEAP, seed=CHEAP.seed + 1)
        before = sim_runs()
        runner.record_for(CHEAP)
        runner.record_for(reseeded)
        assert sim_runs() == before + 2, "one seed never serves another"
        assert disk.stats()["entries"] == 2
        runner.record_for(CHEAP)
        runner.record_for(reseeded)
        assert sim_runs() == before + 2


# ---------------------------------------------------------------------------
# Fleet progress
# ---------------------------------------------------------------------------

class Recorder:
    """Test subscriber: keeps every job document, remembers close()."""

    def __init__(self):
        self.docs = []
        self.closed = False

    def __call__(self, doc):
        self.docs.append(doc)

    def close(self):
        self.closed = True

    def kinds(self):
        return [d["kind"] for d in self.docs]


class TestProgress:
    def test_serial_event_sequence(self, disk):
        rec = Recorder()
        engine.run_specs([CHEAP, CHEAP2], jobs=1, progress=rec)
        # All queued events first, then started/finished per job.
        assert rec.kinds() == ["queued", "queued", "started", "finished",
                               "started", "finished"]
        finished = [d for d in rec.docs if d["kind"] == "finished"]
        assert [d["completed"] for d in finished] == [1, 2]
        assert all(d["total"] == 2 for d in rec.docs)
        assert all(d["wall_s"] >= 0 for d in finished)
        assert all("eta_s" in d for d in finished)
        assert finished[-1]["eta_s"] == 0.0, \
            "nothing left after the last job"
        assert finished[0]["benchmark"] == CHEAP.benchmark
        assert finished[0]["spec"] == spec_key(CHEAP)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("leg_cycles", [None, 200_000])
    def test_every_chain_speaks_one_vocabulary(self, disk, jobs,
                                               leg_cycles):
        """queued, started, leg*, finished(wall_s) — however the chain
        was cut and wherever it ran."""
        rec = Recorder()
        engine.run_specs([CHEAP, CHEAP2], jobs=jobs, progress=rec,
                         leg_cycles=leg_cycles)
        for spec in (CHEAP, CHEAP2):
            chain = [d for d in rec.docs if d["spec"] == spec_key(spec)]
            kinds = [d["kind"] for d in chain]
            legs = kinds.count("leg")
            assert kinds == ["queued", "started"] + ["leg"] * legs \
                + ["finished"]
            assert (legs > 0) == (leg_cycles is not None)
            assert chain[-1]["wall_s"] > 0 and "eta_s" in chain[-1]

    def test_warm_engine_emits_cache_hits_only(self, disk):
        engine.run_specs([CHEAP, CHEAP2], jobs=1)
        runner.clear_cache()  # drop memo; disk layer still warm
        rec = Recorder()
        engine.run_specs([CHEAP, CHEAP2], jobs=1, progress=rec)
        assert rec.kinds() == ["cache-hit", "cache-hit"]

    def test_parallel_progress_counts(self, disk):
        rec = Recorder()
        records = engine.run_specs([CHEAP, CHEAP2], jobs=2, progress=rec)
        assert len(records) == 2
        kinds = rec.kinds()
        assert kinds.count("queued") == 2
        assert kinds.count("started") == 2
        assert kinds.count("finished") == 2
        completed = sorted(d["completed"] for d in rec.docs
                           if d["kind"] == "finished")
        assert completed == [1, 2]

    def test_event_json_shape(self, disk):
        rec = Recorder()
        engine.run_specs([CHEAP], jobs=1, progress=rec)
        for doc in rec.docs:
            assert doc["type"] == "job"
            assert {"kind", "benchmark", "spec", "index", "total",
                    "completed"} <= set(doc)
            json.dumps(doc, allow_nan=False)  # plain JSON, nothing else
        finished = rec.docs[-1]
        assert "wall_s" in finished and "eta_s" in finished

    def test_jsonl_progress_appends(self, tmp_path, disk):
        path = tmp_path / "logs" / "events.jsonl"  # parent auto-created
        log = engine.JsonlLog(str(path))
        engine.run_specs([CHEAP], jobs=1, progress=log)
        log.close()
        log = engine.JsonlLog(str(path))  # appends by default
        engine.run_specs([CHEAP], jobs=1, progress=log)  # memo hit
        log.close()
        lines = path.read_text().splitlines()
        docs = [json.loads(line) for line in lines]
        assert [d["kind"] for d in docs] == ["queued", "started",
                                             "finished", "cache-hit"]
        assert all(d["type"] == "job" for d in docs)
        assert lines == [json.dumps(d, sort_keys=True) for d in docs], \
            "one sorted-key document per line"

    def test_stderr_progress_renders_lines(self, disk):
        import io

        stream = io.StringIO()
        engine.run_specs([CHEAP], jobs=1,
                         progress=engine.StderrProgress(stream))
        lines = stream.getvalue().splitlines()
        assert len(lines) == 3
        assert all(line.startswith("[engine]") for line in lines)
        assert "finished fop" in lines[-1] and "1/1" in lines[-1]

    def test_default_sink_installed_and_cleared(self, disk):
        rec = Recorder()
        engine.set_default_progress(rec)
        try:
            engine.run_specs([CHEAP], jobs=1)
        finally:
            engine.set_default_progress(None)
        assert "finished" in rec.kinds()
        explicit = Recorder()
        engine.set_default_progress(rec)
        try:
            count = len(rec.docs)
            runner.clear_cache()
            engine.run_specs([CHEAP], jobs=1, progress=explicit)
        finally:
            engine.set_default_progress(None)
        assert explicit.docs, "explicit sink receives the events"
        assert len(rec.docs) == count, "explicit argument beats default"
        engine.run_specs([CHEAP], jobs=1)
        assert len(rec.docs) == count, "cleared default stays silent"

    def test_tee_fans_out_and_closes(self, disk):
        """The bus tees one engine stream to every subscriber, and its
        close() closes those that have a close()."""
        a, b = Recorder(), Recorder()
        bus = engine.EventBus()
        bus.subscribe(a)
        bus.subscribe(b)
        bus.subscribe([].append)  # no close(): skipped by bus.close()
        runner.clear_cache(disk=True)
        engine.run_specs([CHEAP], jobs=1, progress=bus.publish)
        assert a.docs == b.docs != []
        bus.close()
        assert a.closed and b.closed

    def test_progress_does_not_perturb_results(self, disk):
        quiet = [r.to_json() for r in engine.run_specs([CHEAP], jobs=1)]
        runner.clear_cache(disk=True)
        noisy = [r.to_json() for r in engine.run_specs(
            [CHEAP], jobs=1, progress=Recorder())]
        assert noisy == quiet


class TestEventTsAndBatch:
    """Every job document's monotonic ``ts`` and ``batch`` tag."""

    def test_ts_stamped_and_serialized(self, disk):
        import time

        rec = Recorder()
        before = time.monotonic()
        engine.run_specs([CHEAP], jobs=1, progress=rec)
        after = time.monotonic()
        stamps = [d["ts"] for d in rec.docs]
        assert len(stamps) == 3
        assert stamps == sorted(stamps), "stamped as emitted"
        assert round(before, 4) <= stamps[0]
        assert stamps[-1] <= round(after, 4)
        assert all(ts == round(ts, 4) for ts in stamps)

    def test_explicit_ts_preserved(self, tmp_path):
        """The bus carries a document as published: a fleet document's
        own ``ts`` reaches subscribers and the log unchanged."""
        path = tmp_path / "events.jsonl"
        rec = Recorder()
        bus = engine.EventBus()
        bus.subscribe(rec)
        bus.subscribe(engine.JsonlLog(str(path), mode="w"))
        bus.publish({"type": "fleet", "kind": "shutdown", "ts": 12.5})
        bus.close()
        assert rec.docs[0]["ts"] == 12.5
        assert json.loads(path.read_text())["ts"] == 12.5

    def test_batch_omitted_when_unset(self, disk):
        rec = Recorder()
        engine.run_specs([CHEAP], jobs=1, progress=rec)
        assert rec.docs, "sanity"
        for doc in rec.docs:
            assert "batch" not in doc, \
                "untagged streams carry no batch key"

    def test_batch_tags_every_event(self, disk):
        rec = Recorder()
        runner.clear_cache(disk=True)
        engine.run_specs([CHEAP, CHEAP2], jobs=1, progress=rec,
                         batch="b7")
        assert rec.docs, "sanity"
        assert all(d["batch"] == "b7" for d in rec.docs)
        # Cache hits are tagged too.
        rec2 = Recorder()
        engine.run_specs([CHEAP], jobs=1, progress=rec2, batch="b8")
        assert rec2.kinds() == ["cache-hit"]
        assert rec2.docs[0]["batch"] == "b8"

    def test_sharded_batch_tagging(self, disk):
        rec = Recorder()
        runner.clear_cache(disk=True)
        engine.run_specs([CHEAP], leg_cycles=200_000, jobs=1,
                         progress=rec, batch="b9")
        assert "leg" in rec.kinds()
        assert all(d["batch"] == "b9" for d in rec.docs)


class TestProgressRobustness:
    """Lock-guarded default subscriber, safe bus close."""

    def test_tee_close_survives_failing_sink(self):
        class Exploding:
            def __call__(self, doc):
                pass

            def close(self):
                raise OSError("disk full")

        a, boom, b = Recorder(), Exploding(), Recorder()
        bus = engine.EventBus()
        for fn in (a, boom, b):
            bus.subscribe(fn)
        with pytest.raises(OSError, match="disk full"):
            bus.close()
        assert a.closed and b.closed, \
            "one failing subscriber must not skip the rest"

    def test_tee_close_reports_first_of_many_errors(self):
        class Exploding:
            def __init__(self, message):
                self.message = message

            def __call__(self, doc):
                pass

            def close(self):
                raise ValueError(self.message)

        bus = engine.EventBus()
        bus.subscribe(Exploding("first"))
        bus.subscribe(Exploding("second"))
        with pytest.raises(ValueError, match="first"):
            bus.close()

    def test_default_progress_thread_safety(self, disk):
        """Concurrent set/resolve must never corrupt the default sink
        (the accessors are lock-guarded)."""
        import threading

        rec = Recorder()
        stop = threading.Event()
        errors = []

        def churn():
            try:
                while not stop.is_set():
                    engine.set_default_progress(rec)
                    engine.set_default_progress(None)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=churn) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(50):
                engine.run_specs([CHEAP], jobs=1)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
        engine.set_default_progress(None)
        assert not errors


# ---------------------------------------------------------------------------
# ETA estimation (degenerate batches: all cache hits, zero wall time)
# ---------------------------------------------------------------------------

class TestEtaEstimate:
    def test_normal_pace(self):
        assert engine.estimate_eta(10.0, 2, 4) == pytest.approx(10.0)

    def test_nothing_completed_yet_has_no_eta(self):
        assert engine.estimate_eta(5.0, 0, 4) is None

    def test_batch_done_is_zero(self):
        assert engine.estimate_eta(5.0, 4, 4) == 0.0
        assert engine.estimate_eta(0.0, 0, 0) == 0.0

    def test_zero_elapsed_gives_zero_not_nan(self):
        # All-cache-hit batches finish in ~0 wall time; the ETA must
        # come back 0.0, never nan/inf.
        eta = engine.estimate_eta(0.0, 2, 4)
        assert eta == 0.0

    def test_non_finite_or_negative_elapsed_suppressed(self):
        assert engine.estimate_eta(float("inf"), 2, 4) is None
        assert engine.estimate_eta(float("nan"), 2, 4) is None
        assert engine.estimate_eta(-1.0, 2, 4) is None

    @staticmethod
    def _non_finite_clock(monkeypatch):
        """Make every wall time the engine measures, and every ETA it
        estimates, non-finite."""
        import types

        monkeypatch.setattr(engine, "time", types.SimpleNamespace(
            monotonic=lambda: float("inf")))
        monkeypatch.setattr(engine, "estimate_eta",
                            lambda *args: float("nan"))

    def test_event_json_drops_non_finite_fields(self, disk, monkeypatch):
        self._non_finite_clock(monkeypatch)
        rec = Recorder()
        engine.run_specs([CHEAP, CHEAP2], jobs=1, progress=rec)
        finished = [d for d in rec.docs if d["kind"] == "finished"]
        assert len(finished) == 2
        for doc in rec.docs:
            assert not {"ts", "wall_s", "eta_s"} & set(doc), doc
            json.dumps(doc, allow_nan=False)
        # Finite values are kept, rounded.
        monkeypatch.undo()
        monkeypatch.setattr(engine, "estimate_eta", lambda *args: 3.04)
        runner.clear_cache(disk=True)
        rec = Recorder()
        engine.run_specs([CHEAP], jobs=1, progress=rec)
        doc = rec.docs[-1]
        assert doc["kind"] == "finished" and doc["eta_s"] == 3.0
        assert doc["wall_s"] > 0 and doc["wall_s"] == round(doc["wall_s"], 4)

    def test_stderr_progress_never_prints_non_finite_eta(self, disk,
                                                          monkeypatch):
        import io

        self._non_finite_clock(monkeypatch)
        stream = io.StringIO()
        engine.run_specs([CHEAP, CHEAP2], jobs=1,
                         progress=engine.StderrProgress(stream))
        text = stream.getvalue()
        assert "finished fop" in text and "1/2" in text
        assert "inf" not in text and "nan" not in text
        assert "eta" not in text

    def test_all_cache_hit_batch_emits_clean_events(self, disk):
        engine.run_specs([CHEAP, CHEAP2], jobs=1)
        runner.clear_cache()  # drop memo; disk layer stays warm
        rec = Recorder()
        engine.run_specs([CHEAP, CHEAP2], jobs=1, progress=rec)
        assert rec.kinds() == ["cache-hit", "cache-hit"]
        for doc in rec.docs:
            text = json.dumps(doc)
            assert "Infinity" not in text and "NaN" not in text


# ---------------------------------------------------------------------------
# Cache prune dry-run
# ---------------------------------------------------------------------------

class TestPruneDryRun:
    def seed(self, disk, tmp_path):
        """Two current entries plus one stale-version entry."""
        runner.record_for(CHEAP)
        runner.record_for(CHEAP2)
        stale = DiskCache(root=str(tmp_path), version="v-stale")
        stale.put(CHEAP, runner.record_for(CHEAP))

    def test_dry_run_plans_without_deleting(self, disk, tmp_path):
        self.seed(disk, tmp_path)
        before = disk.stats()
        plan = disk.prune(dry_run=True)
        assert plan["removed_stale"] == 1
        assert plan["removed_current"] == 0
        assert len(plan["would_remove"]) == 1
        assert os.path.exists(plan["would_remove"][0])
        assert disk.stats() == before, "dry run must not touch the cache"

    def test_dry_run_byte_budget_matches_real_prune(self, disk, tmp_path):
        self.seed(disk, tmp_path)
        plan = disk.prune(max_bytes=0, dry_run=True)
        assert plan["removed_current"] == 2
        assert len(plan["would_remove"]) == 3  # 1 stale + 2 evicted
        assert disk.stats()["entries"] == 2, "still intact"
        real = disk.prune(max_bytes=0)
        assert "would_remove" not in real
        assert (real["removed_stale"], real["removed_current"]) \
            == (plan["removed_stale"], plan["removed_current"])
        assert real["bytes"] == plan["bytes"] == 0
        assert disk.stats()["entries"] == 0

    def test_real_prune_removes_exactly_the_planned_files(self, disk,
                                                          tmp_path):
        self.seed(disk, tmp_path)
        planned = set(disk.prune(max_bytes=0, dry_run=True)["would_remove"])
        disk.prune(max_bytes=0)
        assert planned and not any(os.path.exists(p) for p in planned)
