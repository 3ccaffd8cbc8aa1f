"""Tests for the run-health observatory (src/repro/health).

Four layers:

* unit tests of the online phase segmentation (:class:`PhaseTracker`:
  hysteresis, spike fold-back, warmup, running scales),
* unit tests of every built-in pathology detector over synthetic
  interval/event streams,
* the no-monitor path (the pure-observer matrix itself is
  ``tests/test_observer_purity.py``),
* end-to-end: a seeded revert storm and a phase-shifting workload are
  both detected by ``repro doctor``, with every finding's evidence
  resolving to valid ledger entries; records embed the report through
  schema 5 and refuse every other schema.
"""

import json
from types import SimpleNamespace

import pytest

from repro.harness import experiments as ex
from repro.harness.record import RunRecord, SCHEMA_VERSION
from repro.harness.runner import RunSpec, execute
from repro.health import DETECTORS, HealthMonitor
from repro.health.detectors import ExperimentEvent
from repro.health.phases import FEATURES, Interval, PhaseTracker
from repro.health.report import (HEALTH_SCHEMA_VERSION, Finding, HealthReport,
                                 PhaseRecord, SEVERITY_CRITICAL, SEVERITY_OK,
                                 SEVERITY_WARN, build_report,
                                 format_findings, format_phase_overlay,
                                 format_phase_table, worst_severity)
from repro.lineage import DecisionLedger, explain
from repro.lineage.ledger import K_PERIOD, K_REVERT
from repro.observers import NO_OBSERVERS, Observers


def make_interval(index, samples=10, miss=0.0, gc=0.0, alloc=0.0,
                  recompiles=0, paused=False, top_fields=(),
                  period_id=-1, ranking_id=-1):
    return Interval(
        index=index, start_cycle=index * 1000,
        end_cycle=(index + 1) * 1000, samples=samples,
        attributed=samples, miss_rate=miss, gc_fraction=gc,
        alloc_rate=alloc, recompiles=recompiles, sampling_paused=paused,
        top_fields=tuple(top_fields), ledger_period_id=period_id,
        ledger_ranking_id=ranking_id)


def detect(name, stream):
    """The findings (as JSON) detector ``name`` reports over ``stream``,
    a list of intervals and experiment events in arrival order, as a
    monitor keeps it."""
    monitor = HealthMonitor()
    for item in stream:
        if isinstance(item, Interval):
            monitor.on_interval(item)
        else:
            monitor.on_event(item)
    detector = {d.__name__: d for d in DETECTORS}[name]
    return [f.to_json()
            for f in detector(monitor.intervals, monitor.events)]


class TestPhaseTracker:
    def test_stable_stream_is_one_phase(self):
        tracker = PhaseTracker()
        for i in range(10):
            assert tracker.observe(make_interval(i)) is None
        phases = tracker.finish()
        assert len(phases) == 1
        assert (phases[0].start_period, phases[0].end_period) == (0, 9)
        assert phases[0].intervals == 10
        assert phases[0].centroid["samples"] == pytest.approx(10.0)

    def test_shift_commits_boundary_after_hysteresis(self):
        tracker = PhaseTracker()
        closed = []
        for i in range(6):
            tracker.observe(make_interval(i, samples=10))
        # First outlier is only *pending* — no boundary yet.
        assert tracker.observe(make_interval(6, samples=50)) is None
        # The second consecutive outlier commits it.
        phase = tracker.observe(make_interval(7, samples=50))
        assert phase is not None
        assert (phase.start_period, phase.end_period) == (0, 5)
        for i in range(8, 10):
            assert tracker.observe(make_interval(i, samples=50)) is None
        phases = tracker.finish()
        assert len(phases) == 2
        assert phases[1].start_period == 6
        assert phases[1].intervals == 4

    def test_single_spike_folds_back(self):
        tracker = PhaseTracker()
        for i in range(6):
            tracker.observe(make_interval(i, samples=10))
        assert tracker.observe(make_interval(6, samples=50)) is None
        # Back in range: the spike was a transient, not a boundary.
        for i in range(7, 10):
            assert tracker.observe(make_interval(i, samples=10)) is None
        phases = tracker.finish()
        assert len(phases) == 1
        assert phases[0].intervals == 10

    def test_warmup_absorbs_wild_start(self):
        tracker = PhaseTracker()
        # Wildly different vectors inside the warmup never split.
        tracker.observe(make_interval(0, samples=0, miss=0.9))
        tracker.observe(make_interval(1, samples=40, miss=0.0))
        tracker.observe(make_interval(2, samples=5, miss=0.4))
        assert tracker.phases == []

    def test_sub_hysteresis_tail_folds_into_last_phase(self):
        tracker = PhaseTracker()
        for i in range(6):
            tracker.observe(make_interval(i, samples=10))
        tracker.observe(make_interval(6, samples=50))  # pending, alone
        phases = tracker.finish()
        assert len(phases) == 1
        assert phases[0].intervals == 7

    def test_period_ids_collected_per_phase(self):
        tracker = PhaseTracker()
        for i in range(5):
            tracker.observe(make_interval(i, period_id=(i if i % 2 else -1)))
        phases = tracker.finish()
        assert phases[0].period_ids == (1, 3)

    def test_features_order_matches_interval(self):
        iv = make_interval(0, samples=7, miss=0.5, gc=0.25, alloc=0.125,
                           recompiles=3)
        assert len(FEATURES) == len(iv.features())
        assert iv.features() == (0.5, 0.25, 0.125, 7.0, 3.0)


class TestDetectors:
    """Each detector over a stream sized to its default thresholds,
    checked against the whole finding it emits."""

    def test_registry_has_the_required_five(self):
        assert [d.__name__ for d in DETECTORS] == [
            "revert_storm", "ranking_oscillation", "sampling_starvation",
            "cache_thrash", "placement_regression"]

    def revert(self, cycle, eid, name="exp"):
        return ExperimentEvent(kind="revert", name=name, cycle=cycle,
                               ledger_id=eid)

    def begin(self, cycle, eid, name):
        return ExperimentEvent(kind="begin", name=name, cycle=cycle,
                               ledger_id=eid, field="A::x", baseline=100.0)

    def verdict(self, cycle, eid, name, rate):
        return ExperimentEvent(kind="verdict", name=name, cycle=cycle,
                               ledger_id=eid, rate=rate)

    def storm_stream(self, n, revert_after):
        """``n`` intervals; a revert arrives after interval ``i`` for
        each ``i`` in ``revert_after``."""
        stream = []
        for i in range(n):
            stream.append(make_interval(i))
            if i in revert_after:
                stream.append(self.revert((i + 1) * 1000, eid=i,
                                          name=f"storm-{i}"))
        return stream

    def test_revert_storm_fires_on_clustered_reverts(self):
        assert detect("revert_storm",
                      self.storm_stream(60, (4, 8, 50))) == [{
            "detector": "revert_storm", "severity": SEVERITY_CRITICAL,
            "summary": "2 experiment reverts within 40 intervals",
            "start_cycle": 5000, "end_cycle": 9000,
            "evidence": {"reverts": 2, "window_intervals": 40,
                         "experiments": ["storm-4", "storm-8"]},
            "ledger_ids": [4, 8],
            "remediation": "raise revert_patience or "
                           "min_samples_for_guidance so placements are "
                           "only tried on stable evidence"}]

    def test_revert_storm_quiet_when_spread_out(self):
        # 40 intervals apart: just outside the window.
        assert detect("revert_storm", self.storm_stream(60, (4, 44))) == []

    def test_revert_storm_quiet_on_single_revert(self):
        assert detect("revert_storm", self.storm_stream(60, (4,))) == []

    def ranked_stream(self, tops, samples=5):
        """One interval per top field in ``tops``."""
        return [make_interval(i, samples=samples, top_fields=((top, 10),),
                              ranking_id=100 + i)
                for i, top in enumerate(tops)]

    def test_ranking_oscillation_flags_churn(self):
        # Six changes in eleven steps: churn 6/11 >= 0.5.
        stream = self.ranked_stream(["A::x"] * 6 + ["B::y", "A::x"] * 3)
        assert detect("ranking_oscillation", stream) == [{
            "detector": "ranking_oscillation", "severity": SEVERITY_WARN,
            "summary": "top-field churn 0.55 over 12 ranked intervals",
            "start_cycle": 0, "end_cycle": 12000,
            "evidence": {"churn": 0.545, "window_intervals": 12,
                         "distinct_tops": 2},
            "ledger_ids": list(range(100, 112)),
            "remediation": "widen moving_average_window or raise the "
                           "sampling interval so the ranking integrates "
                           "more evidence"}]

    def test_ranking_oscillation_quiet_on_stable_top(self):
        # Five changes in eleven steps is below the threshold.
        stream = self.ranked_stream(
            ["A::x"] * 7 + ["B::y", "A::x"] * 2 + ["B::y"])
        assert detect("ranking_oscillation", stream) == []

    def test_ranking_oscillation_ignores_unranked_intervals(self):
        stream = self.ranked_stream(["A::x", "B::y"] * 8, samples=0)
        assert detect("ranking_oscillation", stream) == []

    def test_starvation_counts_only_active_intervals(self):
        stream = [make_interval(i, samples=0, period_id=i) for i in range(8)]
        assert detect("sampling_starvation", stream) == [{
            "detector": "sampling_starvation", "severity": SEVERITY_WARN,
            "summary": "0.00 samples per active interval over 8 "
                       "intervals, below 4",
            "start_cycle": 0, "end_cycle": 8000,
            "evidence": {"mean_samples": 0.0, "starved_intervals": 8,
                         "active_intervals": 8, "min_samples": 4},
            "ledger_ids": list(range(8)),
            "remediation": "lower the sampling interval (or use auto mode) "
                           "so each period sees enough PEBS samples to "
                           "rank"}]
        # The same stream entirely duty-paused is not starvation.
        paused = [make_interval(i, samples=0, paused=True) for i in range(8)]
        assert detect("sampling_starvation", paused) == []
        # Nor is one too short to judge.
        assert detect("sampling_starvation", stream[:5]) == []

    def test_starvation_quiet_when_fed(self):
        stream = [make_interval(i, samples=20) for i in range(8)]
        assert detect("sampling_starvation", stream) == []

    def test_starvation_quiet_on_batched_samples(self):
        # Samples arrive one drain batch every few periods: most
        # intervals of a well-fed run are empty.
        stream = [make_interval(i, samples=20 * (i % 2)) for i in range(8)]
        assert detect("sampling_starvation", stream) == []

    def test_starvation_fires_on_a_thin_stream(self):
        stream = [make_interval(i, samples=i % 2, period_id=i)
                  for i in range(8)]
        assert detect("sampling_starvation", stream) == [{
            "detector": "sampling_starvation", "severity": SEVERITY_WARN,
            "summary": "0.50 samples per active interval over 8 "
                       "intervals, below 4",
            "start_cycle": 0, "end_cycle": 8000,
            "evidence": {"mean_samples": 0.5, "starved_intervals": 8,
                         "active_intervals": 8, "min_samples": 4},
            "ledger_ids": list(range(8)),
            "remediation": "lower the sampling interval (or use auto mode) "
                           "so each period sees enough PEBS samples to "
                           "rank"}]

    def thrash_stream(self, n=10, miss=0.2):
        return [make_interval(i, miss=miss, period_id=i) for i in range(n)]

    def thrash(self, severity, begun, reverted):
        return {
            "detector": "cache_thrash", "severity": severity,
            "summary": "miss rate pinned at ceiling for 8 intervals "
                       "with no winning experiment",
            "start_cycle": 2000, "end_cycle": 10000,
            "evidence": {"intervals": 8, "mean_miss_rate": 0.2,
                         "ceiling": 0.18, "experiments_begun": begun,
                         "experiments_reverted": reverted},
            "ledger_ids": list(range(2, 10)),
            "remediation": "the hot access pattern resists the current "
                           "placement policy; try a different sampled "
                           "event (L2_MISS/DTLB_MISS) or a larger "
                           "co-allocation cell"}

    def test_cache_thrash_warn_without_experiments(self):
        # Eight intervals at the ceiling after two below it.
        stream = self.thrash_stream()
        stream[0].miss_rate = stream[1].miss_rate = 0.1
        assert detect("cache_thrash", stream) == [
            self.thrash(SEVERITY_WARN, 0, 0)]
        # Seven in a row are not a sustained run.
        assert detect("cache_thrash", stream[:9]) == []

    def test_cache_thrash_critical_when_experiments_all_reverted(self):
        stream = [self.begin(0, 1, name="e"), self.revert(100, 2, name="e")]
        stream += self.thrash_stream()
        stream[2].miss_rate = stream[3].miss_rate = 0.1
        assert detect("cache_thrash", stream) == [
            self.thrash(SEVERITY_CRITICAL, 1, 1)]

    def test_cache_thrash_suppressed_by_winning_experiment(self):
        stream = [self.begin(0, 1, name="win")] + self.thrash_stream()
        assert detect("cache_thrash", stream) == []

    def test_cache_thrash_quiet_below_rate_floor(self):
        assert detect("cache_thrash", self.thrash_stream(miss=0.049)) == []

    def test_placement_regression_on_kept_regression(self):
        stream = [self.begin(100, 3, name="gap"),
                  self.verdict(500, 5, name="gap", rate=100.0),
                  self.verdict(900, 7, name="gap", rate=111.0)]
        assert detect("placement_regression", stream) == [{
            "detector": "placement_regression", "severity": SEVERITY_WARN,
            "summary": "experiment 'gap' kept but ended 11% over its "
                       "baseline",
            "start_cycle": 100, "end_cycle": 900,
            "evidence": {"experiment": "gap", "field": "A::x",
                         "baseline_rate": 100.0, "final_rate": 111.0,
                         "margin": 0.1},
            "ledger_ids": [3, 7],
            "remediation": "lower revert_threshold or revert_patience so "
                           "oscillating regressions still trip the "
                           "revert"}]

    def test_placement_regression_quiet_after_revert(self):
        stream = [self.begin(100, 3, name="gap"),
                  self.verdict(900, 7, name="gap", rate=150.0),
                  self.revert(950, 9, name="gap")]
        assert detect("placement_regression", stream) == []

    def test_placement_regression_quiet_within_margin(self):
        stream = [self.begin(100, 3, name="gap"),
                  self.verdict(900, 7, name="gap", rate=110.0)]
        assert detect("placement_regression", stream) == []


class TestReport:
    def test_worst_severity(self):
        assert worst_severity([]) == SEVERITY_OK
        assert worst_severity(["ok", "warn"]) == SEVERITY_WARN
        assert worst_severity(["warn", "critical", "ok"]) == SEVERITY_CRITICAL

    def finding(self, severity=SEVERITY_WARN, detector="d"):
        return Finding(detector=detector, severity=severity, summary="s",
                       start_cycle=0, end_cycle=10,
                       evidence={"n": 1}, ledger_ids=(1, 2),
                       remediation="r")

    def test_build_report_verdict_is_worst(self):
        report = build_report([], [self.finding("warn"),
                                   self.finding("critical")], 5, 5000)
        assert report.verdict == SEVERITY_CRITICAL
        assert report.findings_by_detector() == {"d": 2}

    def test_json_round_trip(self):
        phase = PhaseRecord(index=0, start_period=0, end_period=4,
                            start_cycle=0, end_cycle=5000, intervals=5,
                            centroid={"miss_rate": 0.25, "samples": 3.0},
                            period_ids=(1, 5))
        report = build_report([phase], [self.finding()], 5, 5000)
        doc = report.to_json()
        assert doc["schema"] == HEALTH_SCHEMA_VERSION
        back = HealthReport.from_json(json.loads(json.dumps(doc)))
        assert back.verdict == report.verdict
        assert back.phases[0] == phase
        assert back.findings[0] == self.finding()
        assert back.intervals == 5

    @pytest.mark.parametrize("doc", [
        [], {"verdict": "ok"}, {"schema": HEALTH_SCHEMA_VERSION + 98}],
        ids=["list", "no-schema", "schema-99"])
    def test_from_json_rejects_other_documents(self, doc):
        with pytest.raises(ValueError):
            HealthReport.from_json(doc)

    def test_rendering_smoke(self):
        phase = PhaseRecord(index=0, start_period=0, end_period=4,
                            start_cycle=0, end_cycle=5000, intervals=5,
                            centroid=dict.fromkeys(FEATURES, 0.1))
        report = build_report([phase], [self.finding()], 5, 5000)
        assert "phase" in format_phase_table(report)
        overlay = format_phase_overlay(report, 5000, width=20)
        assert overlay.count("0") == 20
        assert "1 phase(s)" in overlay
        text = format_findings(report)
        assert "WARN" in text and "ledger ids: 1, 2" in text
        empty = build_report([], [], 0, 0)
        assert "none" in format_phase_table(empty)
        assert "none" in format_findings(empty)


class TestPureObserver:
    """The on == off matrix lives in ``tests/test_observer_purity.py``;
    what stays here is the no-monitor path."""

    def test_null_health_is_shared_noop(self):
        """No monitor attached: the shared default bundle's facts do
        nothing; a monitor with no ledger beside it is handed id -1."""
        fld = SimpleNamespace(qualified_name="A::f")
        assert NO_OBSERVERS.health is None
        NO_OBSERVERS.experiment_begin("x", fld, 0.0, 0, 0, 0.25, 3)
        NO_OBSERVERS.interval(None, 1000, 0, 0, False)
        health = HealthMonitor()
        Observers(health=health).experiment_begin(
            "x", fld, 0.0, 0, 0, 0.25, 3)
        assert [(e.kind, e.field, e.ledger_id) for e in health.events] \
            == [("begin", "A::f", -1)]


class TestEndToEnd:
    def test_doctor_detects_storm_and_phase_shift(self):
        """The acceptance property: a seeded revert storm AND a phase
        shift on the adversarial workload, end to end, every finding's
        evidence resolving to valid ledger entries."""
        ledger = DecisionLedger()
        health = HealthMonitor()
        result, driver = ex.revert_storm(
            RunSpec(benchmark="phased", coalloc=True), count=4,
            lineage=ledger, health=health)
        assert driver.begun >= 3
        assert driver.reverted() >= 2

        report = health.report(result.cycles)
        assert len(report.phases) >= 2        # the phase shift
        assert report.intervals > 0
        storm = [f for f in report.findings if f.detector == "revert_storm"]
        assert len(storm) == 1                # the seeded storm
        assert storm[0].severity == SEVERITY_CRITICAL
        assert report.verdict == SEVERITY_CRITICAL

        doc = ledger.to_json()
        assert explain.validate(doc) == []
        by_id = explain.index_entries(doc)
        for finding in report.findings:
            assert finding.ledger_ids
            for eid in finding.ledger_ids:
                assert eid in by_id
        # Storm evidence is the revert entries themselves, and each
        # narrates back through the ledger like `repro explain` does.
        for eid in storm[0].ledger_ids:
            assert by_id[eid]["kind"] == K_REVERT
            chain = explain.chain_ids(by_id, eid)
            assert len(chain) > 1
        for phase in report.phases:
            for pid in phase.period_ids:
                assert by_id[pid]["kind"] == K_PERIOD

    def test_phased_workload_exit_matches_reference(self):
        # The adversarial program is still a deterministic guest
        # program: same checksum with and without observers.
        plain = execute(RunSpec(benchmark="phased"))
        observed = execute(RunSpec(benchmark="phased"),
                           health=HealthMonitor())
        assert plain.exit_value == observed.exit_value
        assert plain.cycles == observed.cycles


@pytest.fixture(scope="module")
def compress_health_record():
    health = HealthMonitor()
    ledger = DecisionLedger()
    spec = RunSpec(benchmark="compress")
    result = execute(spec, health=health, lineage=ledger)
    return RunRecord.from_result(result)


class TestRecordEmbedding:
    def test_record_embeds_health(self, compress_health_record):
        record = compress_health_record
        assert record.health is not None
        assert record.health["schema"] == HEALTH_SCHEMA_VERSION
        assert record.health["intervals"] > 0
        assert record.health["phases"]

    def test_round_trip(self, compress_health_record):
        doc = json.loads(json.dumps(compress_health_record.to_json()))
        assert doc["schema"] == SCHEMA_VERSION
        back = RunRecord.from_json(doc)
        assert back.health == compress_health_record.health
        report = HealthReport.from_json(back.health)
        assert report.intervals == back.health["intervals"]

    def test_record_without_health_has_none(self):
        result = execute(RunSpec(benchmark="compress"))
        record = RunRecord.from_result(result)
        assert record.health is None
        assert RunRecord.from_json(record.to_json()).health is None


class TestSchemaTolerance:
    def test_explicit_none_health_tolerated(self, compress_health_record):
        doc = compress_health_record.to_json()
        doc["health"] = None
        record = RunRecord.from_json(doc)
        assert record.health is None

    @pytest.mark.parametrize("schema", [4, SCHEMA_VERSION + 1])
    def test_unknown_schema_rejected(self, schema, compress_health_record):
        doc = compress_health_record.to_json()
        doc["schema"] = schema
        with pytest.raises(ValueError, match="re-export"):
            RunRecord.from_json(doc)


class TestDiffHealth:
    def test_diff_reports_health_divergence(self, compress_health_record):
        from repro.analysis.diff import diff_records

        a = compress_health_record
        b = RunRecord.from_json(a.to_json())
        b.health = dict(a.health)
        b.health["verdict"] = "critical"
        b.health["findings"] = [Finding(
            detector="revert_storm", severity="critical", summary="s",
            start_cycle=0, end_cycle=1).to_json()]
        diff = diff_records(a, b)
        paths = {d.path for d in diff.significant}
        assert "health.verdict" in paths
        assert "health.findings.revert_storm" in paths

    def test_diff_quiet_when_health_matches(self, compress_health_record):
        from repro.analysis.diff import diff_records

        a = compress_health_record
        b = RunRecord.from_json(a.to_json())
        diff = diff_records(a, b)
        assert not [d for d in diff.deltas if d.path.startswith("health.")]


class TestMetricsExport:
    def test_health_gauges_published(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        health = HealthMonitor()
        execute(RunSpec(benchmark="compress"), telemetry=telemetry,
                health=health)
        rendered = telemetry.metrics.render()
        assert "gauge health.verdict" in rendered
        assert "gauge health.phases" in rendered
        assert "gauge health.findings{revert_storm}" in rendered

    def test_phase_spans_traced(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        health = HealthMonitor()
        result = execute(RunSpec(benchmark="compress"), telemetry=telemetry,
                         health=health)
        report = health.report(result.cycles)
        spans = [s for s in telemetry.tracer.spans if s.name == "health.phase"]
        assert len(spans) == len(report.phases)
        assert all(s.cat == "health" for s in spans)
