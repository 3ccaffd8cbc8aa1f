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
  schema 5 and tolerate every legacy schema.
"""

import json
from types import SimpleNamespace

import pytest

from repro.harness import experiments as ex
from repro.harness.record import (COMPATIBLE_SCHEMAS, RunRecord,
                                  SCHEMA_VERSION)
from repro.harness.runner import RunSpec, execute, make_vm
from repro.health import HealthMonitor, default_detectors
from repro.health.detectors import (CacheThrashDetector, DETECTOR_REGISTRY,
                                    ExperimentEvent,
                                    PlacementRegressionDetector,
                                    RankingOscillationDetector,
                                    RevertStormDetector,
                                    SamplingStarvationDetector)
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
        tracker = PhaseTracker(warmup=3)
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
    def test_registry_has_the_required_five(self):
        assert {"revert_storm", "ranking_oscillation",
                "sampling_starvation", "cache_thrash",
                "placement_regression"} <= set(DETECTOR_REGISTRY)
        names = [d.name for d in default_detectors()]
        assert len(names) == len(set(names))

    def revert(self, cycle, eid, name="exp"):
        return ExperimentEvent(kind="revert", name=name, cycle=cycle,
                               ledger_id=eid)

    def test_revert_storm_fires_on_clustered_reverts(self):
        det = RevertStormDetector(min_reverts=2, window_intervals=10)
        for i in range(20):
            det.on_interval(make_interval(i))
            if i in (4, 8):
                det.on_event(self.revert((i + 1) * 1000, eid=i,
                                         name=f"storm-{i}"))
        findings = det.finalize([], 20000)
        assert len(findings) == 1
        f = findings[0]
        assert f.severity == SEVERITY_CRITICAL
        assert f.ledger_ids == (4, 8)
        assert f.evidence["reverts"] == 2
        assert sorted(f.evidence["experiments"]) == ["storm-4", "storm-8"]

    def test_revert_storm_quiet_when_spread_out(self):
        det = RevertStormDetector(min_reverts=2, window_intervals=10)
        for i in range(40):
            det.on_interval(make_interval(i))
            if i in (4, 30):
                det.on_event(self.revert((i + 1) * 1000, eid=i))
        assert det.finalize([], 40000) == []

    def test_revert_storm_quiet_on_single_revert(self):
        det = RevertStormDetector()
        det.on_interval(make_interval(0))
        det.on_event(self.revert(500, eid=1))
        assert det.finalize([], 1000) == []

    def test_ranking_oscillation_flags_churn(self):
        det = RankingOscillationDetector(window=6, churn_threshold=0.5)
        for i in range(8):
            top = "A::x" if i % 2 else "B::y"
            det.on_interval(make_interval(i, samples=5,
                                          top_fields=((top, 10),),
                                          ranking_id=100 + i))
        findings = det.finalize([], 8000)
        assert len(findings) == 1
        assert findings[0].severity == SEVERITY_WARN
        assert findings[0].evidence["churn"] == 1.0
        assert all(eid >= 100 for eid in findings[0].ledger_ids)

    def test_ranking_oscillation_quiet_on_stable_top(self):
        det = RankingOscillationDetector(window=6)
        for i in range(12):
            det.on_interval(make_interval(i, samples=5,
                                          top_fields=(("A::x", 10),)))
        assert det.finalize([], 12000) == []

    def test_ranking_oscillation_ignores_unranked_intervals(self):
        det = RankingOscillationDetector(window=6)
        for i in range(12):
            det.on_interval(make_interval(i, samples=0,
                                          top_fields=(("A::x", 1),)))
        assert det.finalize([], 12000) == []

    def test_starvation_counts_only_active_intervals(self):
        det = SamplingStarvationDetector(min_samples=4, min_fraction=0.5,
                                         min_intervals=6)
        intervals = [make_interval(i, samples=0, period_id=i)
                     for i in range(8)]
        findings = det.finalize(intervals, 8000)
        assert len(findings) == 1
        assert findings[0].evidence["starved_intervals"] == 8
        assert findings[0].ledger_ids == tuple(range(8))
        # The same stream entirely duty-paused is not starvation.
        paused = [make_interval(i, samples=0, paused=True) for i in range(8)]
        assert det.finalize(paused, 8000) == []

    def test_starvation_quiet_when_fed(self):
        det = SamplingStarvationDetector(min_samples=4, min_fraction=0.5,
                                         min_intervals=6)
        intervals = [make_interval(i, samples=20) for i in range(8)]
        assert det.finalize(intervals, 8000) == []

    def test_cache_thrash_warn_without_experiments(self):
        det = CacheThrashDetector(min_run=4)
        intervals = [make_interval(i, miss=0.2, period_id=i)
                     for i in range(6)]
        findings = det.finalize(intervals, 6000)
        assert len(findings) == 1
        assert findings[0].severity == SEVERITY_WARN

    def test_cache_thrash_critical_when_experiments_all_reverted(self):
        det = CacheThrashDetector(min_run=4)
        det.on_event(ExperimentEvent(kind="begin", name="e", cycle=0))
        det.on_event(self.revert(100, eid=1, name="e"))
        intervals = [make_interval(i, miss=0.2) for i in range(6)]
        findings = det.finalize(intervals, 6000)
        assert len(findings) == 1
        assert findings[0].severity == SEVERITY_CRITICAL

    def test_cache_thrash_suppressed_by_winning_experiment(self):
        det = CacheThrashDetector(min_run=4)
        det.on_event(ExperimentEvent(kind="begin", name="win", cycle=0))
        intervals = [make_interval(i, miss=0.2) for i in range(6)]
        assert det.finalize(intervals, 6000) == []

    def test_cache_thrash_quiet_below_rate_floor(self):
        det = CacheThrashDetector(min_run=4, rate_floor=0.05)
        intervals = [make_interval(i, miss=0.01) for i in range(6)]
        assert det.finalize(intervals, 6000) == []

    def test_placement_regression_on_kept_regression(self):
        det = PlacementRegressionDetector(margin=0.10)
        det.on_event(ExperimentEvent(kind="begin", name="gap", cycle=100,
                                     ledger_id=3, field="A::x",
                                     baseline=100.0))
        det.on_event(ExperimentEvent(kind="verdict", name="gap", cycle=900,
                                     ledger_id=7, rate=150.0))
        findings = det.finalize([], 1000)
        assert len(findings) == 1
        f = findings[0]
        assert f.severity == SEVERITY_WARN
        assert f.ledger_ids == (3, 7)
        assert f.evidence["experiment"] == "gap"

    def test_placement_regression_quiet_after_revert(self):
        det = PlacementRegressionDetector()
        det.on_event(ExperimentEvent(kind="begin", name="gap", cycle=100,
                                     baseline=100.0))
        det.on_event(ExperimentEvent(kind="verdict", name="gap", cycle=900,
                                     rate=150.0))
        det.on_event(self.revert(950, eid=9, name="gap"))
        assert det.finalize([], 1000) == []

    def test_placement_regression_quiet_within_margin(self):
        det = PlacementRegressionDetector(margin=0.10)
        det.on_event(ExperimentEvent(kind="begin", name="gap", cycle=100,
                                     baseline=100.0))
        det.on_event(ExperimentEvent(kind="verdict", name="gap", cycle=900,
                                     rate=105.0))
        assert det.finalize([], 1000) == []


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
        events = []
        health = HealthMonitor(detectors=[SimpleNamespace(
            on_event=events.append)])
        Observers(health=health).experiment_begin(
            "x", fld, 0.0, 0, 0, 0.25, 3)
        assert [(e.kind, e.field, e.ledger_id) for e in events] \
            == [("begin", "A::f", -1)]


class TestEndToEnd:
    def test_doctor_detects_storm_and_phase_shift(self):
        """The acceptance property: a seeded revert storm AND a phase
        shift on the adversarial workload, end to end, every finding's
        evidence resolving to valid ledger entries."""
        ledger = DecisionLedger()
        health = HealthMonitor()
        vm, workload = make_vm("phased",
                               RunSpec(benchmark="phased", coalloc=True),
                               lineage=ledger, health=health)
        fld = ex.resolve_field(vm.program, workload.hot_fields[0])
        driver = ex.seed_revert_storm(vm, fld, count=4)
        result = vm.run()
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


#: Fields added after each historical schema: a document claiming
#: schema N must load with all later fields absent.
_FIELDS_SINCE = {
    1: ("provenance", "lineage", "exit_value", "health"),
    2: ("lineage", "exit_value", "health"),
    3: ("exit_value", "health"),
    4: ("health",),
    5: (),
}


class TestSchemaTolerance:
    def test_compatible_schemas_cover_history(self):
        assert COMPATIBLE_SCHEMAS == tuple(range(1, SCHEMA_VERSION + 1))
        assert set(_FIELDS_SINCE) == set(COMPATIBLE_SCHEMAS)

    @pytest.mark.parametrize("schema", sorted(_FIELDS_SINCE))
    def test_legacy_schema_loads_with_defaults(self, schema,
                                               compress_health_record):
        doc = compress_health_record.to_json()
        doc["schema"] = schema
        for missing in _FIELDS_SINCE[schema]:
            doc.pop(missing, None)
        record = RunRecord.from_json(doc)
        assert record.cycles == compress_health_record.cycles
        for missing in _FIELDS_SINCE[schema]:
            assert getattr(record, missing) is None
        if "health" not in _FIELDS_SINCE[schema]:
            assert record.health == compress_health_record.health

    @pytest.mark.parametrize("schema", sorted(_FIELDS_SINCE))
    def test_explicit_none_health_tolerated(self, schema,
                                            compress_health_record):
        doc = compress_health_record.to_json()
        doc["schema"] = schema
        doc["health"] = None
        record = RunRecord.from_json(doc)
        assert record.health is None

    def test_unknown_schema_rejected(self, compress_health_record):
        doc = compress_health_record.to_json()
        doc["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
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
