"""Tests for the run-health observatory (src/repro/health).

Five layers:

* unit tests of the phase segmentation (:func:`segment`: hysteresis,
  spike fold-back, warmup, running scales),
* unit tests of the interval stream read off a ledger
  (:func:`intervals_of`: deltas, the no-new-cycles skip, top fields,
  entry ids),
* unit tests of every built-in pathology detector over ledgers recorded
  through the ledger's own methods on a stub clock,
* the no-monitor path and the ledger health brings along (the
  pure-observer matrix itself is ``tests/test_observer_purity.py``),
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
from repro.health.phases import FEATURES, Interval, intervals_of, segment
from repro.health.report import (HEALTH_SCHEMA_VERSION, Finding, HealthReport,
                                 PhaseRecord, SEVERITY_CRITICAL, SEVERITY_OK,
                                 SEVERITY_WARN, build_report,
                                 format_findings, format_phase_overlay,
                                 format_phase_table, worst_severity)
from repro.lineage import DecisionLedger, explain
from repro.lineage.ledger import E_KIND, K_EXPERIMENT, K_PERIOD, K_REVERT
from repro.observers import NO_OBSERVERS, Observers
from repro.vm.model import ClassInfo, FieldInfo


def make_interval(index, samples=10, miss=0.0, gc=0.0, alloc=0.0,
                  recompiles=0):
    return Interval(
        index=index, start_cycle=index * 1000,
        end_cycle=(index + 1) * 1000, samples=samples, miss_rate=miss,
        gc_fraction=gc, alloc_rate=alloc, recompiles=recompiles,
        period_id=2 * index, ranking_id=2 * index + 1)


class Recorder:
    """A ledger recorded through its own methods, as a run's
    ``Observers`` records it, on a stub clock: period ``i`` closes at
    cycle ``1000 * (i + 1)`` after 1000 accesses."""

    def __init__(self):
        self.now = 0
        self.ledger = DecisionLedger()
        self.ledger.bind_clock(self.clock)
        self.totals = (0, 0, 0, 0, 0)
        #: Entry ids of each period's ``period_close`` and ``ranking``.
        self.periods, self.rankings = [], []
        self._fields = {}

    def clock(self):
        return self.now

    @property
    def entries(self):
        return self.ledger.entries

    def field(self, qualified):
        if qualified not in self._fields:
            klass, name = qualified.split("::")
            self._fields[qualified] = FieldInfo(
                name=name, kind="ref", declaring_class=ClassInfo(klass),
                offset=0, index=0)
        return self._fields[qualified]

    def attribute(self, top, events):
        self.ledger.sample_batch(1, "poll")
        self.ledger.attribution(1, 1, events, ((self.field(top), 1, events),))

    def period(self, samples=10, miss=0.0, gc=0.0, alloc=0.0, recompiles=0,
               paused=False, top=None, now=None):
        """Close the next period with these deltas (``top``: one batch
        credits that field 10 events); ``now`` overrides its end."""
        if top is not None:
            self.attribute(top, 10)
        index = len(self.periods)
        self.now = (index + 1) * 1000 if now is None else now
        deltas = (1000, round(miss * 1000), round(gc * 1000),
                  round(alloc * 1000), recompiles)
        self.totals = tuple(t + d for t, d in zip(self.totals, deltas))
        self.periods.append(self.ledger.period_close(
            index, samples, samples, self.now, paused, self.totals))
        self.rankings.append(self.ledger.ranking_snapshot(index, ()))

    def begin(self, name, baseline=100.0):
        return self.ledger.experiment_begin(
            name, self.field("A::x"), baseline, len(self.periods), 0, 0.25, 3)

    def verdict(self, name, rate):
        return self.ledger.experiment_verdict(name, rate, 0.0, False, 0)

    def revert(self, name):
        """Reverted at the latest close, stamped with the period count
        then, as the feedback engine stamps it."""
        return self.ledger.experiment_revert(
            name, self.field("A::x"), len(self.periods), 0.0, 0.0, 0.25)


def detect(name, rec):
    """The findings (as JSON) detector ``name`` reports over the ledger
    ``rec`` recorded."""
    detector = {d.__name__: d for d in DETECTORS}[name]
    return [f.to_json()
            for f in detector(intervals_of(rec.entries), rec.entries)]


def phases_of_prefixes(stream):
    """How many phases :func:`segment` cuts from each prefix of
    ``stream`` (a boundary is committed the moment the count grows)."""
    return [len(segment(stream[:n])) for n in range(1, len(stream) + 1)]


class TestPhaseTracker:
    """Phase segmentation (:func:`segment`) over interval streams."""

    def test_stable_stream_is_one_phase(self):
        stream = [make_interval(i) for i in range(10)]
        assert phases_of_prefixes(stream) == [1] * 10
        phases = segment(stream)
        assert len(phases) == 1
        assert (phases[0].start_period, phases[0].end_period) == (0, 9)
        assert phases[0].intervals == 10
        assert phases[0].centroid["samples"] == pytest.approx(10.0)

    def test_shift_commits_boundary_after_hysteresis(self):
        stream = [make_interval(i, samples=10) for i in range(6)]
        stream += [make_interval(i, samples=50) for i in range(6, 10)]
        # The first outlier is only *pending* — no boundary yet; the
        # second consecutive outlier commits it, and no other follows.
        assert phases_of_prefixes(stream) == [1] * 7 + [2] * 3
        assert (segment(stream[:8])[0].start_period,
                segment(stream[:8])[0].end_period) == (0, 5)
        phases = segment(stream)
        assert len(phases) == 2
        assert (phases[0].start_period, phases[0].end_period) == (0, 5)
        assert phases[1].start_period == 6
        assert phases[1].intervals == 4

    def test_single_spike_folds_back(self):
        stream = [make_interval(i, samples=10) for i in range(10)]
        stream[6] = make_interval(6, samples=50)
        # Back in range: the spike was a transient, not a boundary.
        assert phases_of_prefixes(stream) == [1] * 10
        phases = segment(stream)
        assert len(phases) == 1
        assert phases[0].intervals == 10

    def test_warmup_absorbs_wild_start(self):
        # Wildly different vectors inside the warmup never split.
        stream = [make_interval(0, samples=0, miss=0.9),
                  make_interval(1, samples=40, miss=0.0),
                  make_interval(2, samples=5, miss=0.4)]
        assert phases_of_prefixes(stream) == [1, 1, 1]
        assert segment(stream)[0].intervals == 3

    def test_sub_hysteresis_tail_folds_into_last_phase(self):
        stream = [make_interval(i, samples=10) for i in range(6)]
        stream.append(make_interval(6, samples=50))  # pending, alone
        phases = segment(stream)
        assert len(phases) == 1
        assert phases[0].intervals == 7

    def test_empty_stream_has_no_phases(self):
        assert segment([]) == []

    def test_period_ids_collected_per_phase(self):
        rec = Recorder()
        for _ in range(5):
            rec.period()
        phases = segment(intervals_of(rec.entries))
        assert phases[0].period_ids == tuple(rec.periods)
        assert {rec.entries[pid][E_KIND] for pid in rec.periods} \
            == {K_PERIOD}

    def test_features_order_matches_interval(self):
        rec = Recorder()
        rec.period(samples=7, miss=0.5, gc=0.25, alloc=0.125, recompiles=3)
        [iv] = intervals_of(rec.entries)
        assert len(FEATURES) == len(iv.features())
        assert iv.features() == (0.5, 0.25, 0.125, 7.0, 3.0)


class TestIntervals:
    """The interval stream is a function of the ledger's entries."""

    def test_deltas_and_ids(self):
        rec = Recorder()
        rec.period(miss=0.1, paused=True)
        rec.period(miss=0.3, gc=0.5)
        first, second = intervals_of(rec.entries)
        assert (first.index, first.start_cycle, first.end_cycle) \
            == (0, 0, 1000)
        assert (second.index, second.start_cycle, second.end_cycle) \
            == (1, 1000, 2000)
        assert (first.miss_rate, second.miss_rate) == (0.1, 0.3)
        assert (first.gc_fraction, second.gc_fraction) == (0.0, 0.5)
        assert (first.sampling_paused, second.sampling_paused) \
            == (True, False)
        assert [(iv.period_id, iv.ranking_id) for iv in (first, second)] \
            == list(zip(rec.periods, rec.rankings))

    def test_close_without_new_cycles_is_no_interval(self):
        # The final drain landing on the last timer boundary.
        rec = Recorder()
        rec.period()
        rec.period(now=1000)
        rec.period(miss=0.2)
        stream = intervals_of(rec.entries)
        assert [iv.index for iv in stream] == [0, 2]
        assert (stream[1].start_cycle, stream[1].end_cycle) == (1000, 3000)

    def test_top_fields_sum_the_period_attributions(self):
        rec = Recorder()
        rec.attribute("A::x", 5)
        rec.attribute("B::y", 7)
        rec.attribute("A::x", 4)
        rec.attribute("C::z", 7)
        rec.period(top="D::w")   # 10 events
        rec.period()
        first, second = intervals_of(rec.entries)
        assert first.top_fields == (("D::w", 10), ("A::x", 9), ("B::y", 7),
                                    ("C::z", 7))
        assert second.top_fields == ()

    def test_period_without_ranking_is_no_interval(self):
        rec = Recorder()
        rec.period()
        rec.ledger.period_close(1, 0, 0, 2000, False, rec.totals)
        assert [iv.index for iv in intervals_of(rec.entries)] == [0]


class TestDetectors:
    """Each detector over a ledger sized to its default thresholds,
    checked against the whole finding it emits."""

    def test_registry_has_the_required_five(self):
        assert [d.__name__ for d in DETECTORS] == [
            "revert_storm", "ranking_oscillation", "sampling_starvation",
            "cache_thrash", "placement_regression"]

    def storm(self, n, revert_after):
        """``n`` periods; a revert lands at the close of period ``i``
        for each ``i`` in ``revert_after``.  Returns the recorder and
        the revert entry ids."""
        rec, reverts = Recorder(), []
        for i in range(n):
            rec.period()
            if i in revert_after:
                reverts.append(rec.revert(f"storm-{i}"))
        return rec, reverts

    def test_revert_storm_fires_on_clustered_reverts(self):
        rec, reverts = self.storm(60, (4, 8, 50))
        assert detect("revert_storm", rec) == [{
            "detector": "revert_storm", "severity": SEVERITY_CRITICAL,
            "summary": "2 experiment reverts within 40 intervals",
            "start_cycle": 5000, "end_cycle": 9000,
            "evidence": {"reverts": 2, "window_intervals": 40,
                         "experiments": ["storm-4", "storm-8"]},
            "ledger_ids": reverts[:2],
            "remediation": "raise revert_patience or "
                           "min_samples_for_guidance so placements are "
                           "only tried on stable evidence"}]
        assert {rec.entries[eid][E_KIND] for eid in reverts} == {K_REVERT}

    def test_revert_storm_quiet_when_spread_out(self):
        # 40 intervals apart: just outside the window.
        assert detect("revert_storm", self.storm(60, (4, 44))[0]) == []

    def test_revert_storm_quiet_on_single_revert(self):
        assert detect("revert_storm", self.storm(60, (4,))[0]) == []

    def ranked(self, tops, samples=5):
        """One period per top field in ``tops``."""
        rec = Recorder()
        for top in tops:
            rec.period(samples=samples, top=top)
        return rec

    def test_ranking_oscillation_flags_churn(self):
        # Six changes in eleven steps: churn 6/11 >= 0.5.
        rec = self.ranked(["A::x"] * 6 + ["B::y", "A::x"] * 3)
        assert detect("ranking_oscillation", rec) == [{
            "detector": "ranking_oscillation", "severity": SEVERITY_WARN,
            "summary": "top-field churn 0.55 over 12 ranked intervals",
            "start_cycle": 0, "end_cycle": 12000,
            "evidence": {"churn": 0.545, "window_intervals": 12,
                         "distinct_tops": 2},
            "ledger_ids": rec.rankings[:12],
            "remediation": "widen moving_average_window or raise the "
                           "sampling interval so the ranking integrates "
                           "more evidence"}]

    def test_ranking_oscillation_quiet_on_stable_top(self):
        # Five changes in eleven steps is below the threshold.
        rec = self.ranked(["A::x"] * 7 + ["B::y", "A::x"] * 2 + ["B::y"])
        assert detect("ranking_oscillation", rec) == []

    def test_ranking_oscillation_ignores_unranked_intervals(self):
        rec = self.ranked(["A::x", "B::y"] * 8, samples=0)
        assert detect("ranking_oscillation", rec) == []

    def periods(self, samples, paused=False):
        """One period per entry of ``samples``."""
        rec = Recorder()
        for n in samples:
            rec.period(samples=n, paused=paused)
        return rec

    def starved(self, mean):
        return {
            "detector": "sampling_starvation", "severity": SEVERITY_WARN,
            "summary": "%.2f samples per active interval over 8 "
                       "intervals, below 4" % mean,
            "start_cycle": 0, "end_cycle": 8000,
            "evidence": {"mean_samples": mean, "starved_intervals": 8,
                         "active_intervals": 8, "min_samples": 4},
            "remediation": "lower the sampling interval (or use auto mode) "
                           "so each period sees enough PEBS samples to "
                           "rank"}

    def test_starvation_counts_only_active_intervals(self):
        rec = self.periods([0] * 8)
        assert detect("sampling_starvation", rec) == [
            dict(self.starved(0.0), ledger_ids=rec.periods)]
        # The same stream entirely duty-paused is not starvation.
        assert detect("sampling_starvation",
                      self.periods([0] * 8, paused=True)) == []
        # Nor is one too short to judge.
        assert detect("sampling_starvation", self.periods([0] * 5)) == []

    def test_starvation_quiet_when_fed(self):
        assert detect("sampling_starvation", self.periods([20] * 8)) == []

    def test_starvation_quiet_on_batched_samples(self):
        # Samples arrive one drain batch every few periods: most
        # intervals of a well-fed run are empty.
        rec = self.periods([20 * (i % 2) for i in range(8)])
        assert detect("sampling_starvation", rec) == []

    def test_starvation_fires_on_a_thin_stream(self):
        rec = self.periods([i % 2 for i in range(8)])
        assert detect("sampling_starvation", rec) == [
            dict(self.starved(0.5), ledger_ids=rec.periods)]

    def thrash_periods(self, rec, misses):
        for miss in misses:
            rec.period(miss=miss)
        return rec

    def thrash(self, severity, begun, reverted, ledger_ids):
        return {
            "detector": "cache_thrash", "severity": severity,
            "summary": "miss rate pinned at ceiling for 8 intervals "
                       "with no winning experiment",
            "start_cycle": 2000, "end_cycle": 10000,
            "evidence": {"intervals": 8, "mean_miss_rate": 0.2,
                         "ceiling": 0.18, "experiments_begun": begun,
                         "experiments_reverted": reverted},
            "ledger_ids": ledger_ids,
            "remediation": "the hot access pattern resists the current "
                           "placement policy; try a different sampled "
                           "event (L2_MISS/DTLB_MISS) or a larger "
                           "co-allocation cell"}

    def test_cache_thrash_warn_without_experiments(self):
        # Eight intervals at the ceiling after two below it.
        rec = self.thrash_periods(Recorder(), [0.1, 0.1] + [0.2] * 8)
        assert detect("cache_thrash", rec) == [
            self.thrash(SEVERITY_WARN, 0, 0, rec.periods[2:])]
        # Seven in a row are not a sustained run.
        short = self.thrash_periods(Recorder(), [0.1, 0.1] + [0.2] * 7)
        assert detect("cache_thrash", short) == []

    def test_cache_thrash_critical_when_experiments_all_reverted(self):
        rec = Recorder()
        rec.begin("e")
        rec.now = 100
        rec.revert("e")
        self.thrash_periods(rec, [0.1, 0.1] + [0.2] * 8)
        assert detect("cache_thrash", rec) == [
            self.thrash(SEVERITY_CRITICAL, 1, 1, rec.periods[2:])]

    def test_cache_thrash_suppressed_by_winning_experiment(self):
        rec = Recorder()
        rec.begin("win")
        assert detect("cache_thrash",
                      self.thrash_periods(rec, [0.2] * 10)) == []

    def test_cache_thrash_quiet_below_rate_floor(self):
        rec = self.thrash_periods(Recorder(), [0.049] * 10)
        assert detect("cache_thrash", rec) == []

    def experiment(self, *steps):
        """``(cycle, kind, rate)`` steps of experiment 'gap' (baseline
        100); returns the recorder and the entry ids."""
        rec, ids = Recorder(), []
        for cycle, kind, rate in steps:
            rec.now = cycle
            ids.append(rec.begin("gap") if kind == "begin"
                       else rec.verdict("gap", rate) if kind == "verdict"
                       else rec.revert("gap"))
        return rec, ids

    def test_placement_regression_on_kept_regression(self):
        rec, (begin, _, last) = self.experiment(
            (100, "begin", None), (500, "verdict", 100.0),
            (900, "verdict", 111.0))
        assert rec.entries[begin][E_KIND] == K_EXPERIMENT
        assert detect("placement_regression", rec) == [{
            "detector": "placement_regression", "severity": SEVERITY_WARN,
            "summary": "experiment 'gap' kept but ended 11% over its "
                       "baseline",
            "start_cycle": 100, "end_cycle": 900,
            "evidence": {"experiment": "gap", "field": "A::x",
                         "baseline_rate": 100.0, "final_rate": 111.0,
                         "margin": 0.1},
            "ledger_ids": [begin, last],
            "remediation": "lower revert_threshold or revert_patience so "
                           "oscillating regressions still trip the "
                           "revert"}]

    def test_placement_regression_quiet_after_revert(self):
        rec, _ = self.experiment((100, "begin", None),
                                 (900, "verdict", 150.0),
                                 (950, "revert", None))
        assert detect("placement_regression", rec) == []

    def test_placement_regression_quiet_within_margin(self):
        rec, _ = self.experiment((100, "begin", None),
                                 (900, "verdict", 110.0))
        assert detect("placement_regression", rec) == []


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
    what stays here is the no-monitor path and the ledger a monitor
    brings along."""

    def test_null_health_is_shared_noop(self):
        """No monitor attached: the shared default bundle's facts do
        nothing; a monitor with no ledger beside it gets one of its
        own, which records the facts it reports on."""
        fld = SimpleNamespace(qualified_name="A::f")
        assert NO_OBSERVERS.health is None
        NO_OBSERVERS.experiment_begin("x", fld, 0.0, 0, 0, 0.25, 3)
        NO_OBSERVERS.period_closed(0, 1000, 0, 0, False, ranking=None)
        obs = Observers(health=HealthMonitor())
        assert isinstance(obs.lineage, DecisionLedger)
        assert obs.keeps_evidence
        obs.experiment_begin("x", fld, 0.0, 0, 0, 0.25, 3)
        assert [e[E_KIND] for e in obs.lineage.entries] == [K_EXPERIMENT]
        ledger = DecisionLedger()
        assert Observers(lineage=ledger, health=HealthMonitor()).lineage \
            is ledger

    def test_unbound_monitor_reports_nothing(self):
        report = HealthMonitor().report()
        assert (report.verdict, report.intervals, report.phases,
                report.findings, report.total_cycles) \
            == (SEVERITY_OK, 0, [], [], 0)


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
