"""Run-health observatory: the third pure observer.

:class:`HealthMonitor` rides on :class:`repro.core.config.SystemConfig`
exactly like telemetry and the lineage ledger: attach one to
``config.health`` and the run's :class:`repro.observers.Observers`
bundle feeds it one reading of the VM's running totals per closed
measurement period (which it turns into an :class:`Interval` of
deltas) and the feedback engine's experiment events.  It never charges
cycles, never consumes randomness, and never mutates simulator state —
runs with health on and off are bit-identical in cycles, instructions,
counters, PEBS samples, the revert log, and lineage entry ids
(enforced by ``tests/test_observer_purity.py``).

The monitor keeps both streams (``intervals`` and ``events``, each
event stamped with the interval it precedes).  At end of run
:meth:`HealthMonitor.report` produces the aggregated
:class:`repro.health.report.HealthReport` — online phase segmentation
plus what each function of :data:`repro.health.detectors.DETECTORS`
finds in the two streams — which ``RunRecord`` embeds (schema 5),
``repro doctor`` prints, and the metrics registry exports as
Prometheus gauges.

With no monitor attached the bundle's ``health`` is ``None`` and
nothing here runs.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.health.detectors import DETECTORS, ExperimentEvent
from repro.health.phases import Interval, PhaseTracker
from repro.health.report import (
    HEALTH_SCHEMA_VERSION,
    Finding,
    HealthReport,
    PhaseRecord,
    SEVERITY_RANK,
    build_report,
)

__all__ = [
    "HEALTH_SCHEMA_VERSION",
    "DETECTORS",
    "ExperimentEvent",
    "Finding",
    "HealthMonitor",
    "HealthReport",
    "Interval",
    "PhaseRecord",
    "PhaseTracker",
]


#: Hottest fields surfaced per interval (detector evidence, not policy).
TOP_FIELDS_PER_INTERVAL = 4


def _zero_clock() -> int:
    """Default clock before a VM binds its cycle counter (picklable)."""
    return 0


class HealthMonitor:
    """Keeps intervals + experiment events; segments online and
    diagnoses once, at end of run."""

    def __init__(self):
        self.tracker = PhaseTracker()
        self.intervals: List[Interval] = []
        self.events: List[ExperimentEvent] = []
        self._clock: Callable[[], int] = _zero_clock
        self._tracer = None
        self._report: Optional[HealthReport] = None
        #: Where the last observed period ended, and the totals then.
        self._prev_cycle = 0
        self._prev_totals = (0, 0, 0, 0, 0)

    # -- VM wiring ---------------------------------------------------------

    def bind(self, clock: Callable[[], int], tracer) -> None:
        """Experiment events are stamped with the VM's cycle counter;
        phase boundaries are mirrored as spans into ``tracer`` (the
        null one when tracing is off)."""
        self._clock = clock
        self._tracer = tracer

    # -- interval stream ---------------------------------------------------

    def on_period(self, period, now_cycle: int, samples: int,
                  attributed: int, totals: tuple, sampling_paused: bool,
                  ledger_period_id: int, ledger_ranking_id: int) -> None:
        """Condense a just-closed measurement period into one
        :class:`Interval`.  ``totals`` is the VM's running (L1D
        accesses, L1D misses, GC cycles, allocated bytes, compiled
        methods); the interval holds the deltas since the previous
        close.  ``period`` is the closed ``PeriodRecord`` (its
        ``field_counts`` is the per-period snapshot, so ranking it here
        cannot perturb the monitor's hot-field cache)."""
        if now_cycle <= self._prev_cycle:
            return  # final drain landed on the same boundary: no new data
        cycles = now_cycle - self._prev_cycle
        d_access, d_miss, d_gc, d_alloc, d_compiled = (
            now - before for now, before in zip(totals, self._prev_totals))
        ranked = sorted(period.field_counts.items(),
                        key=lambda kv: (-kv[1], kv[0].qualified_name))
        interval = Interval(
            index=period.index,
            start_cycle=self._prev_cycle,
            end_cycle=now_cycle,
            samples=samples,
            attributed=attributed,
            miss_rate=(d_miss / d_access) if d_access > 0 else 0.0,
            gc_fraction=d_gc / cycles,
            alloc_rate=d_alloc / cycles,
            recompiles=d_compiled,
            sampling_paused=sampling_paused,
            top_fields=tuple((field.qualified_name, count) for field, count
                             in ranked[:TOP_FIELDS_PER_INTERVAL]),
            ledger_period_id=ledger_period_id,
            ledger_ranking_id=ledger_ranking_id,
        )
        self._prev_cycle = now_cycle
        self._prev_totals = totals
        self.on_interval(interval)

    def on_interval(self, interval: Interval) -> None:
        self.intervals.append(interval)
        closed = self.tracker.observe(interval)
        if closed is not None:
            self._emit_phase(closed)

    # -- feedback events ---------------------------------------------------

    def on_experiment_begin(self, name: str, field: str, baseline: float,
                            ledger_id: int) -> None:
        self.on_event(ExperimentEvent(
            kind="begin", name=name, cycle=self._clock(),
            ledger_id=ledger_id, field=field, baseline=baseline))

    def on_experiment_verdict(self, name: str, rate: float,
                              ledger_id: int) -> None:
        self.on_event(ExperimentEvent(
            kind="verdict", name=name, cycle=self._clock(),
            ledger_id=ledger_id, rate=rate))

    def on_experiment_revert(self, name: str, field: str, rate: float,
                             baseline: float, ledger_id: int) -> None:
        self.on_event(ExperimentEvent(
            kind="revert", name=name, cycle=self._clock(),
            ledger_id=ledger_id, field=field, rate=rate, baseline=baseline))

    def on_event(self, event: ExperimentEvent) -> None:
        """Keep ``event``, stamped with the interval it precedes."""
        event.interval = (self.intervals[-1].index + 1 if self.intervals
                          else 0)
        self.events.append(event)

    # -- phase telemetry ---------------------------------------------------

    def _emit_phase(self, phase: PhaseRecord) -> None:
        tracer = self._tracer
        if tracer is None:
            return
        tracer.complete("health.phase", cat="health",
                        ts=phase.start_cycle,
                        dur=max(0, phase.end_cycle - phase.start_cycle),
                        phase=phase.index, intervals=phase.intervals)
        tracer.instant("health.phase_change", cat="health",
                       phase=phase.index + 1,
                       after_period=phase.end_period)

    # -- report ------------------------------------------------------------

    def report(self, total_cycles: Optional[int] = None) -> HealthReport:
        """Finalize (idempotent) and return the aggregated report."""
        if self._report is not None:
            return self._report
        open_phases = len(self.tracker.phases)
        phases = self.tracker.finish()
        for phase in phases[open_phases:]:
            self._emit_phase(phase)
        if total_cycles is None:
            total_cycles = (self.intervals[-1].end_cycle
                            if self.intervals else self._clock())
        findings = [finding for detector in DETECTORS
                    for finding in detector(self.intervals, self.events)]
        findings.sort(key=lambda f: (-SEVERITY_RANK.get(f.severity, 0),
                                     f.start_cycle, f.detector))
        self._report = build_report(phases, findings, len(self.intervals),
                                    total_cycles)
        return self._report

    def publish_metrics(self, metrics) -> None:
        """Finalize the report and export it as gauges."""
        report = self.report()
        metrics.gauge(
            "health.verdict",
            "aggregate run-health verdict (0 ok / 1 warn / 2 critical)",
        ).set(SEVERITY_RANK.get(report.verdict, 0))
        metrics.gauge("health.phases",
                      "phases segmented from the interval stream",
                      ).set(len(report.phases))
        metrics.gauge("health.intervals",
                      "measurement intervals observed").set(report.intervals)
        findings = metrics.gauge("health.findings",
                                 "pathology findings, by detector")
        for detector in DETECTORS:
            findings.labels(detector.__name__).set(0)
        for name, count in report.findings_by_detector().items():
            findings.labels(name).set(count)
