"""Run-health observatory: the third pure observer.

:class:`HealthMonitor` rides on :class:`repro.core.config.SystemConfig`
exactly like telemetry and the lineage ledger, but keeps no facts of
its own: the run's decision ledger is the one store of them, so
attaching a monitor attaches a ledger (the run's
:class:`repro.observers.Observers` bundle makes one when none is
given).  Each ``period_close`` entry carries the period's HPM vector,
and the feedback engine's experiments are ledger entries too; at end
of run :meth:`HealthMonitor.report` reads both off the ledger and
produces the aggregated :class:`repro.health.report.HealthReport` —
phase segmentation plus what each function of
:data:`repro.health.detectors.DETECTORS` finds — which ``RunRecord``
embeds (schema 5), ``repro doctor`` prints, and the metrics registry
exports as Prometheus gauges.  Every id a finding or phase cites is an
entry of that ledger.

The monitor never charges cycles, never consumes randomness, and never
mutates simulator state — runs with health on and off are
bit-identical in cycles, instructions, counters, PEBS samples, the
revert log, and lineage entry ids (enforced by
``tests/test_observer_purity.py``).  A ledger that reached its entry
cap reports on the entries it kept.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.health.detectors import DETECTORS
from repro.health.phases import Interval, intervals_of, segment
from repro.health.report import (
    HEALTH_SCHEMA_VERSION,
    Finding,
    HealthReport,
    PhaseRecord,
    SEVERITY_RANK,
    build_report,
)
from repro.telemetry import NULL_TELEMETRY

__all__ = [
    "HEALTH_SCHEMA_VERSION",
    "DETECTORS",
    "Finding",
    "HealthMonitor",
    "HealthReport",
    "Interval",
    "PhaseRecord",
]


def _zero_clock() -> int:
    """Default clock before a VM binds its cycle counter (picklable)."""
    return 0


class HealthMonitor:
    """Reads phases and pathologies off the run's ledger, once, at end
    of run."""

    def __init__(self):
        self.ledger = None
        self._clock: Callable[[], int] = _zero_clock
        self._tracer = NULL_TELEMETRY.tracer
        self._report: Optional[HealthReport] = None

    def bind(self, ledger, clock: Callable[[], int], tracer) -> None:
        """Report on ``ledger``; a run with no period closed ends at
        ``clock()``; phases are mirrored as spans into ``tracer`` (the
        null one when tracing is off)."""
        self.ledger = ledger
        self._clock = clock
        self._tracer = tracer

    def _emit_phase(self, phase: PhaseRecord) -> None:
        tracer = self._tracer
        tracer.complete("health.phase", cat="health",
                        ts=phase.start_cycle,
                        dur=max(0, phase.end_cycle - phase.start_cycle),
                        phase=phase.index, intervals=phase.intervals)
        tracer.instant("health.phase_change", cat="health",
                       phase=phase.index + 1,
                       after_period=phase.end_period)

    def report(self, total_cycles: Optional[int] = None) -> HealthReport:
        """Finalize (idempotent) and return the aggregated report."""
        if self._report is not None:
            return self._report
        entries = self.ledger.entries if self.ledger is not None else []
        stream = intervals_of(entries)
        phases = segment(stream)
        for phase in phases:
            self._emit_phase(phase)
        if total_cycles is None:
            total_cycles = stream[-1].end_cycle if stream else self._clock()
        findings = [finding for detector in DETECTORS
                    for finding in detector(stream, entries)]
        findings.sort(key=lambda f: (-SEVERITY_RANK.get(f.severity, 0),
                                     f.start_cycle, f.detector))
        self._report = build_report(phases, findings, len(stream),
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
