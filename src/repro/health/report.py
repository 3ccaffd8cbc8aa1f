"""Aggregated run-health report: phases + findings -> verdict.

A :class:`HealthReport` holds the segmented phase table from
:mod:`repro.health.phases`, the pathology findings from
:mod:`repro.health.detectors`, and an aggregate ok/warn/critical
verdict; it rides inside :class:`repro.harness.record.RunRecord`
(schema 5) and is exported as Prometheus gauges at VM shutdown.

Severity ordering is ``ok < warn < critical``; the report verdict is
the maximum severity over all findings.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Version stamp for the embedded ``health`` document inside RunRecord.
HEALTH_SCHEMA_VERSION = 1

SEVERITY_OK = "ok"
SEVERITY_WARN = "warn"
SEVERITY_CRITICAL = "critical"

#: Numeric ranks used both for verdict aggregation and for the
#: Prometheus ``health.verdict`` gauge (0 ok / 1 warn / 2 critical).
SEVERITY_RANK = {SEVERITY_OK: 0, SEVERITY_WARN: 1, SEVERITY_CRITICAL: 2}


def worst_severity(severities: Sequence[str]) -> str:
    """Maximum severity over ``severities`` (``ok`` when empty)."""
    worst = SEVERITY_OK
    for sev in severities:
        if SEVERITY_RANK.get(sev, 0) > SEVERITY_RANK[worst]:
            worst = sev
    return worst


@dataclass
class Finding:
    """One pathology surfaced by a detector.

    ``evidence`` carries the raw numbers that triggered the detector;
    ``ledger_ids`` are the decision-ledger entry ids that justify it —
    ``repro doctor`` resolves each id back through the ledger and
    prints its justification chain, so every finding is auditable
    against the same append-only record that ``repro explain`` reads.
    """

    detector: str
    severity: str
    summary: str
    start_cycle: int
    end_cycle: int
    evidence: Dict[str, object] = field(default_factory=dict)
    ledger_ids: Tuple[int, ...] = ()
    remediation: str = ""

    def to_json(self) -> dict:
        return {**asdict(self), "ledger_ids": list(self.ledger_ids)}

    @classmethod
    def from_json(cls, doc: dict) -> "Finding":
        return cls(**{**doc, "evidence": dict(doc.get("evidence") or {}),
                      "ledger_ids": tuple(doc.get("ledger_ids") or ())})


@dataclass
class PhaseRecord:
    """One segmented phase: a maximal run of similar interval vectors.

    ``centroid`` is the mean *raw* feature vector over the phase's
    intervals (miss rate, GC fraction, alloc rate, samples, recompiles)
    so the phase table can say what characterised the phase, not just
    where it was.  ``period_ids`` are the ledger ``period_close`` entry
    ids covered by the phase.
    """

    index: int
    start_period: int
    end_period: int
    start_cycle: int
    end_cycle: int
    intervals: int
    centroid: Dict[str, float] = field(default_factory=dict)
    period_ids: Tuple[int, ...] = ()

    def to_json(self) -> dict:
        return {**asdict(self),
                "centroid": {k: round(v, 6) for k, v in self.centroid.items()},
                "period_ids": list(self.period_ids)}

    @classmethod
    def from_json(cls, doc: dict) -> "PhaseRecord":
        return cls(**{**doc, "centroid": dict(doc.get("centroid") or {}),
                      "period_ids": tuple(doc.get("period_ids") or ())})


@dataclass
class HealthReport:
    """Verdict + phase table + findings for one run."""

    verdict: str
    phases: List[PhaseRecord] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)
    intervals: int = 0
    total_cycles: int = 0

    def to_json(self) -> dict:
        return {
            "schema": HEALTH_SCHEMA_VERSION,
            "verdict": self.verdict,
            "intervals": self.intervals,
            "total_cycles": self.total_cycles,
            "phases": [p.to_json() for p in self.phases],
            "findings": [f.to_json() for f in self.findings],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "HealthReport":
        """The report :meth:`to_json` wrote; ValueError for anything
        that is not an object of :data:`HEALTH_SCHEMA_VERSION`."""
        if not isinstance(doc, dict):
            raise ValueError(f"health report must be an object, "
                             f"got {type(doc).__name__}")
        if doc.get("schema") != HEALTH_SCHEMA_VERSION:
            raise ValueError(f"unsupported health report schema "
                             f"{doc.get('schema')!r}")
        return cls(
            verdict=doc.get("verdict", SEVERITY_OK),
            phases=[PhaseRecord.from_json(p) for p in doc.get("phases") or []],
            findings=[Finding.from_json(f) for f in doc.get("findings") or []],
            intervals=doc.get("intervals", 0),
            total_cycles=doc.get("total_cycles", 0),
        )

    def findings_by_detector(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for f in self.findings:
            counts[f.detector] = counts.get(f.detector, 0) + 1
        return counts


def build_report(phases, findings, intervals: int,
                 total_cycles: int) -> HealthReport:
    """Assemble the report; verdict = worst finding severity."""
    return HealthReport(
        verdict=worst_severity([f.severity for f in findings]),
        phases=list(phases),
        findings=list(findings),
        intervals=intervals,
        total_cycles=total_cycles,
    )


# -- rendering --------------------------------------------------------------

def format_phase_table(report: HealthReport) -> str:
    """Plain-text phase table for ``repro doctor`` / ``timeline --phases``."""
    if not report.phases:
        return "phases: none segmented (run too short or monitoring off)"
    lines = ["phase  periods      cycles                miss    gcfrac  "
             "alloc/KC  samples"]
    for p in report.phases:
        c = p.centroid
        lines.append(
            "%-6d %-12s %-21s %-7s %-7s %-9s %s" % (
                p.index,
                "%d-%d" % (p.start_period, p.end_period),
                "%d-%d" % (p.start_cycle, p.end_cycle),
                "%.3f" % c.get("miss_rate", 0.0),
                "%.3f" % c.get("gc_fraction", 0.0),
                "%.2f" % (c.get("alloc_rate", 0.0) * 1000.0),
                "%.1f" % c.get("samples", 0.0),
            ))
    return "\n".join(lines)


def format_phase_overlay(report: HealthReport,
                         total_cycles: Optional[int] = None,
                         width: int = 72) -> str:
    """One-row phase lane aligned with the timeline Gantt columns.

    Each column shows the phase index (mod 10) owning that slice of the
    run, so phase boundaries line up visually with the per-category
    occupancy lanes from :func:`repro.telemetry.export.format_timeline`.
    """
    if not report.phases:
        return "phases: none segmented"
    end = total_cycles or report.total_cycles or report.phases[-1].end_cycle
    if end <= 0:
        return "phases: none segmented"
    row = []
    for col in range(width):
        cycle = int((col + 0.5) * end / width)
        mark = "."
        for p in report.phases:
            if p.start_cycle <= cycle <= p.end_cycle:
                mark = str(p.index % 10)
                break
        row.append(mark)
    label = "%-10s" % "phases"
    return "%s|%s| %d phase(s)" % (label, "".join(row), len(report.phases))


def format_findings(report: HealthReport) -> str:
    if not report.findings:
        return "findings: none"
    lines = []
    for i, f in enumerate(report.findings):
        lines.append("[%d] %-8s %-22s %s" % (
            i, f.severity.upper(), f.detector, f.summary))
        lines.append("    cycles %d-%d" % (f.start_cycle, f.end_cycle))
        if f.evidence:
            ev = ", ".join("%s=%s" % (k, _fmt_val(v))
                           for k, v in sorted(f.evidence.items()))
            lines.append("    evidence: %s" % ev)
        if f.ledger_ids:
            lines.append("    ledger ids: %s"
                         % ", ".join(str(x) for x in f.ledger_ids))
        if f.remediation:
            lines.append("    hint: %s" % f.remediation)
    return "\n".join(lines)


def _fmt_val(v) -> str:
    if isinstance(v, float):
        return "%.4g" % v
    return str(v)
