"""Pathology detectors over the interval + feedback event streams.

Each detector watches the same two streams the health monitor fans
out — the per-period :class:`repro.health.phases.Interval` vectors and
the feedback engine's experiment events (begin / verdict / revert,
each carrying the decision-ledger entry id the feedback engine already
records) — and yields :class:`repro.health.report.Finding`s with a
severity, a cycle span, numeric evidence, the justifying ledger ids,
and a remediation hint.

Detectors are registered by name in :data:`DETECTOR_REGISTRY` so the
set is extensible (the arXiv 1906.12066 pattern: each inefficiency
class is its own PMU-driven detector); :func:`default_detectors`
instantiates the built-in five the ISSUE requires.

Purity: detectors only ever *read* interval values and event payloads.
They must not call :meth:`OnlineMonitor.hot_field` (it mutates the
monitor's hot-cache) — the non-mutating per-period ``field_counts``
snapshot inside each Interval carries the same information.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.health.phases import Interval
from repro.health.report import (
    Finding,
    SEVERITY_CRITICAL,
    SEVERITY_WARN,
)


@dataclass
class ExperimentEvent:
    """One feedback-engine event, tagged with its ledger entry id."""

    kind: str          # "begin" | "verdict" | "revert"
    name: str
    cycle: int
    ledger_id: int = -1
    field: str = ""
    period: int = -1
    rate: float = 0.0
    baseline: float = 0.0
    threshold: float = 0.0
    regressed: bool = False
    streak: int = 0


class Detector:
    """Base class: override the hooks you need; collect findings."""

    name = "detector"

    def on_interval(self, interval: Interval) -> None:
        pass

    def on_event(self, event: ExperimentEvent) -> None:
        pass

    def finalize(self, intervals: List[Interval],
                 total_cycles: int) -> List[Finding]:
        """Called once at end of run; returns this detector's findings."""
        return []


#: name -> zero-argument factory.
DETECTOR_REGISTRY: Dict[str, Callable[[], "Detector"]] = {}


def register_detector(factory: Callable[[], "Detector"]):
    """Class decorator: add ``factory`` under its ``name`` attribute."""
    DETECTOR_REGISTRY[factory.name] = factory
    return factory


def default_detectors() -> List[Detector]:
    """Fresh instances of every registered detector, in registry order."""
    return [factory() for factory in DETECTOR_REGISTRY.values()]


# -- concrete detectors -----------------------------------------------------


@register_detector
class RevertStormDetector(Detector):
    """>= K experiment reverts within a window of W intervals.

    A single revert is the feedback engine working as designed
    (Figure 8); a *storm* of them means the controller keeps applying
    placements the workload immediately rejects — guidance is chasing
    noise or the workload shifted under it.
    """

    name = "revert_storm"

    def __init__(self, min_reverts: int = 2, window_intervals: int = 40):
        self.min_reverts = min_reverts
        self.window = window_intervals
        self._interval_index = -1
        #: (interval index at revert, cycle, ledger id, experiment name)
        self._reverts: List[tuple] = []

    def on_interval(self, interval: Interval) -> None:
        self._interval_index = interval.index

    def on_event(self, event: ExperimentEvent) -> None:
        if event.kind == "revert":
            self._reverts.append((max(0, self._interval_index + 1),
                                  event.cycle, event.ledger_id, event.name))

    def finalize(self, intervals: List[Interval],
                 total_cycles: int) -> List[Finding]:
        best: Optional[List[tuple]] = None
        for i in range(len(self._reverts)):
            cluster = [r for r in self._reverts
                       if 0 <= r[0] - self._reverts[i][0] < self.window]
            if len(cluster) >= self.min_reverts \
                    and (best is None or len(cluster) > len(best)):
                best = cluster
        if best is None:
            return []
        return [Finding(
            detector=self.name,
            severity=SEVERITY_CRITICAL,
            summary="%d experiment reverts within %d intervals" % (
                len(best), self.window),
            start_cycle=best[0][1],
            end_cycle=best[-1][1],
            evidence={"reverts": len(best), "window_intervals": self.window,
                      "experiments": sorted({r[3] for r in best})},
            ledger_ids=tuple(r[2] for r in best if r[2] >= 0),
            remediation="raise revert_patience or min_samples_for_guidance "
                        "so placements are only tried on stable evidence",
        )]


@register_detector
class RankingOscillationDetector(Detector):
    """The top-ranked field churns faster than guidance can act on it.

    Co-allocation reads the ranking at promotion time; if the #1 field
    flips every period the policy keeps optimizing for a pattern that
    is already gone (the paper's motivation for moving-average
    smoothing, section 5.2).
    """

    name = "ranking_oscillation"

    def __init__(self, window: int = 12, churn_threshold: float = 0.5):
        self.window = window
        self.churn_threshold = churn_threshold
        #: (interval, top field qualified name, ranking ledger id)
        self._tops: List[tuple] = []

    def on_interval(self, interval: Interval) -> None:
        if interval.top_fields and interval.samples > 0:
            self._tops.append((interval, interval.top_fields[0][0],
                               interval.ledger_ranking_id))

    def finalize(self, intervals: List[Interval],
                 total_cycles: int) -> List[Finding]:
        n = len(self._tops)
        if n < self.window:
            return []
        worst_churn, worst_at = 0.0, 0
        for i in range(n - self.window + 1):
            names = [t[1] for t in self._tops[i:i + self.window]]
            changes = sum(1 for a, b in zip(names, names[1:]) if a != b)
            churn = changes / (self.window - 1)
            if churn > worst_churn:
                worst_churn, worst_at = churn, i
        if worst_churn < self.churn_threshold:
            return []
        span = self._tops[worst_at:worst_at + self.window]
        return [Finding(
            detector=self.name,
            severity=SEVERITY_WARN,
            summary="top-field churn %.2f over %d ranked intervals" % (
                worst_churn, self.window),
            start_cycle=span[0][0].start_cycle,
            end_cycle=span[-1][0].end_cycle,
            evidence={"churn": round(worst_churn, 3),
                      "window_intervals": self.window,
                      "distinct_tops": len({t[1] for t in span})},
            ledger_ids=tuple(t[2] for t in span if t[2] >= 0),
            remediation="widen moving_average_window or raise the sampling "
                        "interval so the ranking integrates more evidence",
        )]


@register_detector
class SamplingStarvationDetector(Detector):
    """Most intervals carry too few PEBS samples to rank anything.

    The paper's auto mode targets a fixed samples/second; when the
    observed stream stays far below that, hot-field guidance is
    statistically meaningless and co-allocation never engages.
    """

    name = "sampling_starvation"

    def __init__(self, min_samples: int = 4, min_fraction: float = 0.5,
                 min_intervals: int = 6):
        self.min_samples = min_samples
        self.min_fraction = min_fraction
        self.min_intervals = min_intervals

    def finalize(self, intervals: List[Interval],
                 total_cycles: int) -> List[Finding]:
        considered = [iv for iv in intervals if not iv.sampling_paused]
        if len(considered) < self.min_intervals:
            return []
        starved = [iv for iv in considered
                   if iv.samples < self.min_samples]
        fraction = len(starved) / len(considered)
        if fraction < self.min_fraction:
            return []
        return [Finding(
            detector=self.name,
            severity=SEVERITY_WARN,
            summary="%d of %d active intervals below %d samples" % (
                len(starved), len(considered), self.min_samples),
            start_cycle=starved[0].start_cycle,
            end_cycle=starved[-1].end_cycle,
            evidence={"starved_intervals": len(starved),
                      "active_intervals": len(considered),
                      "fraction": round(fraction, 3),
                      "min_samples": self.min_samples},
            ledger_ids=tuple(iv.ledger_period_id for iv in starved[:8]
                             if iv.ledger_period_id >= 0),
            remediation="lower the sampling interval (or use auto mode) so "
                        "each period sees enough PEBS samples to rank",
        )]


@register_detector
class CacheThrashDetector(Detector):
    """A sustained run at the miss-rate ceiling with no winning fix.

    The interesting case for the paper's online loop: misses stay
    pinned at their peak for many consecutive periods while no
    placement experiment survives — the system observed the thrash but
    produced nothing that helped.
    """

    name = "cache_thrash"
    #: A period counts as at the ceiling when its miss rate reaches
    #: this fraction of the run's peak.
    CEILING_FRACTION = 0.9

    def __init__(self, rate_floor: float = 0.05, min_run: int = 8):
        self.rate_floor = rate_floor
        self.min_run = min_run
        self._begun = 0
        self._reverted = 0

    def on_event(self, event: ExperimentEvent) -> None:
        if event.kind == "begin":
            self._begun += 1
        elif event.kind == "revert":
            self._reverted += 1

    def finalize(self, intervals: List[Interval],
                 total_cycles: int) -> List[Finding]:
        if not intervals:
            return []
        peak = max(iv.miss_rate for iv in intervals)
        ceiling = max(self.rate_floor, self.CEILING_FRACTION * peak)
        if peak < self.rate_floor:
            return []
        best_run: List[Interval] = []
        run: List[Interval] = []
        for iv in intervals:
            if iv.miss_rate >= ceiling:
                run.append(iv)
                if len(run) > len(best_run):
                    best_run = list(run)
            else:
                run = []
        if len(best_run) < self.min_run:
            return []
        winning = self._begun - self._reverted
        if winning > 0:
            return []
        severity = SEVERITY_CRITICAL if self._begun else SEVERITY_WARN
        mean_rate = sum(iv.miss_rate for iv in best_run) / len(best_run)
        return [Finding(
            detector=self.name,
            severity=severity,
            summary="miss rate pinned at ceiling for %d intervals "
                    "with no winning experiment" % len(best_run),
            start_cycle=best_run[0].start_cycle,
            end_cycle=best_run[-1].end_cycle,
            evidence={"intervals": len(best_run),
                      "mean_miss_rate": round(mean_rate, 4),
                      "ceiling": round(ceiling, 4),
                      "experiments_begun": self._begun,
                      "experiments_reverted": self._reverted},
            ledger_ids=tuple(iv.ledger_period_id for iv in best_run[:8]
                             if iv.ledger_period_id >= 0),
            remediation="the hot access pattern resists the current "
                        "placement policy; try a different sampled event "
                        "(L2_MISS/DTLB_MISS) or a larger co-allocation cell",
        )]


@register_detector
class PlacementRegressionDetector(Detector):
    """A committed (never-reverted) experiment ended worse than baseline.

    The revert heuristic needs ``revert_patience`` *consecutive* bad
    periods; a regression that oscillates under that streak sails
    through and the placement is silently kept.  This detector does the
    one-shot end-of-run comparison the online loop skips: post-commit
    rate vs. the pre-experiment baseline.
    """

    name = "placement_regression"

    def __init__(self, margin: float = 0.10):
        self.margin = margin
        #: name -> {begin event, last verdict event, reverted}
        self._experiments: Dict[str, dict] = {}

    def on_event(self, event: ExperimentEvent) -> None:
        if event.kind == "begin":
            self._experiments[event.name] = {
                "begin": event, "last": None, "reverted": False}
        else:
            state = self._experiments.get(event.name)
            if state is None:
                return
            if event.kind == "verdict":
                state["last"] = event
            elif event.kind == "revert":
                state["reverted"] = True

    def finalize(self, intervals: List[Interval],
                 total_cycles: int) -> List[Finding]:
        findings = []
        for name, state in self._experiments.items():
            if state["reverted"] or state["last"] is None:
                continue
            begin, last = state["begin"], state["last"]
            if begin.baseline <= 0:
                continue
            if last.rate <= begin.baseline * (1.0 + self.margin):
                continue
            ledger_ids = tuple(i for i in (begin.ledger_id, last.ledger_id)
                               if i >= 0)
            findings.append(Finding(
                detector=self.name,
                severity=SEVERITY_WARN,
                summary="experiment %r kept but ended %.0f%% over its "
                        "baseline" % (
                            name,
                            100.0 * (last.rate / begin.baseline - 1.0)),
                start_cycle=begin.cycle,
                end_cycle=last.cycle,
                evidence={"experiment": name, "field": begin.field,
                          "baseline_rate": round(begin.baseline, 4),
                          "final_rate": round(last.rate, 4),
                          "margin": self.margin},
                ledger_ids=ledger_ids,
                remediation="lower revert_threshold or revert_patience so "
                            "oscillating regressions still trip the revert",
            ))
        return findings
