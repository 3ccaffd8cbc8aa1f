"""Pathology detectors over a run's intervals and decision ledger.

Each detector is a function ``(intervals, entries) -> List[Finding]``
over the run's per-period :class:`repro.health.phases.Interval` vectors
and its decision-ledger entries (the ``experiment_begin`` /
``experiment_verdict`` / ``experiment_revert`` facts of the feedback
engine are read straight off them), and returns
:class:`repro.health.report.Finding`s with a severity, a cycle span,
numeric evidence, the justifying ledger ids, and a remediation hint.
:class:`repro.health.HealthMonitor` runs the five of :data:`DETECTORS`
once, at end of run; their thresholds are the module constants below.

Purity: detectors only ever *read* interval values and entry payloads.
"""

from __future__ import annotations

from typing import Dict, List

from repro.health.phases import Interval
from repro.health.report import (
    Finding,
    SEVERITY_CRITICAL,
    SEVERITY_WARN,
)
from repro.lineage.ledger import (
    E_CYCLE,
    E_ID,
    E_KIND,
    E_PAYLOAD,
    K_EXPERIMENT,
    K_REVERT,
    K_VERDICT,
)

#: ``revert_storm``: this many reverts within :data:`STORM_WINDOW`
#: intervals make a storm.
MIN_REVERTS = 2
STORM_WINDOW = 40
#: ``ranking_oscillation``: intervals (with samples) judged together,
#: and the fraction of them whose top field changes that is churn.
RANKING_WINDOW = 12
CHURN_THRESHOLD = 0.5
#: ``sampling_starvation``: the run is judged once it has
#: :data:`MIN_INTERVALS` active intervals, and starved when they carry
#: fewer than :data:`MIN_SAMPLES` samples on average.
MIN_SAMPLES = 4
MIN_INTERVALS = 6
#: ``cache_thrash``: a period counts as at the ceiling when its miss
#: rate reaches :data:`CEILING_FRACTION` of the run's peak (and at
#: least :data:`RATE_FLOOR`); :data:`MIN_RUN` such periods in a row
#: are a sustained thrash.
RATE_FLOOR = 0.05
CEILING_FRACTION = 0.9
MIN_RUN = 8
#: ``placement_regression``: a kept experiment regressed when its last
#: rate exceeds its baseline by more than this fraction.
MARGIN = 0.10


def revert_storm(intervals: List[Interval],
                 entries: List[tuple]) -> List[Finding]:
    """>= :data:`MIN_REVERTS` experiment reverts within
    :data:`STORM_WINDOW` intervals (periods, by the revert entries'
    own period stamps).

    A single revert is the feedback engine working as designed
    (Figure 8); a *storm* of them means the controller keeps applying
    placements the workload immediately rejects — guidance is chasing
    noise or the workload shifted under it.
    """
    reverts = [e for e in entries if e[E_KIND] == K_REVERT]
    best: List[tuple] = []
    for first in reverts:
        cluster = [r for r in reverts if 0 <= r[E_PAYLOAD][2]
                   - first[E_PAYLOAD][2] < STORM_WINDOW]
        if len(cluster) > len(best):
            best = cluster
    if len(best) < MIN_REVERTS:
        return []
    return [Finding(
        detector="revert_storm",
        severity=SEVERITY_CRITICAL,
        summary="%d experiment reverts within %d intervals" % (
            len(best), STORM_WINDOW),
        start_cycle=best[0][E_CYCLE],
        end_cycle=best[-1][E_CYCLE],
        evidence={"reverts": len(best), "window_intervals": STORM_WINDOW,
                  "experiments": sorted({r[E_PAYLOAD][0] for r in best})},
        ledger_ids=tuple(r[E_ID] for r in best),
        remediation="raise revert_patience or min_samples_for_guidance "
                    "so placements are only tried on stable evidence",
    )]


def ranking_oscillation(intervals: List[Interval],
                        entries: List[tuple]) -> List[Finding]:
    """The top-ranked field churns faster than guidance can act on it.

    Co-allocation reads the ranking at promotion time; if the #1 field
    flips every period the policy keeps optimizing for a pattern that
    is already gone (the paper's motivation for moving-average
    smoothing, section 5.2).
    """
    ranked = [iv for iv in intervals if iv.top_fields and iv.samples > 0]
    if len(ranked) < RANKING_WINDOW:
        return []
    worst_churn, worst_at = 0.0, 0
    for i in range(len(ranked) - RANKING_WINDOW + 1):
        names = [iv.top_fields[0][0] for iv in ranked[i:i + RANKING_WINDOW]]
        changes = sum(1 for a, b in zip(names, names[1:]) if a != b)
        churn = changes / (RANKING_WINDOW - 1)
        if churn > worst_churn:
            worst_churn, worst_at = churn, i
    if worst_churn < CHURN_THRESHOLD:
        return []
    span = ranked[worst_at:worst_at + RANKING_WINDOW]
    return [Finding(
        detector="ranking_oscillation",
        severity=SEVERITY_WARN,
        summary="top-field churn %.2f over %d ranked intervals" % (
            worst_churn, RANKING_WINDOW),
        start_cycle=span[0].start_cycle,
        end_cycle=span[-1].end_cycle,
        evidence={"churn": round(worst_churn, 3),
                  "window_intervals": RANKING_WINDOW,
                  "distinct_tops": len({iv.top_fields[0][0]
                                        for iv in span})},
        ledger_ids=tuple(iv.ranking_id for iv in span),
        remediation="widen moving_average_window or raise the sampling "
                    "interval so the ranking integrates more evidence",
    )]


def sampling_starvation(intervals: List[Interval],
                        entries: List[tuple]) -> List[Finding]:
    """The active intervals carry too few PEBS samples to rank anything.

    The paper's auto mode targets a fixed samples/second; when the
    observed stream stays far below that, hot-field guidance is
    statistically meaningless and co-allocation never engages.  The
    run is judged by its mean: samples reach the monitor one drain
    batch every few periods, so many intervals of a well-fed run hold
    none.
    """
    active = [iv for iv in intervals if not iv.sampling_paused]
    if len(active) < MIN_INTERVALS:
        return []
    mean = sum(iv.samples for iv in active) / len(active)
    if mean >= MIN_SAMPLES:
        return []
    starved = [iv for iv in active if iv.samples < MIN_SAMPLES]
    return [Finding(
        detector="sampling_starvation",
        severity=SEVERITY_WARN,
        summary="%.2f samples per active interval over %d intervals, "
                "below %d" % (mean, len(active), MIN_SAMPLES),
        start_cycle=starved[0].start_cycle,
        end_cycle=starved[-1].end_cycle,
        evidence={"mean_samples": round(mean, 3),
                  "starved_intervals": len(starved),
                  "active_intervals": len(active),
                  "min_samples": MIN_SAMPLES},
        ledger_ids=tuple(iv.period_id for iv in starved[:8]),
        remediation="lower the sampling interval (or use auto mode) so "
                    "each period sees enough PEBS samples to rank",
    )]


def cache_thrash(intervals: List[Interval],
                 entries: List[tuple]) -> List[Finding]:
    """A sustained run at the miss-rate ceiling with no winning fix.

    The interesting case for the paper's online loop: misses stay
    pinned at their peak for many consecutive periods while no
    placement experiment survives — the system observed the thrash but
    produced nothing that helped.
    """
    if not intervals:
        return []
    peak = max(iv.miss_rate for iv in intervals)
    if peak < RATE_FLOOR:
        return []
    ceiling = max(RATE_FLOOR, CEILING_FRACTION * peak)
    best_run: List[Interval] = []
    run: List[Interval] = []
    for iv in intervals:
        if iv.miss_rate >= ceiling:
            run.append(iv)
            if len(run) > len(best_run):
                best_run = list(run)
        else:
            run = []
    if len(best_run) < MIN_RUN:
        return []
    begun = sum(1 for e in entries if e[E_KIND] == K_EXPERIMENT)
    reverted = sum(1 for e in entries if e[E_KIND] == K_REVERT)
    if begun > reverted:
        return []
    mean_rate = sum(iv.miss_rate for iv in best_run) / len(best_run)
    return [Finding(
        detector="cache_thrash",
        severity=SEVERITY_CRITICAL if begun else SEVERITY_WARN,
        summary="miss rate pinned at ceiling for %d intervals "
                "with no winning experiment" % len(best_run),
        start_cycle=best_run[0].start_cycle,
        end_cycle=best_run[-1].end_cycle,
        evidence={"intervals": len(best_run),
                  "mean_miss_rate": round(mean_rate, 4),
                  "ceiling": round(ceiling, 4),
                  "experiments_begun": begun,
                  "experiments_reverted": reverted},
        ledger_ids=tuple(iv.period_id for iv in best_run[:8]),
        remediation="the hot access pattern resists the current "
                    "placement policy; try a different sampled event "
                    "(L2_MISS/DTLB_MISS) or a larger co-allocation cell",
    )]


def placement_regression(intervals: List[Interval],
                         entries: List[tuple]) -> List[Finding]:
    """A committed (never-reverted) experiment ended worse than baseline.

    The revert heuristic needs ``revert_patience`` *consecutive* bad
    periods; a regression that oscillates under that streak sails
    through and the placement is silently kept.  This detector does the
    one-shot end-of-run comparison the online loop skips: post-commit
    rate vs. the pre-experiment baseline.
    """
    #: name -> [begin entry, last verdict entry, reverted]
    experiments: Dict[str, list] = {}
    for entry in entries:
        kind = entry[E_KIND]
        if kind == K_EXPERIMENT:
            experiments[entry[E_PAYLOAD][0]] = [entry, None, False]
        elif kind in (K_VERDICT, K_REVERT):
            experiment = experiments.get(entry[E_PAYLOAD][0])
            if experiment is None:
                continue
            if kind == K_VERDICT:
                experiment[1] = entry
            else:
                experiment[2] = True
    findings = []
    for name, (begin, last, reverted) in experiments.items():
        baseline = begin[E_PAYLOAD][2]
        if reverted or last is None or baseline <= 0:
            continue
        rate = last[E_PAYLOAD][1]
        if rate <= baseline * (1.0 + MARGIN):
            continue
        findings.append(Finding(
            detector="placement_regression",
            severity=SEVERITY_WARN,
            summary="experiment %r kept but ended %.0f%% over its "
                    "baseline" % (name, 100.0 * (rate / baseline - 1.0)),
            start_cycle=begin[E_CYCLE],
            end_cycle=last[E_CYCLE],
            evidence={"experiment": name,
                      "field": begin[E_PAYLOAD][1].qualified_name,
                      "baseline_rate": round(baseline, 4),
                      "final_rate": round(rate, 4),
                      "margin": MARGIN},
            ledger_ids=(begin[E_ID], last[E_ID]),
            remediation="lower revert_threshold or revert_patience so "
                        "oscillating regressions still trip the revert",
        ))
    return findings


#: Every detector, in the order the monitor runs them.
DETECTORS = (revert_storm, ranking_oscillation, sampling_starvation,
             cache_thrash, placement_regression)
