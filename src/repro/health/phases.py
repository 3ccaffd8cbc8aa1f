"""Phase segmentation from per-period HPM vectors.

Each measurement period the controller closes becomes one
:class:`Interval`: a small vector of hardware/runtime signals (L1D miss
rate, GC cycle fraction, allocation rate, samples received, methods
compiled) — exactly the per-interval stream the paper's monitoring
layer already produces for free.  :func:`intervals_of` reads that stream
off the run's decision ledger (each ``period_close`` entry carries the
running totals it is the deltas of), and :func:`segment` cuts it into
*phases* with a change-point rule, in one pass in arrival order:

* every feature is normalized by a running per-dimension scale (the
  largest magnitude seen so far, so dimensionally incomparable signals
  — rates vs. counts — become comparable without a priori ranges);
* the pass keeps a rolling centroid of the current phase and computes
  the normalized Euclidean distance of each new interval from it;
* a boundary is committed only after :data:`HYSTERESIS` *consecutive*
  intervals exceed :data:`THRESHOLD` (single-interval spikes — a GC
  burst, one compilation storm — must not flap the segmentation).

Everything is plain deterministic arithmetic over observed values: no
randomness, no clock reads, no simulator mutation — the pure-observer
invariant the telemetry and lineage layers already obey.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.health.report import PhaseRecord
from repro.lineage.ledger import (
    E_ID,
    E_KIND,
    E_PARENTS,
    E_PAYLOAD,
    K_PERIOD,
    K_RANKING,
)

#: The features segmentation runs on, in canonical order.
FEATURES = ("miss_rate", "gc_fraction", "alloc_rate", "samples",
            "recompiles")

#: Normalized distance above which an interval counts against the
#: current phase (see :func:`segment`).
THRESHOLD = 0.30
#: Consecutive exceeding intervals required to commit a boundary.
HYSTERESIS = 2
#: Intervals always absorbed into the first phase while scales settle.
WARMUP_INTERVALS = 3
#: Hottest fields kept per interval (detector evidence, not policy).
TOP_FIELDS_PER_INTERVAL = 4


@dataclass
class Interval:
    """One measurement period's observed vector (pure observation)."""

    index: int
    start_cycle: int
    end_cycle: int
    samples: int
    miss_rate: float
    gc_fraction: float
    alloc_rate: float
    recompiles: int
    #: Ledger ids of the period's ``period_close`` entry and of the
    #: ``ranking`` entry that follows it.
    period_id: int
    ranking_id: int
    sampling_paused: bool = False
    #: Hottest fields this period: ((qualified_name, events), ...).
    top_fields: Tuple[Tuple[str, int], ...] = ()

    def features(self) -> Tuple[float, ...]:
        return (self.miss_rate, self.gc_fraction, self.alloc_rate,
                float(self.samples), float(self.recompiles))


def intervals_of(entries: Sequence[tuple]) -> List[Interval]:
    """The interval stream of a ledger's ``entries``: one per
    ``period_close`` entry followed by its ``ranking``, holding the
    deltas of its HPM vector since the previous interval.  A close with
    no new cycles since the previous one (the final drain landing on a
    timer boundary) is no interval.  ``top_fields`` ranks the events
    the period's attribution parents credited, which is what the
    monitor's per-period ``field_counts`` holds."""
    out: List[Interval] = []
    prev_cycle, prev_totals = 0, (0, 0, 0, 0, 0)
    period = None
    for entry in entries:
        if entry[E_KIND] == K_PERIOD:
            period = entry
            continue
        if entry[E_KIND] != K_RANKING or period is None:
            continue
        index, samples, _attributed, now_cycle, paused, *totals = \
            period[E_PAYLOAD]
        if now_cycle > prev_cycle:
            cycles = now_cycle - prev_cycle
            d_access, d_miss, d_gc, d_alloc, d_compiled = (
                now - before for now, before in zip(totals, prev_totals))
            events = {}
            for parent in period[E_PARENTS]:
                for field, _samples, count in entries[parent][E_PAYLOAD][3]:
                    events[field] = events.get(field, 0) + count
            ranked = sorted(events.items(),
                            key=lambda kv: (-kv[1], kv[0].qualified_name))
            out.append(Interval(
                index=index,
                start_cycle=prev_cycle,
                end_cycle=now_cycle,
                samples=samples,
                miss_rate=(d_miss / d_access) if d_access > 0 else 0.0,
                gc_fraction=d_gc / cycles,
                alloc_rate=d_alloc / cycles,
                recompiles=d_compiled,
                sampling_paused=paused,
                top_fields=tuple((field.qualified_name, count)
                                 for field, count
                                 in ranked[:TOP_FIELDS_PER_INTERVAL]),
                period_id=period[E_ID],
                ranking_id=entry[E_ID],
            ))
            prev_cycle, prev_totals = now_cycle, totals
        period = None
    return out


def _centroid(intervals: List[Interval]) -> List[float]:
    """The mean raw feature vector of ``intervals``."""
    acc = [0.0] * len(FEATURES)
    for iv in intervals:
        for i, value in enumerate(iv.features()):
            acc[i] += value
    return [value / len(intervals) for value in acc]


def _distance(current: List[Interval], interval: Interval,
              scales: List[float]) -> float:
    """Normalized distance of ``interval`` from the phase centroid (a
    dimension not seen non-zero yet contributes nothing)."""
    acc = 0.0
    for c, p, scale in zip(_centroid(current), interval.features(), scales):
        if scale > 0.0:
            acc += (p / scale - c / scale) ** 2
    return math.sqrt(acc / len(FEATURES))


def _phase(index: int, intervals: List[Interval]) -> PhaseRecord:
    return PhaseRecord(
        index=index,
        start_period=intervals[0].index,
        end_period=intervals[-1].index,
        start_cycle=intervals[0].start_cycle,
        end_cycle=intervals[-1].end_cycle,
        intervals=len(intervals),
        centroid=dict(zip(FEATURES, _centroid(intervals))),
        period_ids=tuple(iv.period_id for iv in intervals),
    )


def segment(intervals: Sequence[Interval]) -> List[PhaseRecord]:
    """Cut ``intervals`` into phases, in arrival order.  A sub-hysteresis
    tail of outliers folds into the last phase."""
    phases: List[PhaseRecord] = []
    #: Per-dimension running scale (max magnitude observed).
    scales = [0.0] * len(FEATURES)
    current: List[Interval] = []
    #: Intervals provisionally outside the current phase; committed as
    #: a new phase only once :data:`HYSTERESIS` arrive back to back.
    pending: List[Interval] = []
    for seen, interval in enumerate(intervals, 1):
        for i, value in enumerate(interval.features()):
            scales[i] = max(scales[i], abs(value))
        if seen <= WARMUP_INTERVALS or not current:
            current.append(interval)
        elif _distance(current, interval, scales) <= THRESHOLD:
            # Back in range: any pending outliers were a transient.
            current += pending
            pending = []
            current.append(interval)
        else:
            pending.append(interval)
            if len(pending) >= HYSTERESIS:
                phases.append(_phase(len(phases), current))
                current, pending = pending, []
    current += pending
    if current:
        phases.append(_phase(len(phases), current))
    return phases
