"""Online phase segmentation from per-interval HPM vectors.

Each measurement period the controller closes becomes one
:class:`Interval`: a small vector of hardware/runtime signals (L1D miss
rate, GC cycle fraction, allocation rate, samples received, methods
compiled) — exactly the per-interval stream the paper's monitoring
layer already produces for free.  :class:`PhaseTracker` segments that
stream into *phases* online with a change-point rule:

* every feature is normalized by a running per-dimension scale (the
  largest magnitude seen so far, so dimensionally incomparable signals
  — rates vs. counts — become comparable without a priori ranges);
* the tracker keeps a rolling centroid of the current phase and
  computes the normalized Euclidean distance of each new interval from
  it;
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
from typing import List, Optional, Tuple

from repro.health.report import PhaseRecord

#: The features segmentation runs on, in canonical order.
FEATURES = ("miss_rate", "gc_fraction", "alloc_rate", "samples",
            "recompiles")

#: Normalized distance above which an interval counts against the
#: current phase (see :class:`PhaseTracker`).
THRESHOLD = 0.30
#: Consecutive exceeding intervals required to commit a boundary.
HYSTERESIS = 2
#: Intervals always absorbed into the first phase while scales settle.
WARMUP_INTERVALS = 3


@dataclass
class Interval:
    """One measurement period's observed vector (pure observation)."""

    index: int
    start_cycle: int
    end_cycle: int
    samples: int
    attributed: int
    miss_rate: float
    gc_fraction: float
    alloc_rate: float
    recompiles: int
    sampling_paused: bool = False
    #: Hottest fields this period: ((qualified_name, events), ...).
    top_fields: Tuple[Tuple[str, int], ...] = ()
    #: Ledger ids of the matching period_close / ranking_snapshot
    #: entries (-1 when no ledger is attached).
    ledger_period_id: int = -1
    ledger_ranking_id: int = -1

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle

    def features(self) -> Tuple[float, ...]:
        return (self.miss_rate, self.gc_fraction, self.alloc_rate,
                float(self.samples), float(self.recompiles))


class PhaseTracker:
    """Segments the interval stream into phases, online."""

    def __init__(self):
        self.phases: List[PhaseRecord] = []
        #: Per-dimension running scale (max magnitude observed).
        self._scales = [0.0] * len(FEATURES)
        #: Current phase accumulator.
        self._current: List[Interval] = []
        #: Intervals provisionally outside the current phase (the
        #: hysteresis buffer); committed as a new phase only once
        #: :data:`HYSTERESIS` of them arrive back to back.
        self._pending: List[Interval] = []
        self._seen = 0

    # -- distance ----------------------------------------------------------

    def _update_scales(self, feats: Tuple[float, ...]) -> None:
        for i, value in enumerate(feats):
            magnitude = abs(value)
            if magnitude > self._scales[i]:
                self._scales[i] = magnitude

    def _normalize(self, feats: Tuple[float, ...]) -> List[float]:
        return [feats[i] / self._scales[i] if self._scales[i] > 0.0 else 0.0
                for i in range(len(feats))]

    def _centroid_raw(self, intervals: List[Interval]) -> List[float]:
        n = len(intervals)
        acc = [0.0] * len(FEATURES)
        for iv in intervals:
            for i, value in enumerate(iv.features()):
                acc[i] += value
        return [value / n for value in acc]

    def distance(self, interval: Interval) -> float:
        """Normalized distance of ``interval`` from the phase centroid."""
        if not self._current:
            return 0.0
        centroid = self._normalize(tuple(self._centroid_raw(self._current)))
        point = self._normalize(interval.features())
        acc = 0.0
        for c, p in zip(centroid, point):
            acc += (p - c) ** 2
        return math.sqrt(acc / len(FEATURES))

    # -- segmentation ------------------------------------------------------

    def observe(self, interval: Interval) -> Optional[PhaseRecord]:
        """Feed one interval; returns the phase just *closed*, if any."""
        self._seen += 1
        self._update_scales(interval.features())
        if self._seen <= WARMUP_INTERVALS or not self._current:
            self._current.append(interval)
            return None
        if self.distance(interval) <= THRESHOLD:
            # Interval belongs to the current phase; any pending
            # outliers were a transient — fold them back in.
            self._current.extend(self._pending)
            self._pending.clear()
            self._current.append(interval)
            return None
        self._pending.append(interval)
        if len(self._pending) < HYSTERESIS:
            return None
        # Boundary committed: the pending run becomes the new phase.
        closed = self._close_current()
        self._current = list(self._pending)
        self._pending = []
        return closed

    def _close_current(self) -> PhaseRecord:
        intervals = self._current
        centroid = self._centroid_raw(intervals)
        record = PhaseRecord(
            index=len(self.phases),
            start_period=intervals[0].index,
            end_period=intervals[-1].index,
            start_cycle=intervals[0].start_cycle,
            end_cycle=intervals[-1].end_cycle,
            intervals=len(intervals),
            centroid=dict(zip(FEATURES, centroid)),
            period_ids=tuple(iv.ledger_period_id for iv in intervals
                             if iv.ledger_period_id >= 0),
        )
        self.phases.append(record)
        return record

    def finish(self) -> List[PhaseRecord]:
        """Close the open phase (folding any sub-hysteresis tail in)."""
        if self._pending:
            self._current.extend(self._pending)
            self._pending = []
        if self._current:
            self._close_current()
            self._current = []
        return self.phases
