"""The online monitoring module (sections 5.3 and 6.4).

Attributed samples accumulate in two structures:

* **cumulative per-field counts** — "a per-reference event count which
  tells the runtime system how many misses occurred when dereferencing
  the corresponding access path expressions",
* **per-period time series** — "the rate of events for each reference
  field is measured throughout the execution", enabling phase-change
  detection and the optimization-assessment figures (7a: cumulative
  misses for ``String::value``; 7b: the per-period rate and its
  3-period moving average).

It also maintains the per-class hot-field ranking the GC consults when
promoting ("the VM keeps a list [of] the reference fields for each
class type sorted by number of associated cache misses", section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import MonitorConfig
from repro.vm.model import ClassInfo, FieldInfo


def moving_average(values: List[int], window: int) -> List[float]:
    """Trailing moving average over ``window`` periods ("the moving
    average over the last 3 periods ... follows the general trend
    without heavy local fluctuations", section 6.4).  Module-level so
    portable run records can smooth cached series without a monitor."""
    out: List[float] = []
    for i in range(len(values)):
        lo = max(0, i - window + 1)
        chunk = values[lo:i + 1]
        out.append(sum(chunk) / len(chunk))
    return out


@dataclass
class PeriodRecord:
    """One closed measurement period."""

    index: int
    end_cycle: int
    #: Events attributed per field during this period.
    field_counts: Dict[FieldInfo, int]
    #: All attributed events in the period.
    total: int


class OnlineMonitor:
    """Per-field / per-class event accounting with period aggregation.

    Counts are *estimated event counts*: each sample is weighted by the
    sampling interval in force when it was taken (inverse sampling
    probability), so the reported numbers approximate true miss counts
    even under the adaptive "auto" interval.  Hot-field *guidance*
    thresholds use raw sample counts (``sample_counts``) — evidence is
    a number of observations, not an extrapolation.
    """

    def __init__(self, config: MonitorConfig):
        self.config = config
        self.cumulative: Dict[FieldInfo, int] = {}
        self._current: Dict[FieldInfo, int] = {}
        self.periods: List[PeriodRecord] = []
        #: field -> raw number of samples attributed (guidance evidence).
        self.sample_counts: Dict[FieldInfo, int] = {}
        #: method -> estimated events landing in its code (all resolved
        #: samples, attributed or not): machine-level feedback usable by
        #: any part of the runtime, e.g. to steer recompilation.
        self.method_events: Dict[object, int] = {}
        #: class -> field -> cumulative estimated events (hot ranking).
        self._by_class: Dict[ClassInfo, Dict[FieldInfo, int]] = {}
        self._hot_cache: Dict[ClassInfo, Optional[FieldInfo]] = {}
        self.total_attributed = 0

    # -- recording -----------------------------------------------------------

    def record(self, field: FieldInfo, weight: int = 1) -> None:
        """Credit one sample, scaled to ``weight`` estimated events."""
        self.cumulative[field] = self.cumulative.get(field, 0) + weight
        self._current[field] = self._current.get(field, 0) + weight
        self.sample_counts[field] = self.sample_counts.get(field, 0) + 1
        self.total_attributed += 1
        klass = field.declaring_class
        per_class = self._by_class.setdefault(klass, {})
        per_class[field] = per_class.get(field, 0) + weight
        self._hot_cache.pop(klass, None)

    def record_method(self, method, weight: int = 1) -> None:
        """Credit a resolved sample to the method containing its EIP."""
        self.method_events[method] = self.method_events.get(method, 0) + weight

    def ranked_methods(self) -> List[Tuple[object, int]]:
        """Methods by estimated event count, hottest first."""
        return sorted(self.method_events.items(), key=lambda kv: -kv[1])

    def close_period(self, now_cycle: int) -> PeriodRecord:
        """End the current measurement period and open the next."""
        record = PeriodRecord(len(self.periods), now_cycle,
                              dict(self._current),
                              sum(self._current.values()))
        self.periods.append(record)
        self._current = {}
        return record

    # -- hot-field ranking (read by the co-allocation policy) --------------------

    def ranked_fields(self, klass: ClassInfo) -> List[Tuple[FieldInfo, int]]:
        """Reference fields of ``klass`` sorted by miss count, hottest first."""
        per_class = self._by_class.get(klass, {})
        return sorted(per_class.items(), key=lambda kv: -kv[1])

    def hot_field(self, klass: ClassInfo,
                  min_samples: int = 1) -> Optional[FieldInfo]:
        """The hottest reference field of ``klass``, or None below the
        evidence threshold (``min_samples`` raw attributed samples)."""
        if klass in self._hot_cache:
            hot = self._hot_cache[klass]
        else:
            ranked = self.ranked_fields(klass)
            hot = ranked[0][0] if ranked else None
            self._hot_cache[klass] = hot
        if hot is None:
            return None
        if self.sample_counts.get(hot, 0) < min_samples:
            return None
        return hot

    # -- time series (Figures 7 and 8) ---------------------------------------------

    def series(self, field: FieldInfo) -> List[Tuple[int, int]]:
        """Per-period counts for ``field``: [(end_cycle, events), ...]."""
        return [(p.end_cycle, p.field_counts.get(field, 0))
                for p in self.periods]

    def cumulative_series(self, field: FieldInfo) -> List[Tuple[int, int]]:
        """Running total per period — Figure 7(a)'s shape."""
        out = []
        total = 0
        for p in self.periods:
            total += p.field_counts.get(field, 0)
            out.append((p.end_cycle, total))
        return out

    def moving_average(self, values: List[int]) -> List[float]:
        """Trailing moving average at the configured window (see the
        module-level :func:`moving_average`)."""
        return moving_average(values, self.config.moving_average_window)

    def recent_rate(self, field: FieldInfo) -> float:
        """Moving-average events/period for ``field`` over recent periods."""
        recent = self.periods[-self.config.moving_average_window:]
        if not recent:
            return 0.0
        return sum(p.field_counts.get(field, 0) for p in recent) / len(recent)
