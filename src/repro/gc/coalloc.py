"""HPM-guided object co-allocation policy (section 5.4).

When the GC promotes an object whose class has a "hot" reference field
(ranked hottest by cache-miss count, supplied online by the monitoring
controller), it tries to co-allocate the parent with that child: one
free-list cell is requested for the combined size, so both objects end
up contiguous — usually within one 128-byte cache line — and the child
is implicitly prefetched whenever the parent is touched.

The policy layer is deliberately separate from the collector:

* the *ranking* comes from :class:`repro.core.controller`'s per-class
  hot-field table (or any callable, which tests exploit),
* the *mechanism* (combined cells, placement) lives in
  :mod:`repro.gc.genms`,
* Figure 8's controlled experiment injects ``gap_bytes`` between parent
  and child — the deliberately bad placement the online feedback must
  detect and revert.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.observers import NO_OBSERVERS
from repro.vm.model import ClassInfo, FieldInfo
from repro.vm.objects import SPACE_NURSERY

#: Type of the hot-field oracle: class -> hottest reference field or None.
HotFieldProvider = Callable[[ClassInfo], Optional[FieldInfo]]


class CoallocationPolicy:
    """Decides, per promoted object, whether and how to co-allocate."""

    def __init__(self, hot_field_provider: HotFieldProvider,
                 max_combined_bytes: int = 4096,
                 gap_bytes: int = 0,
                 enabled: bool = True,
                 observers=NO_OBSERVERS):
        self.hot_field_provider = hot_field_provider
        self._obs = observers
        self.max_combined_bytes = max_combined_bytes
        #: Empty space inserted between parent and child (0 normally;
        #: 128 in Figure 8's deliberately poor configuration).
        self.gap_bytes = gap_bytes
        self.enabled = enabled
        self._m_accepted = observers.metrics.counter(
            "gc.coalloc.accepted",
            "co-allocations performed, labeled (class, field)")
        # Decision statistics.
        self.considered = 0
        self.no_hot_field = 0
        self.child_unavailable = 0
        self.too_large = 0
        self.accepted = 0

    def select_child(self, obj) -> "tuple | None":
        """Return ``(child, combined_size)`` when ``obj`` should be
        co-allocated with its hottest child, else None.

        ``obj`` must still be in the nursery (promotion in progress); the
        child qualifies only if it is a live nursery object that has not
        been promoted yet and the combined allocation fits the free-list
        limit (section 5.4).
        """
        if not self.enabled:
            return None
        klass = obj.class_info
        if klass is None:  # arrays have no per-class hot-field entry
            return None
        self.considered += 1
        field = self.hot_field_provider(klass)
        if field is None:
            self.no_hot_field += 1
            return None
        child = obj.slots[field.index]
        if child is None or child.space != SPACE_NURSERY or child is obj:
            self.child_unavailable += 1
            return None
        combined = obj.size + self.gap_bytes + child.size
        if combined > self.max_combined_bytes:
            self.too_large += 1
            return None
        self.accepted += 1
        self._m_accepted.labels(klass.name, field.name).inc()
        self._obs.placement_pending(klass, field, obj.size, child.size,
                                    self.gap_bytes, combined)
        return child, combined

    def set_gap(self, gap_bytes: int) -> None:
        """Change the placement gap (Figure 8's manual intervention)."""
        if gap_bytes < 0:
            raise ValueError("gap must be non-negative")
        self._obs.gap_set(self.gap_bytes, gap_bytes)
        self.gap_bytes = gap_bytes

    def publish_metrics(self, metrics) -> None:
        """Export the decision statistics (call once per run)."""
        metrics.counter("gc.coalloc.considered",
                        "promotions examined for co-allocation"
                        ).inc(self.considered)
        rejected = metrics.counter("gc.coalloc.rejected",
                                   "co-allocation rejections, by reason")
        for reason, count in (("no_hot_field", self.no_hot_field),
                              ("child_unavailable", self.child_unavailable),
                              ("too_large", self.too_large)):
            if count:
                rejected.labels(reason).inc(count)


def static_hot_fields(table: dict) -> HotFieldProvider:
    """Build a provider from a fixed {ClassInfo: FieldInfo} table.

    Used by unit tests and by ablation benchmarks that bypass the online
    monitoring (e.g. to measure the oracle upper bound).
    """
    def provider(klass: ClassInfo) -> Optional[FieldInfo]:
        return table.get(klass)
    return provider
