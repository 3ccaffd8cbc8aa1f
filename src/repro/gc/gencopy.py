"""Generational copying plan (Figure 6's comparator).

GenCopy pairs the same Appel-style nursery with a *semispace* mature
space: minor collections copy survivors to the mature to-space in
Cheney (breadth-first) order, and full collections evacuate the live
mature objects into the other semispace, again in traversal order.

Copying "generally enhances data locality" (section 5.1, [9]) because
allocation order follows the object graph — but it costs a copy
reserve: only half the mature budget is usable, so at small heaps
GenCopy collects far more often than GenMS.  Figure 6 shows the paper's
GenMS+co-allocation beating GenCopy at *all* heap sizes; the benchmark
harness reproduces that comparison.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import GCConfig
from repro.gc import layout
from repro.gc.bump import BumpAllocator
from repro.gc.plan import GCHooks, HeapExhausted, Plan
from repro.observers import NO_OBSERVERS
from repro.vm.objects import SPACE_LOS, SPACE_MATURE, SPACE_NURSERY

#: Address span reserved for each semispace.
_SEMI_SPAN = (layout.MATURE_LIMIT - layout.MATURE_BASE) // 2


class GenCopyPlan(Plan):
    """Generational copying collector with a semispace mature space."""

    name = "gencopy"

    def __init__(self, config: GCConfig, hooks: Optional[GCHooks] = None,
                 coalloc=None, observers=NO_OBSERVERS):
        if coalloc is not None:
            raise ValueError(
                "co-allocation requires the free-list mature space (GenMS); "
                "a copying mature space re-decides placement at every GC"
            )
        super().__init__(config, hooks, None, observers)
        self._spaces = (
            BumpAllocator(layout.MATURE_BASE, _SEMI_SPAN),
            BumpAllocator(layout.MATURE_BASE + _SEMI_SPAN, _SEMI_SPAN),
        )
        self._to_index = 0
        self.mature_objects: List[object] = []

    @property
    def tospace(self) -> BumpAllocator:
        return self._spaces[self._to_index]

    # -- sizing --------------------------------------------------------------------

    def mature_footprint(self) -> int:
        # The copy reserve makes every mature byte cost two bytes of budget.
        return 2 * self.tospace.used + self.los.bytes_in_use

    # -- minor collection ---------------------------------------------------------------

    def collect_minor(self) -> None:
        if self._collecting:
            return
        self._collecting = True
        self._trace.begin("gc.minor", cat="gc")
        promoted_before = self.stats.promoted_objects
        try:
            cfg = self.config
            # Guarantee the copy reserve: if the to-space cannot absorb a
            # full nursery, evacuate the mature space first.
            if self.tospace.remaining < self.nursery.used:
                self._full_locked()
                if self.tospace.remaining < self.nursery.used:
                    raise HeapExhausted("copy reserve exhausted")
            self.stats.minor_gcs += 1
            self.hooks.charge(cfg.minor_fixed_cost)
            order = self._trace_live_nursery(self._minor_roots())
            self.hooks.charge(cfg.scan_object_cost * len(order))
            for obj in order:
                if obj.space == SPACE_NURSERY:
                    self._promote(obj)
            self.nursery_objects = []
            self.remset.clear()
            footprint = self.mature_footprint()
            if footprint > self.stats.peak_footprint:
                self.stats.peak_footprint = footprint
            if cfg.pollute_caches:
                self.hooks.pollute_minor()
            if self.heap_pressure():
                self._full_locked()
            self._resize_nursery()
        finally:
            span = self._trace.end(
                promoted=self.stats.promoted_objects - promoted_before)
            if span is not None:
                self._m_pause.observe(span.dur)
            self._collecting = False

    def _promote(self, obj) -> None:
        cfg = self.config
        size = obj.size
        if size > cfg.max_cell_bytes:
            addr = self.los.alloc(size)
            if addr is None:
                raise HeapExhausted("LOS exhausted during promotion")
            obj.address = addr
            obj.space = SPACE_LOS
            self.los_objects.append(obj)
        else:
            addr = self.tospace.alloc(size)
            if addr is None:
                raise HeapExhausted("to-space exhausted during promotion")
            obj.address = addr
            obj.space = SPACE_MATURE
            self.mature_objects.append(obj)
        self.stats.promoted_objects += 1
        self.stats.promoted_bytes += size
        self.hooks.charge(int(cfg.copy_byte_cost * size))

    # -- full collection ------------------------------------------------------------------

    def collect_full(self) -> None:
        if self._collecting:
            return
        self._collecting = True
        try:
            self._full_locked()
        finally:
            self._collecting = False

    def _full_locked(self) -> None:
        cfg = self.config
        self.stats.full_gcs += 1
        self._trace.begin("gc.full", cat="gc")
        try:
            self._full_body(cfg)
        finally:
            span = self._trace.end()
            if span is not None:
                self._m_pause.observe(span.dur)

    def _full_body(self, cfg) -> None:
        self.hooks.charge(cfg.full_fixed_cost)
        live = self._trace_all_live()
        self.hooks.charge(cfg.mark_object_cost * len(live))

        # Evacuate live mature objects into the other semispace in BFS
        # order (this is the locality advantage of a copying collector:
        # parents and children end up near each other).
        from_index = self._to_index
        self._to_index = 1 - self._to_index
        target = self.tospace
        target.reset(_SEMI_SPAN)
        survivors: List[object] = []
        copied_bytes = 0
        dead = 0
        old_count = len(self.mature_objects)
        for obj in live:  # BFS order from the trace
            if obj.space == SPACE_MATURE:
                addr = target.alloc(obj.size)
                if addr is None:  # pragma: no cover - span is huge
                    raise HeapExhausted("semispace overflow")
                obj.address = addr
                survivors.append(obj)
                copied_bytes += obj.size
        dead += old_count - len(survivors)
        self.mature_objects = survivors
        self._spaces[from_index].reset(_SEMI_SPAN)
        self.hooks.charge(int(cfg.copy_byte_cost * copied_bytes))

        los_survivors = []
        for obj in self.los_objects:
            if obj.gc_mark:
                los_survivors.append(obj)
            else:
                self.los.free(obj.address)
                dead += 1
        self.los_objects = los_survivors
        self.stats.swept_objects += dead

        for obj in live:
            obj.gc_mark = False
        if cfg.pollute_caches:
            self.hooks.pollute_full()
        if self.mature_footprint() > cfg.heap_bytes:
            raise HeapExhausted(
                f"live data ({self.mature_footprint()} B, incl. copy "
                f"reserve) exceeds the heap budget ({cfg.heap_bytes} B)"
            )
        if not self.nursery_objects:
            self._resize_nursery()


def make_plan(name: str, config: GCConfig, hooks: Optional[GCHooks] = None,
              coalloc=None, observers=NO_OBSERVERS) -> Plan:
    """Plan factory used by the VM: ``genms`` or ``gencopy``."""
    from repro.gc.genms import GenMSPlan

    if name == "genms":
        return GenMSPlan(config, hooks, coalloc, observers)
    if name == "gencopy":
        return GenCopyPlan(config, hooks, coalloc, observers)
    raise ValueError(f"unknown GC plan {name!r}")
