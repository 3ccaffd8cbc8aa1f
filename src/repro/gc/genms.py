"""Generational mark-and-sweep plan (the paper's collector, section 5.1).

Young objects are bump-allocated in an Appel-style variable nursery;
minor collections promote survivors into a free-list-managed mature
space (40 size classes up to 4 KB); larger objects live in the LOS.
Full collections mark the whole heap and sweep free-list cells and LOS
entries.  Mature objects never move — which is exactly why the paper
introduces *co-allocation at promotion time* to recover spatial
locality: the placement decided during the nursery trace is final.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import GCConfig
from repro.gc import layout
from repro.gc.coalloc import CoallocationPolicy
from repro.gc.freelist import FreeListSpace
from repro.gc.plan import GCHooks, HeapExhausted, Plan
from repro.observers import NO_OBSERVERS
from repro.vm.objects import SPACE_LOS, SPACE_MATURE, SPACE_NURSERY


class GenMSPlan(Plan):
    """The FastAdaptiveGenMS analog, with optional HPM-guided co-allocation."""

    name = "genms"

    def __init__(self, config: GCConfig, hooks: Optional[GCHooks] = None,
                 coalloc: Optional[CoallocationPolicy] = None,
                 observers=NO_OBSERVERS):
        super().__init__(config, hooks, coalloc, observers)
        # The region is the whole mature address range; the *budget* is
        # enforced against bytes in use, not address space.
        self.freelist = FreeListSpace(
            layout.MATURE_BASE, layout.MATURE_LIMIT - layout.MATURE_BASE
        )
        self.mature_objects: List[object] = []

    # -- sizing --------------------------------------------------------------

    def mature_footprint(self) -> int:
        return self.freelist.bytes_in_use + self.los.bytes_in_use

    # -- minor collection -------------------------------------------------------

    def collect_minor(self) -> None:
        if self._collecting:
            return
        self._collecting = True
        self._trace.begin("gc.minor", cat="gc")
        promoted_before = self.stats.promoted_objects
        try:
            cfg = self.config
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
        """Move one nursery survivor to the mature space (or LOS).

        This is where co-allocation happens: "when the GC hits an object
        that contains reference fields ... it checks if it is possible to
        co-allocate the most frequently missed child object"
        (section 5.4).
        """
        cfg = self.config
        stats = self.stats
        pair = self.coalloc.select_child(obj) if self.coalloc else None
        if pair is not None:
            child, combined = pair
            cell = self.freelist.alloc(combined)
            gap = self.coalloc.gap_bytes
            obj.address = cell.addr
            child.address = cell.addr + obj.size + gap
            self._obs.placement_commit(obj.address, child.address)
            obj.space = child.space = SPACE_MATURE
            obj.cell = child.cell = cell
            obj.coallocated = child.coallocated = True
            cell.inhabitants.extend((obj, child))
            self.mature_objects.append(obj)
            self.mature_objects.append(child)
            stats.note_coalloc(obj.class_info.name)
            stats.promoted_objects += 2
            stats.promoted_bytes += combined
            self.hooks.charge(int(cfg.copy_byte_cost * combined))
            return
        if self.coalloc is not None and not obj.is_array:
            stats.coalloc_rejected += 1
        size = obj.size
        if size > cfg.max_cell_bytes:
            addr = self.los.alloc(size)
            if addr is None:
                raise HeapExhausted("LOS exhausted during promotion")
            obj.address = addr
            obj.space = SPACE_LOS
            self.los_objects.append(obj)
        else:
            cell = self.freelist.alloc(size)
            obj.address = cell.addr
            obj.space = SPACE_MATURE
            obj.cell = cell
            cell.inhabitants.append(obj)
            self.mature_objects.append(obj)
        stats.promoted_objects += 1
        stats.promoted_bytes += size
        self.hooks.charge(int(cfg.copy_byte_cost * size))

    # -- full collection -----------------------------------------------------------

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

        # Sweep the free-list space: a cell is released only when *all*
        # its inhabitants are dead.
        survivors: List[object] = []
        dead = 0
        freed_cells = []
        for obj in self.mature_objects:
            if obj.gc_mark:
                survivors.append(obj)
            else:
                dead += 1
                cell = obj.cell
                cell.inhabitants.remove(obj)
                obj.cell = None
                if not cell.inhabitants:
                    freed_cells.append(cell)
        for cell in freed_cells:
            self.freelist.free(cell)
        self.hooks.charge(cfg.sweep_cell_cost * max(1, self.freelist.live_cells
                                                    + len(freed_cells)))
        self.mature_objects = survivors

        # Sweep the large-object space.
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
                f"live data ({self.mature_footprint()} B) exceeds the heap "
                f"budget ({cfg.heap_bytes} B)"
            )
        if not self.nursery_objects:
            self._resize_nursery()
