"""Generational mark-and-sweep plan (the paper's collector, section 5.1).

Young objects are bump-allocated in an Appel-style variable nursery;
minor collections promote survivors into a free-list-managed mature
space (40 size classes up to 4 KB); larger objects live in the LOS.
Full collections mark the whole heap and sweep free-list cells and LOS
entries.  The collections themselves are :class:`~repro.gc.plan.Plan`'s;
this plan supplies where a survivor goes (``_promote``) and the
free-list sweep (``_reclaim_mature``).  Mature objects never move — which is exactly why the paper
introduces *co-allocation at promotion time* to recover spatial
locality: the placement decided during the nursery trace is final.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import GCConfig
from repro.gc import layout
from repro.gc.coalloc import CoallocationPolicy
from repro.gc.freelist import FreeListSpace
from repro.gc.plan import GCHooks, Plan
from repro.observers import NO_OBSERVERS
from repro.vm.objects import SPACE_MATURE


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
            layout.MATURE_BASE, layout.MATURE_LIMIT - layout.MATURE_BASE,
            config.max_cell_bytes)
        self.mature_objects: List[object] = []

    # -- sizing --------------------------------------------------------------

    def mature_footprint(self) -> int:
        return self.freelist.bytes_in_use + self.los.bytes_in_use

    # -- collection ------------------------------------------------------------

    def _promote(self, obj) -> None:
        """Move one nursery survivor to a free-list cell.

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
            self.mature_objects.extend((obj, child))
            stats.note_coalloc(obj.class_info.name)
            stats.promoted_objects += 2
            stats.promoted_bytes += combined
            self.hooks.charge(int(cfg.copy_byte_cost * combined))
            return
        if self.coalloc is not None and not obj.is_array:
            stats.coalloc_rejected += 1
        size = obj.size
        cell = self.freelist.alloc(size)
        obj.address = cell.addr
        obj.space = SPACE_MATURE
        obj.cell = cell
        cell.inhabitants.append(obj)
        self.mature_objects.append(obj)
        stats.promoted_objects += 1
        stats.promoted_bytes += size
        self.hooks.charge(int(cfg.copy_byte_cost * size))

    def _reclaim_mature(self, live: List[object]) -> int:
        # A cell is released only when *all* its inhabitants are dead.
        survivors: List[object] = []
        freed_cells = []
        for obj in self.mature_objects:
            if obj.gc_mark:
                survivors.append(obj)
            else:
                cell = obj.cell
                cell.inhabitants.remove(obj)
                obj.cell = None
                if not cell.inhabitants:
                    freed_cells.append(cell)
        for cell in freed_cells:
            self.freelist.free(cell)
        self.hooks.charge(self.config.sweep_cell_cost * max(
            1, self.freelist.live_cells + len(freed_cells)))
        dead = len(self.mature_objects) - len(survivors)
        self.mature_objects = survivors
        return dead
