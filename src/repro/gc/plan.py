"""Common machinery of the generational collection plans.

A *plan* (MMTk terminology) owns the heap spaces, the allocation entry
points used by the CPU's ``alloc`` instructions, the write barrier, and
the collection triggers.  :class:`Plan` holds the one collection both
plans run: the minor collection (trace the nursery from the roots and
the remembered set, promote the survivors in trace order), the full
collection (mark the whole heap, reclaim the mature space, sweep the
LOS, unmark, pollute, check the budget, resize the nursery) and the
charges, statistics and ``gc.minor``/``gc.full`` spans around them.
:class:`GenMSPlan` and :class:`GenCopyPlan` supply only what differs:

* ``_promote(obj)`` places one nursery survivor in the mature space
  (a free-list cell, co-allocated or not; or a to-space bump) — no
  survivor goes to the LOS, which takes every larger object when it is
  allocated;
* ``_reclaim_mature(live)`` frees the mature space's dead objects in a
  full collection (a free-list sweep, or a semispace evacuation) and
  returns how many there were;
* ``_before_minor()`` runs as a minor collection opens (GenCopy
  guarantees its copy reserve there; nothing by default).

The plan talks to the rest of the VM through :class:`GCHooks`:

* ``roots()`` enumerates the root objects (thread stacks via GC maps,
  statics),
* ``charge(cycles)`` adds collector work to the simulated time,
* ``pollute_minor()/pollute_full()`` model cache displacement
  (DESIGN.md §5: the collector does not run through the cache simulator),
* ``safepoint()`` runs before an allocation-triggered collection reads
  the clock or the roots, so a CPU that defers memory accesses and
  charges can land them first,
* ``land_charge(latency, cycles, n)`` is ``charge`` as a clock entry of
  such a CPU's log (a write barrier's deferred charge, or the summed
  charges a region exit lands): it returns ``latency`` untouched.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.core.config import GCConfig
from repro.gc import layout
from repro.gc.bump import BumpAllocator
from repro.gc.coalloc import CoallocationPolicy
from repro.gc.los import LargeObjectSpace
from repro.gc.remset import RememberedSet
from repro.gc.stats import GCStats
from repro.observers import NO_OBSERVERS
from repro.vm.model import ClassInfo
from repro.vm.objects import (
    SPACE_LOS,
    SPACE_NURSERY,
    HeapArray,
    HeapObject,
)


class HeapExhausted(Exception):
    """The configured heap budget cannot satisfy an allocation."""


class GCHooks:
    """Callbacks wiring a plan into the VM.

    The defaults make a plan usable standalone in unit tests: no roots,
    free collections, no cache model.
    """

    def __init__(self,
                 roots: Callable[[], Iterable] = lambda: (),
                 charge: Callable[[int], None] = lambda cycles: None,
                 pollute_minor: Callable[[], None] = lambda: None,
                 pollute_full: Callable[[], None] = lambda: None,
                 safepoint: Callable[[], None] = lambda: None,
                 land_charge: Optional[Callable[[int, int, int], int]] = None):
        self.roots = roots
        self.charge = charge
        self.pollute_minor = pollute_minor
        self.pollute_full = pollute_full
        self.safepoint = safepoint
        self.land_charge = land_charge or (
            lambda latency, cycles, n: (charge(cycles), latency)[1])


class Plan:
    """Base class: nursery allocation, LOS, barrier, heap sizing."""

    name = "base"

    def __init__(self, config: GCConfig, hooks: Optional[GCHooks] = None,
                 coalloc: Optional[CoallocationPolicy] = None,
                 observers=NO_OBSERVERS):
        self.config = config
        self.hooks = hooks or GCHooks()
        self.coalloc = coalloc
        self.stats = GCStats()
        self._obs = observers
        self._trace = observers.tracer
        self.remset = RememberedSet()
        self.los = LargeObjectSpace(layout.LOS_BASE,
                                    layout.LOS_LIMIT - layout.LOS_BASE)
        self.los_objects: List[object] = []
        self.nursery = BumpAllocator(layout.NURSERY_BASE,
                                     self._initial_nursery())
        self._collecting = False

    def publish_metrics(self, metrics) -> None:
        """Export the collection statistics (call once per run)."""
        stats = self.stats
        metrics.counter("gc.minor_collections", "nursery collections"
                        ).inc(stats.minor_gcs)
        metrics.counter("gc.full_collections", "whole-heap collections"
                        ).inc(stats.full_gcs)
        metrics.counter("gc.promoted_objects",
                        "objects promoted out of the nursery"
                        ).inc(stats.promoted_objects)
        metrics.counter("gc.promoted_bytes",
                        "bytes promoted out of the nursery"
                        ).inc(stats.promoted_bytes)
        pauses = metrics.histogram("gc.pause_cycles",
                                   "simulated cycles per collection")
        for span in self._trace.spans:
            if span.name in ("gc.minor", "gc.full"):
                pauses.observe(span.dur)

    # -- sizing ------------------------------------------------------------------

    def _initial_nursery(self) -> int:
        cfg = self.config
        return min(cfg.max_nursery_bytes,
                   max(cfg.min_nursery_bytes, cfg.heap_bytes // 2))

    def mature_footprint(self) -> int:
        """Bytes of the budget consumed by the old generation."""
        raise NotImplementedError

    def _resize_nursery(self) -> None:
        """Appel-style variable nursery: half the remaining budget,
        clamped to the configured bounds."""
        cfg = self.config
        free = cfg.heap_bytes - self.mature_footprint()
        self.nursery.reset(min(cfg.max_nursery_bytes,
                               max(cfg.min_nursery_bytes, free // 2)))

    def heap_pressure(self) -> bool:
        """True when the old generation needs a full collection."""
        budget = self.config.heap_bytes
        return self.mature_footprint() > budget - 2 * self.config.min_nursery_bytes

    # -- allocation ---------------------------------------------------------------

    def alloc_object(self, class_info: ClassInfo) -> HeapObject:
        return self._place_new(HeapObject(class_info))

    def alloc_array(self, kind: str, length: int) -> HeapArray:
        return self._place_new(HeapArray(kind, length))

    def _place_new(self, obj):
        """Place a new object, built nursery-space; return it."""
        size = obj.size
        self.stats.alloc_objects += 1
        self.stats.alloc_bytes += size
        if size > self.config.max_cell_bytes:
            # Large objects bypass the nursery (section 5.1: handled in a
            # separate portion of the heap).
            addr = self.los.alloc(size)
            if addr is None:
                self.hooks.safepoint()
                self.collect_full()
                addr = self.los.alloc(size)
                if addr is None:
                    raise HeapExhausted(f"LOS cannot fit {size} bytes")
            obj.address = addr
            obj.space = SPACE_LOS
            self.los_objects.append(obj)
            self.stats.los_objects += 1
            return obj
        addr = self.nursery.alloc(size)
        if addr is None:
            self.hooks.safepoint()
            self.collect_minor()
            addr = self.nursery.alloc(size)
            if addr is None:
                raise HeapExhausted(
                    f"nursery of {self.nursery.capacity} B cannot fit {size} B"
                )
        obj.address = addr
        return obj

    # -- write barrier ---------------------------------------------------------------

    def write_barrier(self, holder, slot_index: int, value) -> None:
        """Reference-store barrier; records mature->nursery slots."""
        self.remset.record_store(holder, slot_index, value)
        self.hooks.charge(self.config.write_barrier_cost)

    # -- collection -------------------------------------------------------------------

    def collect_minor(self) -> None:
        if self._collecting:
            return
        self._collecting = True
        self._trace.begin("gc.minor", cat="gc")
        promoted_before = self.stats.promoted_objects
        try:
            cfg = self.config
            self._before_minor()
            self.stats.minor_gcs += 1
            self.hooks.charge(cfg.minor_fixed_cost)
            order = self._trace_live_nursery(self._minor_roots())
            self.hooks.charge(cfg.scan_object_cost * len(order))
            for obj in order:
                if obj.space == SPACE_NURSERY:
                    self._promote(obj)
            self.remset.clear()
            footprint = self.mature_footprint()
            if footprint > self.stats.peak_footprint:
                self.stats.peak_footprint = footprint
            self.hooks.pollute_minor()
            if self.heap_pressure():
                self._full()
            self._resize_nursery()
        finally:
            self._trace.end(
                promoted=self.stats.promoted_objects - promoted_before)
            self._collecting = False

    def collect_full(self) -> None:
        if self._collecting:
            return
        self._collecting = True
        try:
            self._full()
        finally:
            self._collecting = False

    def _full(self) -> None:
        """The full collection, with ``_collecting`` already set."""
        cfg = self.config
        self.stats.full_gcs += 1
        self._trace.begin("gc.full", cat="gc")
        try:
            self.hooks.charge(cfg.full_fixed_cost)
            live = self._trace_all_live()
            self.hooks.charge(cfg.mark_object_cost * len(live))
            dead = self._reclaim_mature(live)
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
            self.hooks.pollute_full()
            footprint = self.mature_footprint()
            if footprint > cfg.heap_bytes:
                raise HeapExhausted(
                    f"live data ({footprint} B) exceeds the heap budget "
                    f"({cfg.heap_bytes} B)")
            if not self.nursery.used:
                self._resize_nursery()
        finally:
            self._trace.end()

    def _before_minor(self) -> None:
        """Runs as a minor collection opens, before it counts itself."""

    def _promote(self, obj) -> None:
        """Move one nursery survivor into the mature space."""
        raise NotImplementedError

    def _reclaim_mature(self, live: List[object]) -> int:
        """Free the mature space's unmarked objects (``live`` is the
        marked heap in trace order); return how many there were."""
        raise NotImplementedError

    def _minor_roots(self) -> List[object]:
        """Nursery objects directly reachable from roots and the remset."""
        out = []
        for root in self.hooks.roots():
            if root is not None and root.space == SPACE_NURSERY:
                out.append(root)
        out.extend(self.remset.targets())
        return out

    def _trace_live_nursery(self, seeds: List[object]) -> List[object]:
        """BFS over nursery objects only; returns them in trace order.

        The old generation is not traversed: mature->nursery edges are
        covered by the remembered set (the seeds).
        """
        order: List[object] = []
        seen = set()
        queue = list(seeds)
        head = 0
        while head < len(queue):
            obj = queue[head]
            head += 1
            key = id(obj)
            if key in seen:
                continue
            seen.add(key)
            order.append(obj)
            if obj.is_array:
                if obj.kind == "ref":
                    for child in obj.elements:
                        if child is not None and child.space == SPACE_NURSERY:
                            queue.append(child)
            else:
                for slot, field in zip(obj.slots, obj.class_info.fields):
                    if field.kind == "ref" and slot is not None \
                            and slot.space == SPACE_NURSERY:
                        queue.append(slot)
        return order

    def _trace_all_live(self) -> List[object]:
        """Full-heap reachability (mark phase), in BFS order."""
        order: List[object] = []
        seen = set()
        queue = [r for r in self.hooks.roots() if r is not None]
        head = 0
        while head < len(queue):
            obj = queue[head]
            head += 1
            key = id(obj)
            if key in seen:
                continue
            seen.add(key)
            obj.gc_mark = True
            order.append(obj)
            if obj.is_array:
                if obj.kind == "ref":
                    queue.extend(c for c in obj.elements if c is not None)
            else:
                for slot, field in zip(obj.slots, obj.class_info.fields):
                    if field.kind == "ref" and slot is not None:
                        queue.append(slot)
        return order
