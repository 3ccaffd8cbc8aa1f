"""Generational copying plan (Figure 6's comparator).

GenCopy pairs the same Appel-style nursery with a *semispace* mature
space: minor collections copy survivors to the mature to-space in
Cheney (breadth-first) order, and full collections evacuate the live
mature objects into the other semispace, again in traversal order.
The collections themselves are :class:`~repro.gc.plan.Plan`'s; this
plan supplies the to-space bump a survivor takes (``_promote``), the
semispace evacuation (``_reclaim_mature``) and the copy-reserve check
that opens a minor collection (``_before_minor``).

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
from repro.vm.objects import SPACE_MATURE

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

    @property
    def tospace(self) -> BumpAllocator:
        return self._spaces[self._to_index]

    # -- sizing --------------------------------------------------------------------

    def mature_footprint(self) -> int:
        # The copy reserve makes every mature byte cost two bytes of budget.
        return 2 * self.tospace.used + self.los.bytes_in_use

    # -- collection ----------------------------------------------------------------------

    def _before_minor(self) -> None:
        # Guarantee the copy reserve: if the to-space cannot absorb a
        # full nursery, evacuate the mature space first.
        if self.tospace.remaining < self.nursery.used:
            self._full()
            if self.tospace.remaining < self.nursery.used:
                raise HeapExhausted("copy reserve exhausted")

    def _promote(self, obj) -> None:
        size = obj.size
        addr = self.tospace.alloc(size)
        if addr is None:
            raise HeapExhausted("to-space exhausted during promotion")
        obj.address = addr
        obj.space = SPACE_MATURE
        self.mature_objects.append(obj)
        self.stats.promoted_objects += 1
        self.stats.promoted_bytes += size
        self.hooks.charge(int(self.config.copy_byte_cost * size))

    def _reclaim_mature(self, live: List[object]) -> int:
        # Evacuate live mature objects into the other semispace in BFS
        # order (this is the locality advantage of a copying collector:
        # parents and children end up near each other).
        from_index = self._to_index
        self._to_index = 1 - self._to_index
        target = self.tospace
        target.reset(_SEMI_SPAN)
        survivors: List[object] = []
        copied_bytes = 0
        for obj in live:  # BFS order from the trace
            if obj.space == SPACE_MATURE:
                addr = target.alloc(obj.size)
                if addr is None:  # pragma: no cover - span is huge
                    raise HeapExhausted("semispace overflow")
                obj.address = addr
                survivors.append(obj)
                copied_bytes += obj.size
        dead = len(self.mature_objects) - len(survivors)
        self.mature_objects = survivors
        self._spaces[from_index].reset(_SEMI_SPAN)
        self.hooks.charge(int(self.config.copy_byte_cost * copied_bytes))
        return dead


def make_plan(name: str, config: GCConfig, hooks: Optional[GCHooks] = None,
              coalloc=None, observers=NO_OBSERVERS) -> Plan:
    """Plan factory used by the VM: ``genms`` or ``gencopy``."""
    from repro.gc.genms import GenMSPlan

    if name == "genms":
        return GenMSPlan(config, hooks, coalloc, observers)
    if name == "gencopy":
        return GenCopyPlan(config, hooks, coalloc, observers)
    raise ValueError(f"unknown GC plan {name!r}")
