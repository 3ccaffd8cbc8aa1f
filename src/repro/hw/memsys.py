"""The memory hierarchy: DTLB + L1D + L2 + main memory + prefetcher.

``MemorySystem.access`` is the single entry point used by the CPU for
every data load and store.  It returns the access latency in cycles,
updates the hardware event counters, and notifies the PEBS unit when the
armed event fires (carrying the precise EIP, which is what makes the
sampling *precise* in the sense of section 3.1).

This is the hottest path of the whole simulator, so it is written for
speed: event counts are plain integer attributes folded into the
:class:`EventCounters` bank on :meth:`sync_counters`, the L1 probe is
inlined against the cache's set lists, a last-page shortcut skips the
TLB LRU bookkeeping for consecutive same-page accesses, and a last-line
shortcut skips everything for an access to the line touched just before
(it is L1's MRU line, on the current page).  Level 2 of the CPU defers
its accesses and replays them in order through
:meth:`MemorySystem.access_run_segments` (the *drain*), which also
skips the probe for the line before last, probes L2 inline and adds
the L1 latency per batch.
Equivalences used by the fold: every data access translates exactly one
address and probes L1 exactly once, so ``DTLB_ACCESS == L1D_ACCESS ==
LOADS + STORES``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.config import MachineConfig
from repro.hw.cache import Cache, StreamPrefetcher
from repro.hw.events import EventCounters, validate_event
from repro.hw.tlb import TLB


class MemorySystem:
    """A two-level data-cache hierarchy with a DTLB and a stream prefetcher."""

    def __init__(self, config: MachineConfig, counters: Optional[EventCounters] = None):
        self.config = config
        self.counters = counters if counters is not None else EventCounters()
        self.l1 = Cache(config.l1, "L1D")
        self.l2 = Cache(config.l2, "L2")
        self.tlb = TLB(config.tlb)
        self.prefetcher = StreamPrefetcher(
            self.l2, config.prefetch_trigger, config.prefetch_depth
        )
        # PEBS hook: set via arm_event().
        self._armed_event: Optional[str] = None
        self._pebs_hook: Optional[Callable[[int], None]] = None
        self._pebs_bound: Optional[Callable] = None
        # Pure-observer hook: set via attach_observer().  Unlike the PEBS
        # unit it sees *every* occurrence of its event (no interval, no
        # cost charged), which is what makes it usable as an exact
        # ground-truth tap for the fidelity auditor.
        self._observed_event: Optional[str] = None
        self._observer_hook: Optional[Callable[[int], None]] = None
        # Fast-path state: geometry, latencies, and bound callees hoisted
        # once so the per-access path never chases ``self.config.*`` or
        # rebinds methods (configs are fixed after construction).
        self._l1_shift = self.l1.line_shift
        self._l1_sets = self.l1._sets
        self._l1_mask = self.l1.set_mask
        self._l1_ways = self.l1.ways
        self._l2_shift = self.l2.line_shift
        self._l2_sets = self.l2._sets
        self._l2_mask = self.l2.set_mask
        self._l2_ways = self.l2.ways
        self._page_shift = self.tlb.page_shift
        if self._l1_shift > self._page_shift:
            raise ValueError("an L1 line must fit in a page")
        self._last_page = -1
        self._last_line = -1
        self._prev_line = -1  # the drain's line before last
        self._l1_hit_latency = config.l1.hit_latency
        self._l2_hit_latency = config.l2.hit_latency
        self._memory_latency = config.memory_latency
        self._tlb_penalty = config.tlb.miss_penalty
        self._tlb_access_page = self.tlb.access_page
        self._l2_access_line = self.l2.access_line
        self._observe_miss = self.prefetcher.observe_miss
        # Raw event tallies (folded into ``counters`` by sync_counters).
        self.n_loads = 0
        self.n_stores = 0
        self.n_l1_miss = 0
        self.n_l2_access = 0
        self.n_l2_miss = 0
        self.n_dtlb_miss = 0
        self.n_prefetch = 0

    # -- PEBS attachment ----------------------------------------------------

    def arm_event(self, event: str, hook: Callable[[int], None],
                  charge_bound: Optional[Callable] = None) -> None:
        """Arm PEBS-style sampling: ``hook(eip)`` fires on every
        ``event``; ``charge_bound(events)`` bounds what it can charge
        over that many firings (``None``: it could read the clock)."""
        self._armed_event = validate_event(event, pebs=True)
        self._pebs_hook = hook
        self._pebs_bound = charge_bound

    def disarm(self) -> None:
        self._armed_event = None
        self._pebs_hook = self._pebs_bound = None

    # -- exact-observer attachment ------------------------------------------

    def attach_observer(self, event: str, hook: Callable[[int], None]) -> None:
        """Attach a pure observer: ``hook(eip)`` on *every* ``event``.

        The observer charges no cycles, consumes no randomness, and
        never touches the counters or the PEBS unit, so attaching one
        leaves the simulation bit-identical — the invariant the fidelity
        auditor (:mod:`repro.analysis.fidelity`) relies on and the
        telemetry tests enforce.
        """
        self._observed_event = validate_event(event, pebs=True)
        self._observer_hook = hook

    def detach_observer(self) -> None:
        self._observed_event = None
        self._observer_hook = None

    def hook_charges(self, accesses: int) -> Optional[int]:
        """The most cycles the hooks can charge over the next
        ``accesses`` (one event each at most); ``None`` if one could
        read the clock mid-run — an observer, or as the PEBS bound says."""
        if self._observed_event is not None:
            return None
        bound = self._pebs_bound
        return 0 if self._armed_event is None else (
            bound and bound(accesses))

    # -- the hot path ---------------------------------------------------------

    def access(self, addr: int, is_write: bool, eip: int) -> int:
        """Perform one data access; return its latency in cycles."""
        if is_write:
            self.n_stores += 1
        else:
            self.n_loads += 1
        # The line touched just before is L1's MRU line on the current
        # page: touching it again is a hit that changes no state.
        line = addr >> self._l1_shift
        if line == self._last_line:
            return self._l1_hit_latency
        self._last_line = line
        self._prev_line = -1
        latency = 0

        # Address translation (same-page shortcut skips LRU bookkeeping;
        # hit/miss accounting is exact because a resident page stays
        # resident until an intervening miss evicts it, and any eviction
        # of the last-touched page can only happen after a page change).
        page = addr >> self._page_shift
        if page != self._last_page:
            if not self._tlb_access_page(page):
                self.n_dtlb_miss += 1
                latency = self._tlb_penalty
                if self._armed_event == "DTLB_MISS":
                    self._pebs_hook(eip)
                if self._observed_event == "DTLB_MISS":
                    self._observer_hook(eip)
            self._last_page = page

        # L1 data cache (inlined probe, MRU-first; a hit at LRU position
        # 1 — two streams aliasing to one set — swaps in place).
        ways = self._l1_sets[line & self._l1_mask]
        if ways:
            if ways[0] == line:
                return latency + self._l1_hit_latency
            if line in ways:
                if ways[1] == line:
                    ways[1] = ways[0]
                    ways[0] = line
                else:
                    ways.remove(line)
                    ways.insert(0, line)
                return latency + self._l1_hit_latency
        self.n_l1_miss += 1
        ways.insert(0, line)
        if len(ways) > self._l1_ways:
            ways.pop()
        if self._armed_event == "L1D_MISS":
            self._pebs_hook(eip)
        if self._observed_event == "L1D_MISS":
            self._observer_hook(eip)
        latency += self._l1_hit_latency

        # L2 unified cache.
        self.n_l2_access += 1
        l2_line = addr >> self._l2_shift
        if self._l2_access_line(l2_line):
            return latency + self._l2_hit_latency
        self.n_l2_miss += 1
        if self._armed_event == "L2_MISS":
            self._pebs_hook(eip)
        if self._observed_event == "L2_MISS":
            self._observer_hook(eip)
        latency += self._l2_hit_latency + self._memory_latency

        # Miss-stream prefetching into L2.
        prefetched = self._observe_miss(l2_line)
        if prefetched:
            self.n_prefetch += prefetched
        return latency

    # -- the batched hot path -------------------------------------------------

    def access_run_segments(self, segments) -> int:
        """Perform a run of deferred-access segments in one call.

        Each segment is an ``(addrs, writes, eips, start)`` quadruple:
        ``addrs`` is one batch of addresses in program order, and
        ``writes[start + j]`` / ``eips[start + j]`` carry the
        translate-time constant is-write flag and EIP of its ``j``-th
        access.  A superblock queues one segment per execution, a region
        one per *entry* (its tuples are the ring's, repeated to cover
        the most one entry runs — or, for a ring that forks, lists each
        block extends as the entry runs it); a write barrier splits a
        batch, and ``start`` re-anchors each piece.  Returns the summed
        latency.

        The run is an ordered log: between access segments it may carry
        *clock entries* ``(None, land, cycles, n)`` — a charge or a
        flush the CPU deferred to land in program order, or, where no
        hook reads the clock, a region exit's one of each for all (see
        :meth:`repro.hw.cpu.CPU._run_fast`).  ``land(total, cycles, n)``
        receives the latency summed so far and returns what remains of
        it (a flush takes it to the clock; a charge leaves it), so a
        hook firing later in the same replay reads the clock the
        one-at-a-time order would show it.

        Per-access semantics are exactly :meth:`access` — same probe
        order, same counter totals at every flush point, same
        PEBS/observer hook firing points with the same EIPs — so
        counters, cache/TLB state and statistics, and samples are
        bit-identical to issuing the accesses one at a time.  The batch
        additionally hoists geometry, hook state, the TLB's LRU dict and
        L2's set lists into locals once per drain, accumulates the raw
        event tallies (and the TLB's and L2's statistics) in locals, and
        reads the EIP only on miss paths.  Four shortcuts:

        * an access to the line touched just before is an L1 MRU hit on
          the same page that changes no state (``_last_line``);
        * an access to the line before last (``_prev_line``, the
          distinct line touched just before ``_last_line``, and nothing
          after it) is an L1 and DTLB hit that fires nothing: it is
          first in its set or second behind ``_last_line`` in a shared
          one, and its page first or second in the DTLB.  It swaps the
          two lines, counts a DTLB hit on a page change and marks the
          LRU order stale; :meth:`_settle` fixes it before the next
          access that reaches the set lists or the TLB dict, and at the
          end.  Where inserting a line can evict the one before it (a
          direct-mapped L1, a one-entry DTLB) both miss paths forget
          ``_prev_line`` on evicting it or its page; ``access()`` and
          :meth:`pollute_minor` forget it too.  ``compress``'s two
          lockstep arrays alias one L1 set on two pages: 64.5 % of its
          drained accesses take this path, 33.4 % the one above;
        * the L1 latency every access pays is added as a count at each
          clock entry and at the end;
        * L2 is probed inline.

        All of that is invisible mid-batch because nothing a
        PEBS/observer hook can reach reads the tallies, the latency so
        far or the LRU order, or re-arms the hooks, and cache pollution
        only happens at GC points, which drain the pending segments
        first.
        """
        page_shift = self._page_shift
        l1_shift = self._l1_shift
        l1_sets = self._l1_sets
        l1_mask = self._l1_mask
        l1_ways = self._l1_ways
        l2_shift = self._l2_shift
        l2_sets = self._l2_sets
        l2_mask = self._l2_mask
        l2_ways = self._l2_ways
        l1_hit = self._l1_hit_latency
        l2_hit = self._l2_hit_latency
        l2_miss_latency = l2_hit + self._memory_latency
        tlb_penalty = self._tlb_penalty
        observe_miss = self._observe_miss
        armed = self._armed_event
        observed = self._observed_event
        pebs_hook = self._pebs_hook
        observer_hook = self._observer_hook
        last_page = self._last_page
        last_line = self._last_line
        prev_line = self._prev_line
        stale = False
        # The TLB hit path is inlined against its LRU dict (the miss
        # path replicates TLB.access_page's insert + evict); its own
        # hit/miss statistics accumulate locally like the event tallies.
        tlb = self.tlb
        tlb_pages = tlb._pages
        tlb_move = tlb_pages.move_to_end
        tlb_capacity = tlb.entries
        accesses = landed = stores = l1_miss = l2_miss = 0
        tlb_hits = tlb_misses = 0
        total = 0
        for addrs, writes, eips, start in segments:
            if addrs is None:
                # The L1 latency of the accesses since the last clock
                # entry lands with this one.
                land, cycles = writes, eips
                total = land(total + (accesses - landed) * l1_hit,
                             cycles, start)
                landed = accesses
                continue
            accesses += len(addrs)
            index = start
            for addr in addrs:
                if writes[index]:
                    stores += 1
                index += 1

                line = addr >> l1_shift
                if line == last_line:
                    continue
                if line == prev_line:
                    # An L1 and DTLB hit that fires nothing; the LRU
                    # order it changes is settled before the next probe.
                    prev_line = last_line
                    last_line = line
                    page = addr >> page_shift
                    if page != last_page:
                        tlb_hits += 1
                        last_page = page
                    stale = True
                    continue
                if stale:
                    self._settle(last_line, last_page)
                    stale = False
                prev_line = last_line
                last_line = line

                page = addr >> page_shift
                if page != last_page:
                    if page in tlb_pages:
                        tlb_move(page)
                        tlb_hits += 1
                    else:
                        tlb_misses += 1
                        tlb_pages[page] = None
                        if len(tlb_pages) > tlb_capacity:
                            evicted, _ = tlb_pages.popitem(last=False)
                            if evicted == prev_line >> page_shift - l1_shift:
                                prev_line = -1
                        total += tlb_penalty
                        if armed == "DTLB_MISS":
                            pebs_hook(eips[index - 1])
                        if observed == "DTLB_MISS":
                            observer_hook(eips[index - 1])
                    last_page = page

                ways = l1_sets[line & l1_mask]
                if ways:
                    if ways[0] == line:
                        continue
                    if line in ways:
                        if ways[1] == line:
                            ways[1] = ways[0]
                            ways[0] = line
                        else:
                            ways.remove(line)
                            ways.insert(0, line)
                        continue
                l1_miss += 1
                ways.insert(0, line)
                if len(ways) > l1_ways and ways.pop() == prev_line:
                    prev_line = -1
                if armed == "L1D_MISS":
                    pebs_hook(eips[index - 1])
                if observed == "L1D_MISS":
                    observer_hook(eips[index - 1])

                # Every L1 miss probes L2 (inlined ``Cache.access_line``).
                line = addr >> l2_shift
                ways = l2_sets[line & l2_mask]
                if line in ways:
                    if ways[0] != line:
                        ways.remove(line)
                        ways.insert(0, line)
                    total += l2_hit
                    continue
                l2_miss += 1
                ways.insert(0, line)
                if len(ways) > l2_ways:
                    ways.pop()
                if armed == "L2_MISS":
                    pebs_hook(eips[index - 1])
                if observed == "L2_MISS":
                    observer_hook(eips[index - 1])
                total += l2_miss_latency

                prefetched = observe_miss(line)
                if prefetched:
                    self.n_prefetch += prefetched
        if stale:
            self._settle(last_line, last_page)
        total += (accesses - landed) * l1_hit
        self._last_page = last_page
        self._last_line = last_line
        self._prev_line = prev_line
        self.n_loads += accesses - stores
        self.n_stores += stores
        self.n_l1_miss += l1_miss
        self.n_l2_access += l1_miss
        self.n_l2_miss += l2_miss
        self.n_dtlb_miss += tlb_misses
        tlb.hits += tlb_hits
        tlb.misses += tlb_misses
        self.l2.hits += l1_miss - l2_miss
        self.l2.misses += l2_miss
        return total

    def _settle(self, line: int, page: int) -> None:
        """Make ``line`` and ``page`` MRU again after the drain skipped
        reordering for the line before last: the two lines (and pages)
        hold the top two places, so a shared set needs one swap."""
        ways = self._l1_sets[line & self._l1_mask]
        if ways[0] != line:
            ways[1] = ways[0]
            ways[0] = line
        self.tlb._pages.move_to_end(page)

    # -- counter folding --------------------------------------------------------

    def sync_counters(self) -> EventCounters:
        """Fold the raw tallies into the shared counter bank."""
        counts = self.counters.counts
        accesses = self.n_loads + self.n_stores
        counts["LOADS"] = self.n_loads
        counts["STORES"] = self.n_stores
        counts["L1D_ACCESS"] = accesses
        counts["L1D_MISS"] = self.n_l1_miss
        counts["L2_ACCESS"] = self.n_l2_access
        counts["L2_MISS"] = self.n_l2_miss
        counts["DTLB_ACCESS"] = accesses
        counts["DTLB_MISS"] = self.n_dtlb_miss
        counts["PREFETCHES"] = self.n_prefetch
        return self.counters

    # -- pollution model ------------------------------------------------------

    def pollute_minor(self) -> None:
        """Model the cache displacement caused by a nursery collection."""
        self.l1.invalidate_all()
        self.tlb.invalidate_all()
        self.prefetcher.reset()
        self._last_page = -1
        self._last_line = -1
        self._prev_line = -1

    def pollute_full(self) -> None:
        """Model the displacement caused by a full-heap collection."""
        self.pollute_minor()
        self.l2.invalidate_all()
