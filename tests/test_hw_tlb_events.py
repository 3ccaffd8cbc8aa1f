"""Unit tests for the DTLB model and the event-counter bank."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TLBConfig
from repro.hw.events import (
    COUNTED_EVENTS,
    EventCounters,
    UnknownEventError,
    validate_event,
)
from repro.hw.tlb import TLB
from tests.helpers import resident_pages


class TestTLB:
    def test_first_access_misses(self):
        tlb = TLB(TLBConfig(entries=4))
        assert tlb.access(0x1000) is False

    def test_same_page_hits(self):
        tlb = TLB(TLBConfig(entries=4))
        tlb.access(0x1000)
        assert tlb.access(0x1FFF) is True

    def test_different_page_misses(self):
        tlb = TLB(TLBConfig(entries=4))
        tlb.access(0x1000)
        assert tlb.access(0x2000) is False

    def test_lru_eviction(self):
        tlb = TLB(TLBConfig(entries=2))
        tlb.access(0x0000)
        tlb.access(0x1000)
        tlb.access(0x2000)  # evicts page 0
        assert tlb.access(0x1000) is True
        assert tlb.access(0x0000) is False

    def test_lru_refresh_on_hit(self):
        tlb = TLB(TLBConfig(entries=2))
        tlb.access(0x0000)
        tlb.access(0x1000)
        tlb.access(0x0000)  # page 0 becomes MRU
        tlb.access(0x2000)  # evicts page 1
        assert tlb.access(0x0000) is True
        assert tlb.access(0x1000) is False

    def test_invalidate_all(self):
        tlb = TLB(TLBConfig(entries=4))
        tlb.access(0x1000)
        tlb.invalidate_all()
        assert tlb.access(0x1000) is False

    def test_rejects_bad_page_size(self):
        with pytest.raises(ValueError):
            TLB(TLBConfig(page_bytes=3000))

    @given(st.lists(st.integers(min_value=0, max_value=1 << 24), max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_bounded(self, addrs):
        tlb = TLB(TLBConfig(entries=8))
        for a in addrs:
            tlb.access(a)
            assert resident_pages(tlb) <= 8

    @given(st.lists(st.integers(min_value=0, max_value=1 << 24), min_size=1,
                    max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_hit_miss_accounting(self, addrs):
        tlb = TLB(TLBConfig(entries=8))
        for a in addrs:
            tlb.access(a)
        assert tlb.hits + tlb.misses == len(addrs)


class TestEventCounters:
    def test_all_events_start_at_zero(self):
        c = EventCounters()
        for name in COUNTED_EVENTS:
            assert c.read(name) == 0

    def test_add_and_read(self):
        c = EventCounters()
        c.add("L1D_MISS", 3)
        assert c.read("L1D_MISS") == 3

    def test_unknown_event_rejected(self):
        c = EventCounters()
        with pytest.raises(UnknownEventError):
            c.read("BOGUS")

    def test_pebs_capability_check(self):
        assert validate_event("L1D_MISS", pebs=True) == "L1D_MISS"
        with pytest.raises(UnknownEventError):
            validate_event("CYCLES", pebs=True)

    def test_snapshot_delta(self):
        c = EventCounters()
        c.add("LOADS", 5)
        before = c.snapshot()
        c.add("LOADS", 7)
        c.add("STORES", 2)
        d = c.delta(before)
        assert d["LOADS"] == 7
        assert d["STORES"] == 2

    def test_snapshot_is_a_copy(self):
        c = EventCounters()
        snap = c.snapshot()
        c.add("CYCLES", 10)
        assert snap["CYCLES"] == 0

    def test_reset_selected(self):
        c = EventCounters()
        c.add("LOADS", 5)
        c.add("STORES", 5)
        c.reset(["LOADS"])
        assert c.read("LOADS") == 0
        assert c.read("STORES") == 5

    def test_miss_rate(self):
        c = EventCounters()
        c.add("L1D_ACCESS", 100)
        c.add("L1D_MISS", 25)
        assert c.miss_rate("L1D_MISS", "L1D_ACCESS") == 0.25

    def test_miss_rate_zero_accesses(self):
        c = EventCounters()
        assert c.miss_rate("L1D_MISS", "L1D_ACCESS") == 0.0
