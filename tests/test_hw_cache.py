"""Unit tests for the cache model (repro.hw.cache)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CacheConfig
from repro.hw.cache import Cache, StreamPrefetcher
from tests.helpers import line_of, resident_lines


def small_cache(ways=2, sets=4, line=64):
    return Cache(CacheConfig(size_bytes=line * ways * sets, line_bytes=line,
                             ways=ways, hit_latency=1))


class TestGeometry:
    def test_paper_l1_geometry(self):
        c = Cache(CacheConfig(16 * 1024, 128, 8, 2))
        assert c.config.num_lines == 128
        assert c.config.num_sets == 16

    def test_paper_l2_geometry(self):
        c = Cache(CacheConfig(1024 * 1024, 128, 8, 18))
        assert c.config.num_lines == 8192
        assert c.config.num_sets == 1024

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ValueError):
            Cache(CacheConfig(1024, 100, 2, 1))

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            Cache(CacheConfig(3 * 128 * 2, 128, 2, 1))


class TestAccess:
    def test_first_access_misses(self):
        c = small_cache()
        assert c.access(0x1000) is False
        assert c.misses == 1

    def test_second_access_hits(self):
        c = small_cache()
        c.access(0x1000)
        assert c.access(0x1000) is True
        assert c.hits == 1

    def test_same_line_different_offset_hits(self):
        c = small_cache(line=64)
        c.access(0x1000)
        assert c.access(0x103F) is True

    def test_adjacent_line_misses(self):
        c = small_cache(line=64)
        c.access(0x1000)
        assert c.access(0x1040) is False

    def test_lru_eviction(self):
        c = small_cache(ways=2, sets=1, line=64)
        a, b, d = 0x0, 0x40, 0x80  # all map to the single set
        c.access(a)
        c.access(b)
        c.access(d)  # evicts a (LRU)
        assert c.access(b) is True
        assert c.access(a) is False

    def test_lru_updated_on_hit(self):
        c = small_cache(ways=2, sets=1, line=64)
        a, b, d = 0x0, 0x40, 0x80
        c.access(a)
        c.access(b)
        c.access(a)  # a becomes MRU
        c.access(d)  # evicts b
        assert c.access(a) is True
        assert c.access(b) is False

    def test_sets_are_independent(self):
        c = small_cache(ways=1, sets=2, line=64)
        c.access(0x00)   # set 0
        c.access(0x40)   # set 1
        assert c.access(0x00) is True
        assert c.access(0x40) is True

    def test_invalidate_all(self):
        c = small_cache()
        c.access(0x1000)
        c.invalidate_all()
        assert c.contains(0x1000) is False
        assert c.access(0x1000) is False

    def test_fill_line_does_not_count_access(self):
        c = small_cache()
        assert c.fill_line(line_of(c, 0x2000)) is True
        assert c.hits == 0 and c.misses == 0
        assert c.access(0x2000) is True

    def test_fill_line_idempotent(self):
        c = small_cache()
        line = line_of(c, 0x2000)
        assert c.fill_line(line) is True
        assert c.fill_line(line) is False

    def test_resident_lines(self):
        c = small_cache()
        c.access(0x0)
        c.access(0x40)
        assert resident_lines(c) == 2


class TestCapacityBehaviour:
    def test_working_set_within_capacity_all_hits_after_warmup(self):
        c = small_cache(ways=2, sets=4, line=64)  # 8 lines capacity
        addrs = [i * 64 for i in range(8)]
        for a in addrs:
            c.access(a)
        assert all(c.access(a) for a in addrs)

    def test_working_set_exceeding_capacity_thrashes(self):
        c = small_cache(ways=2, sets=1, line=64)  # 2 lines capacity
        addrs = [i * 64 for i in range(3)]
        for _ in range(3):
            for a in addrs:
                c.access(a)
        assert c.hits == 0  # cyclic access defeats LRU


class TestPrefetcher:
    def test_no_prefetch_below_trigger(self):
        c = small_cache(ways=8, sets=8)
        pf = StreamPrefetcher(c, trigger=2, depth=2)
        assert pf.observe_miss(10) == 0

    def test_sequential_misses_trigger_prefetch(self):
        c = small_cache(ways=8, sets=8)
        pf = StreamPrefetcher(c, trigger=2, depth=2)
        pf.observe_miss(10)
        n = pf.observe_miss(11)
        assert n == 2
        assert c.access_line(12) is True
        assert c.access_line(13) is True

    def test_non_sequential_misses_reset_stream(self):
        c = small_cache(ways=8, sets=8)
        pf = StreamPrefetcher(c, trigger=2, depth=2)
        pf.observe_miss(10)
        assert pf.observe_miss(20) == 0
        assert pf.observe_miss(21) == 2

    def test_reset_clears_stream(self):
        c = small_cache(ways=8, sets=8)
        pf = StreamPrefetcher(c, trigger=2, depth=2)
        pf.observe_miss(10)
        pf.reset()
        assert pf.observe_miss(11) == 0


class TestCacheProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                    max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, addrs):
        c = small_cache()
        for a in addrs:
            c.access(a)
        assert c.hits + c.misses == len(addrs)

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                    max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addrs):
        c = small_cache(ways=2, sets=4)
        for a in addrs:
            c.access(a)
            assert resident_lines(c) <= 8

    @given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1,
                    max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_immediate_reaccess_always_hits(self, addrs):
        c = small_cache()
        for a in addrs:
            c.access(a)
            assert c.access(a) is True
