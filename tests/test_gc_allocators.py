"""Tests for the GC building blocks: size classes, bump, free-list, LOS."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gc.bump import BumpAllocator
from repro.gc.freelist import BLOCK_BYTES, FreeListSpace, OutOfMemory
from repro.gc.los import LargeObjectSpace
from repro.gc.sizeclass import SizeClasses, build_size_classes
from tests.helpers import free_extents


class TestSizeClasses:
    def test_paper_default_forty_classes_to_4k(self):
        sc = SizeClasses()
        assert len(sc) == 40
        assert sc.sizes[-1] == 4096

    def test_strictly_increasing(self):
        sc = SizeClasses()
        assert all(a < b for a, b in zip(sc.sizes, sc.sizes[1:]))

    def test_all_sizes_aligned(self):
        sc = SizeClasses()
        assert all(s % 4 == 0 for s in sc.sizes)

    def test_class_for_exact_size(self):
        sc = SizeClasses()
        assert sc.cell_bytes(sc.class_for(8)) == 8
        assert sc.cell_bytes(sc.class_for(4096)) == 4096

    def test_class_for_rounds_up(self):
        sc = SizeClasses()
        idx = sc.class_for(9)
        assert sc.cell_bytes(idx) >= 9
        assert sc.cell_bytes(idx - 1) < 9 if idx > 0 else True

    def test_oversize_returns_none(self):
        sc = SizeClasses()
        assert sc.class_for(4097) is None

    def test_slack(self):
        sc = SizeClasses()
        assert sc.slack(8) == 0
        assert sc.slack(9) == 7
        assert sc.slack(5000) is None

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            SizeClasses().class_for(0)

    def test_build_rejects_tiny_count(self):
        with pytest.raises(ValueError):
            build_size_classes(count=1)

    @given(st.integers(min_value=1, max_value=4096))
    @settings(max_examples=200, deadline=None)
    def test_any_small_size_fits_its_class(self, size):
        sc = SizeClasses()
        idx = sc.class_for(size)
        assert idx is not None
        assert sc.cell_bytes(idx) >= size
        if idx > 0:
            assert sc.cell_bytes(idx - 1) < size


class TestBumpAllocator:
    def test_sequential_addresses(self):
        b = BumpAllocator(0x1000, 256)
        assert b.alloc(16) == 0x1000
        assert b.alloc(16) == 0x1010

    def test_alignment(self):
        b = BumpAllocator(0x1000, 256)
        b.alloc(5)
        assert b.alloc(4) == 0x1008

    def test_exhaustion_returns_none(self):
        b = BumpAllocator(0x1000, 32)
        assert b.alloc(32) is not None
        assert b.alloc(4) is None

    def test_used_remaining(self):
        b = BumpAllocator(0x1000, 64)
        b.alloc(16)
        assert b.used == 16
        assert b.remaining == 48

    def test_reset_and_resize(self):
        b = BumpAllocator(0x1000, 64)
        b.alloc(32)
        b.reset(128)
        assert b.used == 0
        assert b.capacity == 128
        assert b.alloc(128) == 0x1000

    def test_contains(self):
        b = BumpAllocator(0x1000, 64)
        b.alloc(16)
        assert b.contains(0x100F)
        assert not b.contains(0x1010)

    def test_invalid_sizes(self):
        b = BumpAllocator(0x1000, 64)
        with pytest.raises(ValueError):
            b.alloc(0)
        with pytest.raises(ValueError):
            BumpAllocator(0, 0)


class TestFreeList:
    def make(self, region=1 << 20):
        return FreeListSpace(0x2000_0000, region)

    def test_alloc_assigns_cell_of_fitting_class(self):
        fl = self.make()
        cell = fl.alloc(20)
        assert cell.size >= 20
        assert cell.charged == 20

    def test_same_class_cells_do_not_overlap(self):
        fl = self.make()
        a = fl.alloc(24)
        b = fl.alloc(24)
        assert a.addr != b.addr
        assert abs(a.addr - b.addr) >= 24

    def test_free_and_reuse(self):
        fl = self.make()
        a = fl.alloc(24)
        addr = a.addr
        fl.free(a)
        b = fl.alloc(24)
        assert b.addr == addr  # LIFO reuse

    def test_double_free_rejected(self):
        fl = self.make()
        a = fl.alloc(24)
        fl.free(a)
        with pytest.raises(ValueError):
            fl.free(a)

    def test_block_refill_commits_block(self):
        fl = self.make()
        fl.alloc(24)
        assert fl.bytes_committed == BLOCK_BYTES

    def test_bytes_in_use_tracks_cells(self):
        fl = self.make()
        a = fl.alloc(24)
        assert fl.bytes_in_use == a.size
        fl.free(a)
        assert fl.bytes_in_use == 0

    def test_fragmentation_accounting(self):
        fl = self.make()
        a = fl.alloc(9)  # lands in the 16-byte class
        assert fl.internal_fragmentation == a.size - 9
        fl.free(a)
        assert fl.internal_fragmentation == 0

    def test_oversize_rejected(self):
        fl = self.make()
        with pytest.raises(ValueError):
            fl.alloc(5000)

    def test_out_of_memory(self):
        fl = FreeListSpace(0x2000_0000, BLOCK_BYTES)  # room for one block
        fl.alloc(8)
        with pytest.raises(OutOfMemory):
            fl.alloc(4096)  # needs a fresh block of a different class

    def test_max_size_cell(self):
        fl = self.make()
        cell = fl.alloc(4096)
        assert cell.size == 4096

    @given(st.lists(st.integers(min_value=1, max_value=4096), min_size=1,
                    max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_no_live_cells_overlap(self, sizes):
        fl = self.make(region=1 << 24)
        cells = [fl.alloc(s) for s in sizes]
        spans = sorted((c.addr, c.addr + c.size) for c in cells)
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            assert e1 <= s2

    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=4096),
                              st.booleans()), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_alloc_free_accounting_invariant(self, ops):
        fl = self.make(region=1 << 24)
        live = []
        for size, do_free in ops:
            if do_free and live:
                fl.free(live.pop())
            else:
                live.append(fl.alloc(size))
        assert fl.bytes_in_use == sum(c.size for c in live)
        assert fl.live_cells == len(live)


class TestLOS:
    def test_alloc_page_rounded(self):
        los = LargeObjectSpace(0x4000_0000, 1 << 20)
        a = los.alloc(5000)
        assert a == 0x4000_0000
        assert los.bytes_in_use == 8192

    def test_distinct_allocations(self):
        los = LargeObjectSpace(0x4000_0000, 1 << 20)
        a = los.alloc(4096)
        b = los.alloc(4096)
        assert b == a + 4096

    def test_free_and_reuse(self):
        los = LargeObjectSpace(0x4000_0000, 1 << 20)
        a = los.alloc(8192)
        los.free(a)
        assert los.alloc(8192) == a

    def test_exhaustion_returns_none(self):
        los = LargeObjectSpace(0x4000_0000, 8192)
        assert los.alloc(8192) is not None
        assert los.alloc(4096) is None

    def test_coalescing(self):
        los = LargeObjectSpace(0x4000_0000, 3 * 4096)
        a = los.alloc(4096)
        b = los.alloc(4096)
        c = los.alloc(4096)
        los.free(a)
        los.free(c)
        los.free(b)  # middle free must merge all three extents
        assert free_extents(los) == 1
        assert los.alloc(3 * 4096) == a

    def test_unknown_free_rejected(self):
        los = LargeObjectSpace(0x4000_0000, 1 << 20)
        with pytest.raises(ValueError):
            los.free(0x4000_0000)

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1,
                    max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_free_everything_restores_one_extent(self, page_counts):
        los = LargeObjectSpace(0x4000_0000, 1 << 22)
        addrs = [los.alloc(n * 4096) for n in page_counts]
        assert all(a is not None for a in addrs)
        for a in addrs:
            los.free(a)
        assert free_extents(los) == 1
        assert los.bytes_in_use == 0


class TestSizeClassStructure:
    """The MMTk-style structure: 8B steps to 64, 16B to 160, 32B to 256,
    geometric above (the mid-range coarseness carries the paper's
    fragmentation argument)."""

    def test_linear_prefixes(self):
        sc = SizeClasses()
        assert sc.sizes[:8] == [8, 16, 24, 32, 40, 48, 56, 64]
        assert 80 in sc.sizes and 96 in sc.sizes and 160 in sc.sizes
        assert 192 in sc.sizes and 224 in sc.sizes and 256 in sc.sizes

    def test_midrange_slack_exists(self):
        # A combined String(20)+char[](62B) pair of 82 bytes lands in the
        # 96-byte class: 14 bytes of slack — the co-allocation cost.
        sc = SizeClasses()
        assert sc.slack(82) == 14

    def test_geometric_tail_ratio_bounded(self):
        sc = SizeClasses()
        tail = [s for s in sc.sizes if s > 256]
        for a, b in zip(tail, tail[1:]):
            assert 1.05 <= b / a <= 1.35
