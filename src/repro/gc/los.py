"""Large-object space.

Objects above the free-list limit (4 KB) are "handled in a separate
portion of the heap" (section 5.1).  Allocation is first-fit over a free
list of address ranges with eager coalescing of neighbours; large
objects never move.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

PAGE = 4096


def _round_pages(size: int) -> int:
    return (size + PAGE - 1) & ~(PAGE - 1)


class LargeObjectSpace:
    """Page-granular first-fit allocator for big objects."""

    def __init__(self, base: int, region_bytes: int):
        self.base = base
        self.region_bytes = region_bytes
        #: Sorted list of free (addr, size) extents.
        self._free: List[Tuple[int, int]] = [(base, region_bytes)]
        #: addr -> rounded size of live allocations.
        self._live: Dict[int, int] = {}
        self.bytes_in_use = 0

    def alloc(self, size: int) -> "int | None":
        """Allocate ``size`` bytes (page-rounded); None when exhausted."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        need = _round_pages(size)
        for i, (addr, extent) in enumerate(self._free):
            if extent >= need:
                if extent == need:
                    del self._free[i]
                else:
                    self._free[i] = (addr + need, extent - need)
                self._live[addr] = need
                self.bytes_in_use += need
                return addr
        return None

    def free(self, addr: int) -> None:
        size = self._live.pop(addr, None)
        if size is None:
            raise ValueError(f"freeing unknown LOS object at {addr:#x}")
        self.bytes_in_use -= size
        self._insert_free(addr, size)

    def _insert_free(self, addr: int, size: int) -> None:
        """Insert an extent, coalescing with adjacent free neighbours."""
        free = self._free
        lo, hi = 0, len(free)
        while lo < hi:
            mid = (lo + hi) // 2
            if free[mid][0] < addr:
                lo = mid + 1
            else:
                hi = mid
        free.insert(lo, (addr, size))
        # Coalesce with successor, then predecessor.
        if lo + 1 < len(free) and free[lo][0] + free[lo][1] == free[lo + 1][0]:
            a, s = free[lo]
            free[lo] = (a, s + free[lo + 1][1])
            del free[lo + 1]
        if lo > 0 and free[lo - 1][0] + free[lo - 1][1] == free[lo][0]:
            a, s = free[lo - 1]
            free[lo - 1] = (a, s + free[lo][1])
            del free[lo]

    def contains(self, addr: int) -> bool:
        return addr in self._live

