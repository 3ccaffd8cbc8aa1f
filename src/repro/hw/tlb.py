"""Data TLB model: fully associative, LRU, 4 KB pages.

The paper samples DTLB misses as one of the PEBS-capable events and notes
(section 6.3) that driving co-allocation with TLB misses instead of L1
misses "does not improve the results" — the benchmark harness reproduces
that ablation, so the DTLB is a first-class part of the memory system.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.config import TLBConfig


class TLB:
    """Fully associative translation lookaside buffer with true LRU.

    Backed by an :class:`collections.OrderedDict` used as an LRU list:
    the most recently used page is kept at the end.
    """

    def __init__(self, config: TLBConfig):
        if config.page_bytes & (config.page_bytes - 1):
            raise ValueError("page size must be a power of two")
        self.config = config
        self.page_shift = config.page_bytes.bit_length() - 1
        self.entries = config.entries
        self._pages: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Translate ``addr``; return True on TLB hit."""
        return self.access_page(addr >> self.page_shift)

    def access_page(self, page: int) -> bool:
        """Translate an already-shifted page number (hot-path entry:
        the memory system computes the page once for its same-page
        shortcut and passes it through)."""
        pages = self._pages
        if page in pages:
            pages.move_to_end(page)
            self.hits += 1
            return True
        self.misses += 1
        pages[page] = None
        if len(pages) > self.entries:
            pages.popitem(last=False)
        return False

    def contains(self, addr: int) -> bool:
        return (addr >> self.page_shift) in self._pages

    def invalidate_all(self) -> None:
        self._pages.clear()

