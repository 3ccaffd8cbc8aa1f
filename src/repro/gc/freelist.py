"""Segregated free-list allocator for the mature space (GenMS).

Matured objects are managed "using a free-list allocator that allocates
objects into 40 different size classes up to 4 KBytes" (section 5.1).
Blocks are carved from the mature region and split into equal cells of
one size class; freed cells return to their class's free list.

Co-allocation support: a cell may host *several* objects (the paper's GC
"just requests enough space to fit both objects" — the pair is assigned
to the size class of the combined size).  The sweep releases a cell only
once every inhabitant is dead, so :class:`Cell` keeps its inhabitant
list explicitly.
"""

from __future__ import annotations

from typing import Dict, List

from repro.gc.sizeclass import SizeClasses

#: Blocks carved from the region are one VM page.
BLOCK_BYTES = 4096


class Cell:
    """One free-list cell: an address range of a fixed size class."""

    __slots__ = ("addr", "class_index", "size", "inhabitants", "charged")

    def __init__(self, addr: int, class_index: int, size: int):
        self.addr = addr
        self.class_index = class_index
        self.size = size
        #: Objects currently placed in this cell (1 normally, 2+ when
        #: co-allocated).
        self.inhabitants: List[object] = []
        #: Bytes this cell was charged for at allocation time (for the
        #: internal-fragmentation accounting).
        self.charged = 0

    def __getstate__(self):
        return (self.addr, self.class_index, self.size, self.inhabitants,
                self.charged)

    def __setstate__(self, state):
        (self.addr, self.class_index, self.size, self.inhabitants,
         self.charged) = state

    def __repr__(self) -> str:
        return f"<cell {self.addr:#x} sz={self.size} n={len(self.inhabitants)}>"


class OutOfMemory(Exception):
    """The mature region is exhausted."""


class FreeListSpace:
    """Segregated-fit allocator over ``[base, base + region_bytes)``."""

    def __init__(self, base: int, region_bytes: int,
                 max_cell_bytes: int = 4096):
        self.base = base
        self.region_bytes = region_bytes
        self.size_classes = SizeClasses(max_bytes=max_cell_bytes)
        self._free: List[List[Cell]] = [[] for _ in self.size_classes.sizes]
        self._block_cursor = base
        #: Live cells indexed by address (for diagnostics and sweeping).
        self.cells: Dict[int, Cell] = {}
        # Accounting.
        self.bytes_committed = 0   # blocks carved from the region
        self.bytes_in_use = 0      # cell bytes currently allocated
        self.internal_fragmentation = 0  # slack of live allocations

    # -- allocation ------------------------------------------------------------

    def alloc(self, size: int) -> Cell:
        """Allocate a cell for ``size`` bytes.

        Raises :class:`ValueError` for sizes above the free-list limit
        (callers route those to the LOS) and :class:`OutOfMemory` when
        the region cannot supply a fresh block.
        """
        idx = self.size_classes.class_for(size)
        if idx is None:
            raise ValueError(f"size {size} exceeds free-list limit")
        bucket = self._free[idx]
        if not bucket:
            self._refill(idx)
            bucket = self._free[idx]
        cell = bucket.pop()
        cell.charged = size
        self.cells[cell.addr] = cell
        self.bytes_in_use += cell.size
        self.internal_fragmentation += cell.size - size
        return cell

    def _refill(self, idx: int) -> None:
        cell_size = self.size_classes.cell_bytes(idx)
        block_size = max(BLOCK_BYTES, cell_size)
        if self._block_cursor + block_size > self.base + self.region_bytes:
            raise OutOfMemory(
                f"mature region exhausted ({self.bytes_committed} committed)"
            )
        block = self._block_cursor
        self._block_cursor += block_size
        self.bytes_committed += block_size
        bucket = self._free[idx]
        for offset in range(0, block_size - cell_size + 1, cell_size):
            bucket.append(Cell(block + offset, idx, cell_size))

    def free(self, cell: Cell) -> None:
        """Return ``cell`` to its free list (unwinds all accounting)."""
        if self.cells.pop(cell.addr, None) is None:
            raise ValueError(f"double free of cell {cell.addr:#x}")
        self.bytes_in_use -= cell.size
        self.internal_fragmentation -= cell.size - cell.charged
        cell.inhabitants = []
        cell.charged = 0
        self._free[cell.class_index].append(cell)

    # -- queries ---------------------------------------------------------------

    @property
    def live_cells(self) -> int:
        return len(self.cells)

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self._block_cursor

    def reset(self) -> None:
        """Drop all state (GenCopy's full collection rebuilds the space)."""
        self._free = [[] for _ in self.size_classes.sizes]
        self._block_cursor = self.base
        self.cells.clear()
        self.bytes_committed = 0
        self.bytes_in_use = 0
        self.internal_fragmentation = 0
