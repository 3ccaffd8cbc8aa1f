"""Set-associative cache model with LRU replacement and stream prefetch.

The model is *timing-directed*: it tracks only tags, not data (data lives
in the functional state of the VM; see DESIGN.md section 5).  Each access
reports whether it hit, and the memory system converts hits/misses into
cycles and hardware events.

Geometry defaults (16 KB L1D, 128-byte lines, 8-way) follow the paper's
experimental platform (section 6.1); L2 defaults to a scaled 128 KB
where the paper's machine has 1 MB (``MachineConfig.l2``, DESIGN.md
section 2).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List

from repro.core.config import CacheConfig


class Cache:
    """One level of a set-associative, write-allocate, LRU cache.

    Addresses are byte addresses; internally the cache operates on line
    numbers (``addr >> line_shift``).  Each set is a most-recently-used-
    first list of line tags, which makes both lookup and LRU update cheap
    for the small associativities we model.
    """

    def __init__(self, config: CacheConfig, name: str = "cache"):
        if config.line_bytes & (config.line_bytes - 1):
            raise ValueError("line size must be a power of two")
        num_sets = config.num_sets
        if num_sets < 1 or num_sets & (num_sets - 1):
            raise ValueError("number of sets must be a power of two >= 1")
        self.config = config
        self.name = name
        self.line_shift = config.line_bytes.bit_length() - 1
        self.set_mask = num_sets - 1
        self.ways = config.ways
        self._sets: List[List[int]] = [[] for _ in range(num_sets)]
        # Statistics kept by the cache itself (the memory system keeps the
        # authoritative event counters; these are for unit inspection).
        self.hits = 0
        self.misses = 0

    # -- core operations ----------------------------------------------------

    def access_line(self, line: int) -> bool:
        """Touch ``line``; return True on hit, False on miss (line filled)."""
        ways = self._sets[line & self.set_mask]
        # A membership test, not ``index()`` in a ``try``: a miss then
        # costs no raised and caught exception, and an MRU hit one scan.
        if line in ways:
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
            self.hits += 1
            return True
        self.misses += 1
        ways.insert(0, line)
        if len(ways) > self.ways:
            ways.pop()
        return False

    def access(self, addr: int) -> bool:
        """Touch the line containing byte address ``addr``."""
        return self.access_line(addr >> self.line_shift)

    def fill_line(self, line: int) -> bool:
        """Install ``line`` without counting an access (prefetch path).

        Returns True when the line was newly installed.
        """
        ways = self._sets[line & self.set_mask]
        if line in ways:
            return False
        ways.insert(0, line)
        if len(ways) > self.ways:
            ways.pop()
        return True

    def contains(self, addr: int) -> bool:
        """Check residency of the line holding ``addr`` without touching LRU."""
        line = addr >> self.line_shift
        return line in self._sets[line & self.set_mask]

    def invalidate_all(self) -> None:
        """Drop every line (models cache pollution by the collector)."""
        for ways in self._sets:
            ways.clear()


class StreamPrefetcher:
    """A multi-stream next-line prefetcher (P4 "hardware-based prefetching
    of data streams", section 6.1).

    Up to ``MAX_STREAMS`` independent sequential streams are tracked (the
    P4 tracks 8), so interleaved streams — a copy loop reading one buffer
    and writing another — are still detected.  After ``trigger`` misses
    on consecutive lines of one stream, the next ``depth`` lines are
    prefetched and the stream's expectation jumps past them (the demand
    stream then runs on prefetched lines until the next fill point).
    Prefetches install lines without charging the demand access any
    latency — the usual first-order model.
    """

    MAX_STREAMS = 8

    def __init__(self, cache: Cache, trigger: int = 2, depth: int = 4):
        self.cache = cache
        self.trigger = trigger
        self.depth = depth
        #: expected next miss line -> current run length.
        self._streams: "OrderedDict[int, int]" = OrderedDict()
        self.issued = 0

    def observe_miss(self, line: int) -> int:
        """Feed one miss line number; returns the number of lines prefetched."""
        if self.depth <= 0:
            return 0
        run = self._streams.pop(line, 0) + 1
        if run < self.trigger:
            self._streams[line + 1] = run
            while len(self._streams) > self.MAX_STREAMS:
                self._streams.popitem(last=False)
            return 0
        prefetched = 0
        for i in range(1, self.depth + 1):
            if self.cache.fill_line(line + i):
                prefetched += 1
        self.issued += prefetched
        # The stream continues on the prefetched lines; expect the next
        # demand miss right after them.
        self._streams[line + self.depth + 1] = run
        while len(self._streams) > self.MAX_STREAMS:
            self._streams.popitem(last=False)
        return prefetched

    def reset(self) -> None:
        self._streams.clear()
