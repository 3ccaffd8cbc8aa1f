"""Closed-form ground truth for the memory system.

Every other memory-system test is relative: the drain against
``access()``, one level against another, this commit against a golden.
Here each count comes from arithmetic on the traffic and the geometry,
as Röhl et al. validate hardware events against micro-benchmarks with
known answers (PAPERS.md, arXiv 1710.04094): L1D, L2 and DTLB misses,
the DTLB's own hit count, loads and stores, the events the hooks see,
and the latency rebuilt from counts × latencies.

Each case runs through ``access()`` one at a time and through drains
cut at random into segments with clock entries between them, on the
three ``GEOMETRIES`` with the prefetcher off, so that L2 holds only
what was demanded.
"""

import dataclasses
import random
from collections import Counter

import pytest

from repro.hw.memsys import MemorySystem
from tests.helpers import GEOMETRIES

#: Line- and page-aligned, and aligned to every set stride below.
BASE = 0x100000


#: The counters every case pins, and the DTLB's own lookup tallies.
PINNED = ("LOADS", "STORES", "L1D_MISS", "L2_ACCESS", "L2_MISS",
          "DTLB_MISS")


def is_store(addr):
    """Every third word is stored to, the others loaded."""
    return addr // 4 % 3 == 0


class Driven:
    """One memory system, driven one access at a time (``how ==
    "access"``) or by drains cut at random into segments with clock
    entries between them (``"drain"``).
    An observer counts L1D misses and the PEBS hook DTLB misses; the
    latency sums what the accesses, the drains and their clock entries
    return."""

    def __init__(self, config, how, seed=0):
        self.ms = MemorySystem(config)
        self.how = how
        self.rng = random.Random(seed)
        self.latency = 0
        self.events = Counter()
        self.ms.attach_observer("L1D_MISS",
                                lambda eip: self.events.update(["L1D_MISS"]))
        self.ms.arm_event("DTLB_MISS",
                          lambda eip: self.events.update(["DTLB_MISS"]))

    def touch(self, addrs):
        writes = tuple(map(is_store, addrs))
        eips = tuple(range(len(addrs)))
        if self.how == "access":
            for addr, is_write, eip in zip(addrs, writes, eips):
                self.latency += self.ms.access(addr, is_write, eip)
            return
        rng, lo = self.rng, 0
        while lo < len(addrs):
            end = min(len(addrs), lo + rng.randrange(1, 300))
            log = []
            while lo < end:
                hi = min(end, lo + rng.randrange(1, 40))
                log.append((addrs[lo:hi], writes, eips, lo))
                lo = hi
                if rng.random() < 0.3:
                    log.append((None, self.land, 0, 0))
            rest = self.ms.access_run_segments(log)  # after it lands
            self.latency += rest

    def land(self, total, cycles, n):
        self.latency += total
        return 0

    def tally(self):
        """The pinned counters, DTLB lookups and hits, and latency."""
        counts = self.ms.sync_counters().counts
        tlb = self.ms.tlb
        return Counter({**{name: counts[name] for name in PINNED},
                        "tlb_lookups": tlb.hits + tlb.misses,
                        "tlb_hits": tlb.hits, "latency": self.latency})


def expected(config, addrs, l1_miss, l2_miss, dtlb_miss, tlb_lookups):
    """The tally of touching ``addrs`` with the given misses: loads,
    stores, L2 accesses, DTLB hits and latency follow from them."""
    stores = sum(map(is_store, addrs))
    latency = (len(addrs) * config.l1.hit_latency
               + dtlb_miss * config.tlb.miss_penalty
               + l1_miss * config.l2.hit_latency
               + l2_miss * config.memory_latency)
    return Counter({"LOADS": len(addrs) - stores, "STORES": stores,
                    "L1D_MISS": l1_miss, "L2_ACCESS": l1_miss,
                    "L2_MISS": l2_miss, "DTLB_MISS": dtlb_miss,
                    "tlb_lookups": tlb_lookups,
                    "tlb_hits": tlb_lookups - dtlb_miss,
                    "latency": latency})


def distinct(units):
    """``units`` with consecutive repeats dropped."""
    return [u for i, u in enumerate(units) if i == 0 or u != units[i - 1]]


def cyclic_misses(units, sets, ways):
    """Misses of one warm pass of a cyclic sweep that touches each of
    ``units`` in one run, in an LRU cache of ``sets`` × ``ways``: a set
    that holds more of them than it has ways misses every one, the
    others none.  A fully associative DTLB is one set."""
    per_set = Counter(unit % sets for unit in set(units))
    return sum(n for n in per_set.values() if n > ways)


def geometry(config):
    """(L1 line shift, L1 sets, L2 sets, page shift)."""
    return (config.l1.line_bytes.bit_length() - 1, config.l1.num_sets,
            config.l2.num_sets, config.tlb.page_bytes.bit_length() - 1)


def one_set_lines(config, k):
    """``k`` line-aligned addresses in one L1 set, each on its own
    page."""
    step = max(config.l1.num_sets * config.l1.line_bytes,
               config.tlb.page_bytes)
    return [BASE + i * step for i in range(k)]


def machine(name):
    return dataclasses.replace(GEOMETRIES[name](), prefetch_depth=0)


HOW = pytest.mark.parametrize("how", ["access", "drain"])
GEOMETRY = pytest.mark.parametrize("name", list(GEOMETRIES))

#: Line sweeps: name -> (working set in bytes from the geometry, stride).
SWEEPS = {
    "half-l1": (lambda c: c.l1.size_bytes // 2, 4),
    "l1": (lambda c: c.l1.size_bytes, 32),
    "l1+line": (lambda c: c.l1.size_bytes + c.l1.line_bytes, 128),
    "l1+every-set": (lambda c: c.l1.size_bytes
                     + c.l1.num_sets * c.l1.line_bytes, 64),
    "l2+every-set": (lambda c: c.l2.size_bytes
                     + c.l2.num_sets * c.l2.line_bytes, 128),
}


@HOW
@GEOMETRY
class TestSweeps:
    """Sweeps of a working set from a line-aligned base, three passes:
    at a stride of at most one line against L1 and L2, and at page
    stride against the DTLB."""

    PASSES = 3

    def check_passes(self, config, how, addrs):
        """Cold pass: every line, L2 line and page misses once.  Each
        warm pass: the cyclic-sweep formula per level, L2 seeing either
        the whole sweep (every L1 set overflows) or nothing it lost (no
        L2 set overflows)."""
        line_shift, l1_sets, l2_sets, page_shift = geometry(config)
        lines = distinct([a >> line_shift for a in addrs])
        pages = distinct([a >> page_shift for a in addrs])
        l1_warm = cyclic_misses(lines, l1_sets, config.l1.ways)
        if l1_warm == len(lines):
            l2_warm = cyclic_misses(lines, l2_sets, config.l2.ways)
        else:
            assert cyclic_misses(lines, l2_sets, config.l2.ways) == 0
            l2_warm = 0
        dtlb_warm = cyclic_misses(pages, 1, config.tlb.entries)

        run = Driven(config, how)
        run.touch(addrs)
        cold = expected(config, addrs, len(lines), len(lines), len(pages),
                        len(pages))
        assert +run.tally() == +cold
        warm = expected(config, addrs, l1_warm, l2_warm, dtlb_warm,
                        len(pages) if len(pages) > 1 else 0)
        for _ in range(self.PASSES - 1):
            before = run.tally()
            run.touch(addrs)
            after = run.tally()
            after.subtract(before)
            assert +after == +warm
        counts = run.ms.sync_counters().counts
        assert run.events == Counter({"L1D_MISS": counts["L1D_MISS"],
                                      "DTLB_MISS": counts["DTLB_MISS"]})
        return l1_warm, dtlb_warm

    @pytest.mark.parametrize("sweep", list(SWEEPS))
    def test_line_sweep(self, name, how, sweep):
        config = machine(name)
        size, stride = SWEEPS[sweep]
        addrs = list(range(BASE, BASE + size(config), stride))
        l1_warm, _ = self.check_passes(config, how, addrs)
        if sweep in ("half-l1", "l1"):
            assert l1_warm == 0
        elif sweep == "l1+line":
            assert l1_warm == config.l1.ways + 1
        else:
            assert l1_warm == len(addrs) * stride // config.l1.line_bytes

    @pytest.mark.parametrize("over", [0, 1], ids=["fits", "one-over"])
    def test_page_sweep(self, name, how, over):
        config = machine(name)
        pages = config.tlb.entries + over
        addrs = [BASE + i * config.tlb.page_bytes for i in range(pages)]
        _, dtlb_warm = self.check_passes(config, how, addrs)
        assert dtlb_warm == (pages if over else 0)


@HOW
@GEOMETRY
class TestAliasing:
    """Lines in one L1 set: the pattern of ``compress``'s two lockstep
    arrays and the drain's line-before-last shortcut.  ``u`` below is
    the L1 ways or the DTLB entries."""

    ROUNDS = 50

    def check(self, config, how, lines, pattern, l1_miss, dtlb_miss):
        """Touch ``lines[i]`` for each ``i`` of ``pattern`` (at moving
        offsets within the line), cut in two so that a drain boundary
        falls inside the traffic; each line misses L2 once."""
        run = Driven(config, how, seed=len(pattern))
        addrs = [lines[i] + 4 * (k % 32) for k, i in enumerate(pattern)]
        half = len(addrs) // 2 + 1
        run.touch(addrs[:half])
        run.touch(addrs[half:])
        _, _, _, page_shift = geometry(config)
        lookups = len(distinct([lines[i] >> page_shift for i in pattern]))
        assert +run.tally() == +expected(config, addrs, l1_miss,
                                         len(set(pattern)), dtlb_miss,
                                         lookups)
        assert run.events == Counter({"L1D_MISS": l1_miss,
                                      "DTLB_MISS": dtlb_miss})

    @pytest.mark.parametrize("layout", ["set-pages", "set-page",
                                        "sets-pages"])
    def test_ping_pong(self, name, how, layout):
        """``A B`` × N in one L1 set: 2 L1 misses, or 2N when one way
        holds only one of them; in two sets, 2.  On two pages, 2 DTLB
        misses (2N with one entry) and ``tlb.hits`` = 2N − 2; on one
        page, 1 DTLB miss."""
        config, n = machine(name), self.ROUNDS
        line_shift, l1_sets, _, page_shift = geometry(config)
        one_set = 2 if config.l1.ways >= 2 else 2 * n
        two_pages = 2 if config.tlb.entries >= 2 else 2 * n
        if layout == "set-pages":
            lines, l1, dtlb = one_set_lines(config, 2), one_set, two_pages
        elif layout == "set-page":
            lines = [BASE, BASE + (l1_sets << line_shift)]
            assert lines[1] >> page_shift == BASE >> page_shift
            l1, dtlb = one_set, 1
        else:
            lines = [BASE, BASE + (1 << page_shift) + (1 << line_shift)]
            l1, dtlb = 2, two_pages
        self.check(config, how, lines, [0, 1] * n, l1, dtlb)

    def rotate(self, name, how, pattern, misses):
        """Three lines in one set, each on its own page."""
        config = machine(name)
        self.check(config, how, one_set_lines(config, 3), pattern,
                   misses(config.l1.ways), misses(config.tlb.entries))

    def test_rotation(self, name, how):
        """``A B C`` × N: 3 misses, or every access once the set (or
        the DTLB) holds fewer than three.  It never returns to the line
        before last."""
        n = self.ROUNDS
        self.rotate(name, how, [0, 1, 2] * n,
                    lambda u: 3 if u >= 3 else 3 * n)

    def test_rotation_through_the_line_before_last(self, name, how):
        """``A B A C`` × N: the second ``A`` returns to the line before
        last, and the next line must find the LRU order that ``A``
        left.  3 misses; 2N + 1 when two ways (or entries) hold two of
        them — ``B`` and ``C`` evict each other, ``A`` stays — and 4N
        with one."""
        n = self.ROUNDS
        self.rotate(name, how, [0, 1, 0, 2] * n,
                    lambda u: 3 if u >= 3 else 2 * n + 1 if u == 2 else 4 * n)
