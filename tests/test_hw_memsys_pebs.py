"""Tests for the memory system and the PEBS sampling unit."""

import collections
import random
from types import SimpleNamespace

import pytest

from repro.core.config import MachineConfig, PEBSConfig
from repro.gc.plan import GCHooks
from repro.hw.cpu import CPU
from repro.hw.memsys import MemorySystem
from repro.hw.pebs import PEBSUnit, Sample
from tests.helpers import GEOMETRIES


def make_memsys():
    return MemorySystem(MachineConfig())


class TestMemorySystem:
    def test_cold_access_pays_full_latency(self):
        ms = make_memsys()
        cfg = ms.config
        latency = ms.access(0x100000, False, eip=0)
        expected = (cfg.tlb.miss_penalty + cfg.l1.hit_latency
                    + cfg.l2.hit_latency + cfg.memory_latency)
        assert latency == expected

    def test_warm_access_pays_l1_latency(self):
        ms = make_memsys()
        ms.access(0x100000, False, eip=0)
        assert ms.access(0x100000, False, eip=0) == ms.config.l1.hit_latency

    def test_l2_hit_latency(self):
        ms = make_memsys()
        ms.access(0x100000, False, eip=0)
        # Evict from L1 (16 sets, 8 ways): touch 8 more lines in the same set.
        # L1 set stride = 16 sets * 128B = 2048B.
        for i in range(1, 9):
            ms.access(0x100000 + i * 2048, False, eip=0)
        latency = ms.access(0x100000, False, eip=0)
        assert latency == ms.config.l1.hit_latency + ms.config.l2.hit_latency

    def test_counters(self):
        ms = make_memsys()
        ms.access(0x100000, False, eip=0)
        ms.access(0x100000, True, eip=0)
        counts = ms.sync_counters().counts
        assert counts["LOADS"] == 1
        assert counts["STORES"] == 1
        assert counts["L1D_ACCESS"] == 2
        assert counts["L1D_MISS"] == 1
        assert counts["DTLB_MISS"] == 1

    def test_armed_event_fires_hook_with_eip(self):
        ms = make_memsys()
        fired = []
        ms.arm_event("L1D_MISS", fired.append)
        ms.access(0x100000, False, eip=0xBEEF)
        assert fired == [0xBEEF]
        ms.access(0x100000, False, eip=0xBEEF)  # hit: no event
        assert fired == [0xBEEF]

    def test_only_armed_event_fires(self):
        ms = make_memsys()
        fired = []
        ms.arm_event("DTLB_MISS", fired.append)
        ms.access(0x100000, False, eip=1)  # misses TLB, L1, L2
        assert fired == [1]
        ms.access(0x100000 + 128, False, eip=2)  # same page: TLB hit, L1 miss
        assert fired == [1]

    def test_disarm(self):
        ms = make_memsys()
        fired = []
        ms.arm_event("L1D_MISS", fired.append)
        ms.disarm()
        ms.access(0x100000, False, eip=1)
        assert fired == []

    def test_non_pebs_event_rejected(self):
        ms = make_memsys()
        with pytest.raises(Exception):
            ms.arm_event("CYCLES", lambda e: None)

    def test_prefetcher_hides_sequential_stream(self):
        ms = make_memsys()
        # Sequential scan of 64 lines: after the trigger, prefetches fill L2.
        for i in range(64):
            ms.access(0x200000 + i * 128, False, eip=0)
        ms.sync_counters()
        assert ms.counters.read("PREFETCHES") > 0
        assert ms.counters.read("L2_MISS") < 64

    def test_pollute_minor_clears_l1_and_tlb_not_l2(self):
        ms = make_memsys()
        ms.access(0x100000, False, eip=0)
        ms.pollute_minor()
        assert not ms.l1.contains(0x100000)
        assert not ms.tlb.contains(0x100000)
        assert ms.l2.contains(0x100000)

    def test_pollute_full_clears_l2_too(self):
        ms = make_memsys()
        ms.access(0x100000, False, eip=0)
        ms.pollute_full()
        assert not ms.l2.contains(0x100000)


class TestCounterIdentities:
    """Structural invariants of the hot path: every access translates
    its address exactly once and probes L1 exactly once, so
    ``DTLB_ACCESS == L1D_ACCESS == LOADS + STORES``; L2 is probed
    exactly on L1 misses (prefetch fills bypass the tally), so
    ``L2_ACCESS == L1D_MISS``."""

    @staticmethod
    def assert_identities(counts):
        assert counts["DTLB_ACCESS"] == counts["L1D_ACCESS"]
        assert counts["L1D_ACCESS"] == counts["LOADS"] + counts["STORES"]
        assert counts["L2_ACCESS"] == counts["L1D_MISS"]

    def test_random_mixed_traffic(self):
        ms = make_memsys()
        rng = random.Random(42)
        for _ in range(5000):
            addr = 0x100000 + rng.randrange(0, 1 << 22, 4)
            ms.access(addr, rng.random() < 0.3, eip=addr)
        counts = ms.sync_counters().counts
        self.assert_identities(counts)
        # The traffic really exercised every level.
        assert counts["L1D_MISS"] > 0
        assert counts["L2_MISS"] > 0
        assert counts["DTLB_MISS"] > 0

    def test_identities_survive_pollution(self):
        ms = make_memsys()
        for i in range(64):
            ms.access(0x100000 + i * 128, False, eip=0)
        ms.pollute_minor()
        for i in range(64):
            ms.access(0x100000 + i * 128, True, eip=0)
        ms.pollute_full()
        ms.access(0x100000, False, eip=0)
        self.assert_identities(ms.sync_counters().counts)

    def test_identities_hold_after_guest_run(self):
        from repro.harness.runner import RunSpec, execute
        result = execute(RunSpec(benchmark="fop", monitoring=True))
        self.assert_identities(result.counters)

    def test_l1_cold_set_probe_within_warm_page(self):
        """Edge case: an access whose L1 set has never been touched
        (empty way list) but whose page is already in the TLB — it must
        pay the full L1-miss + L2-miss latency with *no* TLB penalty,
        and count one L1 miss, not a DTLB miss."""
        ms = make_memsys()
        cfg = ms.config
        ms.access(0x100000, False, eip=0)          # cold: TLB+L1+L2 miss
        # +128 = next line, next (empty) L1 set, same 4 KB page.
        latency = ms.access(0x100000 + 128, False, eip=0)
        assert latency == (cfg.l1.hit_latency + cfg.l2.hit_latency
                           + cfg.memory_latency)
        counts = ms.sync_counters().counts
        assert counts["DTLB_MISS"] == 1            # only the first access
        assert counts["L1D_MISS"] == 2
        self.assert_identities(counts)


class TestAccessRun:
    """The bulk path (``access_run_segments``) must be a pure batching of ``access``: same latency total, same counters,
    same armed-hook firings in the same order, for any traffic."""

    @staticmethod
    def random_traffic(n=2000, seed=9):
        rng = random.Random(seed)
        addrs, writes, eips = [], [], []
        for i in range(n):
            addrs.append(0x100000 + rng.randrange(0, 1 << 20, 4))
            writes.append(rng.random() < 0.3)
            eips.append(i)
        return addrs, writes, eips

    def test_batch_matches_singles(self):
        addrs, writes, eips = self.random_traffic()
        single, batch = make_memsys(), make_memsys()
        fired_single, fired_batch = [], []
        single.arm_event("L1D_MISS", fired_single.append)
        batch.arm_event("L1D_MISS", fired_batch.append)

        total_single = sum(single.access(a, w, eip=e)
                           for a, w, e in zip(addrs, writes, eips))
        total_batch = 0
        for i in range(0, len(addrs), 7):  # uneven chunks
            total_batch += batch.access_run_segments(
                [(addrs[i:i + 7], writes[i:i + 7], eips[i:i + 7], 0)])
        assert total_batch == total_single
        assert fired_batch == fired_single
        assert batch.sync_counters().counts == single.sync_counters().counts

    def test_segments_match_flat(self):
        addrs, writes, eips = self.random_traffic(n=500, seed=4)
        flat, seg = make_memsys(), make_memsys()
        total_flat = flat.access_run_segments([(addrs, writes, eips, 0)])
        # Same traffic as three segments sharing metadata lists, each
        # consuming from its own ``start`` offset (the shape the
        # superblock driver produces when draining pending segments).
        segments = [(addrs[0:200], writes, eips, 0),
                    (addrs[200:450], writes, eips, 200),
                    (addrs[450:], writes, eips, 450)]
        total_seg = seg.access_run_segments(segments)
        assert total_seg == total_flat
        assert seg.sync_counters().counts == flat.sync_counters().counts

    @pytest.mark.parametrize("position", range(5))
    def test_armed_sample_lands_on_each_batch_position(self, position):
        """An armed event raised by the j-th access of a batch must
        report that access's EIP — for every j, including first/last."""
        k = 5
        ms = make_memsys()
        addrs = [0x100000 + i * 128 for i in range(k)]
        for a in addrs:
            ms.access(a, False, eip=0)      # warm: batch would all hit
        addrs[position] = 0x100000 + (64 + position) * 128  # cold line
        eips = [0x5000 + i for i in range(k)]
        fired = []
        ms.arm_event("L1D_MISS", fired.append)
        ms.access_run_segments([(addrs, [False] * k, eips, 0)])
        assert fired == [eips[position]]

    def test_empty_batch(self):
        ms = make_memsys()
        assert ms.access_run_segments([([], [], [], 0)]) == 0
        assert ms.access_run_segments(()) == 0
        assert ms.sync_counters().counts["L1D_ACCESS"] == 0

    @staticmethod
    def clocked_memsys(seen):
        """A memory system under a real CPU clock, a GC bucket fed
        through ``GCHooks.charge``, and an ``L1D_MISS`` hook logging
        what it can read of both."""
        ms = make_memsys()
        gc = [0]

        def charge(cycles):
            gc[0] += cycles
            cpu.charge(cycles)

        runtime = SimpleNamespace(
            plan=SimpleNamespace(hooks=GCHooks(charge=charge)))
        cpu = CPU(ms.config, ms, runtime)
        ms.attach_observer("L1D_MISS", lambda eip: seen.append(
            (eip, cpu.cycles, cpu.instructions, gc[0])))
        return ms, cpu, gc

    def test_log_with_clock_entries_matches_one_at_a_time(self):
        """The drain replays an *ordered log*: access segments
        interleaved with deferred barrier charges and allocation
        flushes.  Issued one at a time or replayed in one call, the
        counters, the latency, the hook firings and the clock each
        firing reads are the same."""
        addrs, writes, eips = self.random_traffic(n=600, seed=11)
        rng = random.Random(5)
        # A script of ("access", lo, hi) / ("charge", c) / ("flush", c, n).
        script, lo = [], 0
        while lo < len(addrs):
            hi = min(len(addrs), lo + rng.randrange(1, 9))
            script.append(("access", lo, hi))
            lo = hi
            roll = rng.random()
            if roll < 0.4:
                script.append(("charge", 2))
            elif roll < 0.7:
                script.append(("flush", rng.randrange(40), rng.randrange(9)))

        seen_single, seen_log = [], []
        single, cpu_s, gc_s = self.clocked_memsys(seen_single)
        latency = 0
        for step in script:
            if step[0] == "access":
                for j in range(step[1], step[2]):
                    latency += single.access(addrs[j], writes[j], eips[j])
            elif step[0] == "charge":
                cpu_s.runtime.plan.hooks.charge(step[1])
            else:
                cpu_s.cycles += latency + step[1]
                cpu_s.instructions += step[2]
                latency = 0

        logged, cpu_l, gc_l = self.clocked_memsys(seen_log)
        log = []
        for step in script:
            if step[0] == "access":
                log.append((addrs[step[1]:step[2]], writes, eips, step[1]))
            elif step[0] == "charge":
                log.append((None, cpu_l.runtime.plan.hooks.land_charge,
                            step[1], 0))
            else:
                log.append((None, cpu_l._land_flush, step[1], step[2]))
        cpu_l._pending.extend(log)
        trailing = cpu_l.drain_accesses()

        assert seen_log == seen_single and len(seen_log) > 100
        assert trailing == latency
        assert (cpu_l.cycles, cpu_l.instructions, gc_l[0]) == \
            (cpu_s.cycles, cpu_s.instructions, gc_s[0])
        assert gc_l[0] > 0 and cpu_l.instructions > 0
        assert logged.sync_counters().counts == \
            single.sync_counters().counts
        assert cpu_l._pending == []


def locality_script(seed, config, steps=160):
    """Traffic with the locality the drain's shortcuts exist for, as a
    script: ``("drain", [(addr, is_write, eip), ...])`` — one drain of
    that traffic, split into segments and flush entries at random —
    ``("access", addr, is_write, eip)``, ``("pollute_minor",)`` and
    ``("pollute_full",)`` between drains.  The runs mix same-line
    repeats, two streams aliasing one L1 set across two pages
    (``compress``'s pattern), ping-pongs and three-line rotations in
    one set, lines re-touched in L2 below its MRU way after L1 lost
    them, and uniform misses.  Between drains, ``access()`` re-touches
    the line the last drain ended on, evicts it or the line before it
    from L1, or touches one more line in the latter's set; and a drain
    often starts on one of the last drain's two lines or resumes its
    ping-pong — so a stale last-line or line-before-last shortcut
    would show."""
    rng = random.Random(seed)
    eip = iter(range(0x4000, 1 << 30, 4))
    base = 0x100000
    l1_stride = config.l1.num_sets * config.l1.line_bytes
    l2_stride = config.l2.num_sets * config.l2.line_bytes
    # The next line in the same L1 set on another page.
    alias = max(l1_stride, config.tlb.page_bytes)
    ways, line_bytes = config.l1.ways, config.l1.line_bytes

    def same_line():
        line = base + rng.randrange(64) * 128
        return [line + rng.randrange(0, 128, 4)
                for _ in range(rng.randrange(2, 9))]

    def aliasing():
        a = base + rng.randrange(0, l1_stride, 4)
        b = a + alias * rng.randrange(1, 4)
        out = []
        for i in range(0, rng.randrange(4, 40) * 4, 4):
            out += [a + i, b + i] + [b + i] * rng.randrange(2)
        return out

    def ping_pong():
        a = base + rng.randrange(0, l1_stride, 4)
        b = a + l1_stride * rng.randrange(1, 4)
        return [a, b] * rng.randrange(1, 6) + [a] * rng.randrange(2)

    def rotation():
        a = base + rng.randrange(0, l1_stride, 4)
        b, c = a + alias, a + 2 * alias
        return rng.choice(([a, b, c], [a, b, a, c])) * rng.randrange(1, 6)

    def below_mru():
        x = base + rng.randrange(0, l1_stride, 128)
        evict = [x + k * l1_stride for k in range(1, ways + 2)]
        bury = [x + k * l2_stride for k in range(1, rng.randrange(2, 6))]
        return [x] + bury + evict + [x, x + 4]

    def uniform():
        return [base + rng.randrange(0, 1 << 21, 4)
                for _ in range(rng.randrange(1, 20))]

    kinds = (same_line, aliasing, ping_pong, rotation, below_mru, uniform)
    script, last, before = [], base, base
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.7:
            traffic = rng.choice(([], [last], [before], [before, last])) + [
                addr for _ in range(rng.randrange(1, 5))
                for addr in rng.choice(kinds)()]
            script.append(("drain", [(addr, rng.random() < 0.3, next(eip))
                                     for addr in traffic]))
            last = traffic[-1]
            before = next((addr for addr in reversed(traffic)
                           if addr // line_bytes != last // line_bytes), last)
        elif roll < 0.85:
            touched = rng.choice((
                [last + 4],
                [rng.choice((last, before)) + k * l1_stride
                 for k in range(1, ways + 2)],
                [before + alias]))
            script += [("access", addr, rng.random() < 0.3, next(eip))
                       for addr in touched]
        elif roll < 0.95:
            script.append(("pollute_minor",))
        else:
            script.append(("pollute_full",))
    return script


#: (armed, observed) hook pairs the drain is checked under.
HOOK_PAIRS = [("L1D_MISS", "L2_MISS"), ("L2_MISS", "DTLB_MISS"),
              ("DTLB_MISS", "L1D_MISS")]


def memsys_state(ms):
    """Everything an access can change, bar the raw tallies."""
    return (ms.sync_counters().counts.copy(),
            [list(ways) for ways in ms.l1._sets],
            [list(ways) for ways in ms.l2._sets],
            list(ms.tlb._pages), list(ms.prefetcher._streams.items()),
            (ms.l1.hits, ms.l1.misses, ms.l2.hits, ms.l2.misses,
             ms.tlb.hits, ms.tlb.misses))


class TestDrainLocality:
    """The drain against one access at a time on traffic that reaches
    its shortcuts — same-line repeats, returns to the line before last,
    aliasing streams, L2 hits below MRU — with ``access()`` calls and
    pollution between drains.  The oracle is ``access()`` with the
    last-line shortcut defeated (the line forgotten before every call)
    or intact."""

    @staticmethod
    def check_drains(config, seed, armed, observed, shortcut):
        script = locality_script(seed, config)
        rng = random.Random(seed + 100)
        fired = {}
        systems = {}
        for side in ("single", "drain"):
            ms = systems[side] = MemorySystem(config)
            log = fired[side] = []
            ms.arm_event(armed, lambda e, log=log: log.append(("pebs", e)))
            ms.attach_observer(observed,
                               lambda e, log=log: log.append(("obs", e)))

        single, drained = systems["single"], systems["drain"]
        latencies = {"single": [], "drain": []}
        pending = 0
        for step in script:
            if step[0] == "drain":
                traffic = step[1]
                addrs = [a for a, _, _ in traffic]
                writes = tuple(w for _, w, _ in traffic)
                eips = tuple(e for _, _, e in traffic)
                # Segments over the shared metadata, flush entries
                # between some of them.
                log, lo = [], 0
                while lo < len(addrs):
                    hi = min(len(addrs), lo + rng.randrange(1, 30))
                    log.append((addrs[lo:hi], writes, eips, lo))
                    for j in range(lo, hi):
                        if not shortcut:
                            single._last_line = -1
                        pending += single.access(addrs[j], writes[j],
                                                 eips[j])
                    lo = hi
                    if rng.random() < 0.3:
                        log.append((None, lambda total, c, n: latencies[
                            "drain"].append(total) or 0, 0, 0))
                        latencies["single"].append(pending)
                        pending = 0
                latencies["drain"].append(drained.access_run_segments(log))
                latencies["single"].append(pending)
                pending = 0
            elif step[0] == "access":
                for side, ms in systems.items():
                    if side == "single" and not shortcut:
                        ms._last_line = -1
                    latencies[side].append(ms.access(*step[1:]))
            else:
                for ms in systems.values():
                    getattr(ms, step[0])()
        assert latencies["drain"] == latencies["single"]
        assert fired["drain"] == fired["single"]
        assert memsys_state(drained) == memsys_state(single)
        counts = drained.sync_counters().counts
        assert counts["L1D_MISS"] > 100 and counts["L2_MISS"] > 10
        assert drained.l2.hits > 50 and len(fired["drain"]) > 20

    @pytest.mark.parametrize("shortcut", [False, True],
                             ids=["no-shortcut", "access"])
    @pytest.mark.parametrize("armed,observed", HOOK_PAIRS)
    @pytest.mark.parametrize("seed", range(3))
    def test_drains_match_one_access_at_a_time(self, seed, armed, observed,
                                               shortcut):
        self.check_drains(MachineConfig(), seed, armed, observed, shortcut)

    @pytest.mark.parametrize("shortcut", [False, True],
                             ids=["no-shortcut", "access"])
    @pytest.mark.parametrize("geometry", ["1way-1tlb", "2way4k-2tlb"])
    @pytest.mark.parametrize("seed", range(3))
    def test_drains_match_where_a_line_evicts_the_one_before(
            self, seed, geometry, shortcut):
        """The two small ``GEOMETRIES``: a direct-mapped L1 or a
        one-entry DTLB, where the line before last can be gone."""
        self.check_drains(GEOMETRIES[geometry](), seed, *HOOK_PAIRS[seed],
                          shortcut)

    def test_the_traffic_reaches_the_shortcuts(self):
        """A tenth of the accesses repeat the line just touched, a
        quarter return to the line before it, and dozens of L2 hits
        land below MRU; in the drain, dozens of those returns leave the
        two lines' LRU order to be settled by a swap."""
        config = MachineConfig()
        ms = MemorySystem(config)
        repeats = returns = below = accesses = 0
        real = ms.l2.access_line

        def l2_probe(line):
            nonlocal below
            ways = ms.l2._sets[line & ms.l2.set_mask]
            below += line in ways[1:]
            return real(line)

        ms._l2_access_line = l2_probe
        drained = MemorySystem(config)
        settled = collections.Counter()
        settle = drained._settle

        def counted(line, page):
            ways = drained.l1._sets[line & drained.l1.set_mask]
            settled[ways[0] != line] += 1
            settle(line, page)

        drained._settle = counted
        before = -1
        for step in locality_script(0, config):
            if step[0] == "drain":
                drained.access_run_segments([([a for a, _, _ in step[1]],
                                              [w for _, w, _ in step[1]],
                                              [e for _, _, e in step[1]], 0)])
                for addr, is_write, eip in step[1]:
                    line = addr >> 7
                    repeats += line == ms._last_line
                    if line != ms._last_line:
                        returns += line == before
                        before = ms._last_line
                    accesses += 1
                    ms.access(addr, is_write, eip)
            else:
                for side in (drained, ms):
                    getattr(side, step[0])(*step[1:])
                before = -1
        assert repeats > accesses / 10 and returns > accesses / 4
        assert below > 50 and settled[True] > 50


class TestPEBS:
    def make_unit(self, interval=10, **cfg_overrides):
        cfg = PEBSConfig(**cfg_overrides)
        costs = []
        batches = []
        unit = PEBSUnit(cfg, costs.append, batches.append,
                        rng=random.Random(7))
        unit.configure("L1D_MISS", interval)
        return unit, costs, batches

    def test_samples_roughly_every_interval(self):
        unit, _, batches = self.make_unit(interval=10, ds_capacity=1000,
                                          watermark=1.0)
        for i in range(1000):
            unit.on_event(eip=i)
        unit.flush()
        total = sum(len(b) for b in batches)
        assert 80 <= total <= 120  # 1000/10 with jitter

    def test_interval_randomization_varies_countdowns(self):
        unit, _, batches = self.make_unit(interval=100, ds_capacity=10000,
                                          watermark=1.0)
        for i in range(20000):
            unit.on_event(eip=i)
        unit.flush()
        eips = [s.eip for b in batches for s in b]
        gaps = {b - a for a, b in zip(eips, eips[1:])}
        assert len(gaps) > 1  # not a fixed stride

    def test_watermark_interrupt(self):
        unit, _, batches = self.make_unit(interval=1, ds_capacity=10,
                                          watermark=0.5)
        for i in range(5):
            unit.on_event(eip=i)
        assert len(batches) == 1
        assert len(batches[0]) == 5

    def test_microcode_and_interrupt_costs_charged(self):
        unit, costs, _ = self.make_unit(interval=1, ds_capacity=10,
                                        watermark=0.5, microcode_cost=40,
                                        interrupt_cost=2000,
                                        kernel_copy_cost=8)
        for i in range(5):
            unit.on_event(eip=i)
        # 5 microcode saves + 1 interrupt + 5 kernel copies.
        assert sum(costs) == 5 * 40 + 2000 + 5 * 8

    def test_sample_records_eip(self):
        unit, _, batches = self.make_unit(interval=1)
        unit.on_event(eip=0xCAFE)
        unit.flush()
        assert batches[0][0].eip == 0xCAFE

    def test_stop_disables_sampling(self):
        unit, _, batches = self.make_unit(interval=1)
        unit.stop()
        unit.on_event(eip=1)
        unit.flush()
        assert batches == []

    def test_overrun_drops_samples(self):
        cfg = PEBSConfig(ds_capacity=4, watermark=2.0)  # interrupt never fires
        unit = PEBSUnit(cfg, lambda c: None, lambda b: None,
                        rng=random.Random(1))
        unit.configure("L1D_MISS", 1)
        for i in range(10):
            unit.on_event(eip=i)
        assert unit.samples_dropped == 6
        assert unit.pending == 4

    def test_set_interval_adjusts_future_countdown(self):
        unit, _, batches = self.make_unit(interval=1000, ds_capacity=10000,
                                          watermark=1.0)
        unit.set_interval(5)
        for i in range(100):
            unit.on_event(eip=i)
        unit.flush()
        assert sum(len(b) for b in batches) >= 10

    def test_rejects_zero_interval(self):
        unit, _, _ = self.make_unit()
        with pytest.raises(ValueError):
            unit.configure("L1D_MISS", 0)
        with pytest.raises(ValueError):
            unit.set_interval(0)

    def test_rejects_non_pebs_event(self):
        unit, _, _ = self.make_unit()
        with pytest.raises(Exception):
            unit.configure("INSTRUCTIONS", 100)

    def test_sample_is_40_bytes_nominal(self):
        assert PEBSConfig().sample_bytes == 40
        assert Sample(1).eip == 1


class TestIntervalRandomizationBias:
    """Section 6.1: randomizing the low interval bits prevents "measuring
    biased results by sampling at the same locations over and over".

    The adversarial input: two event sources strictly alternating (EIPs
    A, B, A, B, ...).  An exact *even* interval aliases with the
    pattern and only ever samples one of them; the randomized interval
    samples both.
    """

    def run_unit(self, randomize_bits, interval=10, events=4000):
        import random
        from collections import Counter

        taken = []
        cfg = PEBSConfig(ds_capacity=100_000, watermark=1.0,
                         randomize_bits=randomize_bits)
        unit = PEBSUnit(cfg, lambda c: None, lambda b: None,
                        rng=random.Random(11))
        unit.configure("L1D_MISS", interval)
        orig_append = unit._ds_buffer
        for i in range(events):
            eip = 0xA000 if i % 2 == 0 else 0xB000
            unit.on_event(eip)
        counts = Counter(s.eip for s in unit._ds_buffer)
        return counts

    def test_exact_even_interval_aliases(self):
        counts = self.run_unit(randomize_bits=0)
        # All samples land on one EIP: total bias.
        assert len(counts) == 1

    def test_randomized_interval_covers_both_sources(self):
        counts = self.run_unit(randomize_bits=8)
        assert len(counts) == 2
        a, b = counts[0xA000], counts[0xB000]
        assert min(a, b) > 0.2 * max(a, b)  # roughly balanced
