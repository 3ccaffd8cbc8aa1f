"""Stand-alone probes: one layer at a time, through its public functions.

A traced run calls :func:`layer_probes` after its passes.  The probes do
the same work whatever the workload, so a layer's number can be compared
between commits on its own; the numbers that *are* the workload's (miss
rates, GC counts, where a pass's time went) come from its records and
spans instead (:func:`record_counts`, ``run.py``).

Host times are reference milliseconds (``hostclock``), medians over the
stated repeats.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import replace
from typing import Callable, Dict, List

from repro.analysis import diff
from repro.core.config import GCConfig, MachineConfig
from repro.gc.gencopy import make_plan
from repro.gc.plan import GCHooks
from repro.harness import engine, runner
from repro.harness.record import RunRecord
from repro.harness.runner import RunSpec
from repro.health import HealthMonitor
from repro.hw import translate
from repro.hw.events import EventCounters
from repro.hw.memsys import MemorySystem
from repro.jit.baseline import compile_baseline
from repro.jit.opt import compile_opt
from repro.lineage import DecisionLedger
from repro.telemetry import Telemetry
from repro.telemetry.export import parse_prometheus_text
from repro.vm.program import Program
from repro.vm.snapshot import Snapshot
from repro.workloads import suite

from workloads import QUICK_CYCLES, Gate, HarnessWarm

#: Fleet round trips timed: p99 then has ten samples beyond it.
FLEET_TRIPS = 1100


def _median_ms(clock, fn: Callable, repeats: int) -> float:
    return statistics.median(
        clock.timed(fn)[1] * 1e3 for _ in range(repeats))


def _percentile(values: List[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]


def record_counts(records: List[RunRecord]) -> Dict[str, float]:
    """Exact simulated statistics of one pass's records."""
    def total(key: str) -> int:
        return sum(r.counters.get(key, 0) for r in records)

    cycles = sum(r.cycles for r in records)
    kinstr = sum(r.instructions for r in records) / 1000
    summaries = [r.monitor_summary for r in records if r.monitor_summary]
    return {
        "hw.sim_ipc": kinstr * 1000 / cycles,
        "hw.l1d_miss_per_kinstr": total("L1D_MISS") / kinstr,
        "hw.l2_miss_per_kinstr": total("L2_MISS") / kinstr,
        "hw.dtlb_miss_per_kinstr": total("DTLB_MISS") / kinstr,
        "perfmon.samples_taken": sum(
            s["resolved"] + s["dropped_foreign"] + s["dropped_baseline"]
            for s in summaries),
        "core.reverts": sum(len(r.reverted_experiments) for r in records),
        "core.sim_monitoring_fraction":
            sum(r.monitoring_cycles for r in records) / cycles,
        "gc.minor_gcs": sum(r.gc_stats.minor_gcs for r in records),
        "gc.full_gcs": sum(r.gc_stats.full_gcs for r in records),
        "gc.coallocated_objects":
            sum(r.gc_stats.coallocated_objects for r in records),
        "gc.sim_gc_fraction": sum(r.gc_cycles for r in records) / cycles,
    }


# -- hw -----------------------------------------------------------------------

def _cpu_levels(clock, quick: bool) -> Dict[str, float]:
    spec = RunSpec("compress", monitoring=False,
                   until_cycles=300_000 if quick else 2_000_000)
    out = {}
    for level in (2, 1, 0):
        result, ref_s, _ = clock.timed(runner.execute, spec, fastpath=level)
        out[f"hw.cpu_level{level}_mips"] = result.instructions / ref_s / 1e6
    return out


def _javac_vm(cycles: int):
    """A javac VM paused after ``cycles``: a realistic code cache and heap."""
    vm, _workload = runner.make_vm(
        "javac", RunSpec("javac", heap_mult=1.0, coalloc=True))
    vm.begin()
    vm.advance(until_cycles=cycles)
    return vm


def _translation(clock, quick: bool) -> Dict[str, float]:
    vm = _javac_vm(300_000 if quick else 1_500_000)
    methods = vm.codecache.methods
    tables = [translate.compile_superblocks(cm, vm.cpu) for cm in methods]
    return {
        "hw.translate_ms": _median_ms(clock, lambda: [
            translate.translate(cm, vm.cpu) for cm in methods], 5),
        "hw.superblock_compile_ms": _median_ms(clock, lambda: [
            translate.compile_superblocks(cm, vm.cpu) for cm in methods], 5),
        "hw.superblocks": sum(1 for table in tables
                              for block in table if block is not None),
    }


def _memsys(clock, quick: bool) -> Dict[str, float]:
    accesses = 10_000 if quick else 60_000
    rng = random.Random(7)

    def stream(span_bytes: int):
        run = 50
        eips = tuple(0x1000 + 4 * i for i in range(run))
        writes = (False,) * run
        return [([0x100000 + rng.randrange(span_bytes) & ~3
                  for _ in range(run)], writes, eips, 0)
                for _ in range(accesses // run)]

    out = {}
    for name, span in (("hit", 8 << 10), ("miss", 8 << 20)):
        segments = stream(span)
        memsys = MemorySystem(MachineConfig(), EventCounters())
        memsys.access_run_segments(segments)      # fill the caches
        ms = _median_ms(clock, lambda: memsys.access_run_segments(segments),
                        3)
        out[f"hw.memsys_{name}_ns"] = ms * 1e6 / accesses
    return out


# -- core / perfmon / model ------------------------------------------------------

#: Back-to-back rounds behind each overhead percentage: the median of
#: the per-round ratios, so a slow stretch of host time cancels out.
OVERHEAD_ROUNDS = 3


def _ns_per_instr(clock, spec: RunSpec, **observers) -> tuple:
    result, ref_s, _ = clock.timed(runner.execute, spec, fastpath=2,
                                   **observers)
    return ref_s * 1e9 / result.instructions, result


def _monitoring(clock, quick: bool) -> Dict[str, float]:
    on = RunSpec("db", until_cycles=QUICK_CYCLES if quick else 3_000_000)
    off = replace(on, monitoring=False)
    ratios = []
    for _ in range(OVERHEAD_ROUNDS):
        ns_off, _ = _ns_per_instr(clock, off)
        ns_on, result = _ns_per_instr(clock, on)
        ratios.append(ns_on / ns_off)
    return {
        "core.monitoring_host_overhead_pct":
            (statistics.median(ratios) - 1) * 100,
        "core.monitoring_sim_overhead_pct":
            result.monitoring_cycles
            / (result.cycles - result.monitoring_cycles) * 100,
    }


def _observers(clock, quick: bool) -> Dict[str, float]:
    spec = RunSpec("db", coalloc=True,
                   until_cycles=QUICK_CYCLES if quick else 3_000_000)
    layers = (("telemetry", Telemetry, "spans",
               lambda t: len(t.tracer.spans)),
              ("lineage", DecisionLedger, "entries", len),
              ("health", HealthMonitor, "phases",
               lambda h: len(h.report().phases)))
    ratios: Dict[str, List[float]] = {layer[0]: [] for layer in layers}
    out = {}
    for _ in range(OVERHEAD_ROUNDS):
        ns_off, _ = _ns_per_instr(clock, spec)
        for layer, make, counted, count in layers:
            observer = make()
            ns_on, _ = _ns_per_instr(clock, spec, **{layer: observer})
            ratios[layer].append(ns_on / ns_off)
            out[f"{layer}.{counted}"] = count(observer)
    for layer, values in ratios.items():
        out[f"{layer}.host_overhead_pct"] = \
            (statistics.median(values) - 1) * 100
    return out


def _model(quick: bool) -> Dict[str, float]:
    """db with co-allocation against db without, whole runs at heap 4x:
    the paper reports 28 % fewer L1 misses and 13.9 % fewer cycles."""
    bound = QUICK_CYCLES if quick else None
    base = runner.execute(RunSpec("db", monitoring=False,
                                  until_cycles=bound), fastpath=2)
    coalloc = runner.execute(RunSpec("db", coalloc=True,
                                     until_cycles=bound), fastpath=2)
    return {
        "model.db_l1_miss_reduction_pct":
            (1 - coalloc.l1_misses / base.l1_misses) * 100,
        "model.db_cycle_reduction_pct":
            (1 - coalloc.cycles / base.cycles) * 100,
    }


# -- gc / jit / workloads --------------------------------------------------------

def _collect_minor(clock) -> Dict[str, float]:
    """A GenMS minor collection over 2000 linked nursery objects, half of
    them reachable.  (A VM paused by ``advance`` is not at a GC point, so
    the collector is driven on a heap of the probe's own.)"""
    program = Program("probe")
    node = program.define_class("Node")
    node.add_field("next", "ref")
    node.add_field("value", "int")
    node.seal()

    def one() -> float:
        roots: list = []
        plan = make_plan("genms", GCConfig(heap_bytes=4 << 20),
                         GCHooks(roots=lambda: list(roots)))
        for i in range(2000):
            obj = plan.alloc_object(node)
            if i % 2:
                obj.write(0, roots[-1] if roots else None)
                roots[:] = [obj]
        return clock.timed(plan.collect_minor)[1] * 1e3

    return {"gc.collect_minor_ms": statistics.median(one() for _ in range(5))}


def _jit(clock) -> Dict[str, float]:
    methods = suite.build("javac").program.all_methods()
    return {
        "jit.baseline_compile_ms": _median_ms(
            clock, lambda: [compile_baseline(m) for m in methods], 3),
        "jit.opt_compile_ms": _median_ms(
            clock, lambda: [compile_opt(m) for m in methods], 3),
        "jit.methods_compiled": len(methods),
    }


def _build(clock) -> Dict[str, float]:
    return {"workloads.build_suite_ms": _median_ms(clock, suite.build_all, 3)}


# -- vm.snapshot / harness / fleet / analysis --------------------------------------

def _snapshot(clock, warm: HarnessWarm) -> Dict[str, float]:
    snap = warm.cache.get_snapshot(warm.base)
    vm = snap.restore()
    return {
        "vm.snapshot_capture_ms": _median_ms(
            clock, lambda: Snapshot.capture(vm), 3),
        "vm.snapshot_restore_ms": _median_ms(clock, snap.restore, 3),
        "vm.snapshot_bytes": len(snap.to_bytes()),
        "harness.snapshot_get_ms": _median_ms(
            clock, lambda: warm.cache.get_snapshot(warm.base), 3),
    }


def _harness(clock, warm: HarnessWarm) -> Dict[str, float]:
    spec = warm.matrix[1]
    record = warm.expected[spec]
    result = runner.execute(replace(spec, until_cycles=200_000), fastpath=2)

    def replay():
        runner.clear_cache()
        engine.run_specs(warm.matrix, jobs=1)

    def json_round_trip():
        RunRecord.from_json(record.to_json())

    return {
        "harness.replay_ms_per_spec":
            _median_ms(clock, replay, 10) / len(warm.matrix),
        "harness.diskcache_get_ms":
            _median_ms(clock, lambda: warm.cache.get(spec), 10),
        "harness.diskcache_put_ms":
            _median_ms(clock, lambda: warm.cache.put(spec, record), 10),
        "harness.record_mint_ms": _median_ms(
            clock, lambda: runner.record_from_result(spec, result), 10),
        "harness.record_json_ms": _median_ms(clock, json_round_trip, 10),
        "harness.record_bytes": len(json.dumps(record.to_json())),
        "analysis.diff_ms": _median_ms(
            clock, lambda: diff.diff_records(record, record), 10),
    }


def _fleet(clock, warm: HarnessWarm, trips: int) -> Dict[str, float]:
    client = warm.client
    submit_ms, wait_ms, fetch_ms, trip_ms = [], [], [], []

    def loop():
        n = len(warm.matrix)
        for i in range(trips):
            spec = warm.matrix[i % n]
            t0 = time.perf_counter()
            job = client.submit([warm.docs[spec]])
            t1 = time.perf_counter()
            client.job(job["job"], wait=True)
            t2 = time.perf_counter()
            client.record(warm.keys[spec])
            t3 = time.perf_counter()
            submit_ms.append((t1 - t0) * 1e3)
            wait_ms.append((t2 - t1) * 1e3)
            fetch_ms.append((t3 - t2) * 1e3)
            trip_ms.append((t3 - t0) * 1e3)

    _, ref_s, wall_s = clock.timed(loop)
    speed = wall_s / ref_s
    text, scrape_ref_s, _ = clock.timed(client.metrics)
    flat = {series: value
            for doc in parse_prometheus_text(text).values()
            for series, _labels, value in doc["samples"]}
    return {
        "fleet.submit_ms_p50": statistics.median(submit_ms) / speed,
        "fleet.wait_ms_p50": statistics.median(wait_ms) / speed,
        "fleet.record_fetch_ms_p50": statistics.median(fetch_ms) / speed,
        "fleet.roundtrip_ms_p99": _percentile(trip_ms, 99) / speed,
        "fleet.metrics_scrape_ms": scrape_ref_s * 1e3,
        "fleet.cache_hits": flat["repro_fleet_cache_hits"],
        "fleet.dedup_coalesced": flat["repro_fleet_dedup_coalesced"],
        "fleet.sim_runs": flat["repro_fleet_sim_runs"],
    }


def layer_probes(clock, seed: int, quick: bool, out_dir: str) -> Dict[str, float]:
    """Every stand-alone per-layer metric, by name."""
    out: Dict[str, float] = {}
    out.update(_cpu_levels(clock, quick))
    out.update(_translation(clock, quick))
    out.update(_memsys(clock, quick))
    out.update(_monitoring(clock, quick))
    out.update(_observers(clock, quick))
    out.update(_model(quick))
    out.update(_collect_minor(clock))
    out.update(_jit(clock))
    out.update(_build(clock))
    warm = HarnessWarm(seed, quick, out_dir)
    try:
        warm.setup(clock, Gate())
        out.update(_snapshot(clock, warm))
        out.update(_harness(clock, warm))
        out.update(_fleet(clock, warm, 50 if quick else FLEET_TRIPS))
    finally:
        warm.close()
    return out
