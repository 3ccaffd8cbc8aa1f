"""Ablation experiments for the design choices DESIGN.md calls out.

These go beyond the paper's figures but each is anchored in a claim the
paper makes in passing:

* **TLB-driven guidance** — "(Using TLB misses as driver for the
  optimization decisions does not improve the results.)" (section 6.3,
  on pseudojbb): drive the co-allocation policy from DTLB misses
  instead of L1 misses and compare.
* **Static oracle** — how much does the online warm-up cost versus a
  perfect a-priori hot-field table? (The gap is the price of *learning*
  the placement online, which the paper's infrastructure exists to make
  cheap.)
* **Hardware prefetcher** — the P4's stream prefetcher is why the
  streaming programs (compress) show so few expensive misses; turning
  it off must hurt them and leave pointer-chasers (db) nearly alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.config import GCConfig, SystemConfig
from repro.harness.experiments import full, plain, run_matrix
from repro.vm.vmcore import run_program
from repro.workloads import suite


@dataclass
class EventDriverResult:
    benchmark: str
    #: event name -> (cycles, L1 misses, co-allocated objects).
    by_event: Dict[str, tuple]
    baseline_cycles: int


def event_driver_ablation(benchmark: str = "pseudojbb",
                          heap_mult: float = 4.0,
                          jobs: Optional[int] = None) -> EventDriverResult:
    """Co-allocation guided by L1 vs DTLB misses (section 6.3's aside)."""
    base = plain(benchmark, heap_mult)
    guided = {event: full(benchmark, heap_mult, event=event)
              for event in ("L1D_MISS", "DTLB_MISS")}
    records = run_matrix([base, *guided.values()], jobs)
    by_event = {}
    for event, spec in guided.items():
        r = records[spec]
        by_event[event] = (r.cycles, r.l1_misses, r.coallocated)
    return EventDriverResult(benchmark, by_event, records[base].cycles)


@dataclass
class OracleResult:
    benchmark: str
    baseline_cycles: int
    online_cycles: int
    oracle_cycles: int
    online_coalloc: int
    oracle_coalloc: int

    @property
    def online_speedup(self) -> float:
        return 1 - self.online_cycles / self.baseline_cycles

    @property
    def oracle_speedup(self) -> float:
        return 1 - self.oracle_cycles / self.baseline_cycles


def static_oracle_ablation(benchmark: str = "db",
                           heap_mult: float = 4.0,
                           jobs: Optional[int] = None) -> OracleResult:
    """Online HPM guidance vs a perfect static hot-field oracle.

    The oracle knows each workload's hot field from construction
    (``Workload.hot_fields``), needs no monitoring, and guides from the
    very first collection — the upper bound on what co-allocation can
    deliver.
    """
    base, online = plain(benchmark, heap_mult), full(benchmark, heap_mult)
    records = run_matrix([base, online], jobs)

    workload = suite.build(benchmark)
    table = {}
    for qualified in workload.hot_fields:
        class_name, field_name = qualified.split("::")
        klass = workload.program.klass(class_name)
        table[klass] = klass.field(field_name)
    config = SystemConfig(
        gc=GCConfig(heap_bytes=int(workload.min_heap_bytes * heap_mult)),
        coalloc=True, monitoring=False)
    oracle = run_program(workload.program, config,
                         compilation_plan=workload.plan,
                         hot_field_override=lambda k: table.get(k))
    return OracleResult(
        benchmark=benchmark,
        baseline_cycles=records[base].cycles,
        online_cycles=records[online].cycles,
        oracle_cycles=oracle.cycles,
        online_coalloc=records[online].coallocated,
        oracle_coalloc=oracle.gc_stats.coallocated_objects,
    )


@dataclass
class PrefetchResult:
    benchmark: str
    cycles_with: int
    cycles_without: int
    l2_misses_with: int
    l2_misses_without: int

    @property
    def slowdown_without(self) -> float:
        return self.cycles_without / self.cycles_with - 1


def prefetcher_ablation(benchmark: str) -> PrefetchResult:
    """Run with and without the stream prefetcher (depth 0 disables it)."""
    workload_a = suite.build(benchmark)
    on_cfg = SystemConfig(
        gc=GCConfig(heap_bytes=workload_a.min_heap_bytes * 4),
        coalloc=False, monitoring=False)
    with_pf = run_program(workload_a.program, on_cfg,
                          compilation_plan=workload_a.plan)

    workload_b = suite.build(benchmark)
    off_cfg = SystemConfig(
        gc=GCConfig(heap_bytes=workload_b.min_heap_bytes * 4),
        coalloc=False, monitoring=False)
    off_cfg.machine.prefetch_depth = 0
    off_cfg.machine.prefetch_trigger = 10 ** 9
    without_pf = run_program(workload_b.program, off_cfg,
                             compilation_plan=workload_b.plan)
    return PrefetchResult(
        benchmark=benchmark,
        cycles_with=with_pf.cycles,
        cycles_without=without_pf.cycles,
        l2_misses_with=with_pf.counters["L2_MISS"],
        l2_misses_without=without_pf.counters["L2_MISS"],
    )
