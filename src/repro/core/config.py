"""Central configuration for the simulated platform.

Every tunable of the reproduction lives here: the machine model (a
Pentium-4-like memory hierarchy), the PEBS sampling unit, the cycle costs
charged for monitoring work, the garbage-collector cost model, and the
scaling factors that map the paper's absolute quantities onto our
laptop-scale simulated workloads (see DESIGN.md section 2, "Scaling").

The defaults reproduce the experimental platform of section 6.1 of the
paper: a 3 GHz Pentium 4 with a 16 KB L1 data cache (128-byte lines),
a 1 MB L2 cache, hardware stream prefetching, and a PEBS unit whose
sampling intervals have their low 8 bits randomized.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace


# ---------------------------------------------------------------------------
# Scaling: the paper's workloads execute ~10^11 instructions; ours execute
# ~10^5..10^7.  Sampling intervals and polling periods are divided by
# INTERVAL_SCALE so the *density* of samples per miss matches the paper.
# ---------------------------------------------------------------------------
INTERVAL_SCALE = 100

#: The paper's headline sampling intervals (Figure 2 / Figure 3), expressed
#: in events between samples *before* scaling.
PAPER_INTERVALS = {"25K": 25_000, "50K": 50_000, "100K": 100_000}


def fastpath_level(setting: "int | None" = None) -> int:
    """Resolve the translated-interpreter knob to an execution level.

    * ``0`` — the reference if/elif interpreter (the oracle),
    * ``1`` — per-instruction closure-threaded dispatch (the PR-3 path),
    * ``2`` — superblock dispatch: straight-line runs fused into single
      closures with batched memory simulation (the default).

    An explicit ``setting`` (``SystemConfig.fastpath``, clamped to
    0..2) wins; otherwise the ``REPRO_FASTPATH`` environment variable
    decides (``0``/``1``/anything else → level 2).  The knob selects
    *how* guest code is executed, never *what* it computes: all three
    levels are bit-identical (cycles, instructions, every event
    counter, PEBS samples), which is why the knob is deliberately
    absent from :class:`~repro.harness.runner.RunSpec` and therefore
    from the disk-cache key.
    """
    if setting is not None:
        return min(2, max(0, int(setting)))
    raw = os.environ.get("REPRO_FASTPATH", "2")
    if raw == "0":
        return 0
    if raw == "1":
        return 1
    return 2


def scaled_interval(name: str) -> int:
    """Return the scaled sampling interval for a paper interval name.

    >>> scaled_interval("25K")
    250
    """
    return PAPER_INTERVALS[name] // INTERVAL_SCALE


@dataclass
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    line_bytes: int
    ways: int
    hit_latency: int

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways


@dataclass
class TLBConfig:
    """Geometry and miss penalty of the data TLB."""

    entries: int = 64
    page_bytes: int = 4096
    miss_penalty: int = 30


@dataclass
class MachineConfig:
    """The simulated CPU and memory hierarchy.

    Latencies are in cycles and follow the published characteristics of the
    3 GHz Pentium 4 (Northwood/Prescott era) used in the paper.
    """

    #: L1 data cache: 16 KB, 128-byte lines (two 64-byte sectors; the paper
    #: counts 128-byte lines), 8-way.
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(16 * 1024, 128, 8, 2)
    )
    #: L2 unified cache: 128-byte lines, 8-way, 18-cycle hits.  The
    #: paper's machine has 1 MB; we default to a 128 KB *scaled* L2 so
    #: that the benchmarks' scaled working sets stand in the same
    #: relation to L2 capacity as the paper's (db's working set is many
    #: times L2 there; DESIGN.md §2).  Set ``size_bytes`` back to 1 MB
    #: for an unscaled machine.
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(128 * 1024, 128, 8, 18)
    )
    tlb: TLBConfig = field(default_factory=TLBConfig)
    #: Main-memory access latency in cycles.
    memory_latency: int = 200
    #: Base cost of one machine instruction (superscalar average).
    instruction_cost: int = 1
    #: Hardware stream prefetcher (P4 "hardware-based prefetching of data
    #: streams"): number of sequential-miss observations required to start
    #: a stream, and prefetch depth in lines.
    prefetch_trigger: int = 2
    prefetch_depth: int = 4


@dataclass
class PEBSConfig:
    """The precise event-based sampling unit (section 3.1 / 4.1).

    One sample is 40 bytes (EIP plus the register file;
    :data:`repro.hw.pebs.SAMPLE_BYTES`).  The CPU's microcode routine
    stores samples into the debug-store (DS) area and an interrupt is
    raised when the buffer fills to a watermark.
    """

    #: DS save-area capacity in samples (~4 KB buffer).
    ds_capacity: int = 100
    #: Interrupt watermark as a fraction of the DS capacity.
    watermark: float = 0.9
    #: Number of low interval-counter bits randomized per sample
    #: (section 6.1: "8 bits in our configuration").
    randomize_bits: int = 8
    #: Cycles charged for the microcode sample-save routine, per sample.
    microcode_cost: int = 40
    #: Cycles charged per PMU interrupt (kernel entry/exit + handler).
    interrupt_cost: int = 2000
    #: Cycles charged per sample copied from the DS area to the kernel
    #: buffer inside the interrupt handler.
    kernel_copy_cost: int = 8


@dataclass
class PerfmonConfig:
    """The three-layer sample collection stack (section 4.1).

    Polling intervals are expressed in cycles; the paper's 10 ms - 1000 ms
    adaptive range at 3 GHz is scaled by INTERVAL_SCALE to match our
    shorter executions.
    """

    #: Kernel sample buffer capacity (samples).
    kernel_buffer_capacity: int = 2048
    #: User-space library buffer: 80 KB / 40-byte samples = 2048 samples.
    user_buffer_bytes: int = 80 * 1024
    #: Cycles charged per sample copied kernel -> user (single batched copy,
    #: no per-sample JNI calls).
    user_copy_cost: int = 4
    #: Fixed cycles charged per poll (the JNI round trip).
    poll_cost: int = 400
    #: Adaptive polling range in cycles.  Paper: 10 ms .. 1000 ms on
    #: multi-minute executions; scaled to our run lengths (DESIGN.md §2)
    #: so a poll happens every ~0.5-20% of a typical execution.
    poll_min_cycles: int = 50_000
    poll_max_cycles: int = 2_000_000
    #: Collector-thread adaptivity targets (samples per poll): halve the
    #: polling interval above the high watermark, back off below the low.
    poll_batch_high: int = 64
    poll_batch_low: int = 8
    #: Cycles charged per sample for mapping raw EIPs to methods, bytecode
    #: and fields in the monitoring module.
    map_cost: int = 150


@dataclass
class MonitorConfig:
    """The online monitoring module (sections 4.2, 5.3, 6.4).

    Auto mode's sample-rate target is not a field: the controller steers
    to :data:`repro.core.controller.AUTO_TARGET_PER_PERIOD` samples per
    period, the paper's "default of 200 samples/sec" after scaling.
    """

    #: Length of one measurement period in cycles; per-field miss-rate time
    #: series (Figure 7) are aggregated per period.
    period_cycles: int = 200_000
    #: Moving-average window, in periods, for the Figure 7(b) trend line.
    moving_average_window: int = 3
    #: Number of consecutive regressed periods before a placement policy is
    #: reverted (Figure 8's "simple heuristic").
    revert_patience: int = 3
    #: Relative miss-rate increase that counts as a regression.
    revert_threshold: float = 0.25
    #: Monitoring duty cycle (the paper's suggested extension, section
    #: 6.3: "the overhead could be reduced by turning off monitoring for
    #: most of the time" when a program yields nothing to optimize).
    #: After ``duty_idle_periods`` consecutive periods without a single
    #: attributed sample, sampling is paused for ``duty_off_periods``
    #: periods, then re-armed to re-check for phase changes.
    duty_cycle: bool = False
    duty_idle_periods: int = 4
    duty_off_periods: int = 12


@dataclass
class GCConfig:
    """Memory management (section 5.1) and its cost model."""

    #: Total heap budget in bytes (mature + nursery).  Set per benchmark by
    #: the harness as a multiple of the measured minimum heap.
    heap_bytes: int = 4 * 1024 * 1024
    #: Free-list allocator: the largest cell, which is also the
    #: large-object threshold and the co-allocation cap (VM default
    #: setting of the paper: 40 size classes up to 4 KB).
    max_cell_bytes: int = 4096
    #: Smallest nursery the Appel-style variable nursery may shrink to.
    min_nursery_bytes: int = 64 * 1024
    #: Upper bound on the variable nursery.  Real deployments bound the
    #: nursery (Jikes' -X:gc:boundedNursery); for the simulator this is
    #: also the scaling knob that keeps promotion activity per simulated
    #: instruction in the paper's regime (DESIGN.md §2): without a bound,
    #: a 4x heap's nursery would swallow our scaled allocation volume and
    #: no minor GC would ever run.
    max_nursery_bytes: int = 192 * 1024
    #: Cost model (cycles).  Calibrated so that the baseline GenMS
    #: slowdown at the minimum heap lands in the 1.1-1.4x band typical
    #: of the paper-era measurements.
    minor_fixed_cost: int = 8000
    full_fixed_cost: int = 36000
    scan_object_cost: int = 40
    copy_byte_cost: float = 1.8
    sweep_cell_cost: int = 9
    mark_object_cost: int = 30
    write_barrier_cost: int = 2
    alloc_cost: int = 12


@dataclass
class JITConfig:
    """The adaptive optimization system (section 3.2) and compiler costs."""

    #: Virtual-time interval of the AOS call-stack sampling timer (cycles).
    aos_timer_cycles: int = 40_000
    #: A method whose top-of-stack sample count reaches this threshold is
    #: considered for recompilation.
    hot_samples: int = 6
    #: Compile cost per bytecode, per compiler (cycles).
    baseline_cost_per_bc: int = 30
    opt_cost_per_bc: int = 400
    #: Estimated speedup of opt-compiled code over baseline code, used by
    #: the cost/benefit model.
    opt_speedup: float = 2.5
    #: Method inlining in the opt compiler (small static callees).
    inline: bool = True
    #: Class-hierarchy-based devirtualization of monomorphic callv sites.
    devirtualize: bool = True


@dataclass
class SystemConfig:
    """Top-level configuration bundle for one VM execution."""

    machine: MachineConfig = field(default_factory=MachineConfig)
    pebs: PEBSConfig = field(default_factory=PEBSConfig)
    perfmon: PerfmonConfig = field(default_factory=PerfmonConfig)
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    gc: GCConfig = field(default_factory=GCConfig)
    jit: JITConfig = field(default_factory=JITConfig)
    #: Monitoring on/off and the sampling interval (events between samples,
    #: already scaled).  ``None`` interval selects the adaptive "auto" mode.
    monitoring: bool = True
    sampling_interval: "int | None" = None
    #: Monitored event name (see repro.hw.events).
    sampled_event: str = "L1D_MISS"
    #: Object co-allocation in the GC on/off.
    coalloc: bool = True
    #: Software method-boundary instrumentation profiling (the Georges
    #: et al. alternative to HPM sampling; see repro.core.counting).
    method_profiling: bool = False
    #: GC plan: "genms" (paper) or "gencopy" (Figure 6 comparator).
    gc_plan: str = "genms"
    #: Guest-code execution level (0 reference if/elif interpreter,
    #: 1 per-instruction closures, 2 superblocks); ``None`` (default)
    #: defers to ``REPRO_FASTPATH``.  Every level produces bit-identical
    #: results; see :func:`fastpath_level`.
    fastpath: "int | None" = None
    #: Seed for all randomized components.
    seed: int = 42
    # The run's pure observers.  The VM resolves the three fields once
    # into one :class:`repro.observers.Observers` bundle; ``None`` (the
    # default) attaches nothing, and whatever is attached leaves every
    # simulated number bit-identical.
    #: Optional :class:`repro.telemetry.Telemetry`: spans and metrics.
    telemetry: "object | None" = None
    #: Optional :class:`repro.lineage.DecisionLedger`: the causal log
    #: behind every online-optimization decision.
    lineage: "object | None" = None
    #: Optional :class:`repro.health.HealthMonitor`: phase segmentation
    #: and pathology detection, read off the run's ledger (one is made
    #: when ``lineage`` is None).
    health: "object | None" = None

    def copy(self, **overrides) -> "SystemConfig":
        """Return a shallow copy with ``overrides`` applied."""
        return replace(self, **overrides)


DEFAULT_CONFIG = SystemConfig()
