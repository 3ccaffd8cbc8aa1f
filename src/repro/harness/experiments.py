"""One entry point per table and figure of the paper's evaluation.

A figure is its run matrix, written once as a ``*_specs(...)`` function
over the three configurations the paper compares (:func:`plain`,
:func:`monitored`, :func:`full`), and a pure function of that matrix's
records: each driver makes one engine pass over its matrix (parallel
for what is missing, memo/disk for the rest) and computes its rows from
the returned records.  :func:`figure_specs` is the concatenation of the
``*_specs`` functions, so it cannot drift from what the figures run.

Each function returns a plain-data result object that the report module
formats like the paper's rows/series; the benchmark suite under
``benchmarks/`` asserts the *shapes* (who wins, roughly by how much,
where the crossovers fall) on these results.

Conventions (section 6):

* the **baseline** is the plain VM — no event sampling, no co-allocation
  (the "original VM configuration", FastAdaptiveGenMS),
* overhead/benefit runs have monitoring enabled; the co-allocation runs
  pay the full monitoring cost, exactly as in the paper,
* "heap size = 4x minimum heap size" is the default evaluation point;
  Figure 5/6 sweep 1x..4x,
* the auto interval adapts toward a fixed sample rate (section 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.harness import engine
from repro.harness.record import RunRecord
from repro.harness.runner import RunSpec, make_vm, record_for
from repro.jit.baseline import compile_baseline
from repro.jit.maps import MapSizes, method_map_sizes
from repro.vm.program import Program
from repro.workloads import suite
from repro.workloads.suite import add_filler_methods, make_app_class

#: The heap sizes of Figures 5 and 6, as multiples of the minimum heap.
HEAP_MULTS = (1.0, 1.5, 2.0, 3.0, 4.0)
#: The sampling intervals of Figures 2 and 3 (paper names; scaled by
#: INTERVAL_SCALE internally).
INTERVALS = ("25K", "50K", "100K")


# ---------------------------------------------------------------------------
# The three configurations, and a figure's one engine pass
# ---------------------------------------------------------------------------

def plain(benchmark: str, heap_mult: float = 4.0,
          gc_plan: str = "genms") -> RunSpec:
    """The baseline VM: no event sampling, no co-allocation."""
    return RunSpec(benchmark, heap_mult, coalloc=False, monitoring=False,
                   gc_plan=gc_plan)


def monitored(benchmark: str, interval: str = "auto") -> RunSpec:
    """Figure 2's run: sampling on, nothing acting on it, heap = 4x."""
    return RunSpec(benchmark, coalloc=False, monitoring=True,
                   interval=interval)


def full(benchmark: str, heap_mult: float = 4.0, interval: str = "auto",
         event: str = "L1D_MISS") -> RunSpec:
    """The full system: sampling drives co-allocation."""
    return RunSpec(benchmark, heap_mult, coalloc=True, monitoring=True,
                   interval=interval, event=event)


def run_matrix(specs: List[RunSpec],
               jobs: Optional[int]) -> Dict[RunSpec, RunRecord]:
    """One engine pass over a figure's matrix: spec -> record.

    With everything cached this costs a few dictionary lookups.
    """
    return dict(zip(specs, engine.run_specs(specs, jobs=jobs)))


def figure_specs(benchmarks: Optional[List[str]] = None,
                 heap_mults: Tuple[float, ...] = HEAP_MULTS,
                 intervals: Tuple[str, ...] = INTERVALS) -> List[RunSpec]:
    """Every spec-keyed run the table/figure suite performs, once each.

    The union of the matrices of Table 2 and Figures 2-8 (Figures 7 and
    8 read ``full(db)``, a Figure 4 point; the intervened run of Figure
    8 is intrinsically uncacheable and excluded).  Running these once
    leaves the entire suite free of simulation work.
    """
    names = benchmarks or suite.all_names()
    specs = (fig5_specs(names, heap_mults)
             + fig2_specs(names, intervals + ("auto",))
             + fig3_specs(names, intervals)
             + fig4_specs(names) + table2_specs(names))
    if "db" in names:
        specs += fig6_specs("db", heap_mults)
    return list(dict.fromkeys(specs))


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

@dataclass
class Table1Row:
    name: str
    origin: str
    description: str


def table1() -> List[Table1Row]:
    """The benchmark list."""
    rows = []
    for name in suite.all_names():
        workload = suite.build(name)
        if name in suite.JVM98_NAMES:
            origin = "SPEC JVM98 (largest workload, s=100, repeated)"
        elif name == "pseudojbb":
            origin = "SPEC JBB2000, fixed transaction count"
        else:
            origin = "DaCapo (version 10-2006 MR-2)"
        rows.append(Table1Row(name, origin, workload.description))
    return rows


# ---------------------------------------------------------------------------
# Table 2 — space overhead of the machine-code maps
# ---------------------------------------------------------------------------

@dataclass
class Table2Row:
    name: str
    machine_code_kb: int
    gc_maps_kb: int
    mc_maps_kb: int


#: Synthetic boot-image corpus: the VM's own compiled methods.  Sized so
#: the boot rows dominate the application rows, as in the paper; machine-
#: code maps are only generated for the library/application subset of the
#: boot image ("we consider only library and application classes and
#: leave out VM internal classes").
BOOT_CORPUS_METHODS = 12000
#: Only library/application classes of the boot image get extended maps
#: ("we consider only library and application classes and leave out VM
#: internal classes") — a minority of the boot corpus.
BOOT_MC_MAP_FRACTION = 0.13
#: Non-code boot-image content (heap objects, JTOC, type information)
#: relative to code+maps; used for the ~20% total-growth figure.
BOOT_OTHER_FACTOR = 1.0


def _boot_corpus_sizes() -> MapSizes:
    program = Program("bootimage")
    app = make_app_class(program)
    methods = add_filler_methods(program, app, BOOT_CORPUS_METHODS,
                                 body_loops=5)
    total = MapSizes()
    for i, method in enumerate(methods):
        sizes = method_map_sizes(compile_baseline(method))
        if i >= int(BOOT_CORPUS_METHODS * BOOT_MC_MAP_FRACTION):
            sizes.mc_maps = 0  # VM-internal class: no extended map
        total = total + sizes
    return total


def boot_image_growth() -> float:
    """Relative boot-image growth caused by the extended maps
    (paper: 45 MB -> 54 MB, i.e. ~20%)."""
    sizes = _boot_corpus_sizes()
    base = (sizes.machine_code + sizes.gc_maps)
    base += int(base * BOOT_OTHER_FACTOR)
    return sizes.mc_maps / base


def table2_specs(names: List[str]) -> List[RunSpec]:
    return [plain(name) for name in names]


def table2(benchmarks: Optional[List[str]] = None,
           jobs: Optional[int] = None) -> List[Table2Row]:
    """Machine code / GC map / MC map sizes per benchmark + boot image."""
    names = benchmarks or suite.all_names()
    records = run_matrix(table2_specs(names), jobs)
    rows = [Table2Row(name, *MapSizes(*records[plain(name)].map_sizes).kb())
            for name in names]
    rows.append(Table2Row("boot image", *_boot_corpus_sizes().kb()))
    return rows


# ---------------------------------------------------------------------------
# Figure 2 — sampling overhead
# ---------------------------------------------------------------------------

@dataclass
class OverheadRow:
    name: str
    #: interval name -> overhead fraction (0.01 = 1%).
    overhead: Dict[str, float]


def fig2_specs(names: List[str],
               intervals: Tuple[str, ...]) -> List[RunSpec]:
    return [spec for name in names
            for spec in [plain(name)] + [monitored(name, interval)
                                         for interval in intervals]]


def fig2_sampling_overhead(benchmarks: Optional[List[str]] = None,
                           intervals: Tuple[str, ...] = INTERVALS + ("auto",),
                           jobs: Optional[int] = None) -> List[OverheadRow]:
    """Execution-time overhead of event sampling (no co-allocation),
    relative to the no-monitoring baseline, at heap = 4x min."""
    names = benchmarks or suite.all_names()
    records = run_matrix(fig2_specs(names, intervals), jobs)
    return [OverheadRow(name, {
        interval: (records[monitored(name, interval)].cycles
                   / records[plain(name)].cycles - 1.0)
        for interval in intervals}) for name in names]


# ---------------------------------------------------------------------------
# Figure 3 — number of co-allocated objects per interval
# ---------------------------------------------------------------------------

@dataclass
class CoallocRow:
    name: str
    #: interval name -> co-allocated object count.
    counts: Dict[str, int]


def fig3_specs(names: List[str],
               intervals: Tuple[str, ...]) -> List[RunSpec]:
    return [full(name, interval=interval)
            for name in names for interval in intervals]


def fig3_coalloc_counts(benchmarks: Optional[List[str]] = None,
                        intervals: Tuple[str, ...] = INTERVALS,
                        jobs: Optional[int] = None) -> List[CoallocRow]:
    """Co-allocated objects at different sampling intervals, heap = 4x."""
    names = benchmarks or suite.all_names()
    records = run_matrix(fig3_specs(names, intervals), jobs)
    return [CoallocRow(name, {
        interval: records[full(name, interval=interval)].coallocated
        for interval in intervals}) for name in names]


# ---------------------------------------------------------------------------
# Figure 4 — L1 miss reduction
# ---------------------------------------------------------------------------

@dataclass
class MissReductionRow:
    name: str
    baseline_misses: int
    coalloc_misses: int

    @property
    def reduction(self) -> float:
        """Fractional reduction (0.28 = 28% fewer misses)."""
        if self.baseline_misses == 0:
            return 0.0
        return 1.0 - self.coalloc_misses / self.baseline_misses


def fig4_specs(names: List[str]) -> List[RunSpec]:
    return [config(name) for name in names for config in (plain, full)]


def fig4_l1_reduction(benchmarks: Optional[List[str]] = None,
                      jobs: Optional[int] = None) -> List[MissReductionRow]:
    """L1 miss reduction with co-allocation on, heap = 4x min."""
    names = benchmarks or suite.all_names()
    records = run_matrix(fig4_specs(names), jobs)
    return [MissReductionRow(name, records[plain(name)].l1_misses,
                             records[full(name)].l1_misses)
            for name in names]


# ---------------------------------------------------------------------------
# Figure 5 — normalized execution time across heap sizes
# ---------------------------------------------------------------------------

@dataclass
class ExecTimeRow:
    name: str
    #: heap multiple -> normalized time (coalloc+monitoring / plain VM).
    normalized: Dict[float, float]


def fig5_specs(names: List[str],
               heap_mults: Tuple[float, ...]) -> List[RunSpec]:
    return [config(name, mult) for name in names for mult in heap_mults
            for config in (plain, full)]


def fig5_exec_time(benchmarks: Optional[List[str]] = None,
                   heap_mults: Tuple[float, ...] = HEAP_MULTS,
                   jobs: Optional[int] = None) -> List[ExecTimeRow]:
    """Execution time of the full system relative to the plain VM,
    heap sizes 1x..4x, auto-selected sampling interval."""
    names = benchmarks or suite.all_names()
    records = run_matrix(fig5_specs(names, heap_mults), jobs)
    return [ExecTimeRow(name, {
        mult: (records[full(name, mult)].cycles
               / records[plain(name, mult)].cycles)
        for mult in heap_mults}) for name in names]


# ---------------------------------------------------------------------------
# Figure 6 — GenCopy vs GenMS (+ co-allocation) on db
# ---------------------------------------------------------------------------

@dataclass
class GCPlanComparison:
    benchmark: str
    #: heap multiple -> {config name -> cycles}.
    cycles: Dict[float, Dict[str, int]]

    def normalized(self, mult: float, config: str) -> float:
        """Time relative to plain GenMS at the same heap size."""
        return self.cycles[mult][config] / self.cycles[mult]["genms"]


def _fig6_configs(benchmark: str, mult: float) -> Dict[str, RunSpec]:
    return {"genms": plain(benchmark, mult),
            "genms+coalloc": full(benchmark, mult),
            "gencopy": plain(benchmark, mult, gc_plan="gencopy")}


def fig6_specs(benchmark: str,
               heap_mults: Tuple[float, ...]) -> List[RunSpec]:
    return [spec for mult in heap_mults
            for spec in _fig6_configs(benchmark, mult).values()]


def fig6_gencopy_vs_genms(benchmark: str = "db",
                          heap_mults: Tuple[float, ...] = HEAP_MULTS,
                          jobs: Optional[int] = None) -> GCPlanComparison:
    """db under GenMS, GenMS+co-allocation, and GenCopy (section 6.3)."""
    records = run_matrix(fig6_specs(benchmark, heap_mults), jobs)
    return GCPlanComparison(benchmark, {
        mult: {config: records[spec].cycles
               for config, spec in _fig6_configs(benchmark, mult).items()}
        for mult in heap_mults})


# ---------------------------------------------------------------------------
# Figure 7 — misses over time for String objects (db)
# ---------------------------------------------------------------------------

@dataclass
class TimelineResult:
    benchmark: str
    field_name: str
    #: [(end_cycle, events in period), ...]
    per_period: List[Tuple[int, int]]
    cumulative: List[Tuple[int, int]]
    moving_average: List[float]
    coallocated: int


def fig7_db_timeline(benchmark: str = "db") -> TimelineResult:
    """Cumulative (7a) and per-period (7b) misses attributed to
    ``String::value`` while co-allocation is active."""
    result = record_for(full(benchmark))
    name = suite.build(benchmark).program.string_class.field(
        "value").qualified_name
    per_period = result.series(name)
    return TimelineResult(
        benchmark=benchmark,
        field_name=name,
        per_period=per_period,
        cumulative=result.cumulative_series(name),
        moving_average=result.moving_average([n for _, n in per_period]),
        coallocated=result.coallocated,
    )


# ---------------------------------------------------------------------------
# Figure 8 — detecting and reverting a poor placement decision
# ---------------------------------------------------------------------------

@dataclass
class RevertResult:
    benchmark: str
    per_period: List[Tuple[int, int]]
    moving_average: List[float]
    gap_applied_period: int
    reverted: bool
    reverted_period: Optional[int]
    baseline_rate: float
    peak_rate: float
    final_rate: float


def fig8_revert(benchmark: str = "db",
                intervene_fraction: float = 0.35,
                lineage=None) -> RevertResult:
    """Insert one cache line of empty space between String and char[]
    mid-run; the monitoring feedback must detect the regression and
    switch back (section 6.4, Figure 8).

    ``lineage`` (an optional :class:`repro.lineage.DecisionLedger`)
    rides on the intervened VM, so the revert's full justification
    chain — gap change, experiment baseline, verdicts, revert — is
    recorded; ``repro explain --fig8`` reads it back.
    """
    # Expected run length from the normal co-allocation run.
    spec = full(benchmark)
    intervene_at = int(record_for(spec).cycles * intervene_fraction)

    vm, workload = make_vm(benchmark, spec, lineage=lineage)
    fld = vm.program.string_class.field("value")
    state = {"gap_period": -1}

    def intervene(now: int) -> None:
        # The paper: "we instructed the GC manually to place one cache
        # line of empty space (128 bytes) between the String and the
        # char[] objects".
        vm.coalloc_policy.set_gap(128)
        state["gap_period"] = len(vm.controller.monitor.periods)
        vm.controller.feedback.begin_experiment(
            "gap-128", fld, revert=lambda: vm.coalloc_policy.set_gap(0))

    vm.scheduler.at(intervene_at, intervene)
    vm.run()

    monitor = vm.controller.monitor
    per_period = monitor.series(fld)
    values = [n for _, n in per_period]
    moving = monitor.moving_average(values)
    experiments = vm.controller.feedback.experiments
    exp = experiments[0] if experiments else None
    gap_period = state["gap_period"]
    after = moving[gap_period:] if gap_period >= 0 else moving
    return RevertResult(
        benchmark=benchmark,
        per_period=per_period,
        moving_average=moving,
        gap_applied_period=gap_period,
        reverted=bool(exp and exp.reverted),
        reverted_period=exp.reverted_period if exp else None,
        baseline_rate=exp.baseline_rate if exp else 0.0,
        peak_rate=max(after) if after else 0.0,
        final_rate=moving[-1] if moving else 0.0,
    )


# ---------------------------------------------------------------------------
# Revert-storm seeding (repro doctor --storm)
# ---------------------------------------------------------------------------

class StormDriver:
    """Repeatedly applies a known-bad placement gap so the feedback
    engine reverts it, again and again — a seeded *revert storm* for the
    health detectors to flag (``repro doctor --storm``).

    Driven once per measurement period (scheduled just after the
    controller's period close, so the monitor state it reads is fresh):
    whenever no experiment is active, the previous one has been reverted,
    and the judged field is currently hot (a zero baseline can never
    regress, see :meth:`FeedbackEngine.on_period`), it re-applies the
    gap and opens the next experiment.  A class with bound-method
    callbacks, not closures, so the scheduler heap stays picklable.
    """

    #: The bad placement gap, in bytes: one cache line, as in Figure 8.
    GAP = 128
    #: Periods to wait after a revert before the next experiment opens.
    COOLDOWN_PERIODS = 2
    #: Re-arm only once the rate has fallen back to within this factor
    #: of the first experiment's baseline: after a revert the rate
    #: recovers *gradually* (mature objects keep their bad placement,
    #: Figure 8), and an experiment begun against that still-elevated
    #: baseline can never regress 25% further.
    RECOVER_FACTOR = 1.5

    def __init__(self, vm, field, count: int = 3):
        self.vm = vm
        self.field = field
        self.remaining = count
        self._baseline0: Optional[float] = None
        self._cooldown = 0
        self.begun = 0

    def on_period(self, now: int) -> None:
        if self.remaining <= 0:
            return
        feedback = self.vm.controller.feedback
        if feedback.active_experiments():
            return
        if self._cooldown > 0:
            self._cooldown -= 1
            return
        rate = self.vm.controller.monitor.recent_rate(self.field)
        if rate <= 0:
            return
        if self._baseline0 is not None \
                and rate > self._baseline0 * self.RECOVER_FACTOR:
            return
        self.vm.coalloc_policy.set_gap(self.GAP)
        self.begun += 1
        self.remaining -= 1
        self._cooldown = self.COOLDOWN_PERIODS
        exp = feedback.begin_experiment(f"storm-{self.begun}", self.field,
                                        revert=self._revert)
        if self._baseline0 is None:
            self._baseline0 = exp.baseline_rate

    def _revert(self) -> None:
        self.vm.coalloc_policy.set_gap(0)

    def reverted(self) -> int:
        feedback = self.vm.controller.feedback
        return sum(1 for e in feedback.reverted_experiments()
                   if e.name.startswith("storm-"))


def revert_storm(spec: RunSpec, count: int = 3, fastpath=None,
                 **observers) -> Tuple[object, StormDriver]:
    """Run ``spec`` with a revert storm seeded on its workload's first
    hot field (``String::value`` when it names none): the run ``repro
    doctor --storm`` builds.  ``observers`` are :func:`make_vm`'s
    ``telemetry``/``lineage``/``health``.

    Returns ``(result, driver)``; the driver says which field the storm
    hit and how many experiments were begun and reverted.
    """
    vm, workload = make_vm(spec.benchmark, spec, fastpath=fastpath,
                           **observers)
    if vm.coalloc_policy is None:
        raise ValueError("a revert storm needs co-allocation "
                         "(RunSpec coalloc=True)")
    if vm.controller is None:
        raise ValueError("a revert storm needs monitoring "
                         "(RunSpec monitoring=True)")
    class_name, field_name = (workload.hot_fields[0] if workload.hot_fields
                              else "String::value").split("::")
    driver = StormDriver(vm, vm.program.klass(class_name).field(field_name),
                         count=count)
    # Offset by one cycle so each firing sorts after the controller's
    # period close on the scheduler heap.
    vm.scheduler.every(1, vm.config.monitor.period_cycles, driver.on_period)
    return vm.run(), driver
