"""The virtual machine: JIT + GC + runtime + monitoring, as one unit.

"We consider the JIT compiler, the virtual machine (VM), and the
runtime system as one unit since all components must cooperate to
perform most interesting optimizations" (section 1, footnote 1).

:class:`VM` wires together:

* the simulated hardware (memory hierarchy, PEBS unit, CPU),
* the compile-only execution strategy of Jikes RVM (baseline compile on
  first invocation; opt recompilation via the AOS or a pseudo-adaptive
  compilation plan),
* a generational GC plan (GenMS with optional HPM-guided co-allocation,
  or GenCopy),
* the three-layer sampling stack (PEBS -> perfmon kernel module ->
  user library -> collector thread) and the online-optimization
  controller that turns samples into GC guidance.

Cycle accounting is split into application, GC, and monitoring buckets
so the Figure 2 overhead and Figure 5/6 time breakdowns can be read off
directly.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.config import SystemConfig
from repro.core.controller import (
    AUTO_INITIAL_INTERVAL,
    OnlineOptimizationController,
)
from repro.gc import layout
from repro.gc.coalloc import CoallocationPolicy
from repro.gc.gencopy import make_plan
from repro.gc.plan import GCHooks
from repro.hw.cpu import CPU
from repro.hw.events import EventCounters
from repro.hw.memsys import MemorySystem
from repro.hw.pebs import PEBSUnit
from repro.jit.aos import AdaptiveOptimizationSystem, CompilationPlan
from repro.jit.baseline import compile_baseline
from repro.jit.codecache import CodeCache, CompiledMethod
from repro.jit.opt import compile_opt
from repro.observers import Observers
from repro.perfmon.collector import CollectorThread
from repro.perfmon.kernel import PerfmonKernelModule
from repro.perfmon.userlib import UserSampleLibrary
from repro.vm.model import ClassInfo, FieldInfo, MethodInfo
from repro.vm.program import Program
from repro.vm.scheduler import VirtualTimeScheduler


@dataclass
class RunResult:
    """Everything a harness needs from one execution."""

    program: str
    cycles: int
    instructions: int
    app_cycles: int
    gc_cycles: int
    monitoring_cycles: int
    counters: Dict[str, int]
    gc_stats: object
    monitor_summary: Optional[dict]
    exit_value: object
    #: Live references for deep inspection (time series, map sizes, ...).
    vm: "VM" = field(repr=False, default=None)

    @property
    def l1_misses(self) -> int:
        return self.counters["L1D_MISS"]

    @property
    def l1_miss_rate(self) -> float:
        accesses = self.counters["L1D_ACCESS"]
        return self.counters["L1D_MISS"] / accesses if accesses else 0.0

    @property
    def telemetry(self):
        """The run's telemetry bundle (the shared null one when off)."""
        return self.vm.observers.telemetry if self.vm is not None else None


class VM:
    """One configured execution environment for one guest program."""

    def __init__(self, program: Program, config: Optional[SystemConfig] = None,
                 compilation_plan: Optional[CompilationPlan] = None,
                 hot_field_override=None):
        self.program = program
        self.config = config or SystemConfig()
        self.compilation_plan = compilation_plan
        self.rng = random.Random(self.config.seed)
        #: The run's pure observers — telemetry, the decision ledger,
        #: the health monitor — resolved once; every layer below gets
        #: this one bundle.
        self.observers = obs = Observers(self.config.telemetry,
                                         self.config.lineage,
                                         self.config.health)

        # Hardware.
        self.counters = EventCounters()
        self.memsys = MemorySystem(self.config.machine, self.counters)
        self.scheduler = VirtualTimeScheduler()
        self.codecache = CodeCache()

        # Cycle buckets (application cycles are computed as the rest).
        self.gc_cycles = 0
        self.monitoring_cycles = 0
        self.compile_cycles = 0
        self._gc_disabled = 0

        # Garbage collector.
        self.coalloc_policy: Optional[CoallocationPolicy] = None
        if self.config.coalloc and self.config.gc_plan == "genms":
            provider = hot_field_override or self._hot_field
            self.coalloc_policy = CoallocationPolicy(
                provider, max_combined_bytes=self.config.gc.max_cell_bytes,
                observers=obs)
        hooks = GCHooks(roots=self._gc_roots, charge=self._charge_gc,
                        pollute_minor=self.memsys.pollute_minor,
                        pollute_full=self.memsys.pollute_full,
                        safepoint=self._gc_safepoint)
        self.plan = make_plan(self.config.gc_plan, self.config.gc, hooks,
                              self.coalloc_policy, observers=obs)

        # CPU.
        self.cpu = CPU(self.config.machine, self.memsys, runtime=self,
                       scheduler=self.scheduler,
                       fastpath=self.config.fastpath)
        # Trace, ledger and health timestamps come from the simulated
        # cycle clock.
        obs.bind(self)
        self.method_profiler = None
        if self.config.method_profiling:
            from repro.core.counting import MethodProfiler

            self.method_profiler = MethodProfiler(
                event_reader=self._read_l1_misses,
                charge=self._charge_monitoring)
            self.cpu.profiler = self.method_profiler

        # JIT.
        self.aos = AdaptiveOptimizationSystem(self.config.jit)
        self._statics_cursor = layout.STATICS_BASE
        self._static_bases: Dict[ClassInfo, int] = {}
        #: Sliced-execution state: frames pushed / final drain done.
        self._began = False
        self._finished = False

        # Monitoring stack.
        self.pebs: Optional[PEBSUnit] = None
        self.kernel: Optional[PerfmonKernelModule] = None
        self.userlib: Optional[UserSampleLibrary] = None
        self.collector: Optional[CollectorThread] = None
        self.controller: Optional[OnlineOptimizationController] = None
        if self.config.monitoring:
            self._init_monitoring()

    # -- monitoring stack ----------------------------------------------------------

    def _init_monitoring(self) -> None:
        cfg = self.config
        obs = self.observers
        self.kernel = PerfmonKernelModule(cfg.perfmon, observers=obs)
        self.pebs = PEBSUnit(
            cfg.pebs, cost_sink=self._charge_monitoring,
            interrupt_handler=self._pebs_interrupt,
            rng=random.Random(cfg.seed ^ 0x5EB5))
        interval = cfg.sampling_interval or AUTO_INITIAL_INTERVAL
        session = self.kernel.create_session(self.pebs, cfg.sampled_event,
                                             interval)
        self.memsys.arm_event(cfg.sampled_event, self.pebs.on_event)
        self.controller = OnlineOptimizationController(
            self.codecache, cfg.monitor, cfg.perfmon,
            charge=self._charge_monitoring,
            set_sampling_interval=session.set_interval,
            auto_interval=cfg.sampling_interval is None,
            sampling_switch=self._sampling_switch, observers=obs)
        self.controller.current_interval = interval
        self.userlib = UserSampleLibrary(session, cfg.perfmon,
                                         charge=self._charge_monitoring,
                                         gc_guard=self._gc_guard)
        self.collector = CollectorThread(self.userlib,
                                         self.controller.process_samples,
                                         self.scheduler, cfg.perfmon,
                                         observers=obs)

    # -- picklable callbacks ---------------------------------------------------------
    # Every callback installed into long-lived simulation state must be
    # a bound method so the object graph survives a snapshot pickle.

    def _cycle_clock(self) -> int:
        return self.cpu.cycles

    def _read_l1_misses(self) -> int:
        return self.memsys.n_l1_miss

    def _pebs_interrupt(self, batch) -> None:
        self.kernel.session.on_interrupt(batch)

    def _sampling_switch(self, enable: bool) -> None:
        if enable:
            self.pebs.configure(self.config.sampled_event,
                                self.controller.current_interval)
        else:
            self.pebs.stop()

    # -- cycle buckets ---------------------------------------------------------------

    def _charge_gc(self, cycles: int) -> None:
        self.gc_cycles += cycles
        self.plan.stats.gc_cycles += cycles
        self.cpu.charge(cycles)

    def _charge_monitoring(self, cycles: int) -> None:
        self.monitoring_cycles += cycles
        self.cpu.charge(cycles)

    def _charge_compile(self, cycles: int) -> None:
        self.compile_cycles += cycles
        self.cpu.charge(cycles)

    # -- GC integration -----------------------------------------------------------------

    def _gc_roots(self):
        if self._gc_disabled:
            raise RuntimeError("GC triggered while disabled (sample copy)")
        roots = self.cpu.gc_roots()
        for klass in self.program.classes.values():
            for fld in klass.static_fields.values():
                if fld.is_ref:
                    value = klass.static_values[fld.index]
                    if value is not None:
                        roots.append(value)
        return roots

    def _gc_safepoint(self) -> None:
        self.cpu.safepoint()

    @contextmanager
    def _gc_guard(self):
        """Disable the GC while samples are copied from the native side."""
        self._gc_disabled += 1
        try:
            yield
        finally:
            self._gc_disabled -= 1

    def _hot_field(self, klass: ClassInfo) -> Optional[FieldInfo]:
        if self.controller is None:
            return None
        return self.controller.hot_field(klass)

    # -- JIT integration -----------------------------------------------------------------

    def compiled_code_for(self, method: MethodInfo) -> CompiledMethod:
        """Compile-on-first-invocation (baseline), like Jikes RVM."""
        cm = method.current_code
        if cm is not None:
            return cm
        obs = self.observers
        with obs.tracer.span("jit.compile_baseline", cat="jit",
                             method=method.qualified_name):
            obs.compiled("baseline", len(method.code))
            cm = compile_baseline(method)
            self.codecache.install(cm)
            self._charge_compile(
                self.config.jit.baseline_cost_per_bc
                * max(1, len(method.code)))
        method.baseline_code = cm
        method.current_code = cm
        method.compile_count += 1
        if self.controller is not None:
            self.controller.on_method_compiled(cm)
        return cm

    def opt_compile(self, method: MethodInfo,
                    reason: str = "manual") -> CompiledMethod:
        """Recompile at the optimizing level; new calls use the new code."""
        obs = self.observers
        with obs.tracer.span("jit.compile_opt", cat="jit",
                             method=method.qualified_name):
            obs.compiled("opt", len(method.code))
            cm = compile_opt(method, inline=self.config.jit.inline,
                             inline_max_bytecodes=self.config.jit.inline_max_bytecodes,
                             devirt=self.config.jit.devirtualize)
            self.codecache.install(cm)
            self._charge_compile(
                self.config.jit.opt_cost_per_bc * max(1, len(method.code)))
        obs.recompile(method, reason, *self.aos.decision_stats(method),
                      cm.devirt_sites)
        if method.current_code is not None:
            self.codecache.note_replaced(method.current_code)
        method.opt_code = cm
        method.current_code = cm
        method.compile_count += 1
        if self.controller is not None:
            self.controller.on_method_compiled(cm)
        return cm

    def static_addr(self, klass: ClassInfo, fld: FieldInfo) -> int:
        # Keyed by the ClassInfo itself (identity hash) rather than
        # id(klass): ids are not stable across a snapshot round-trip.
        base = self._static_bases.get(klass)
        if base is None:
            base = self._statics_cursor
            self._static_bases[klass] = base
            span = max(64, 4 * len(klass.static_values))
            self._statics_cursor += (span + 63) & ~63
        return base + fld.offset

    def _aos_tick(self, now: int) -> None:
        frames = self.cpu.frames
        method = frames[-1].cm.method if frames else None
        self.aos.sample(method)
        for decided in self.aos.poll_decisions():
            self.opt_compile(decided, reason="aos")

    # -- execution ------------------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute the program's main method to completion."""
        self.begin()
        self.advance()
        return self.finish()

    def begin(self) -> None:
        """Install timers, apply the plan, and push the entry frame.

        Splitting :meth:`run` into begin/advance/finish lets the
        harness execute a program in ``until_cycles`` slices and
        snapshot the VM between slices (see ``repro.vm.snapshot``).
        ``run()`` is exactly ``begin(); advance(); finish()``.
        """
        if self._began:
            raise RuntimeError("VM.begin() called twice")
        if self.program.main is None:
            raise ValueError(f"program {self.program.name} has no main")
        self._began = True

        # Pseudo-adaptive mode: apply the pre-generated compilation plan
        # ("each program runs with a pre-generated compilation plan",
        # section 6.1); otherwise let the AOS sample and decide.
        if self.compilation_plan is not None:
            wanted = set(self.compilation_plan.opt_methods)
            for method in self.program.all_methods():
                if method.qualified_name in wanted:
                    self.opt_compile(method, reason="plan")
        else:
            self.scheduler.every(0, self.config.jit.aos_timer_cycles,
                                 self._aos_tick)

        if self.controller is not None:
            self.scheduler.every(0, self.config.monitor.period_cycles,
                                 self.controller.on_period)
            self.collector.start()

        self.cpu.begin_main(self.program.main)

    def advance(self, until_cycles: Optional[int] = None) -> bool:
        """Run until main returns or the cycle deadline passes.

        Returns True once the program has run to completion.  The
        deadline lands on the same scheduler-quantum boundaries the
        interpreters already honour, so stopping here and resuming
        later (possibly in another process, via a snapshot) is
        bit-identical to an unbroken run.
        """
        if not self._began:
            raise RuntimeError("VM.advance() before begin()")
        self.cpu.run(until_cycles=until_cycles)
        return not self.cpu.frames

    def finish(self) -> RunResult:
        """Drain late samples and assemble the :class:`RunResult`.

        Also valid for a run truncated by an ``until_cycles`` bound
        (frames still live): the result then reports the state at the
        bound and ``exit_value`` is None.  Capture any resume snapshot
        *before* calling this — the final drain mutates collector and
        controller state.
        """
        if self._finished:
            raise RuntimeError("VM.finish() called twice")
        self._finished = True
        exit_value = self.cpu.exit_value

        # Final drain so late samples are not lost to the report.
        if self.collector is not None:
            self.collector.stop()
            self.collector.drain_now()
            self.controller.on_period(self.cpu.cycles)

        self.cpu.sync_counters()
        cycles = self.cpu.cycles
        overhead = self.gc_cycles + self.monitoring_cycles + self.compile_cycles
        self.observers.publish(cycles, overhead)
        return RunResult(
            program=self.program.name,
            cycles=cycles,
            instructions=self.cpu.instructions,
            app_cycles=cycles - overhead,
            gc_cycles=self.gc_cycles,
            monitoring_cycles=self.monitoring_cycles,
            counters=self.counters.snapshot(),
            gc_stats=self.plan.stats,
            monitor_summary=(self.controller.summary()
                             if self.controller else None),
            exit_value=exit_value,
            vm=self,
        )


def run_program(program: Program, config: Optional[SystemConfig] = None,
                compilation_plan: Optional[CompilationPlan] = None,
                hot_field_override=None) -> RunResult:
    """Convenience one-shot entry point (the library's main API)."""
    vm = VM(program, config, compilation_plan, hot_field_override)
    return vm.run()
