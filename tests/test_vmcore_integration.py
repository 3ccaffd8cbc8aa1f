"""End-to-end VM integration tests: the whole stack on small programs."""

import pytest

from tests.helpers import BASELINE_ONLY, hog_program, run_main
from repro.core.config import GCConfig, SystemConfig
from repro.jit.aos import CompilationPlan
from repro.vm.program import Program
from repro.vm.vmcore import VM, run_program
from repro.workloads.synth import Fn, define_string_factory, lcg_step


def churn_program(n=800, rounds=24):
    """A miniature db: string table with churn and shuffled reads."""
    p = Program("mini")
    app = p.define_class("App")
    app.add_static("sum", "int")
    app.add_static("rng", "int")
    app.seal()
    make = define_string_factory(p)
    string = p.string_class

    scan = Fn(p, app, "scan", args=["ref"], returns="int")
    acc, state, idx = scan.local(), scan.local(), scan.local()
    scan.getstatic(app, "rng").istore(state)
    scan.iconst(0).istore(acc)
    with scan.loop(n):
        lcg_step(scan, state, n)
        scan.istore(idx)
        scan.iload(state).iconst(16).emit("ishr").iconst(3).emit("iand")
        skip = scan.fresh_label()
        scan.emit("ifz", "ne", skip)
        scan.rload(0).iload(idx)
        scan.iconst(12).iload(idx).call(make)
        scan.emit("arrstore", "ref")
        scan.label(skip)
        scan.iload(acc)
        scan.rload(0).iload(idx).emit("arrload", "ref")
        scan.getfield(string, "value").iconst(0).emit("arrload", "char")
        scan.emit("iadd").istore(acc)
    scan.iload(state).putstatic(app, "rng")
    scan.iload(acc).iret()
    scan_m = scan.finish()

    fn = Fn(p, app, "main")
    table = fn.local()
    fn.iconst(99).putstatic(app, "rng")
    fn.iconst(n).emit("newarray", "ref").rstore(table)
    with fn.loop(n) as i:
        fn.rload(table).iload(i)
        fn.iconst(12).iload(i).call(make)
        fn.emit("arrstore", "ref")
    with fn.loop(rounds):
        fn.rload(table).call(scan_m)
        fn.getstatic(app, "sum").emit("iadd").putstatic(app, "sum")
    fn.ret()
    p.set_main(fn.finish())
    plan = CompilationPlan([scan_m.qualified_name, make.qualified_name])
    return p, app, plan


def checksum(app):
    return app.static_values[app.static("sum").index]


class TestDeterminism:
    def test_same_seed_same_cycles(self):
        results = []
        for _ in range(2):
            p, app, plan = churn_program()
            cfg = SystemConfig(gc=GCConfig(heap_bytes=256 * 1024), seed=5)
            results.append(run_program(p, cfg, compilation_plan=plan))
        assert results[0].cycles == results[1].cycles
        assert results[0].counters == results[1].counters

    def test_different_seed_same_semantics(self):
        sums = []
        for seed in (1, 2):
            p, app, plan = churn_program()
            cfg = SystemConfig(gc=GCConfig(heap_bytes=256 * 1024), seed=seed)
            run_program(p, cfg, compilation_plan=plan)
            sums.append(checksum(app))
        assert sums[0] == sums[1]


class TestConfigOrthogonality:
    """Monitoring, co-allocation, and GC plan must never change results."""

    def run_with(self, **overrides):
        p, app, plan = churn_program()
        cfg = SystemConfig(gc=GCConfig(heap_bytes=256 * 1024), seed=3,
                           **overrides)
        result = run_program(p, cfg, compilation_plan=plan)
        return checksum(app), result

    def test_monitoring_does_not_change_semantics(self):
        assert self.run_with(monitoring=False)[0] == \
            self.run_with(monitoring=True)[0]

    def test_coalloc_does_not_change_semantics(self):
        on, _ = self.run_with(monitoring=True, coalloc=True)
        off, _ = self.run_with(monitoring=False, coalloc=False)
        assert on == off

    def test_gencopy_does_not_change_semantics(self):
        ms, _ = self.run_with(monitoring=False, gc_plan="genms")
        copy, _ = self.run_with(monitoring=False, gc_plan="gencopy")
        assert ms == copy

    def test_sampling_interval_does_not_change_semantics(self):
        a, _ = self.run_with(monitoring=True, sampling_interval=250)
        b, _ = self.run_with(monitoring=True, sampling_interval=None)
        assert a == b

    def test_coalloc_changes_placement_not_values(self):
        _, off = self.run_with(monitoring=True, coalloc=False)
        _, on = self.run_with(monitoring=True, coalloc=True)
        assert on.gc_stats.coallocated_objects > 0
        assert on.counters["L1D_MISS"] < off.counters["L1D_MISS"]


class TestAdaptiveMode:
    def test_aos_opt_compiles_hot_methods(self):
        p, app, plan = churn_program(rounds=12)
        cfg = SystemConfig(gc=GCConfig(heap_bytes=256 * 1024),
                           monitoring=False)
        result = run_program(p, cfg, compilation_plan=None)  # adaptive
        scan = app.methods["scan"]
        assert scan.opt_code is not None
        assert scan.compile_count >= 2  # baseline then opt

    def test_pseudo_adaptive_compiles_plan_upfront(self):
        p, app, plan = churn_program(rounds=2)
        cfg = SystemConfig(gc=GCConfig(heap_bytes=256 * 1024),
                           monitoring=False)
        run_program(p, cfg, compilation_plan=plan)
        scan = app.methods["scan"]
        assert scan.opt_code is not None
        assert scan.current_code is scan.opt_code

    def test_baseline_only_plan_never_opts(self):
        p, app, plan = churn_program(rounds=2)
        cfg = SystemConfig(gc=GCConfig(heap_bytes=256 * 1024),
                           monitoring=False)
        run_program(p, cfg, compilation_plan=BASELINE_ONLY)
        assert app.methods["scan"].opt_code is None


class TestAccounting:
    def test_cycle_buckets_do_not_exceed_total(self):
        p, app, plan = churn_program()
        cfg = SystemConfig(gc=GCConfig(heap_bytes=256 * 1024))
        r = run_program(p, cfg, compilation_plan=plan)
        assert r.gc_cycles > 0
        assert r.monitoring_cycles > 0
        assert r.app_cycles > 0
        assert r.gc_cycles + r.monitoring_cycles < r.cycles

    def test_monitoring_overhead_is_small(self):
        p, app, plan = churn_program()
        cfg = SystemConfig(gc=GCConfig(heap_bytes=256 * 1024))
        r = run_program(p, cfg, compilation_plan=plan)
        assert r.monitoring_cycles / r.cycles < 0.06

    def test_counters_snapshot_consistency(self):
        p, app, plan = churn_program()
        cfg = SystemConfig(gc=GCConfig(heap_bytes=256 * 1024))
        r = run_program(p, cfg, compilation_plan=plan)
        c = r.counters
        assert c["L1D_ACCESS"] == c["LOADS"] + c["STORES"]
        assert c["L1D_MISS"] <= c["L1D_ACCESS"]
        assert c["L2_MISS"] <= c["L2_ACCESS"] <= c["L1D_MISS"]
        assert c["INSTRUCTIONS"] == r.instructions
        assert c["CYCLES"] == r.cycles

    def test_monitor_summary_present_only_with_monitoring(self):
        p, app, plan = churn_program(rounds=2)
        on = run_program(p, SystemConfig(gc=GCConfig(heap_bytes=256 * 1024)),
                         compilation_plan=plan)
        assert on.monitor_summary is not None
        p2, app2, plan2 = churn_program(rounds=2)
        off = run_program(p2, SystemConfig(monitoring=False,
                                           gc=GCConfig(heap_bytes=256 * 1024)),
                          compilation_plan=plan2)
        assert off.monitor_summary is None


class TestErrors:
    def test_missing_main_rejected(self):
        p = Program("nomain")
        with pytest.raises(ValueError, match="no main"):
            run_program(p, SystemConfig(monitoring=False))

    def test_heap_exhaustion_surfaces(self):
        from repro.gc.plan import HeapExhausted
        cfg = SystemConfig(monitoring=False,
                           gc=GCConfig(heap_bytes=256 * 1024))
        with pytest.raises(HeapExhausted):
            run_program(hog_program(), cfg, compilation_plan=BASELINE_ONLY)
