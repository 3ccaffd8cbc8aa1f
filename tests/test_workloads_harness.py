"""Tests for the workload DSL, the benchmark suite, and the harness."""

import pytest

from tests.helpers import (BASELINE_ONLY, define_string_factory, int_main,
                           run_main)
from repro.core.config import GCConfig, SystemConfig, scaled_interval
from repro.harness.runner import (INTERVAL_NAMES, RunSpec, clear_cache,
                                  record_for)
from repro.vm.program import Program
from repro.workloads import suite
from repro.workloads.synth import Fn, local_ref
from repro.workloads.suite import (Pair, Young, add_filler_methods,
                                  make_app_class)


class TestSynthDSL:
    def test_loop_with_local_ref_limit(self):
        def body(fn, app):
            limit = fn.local()
            acc = fn.local()
            fn.iconst(7).istore(limit)
            fn.iconst(0).istore(acc)
            with fn.loop(local_ref(limit)):
                fn.iload(acc).iconst(1).emit("iadd").istore(acc)
            fn.iload(acc)
        assert int_main(body) == 7

    def test_loop_with_step(self):
        def body(fn, app):
            acc = fn.local()
            fn.iconst(0).istore(acc)
            with fn.loop(10, start=0, step=2):
                fn.iload(acc).iconst(1).emit("iadd").istore(acc)
            fn.iload(acc)
        assert int_main(body) == 5

    def test_string_factory_builds_correct_string(self):
        p = Program("t")
        app = p.define_class("App")
        app.add_static("out", "int")
        app.seal()
        make = define_string_factory(p)
        fn = Fn(p, app, "main")
        s = fn.local()
        fn.iconst(10).iconst(5).call(make).rstore(s)
        # out = s.count * 1000 + s.value[3]
        fn.rload(s).getfield(p.string_class, "count")
        fn.iconst(1000).emit("imul")
        fn.rload(s).getfield(p.string_class, "value")
        fn.iconst(3).emit("arrload", "char")
        fn.emit("iadd").putstatic(app, "out")
        fn.ret()
        p.set_main(fn.finish())
        run_main(p)
        # count == 10; value[3] == (5 + 3) & 0xff == 8.
        assert app.static_values[0] == 10_008

    def test_fresh_labels_unique(self):
        p = Program("t")
        app = p.define_class("App")
        app.seal()
        fn = Fn(p, app, "m")
        assert fn.fresh_label() != fn.fresh_label()


class TestPatterns:
    def test_pair_factory_variable_payload_span(self):
        p = Program("t")
        app = make_app_class(p)
        Pair("Rec", n=1, churn_mask=-1, payload_len=8,
             payload_span=16).define(p, app)
        fn = Fn(p, app, "main")
        r = fn.local()
        fn.iconst(3).call(p.klass("Rec").methods["make"]).rstore(r)
        fn.rload(r).getfield("Rec", "data").emit("arraylength")
        fn.putstatic(app, "checksum")
        fn.ret()
        p.set_main(fn.finish())
        run_main(p)
        length = app.static_values[app.static("checksum").index]
        assert 8 <= length < 24

    def test_young_keep_array_too_short_rejected(self):
        # keep[i / keep_every] for i < burst needs (burst-1)//keep_every+1
        # slots; one fewer used to fail only at run time, out of bounds.
        with pytest.raises(ValueError, match="keep_len 2 < 10"):
            Young("A", 10, 1, 2)
        assert Young("A", 10, 1, 10).keep_len == 10

    def test_filler_methods_compile_and_run(self):
        p = Program("t")
        app = make_app_class(p)
        fillers = add_filler_methods(p, app, 5)
        assert len(fillers) == 5
        fn = Fn(p, app, "main")
        for k, m in enumerate(fillers):
            fn.iconst(k).call(m).emit("pop")
        fn.ret()
        p.set_main(fn.finish())
        result = run_main(p)
        assert result.instructions > 0

    def test_filler_methods_contain_gc_points(self):
        from repro.hw.isa import GC_POINT_OPS
        from repro.jit.baseline import compile_baseline
        p = Program("t")
        app = make_app_class(p)
        (filler,) = add_filler_methods(p, app, 1)
        cm = compile_baseline(filler)
        assert any(inst.op in GC_POINT_OPS for inst in cm.code)


class TestSuite:
    def test_table1_composition(self):
        names = suite.all_names()
        assert len(names) == 16
        assert set(suite.JVM98_NAMES) < set(names)
        assert set(suite.DACAPO_NAMES) < set(names)
        assert "pseudojbb" in names

    def test_build_unknown_rejected(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            suite.build("chart")

    def test_builders_produce_fresh_programs(self):
        a = suite.build("fop")
        b = suite.build("fop")
        assert a.program is not b.program

    @pytest.mark.parametrize("name", suite.all_names())
    def test_workload_wellformed(self, name):
        w = suite.build(name)
        assert w.program.main is not None
        assert w.min_heap_bytes >= 256 * 1024
        assert len(w.plan) >= 1
        # Every plan method exists in the program.
        qnames = {m.qualified_name for m in w.program.all_methods()}
        for planned in w.plan.opt_methods:
            assert planned in qnames, planned

    def test_small_benchmark_runs_end_to_end(self):
        w = suite.build("fop")
        cfg = SystemConfig(gc=GCConfig(heap_bytes=w.min_heap_bytes))
        from repro.vm.vmcore import run_program
        result = run_program(w.program, cfg, compilation_plan=w.plan)
        assert result.instructions > 10_000
        assert result.gc_stats.alloc_objects > 100

    def test_no_candidate_benchmarks_allocate_no_pairs(self):
        for name in suite.NO_CANDIDATE_NAMES:
            w = suite.build(name)
            assert w.no_candidates


class TestHarness:
    def test_scaled_intervals(self):
        assert scaled_interval("25K") == 250
        assert scaled_interval("100K") == 1000
        with pytest.raises(KeyError):
            scaled_interval("1M")

    def test_runspec_to_config(self):
        spec = RunSpec(benchmark="db", heap_mult=2.0, coalloc=True,
                       interval="50K", gc_plan="gencopy")
        cfg = spec.system_config(min_heap_bytes=1000)
        assert cfg.gc.heap_bytes == 2000
        assert cfg.coalloc is True
        assert cfg.sampling_interval == 500
        assert cfg.gc_plan == "gencopy"

    def test_auto_interval_maps_to_none(self):
        cfg = RunSpec(benchmark="db").system_config(1000)
        assert cfg.sampling_interval is None

    def test_unknown_interval_rejected(self):
        from repro.harness.runner import execute
        with pytest.raises(ValueError, match="unknown interval"):
            execute(RunSpec(benchmark="fop", interval="7K"))

    def test_measure_memoizes(self):
        clear_cache()
        spec = RunSpec(benchmark="fop", heap_mult=2.0)
        assert record_for(spec) is record_for(spec)
        clear_cache()

    def test_interval_names_cover_paper(self):
        assert set(INTERVAL_NAMES) == {"25K", "50K", "100K", "auto"}
