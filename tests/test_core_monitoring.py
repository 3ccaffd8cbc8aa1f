"""Tests for the paper's core: interest analysis, sample mapping, the
online monitor, the feedback engine, and the controller."""

import pytest

from repro.core.config import MonitorConfig, PerfmonConfig
from repro.core.controller import OnlineOptimizationController
from repro.core.feedback import FeedbackEngine
from repro.core.interest import analyze_compiled_method, analyze_function
from repro.core.mapping import SampleResolver
from repro.core.monitor import OnlineMonitor
from repro.jit.baseline import compile_baseline
from repro.jit.codecache import CodeCache
from repro.jit.hir import build_hir
from repro.jit.opt import compile_opt
from repro.vm.program import Program
from repro.workloads.synth import Fn


def chase_program():
    """The paper's Figure 1 shape: p.y.i."""
    p = Program("t")
    app = p.define_class("App")
    app.seal()
    a = p.define_class("A")
    a.add_field("y", "ref")
    a.add_field("i", "int")
    a.seal()
    fn = Fn(p, app, "foo", args=["ref"], returns="int")
    fn.rload(0).getfield(a, "y").getfield(a, "i").iret()
    return p, a, fn.finish()


class TestInterestAnalysis:
    def test_figure1_pair(self):
        """The load of field i is mapped to the reference field A::y."""
        p, a, method = chase_program()
        func = build_hir(method)
        table = analyze_function(func)
        assert len(table) == 1
        (field,) = table.values()
        assert field.qualified_name == "A::y"

    def test_array_access_through_field(self):
        p = Program("t")
        app = p.define_class("App")
        app.seal()
        holder = p.define_class("Holder")
        holder.add_field("data", "ref")
        holder.seal()
        fn = Fn(p, app, "get", args=["ref"], returns="int")
        fn.rload(0).getfield(holder, "data").iconst(0).emit("arrload", "int")
        fn.iret()
        table = analyze_function(build_hir(fn.finish()))
        assert [f.qualified_name for f in table.values()] == ["Holder::data"]

    def test_base_from_parameter_not_interesting(self):
        p = Program("t")
        app = p.define_class("App")
        app.seal()
        a = p.define_class("A")
        a.add_field("i", "int")
        a.seal()
        fn = Fn(p, app, "get", args=["ref"], returns="int")
        fn.rload(0).getfield(a, "i").iret()
        assert analyze_function(build_hir(fn.finish())) == {}

    def test_base_from_array_load_not_interesting(self):
        p = Program("t")
        app = p.define_class("App")
        app.seal()
        a = p.define_class("A")
        a.add_field("i", "int")
        a.seal()
        fn = Fn(p, app, "get", args=["ref"], returns="int")
        fn.rload(0).iconst(0).emit("arrload", "ref").getfield(a, "i").iret()
        assert analyze_function(build_hir(fn.finish())) == {}

    def test_virtual_call_header_access_interesting(self):
        p = Program("t")
        app = p.define_class("App")
        app.seal()
        a = p.define_class("A")
        a.add_field("peer", "ref")
        a.seal()
        m = Fn(p, a, "go", args=["ref"], returns="int", static=False)
        m.iconst(1).iret()
        m.finish()
        fn = Fn(p, app, "call", args=["ref"], returns="int")
        fn.rload(0).getfield(a, "peer").callv(a, "go").iret()
        table = analyze_function(build_hir(fn.finish()))
        assert [f.qualified_name for f in table.values()] == ["A::peer"]

    def test_baseline_methods_not_analyzed(self):
        p, a, method = chase_program()
        cm = compile_baseline(method)
        assert analyze_compiled_method(cm) == {}


class TestSampleResolver:
    def setup_resolver(self):
        p, a, method = chase_program()
        cache = CodeCache()
        cm = cache.install(compile_opt(method))
        resolver = SampleResolver(cache)
        resolver.register_method(cm)
        return resolver, cm, a

    def test_foreign_eip_dropped(self):
        resolver, cm, a = self.setup_resolver()
        assert resolver.resolve(0x42) is None
        assert resolver.stats.dropped_foreign == 1

    def test_baseline_method_dropped(self):
        p, a, method = chase_program()
        cache = CodeCache()
        base_cm = cache.install(compile_baseline(method))
        resolver = SampleResolver(cache)
        resolver.register_method(base_cm)
        assert resolver.resolve(base_cm.code_addr) is None
        assert resolver.stats.dropped_baseline == 1

    def test_interesting_sample_attributed(self):
        resolver, cm, a = self.setup_resolver()
        interest = resolver.interest_table(cm)
        ir_id = next(iter(interest))
        pc = cm.ir_map.index(ir_id)
        resolved = resolver.resolve(cm.eip_of_pc(pc))
        assert resolved is not None
        assert resolved.field.qualified_name == "A::y"
        assert resolver.stats.attributed == 1

    def test_uninteresting_sample_resolved_without_field(self):
        resolver, cm, a = self.setup_resolver()
        interest = resolver.interest_table(cm)
        boring_pc = next(pc for pc in range(len(cm.code))
                         if cm.ir_map[pc] not in interest)
        resolved = resolver.resolve(cm.eip_of_pc(boring_pc))
        assert resolved is not None
        assert resolved.field is None
        assert resolver.stats.unattributed == 1


class TestOnlineMonitor:
    def fields(self):
        p = Program("t")
        a = p.define_class("A")
        f1 = a.add_field("x", "ref")
        f2 = a.add_field("y", "ref")
        a.seal()
        return a, f1, f2

    def test_weighted_recording(self):
        _, f1, _ = self.fields()
        mon = OnlineMonitor(MonitorConfig())
        mon.record(f1, weight=250)
        mon.record(f1, weight=250)
        assert mon.cumulative[f1] == 500
        assert mon.sample_counts[f1] == 2

    def test_hot_field_ranking(self):
        a, f1, f2 = self.fields()
        mon = OnlineMonitor(MonitorConfig())
        mon.record(f1, 10)
        mon.record(f2, 10)
        mon.record(f2, 10)
        assert mon.hot_field(a) is f2
        assert [f for f, _ in mon.ranked_fields(a)] == [f2, f1]

    def test_hot_field_threshold_uses_samples(self):
        a, f1, _ = self.fields()
        mon = OnlineMonitor(MonitorConfig())
        mon.record(f1, weight=10_000)  # one huge sample
        assert mon.hot_field(a, min_samples=2) is None
        mon.record(f1, weight=1)
        assert mon.hot_field(a, min_samples=2) is f1

    def test_periods_and_series(self):
        _, f1, _ = self.fields()
        mon = OnlineMonitor(MonitorConfig())
        mon.record(f1, 5)
        mon.close_period(100)
        mon.record(f1, 7)
        mon.close_period(200)
        mon.close_period(300)  # empty period
        assert mon.series(f1) == [(100, 5), (200, 7), (300, 0)]
        assert mon.cumulative_series(f1) == [(100, 5), (200, 12), (300, 12)]

    def test_moving_average(self):
        mon = OnlineMonitor(MonitorConfig(moving_average_window=3))
        assert mon.moving_average([3, 6, 9, 12]) == [3.0, 4.5, 6.0, 9.0]

    def test_recent_rate(self):
        _, f1, _ = self.fields()
        mon = OnlineMonitor(MonitorConfig(moving_average_window=2))
        mon.record(f1, 4)
        mon.close_period(1)
        mon.record(f1, 8)
        mon.close_period(2)
        assert mon.recent_rate(f1) == 6.0


class TestFeedbackEngine:
    def run_engine(self, rates, patience=3, threshold=0.25):
        _, f1, _ = TestOnlineMonitor().fields()
        cfg = MonitorConfig(revert_patience=patience,
                            revert_threshold=threshold,
                            moving_average_window=1)
        mon = OnlineMonitor(cfg)
        engine = FeedbackEngine(mon, cfg)
        # Two baseline periods at rate 10.
        for _ in range(2):
            mon.record(f1, 10)
            mon.close_period(0)
        reverted = []
        exp = engine.begin_experiment("t", f1, lambda: reverted.append(True))
        for rate in rates:
            if rate:
                mon.record(f1, rate)
            mon.close_period(0)
            engine.on_period()
        return exp, reverted

    def test_sustained_regression_reverts(self):
        exp, reverted = self.run_engine([20, 20, 20])
        assert reverted == [True]
        assert exp.reverted and not exp.active

    def test_brief_spike_tolerated(self):
        exp, reverted = self.run_engine([20, 10, 20, 10, 20, 10])
        assert reverted == []
        assert exp.active

    def test_improvement_never_reverts(self):
        exp, reverted = self.run_engine([5, 5, 5, 5])
        assert reverted == []

    def test_threshold_respected(self):
        # +20% is below the 25% threshold: no revert.
        exp, reverted = self.run_engine([12, 12, 12, 12])
        assert reverted == []


class TestController:
    def make(self, auto=False):
        p, a, method = chase_program()
        cache = CodeCache()
        cm = cache.install(compile_opt(method))
        charged = []
        intervals = []
        controller = OnlineOptimizationController(
            cache, MonitorConfig(), PerfmonConfig(),
            charge=charged.append,
            set_sampling_interval=intervals.append,
            auto_interval=auto)
        controller.on_method_compiled(cm)
        interest = controller.resolver.interest_table(cm)
        ir_id = next(iter(interest))
        hot_eip = cm.eip_of_pc(cm.ir_map.index(ir_id))
        return controller, cm, a, hot_eip, charged, intervals

    def test_batch_attribution_and_cost(self):
        controller, cm, a, hot_eip, charged, _ = self.make()
        n = controller.process_samples([hot_eip] * 5)
        assert n == 5
        assert charged == [PerfmonConfig().map_cost * 5]

    def test_hot_field_guidance_threshold(self):
        controller, cm, a, hot_eip, _, _ = self.make()
        need = controller.min_samples_for_guidance
        controller.process_samples([hot_eip] * (need - 1))
        assert controller.hot_field(a) is None
        controller.process_samples([hot_eip])
        assert controller.hot_field(a).qualified_name == "A::y"

    def test_auto_interval_halves_when_silent(self):
        controller, *_, intervals = self.make(auto=True)
        before = controller.current_interval
        controller.on_period(1000)
        assert controller.current_interval == before // 2
        assert intervals[-1] == before // 2

    def test_auto_interval_raises_when_flooded(self):
        controller, cm, a, hot_eip, _, intervals = self.make(auto=True)
        controller.process_samples([hot_eip] * 500)
        before = controller.current_interval
        controller.on_period(1000)
        assert controller.current_interval > before

    def test_summary_fields(self):
        controller, cm, a, hot_eip, _, _ = self.make()
        controller.process_samples([hot_eip, 0x1])
        summary = controller.summary()
        assert summary["attributed"] == 1
        assert summary["dropped_foreign"] == 1
        assert summary["interest_pairs"] == 1


class TestMethodAttribution:
    def test_resolved_samples_credit_methods(self):
        controller, cm, a, hot_eip, _, _ = TestController().make()
        controller.process_samples([hot_eip] * 4)
        ranked = controller.monitor.ranked_methods()
        assert ranked
        assert ranked[0][0] is cm.method

    def test_dropped_samples_credit_nothing(self):
        controller, cm, a, hot_eip, _, _ = TestController().make()
        controller.process_samples([0x1, 0x2])  # foreign EIPs
        assert controller.monitor.ranked_methods() == []

    def test_weighting_matches_interval(self):
        controller, cm, a, hot_eip, _, _ = TestController().make()
        controller.current_interval = 500
        controller.process_samples([hot_eip])
        assert controller.monitor.method_events[cm.method] == 500
