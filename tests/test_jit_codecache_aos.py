"""Tests for the code cache (sorted method table), map-size model, and
the adaptive optimization system."""

import pytest

from repro.core.config import JITConfig
from repro.gc import layout
from repro.jit.aos import AdaptiveOptimizationSystem, CompilationPlan
from repro.jit.baseline import compile_baseline
from repro.jit.codecache import CodeCache
from repro.jit.maps import corpus_map_sizes, method_map_sizes
from repro.jit.opt import compile_opt
from repro.vm.program import Program
from repro.workloads.synth import Fn


def make_methods(n=3, body=6):
    p = Program("t")
    app = p.define_class("App")
    app.seal()
    methods = []
    for k in range(n):
        fn = Fn(p, app, f"m{k}", args=["int"], returns="int")
        fn.iload(0)
        for _ in range(body):
            fn.iconst(k + 1).emit("iadd")
        fn.iret()
        methods.append(fn.finish())
    return p, methods


class TestCodeCache:
    def test_install_assigns_immortal_addresses(self):
        _, methods = make_methods()
        cache = CodeCache()
        cms = [cache.install(compile_baseline(m)) for m in methods]
        for cm in cms:
            assert layout.in_code_space(cm.code_addr)
        addrs = [cm.code_addr for cm in cms]
        assert addrs == sorted(addrs)
        # No overlap.
        for a, b in zip(cms, cms[1:]):
            assert a.end_addr <= b.code_addr

    def test_lookup_finds_containing_method(self):
        _, methods = make_methods()
        cache = CodeCache()
        cms = [cache.install(compile_baseline(m)) for m in methods]
        target = cms[1]
        eip = target.code_addr + 4 * (len(target.code) // 2)
        assert cache.lookup(eip) is target

    def test_lookup_first_and_last_instruction(self):
        _, methods = make_methods(n=1)
        cache = CodeCache()
        cm = cache.install(compile_baseline(methods[0]))
        assert cache.lookup(cm.code_addr) is cm
        assert cache.lookup(cm.end_addr - 4) is cm
        assert cache.lookup(cm.end_addr) is not cm

    def test_lookup_outside_code_space_returns_none(self):
        cache = CodeCache()
        assert cache.lookup(0x1234) is None           # "kernel space"
        assert cache.lookup(layout.NURSERY_BASE) is None

    def test_stale_code_tracked_not_removed(self):
        _, methods = make_methods(n=1)
        cache = CodeCache()
        base = cache.install(compile_baseline(methods[0]))
        opt = cache.install(compile_opt(methods[0]))
        cache.note_replaced(base)
        assert cache.stale_bytes == base.code_bytes
        # Both versions remain resolvable (code never moves).
        assert cache.lookup(base.code_addr) is base
        assert cache.lookup(opt.code_addr) is opt

    def test_pc_eip_roundtrip(self):
        _, methods = make_methods(n=1)
        cache = CodeCache()
        cm = cache.install(compile_baseline(methods[0]))
        for pc in range(len(cm.code)):
            assert cm.pc_of_eip(cm.eip_of_pc(pc)) == pc

    def test_bytecode_index_lookup(self):
        _, methods = make_methods(n=1)
        cache = CodeCache()
        cm = cache.install(compile_baseline(methods[0]))
        assert cm.bytecode_index(cm.code_addr) == 0


class TestMapSizes:
    def test_mc_maps_cover_every_instruction(self):
        _, methods = make_methods(n=1)
        cm = compile_baseline(methods[0])
        sizes = method_map_sizes(cm)
        assert sizes.machine_code == len(cm.code) * 4
        assert sizes.mc_maps > sizes.machine_code  # the paper's overhead

    def test_corpus_aggregation(self):
        _, methods = make_methods(n=4)
        cms = [compile_baseline(m) for m in methods]
        total = corpus_map_sizes(cms)
        assert total.machine_code == sum(
            method_map_sizes(cm).machine_code for cm in cms)

    def test_kb_rounding(self):
        _, methods = make_methods(n=1)
        sizes = method_map_sizes(compile_baseline(methods[0]))
        kb = sizes.kb()
        assert all(isinstance(v, int) for v in kb)


class TestAOS:
    def make(self, **over):
        return AdaptiveOptimizationSystem(JITConfig(**over))

    def test_hot_method_selected(self):
        _, methods = make_methods(n=1)
        aos = self.make(hot_samples=3)
        for _ in range(5):
            aos.sample(methods[0])
        assert methods[0] in aos.poll_decisions()

    def test_cold_method_not_selected(self):
        _, methods = make_methods(n=1)
        aos = self.make(hot_samples=10)
        aos.sample(methods[0])
        assert aos.poll_decisions() == []

    def test_decision_made_once(self):
        _, methods = make_methods(n=1)
        aos = self.make(hot_samples=2)
        for _ in range(10):
            aos.sample(methods[0])
        assert aos.poll_decisions() == [methods[0]]
        assert aos.poll_decisions() == []

    def test_cost_benefit_blocks_huge_cold_methods(self):
        # A very large method needs more evidence before recompilation
        # pays off.
        p = Program("t")
        app = p.define_class("App")
        app.seal()
        fn = Fn(p, app, "huge", args=["int"], returns="int")
        fn.iload(0)
        for _ in range(4000):
            fn.iconst(1).emit("iadd")
        fn.iret()
        huge = fn.finish()
        aos = self.make(hot_samples=2)
        for _ in range(2):
            aos.sample(huge)
        assert aos.poll_decisions() == []  # benefit < compile cost

    def test_none_samples_counted_only_in_total(self):
        aos = self.make()
        aos.sample(None)
        assert aos.total_samples == 1
        assert aos.samples == {}

    def test_hotness_fraction(self):
        _, methods = make_methods(n=2)
        aos = self.make()
        aos.sample(methods[0])
        aos.sample(methods[0])
        aos.sample(methods[1])
        assert aos.hotness(methods[0]) == pytest.approx(2 / 3)


class TestCompilationPlan:
    def test_contains_by_qualified_name(self):
        _, methods = make_methods(n=2)
        plan = CompilationPlan([methods[0].qualified_name])
        assert methods[0] in plan
        assert methods[1] not in plan

    def test_add_dedupes(self):
        _, methods = make_methods(n=1)
        plan = CompilationPlan()
        plan.add(methods[0]).add(methods[0].qualified_name)
        assert len(plan) == 1
