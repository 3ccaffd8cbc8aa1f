"""Tests for the closure-threaded guest-code translator.

The fast paths (:mod:`repro.hw.translate`) must be pure speedups: every
observable of a run — exit values, cycle and instruction counts,
hardware event counters, GC statistics, sampled EIPs — is bit-identical
to the reference interpreter at both level 1 (per-instruction closures)
and level 2 (superblocks), translations are cached per compiled method
and dropped on recompilation, and the ``fastpath`` knob never leaks
into the experiment cache key.
"""

import dataclasses

import pytest

from tests.helpers import BASELINE_ONLY
from repro.core.config import (GCConfig, SystemConfig, fastpath_enabled,
                               fastpath_level)
from repro.harness import diskcache, runner
from repro.harness.record import RunRecord
from repro.harness.runner import RunSpec, execute
from repro.hw.isa import M_BC, M_BR
from repro.hw.translate import (MIN_SUPERBLOCK, superblock_ranges,
                                translation_for)
from repro.vm.program import Program
from repro.vm.vmcore import VM, run_program
from repro.workloads.synth import Fn


def _loop_program(iters=200):
    """Main with a counted loop over allocation + field traffic."""
    p = Program("tr")
    app = p.define_class("App")
    app.add_static("out", "int")
    app.seal()
    box = p.define_class("Box")
    box.add_field("v", "int")
    box.seal()

    fn = Fn(p, app, "main")
    acc = fn.local()
    obj = fn.local()
    fn.iconst(0).istore(acc)
    with fn.loop(iters) as i:
        fn.new(box).rstore(obj)
        fn.rload(obj).iload(i).putfield(box, "v")
        fn.iload(acc).rload(obj).getfield(box, "v")
        fn.emit("iadd").istore(acc)
    fn.iload(acc).putstatic(app, "out")
    fn.ret()
    p.set_main(fn.finish())
    return p, app


def _vm(program, fastpath=True, plan=BASELINE_ONLY):
    cfg = SystemConfig(monitoring=False,
                       gc=GCConfig(heap_bytes=2 * 1024 * 1024),
                       fastpath=fastpath)
    return VM(program, cfg, compilation_plan=plan)


class TestKnob:
    def test_explicit_setting_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        assert fastpath_enabled(True) is True
        monkeypatch.setenv("REPRO_FASTPATH", "1")
        assert fastpath_enabled(False) is False

    def test_env_default_is_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_FASTPATH", raising=False)
        assert fastpath_enabled() is True
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        assert fastpath_enabled() is False

    def test_levels(self, monkeypatch):
        # Bools mean "reference" / "fastest", not levels 0/1 (True == 1
        # in Python; the bool check must win over the int clamp).
        assert fastpath_level(True) == 2
        assert fastpath_level(False) == 0
        for setting, level in ((0, 0), (1, 1), (2, 2), (5, 2), (-3, 0)):
            assert fastpath_level(setting) == level
        assert fastpath_enabled(1) is True
        monkeypatch.setenv("REPRO_FASTPATH", "1")
        assert fastpath_level() == 1
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        assert fastpath_level() == 0
        monkeypatch.delenv("REPRO_FASTPATH", raising=False)
        assert fastpath_level() == 2

    def test_cpu_fastpath_follows_config(self):
        p, _ = _loop_program()
        assert _vm(p, fastpath=True).cpu.fastpath_level == 2
        assert _vm(p, fastpath=False).cpu.fastpath_level == 0
        assert _vm(p, fastpath=1).cpu.fastpath_level == 1

    def test_level1_translation_has_no_blocks(self):
        p, _ = _loop_program()
        vm = _vm(p, fastpath=1)
        cm = vm.compiled_code_for(p.main)
        assert translation_for(cm, vm.cpu).blocks == [None] * len(cm.code)

    def test_level2_translation_has_blocks(self):
        p, _ = _loop_program()
        vm = _vm(p, fastpath=2)
        cm = vm.compiled_code_for(p.main)
        blocks = translation_for(cm, vm.cpu).blocks
        assert blocks is not None
        assert len(blocks) == len(cm.code)
        starts = [pc for pc, blk in enumerate(blocks) if blk is not None]
        assert starts  # the loop body really fused
        for pc in starts:
            length, closure = blocks[pc]
            assert length >= MIN_SUPERBLOCK
            assert callable(closure)
            # Mid-block pcs carry no entry: a branch landing inside a
            # fused run executes per-instruction.
            for mid in range(pc + 1, pc + length):
                assert blocks[mid] is None


class TestTranslationCache:
    def test_cached_and_idempotent(self):
        p, _ = _loop_program()
        vm = _vm(p)
        cm = vm.compiled_code_for(p.main)
        tr = translation_for(cm, vm.cpu)
        assert cm.translation is tr
        assert translation_for(cm, vm.cpu) is tr
        assert len(tr.handlers) == len(cm.code)

    def test_rebuilt_for_a_different_cpu(self):
        p, _ = _loop_program()
        vm1 = _vm(p)
        cm = vm1.compiled_code_for(p.main)
        tr1 = translation_for(cm, vm1.cpu)
        vm2 = _vm(p)
        tr2 = translation_for(cm, vm2.cpu)
        assert tr2 is not tr1
        assert cm.translation is tr2

    def test_invalidated_on_opt_recompile(self):
        p, _ = _loop_program()
        vm = _vm(p)
        cm = vm.compiled_code_for(p.main)
        translation_for(cm, vm.cpu)
        assert cm.translation is not None
        new_cm = vm.opt_compile(p.main)
        assert cm.translation is None      # stale version dropped
        assert new_cm is not cm
        assert new_cm.translation is None  # fresh version: built on demand


class TestBitIdentity:
    """Whole-run differential: both translated paths must reproduce the
    reference interpreter's RunRecord byte for byte."""

    @pytest.mark.parametrize("level", [1, 2], ids=["per-inst", "superblock"])
    @pytest.mark.parametrize("spec", [
        RunSpec(benchmark="fop", monitoring=True),
        RunSpec(benchmark="fop", monitoring=True, coalloc=True,
                gc_plan="gencopy", interval="25K"),
        RunSpec(benchmark="db", monitoring=False),
    ], ids=["fop-monitored", "fop-coalloc-gencopy", "db-unmonitored"])
    def test_records_identical(self, spec, level):
        ref = RunRecord.from_result(execute(spec, fastpath=False))
        fast = RunRecord.from_result(execute(spec, fastpath=level))
        assert fast.to_json() == ref.to_json()

    def test_aos_recompilation_identical(self):
        """No pre-generated plan: the AOS samples, decides, and opt
        recompiles mid-run — exercising translation (and cached
        superblock) invalidation and re-translation while frames are
        live."""
        outcomes = {}
        for fastpath in (0, 1, 2):
            p, app = _loop_program(6000)
            cfg = SystemConfig(monitoring=False,
                               gc=GCConfig(heap_bytes=4 * 1024 * 1024),
                               fastpath=fastpath)
            result = run_program(p, cfg, compilation_plan=None)
            out = app.static_values[app.static("out").index]
            outcomes[fastpath] = (out, result.cycles, result.instructions,
                                  result.counters,
                                  p.main.compile_count)
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]
        # The run was long enough for the AOS to actually recompile.
        assert outcomes[2][-1] > 1

    def test_until_cycles_slicing_identical(self):
        """Drive the CPU in fixed-size cycle slices; every intermediate
        (cycles, instructions) pair must match the reference.  At level
        2 this exercises the quantum-overshoot split: a fused run whose
        precomputed delta would overshoot the budget must execute
        per-instruction so the deadline check still fires on the exact
        cycle the reference stops at."""
        traces = {}
        for fastpath in (0, 1, 2):
            p, app = _loop_program(300)
            vm = _vm(p, fastpath=fastpath)
            cpu = vm.cpu
            cpu._push_frame(vm.compiled_code_for(p.main), ())
            trace = []
            while cpu.frames:
                cpu.run(until_cycles=cpu.cycles + 137)
                trace.append((cpu.cycles, cpu.instructions))
            out = app.static_values[app.static("out").index]
            traces[fastpath] = (trace, out)
        assert traces[1] == traces[0]
        assert traces[2] == traces[0]
        assert len(traces[2][0]) > 3  # really did run in slices


def _midbranch_program(iters=50):
    """A straight-line arithmetic region whose middle is a branch
    target: the loop's backedge lands between two fusible prefixes, so
    block discovery must split there (leader rule) instead of fusing
    one long run."""
    p = Program("split")
    app = p.define_class("App")
    app.add_static("out", "int")
    app.seal()
    fn = Fn(p, app, "main")
    acc = fn.local()
    i = fn.local()
    mid = fn.fresh_label("mid")
    fn.iconst(0).istore(acc)
    fn.iconst(0).istore(i)
    # Fusible prefix that falls through into the loop body: without the
    # leader at ``mid`` this would all be one straight-line run.
    fn.iconst(1).iconst(2).emit("iadd").istore(acc)
    fn.label(mid)
    fn.iload(acc).iconst(3).emit("iadd").istore(acc)
    fn.iload(i).iconst(1).emit("iadd").istore(i)
    fn.iload(i).iconst(iters)
    fn.emit("if_icmp", "lt", mid)
    fn.iload(acc).putstatic(app, "out")
    fn.ret()
    p.set_main(fn.finish())
    return p, app


class TestSuperblocks:
    """Block-discovery rules and superblock-specific edge cases."""

    def test_branch_into_middle_splits_leader(self):
        p, _ = _midbranch_program()
        vm = _vm(p, fastpath=2)
        cm = vm.compiled_code_for(p.main)
        code = cm.code
        targets = {inst.imm for inst in code if inst.op in (M_BC, M_BR)}
        ranges = superblock_ranges(code)
        assert ranges
        # No fused run spans a branch target ...
        for start, stop in ranges:
            assert not targets.intersection(range(start + 1, stop))
        # ... and the mid-region target really did split two adjacent
        # fusible runs: one block ends exactly where another starts.
        assert any(stop in targets and any(start == stop for start, _ in
                                           ranges)
                   for _, stop in ranges)

    def test_branch_into_middle_identical(self):
        """Entering a fused region other than at its start (the
        backedge hits a mid-region leader every iteration) stays
        bit-identical across all three interpreters."""
        outcomes = {}
        for level in (0, 1, 2):
            p, app = _midbranch_program()
            cfg = SystemConfig(monitoring=False,
                               gc=GCConfig(heap_bytes=2 * 1024 * 1024),
                               fastpath=level)
            result = run_program(p, cfg, compilation_plan=BASELINE_ONLY)
            out = app.static_values[app.static("out").index]
            outcomes[level] = (out, result.cycles, result.instructions,
                               result.counters)
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]

    def test_branch_terminator_fused(self):
        """A run may end with the branch that terminates it (classic
        superblock shape): the closure returns the taken pc."""
        p, _ = _loop_program()
        vm = _vm(p, fastpath=2)
        cm = vm.compiled_code_for(p.main)
        ranges = superblock_ranges(cm.code)
        assert any(cm.code[stop - 1].op in (M_BC, M_BR)
                   for _, stop in ranges)

    def test_superblock_invalidated_with_translation(self):
        """AOS recompilation drops the translation — and with it every
        cached superblock closure — so the next dispatch rebuilds from
        the new code."""
        p, _ = _loop_program()
        vm = _vm(p, fastpath=2)
        cm = vm.compiled_code_for(p.main)
        tr = translation_for(cm, vm.cpu)
        assert tr.blocks is not None
        vm.opt_compile(p.main)
        assert cm.translation is None


class TestCacheKeyUnchanged:
    """The knob rides on SystemConfig, never on the frozen RunSpec, so
    the disk-cache key is identical in both modes and a record computed
    under either serves both."""

    def test_runspec_has_no_fastpath_field(self):
        assert "fastpath" not in {f.name for f in
                                  dataclasses.fields(RunSpec)}

    def test_record_served_across_modes(self, tmp_path, monkeypatch):
        spec = RunSpec(benchmark="fop", monitoring=False)
        runner.set_disk_cache(diskcache.DiskCache(root=str(tmp_path)))
        try:
            monkeypatch.setenv("REPRO_FASTPATH", "1")
            before = runner.SIM_RUNS
            fast = runner.record_for(spec)
            assert runner.SIM_RUNS == before + 1
            runner.clear_cache()  # drop the memo; keep the disk layer
            monkeypatch.setenv("REPRO_FASTPATH", "0")
            ref = runner.record_for(spec)
            assert runner.SIM_RUNS == before + 1  # served, not simulated
            assert ref.to_json() == fast.to_json()
        finally:
            runner.set_disk_cache(None)
            runner.clear_cache()
