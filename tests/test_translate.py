"""Tests for the closure-threaded guest-code translator.

The fast paths (:mod:`repro.hw.translate`) must be pure speedups: every
observable of a run — exit values, cycle and instruction counts,
hardware event counters, GC statistics, sampled EIPs — is bit-identical
to the reference interpreter at both level 1 (per-instruction closures)
and level 2 (superblocks), translations are cached per compiled method
and dropped on recompilation, and the ``fastpath`` knob never leaks
into the experiment cache key.
"""

import collections
import dataclasses
import functools
from types import SimpleNamespace

import pytest

from tests.helpers import BASELINE_ONLY, hog_program
from repro.core.config import (GCConfig, SystemConfig, fastpath_enabled,
                               fastpath_level)
from repro.harness import diskcache, runner
from repro.harness.record import RunRecord
from repro.gc.plan import HeapExhausted
from repro.harness.runner import RunSpec, execute
from repro.hw import translate
from repro.hw.cpu import BUDGET_QUANTA, SCHED_QUANTUM
from repro.hw.isa import (
    ALU_OPS, BC_CONDS, GuestError, MInst,
    M_ALOAD, M_ALU, M_ALUI, M_ASTORE, M_BC, M_BR, M_CALL, M_CALLV, M_GETF,
    M_GETSTATIC, M_LDF, M_LEN, M_MOV, M_MOVI, M_NEW, M_NEWARR, M_NOP,
    M_NULLCHK, M_PUTF, M_PUTSTATIC, M_RET, M_STF,
)
from repro.hw.translate import (MIN_SUPERBLOCK, region_source,
                                superblock_ranges, superblock_rings,
                                superblock_source, translation_for)
from repro.gc import layout
from repro.jit.aos import CompilationPlan
from repro.jit.baseline import compile_baseline
from repro.vm.objects import HeapObject
from repro.vm.program import Program
from repro.vm.snapshot import Snapshot
from repro.vm.vmcore import VM, run_program
from repro.workloads import suite
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
        # ``new`` in the loop joins its ring: a region at the header.
        (ring,) = superblock_rings(cm.code)
        for pc in starts:
            length, closure, is_region = blocks[pc]
            assert length >= MIN_SUPERBLOCK
            assert callable(closure)
            assert is_region == (pc == ring[0][0])
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

    def test_negate_fuses(self):
        """``neg`` is an ALUI with no immediate (both JITs emit
        ``imm=None``): the literal-immediate requirement applies only to
        shapes that read theirs, so it does not break the run."""
        outcomes = {}
        for level in (0, 1, 2):
            p = Program("neg")
            app = p.define_class("App")
            app.add_static("out", "int")
            app.seal()
            fn = Fn(p, app, "main")
            v = fn.local()
            fn.iconst(5).istore(v)
            fn.iload(v).emit("ineg").iload(v).emit("iadd")
            fn.putstatic(app, "out")
            fn.ret()
            p.set_main(fn.finish())
            vm = _vm(p, fastpath=level)
            code = vm.compiled_code_for(p.main).code
            negs = [inst for inst in code
                    if inst.op == M_ALUI and inst.aux == "neg"]
            assert len(negs) == 1 and negs[0].imm is None
            assert translate.fusible(negs[0])
            # Everything up to the final ``ret`` is one run.
            assert superblock_ranges(code) == [(0, len(code) - 1)]
            result = vm.run()
            outcomes[level] = (app.static_values[app.static("out").index],
                               result.cycles, result.instructions,
                               result.counters)
        assert outcomes[0][0] == 0
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]

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


#: javac with no heap headroom: the suite's densest mix of write
#: barriers, allocations and collections.
JAVAC = RunSpec("javac", heap_mult=1.0, coalloc=True)


def _hook_log(spec, level, cycles):
    """Everything an ``L1D_MISS`` observer can read of the clock and the
    cycle buckets, at every firing of a bounded run."""
    vm, _ = runner.make_vm(spec.benchmark, spec, fastpath=level)
    cpu = vm.cpu
    log = []
    vm.memsys.attach_observer("L1D_MISS", lambda eip: log.append(
        (eip, cpu.cycles, cpu.instructions, vm.gc_cycles,
         vm.monitoring_cycles)))
    vm.begin()
    vm.advance(until_cycles=cycles)
    return log


class TestHookVisibleClock:
    """A hook fires *inside* a memory access, between flush points: the
    clock, the instruction count and the GC/monitoring buckets it reads
    there (what telemetry stamps on samples taken in the PEBS
    interrupt) are the same at every level — so deferred accesses,
    barrier charges and allocation flushes must replay in program
    order.  Entry counts were generated at the parent of PR 19."""

    @pytest.mark.parametrize("spec, cycles, entries", [
        (JAVAC, 1_500_000, 3969),
        (RunSpec("db", coalloc=True), 1_500_000, 2909),
        (RunSpec("jack", monitoring=False, heap_mult=1.0), 1_000_000, 3744),
    ], ids=["javac-coalloc-heap1x", "db-coalloc", "jack-unmonitored-heap1x"])
    def test_observer_log_identical_at_every_level(self, spec, cycles,
                                                   entries):
        ref = _hook_log(spec, 0, cycles)
        assert len(ref) == entries
        assert _hook_log(spec, 1, cycles) == ref
        assert _hook_log(spec, 2, cycles) == ref


# -- the pending log: never dropped, landed before anything reads it ---------

class _QueueWatch:
    """Test-side wrappers asserting ``cpu._pending`` is empty at every
    point that reads the memory system or the clock from outside the
    driver: each exit from ``CPU.run`` (return or raise), the opening
    of a ``gc.minor``/``gc.full`` span (a collection's first clock
    read), and each scheduler event."""

    def __init__(self, vm):
        self.vm = vm
        self.exits = self.gc_spans = self.events = 0
        cpu, plan, scheduler = vm.cpu, vm.plan, vm.scheduler
        run, tracer, run_due = cpu.run, plan._trace, scheduler.run_due
        watch = self

        def watched_run(until_cycles=None):
            try:
                run(until_cycles)
            finally:
                watch.exits += 1
                assert cpu._pending == []

        class WatchedTracer:
            def begin(self, name, **args):
                if name in ("gc.minor", "gc.full"):
                    watch.gc_spans += 1
                    assert cpu._pending == []
                return tracer.begin(name, **args)

            def __getattr__(self, attr):
                return getattr(tracer, attr)

        def watched_run_due(now):
            watch.events += 1
            assert cpu._pending == []
            return run_due(now)

        cpu.run = watched_run
        plan._trace = WatchedTracer()
        scheduler.run_due = watched_run_due


def _fault_program(fault):
    """Six int array stores, an int putfield and a ref putfield, then a
    fault — all straight-line, so at level 2 the stores and the barrier
    are still queued when the fault is raised."""
    p = Program("fault")
    app = p.define_class("App")
    app.add_static("out", "int")
    app.seal()
    box = p.define_class("Box")
    box.add_field("v", "int")
    box.add_field("next", "ref")
    box.seal()
    fn = Fn(p, app, "main")
    arr, obj, zero = fn.local(), fn.local(), fn.local()
    fn.iconst(8).emit("newarray", "int").rstore(arr)
    fn.new(box).rstore(obj)
    fn.iconst(0).istore(zero)
    for i in range(6):
        fn.rload(arr).iconst(i).iconst(3 * i).emit("arrstore", "int")
    fn.rload(obj).iconst(7).putfield(box, "v")
    fn.rload(obj).rload(obj).putfield(box, "next")
    if fault == "null getfield":
        fn.emit("aconst_null").getfield(box, "v")
    elif fault == "out of bounds":
        fn.rload(arr).iconst(8).emit("arrload", "int")
    elif fault == "division by zero":
        fn.iconst(5).iload(zero).emit("idiv")
    else:  # raised by a per-instruction handler, not a fused run
        assert fault == "negative array size"
        fn.iconst(-1).emit("newarray", "int").emit("arraylength")
    fn.putstatic(app, "out")
    fn.ret()
    p.set_main(fn.finish())
    return p


FAULTS = ("null getfield", "out of bounds", "division by zero",
          "negative array size")


class TestFaultParity:
    @pytest.mark.parametrize("fault", FAULTS)
    def test_state_after_guest_fault_identical(self, fault):
        """Everything queued before a fault has landed when it
        surfaces: the memory counters, the barrier's GC charge and the
        clock equal the reference's at every level."""
        states = {}
        for level in (0, 1, 2):
            vm = _vm(_fault_program(fault), fastpath=level)
            watch = _QueueWatch(vm)
            with pytest.raises(GuestError, match=fault):
                vm.run()
            assert watch.exits == 1
            ms = vm.memsys
            states[level] = (ms.n_loads, ms.n_stores, ms.n_l1_miss,
                             ms.n_dtlb_miss, vm.gc_cycles, vm.cpu.cycles)
        assert states[0][1] >= 8                    # the stores happened
        assert states[0][4] == vm.config.gc.write_barrier_cost
        assert states[1] == states[0]
        assert states[2] == states[0]

    def test_fault_in_a_block_without_accesses(self):
        """Opt code keeps locals in registers, so a fused run can be
        pure arithmetic.  When it faults, the stores an *earlier* block
        queued must still land (before PR 19 they were left in the
        queue and silently deleted by the next ``run``)."""
        states = {}
        for level in (0, 1, 2):
            p = Program("late-fault")
            app = p.define_class("App")
            app.add_static("out", "int")
            app.seal()
            work = Fn(p, app, "work", args=["int"], returns="int")
            arr, acc = work.local(), work.local()
            work.iconst(4).emit("newarray", "int").rstore(arr)
            work.rload(arr).iconst(0).iconst(1).emit("arrstore", "int")
            work.rload(arr).iconst(1).iload(0).emit("arrstore", "int")
            work.iconst(3).istore(acc)
            work.iload(0)
            with work.if_nonzero():      # ends the storing block
                work.iconst(9).istore(acc)
            work.iload(acc).iconst(2).emit("imul").iload(0).emit("idiv")
            work.iret()
            work_m = work.finish()
            main = Fn(p, app, "main")
            main.iconst(0).call(work_m).putstatic(app, "out")
            main.ret()
            p.set_main(main.finish())
            vm = _vm(p, fastpath=level, plan=CompilationPlan(["App.work"]))
            watch = _QueueWatch(vm)
            with pytest.raises(GuestError, match="division by zero"):
                vm.run()
            assert watch.exits == 1
            states[level] = (vm.memsys.n_loads, vm.memsys.n_stores,
                             vm.cpu.cycles)
        source = superblock_source(work_m.current_code)[0]
        assert "fault(None, None, None, 0, 'division by zero'" in source
        assert states[0][1] == 3
        assert states[1] == states[0]
        assert states[2] == states[0]

    def test_fault_after_a_straddle(self):
        """What a fault leaves in the memory system is the reference's,
        always.  What it leaves on the clock is the last *flush* (the
        partial quantum is dropped, as in the reference): exactly the
        reference's whenever something could have read it — a hook
        attached — and otherwise a flush point less than one budget
        span (``BUDGET_QUANTA`` quanta) from the reference's: a
        straddle lands at the end of its run, not on the boundary
        inside it, and the polls a multi-quantum budget skips are
        flush points too.  Sweep the array length so the faulting
        iteration meets the boundary at every offset."""
        def outcome(length, level, observer):
            p = Program("sweep")
            app = p.define_class("App")
            app.add_static("out", "int")
            app.seal()
            fn = Fn(p, app, "main")
            arr = fn.local()
            fn.iconst(length).emit("newarray", "int").rstore(arr)
            with fn.loop(length + 1) as i:       # one store too many
                fn.rload(arr).iload(i).iload(i).emit("arrstore", "int")
            fn.ret()
            p.set_main(fn.finish())
            vm = _vm(p, fastpath=level)
            if observer:
                vm.memsys.attach_observer("L1D_MISS", lambda eip: None)
            watch = _QueueWatch(vm)
            with pytest.raises(GuestError, match="out of bounds"):
                vm.run()
            assert watch.exits == 1
            ms = vm.memsys
            return ((ms.n_loads, ms.n_stores, ms.n_l1_miss, ms.n_dtlb_miss),
                    vm.cpu.instructions, vm.cpu.cycles)

        moved = 0
        for length in range(40, 72):
            ref = outcome(length, 0, observer=False)
            assert outcome(length, 2, observer=True) == ref
            memory, instructions, _ = outcome(length, 2, observer=False)
            assert memory == ref[0]
            assert abs(instructions - ref[1]) < BUDGET_QUANTA * SCHED_QUANTUM
            moved += instructions != ref[1]
        assert moved       # the sweep did put a straddle before a fault


class TestNoAccessDropped:
    def test_queue_empty_wherever_it_could_be_observed(self):
        """javac at heap 1.0x in 150 K-cycle legs: ten exits from
        ``run``, collections and scheduler events — the queue is empty
        at each of them."""
        vm, _ = runner.make_vm("javac", JAVAC, fastpath=2)
        watch = _QueueWatch(vm)
        vm.begin()
        for leg in range(1, 11):
            assert not vm.advance(until_cycles=150_000 * leg)
        assert watch.exits == 10
        assert watch.gc_spans >= 3
        assert watch.events >= 5

    def test_queue_empty_at_snapshot_capture(self, monkeypatch):
        queues = []
        capture = Snapshot.capture.__func__

        def watched_capture(cls, vm):
            queues.append(list(vm.cpu._pending))
            return capture(cls, vm)

        monkeypatch.setattr(Snapshot, "capture",
                            classmethod(watched_capture))
        vm, _ = runner.make_vm("javac", JAVAC, fastpath=2)
        vm.begin()
        snapshots = []
        runner.drive(vm, until_cycles=600_000, checkpoint_every=150_000,
                     on_checkpoint=snapshots.append)
        assert len(queues) == 4 and not any(queues)
        assert snapshots[1].restore().cpu._pending == []

    def test_heap_exhaustion_lands_the_queue(self):
        states = {}
        for level in (0, 2):
            cfg = SystemConfig(monitoring=False, fastpath=level,
                               gc=GCConfig(heap_bytes=256 * 1024))
            vm = VM(hog_program(), cfg,
                    compilation_plan=BASELINE_ONLY)
            watch = _QueueWatch(vm)
            with pytest.raises(HeapExhausted):
                vm.run()
            assert watch.exits == 1 and watch.gc_spans > 0
            ms = vm.memsys
            states[level] = (ms.n_loads, ms.n_stores, ms.n_l1_miss,
                             vm.gc_cycles, vm.cpu.cycles,
                             vm.cpu.instructions)
        assert states[2] == states[0]

    def test_barrier_and_allocation_do_not_drain(self):
        """In generated code ``drain()`` is reachable only through the
        fault helper; the barrier queues its charge instead."""
        vm, _ = runner.make_vm("javac", JAVAC)
        vm.begin()
        vm.advance(until_cycles=300_000)
        barriers = 0
        for cm in vm.codecache.methods:
            built = superblock_source(cm)
            if built is None:
                continue
            source = built[0]
            helper = source[source.index("    def fault("):
                            source.index("    def _sb_")]
            assert source.count("drain()") == helper.count("drain()") == 1
            barriers += source.count("pend(barrier)")
        assert barriers > 0


# -- the two censuses ------------------------------------------------------

def _count_drains(vm):
    """Count ``access_run_segments`` calls from outside (no counter
    lives under ``src/``): ``[drains, access segments, accesses]``."""
    real = vm.memsys.access_run_segments
    calls = [0, 0, 0]

    def counted(segments):
        calls[0] += 1
        for addrs, _, _, _ in segments:
            if addrs is not None:
                calls[1] += 1
                calls[2] += len(addrs)
        return real(segments)

    vm.memsys.access_run_segments = counted
    return calls


@pytest.fixture()
def dispatches(monkeypatch):
    """Count per-instruction dispatches by wrapping every handler of
    every translation built while the fixture is live."""
    real = translate.translate
    count = [0]

    def counting(handler):
        def wrapped(frame, regs, slots):
            count[0] += 1
            return handler(frame, regs, slots)
        return wrapped

    def counted_translate(cm, cpu):
        tr = real(cm, cpu)
        tr.handlers = [counting(h) for h in tr.handlers]
        return tr

    monkeypatch.setattr(translate, "translate", counted_translate)
    return count


class TestCensus:
    """How often level 2 leaves the fused, batched path — exact and
    repeatable counts, asserted as ratios with headroom (parent of
    PR 19: 93.5 drains per kilo-instruction; 8.6 % per-instruction)."""

    def test_javac_drains_per_kilo_instruction(self):
        vm, _ = runner.make_vm("javac", JAVAC, fastpath=2)
        calls = _count_drains(vm)
        vm.begin()
        vm.advance(until_cycles=1_500_000)
        assert 1000 * calls[0] / vm.cpu.instructions <= 12

    def test_compress_per_instruction_share(self, dispatches):
        spec = RunSpec("compress", monitoring=False)
        vm, _ = runner.make_vm("compress", spec, fastpath=2)
        vm.begin()
        assert vm.advance()
        assert dispatches[0] / vm.cpu.instructions <= 0.001

    COMPRESS_CUT = RunSpec("compress", monitoring=False,
                           until_cycles=400_000)

    def _compress_cut(self, dispatches, observer=False, leg=400_000):
        """Share of per-instruction dispatches, and the record, of
        ``COMPRESS_CUT`` driven in ``leg``-cycle slices."""
        dispatches[0] = 0
        vm, _ = runner.make_vm("compress", self.COMPRESS_CUT, fastpath=2)
        if observer:
            vm.memsys.attach_observer("L1D_MISS", lambda eip: None)
        vm.begin()
        for until in range(leg, 400_001, leg):
            vm.advance(until_cycles=until)
        share = dispatches[0] / vm.cpu.instructions
        return share, RunRecord.from_result(vm.finish()).to_json()

    def test_straddle_refused_under_observer_or_near_deadline(
            self, dispatches):
        """The straddle is taken only when nothing can observe the
        skipped poll.  With a hook attached, or the deadline always
        within one horizon (20 K-cycle legs), the exact per-instruction
        split is taken (the parent's 8.6 % share is back) — and either
        way the record is the reference's."""
        ref = RunRecord.from_result(
            execute(self.COMPRESS_CUT, fastpath=0)).to_json()
        share, record = self._compress_cut(dispatches)
        assert share < 0.02 and record == ref
        share, record = self._compress_cut(dispatches, observer=True)
        assert share > 0.05 and record == ref
        share, record = self._compress_cut(dispatches, leg=20_000)
        assert share > 0.05 and record == ref

    def test_compress_runs_inside_regions(self, regions):
        """Exact counts at ``BUDGET_QUANTA`` = 4: 97.4 % of the
        instructions run inside a region (the rest, bar 0.03 %, is the
        ring's body straddling the end of a budget span through its
        plain block) at 2.2 region entries per kilo-instruction."""
        vm, _ = runner.make_vm("compress", RunSpec("compress",
                                                   monitoring=False))
        vm.begin()
        assert vm.advance()
        instructions = vm.cpu.instructions
        assert regions.instructions / instructions >= 0.97
        assert 1000 * regions.entries / instructions <= 3
        assert regions.budget == BUDGET_QUANTA * SCHED_QUANTUM

    def test_compress_drain_is_two_lines(self):
        """``compress``'s two lockstep arrays alias one L1 set on two
        pages, so of the 1,181,488 accesses its drains replay, 97.9 %
        repeat the line just touched (33.4 %) or return to the line
        before it (64.5 %): the two lines the drain skips the probe
        for.  A translation change that reorders those accesses fails
        here."""
        vm, _ = runner.make_vm("compress", RunSpec("compress",
                                                   monitoring=False))
        shift = vm.memsys.l1.line_shift
        real = vm.memsys.access_run_segments
        kinds = collections.Counter()
        recent = [-1, -1]       # the last line, the line before it

        def classified(segments):
            last, before = recent
            for addrs, _, _, _ in segments:
                for addr in addrs or ():
                    line = addr >> shift
                    if line == last:
                        kinds["repeat"] += 1
                        continue
                    kinds["return" if line == before else "other"] += 1
                    last, before = line, last
            recent[:] = last, before
            return real(segments)

        vm.memsys.access_run_segments = classified
        vm.begin()
        assert vm.advance()
        total = sum(kinds.values())
        assert kinds["repeat"] + kinds["return"] >= 0.95 * total

    #: ``perfbench``'s ``sim_churn`` guests: young-object churn at 1.0x.
    CHURN = [RunSpec(name, heap_mult=1.0, coalloc=True)
             for name in ("javac", "jack", "fop", "antlr")] + [
        RunSpec(name, heap_mult=1.0, gc_plan="gencopy")
        for name in ("javac", "fop")]

    def test_churn_runs_inside_regions(self, regions):
        """Their allocating, forking kernel loops are rings: exact
        counts, 86.7 % of the 5.84 M instructions run inside a region
        and 15.1 plain blocks are entered per kilo-instruction (23.8 %
        and 165 while an allocation or a fork kept a loop from being
        one)."""
        instructions = 0
        for spec in self.CHURN:
            vm, _ = runner.make_vm(spec.benchmark, spec)
            vm.begin()
            assert vm.advance()
            instructions += vm.cpu.instructions
        assert regions.instructions / instructions >= 0.8
        assert 1000 * regions.plain / instructions <= 30

    @pytest.mark.parametrize("how", ["observer", "pebs", "deadline"])
    def test_budget_never_extended_where_a_poll_could_matter(self, regions,
                                                             how):
        """A budget spans more than one quantum only where every poll
        inside is provably idle: never with an observer attached or
        PEBS armed, and never with ``until_cycles`` always within
        ``BUDGET_QUANTA`` horizons (100 K-cycle legs; one horizon is
        34 K cycles, so straddles still happen).  The regions run all
        the same, on one-quantum budgets, and the record is the
        reference's."""
        spec = dataclasses.replace(self.COMPRESS_CUT,
                                   monitoring=how == "pebs")
        ref = RunRecord.from_result(execute(spec, fastpath=0)).to_json()
        vm, _ = runner.make_vm("compress", spec, fastpath=2)
        if how == "observer":
            vm.memsys.attach_observer("L1D_MISS", lambda eip: None)
        leg = 100_000 if how == "deadline" else 400_000
        vm.begin()
        for until in range(leg, 400_001, leg):
            vm.advance(until_cycles=until)
        assert RunRecord.from_result(vm.finish()).to_json() == ref
        assert regions.entries > 1000
        assert regions.budget <= SCHED_QUANTUM

    def test_second_translation_reuses_the_code_object(self, monkeypatch):
        """``compile()`` runs once per distinct factory source in the
        process — the loop's superblocks and its region; a fresh CPU
        still gets its own closures, and the run is unchanged."""
        translate._factory_code.cache_clear()
        compiled = []
        real_compile = compile

        def counting_compile(source, filename, mode):
            compiled.append(filename)
            return real_compile(source, filename, mode)

        monkeypatch.setattr(translate, "compile", counting_compile,
                            raising=False)
        records, closures = [], []
        for _ in range(2):
            p, _ = _loop_program()   # a fresh guest, the same text
            vm = _vm(p)
            cm = vm.compiled_code_for(p.main)
            tr = translate.translate(cm, vm.cpu)
            closures.append([blk[1] for blk in tr.blocks if blk])
            records.append(RunRecord.from_result(vm.run()).to_json())
        assert compiled == ["<superblock App.main>", "<region App.main>"]
        assert records[0] == records[1]
        assert closures[0] and not set(closures[0]) & set(closures[1])

    def test_handlers_cost_no_compile(self, monkeypatch):
        """Handler templates are compiled at import: translating a whole
        javac code cache calls ``compile`` never at level 1, and at
        level 2 once per distinct superblock and region factory
        source."""
        vm, _ = runner.make_vm("javac", JAVAC)
        vm.begin()
        vm.advance(until_cycles=300_000)
        methods = vm.codecache.methods
        assert len(methods) > 30
        translate._factory_code.cache_clear()
        compiled = []
        real_compile = compile
        monkeypatch.setattr(
            translate, "compile",
            lambda *args: compiled.append(args[:2]) or real_compile(*args),
            raising=False)
        for level in (1, 2, 2):
            vm.cpu.fastpath_level = level
            for cm in methods:
                assert len(translate.translate(cm, vm.cpu).handlers) \
                    == len(cm.code)
            if level == 1:
                assert not compiled
        sources = {(built[0], f"<{kind} {cm.method.qualified_name}>")
                   for cm in methods
                   for kind, source in (("superblock", superblock_source),
                                        ("region", region_source))
                   if (built := source(cm)) is not None}
        assert any(name.startswith("<region") for _, name in sources)
        assert sorted(compiled) == sorted(sources)


# -- ring regions ---------------------------------------------------------------

@pytest.fixture()
def regions(monkeypatch):
    """Count what the block closures of every table built while the
    fixture is live do: region entries, the instructions executed
    inside, the largest budget one was handed and the pcs they left at;
    and plain-block entries."""
    real = translate.compile_superblocks
    seen = SimpleNamespace(entries=0, instructions=0, budget=0,
                           exits=collections.Counter(), plain=0)

    def counting(region):
        def wrapped(frame, regs, slots, budget, n):
            pc, used, n = region(frame, regs, slots, budget, n)
            seen.entries += 1
            seen.instructions += used
            seen.budget = max(seen.budget, budget)
            seen.exits[pc] += 1
            return pc, used, n
        return wrapped

    def plain(block):
        def wrapped(frame, regs, slots):
            seen.plain += 1
            return block(frame, regs, slots)
        return wrapped

    def counted(cm, cpu, templates=None):
        table = real(cm, cpu, templates)
        return [blk and (blk[0], (counting if blk[2] else plain)(blk[1]),
                         blk[2])
                for blk in table]

    monkeypatch.setattr(translate, "compile_superblocks", counted)
    return seen


# Registers of the hand-assembled loops below.
L_INTS, L_I, L_ACC, L_LIMIT, L_T, L_REFS, L_ARRS, L_U, L_ZERO = range(9)


def _counted_loop(body, limit=100):
    """``for i in range(limit): acc += 1; body; i += 1`` at machine
    level: a two-instruction header at pc 0, ``body`` (branch targets in
    it are absolute pcs; the body starts at pc 3), the increment and
    the back edge, then ``ret acc``."""
    exit_pc = 3 + len(body) + 2
    return [MInst(M_MOVI, rd=L_LIMIT, imm=limit),
            MInst(M_BC, rs1=L_I, rs2=L_LIMIT, aux="ge", imm=exit_pc),
            MInst(M_ALUI, rd=L_ACC, rs1=L_ACC, aux="add", imm=1),
            *body,
            MInst(M_ALUI, rd=L_I, rs1=L_I, aux="add", imm=1),
            MInst(M_BR, imm=0),
            MInst(M_RET, rs1=L_ACC)]


class TestRingFormation:
    """``superblock_rings`` is structural: a ring is a cycle of fused
    runs in which every run has exactly one successor inside."""

    def test_header_and_body(self):
        code = _counted_loop([MInst(M_ALU, rd=L_T, rs1=L_ACC, rs2=L_I,
                                    aux="add")])
        assert superblock_ranges(code) == [(0, 2), (2, 6)]
        assert superblock_rings(code) == [[(0, 2), (2, 6)]]

    def test_side_exit_through_an_unfused_pc(self):
        """``App.scan``'s shape: the body branches over a call.  The
        call's pc starts no run, so that edge is a side exit and the
        runs around it still close the ring."""
        code = _counted_loop([
            MInst(M_BC, rs1=L_ACC, aux="ne", imm=6),          # pc 3
            MInst(M_CALL, rd=L_T, aux=None, imm=()),          # pc 4
            MInst(M_NOP),                                     # pc 5
            MInst(M_ALU, rd=L_T, rs1=L_ACC, rs2=L_I, aux="add"),
        ])
        assert superblock_rings(code) == [[(0, 2), (2, 4), (6, 9)]]

    def test_a_diamond_forms_one_ring(self):
        """An if/else diamond — the forking run has two successors on
        the way back to the header, a lone ``br`` jumps over the else
        arm — is one ring.  Its blocks sit in pc order; the ones not
        simply fallen into from the block before are guarded by
        ``pc``, and the run is the reference's at every level."""
        code = _counted_loop([
            MInst(M_ALUI, rd=L_T, rs1=L_I, aux="and", imm=1),  # pc 3
            MInst(M_BC, rs1=L_T, aux="ne", imm=8),
            MInst(M_ALUI, rd=L_ACC, rs1=L_ACC, aux="add", imm=2),
            MInst(M_ALUI, rd=L_U, rs1=L_U, aux="add", imm=3),
            MInst(M_BR, imm=10),                              # pc 7
            MInst(M_ALUI, rd=L_U, rs1=L_U, aux="mul", imm=3),  # pc 8
            MInst(M_ALUI, rd=L_U, rs1=L_U, aux="and", imm=255),
            MInst(M_ALU, rd=L_U, rs1=L_U, rs2=L_I, aux="add"),  # pc 10
        ])
        assert superblock_ranges(code) == [(0, 2), (2, 5), (5, 8), (8, 10),
                                           (10, 13)]
        assert superblock_rings(code) == [[(0, 2), (2, 5), (5, 8), (8, 10),
                                           (10, 13)]]
        text = _region_text(code)
        assert [pc for pc in range(13) if f"if pc == {pc}:" in text] == [
            5, 8, 10]
        assert f"pc = 8 if r{L_T} != 0 else 5" in text
        ref = _ring_outcome(code, 0)
        assert ref[0] is None and ref[1][L_ACC] == 100 + 2 * 50
        assert _ring_outcome(code, 1) == ref
        assert _ring_outcome(code, 2) == ref
        assert _ring_outcome(code, 2, observer=True) == ref

    @pytest.mark.parametrize("inside", [
        MInst(M_CALL, rd=L_T, aux=None, imm=()),
        MInst(M_MOVI, rd=L_T, imm=2.5),
        MInst(M_ALU, rd=L_T, rs1=L_ACC, rs2=L_I, aux="bogus"),
    ], ids=["call", "non-literal", "bad-alu-op"])
    def test_an_instruction_that_does_not_fuse_breaks_the_ring(self, inside):
        code = _counted_loop([
            MInst(M_ALU, rd=L_U, rs1=L_ACC, rs2=L_I, aux="add"),
            inside,
            MInst(M_ALU, rd=L_U, rs1=L_U, rs2=L_I, aux="add"),
        ])
        assert len(superblock_ranges(code)) == 3
        assert superblock_rings(code) == []

    @pytest.mark.parametrize("op", [M_NEW, M_NEWARR], ids=["new", "newarr"])
    def test_an_allocation_joins_the_ring(self, op):
        """An allocation is a run of its own inside the ring (a ``new``
        of a sealed class, a ``newarr`` of a known kind); the loop's
        fused runs around it still split there."""
        inside = (MInst(M_NEW, rd=L_T, aux=_matrix_program()[1].box)
                  if op == M_NEW else
                  MInst(M_NEWARR, rd=L_T, rs1=L_I, aux="int"))
        code = _counted_loop([
            MInst(M_ALU, rd=L_U, rs1=L_ACC, rs2=L_I, aux="add"),
            inside,                                           # pc 4
            MInst(M_ALU, rd=L_U, rs1=L_U, rs2=L_I, aux="add"),
        ])
        assert superblock_ranges(code) == [(0, 2), (2, 4), (5, 8)]
        assert superblock_rings(code) == [[(0, 2), (2, 4), (4, 5), (5, 8)]]

    def test_branch_into_the_middle_still_splits_the_leader(self):
        """A rotated loop entered in the middle of its body: the entry
        target is a leader, so the body is two runs — both in the
        ring — and each stays in the table for that side entry."""
        code = [MInst(M_MOVI, rd=L_I, imm=0),
                MInst(M_BR, imm=6)] + [
            MInst(M_MOVI, rd=L_LIMIT, imm=9),                 # pc 2: header
            MInst(M_BC, rs1=L_I, rs2=L_LIMIT, aux="ge", imm=10),
            MInst(M_ALUI, rd=L_ACC, rs1=L_ACC, aux="add", imm=1),
            MInst(M_ALUI, rd=L_ACC, rs1=L_ACC, aux="add", imm=2),
            MInst(M_ALUI, rd=L_I, rs1=L_I, aux="add", imm=1),   # pc 6
            MInst(M_ALUI, rd=L_ACC, rs1=L_ACC, aux="mul", imm=3),
            MInst(M_BR, imm=2),
            MInst(M_NOP),
            MInst(M_RET, rs1=L_ACC)]
        assert superblock_rings(code) == [[(2, 4), (4, 6), (6, 9)]]
        outcomes = {level: _ring_outcome(code, level) for level in (0, 1, 2)}
        assert outcomes[0][0] is None and outcomes[0][1][L_I] == 9
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]

    def test_a_ring_that_writes_no_register(self):
        """``while True: pass`` is a one-run ring with nothing to store
        back; it spins to the deadline like the reference."""
        code = [MInst(M_NOP), MInst(M_NOP), MInst(M_BR, imm=0)]
        assert superblock_rings(code) == [[(0, 3)]]
        clocks = {}
        for level in (0, 2):
            p, _ = _matrix_program()
            vm = _vm(p, fastpath=level)
            cm = vm.compiled_code_for(p.main)
            cm.code = code
            vm.cpu._push_frame(cm, ())
            vm.cpu.run(until_cycles=5000)
            clocks[level] = (vm.cpu.cycles, vm.cpu.instructions)
        assert clocks[2] == clocks[0] and clocks[0][0] >= 5000

    def test_the_table_keeps_every_plain_block(self):
        """A region replaces only its header's entry; the other ring
        blocks keep their plain closures, and the region text reads
        registers as locals."""
        code = _counted_loop([MInst(M_ALU, rd=L_T, rs1=L_ACC, rs2=L_LIMIT,
                                    aux="add")])
        p, _ = _matrix_program()
        vm = _vm(p)
        cm = vm.compiled_code_for(p.main)
        cm.code, cm.reg_count = code, 9
        table = translation_for(cm, vm.cpu).blocks
        assert [blk and blk[::2] for blk in table[:3]] == [
            (2, True), None, (4, False)]
        entry, loop = region_source(cm)[0].split("        while True:\n")
        loop, exit = loop.rsplit("\n        regs[", 1)
        assert f"r{L_I} = regs[{L_I}]" in entry
        assert "regs[" not in loop          # (this ring cannot fault)
        assert f"if r{L_I} >= r{L_LIMIT}:" in loop      # the loop's exit
        assert f"r{L_T} = r{L_ACC} + r{L_LIMIT}" in loop
        assert f"{L_ACC}] = r{L_ACC}; " in exit and "return pc, " in exit


def _ring_outcome(code, level, observer=False):
    """Run hand-assembled ``code`` (a list, or what to call with the
    program's ``env`` to get one) as main and return the fault (or
    ``None``), every register, what the memory system saw and the
    clock."""
    p, env = _matrix_program()
    if callable(code):
        code = code(env)
    vm = _vm(p, fastpath=level)
    box = env.box
    ints = vm.plan.alloc_array("int", 8)
    ints.elements[:] = range(10, 90, 10)
    refs = vm.plan.alloc_array("ref", 8)
    arrs = vm.plan.alloc_array("ref", 8)
    for index in range(8):
        if index != 5:      # ``RING_FAULTS`` find the nulls here
            refs.elements[index] = vm.plan.alloc_object(box)
            arrs.elements[index] = ints
    cm = vm.compiled_code_for(p.main)
    cm.code, cm.reg_count, cm.frame_words = code, 9, 4
    if observer:
        vm.memsys.attach_observer("L1D_MISS", lambda eip: None)
    cpu = vm.cpu
    cpu._push_frame(cm, ())
    frame = cpu.frames[-1]
    frame.regs[:] = [ints, 0, 0, 0, 0, refs, arrs, 0, 0]
    fault = None
    try:
        cpu.run()
    except GuestError as error:
        fault = str(error)
    names = {id(ints): "ints", id(refs): "refs", id(arrs): "arrs"}
    regs = [names.get(id(value), value) if not isinstance(value, HeapObject)
            else "box" for value in frame.regs]
    ms = vm.memsys
    return (fault, regs, (ms.n_loads, ms.n_stores, ms.n_l1_miss,
                          ms.n_dtlb_miss), (cpu.instructions, cpu.cycles))


#: Loop bodies that fault in the sixth iteration (ninth, out of
#: bounds), after the iteration has already written registers.
RING_FAULTS = {
    "index 8 out of bounds [0,8)": lambda env: [
        MInst(M_ALOAD, rd=L_T, rs1=L_INTS, rs2=L_I, aux="int")],
    "null getfield": lambda env: [
        MInst(M_ALOAD, rd=L_T, rs1=L_REFS, rs2=L_I, aux="ref"),
        MInst(M_GETF, rd=L_U, rs1=L_T, aux=env.v)],
    "null array load": lambda env: [
        MInst(M_ALOAD, rd=L_T, rs1=L_ARRS, rs2=L_I, aux="ref"),
        MInst(M_ALOAD, rd=L_U, rs1=L_T, rs2=L_ZERO, aux="int")],
    "division by zero": lambda env: [
        MInst(M_ALUI, rd=L_T, rs1=L_I, aux="sub", imm=5),
        MInst(M_ALU, rd=L_U, rs1=L_LIMIT, rs2=L_T, aux="div")],
}


class TestRingFaults:
    @pytest.mark.parametrize("fault", RING_FAULTS)
    def test_fault_in_the_nth_iteration(self, fault):
        """A fault deep inside a region leaves what the reference
        leaves: every access of the earlier iterations landed, every
        register the region wrote stored back — and, under a hook, the
        clock."""
        def code(env):
            return _counted_loop(RING_FAULTS[fault](env))

        listing = code(_matrix_program()[1])
        assert len(superblock_rings(listing)) == 1
        ref = _ring_outcome(code, 0)
        # The body's last instruction: three follow it.
        assert ref[0] == f"{fault} at App.main:{len(listing) - 4}"
        assert ref[1][L_ACC] == ref[1][L_I] + 1 >= 6
        for level in (1, 2):
            assert _ring_outcome(code, level)[:3] == ref[:3]
            assert _ring_outcome(code, level, observer=True) == ref

    def test_no_fault(self):
        code = _counted_loop(RING_FAULTS["division by zero"](None)[:1],
                             limit=700)
        ref = _ring_outcome(code, 0)
        assert ref[0] is None and ref[1][L_ACC] == 700
        assert _ring_outcome(code, 1) == ref
        assert _ring_outcome(code, 2) == ref


def _region_text(code):
    """The region source of hand-assembled ``code`` as main."""
    p, _ = _matrix_program()
    cm = _vm(p).compiled_code_for(p.main)
    cm.code, cm.reg_count, cm.frame_words = code, 9, 4
    return region_source(cm)[0]


class TestRegionBatching:
    """A region queues ONE access segment per entry, however many
    blocks and iterations it runs: its metadata tuples are the ring's,
    repeated to cover the most one entry can run.  A write barrier
    still splits the batch."""

    @staticmethod
    def barrier_loop(env):
        """Every iteration stores references into objects allocated
        before the loop — a ref putfield and a ref array store, each a
        barrier inside the ring — with accesses around both."""
        return _counted_loop([
            MInst(M_ALUI, rd=L_U, rs1=L_I, aux="and", imm=3),
            MInst(M_ALOAD, rd=L_T, rs1=L_REFS, rs2=L_U, aux="ref"),
            MInst(M_PUTF, rs1=L_T, rs2=L_T, aux=env.next),
            MInst(M_ASTORE, rd=L_T, rs1=L_REFS, rs2=L_U, aux="ref"),
            MInst(M_GETF, rd=L_U, rs1=L_T, aux=env.v),
        ], limit=700)

    def test_a_barrier_in_every_iteration(self):
        listing = self.barrier_loop(_matrix_program()[1])
        assert len(superblock_rings(listing)) == 1
        text = _region_text(listing)
        assert text.count("s += len(b)") == 2
        assert text.count("pend((b, K") == 3       # two barriers, the exit
        ref = _ring_outcome(self.barrier_loop, 0)
        assert ref[0] is None and ref[1][L_ACC] == 700
        for observer in (False, True):
            for level in (1, 2):
                assert _ring_outcome(self.barrier_loop, level,
                                     observer) == ref

    def test_compress_drains_long_segments(self):
        """``compress`` drains its 1.18 M accesses as 25.6 K access
        segments, 46 accesses each (393 K of 3.0 while every block
        execution queued its own)."""
        vm, _ = runner.make_vm("compress", RunSpec("compress",
                                                   monitoring=False))
        calls = _count_drains(vm)
        vm.begin()
        assert vm.advance()
        _, segments, accesses = calls
        assert accesses / segments >= 20

    def test_the_tightest_ring_stays_inside_its_metadata(self, regions):
        """A two-instruction ring with one access an iteration, on the
        largest extended budget: one entry's 256 accesses go into one
        segment, every segment indexes inside its metadata, and the run
        is the reference's."""
        code = [MInst(M_LDF, rd=L_T, imm=1), MInst(M_BR, imm=0)]
        assert superblock_rings(code) == [[(0, 2)]]
        outcomes, segments = {}, []
        for level in (0, 2):
            p, _ = _matrix_program()
            vm = _vm(p, fastpath=level)
            cm = vm.compiled_code_for(p.main)
            cm.code, cm.reg_count, cm.frame_words = code, 9, 4
            real = vm.memsys.access_run_segments

            def drain(log, real=real):
                segments.extend(entry for entry in log if entry[0])
                return real(log)

            vm.memsys.access_run_segments = drain
            vm.cpu._push_frame(cm, ())
            vm.cpu.run(until_cycles=1_000_000)
            outcomes[level] = (vm.cpu.cycles, vm.cpu.instructions,
                               vm.memsys.n_loads)
        assert outcomes[2] == outcomes[0]
        assert regions.budget == BUDGET_QUANTA * SCHED_QUANTUM
        assert max(len(addrs) for addrs, _, _, _ in segments) \
            == BUDGET_QUANTA * SCHED_QUANTUM // 2
        assert all(start + len(addrs) <= len(writes) == len(eips)
                   for addrs, writes, eips, start in segments)


class TestRegionBitIdentity:
    """Every suite guest, bounded: the record at level 2 — unbroken,
    and driven in 20 K-cycle legs (where no straddle and no budget
    extension is ever provable) — is the reference's.  Every guest
    enters regions."""

    CYCLES = 400_000

    @pytest.mark.parametrize("name", suite.all_names())
    def test_record_identical_unbroken_and_in_legs(self, name, regions):
        spec = RunSpec(name, monitoring=False, until_cycles=self.CYCLES)
        ref = RunRecord.from_result(execute(spec, fastpath=0)).to_json()
        assert regions.entries == 0            # level 0 builds no table
        for leg in (self.CYCLES, 20_000):
            vm, _ = runner.make_vm(name, spec, fastpath=2)
            vm.begin()
            for until in range(leg, self.CYCLES + 1, leg):
                vm.advance(until_cycles=until)
            assert RunRecord.from_result(vm.finish()).to_json() == ref
        assert regions.entries > 0


def _alloc_program(iters, length=None, negative_at=None, zero_at=None):
    """``main`` allocating in a counted loop: a ``Box`` every iteration,
    linked to the one kept last on every other iteration (a fork in the
    ring) and, given ``length``, an int array of that many elements —
    or, given ``negative_at``, of ``negative_at - i``, negative from
    iteration ``negative_at + 1`` on.  Given ``zero_at``, iteration
    ``zero_at`` divides by zero right after its ``new``."""
    p = Program("alloc")
    app = p.define_class("App")
    app.add_static("out", "int")
    app.seal()
    box = p.define_class("Box")
    box.add_field("v", "int")
    box.add_field("next", "ref")
    box.seal()
    fn = Fn(p, app, "main")
    acc, kept, obj, arr = (fn.local() for _ in range(4))
    fn.iconst(0).istore(acc)
    fn.emit("aconst_null").rstore(kept)
    with fn.loop(iters) as i:
        fn.new(box).rstore(obj)
        if zero_at is not None:
            fn.iload(acc).iconst(zero_at).iload(i).emit("isub")
            fn.emit("idiv").istore(acc)
        fn.rload(obj).iload(i).putfield(box, "v")
        fn.iload(i).iconst(1).emit("iand").iconst(0)
        with fn.if_cond("eq"):
            fn.rload(obj).rload(kept).putfield(box, "next")
            fn.rload(obj).rstore(kept)
        if length is not None or negative_at is not None:
            if negative_at is None:
                fn.iconst(length)
            else:
                fn.iconst(negative_at).iload(i).emit("isub")
            fn.emit("newarray", "int").rstore(arr)
            fn.iload(acc).rload(arr).emit("arraylength").emit("iadd")
            fn.istore(acc)
        fn.iload(acc).rload(obj).getfield(box, "v").emit("iadd").istore(acc)
    fn.iload(acc).putstatic(app, "out")
    fn.ret()
    p.set_main(fn.finish())
    return p


#: How a :class:`TestRegionAllocation` case is driven.
ALLOC_MODES = {"unbroken": {}, "legs": dict(legs=True),
               "pebs": dict(monitoring=True), "observer": dict(observer=True)}


def _alloc_outcome(build, level, gc_plan, nursery, legs=False,
                   monitoring=False, observer=False):
    """Run the program ``build()`` returns on a ``nursery``-byte nursery
    (20 K-cycle legs if ``legs``) and return its fault, its record
    (``None`` after a fault),
    the clock and memory counts, and the plan state allocation leaves:
    the nursery cursor, the statistics, and the nursery's and the LOS's
    objects in order."""
    gc = GCConfig(min_nursery_bytes=nursery, max_nursery_bytes=nursery)
    vm = VM(build(), SystemConfig(monitoring=monitoring, fastpath=level,
                                  gc_plan=gc_plan, gc=gc),
            compilation_plan=BASELINE_ONLY)
    if observer:
        vm.memsys.attach_observer("L1D_MISS", lambda eip: None)
    vm.begin()
    fault = record = None
    try:
        until = 20_000 if legs else None
        while not vm.advance(until_cycles=until):
            until += 20_000
        record = RunRecord.from_result(vm.finish()).to_json()
    except GuestError as error:
        fault = str(error)
    plan, ms, cpu = vm.plan, vm.memsys, vm.cpu
    objects = [[(o.kind if o.is_array else o.class_info.name, o.address,
                 o.size) for o in space]
               for space in (plan.nursery_objects, plan.los_objects)]
    return (fault, record, cpu.cycles, cpu.instructions, vm.gc_cycles,
            (ms.n_loads, ms.n_stores, ms.n_l1_miss, ms.n_dtlb_miss),
            plan.nursery.cursor, dataclasses.asdict(plan.stats), objects,
            [frame.pc for frame in cpu.frames])


class TestRegionAllocation:
    """A region bumps the nursery inline and leaves for the driver
    where only the driver can allocate: a collection, the LOS, a
    negative length.  At every level, unbroken, in 20 K-cycle legs,
    with PEBS armed and with an observer attached, under both plans,
    the run — and the plan state ``Plan.alloc_object``/``alloc_array``
    leave — is the reference's."""

    ITERS = 300

    @staticmethod
    def allocation_pcs(build):
        """The allocations of main that sit in a ring."""
        code = compile_baseline(build().main).code
        return {pc for ring in superblock_rings(code) for pc, _ in ring
                if code[pc].op in (M_NEW, M_NEWARR)}

    def check(self, build, gc_plan, nursery, mode, regions):
        ref = _alloc_outcome(build, 0, gc_plan, nursery, **ALLOC_MODES[mode])
        assert regions.entries == 0
        for level in (1, 2):
            assert _alloc_outcome(build, level, gc_plan, nursery,
                                  **ALLOC_MODES[mode]) == ref
        assert regions.entries > 0
        return ref

    def nursery_bytes(self, build, gc_plan):
        """What the program allocates in all (on a nursery it cannot
        fill)."""
        return _alloc_outcome(build, 0, gc_plan, 1 << 20)[6] \
            - layout.NURSERY_BASE

    @pytest.mark.parametrize("mode", ALLOC_MODES)
    @pytest.mark.parametrize("gc_plan", ["genms", "gencopy"])
    @pytest.mark.parametrize("over", [0, 1], ids=["exact", "one-over"])
    def test_a_nursery_filled_inside_the_ring(self, over, gc_plan, mode,
                                              regions):
        """The nursery fits the run's allocations exactly — or one byte
        less, so the last ``new`` leaves the region for a collection."""
        program = functools.partial(_alloc_program, self.ITERS, length=3)
        pcs = self.allocation_pcs(program)
        assert len(pcs) == 2
        total = self.nursery_bytes(program, gc_plan)
        ref = self.check(program, gc_plan, total - over, mode, regions)
        assert ref[0] is None
        assert ref[7]["minor_gcs"] == over
        assert ref[7]["alloc_objects"] == 2 * self.ITERS
        if over:
            assert regions.exits.keys() & pcs

    @pytest.mark.parametrize("mode", ALLOC_MODES)
    @pytest.mark.parametrize("gc_plan", ["genms", "gencopy"])
    def test_a_large_array_in_the_ring(self, gc_plan, mode, regions):
        """Every iteration's array is LOS-sized: each leaves the region
        for the driver; the boxes stay inline."""
        program = functools.partial(_alloc_program, 40, length=1100)
        ref = self.check(program, gc_plan, 1 << 16, mode, regions)
        assert ref[7]["los_objects"] == 40 == len(ref[8][1])
        assert len(self.allocation_pcs(program)) == 2

    @pytest.mark.parametrize("mode", ALLOC_MODES)
    @pytest.mark.parametrize("gc_plan", ["genms", "gencopy"])
    @pytest.mark.parametrize("fault", ["negative-length", "after-new"])
    def test_a_fault_in_the_nth_iteration(self, fault, gc_plan, mode,
                                          regions):
        """A negative ``newarr`` length leaves the region for the
        driver's fault; a fault right after an inline ``new`` leaves
        ``frame.pc`` anchored at it, as the reference does."""
        negative = fault == "negative-length"
        program = functools.partial(
            _alloc_program, self.ITERS, length=None if negative else 2,
            negative_at=150 if negative else None,
            zero_at=None if negative else 150)
        ref = self.check(program, gc_plan, 1 << 16, mode, regions)
        message = "negative array size" if negative else "division by zero"
        assert ref[0].startswith(f"{message} at App.main:")
        assert ref[7]["alloc_objects"] == (303 if negative else 301)
        fault_pc = int(ref[0].rsplit(":", 1)[1])
        new_pc = min(self.allocation_pcs(program))
        assert ref[9] == [fault_pc if negative else new_pc]


# -- an opcode matrix at machine level -----------------------------------------

#: Registers every matrix case starts from (``r8``/``r9`` are scratch).
R_OBJ, R_INTS, R_REFS, R_NULL, R_SIX, R_NEG3, R_ZERO, R_TWO = range(8)


def _matrix_cases():
    """``(id, build)`` pairs; ``build(env)`` returns the one instruction
    under test.  Every shape the translator's table has, plus what no
    compiler emits and every fault."""
    cases = []

    def case(name, build):
        cases.append(pytest.param(build, id=name))

    def inst(*args, **kwargs):
        return lambda env: MInst(*args, **kwargs)

    case("movi", inst(M_MOVI, rd=8, imm=42))
    case("movi-null", inst(M_MOVI, rd=8, imm=None))
    case("movi-non-literal", inst(M_MOVI, rd=8, imm=2.5))
    case("mov", inst(M_MOV, rd=8, rs1=R_SIX))
    case("mov-ref", inst(M_MOV, rd=8, rs1=R_OBJ))
    case("nop", inst(M_NOP))
    case("nullchk", inst(M_NULLCHK, rs1=R_OBJ))
    case("nullchk-null", inst(M_NULLCHK, rs1=R_NULL))
    for aux in ALU_OPS + ("bogus",):
        # -3 <op> 2: signs differ, so div/rem show the rounding.  The
        # reference has no reg/reg ``neg`` and no immediate ``xor``/
        # ``or``: those, like ``bogus``, are "bad alu(i) op" faults.
        case(f"alu-{aux}", inst(M_ALU, rd=8, rs1=R_NEG3, rs2=R_TWO, aux=aux))
        case(f"alui-{aux}", inst(M_ALUI, rd=8, rs1=R_NEG3, aux=aux,
                                 imm=None if aux == "neg" else 2))
    for aux in ("div", "rem"):
        case(f"alu-{aux}-by-zero",
             inst(M_ALU, rd=8, rs1=R_SIX, rs2=R_ZERO, aux=aux))
        case(f"alui-{aux}-by-zero",
             inst(M_ALUI, rd=8, rs1=R_SIX, aux=aux, imm=0))
    for cond in BC_CONDS + ("bogus",):      # bogus: the final else, nonnull
        # Ints compare (against zero, or a second register holding it);
        # references test for null, whatever ``rs2`` says.
        compares = cond in ("eq", "ne", "lt", "ge", "gt", "le")
        for rs1 in (R_NEG3, R_ZERO, R_TWO) if compares else (R_NULL, R_OBJ):
            case(f"bc-{cond}-r{rs1}", inst(M_BC, rs1=rs1, aux=cond))
            case(f"bc-{cond}-r{rs1}-r{R_ZERO}",
                 inst(M_BC, rs1=rs1, rs2=R_ZERO, aux=cond))
    case("br", inst(M_BR))
    case("ldf", inst(M_LDF, rd=8, imm=1))
    case("stf", inst(M_STF, rs1=R_SIX, imm=2))
    case("getf", lambda env: MInst(M_GETF, rd=8, rs1=R_OBJ, aux=env.v))
    case("getf-ref", lambda env: MInst(M_GETF, rd=8, rs1=R_OBJ, aux=env.next))
    case("getf-null", lambda env: MInst(M_GETF, rd=8, rs1=R_NULL, aux=env.v))
    case("putf", lambda env: MInst(M_PUTF, rs1=R_OBJ, rs2=R_SIX, aux=env.v))
    case("putf-ref",
         lambda env: MInst(M_PUTF, rs1=R_OBJ, rs2=R_OBJ, aux=env.next))
    case("putf-null",
         lambda env: MInst(M_PUTF, rs1=R_NULL, rs2=R_SIX, aux=env.v))
    case("putf-ref-null",
         lambda env: MInst(M_PUTF, rs1=R_NULL, rs2=R_OBJ, aux=env.next))
    for name, index in (("", R_TWO), ("-low", R_NEG3), ("-high", R_SIX)):
        case(f"aload{name}",
             inst(M_ALOAD, rd=8, rs1=R_INTS, rs2=index, aux="int"))
        case(f"astore{name}",
             inst(M_ASTORE, rd=R_SIX, rs1=R_INTS, rs2=index, aux="int"))
    case("aload-null", inst(M_ALOAD, rd=8, rs1=R_NULL, rs2=R_TWO, aux="int"))
    case("astore-null",
         inst(M_ASTORE, rd=R_SIX, rs1=R_NULL, rs2=R_TWO, aux="int"))
    case("astore-ref",
         inst(M_ASTORE, rd=R_OBJ, rs1=R_REFS, rs2=R_ZERO, aux="ref"))
    case("len", inst(M_LEN, rd=8, rs1=R_INTS))
    case("len-null", inst(M_LEN, rd=8, rs1=R_NULL))
    case("getstatic",
         lambda env: MInst(M_GETSTATIC, rd=8, aux=(env.app, env.n)))
    case("putstatic",
         lambda env: MInst(M_PUTSTATIC, rs1=R_SIX, aux=(env.app, env.n)))
    case("callv-null-receiver",
         lambda env: MInst(M_CALLV, rd=8, rs1=R_NULL, aux=(env.box, 0),
                           imm=()))
    case("illegal-opcode", inst(99))
    return cases


def _matrix_program():
    """A program with an empty main, and the classes and fields the
    matrix instructions name."""
    p = Program("matrix")
    app = p.define_class("App")
    app.add_static("n", "int")
    app.seal()
    box = p.define_class("Box")
    box.add_field("v", "int")
    box.add_field("next", "ref")
    box.seal()
    fn = Fn(p, app, "main")
    fn.ret()
    p.set_main(fn.finish())
    return p, SimpleNamespace(app=app, n=app.static("n"), box=box,
                              v=box.field("v"), next=box.field("next"))


def _matrix_outcome(build, level, fused):
    """Run the instruction ``build`` makes — alone, or as the second
    instruction of a straight-line run — in a hand-assembled method and
    return everything it can have changed."""
    p, env = _matrix_program()
    app, box = env.app, env.box
    vm = _vm(p, fastpath=level)
    app.static_values[env.n.index] = 77
    obj = vm.plan.alloc_object(box)
    obj.slots[env.v.index] = 7
    ints = vm.plan.alloc_array("int", 4)
    ints.elements[:] = [10, 20, 30, 40]
    refs = vm.plan.alloc_array("ref", 2)

    x = build(env)
    code = [MInst(M_STF, rs1=R_SIX, imm=3)] if fused else []
    if x.op in (M_BC, M_BR):
        # Taken skips the marker write; a branch ends a fused run.
        x.imm = len(code) + 2
        code += [x, MInst(M_MOVI, rd=9, imm=1), MInst(M_RET)]
    else:
        code += [x, MInst(M_RET)]
    # Install the list as main's compiled code before its first
    # activation.
    cm = vm.compiled_code_for(p.main)
    cm.code, cm.reg_count, cm.frame_words = code, 10, 4
    cpu = vm.cpu
    cpu._push_frame(cm, ())
    frame = cpu.frames[-1]
    frame.regs[:8] = [obj, ints, refs, None, 6, -3, 0, 2]
    frame.slots[:] = [11, 22, 33, 44]
    if level == 2:
        blocks = translation_for(cm, cpu).blocks
        in_run = fused and (translate.fusible(x) or x.op in (M_BC, M_BR))
        assert [blk is not None for blk in blocks[:2]] == [in_run, False]
    fault = None
    try:
        cpu.run()
    except GuestError as error:
        fault = str(error)
    names = {id(obj): "obj", id(ints): "ints", id(refs): "refs"}
    seen = [names.get(id(value), value)
            for value in (frame.regs + frame.slots + obj.slots
                          + ints.elements + refs.elements
                          + app.static_values)]
    ms = vm.memsys
    return (fault, seen, ms.n_loads, ms.n_stores, cpu.instructions,
            cpu.cycles, vm.gc_cycles)


class TestOpcodeMatrix:
    """Per-opcode parity below the compilers: hand-assembled ``MInst``
    methods, so shapes neither JIT emits and every fault are compared
    too — through the per-instruction handler (alone) and inside a fused
    run, against the reference interpreter."""

    @pytest.mark.parametrize("build", _matrix_cases())
    def test_matches_the_reference(self, build):
        for fused in (False, True):
            ref = _matrix_outcome(build, 0, fused)
            assert _matrix_outcome(build, 1, fused) == ref
            assert _matrix_outcome(build, 2, fused) == ref

    def test_covers_every_shape_and_fault(self):
        _, env = _matrix_program()
        shapes = {translate._shape(param.values[0](env))
                  for param in _matrix_cases()}
        assert shapes >= set(translate._TEMPLATES)
        faults = {_matrix_outcome(param.values[0], 0, False)[0]
                  for param in _matrix_cases()}
        assert faults == {None} | {f"{message} at App.main:0" for message in (
            "null getfield", "null putfield", "null array load",
            "null array store", "null arraylength", "null receiver",
            "index -3 out of bounds [0,4)", "index 6 out of bounds [0,4)",
            "division by zero", "bad alu op neg", "bad alu op bogus",
            "bad alui op xor", "bad alui op or", "bad alui op bogus",
            "illegal opcode 99")}
