"""Adversarial code-generation patterns.

These target the classically bug-prone corners of the opt pipeline:
parallel-move cycles at block boundaries, values shielded across sync
moves in branch operands, deep operand stacks, and references held in
registers across GC points inside loops.
"""

import pytest

from tests.helpers import BASELINE_ONLY, if_nonzero
from repro.core.config import GCConfig, SystemConfig
from repro.jit.aos import CompilationPlan
from repro.vm.program import Program
from repro.vm.vmcore import run_program
from repro.workloads.synth import Fn

OPT_WORK = CompilationPlan(["App.work"])


def build_and_run(body_builder, plan, args_value=7, heap=1024 * 1024):
    p = Program("t")
    app = p.define_class("App")
    app.add_static("out", "int")
    app.seal()
    node = p.define_class("Node")
    node.add_field("next", "ref")
    node.add_field("v", "int")
    node.seal()
    work = Fn(p, app, "work", args=["int"], returns="int")
    body_builder(work, app, node)
    work_m = work.finish()
    main = Fn(p, app, "main")
    main.iconst(args_value).call(work_m).putstatic(app, "out")
    main.ret()
    p.set_main(main.finish())
    cfg = SystemConfig(monitoring=False, gc=GCConfig(heap_bytes=heap))
    run_program(p, cfg, compilation_plan=plan)
    return app.static_values[0]


def agree(body_builder, **kw):
    base = build_and_run(body_builder, BASELINE_ONLY, **kw)
    opt = build_and_run(body_builder, OPT_WORK, **kw)
    assert base == opt, (base, opt)
    return base


class TestParallelMoves:
    def test_local_swap_in_loop(self):
        """a, b = b, a per iteration: the classic move cycle at the
        loop-back sync point."""
        def body(fn, app, node):
            a = fn.local()
            b = fn.local()
            fn.iconst(1).istore(a)
            fn.iconst(2).istore(b)
            with fn.loop(7):
                fn.iload(a)
                fn.iload(b).istore(a)
                fn.istore(b)
            # out = a * 10 + b
            fn.iload(a).iconst(10).emit("imul").iload(b).emit("iadd")
            fn.iret()
        assert agree(body) == 21  # odd #swaps: a=2, b=1

    def test_three_way_rotation(self):
        def body(fn, app, node):
            a, b, c = fn.local(), fn.local(), fn.local()
            fn.iconst(1).istore(a)
            fn.iconst(2).istore(b)
            fn.iconst(3).istore(c)
            with fn.loop(4):
                fn.iload(a)          # stash a
                fn.iload(b).istore(a)
                fn.iload(c).istore(b)
                fn.istore(c)         # c = old a
            fn.iload(a).iconst(100).emit("imul")
            fn.iload(b).iconst(10).emit("imul").emit("iadd")
            fn.iload(c).emit("iadd").iret()
        # After 4 rotations of (1,2,3): period 3, so one extra: (2,3,1).
        assert agree(body) == 231

    def test_branch_operand_survives_sync_moves(self):
        """The branch compares a value whose canonical register is
        overwritten by the loop-back moves (the shield-copy case)."""
        def body(fn, app, node):
            x = fn.local()
            fn.iload(0).istore(x)
            head = fn.fresh_label()
            done = fn.fresh_label()
            fn.label(head)
            fn.iload(x)                 # branch operand from local x
            fn.iload(x).iconst(1).emit("isub").istore(x)  # x changes!
            fn.emit("ifz", "le", done)  # compares the OLD x
            fn.emit("goto", head)
            fn.label(done)
            fn.iload(x).iret()
        assert agree(body) == -1  # loop runs while old x > 0

    def test_deep_operand_stack(self):
        def body(fn, app, node):
            for i in range(1, 13):
                fn.iconst(i)
            for _ in range(11):
                fn.emit("iadd")
            fn.iret()
        assert agree(body) == sum(range(1, 13))

    def test_swap_of_stack_values_across_branch(self):
        def body(fn, app, node):
            fn.iconst(5).iconst(9)
            fn.iload(0)
            with if_nonzero(fn):
                fn.emit("swap")
            fn.emit("isub").iret()
        assert agree(body, args_value=1) == 4    # swapped: 9 - 5
        assert agree(body, args_value=0) == -4   # not swapped: 5 - 9


class TestRefsAcrossGCPoints:
    def test_register_ref_survives_loop_allocation(self):
        """A reference held only in an opt-code register across repeated
        allocations (GC points) in a loop: the GC map must keep it."""
        def body(fn, app, node):
            keep = fn.local()
            junk = fn.local()
            fn.new(node).rstore(keep)
            fn.rload(keep).iconst(424).putfield(node, "v")
            with fn.loop(4000):
                fn.new(node).rstore(junk)  # pressure: ~4000 dead nodes
            fn.rload(keep).getfield(node, "v").iret()
        # Heap small enough that several minor GCs happen mid-loop.
        assert agree(body, heap=192 * 1024) == 424

    def test_chain_built_under_pressure_from_registers(self):
        def body(fn, app, node):
            head = fn.local()
            cur = fn.local()
            junk = fn.local()
            fn.emit("aconst_null").rstore(head)
            with fn.loop(50) as i:
                fn.new(node).rstore(cur)
                fn.rload(cur).rload(head).putfield(node, "next")
                fn.rload(cur).iload(i).putfield(node, "v")
                fn.rload(cur).rstore(head)
                fn.iconst(64).emit("newarray", "int").rstore(junk)
            # Sum the chain.
            acc = fn.local()
            fn.iconst(0).istore(acc)
            walk = fn.fresh_label()
            done = fn.fresh_label()
            fn.label(walk)
            fn.rload(head).emit("ifnull", done)
            fn.iload(acc).rload(head).getfield(node, "v").emit("iadd")
            fn.istore(acc)
            fn.rload(head).getfield(node, "next").rstore(head)
            fn.emit("goto", walk)
            fn.label(done)
            fn.iload(acc).iret()
        assert agree(body, heap=192 * 1024) == sum(range(50))

    def test_ref_argument_survives_callee_gc(self):
        """A ref argument must be kept alive by the *caller's* GC map
        while the callee triggers collection."""
        p = Program("t")
        app = p.define_class("App")
        app.add_static("out", "int")
        app.seal()
        node = p.define_class("Node")
        node.add_field("v", "int")
        node.seal()
        churn = Fn(p, app, "churn", returns="void")
        junk = churn.local()
        with churn.loop(3000):
            churn.new(node).rstore(junk)
        churn.ret()
        churn_m = churn.finish()
        work = Fn(p, app, "work", args=["ref"], returns="int")
        work.call(churn_m)                 # GC happens in here
        work.rload(0).getfield(node, "v").iret()
        work_m = work.finish()
        main = Fn(p, app, "main")
        obj = main.local()
        main.new(node).rstore(obj)
        main.rload(obj).iconst(33).putfield(node, "v")
        main.rload(obj).call(work_m).putstatic(app, "out")
        main.ret()
        p.set_main(main.finish())
        for plan in (BASELINE_ONLY,
                     CompilationPlan(["App.work", "App.churn"])):
            cfg = SystemConfig(monitoring=False,
                               gc=GCConfig(heap_bytes=160 * 1024))
            run_program(p, cfg, compilation_plan=plan)
            assert app.static_values[0] == 33
