"""Tests for the baseline and optimizing compilers, HIR, and liveness."""

import pytest

from tests.helpers import if_nonzero
from repro.hw.isa import (
    GC_POINT_OPS,
    M_BC, M_BR, M_CALL, M_GETF, M_LDF, M_MOV, M_NEW, M_STF,
)
from repro.jit.baseline import compile_baseline
from repro.jit.codecache import LEVEL_BASELINE, LEVEL_OPT
from repro.jit.hir import build_hir
from repro.jit.liveness import compute_gc_maps, compute_liveness, uses_defs
from repro.jit.lowering import lower, sequentialize_moves
from repro.jit.opt import compile_opt
from repro.jit.optimizer import optimize
from repro.vm.program import Program
from repro.workloads.synth import Fn


def simple_program():
    p = Program("t")
    app = p.define_class("App")
    app.add_static("out", "int")
    app.seal()
    box = p.define_class("Box")
    box.add_field("child", "ref")
    box.add_field("v", "int")
    box.seal()
    return p, app, box


def field_chase_method(p, app, box):
    """int chase(Box b): return b.child.v   (the paper's p.y.i shape)."""
    fn = Fn(p, app, "chase", args=["ref"], returns="int")
    fn.rload(0).getfield(box, "child").getfield(box, "v").iret()
    return fn.finish()


class TestBaselineCompiler:
    def test_every_instruction_has_bytecode_index(self):
        p, app, box = simple_program()
        m = field_chase_method(p, app, box)
        cm = compile_baseline(m)
        assert cm.level == LEVEL_BASELINE
        assert all(0 <= bc < len(m.code) for bc in cm.bc_map)

    def test_prologue_spills_arguments(self):
        p, app, box = simple_program()
        m = field_chase_method(p, app, box)
        cm = compile_baseline(m)
        assert cm.code[0].op == M_STF
        assert cm.code[0].imm == 0  # arg 0 -> local slot 0

    def test_operand_stack_lives_in_frame_memory(self):
        p, app, box = simple_program()
        m = field_chase_method(p, app, box)
        cm = compile_baseline(m)
        ops = [inst.op for inst in cm.code]
        assert M_LDF in ops and M_STF in ops

    def test_branch_fixups_point_to_instruction_starts(self):
        p, app, box = simple_program()
        fn = Fn(p, app, "looped", args=["int"], returns="int")
        acc = fn.local()
        fn.iconst(0).istore(acc)
        with fn.loop(10):
            fn.iload(acc).iconst(1).emit("iadd").istore(acc)
        fn.iload(acc).iret()
        cm = compile_baseline(fn.finish())
        for inst in cm.code:
            if inst.op in (M_BR, M_BC):
                assert 0 <= inst.imm < len(cm.code)

    def test_gc_maps_present_at_gc_points_only(self):
        p, app, box = simple_program()
        fn = Fn(p, app, "maker", args=["ref"], returns="ref")
        fn.new(box).rret()
        cm = compile_baseline(fn.finish())
        gc_pcs = {pc for pc, inst in enumerate(cm.code)
                  if inst.op in GC_POINT_OPS}
        assert set(cm.gc_maps) == gc_pcs
        assert gc_pcs  # the 'new' is a GC point

    def test_gc_map_lists_ref_local(self):
        p, app, box = simple_program()
        fn = Fn(p, app, "maker", args=["ref"], returns="ref")
        fn.new(box).rret()
        cm = compile_baseline(fn.finish())
        (roots,) = cm.gc_maps.values()
        assert ("s", 0) in roots  # the ref argument's local slot

    def test_int_local_not_in_gc_map(self):
        p, app, box = simple_program()
        fn = Fn(p, app, "maker", args=["int"], returns="ref")
        fn.new(box).rret()
        cm = compile_baseline(fn.finish())
        (roots,) = cm.gc_maps.values()
        assert ("s", 0) not in roots


class TestHIR:
    def test_stack_traffic_eliminated(self):
        p, app, box = simple_program()
        m = field_chase_method(p, app, box)
        func = build_hir(m)
        ops = [i.op for i in func.all_insts()]
        assert ops.count("getfield") == 2
        # No frame-memory ops exist in HIR at all; values flow directly.

    def test_use_def_edge_from_heap_access_to_field_load(self):
        p, app, box = simple_program()
        m = field_chase_method(p, app, box)
        func = build_hir(m)
        getfields = [i for i in func.all_insts() if i.op == "getfield"]
        inner = next(i for i in getfields if i.aux.name == "v")
        producer = inner.args[0]
        assert producer.op == "getfield"
        assert producer.aux.name == "child"

    def test_block_splitting_at_branch_targets(self):
        p, app, box = simple_program()
        fn = Fn(p, app, "looped", args=["int"], returns="int")
        acc = fn.local()
        fn.iconst(0).istore(acc)
        with fn.loop(5):
            fn.iload(acc).iconst(1).emit("iadd").istore(acc)
        fn.iload(acc).iret()
        func = build_hir(fn.finish())
        assert len(func.blocks) >= 3  # entry, loop head/body, exit

    def test_successors_recorded(self):
        p, app, box = simple_program()
        fn = Fn(p, app, "cond", args=["int"], returns="int")
        fn.iload(0)
        with if_nonzero(fn):
            fn.iconst(1).putstatic(app, "out")
        fn.iconst(0).iret()
        func = build_hir(fn.finish())
        branching = [b for b in func.blocks if len(b.successors) == 2]
        assert branching

    def test_vreg_types_tracked(self):
        p, app, box = simple_program()
        m = field_chase_method(p, app, box)
        func = build_hir(m)
        assert any("r" in types for types in func.vreg_types.values())
        assert any("i" in types for types in func.vreg_types.values())


class TestOptimizer:
    def test_constant_folding(self):
        p, app, box = simple_program()
        fn = Fn(p, app, "c", returns="int")
        fn.iconst(6).iconst(7).emit("imul").iret()
        func = build_hir(fn.finish())
        stats = optimize(func)
        assert stats["folded"] >= 1
        consts = [i for i in func.all_insts() if i.op == "const"]
        assert any(i.imm == 42 for i in consts)

    def test_redundant_getfield_eliminated(self):
        p, app, box = simple_program()
        fn = Fn(p, app, "r", args=["ref"], returns="int")
        fn.rload(0).getfield(box, "v")
        fn.rload(0).getfield(box, "v")
        fn.emit("iadd").iret()
        func = build_hir(fn.finish())
        stats = optimize(func)
        assert stats["cse"] == 1
        loads = [i for i in func.all_insts() if i.op == "getfield"]
        assert len(loads) == 1

    def test_putfield_invalidates_cse(self):
        p, app, box = simple_program()
        fn = Fn(p, app, "w", args=["ref"], returns="int")
        fn.rload(0).getfield(box, "v")
        fn.rload(0).iconst(5).putfield(box, "v")
        fn.rload(0).getfield(box, "v")
        fn.emit("iadd").iret()
        func = build_hir(fn.finish())
        optimize(func)
        loads = [i for i in func.all_insts() if i.op == "getfield"]
        assert len(loads) == 2  # the second load must survive

    def test_call_invalidates_cse(self):
        p, app, box = simple_program()
        callee = Fn(p, app, "noop", returns="void")
        callee.ret()
        noop = callee.finish()
        fn = Fn(p, app, "w", args=["ref"], returns="int")
        fn.rload(0).getfield(box, "v")
        fn.call(noop)
        fn.rload(0).getfield(box, "v")
        fn.emit("iadd").iret()
        func = build_hir(fn.finish())
        optimize(func)
        loads = [i for i in func.all_insts() if i.op == "getfield"]
        assert len(loads) == 2

    def test_dead_code_eliminated(self):
        p, app, box = simple_program()
        fn = Fn(p, app, "d", returns="int")
        fn.iconst(1).iconst(2).emit("iadd").emit("pop")  # dead computation
        fn.iconst(9).iret()
        func = build_hir(fn.finish())
        stats = optimize(func)
        assert stats["dce"] >= 1


class TestLowering:
    def test_sequentialize_simple(self):
        assert sequentialize_moves([(1, 2)], scratch=9) == [(1, 2)]

    def test_sequentialize_drops_self_moves(self):
        assert sequentialize_moves([(1, 1)], scratch=9) == []

    def test_sequentialize_chain_ordering(self):
        # 0<-1, 1<-2 must move 0<-1 first.
        out = sequentialize_moves([(1, 2), (0, 1)], scratch=9)
        assert out.index((0, 1)) < out.index((1, 2))

    def test_sequentialize_swap_uses_scratch(self):
        out = sequentialize_moves([(0, 1), (1, 0)], scratch=9)
        assert (9, 1) in out or (9, 0) in out
        # Simulate to verify correctness.
        regs = {0: "a", 1: "b", 9: None}
        for d, s in out:
            regs[d] = regs[s]
        assert regs[0] == "b" and regs[1] == "a"

    def test_opt_code_has_no_frame_traffic(self):
        p, app, box = simple_program()
        m = field_chase_method(p, app, box)
        cm = compile_opt(m)
        assert cm.level == LEVEL_OPT
        assert cm.frame_words == 0
        ops = [inst.op for inst in cm.code]
        assert M_LDF not in ops and M_STF not in ops

    def test_opt_code_smaller_than_baseline(self):
        p, app, box = simple_program()
        m = field_chase_method(p, app, box)
        assert len(compile_opt(m).code) < len(compile_baseline(m).code)

    def test_ir_map_populated_for_opt_code(self):
        p, app, box = simple_program()
        m = field_chase_method(p, app, box)
        cm = compile_opt(m)
        assert all(ir_id is not None for ir_id in cm.ir_map)


class TestLiveness:
    def test_uses_defs_for_astore_value_register(self):
        from repro.hw.isa import M_ASTORE, MInst
        uses, defs = uses_defs(MInst(M_ASTORE, rd=3, rs1=1, rs2=2, aux="int"))
        assert 3 in uses and not defs

    def test_live_in_of_straightline(self):
        from repro.hw.isa import M_ALU, M_MOVI, M_RET, MInst
        code = [
            MInst(M_MOVI, rd=0, imm=1),
            MInst(M_MOVI, rd=1, imm=2),
            MInst(M_ALU, rd=2, rs1=0, rs2=1, aux="add"),
            MInst(M_RET, rs1=2),
        ]
        live_in = compute_liveness(code)
        assert live_in[2] == 0b011  # r0, r1 live before the add
        assert live_in[3] == 0b100  # r2 live before the ret

    def test_gc_map_excludes_result_register(self):
        p, app, box = simple_program()
        fn = Fn(p, app, "m", args=["ref"], returns="ref")
        keep = fn.local()
        fn.rload(0).rstore(keep)
        fn.new(box).rstore(fn.local())
        fn.rload(keep).rret()
        cm = compile_opt(fn.finish())
        new_pc = next(pc for pc, inst in enumerate(cm.code)
                      if inst.op == M_NEW)
        roots = cm.gc_maps[new_pc]
        new_rd = cm.code[new_pc].rd
        assert ("r", new_rd) not in roots

    def test_gc_map_keeps_live_ref_across_allocation(self):
        p, app, box = simple_program()
        fn = Fn(p, app, "m", args=["ref"], returns="ref")
        tmp = fn.local()
        fn.new(box).rstore(tmp)       # allocation with arg 0 still live
        fn.rload(0).rret()            # arg 0 used afterwards
        cm = compile_opt(fn.finish())
        new_pc = next(pc for pc, inst in enumerate(cm.code)
                      if inst.op == M_NEW)
        assert ("r", 0) in cm.gc_maps[new_pc]

    def test_call_arguments_live_during_call(self):
        p, app, box = simple_program()
        callee = Fn(p, app, "id", args=["ref"], returns="ref")
        callee.rload(0).rret()
        ident = callee.finish()
        fn = Fn(p, app, "m", args=["ref"], returns="ref")
        fn.rload(0).call(ident).rret()
        # inline=False: the point is the *call's* GC map.
        cm = compile_opt(fn.finish(), inline=False)
        call_pc = next(pc for pc, inst in enumerate(cm.code)
                       if inst.op == M_CALL)
        arg_regs = cm.code[call_pc].imm
        for reg in arg_regs:
            assert ("r", reg) in cm.gc_maps[call_pc]
