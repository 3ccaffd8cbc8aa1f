"""Execution semantics of the CPU on compiled guest code.

Every test runs real bytecode through the real pipeline (baseline
compiler -> CPU -> memory hierarchy) with monitoring disabled, and many
run the same program opt-compiled to check compiler equivalence.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import BASELINE_ONLY, if_cond, int_main, run_main
from repro.core.config import GCConfig, SystemConfig
from repro.hw.isa import GuestError
from repro.jit.aos import CompilationPlan
from repro.vm.program import Program
from repro.workloads.synth import Fn


def arith(body):
    return int_main(body)


class TestArithmetic:
    def test_iconst_and_add(self):
        assert arith(lambda fn, app: fn.iconst(2).iconst(3).emit("iadd")) == 5

    def test_sub_mul(self):
        assert arith(lambda fn, app:
                     fn.iconst(10).iconst(4).emit("isub")
                       .iconst(3).emit("imul")) == 18

    def test_division_truncates_toward_zero(self):
        assert arith(lambda fn, app: fn.iconst(-7).iconst(2).emit("idiv")) == -3
        assert arith(lambda fn, app: fn.iconst(7).iconst(-2).emit("idiv")) == -3
        assert arith(lambda fn, app: fn.iconst(7).iconst(2).emit("idiv")) == 3

    def test_remainder_sign_follows_dividend(self):
        assert arith(lambda fn, app: fn.iconst(-7).iconst(3).emit("irem")) == -1
        assert arith(lambda fn, app: fn.iconst(7).iconst(-3).emit("irem")) == 1

    def test_division_by_zero_raises(self):
        with pytest.raises(GuestError, match="division by zero"):
            arith(lambda fn, app: fn.iconst(1).iconst(0).emit("idiv"))

    def test_bitwise(self):
        assert arith(lambda fn, app: fn.iconst(0b1100).iconst(0b1010)
                     .emit("iand")) == 0b1000
        assert arith(lambda fn, app: fn.iconst(0b1100).iconst(0b1010)
                     .emit("ior")) == 0b1110
        assert arith(lambda fn, app: fn.iconst(0b1100).iconst(0b1010)
                     .emit("ixor")) == 0b0110

    def test_shifts_mask_to_31(self):
        assert arith(lambda fn, app: fn.iconst(1).iconst(33)
                     .emit("ishl")) == 2  # 33 & 31 == 1
        assert arith(lambda fn, app: fn.iconst(16).iconst(2)
                     .emit("ishr")) == 4

    def test_negate(self):
        assert arith(lambda fn, app: fn.iconst(5).emit("ineg")) == -5

    def test_stack_manipulation(self):
        assert arith(lambda fn, app: fn.iconst(3).emit("dup")
                     .emit("imul")) == 9
        assert arith(lambda fn, app: fn.iconst(1).iconst(2).emit("swap")
                     .emit("isub")) == 1  # 2 - 1
        assert arith(lambda fn, app: fn.iconst(9).iconst(7).emit("pop")) == 9

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    @settings(max_examples=15, deadline=None)
    def test_add_matches_python(self, a, b):
        assert arith(lambda fn, app: fn.iconst(a).iconst(b).emit("iadd")) \
            == a + b


class TestControlFlow:
    def test_counted_loop(self):
        def body(fn, app):
            acc = fn.local()
            fn.iconst(0).istore(acc)
            with fn.loop(10) as i:
                fn.iload(acc).iload(i).emit("iadd").istore(acc)
            fn.iload(acc)
        assert arith(body) == 45

    def test_if_cond(self):
        def body(fn, app):
            out = fn.local()
            fn.iconst(0).istore(out)
            fn.iconst(3).iconst(5)
            with if_cond(fn, "lt"):
                fn.iconst(77).istore(out)
            fn.iload(out)
        assert arith(body) == 77

    def test_ifnull_branches(self):
        def body(fn, app):
            out = fn.local()
            fn.iconst(1).istore(out)
            fn.emit("aconst_null")
            skip = fn.fresh_label()
            fn.emit("ifnull", skip)
            fn.iconst(0).istore(out)
            fn.label(skip)
            fn.iload(out)
        assert arith(body) == 1

    def test_nested_loops(self):
        def body(fn, app):
            acc = fn.local()
            fn.iconst(0).istore(acc)
            with fn.loop(5):
                with fn.loop(4):
                    fn.iload(acc).iconst(1).emit("iadd").istore(acc)
            fn.iload(acc)
        assert arith(body) == 20


class TestCallsAndObjects:
    def make_program(self):
        p = Program("t")
        app = p.define_class("App")
        app.add_static("out", "int")
        app.seal()
        return p, app

    def test_static_call_args_and_return(self):
        p, app = self.make_program()
        callee = Fn(p, app, "sub3", args=["int", "int", "int"], returns="int")
        callee.iload(0).iload(1).emit("isub").iload(2).emit("isub").iret()
        sub3 = callee.finish()
        fn = Fn(p, app, "main")
        fn.iconst(100).iconst(30).iconst(7).call(sub3).putstatic(app, "out")
        fn.ret()
        p.set_main(fn.finish())
        run_main(p)
        assert app.static_values[0] == 63

    def test_recursion(self):
        from tests.helpers import self_recursive_method
        p, app = self.make_program()

        def build(asm, method):
            asm.emit("iload", 0)
            asm.emit("iconst", 2)
            asm.emit("if_icmp", "lt", "base")
            asm.emit("iload", 0)
            asm.emit("iconst", 1)
            asm.emit("isub")
            asm.emit("invokestatic", method)
            asm.emit("iload", 0)
            asm.emit("iconst", 2)
            asm.emit("isub")
            asm.emit("invokestatic", method)
            asm.emit("iadd")
            asm.emit("ireturn")
            asm.label("base")
            asm.emit("iload", 0)
            asm.emit("ireturn")

        fib = self_recursive_method(p, app, "fib", args=["int"],
                                    returns="int", build=build)
        fn = Fn(p, app, "main")
        fn.iconst(10).call(fib).putstatic(app, "out")
        fn.ret()
        p.set_main(fn.finish())
        run_main(p)
        assert app.static_values[0] == 55

    def test_virtual_dispatch_and_override(self):
        p, app = self.make_program()
        animal = p.define_class("Animal")
        animal.seal()
        speak = Fn(p, animal, "speak", args=["ref"], returns="int",
                   static=False)
        speak.iconst(1).iret()
        speak.finish()
        dog = p.define_class("Dog", animal)
        dog.seal()
        bark = Fn(p, dog, "speak", args=["ref"], returns="int", static=False)
        bark.iconst(2).iret()
        bark.finish()
        fn = Fn(p, app, "main")
        a, d = fn.local(), fn.local()
        fn.new(animal).rstore(a)
        fn.new(dog).rstore(d)
        fn.rload(a).callv(animal, "speak")
        fn.rload(d).callv(animal, "speak")  # declared Animal, runtime Dog
        fn.iconst(10).emit("imul").emit("iadd")
        fn.putstatic(app, "out")
        fn.ret()
        p.set_main(fn.finish())
        run_main(p)
        assert app.static_values[0] == 21  # 1 + 2*10

    def test_field_roundtrip(self):
        p, app = self.make_program()
        box = p.define_class("Box")
        box.add_field("v", "int")
        box.seal()
        fn = Fn(p, app, "main")
        b = fn.local()
        fn.new(box).rstore(b)
        fn.rload(b).iconst(99).putfield(box, "v")
        fn.rload(b).getfield(box, "v").putstatic(app, "out")
        fn.ret()
        p.set_main(fn.finish())
        run_main(p)
        assert app.static_values[0] == 99

    def test_null_getfield_raises(self):
        p, app = self.make_program()
        box = p.define_class("Box")
        box.add_field("v", "int")
        box.seal()
        fn = Fn(p, app, "main")
        fn.emit("aconst_null").getfield(box, "v").putstatic(app, "out")
        fn.ret()
        p.set_main(fn.finish())
        with pytest.raises(GuestError, match="null getfield"):
            run_main(p)

    def test_array_roundtrip_all_kinds(self):
        for kind, value in (("int", 42), ("char", 65), ("long", 1 << 40),
                            ("byte", 7)):
            p, app = self.make_program()
            fn = Fn(p, app, "main")
            arr = fn.local()
            fn.iconst(4).emit("newarray", kind).rstore(arr)
            fn.rload(arr).iconst(2).iconst(value).emit("arrstore", kind)
            fn.rload(arr).iconst(2).emit("arrload", kind)
            fn.putstatic(app, "out")
            fn.ret()
            p.set_main(fn.finish())
            run_main(p)
            assert app.static_values[0] == value, kind

    def test_array_bounds_raise(self):
        p, app = self.make_program()
        fn = Fn(p, app, "main")
        arr = fn.local()
        fn.iconst(4).emit("newarray", "int").rstore(arr)
        fn.rload(arr).iconst(4).emit("arrload", "int").putstatic(app, "out")
        fn.ret()
        p.set_main(fn.finish())
        with pytest.raises(GuestError, match="out of bounds"):
            run_main(p)

    def test_arraylength(self):
        p, app = self.make_program()
        fn = Fn(p, app, "main")
        fn.iconst(17).emit("newarray", "int").emit("arraylength")
        fn.putstatic(app, "out")
        fn.ret()
        p.set_main(fn.finish())
        run_main(p)
        assert app.static_values[0] == 17

    def test_stack_overflow(self):
        from tests.helpers import self_recursive_method
        p, app = self.make_program()

        def build(asm, method):
            asm.emit("iload", 0)
            asm.emit("invokestatic", method)
            asm.emit("ireturn")

        rec = self_recursive_method(p, app, "rec", args=["int"],
                                    returns="int", build=build)
        fn = Fn(p, app, "main")
        fn.iconst(0).call(rec).putstatic(app, "out")
        fn.ret()
        p.set_main(fn.finish())
        with pytest.raises(GuestError, match="stack overflow"):
            run_main(p)


class TestCompilerEquivalence:
    """Baseline and opt compilers must agree on semantics."""

    def build(self, p, app):
        work = Fn(p, app, "work", args=["int"], returns="int")
        n = 0
        acc = work.local()
        work.iconst(1).istore(acc)
        with work.loop(12) as i:
            work.iload(acc).iload(i).emit("iadd")
            work.iconst(3).emit("imul")
            work.iconst(0xFFFF).emit("iand")
            work.istore(acc)
            work.iload(acc).iconst(100)
            with if_cond(work, "gt"):
                work.iload(acc).iconst(7).emit("irem").istore(acc)
        work.iload(acc).iload(n).emit("iadd").iret()
        return work.finish()

    def run_with(self, plan_methods):
        p = Program("t")
        app = p.define_class("App")
        app.add_static("out", "int")
        app.seal()
        work = self.build(p, app)
        fn = Fn(p, app, "main")
        fn.iconst(5).call(work).putstatic(app, "out")
        fn.ret()
        p.set_main(fn.finish())
        run_main(p, plan=CompilationPlan(plan_methods))
        return app.static_values[0]

    def test_baseline_equals_opt(self):
        assert self.run_with([]) == self.run_with(["App.work"])

    @given(st.lists(st.sampled_from(
        ["iadd", "isub", "imul", "iand", "ior", "ixor"]),
        min_size=1, max_size=12),
        st.integers(1, 50))
    @settings(max_examples=15, deadline=None)
    def test_random_expressions_agree(self, ops, seed):
        def make(plan):
            p = Program("t")
            app = p.define_class("App")
            app.add_static("out", "int")
            app.seal()
            work = Fn(p, app, "work", args=["int"], returns="int")
            work.iload(0)
            for k, op in enumerate(ops):
                work.iconst(seed + k).emit(op)
            work.iret()
            w = work.finish()
            fn = Fn(p, app, "main")
            fn.iconst(seed).call(w).putstatic(app, "out")
            fn.ret()
            p.set_main(fn.finish())
            run_main(p, plan=plan)
            return app.static_values[0]
        assert make(BASELINE_ONLY) == make(CompilationPlan(["App.work"]))


class TestCycleAccounting:
    def test_cycles_positive_and_ge_instructions(self):
        p = Program("t")
        app = p.define_class("App")
        app.seal()
        fn = Fn(p, app, "main")
        with fn.loop(100):
            fn.emit("nop")
        fn.ret()
        p.set_main(fn.finish())
        result = run_main(p)
        assert result.instructions > 100
        assert result.cycles >= result.instructions

    def test_memory_traffic_costs_more(self):
        def build(with_fields):
            p = Program("t")
            app = p.define_class("App")
            app.seal()
            box = p.define_class("Box")
            box.add_field("v", "int")
            box.seal()
            fn = Fn(p, app, "main")
            b = fn.local()
            acc = fn.local()
            fn.new(box).rstore(b)
            fn.iconst(0).istore(acc)
            with fn.loop(500):
                if with_fields:
                    fn.rload(b).getfield(box, "v")
                else:
                    fn.iconst(0)
                fn.iload(acc).emit("iadd").istore(acc)
            fn.ret()
            p.set_main(fn.finish())
            return run_main(p, plan=CompilationPlan(["App.main"]))
        # Opt-compiled main: the getfield variant pays cache latencies.
        heavy = build(True)
        light = build(False)
        assert heavy.cycles > light.cycles
