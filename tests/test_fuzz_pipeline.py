"""Property-based fuzzing of the whole compile-and-execute pipeline.

Hypothesis generates random (but verifiable) guest programs — arithmetic,
locals, loops, branches, objects, arrays, calls — and checks:

* the baseline and optimizing compilers compute identical results,
* results are independent of monitoring / co-allocation / GC plan,
* GC pressure never corrupts live data (field values survive arbitrary
  collection schedules).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import BASELINE_ONLY
from repro.core.config import GCConfig, SystemConfig
from repro.jit.aos import CompilationPlan
from repro.vm.program import Program
from repro.vm.vmcore import VM, run_program
from repro.workloads.synth import Fn

# One program recipe = a list of small composable "actions" interpreted
# by build_random_program below.  Every recipe yields a verified program.
ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(-100, 100)),
        st.tuples(st.just("binop"),
                  st.sampled_from(["iadd", "isub", "imul", "iand", "ior",
                                   "ixor"])),
        st.tuples(st.just("storeload"), st.integers(0, 3)),
        st.tuples(st.just("loop"), st.integers(1, 5),
                  st.integers(-10, 10)),
        st.tuples(st.just("branch"), st.sampled_from(["lt", "ge", "eq"]),
                  st.integers(-50, 50)),
        st.tuples(st.just("field"), st.integers(-100, 100)),
        st.tuples(st.just("array"), st.integers(1, 6),
                  st.integers(-100, 100)),
    ),
    min_size=1, max_size=10,
)


def build_random_program(actions, rounds=1):
    """The program a recipe describes; with ``rounds`` > 1 its actions
    run that many times in a counted loop, the value on the stack
    carried round in a local — so the loop's fused runs form rings
    (unless an action allocates) nobody hand-wrote."""
    p = Program("fuzz")
    app = p.define_class("App")
    app.add_static("out", "int")
    app.seal()
    box = p.define_class("Box")
    box.add_field("v", "int")
    box.add_field("next", "ref")
    box.seal()

    fn = Fn(p, app, "work", args=["int"], returns="int")
    locals_ = [fn.local() for _ in range(4)]
    for slot in locals_:
        fn.iconst(0).istore(slot)
    fn.iload(0)  # seed on stack
    if rounds > 1:
        carried = fn.local()
        fn.istore(carried)
        with fn.loop(rounds):
            fn.iload(carried)
            _emit_actions(fn, actions, locals_, box)
            fn.istore(carried)
        fn.iload(carried)
    else:
        _emit_actions(fn, actions, locals_, box)
    fn.iret()
    work = fn.finish()

    main = Fn(p, app, "main")
    main.iconst(11).call(work).putstatic(app, "out")
    main.ret()
    p.set_main(main.finish())
    return p, app


def _emit_actions(fn, actions, locals_, box):
    for action in actions:
        kind = action[0]
        if kind == "push":
            fn.iconst(action[1]).emit("iadd")
        elif kind == "binop":
            fn.iconst(17).emit(action[1])
        elif kind == "storeload":
            slot = locals_[action[1]]
            fn.istore(slot)
            fn.iload(slot).iload(slot).emit("ixor")
            fn.iload(slot).emit("iadd")
        elif kind == "loop":
            _, count, delta = action
            acc = fn.local()
            fn.istore(acc)
            with fn.loop(count):
                fn.iload(acc).iconst(delta).emit("iadd").istore(acc)
            fn.iload(acc)
        elif kind == "branch":
            _, cond, threshold = action
            out = fn.local()
            fn.istore(out)
            fn.iload(out).iconst(threshold)
            with fn.if_cond(cond):
                fn.iload(out).iconst(3).emit("imul").istore(out)
            fn.iload(out)
        elif kind == "field":
            tmp = fn.local()
            obj = fn.local()
            fn.istore(tmp)
            fn.new(box).rstore(obj)
            fn.rload(obj).iload(tmp).putfield(box, "v")
            fn.rload(obj).getfield(box, "v")
        elif kind == "array":
            _, length, value = action
            tmp = fn.local()
            arr = fn.local()
            fn.istore(tmp)
            fn.iconst(length).emit("newarray", "int").rstore(arr)
            fn.rload(arr).iconst(length - 1).iconst(value)
            fn.emit("arrstore", "int")
            fn.rload(arr).iconst(length - 1).emit("arrload", "int")
            fn.iload(tmp).emit("iadd")


def run_recipe(actions, plan_methods=(), **config_overrides):
    p, app = build_random_program(actions)
    cfg = SystemConfig(monitoring=False,
                       gc=GCConfig(heap_bytes=1024 * 1024),
                       **config_overrides)
    plan = CompilationPlan(list(plan_methods))
    run_program(p, cfg, compilation_plan=plan)
    return app.static_values[app.static("out").index]


def run_recipe_full(actions, plan_methods=(), rounds=1, **config_overrides):
    """Like :func:`run_recipe` but also returns the RunResult."""
    p, app = build_random_program(actions, rounds)
    kwargs = dict(monitoring=False, gc=GCConfig(heap_bytes=1024 * 1024))
    kwargs.update(config_overrides)
    cfg = SystemConfig(**kwargs)
    plan = CompilationPlan(list(plan_methods))
    result = run_program(p, cfg, compilation_plan=plan)
    return app.static_values[app.static("out").index], result


class TestCompilerEquivalenceFuzz:
    @given(ACTIONS)
    @settings(max_examples=60, deadline=None)
    def test_baseline_and_opt_agree(self, actions):
        base = run_recipe(actions)
        opt = run_recipe(actions, plan_methods=["App.work"])
        assert base == opt

    @given(ACTIONS)
    @settings(max_examples=20, deadline=None)
    def test_gc_plan_does_not_change_results(self, actions):
        assert run_recipe(actions, gc_plan="genms") == \
            run_recipe(actions, gc_plan="gencopy")


class TestInterpreterEquivalenceFuzz:
    """The translated fast paths (repro.hw.translate) must be
    observationally indistinguishable from the reference interpreter:
    same exit values, same cycle and instruction counts, same hardware
    event counters, same number of PEBS samples — for every program,
    under every compiler level.  The differential runs three-way:
    reference (level 0) vs per-instruction closures (level 1) vs
    superblocks (level 2)."""

    @staticmethod
    def _observables(out, result):
        pebs = result.vm.pebs if result.vm is not None else None
        return (out, result.cycles, result.instructions, result.counters,
                pebs.samples_taken if pebs is not None else None)

    @classmethod
    def _differential(cls, actions, plan_methods=(), **overrides):
        ref = cls._observables(*run_recipe_full(
            actions, plan_methods, fastpath=0, **overrides))
        per_inst = cls._observables(*run_recipe_full(
            actions, plan_methods, fastpath=1, **overrides))
        superblock = cls._observables(*run_recipe_full(
            actions, plan_methods, fastpath=2, **overrides))
        assert per_inst == ref
        assert superblock == ref

    @given(ACTIONS)
    @settings(max_examples=40, deadline=None)
    def test_fastpath_matches_reference_baseline(self, actions):
        self._differential(actions)

    @given(ACTIONS)
    @settings(max_examples=20, deadline=None)
    def test_fastpath_matches_reference_opt(self, actions):
        self._differential(actions, plan_methods=["App.work"])

    @given(ACTIONS)
    @settings(max_examples=10, deadline=None)
    def test_fastpath_matches_reference_monitoring(self, actions):
        self._differential(actions, monitoring=True)

    @given(ACTIONS, st.integers(2, 30), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_looped_recipe_matches_reference(self, actions, rounds, opt):
        """The recipe in a counted loop: generated rings (and loops
        an allocating action keeps from being one) at every level."""
        self._differential(actions, ["App.work"] if opt else (),
                           rounds=rounds)

    @given(ACTIONS, st.integers(2, 30), st.booleans(),
           st.integers(200, 3000))
    @settings(max_examples=20, deadline=None)
    def test_looped_recipe_sliced_matches_reference(self, actions, rounds,
                                                    opt, step):
        """The same, driven in ``step``-cycle slices: the clock after
        every slice is the reference's, so regions stop where the
        per-instruction split would."""
        traces = []
        for level in (0, 2):
            p, app = build_random_program(actions, rounds)
            cfg = SystemConfig(monitoring=False, fastpath=level,
                               gc=GCConfig(heap_bytes=1024 * 1024))
            vm = VM(p, cfg, compilation_plan=CompilationPlan(
                ["App.work"] if opt else []))
            vm.begin()
            trace = []
            while not vm.advance(until_cycles=vm.cpu.cycles + step):
                trace.append((vm.cpu.cycles, vm.cpu.instructions))
            result = vm.finish()
            traces.append((trace, self._observables(
                app.static_values[app.static("out").index], result)))
        assert traces[1] == traces[0]


class TestGCUnderPressureFuzz:
    @given(st.integers(2, 40), st.integers(1, 8), st.integers(0, 1))
    @settings(max_examples=25, deadline=None)
    def test_linked_list_survives_tiny_heaps(self, n, payload, plan_flag):
        """Build a linked list under a heap so small that many minor and
        full collections happen mid-construction; then fold it and check
        the checksum matches a pure-Python computation."""
        p = Program("fuzzgc")
        app = p.define_class("App")
        app.add_static("out", "int")
        app.seal()
        node = p.define_class("Node")
        node.add_field("next", "ref")
        node.add_field("v", "int")
        node.seal()

        fn = Fn(p, app, "main")
        head = fn.local()
        cur = fn.local()
        garbage = fn.local()
        acc = fn.local()
        fn.emit("aconst_null").rstore(head)
        with fn.loop(n) as i:
            fn.new(node).rstore(cur)
            fn.rload(cur).rload(head).putfield(node, "next")
            fn.rload(cur).iload(i).iconst(payload).emit("imul")
            fn.putfield(node, "v")
            fn.rload(cur).rstore(head)
            # Garbage pressure: allocate and drop an array per node.
            fn.iconst(24).emit("newarray", "int").rstore(garbage)
        fn.iconst(0).istore(acc)
        fn.rload(head).rstore(cur)
        walk = fn.fresh_label()
        done = fn.fresh_label()
        fn.label(walk)
        fn.rload(cur).emit("ifnull", done)
        fn.iload(acc).rload(cur).getfield(node, "v").emit("iadd")
        fn.istore(acc)
        fn.rload(cur).getfield(node, "next").rstore(cur)
        fn.emit("goto", walk)
        fn.label(done)
        fn.iload(acc).putstatic(app, "out")
        fn.ret()
        p.set_main(fn.finish())

        plan = (CompilationPlan(["App.main"]) if plan_flag
                else BASELINE_ONLY)
        cfg = SystemConfig(monitoring=False,
                           gc=GCConfig(heap_bytes=192 * 1024))
        result = run_program(p, cfg, compilation_plan=plan)
        expected = sum(i * payload for i in range(n))
        assert app.static_values[0] == expected
        # The garbage arrays really did create GC pressure for larger n.
        if n * 120 > 96 * 1024:
            assert result.gc_stats.minor_gcs > 0


class TestPEBSStatisticalProperties:
    @given(st.integers(5, 200), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_sampling_rate_tracks_interval(self, interval, seed):
        import random

        from repro.core.config import PEBSConfig
        from repro.hw.pebs import PEBSUnit

        taken = []
        unit = PEBSUnit(PEBSConfig(ds_capacity=10_000, watermark=1.0),
                        lambda c: None, taken.extend,
                        rng=random.Random(seed))
        unit.configure("L1D_MISS", interval)
        events = interval * 40
        for i in range(events):
            unit.on_event(eip=i)
        unit.flush()
        count = sum(len(b) for b in [taken]) or len(taken)
        # Expected ~40 samples; allow generous jitter.
        assert 25 <= len(taken) <= 60
