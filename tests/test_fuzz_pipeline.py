"""Property-based fuzzing of the whole compile-and-execute pipeline.

Hypothesis generates random (but verifiable) guest programs — arithmetic,
locals, loops, branches, objects, arrays, calls — and checks:

* the baseline and optimizing compilers compute identical results,
* results are independent of monitoring / co-allocation / GC plan,
* GC pressure never corrupts live data (field values survive arbitrary
  collection schedules).

It also draws whole suite rows (:class:`repro.workloads.suite.Analog`)
nobody wrote, composed by the same :func:`build_analog` as Table 1.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import BASELINE_ONLY, check_claims
from repro.core.config import GCConfig, SystemConfig
from repro.harness.record import RunRecord
from repro.hw import translate
from repro.hw.isa import M_NEW, M_NEWARR
from repro.hw.translate import region_source, superblock_rings
from repro.jit.aos import CompilationPlan
from repro.jit.baseline import compile_baseline
from repro.jit.opt import compile_opt
from repro.vm.program import Program
from repro.vm.vmcore import VM, run_program
from repro.workloads.suite import Analog, Pair, Stream, Young, build_analog
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
        st.tuples(st.just("link"), st.integers(0, 1), st.integers(0, 1)),
    ),
    min_size=1, max_size=10,
)

# A suite row nobody wrote: at most one of each kernel, in a drawn
# order, at tiny sizes.
PAIRS = st.builds(Pair, parent=st.sampled_from(["String", "Node"]),
                  n=st.integers(1, 32), churn_mask=st.integers(-1, 3),
                  payload_len=st.integers(1, 8),
                  payload_span=st.integers(0, 4), pad_ints=st.integers(0, 2),
                  payload_kind=st.sampled_from(["char", "int", "long"]))
YOUNGS = st.builds(
    lambda burst, every, refs, ints: Young(
        "Tmp", burst, every, keep_len=burst // every + 1, ref_fields=refs,
        int_fields=ints),
    st.integers(1, 64), st.integers(1, 8), st.integers(1, 2),
    st.integers(1, 3))
STREAMS = st.builds(Stream, buffer_len=st.integers(1, 64))
ANALOGS = st.builds(
    Analog, name=st.just("drawn"),
    kernels=st.permutations([PAIRS, YOUNGS, STREAMS]).flatmap(
        lambda order: st.integers(1, 3).flatmap(
            lambda k: st.tuples(*order[:k]))),
    rounds=st.integers(1, 8), fillers=st.integers(0, 3),
    min_heap_kb=st.integers(12, 32), description=st.just("drawn row"),
    seed=st.none() | st.integers(0, 2 ** 31 - 1))


def build_random_program(actions, rounds=1):
    """The program a recipe describes; with ``rounds`` > 1 its actions
    run that many times in a counted loop, the value on the stack
    carried round in a local — so the loop's runs form rings nobody
    hand-wrote, the allocating (``field``, ``array``) and forking
    (``branch``) actions' included.  Two boxes are allocated up front
    for ``link`` actions to store references into: a write barrier
    inside the ring, behind no allocation of its own."""
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
    boxes = [fn.local() for _ in range(2)]
    for value, slot in enumerate(boxes, 1):
        fn.new(box).rstore(slot)
        fn.rload(slot).iconst(value).putfield(box, "v")
    fn.iload(0)  # seed on stack
    if rounds > 1:
        carried = fn.local()
        fn.istore(carried)
        with fn.loop(rounds):
            fn.iload(carried)
            _emit_actions(fn, actions, locals_, boxes, box)
            fn.istore(carried)
        fn.iload(carried)
    else:
        _emit_actions(fn, actions, locals_, boxes, box)
    fn.iret()
    work = fn.finish()

    main = Fn(p, app, "main")
    main.iconst(11).call(work).putstatic(app, "out")
    main.ret()
    p.set_main(main.finish())
    return p, app


def _emit_actions(fn, actions, locals_, boxes, box):
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
        elif kind == "link":
            # holder.next = target (a reference store: a write barrier),
            # then add the value found through the link.
            _, holder, target = action
            fn.rload(boxes[holder]).rload(boxes[target])
            fn.putfield(box, "next")
            fn.rload(boxes[holder]).getfield(box, "next")
            fn.getfield(box, "v").emit("iadd")


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

    @given(ANALOGS, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_drawn_analog_matches_reference(self, row, coalloc):
        """A composed suite row, co-allocating or not, on a 4 KB
        nursery (about a third of the rows collect): the whole-run
        record is the same at every level."""
        records = []
        for level in (0, 1, 2):
            workload = build_analog(row)
            config = SystemConfig(
                monitoring=coalloc, coalloc=coalloc, fastpath=level,
                gc=GCConfig(heap_bytes=row.min_heap_kb * 1024,
                            min_nursery_bytes=4096, max_nursery_bytes=4096))
            result = VM(workload.program, config,
                        compilation_plan=workload.plan).run()
            records.append(RunRecord.from_result(result).to_json())
        assert records[1] == records[0]
        assert records[2] == records[0]

    @given(ACTIONS, st.integers(2, 30), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_looped_recipe_matches_reference(self, actions, rounds, opt):
        """The recipe in a counted loop: generated rings, allocating
        and forking ones included, at every level."""
        self._differential(actions, ["App.work"] if opt else (),
                           rounds=rounds)

    @given(ACTIONS, st.integers(2, 30), st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_looped_recipe_monitored_matches_reference(self, actions, rounds,
                                                       opt):
        """The looped recipe with PEBS armed: its hook fires on misses
        the region entries queued, mid-drain, at every level alike."""
        self._differential(actions, ["App.work"] if opt else (),
                           rounds=rounds, monitoring=True)

    @given(ACTIONS, st.integers(300, 600), st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_looped_recipe_filling_the_nursery_matches_reference(
            self, actions, rounds, opt):
        """The looped recipe behind a ``field`` action, monitored, on a
        4 KB nursery: the rounds fill it mid-ring, so collections are
        taken from inside regions — at every level alike."""
        self._differential([("field", 1)] + actions,
                           ["App.work"] if opt else (), rounds=rounds,
                           monitoring=True, gc=GCConfig(
                               heap_bytes=1024 * 1024,
                               min_nursery_bytes=4096,
                               max_nursery_bytes=4096))

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


    @given(ACTIONS, st.integers(30, 300), st.booleans(), st.booleans(),
           st.sampled_from([None, 300, 2000]))
    @settings(max_examples=30, deadline=None)
    def test_looped_recipe_skips_only_idle_polls(self, actions, rounds, opt,
                                                 monitoring, step):
        """The claim checker under the looped recipe, monitored or not,
        whole or in ``step``-cycle slices: every quantum poll level 2
        skips was idle, within the bound it was granted on."""
        def make_vm():
            p, _ = build_random_program(actions, rounds)
            cfg = SystemConfig(monitoring=monitoring, fastpath=2,
                               gc=GCConfig(heap_bytes=1024 * 1024))
            return VM(p, cfg, compilation_plan=CompilationPlan(
                ["App.work"] if opt else []))

        check_claims(make_vm, step=step)


class TestLoopedRecipeRings:
    """The looped differentials are not vacuous: fixed recipes of each
    allocating and forking action form a ring around that action, under
    both compilers, and run mostly inside its region."""

    @pytest.mark.parametrize("action", [
        ("field", 5), ("array", 3, 7), ("branch", "lt", 10)],
        ids=["field", "array", "branch"])
    @pytest.mark.parametrize("opt", [False, True], ids=["baseline", "opt"])
    def test_the_action_runs_inside_a_region(self, action, opt,
                                             monkeypatch):
        _, app = build_random_program([("push", 1), action], rounds=200)
        cm = (compile_opt if opt else compile_baseline)(app.methods["work"])
        (ring,) = superblock_rings(cm.code)
        if action[0] == "branch":    # a fork: a block behind a guard
            assert "if pc == " in region_source(cm)[0]
        else:
            op = {"field": M_NEW, "array": M_NEWARR}[action[0]]
            assert any(cm.code[start].op == op for start, _ in ring)

        seen = [0]
        real = translate.compile_superblocks

        def counted(cm, cpu, templates=None):
            def counting(region):
                def wrapped(frame, regs, slots, budget, n):
                    pc, used, n = region(frame, regs, slots, budget, n)
                    seen[0] += used
                    return pc, used, n
                return wrapped
            return [blk and (blk[0], counting(blk[1]), *blk[2:])
                    if blk and blk[2] else blk
                    for blk in real(cm, cpu, templates)]

        monkeypatch.setattr(translate, "compile_superblocks", counted)
        _, result = run_recipe_full([("push", 1), action],
                                    ["App.work"] if opt else (), rounds=200,
                                    fastpath=2)
        assert seen[0] / result.instructions >= 0.5


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
