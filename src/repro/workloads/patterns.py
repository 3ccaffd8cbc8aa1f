"""Reusable workload kernels.

Each Table 1 benchmark is synthesized from a few parameterized kernels
(DESIGN.md §2): the published per-benchmark *characteristics* — who has
co-allocation candidates, how large the mature working set is, how much
young-object churn there is — are what the paper's evaluation keys on,
and these kernels reproduce them:

* :func:`add_pair_kernel` — a table of parent objects, each holding a
  reference to a payload child (the String/char[] shape of _209_db).
  Shuffled lookups dereference parent -> child, producing the two-miss
  pattern co-allocation halves; churn re-allocates entries so newly
  promoted pairs follow the current placement policy.
* :func:`add_stream_kernel` — sequential processing of large arrays
  (compress/mpegaudio): the hardware prefetcher hides the misses, the
  arrays live in the LOS, and there are *no* co-allocation candidates.
* :func:`add_young_churn_kernel` — bursts of short-lived small objects
  (javac/jack): almost nothing survives a nursery collection, so the
  mature space stays small and co-allocation has little to chew on.
* :func:`add_filler_methods` — cold, once-invoked methods that size the
  compiled-code corpus realistically (Table 2's per-benchmark machine
  code and map sizes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.jit.aos import CompilationPlan
from repro.vm.model import ClassInfo, MethodInfo
from repro.vm.program import Program
from repro.workloads.synth import Fn, lcg_step, local_ref


@dataclass
class Workload:
    """A runnable benchmark: program + pseudo-adaptive plan + metadata."""

    name: str
    program: Program
    plan: CompilationPlan
    #: Minimum heap for Figure 5/6's "1x" point (generous enough that
    #: both GenMS and GenCopy complete).
    min_heap_bytes: int
    description: str
    #: Class::field pairs expected to become hot (documentation/tests).
    hot_fields: List[str] = field(default_factory=list)
    #: True when the workload allocates no co-allocation candidates
    #: (compress, mpegaudio).
    no_candidates: bool = False


def make_app_class(program: Program) -> ClassInfo:
    """The benchmark's driver class with a checksum static."""
    app = program.define_class("App")
    app.add_static("checksum", "int")
    app.add_static("rngstate", "int")
    app.seal()
    return app


# ---------------------------------------------------------------------------
# The parent/child pair kernel (db, pseudojbb, hsqldb, luindex, pmd, ...)
# ---------------------------------------------------------------------------

def define_pair_classes(program: Program, parent_name: str,
                        pad_ints: int = 0) -> ClassInfo:
    """``class Parent { ref data; int pad0..padK }`` with an array child."""
    parent = program.define_class(parent_name)
    parent.add_field("data", "ref")
    parent.add_field("key", "int")
    for i in range(pad_ints):
        parent.add_field(f"pad{i}", "int")
    parent.seal()
    return parent


def define_pair_factory(program: Program, parent: ClassInfo,
                        payload_len: int, payload_kind: str = "char",
                        data_field: str = "data", key_field: str = "key",
                        payload_span: int = 0) -> MethodInfo:
    """``static Parent make(int seed)``: child array + parent object.

    With ``payload_span`` > 0 the child length varies per seed between
    ``payload_len`` and ``payload_len + payload_span - 1`` — variable
    record sizes are what makes combined co-allocation cells land in
    coarse size classes and *increase* internal fragmentation, the
    small-heap cost the paper observes in section 6.3.
    """
    fn = Fn(program, parent, "make", args=["int"], returns="ref")
    seed = 0
    arr = fn.local()
    obj = fn.local()
    length = fn.local()
    if payload_span > 0:
        # length = payload_len + (seed * 31 + 7) % payload_span
        fn.iload(seed).iconst(31).emit("imul").iconst(7).emit("iadd")
        fn.iconst(payload_span).emit("irem")
        fn.iconst(payload_len).emit("iadd").istore(length)
    else:
        fn.iconst(payload_len).istore(length)
    fn.iload(length).emit("newarray", payload_kind).rstore(arr)
    with fn.loop(local_ref(length)) as i:
        fn.rload(arr).iload(i)
        fn.iload(seed).iload(i).emit("iadd").iconst(0xFF).emit("iand")
        fn.emit("arrstore", payload_kind)
    fn.new(parent).rstore(obj)
    fn.rload(obj).rload(arr).putfield(parent, data_field)
    fn.rload(obj).iload(seed).putfield(parent, key_field)
    fn.rload(obj).rret()
    return fn.finish()


def add_pair_kernel(program: Program, app: ClassInfo, parent: ClassInfo,
                    make: MethodInfo, *, n: int, churn_mask: int,
                    payload_len: int, payload_kind: str = "char",
                    data_field: str = "data",
                    key_field: str = "key") -> MethodInfo:
    """``static int scan(ref table)``: one pass of shuffled lookups.

    Per lookup: optionally replace the entry (churn — this is what lets
    newly promoted pairs follow the current co-allocation policy), load
    the parent, dereference ``parent.data`` and read one payload element.
    The payload read's base comes from the reference field ``data``, so
    its misses are attributed to ``Parent::data`` by the
    instructions-of-interest machinery.
    """
    fn = Fn(program, app, "scan", args=["ref"], returns="int")
    table = 0
    acc = fn.local()
    state = fn.local()
    idx = fn.local()
    obj = fn.local()
    fn.getstatic(app, "rngstate").istore(state)
    fn.iconst(0).istore(acc)
    with fn.loop(n):
        lcg_step(fn, state, n)
        fn.istore(idx)
        if churn_mask >= 0:
            # if ((state >> 16) & mask) == 0: table[idx] = make(idx)
            # (decided from the LCG's high bits, independent of idx)
            fn.iload(state).iconst(16).emit("ishr")
            fn.iconst(churn_mask).emit("iand")
            skip = fn.fresh_label("nochurn")
            fn.emit("ifz", "ne", skip)
            fn.rload(table).iload(idx)
            fn.iload(idx).call(make)
            fn.emit("arrstore", "ref")
            fn.label(skip)
        # obj = table[idx]
        fn.rload(table).iload(idx).emit("arrload", "ref").rstore(obj)
        # acc += obj.key
        fn.iload(acc)
        fn.rload(obj).getfield(parent, key_field)
        fn.emit("iadd").istore(acc)
        # acc += obj.data[idx % obj.data.length]  <- the attributed miss
        fn.iload(acc)
        fn.rload(obj).getfield(parent, data_field)
        fn.emit("dup").emit("arraylength")
        fn.iload(idx).emit("swap").emit("irem")
        fn.emit("arrload", payload_kind)
        fn.emit("iadd").istore(acc)
    fn.iload(state).putstatic(app, "rngstate")
    fn.iload(acc).iret()
    return fn.finish()


def add_pair_setup(program: Program, app: ClassInfo, make: MethodInfo,
                   n: int) -> MethodInfo:
    """``static ref setup()``: build and populate the parent table."""
    fn = Fn(program, app, "setup", returns="ref")
    table = fn.local()
    fn.iconst(n).emit("newarray", "ref").rstore(table)
    with fn.loop(n) as i:
        fn.rload(table).iload(i)
        fn.iload(i).call(make)
        fn.emit("arrstore", "ref")
    fn.rload(table).rret()
    return fn.finish()


# ---------------------------------------------------------------------------
# The streaming kernel (compress, mpegaudio)
# ---------------------------------------------------------------------------

def add_stream_kernel(program: Program, app: ClassInfo, *, buffer_len: int,
                      name: str = "process") -> MethodInfo:
    """``static int process(ref src, ref dst)``: sequential transform.

    The buffers are large enough for the LOS; accesses are sequential so
    the stream prefetcher absorbs most misses — and, critically, there
    are no reference fields anywhere, so co-allocation finds nothing
    (Figure 3's zero bars for compress and mpegaudio).
    """
    fn = Fn(program, app, name, args=["ref", "ref"], returns="int")
    src, dst = 0, 1
    acc = fn.local()
    fn.iconst(0).istore(acc)
    with fn.loop(buffer_len) as i:
        # dst[i] = (src[i] * 31 + acc) & 0xffff; acc ^= dst[i]
        fn.rload(dst).iload(i)
        fn.rload(src).iload(i).emit("arrload", "int")
        fn.iconst(31).emit("imul").iload(acc).emit("iadd")
        fn.iconst(0xFFFF).emit("iand")
        fn.emit("arrstore", "int")
        fn.iload(acc)
        fn.rload(dst).iload(i).emit("arrload", "int")
        fn.emit("ixor").istore(acc)
    fn.iload(acc).iret()
    return fn.finish()


# ---------------------------------------------------------------------------
# The young-object churn kernel (javac, jack, jess, mtrt, ...)
# ---------------------------------------------------------------------------

def define_young_class(program: Program, name: str,
                       ref_fields: int = 1, int_fields: int = 3) -> ClassInfo:
    klass = program.define_class(name)
    for i in range(ref_fields):
        klass.add_field(f"r{i}", "ref")
    for i in range(int_fields):
        klass.add_field(f"v{i}", "int")
    klass.seal()
    return klass


def add_young_churn_kernel(program: Program, app: ClassInfo,
                           klass: ClassInfo, *, burst: int,
                           keep_every: int,
                           name: str = "parse") -> MethodInfo:
    """``static int parse(ref keep)``: allocate a burst of small objects,
    linking each to the previous; only every ``keep_every``-th survives
    (stored into the keep array), the rest die young.

    This is the JVM98 shape the paper observes: "These programs have
    relatively small working sets and/or many young objects that do not
    benefit from better spatial locality in the mature space."
    """
    fn = Fn(program, app, name, args=["ref"], returns="int")
    keep = 0
    prev = fn.local()
    cur = fn.local()
    acc = fn.local()
    fn.emit("aconst_null").rstore(prev)
    fn.iconst(0).istore(acc)
    with fn.loop(burst) as i:
        fn.new(klass).rstore(cur)
        fn.rload(cur).rload(prev).putfield(klass, "r0")
        fn.rload(cur).iload(i).putfield(klass, "v0")
        # acc += cur.r0 != null ? cur.r0.v0 : 0
        nonull = fn.fresh_label("nn")
        done = fn.fresh_label("dn")
        fn.rload(cur).getfield(klass, "r0")
        fn.emit("ifnonnull", nonull)
        fn.emit("goto", done)
        fn.label(nonull)
        fn.iload(acc)
        fn.rload(cur).getfield(klass, "r0").getfield(klass, "v0")
        fn.emit("iadd").istore(acc)
        fn.label(done)
        # keep[i / keep_every] = cur  (only every keep_every-th slot wins)
        fn.iload(i).iconst(keep_every).emit("irem")
        survives = fn.fresh_label("sv")
        fn.emit("ifz", "ne", survives)
        fn.rload(keep)
        fn.iload(i).iconst(keep_every).emit("idiv")
        fn.rload(cur)
        fn.emit("arrstore", "ref")
        fn.label(survives)
        fn.rload(cur).rstore(prev)
    fn.iload(acc).iret()
    return fn.finish()


# ---------------------------------------------------------------------------
# Code-corpus filler (Table 2)
# ---------------------------------------------------------------------------

def add_filler_methods(program: Program, app: ClassInfo, count: int,
                       body_loops: int = 3) -> List[MethodInfo]:
    """Generate ``count`` cold methods, each invoked once by the caller.

    Real benchmarks compile hundreds to thousands of methods that run a
    handful of times; the per-benchmark ``count`` reproduces Table 2's
    machine-code and map-size spread (jython's corpus dwarfs db's).
    Each body contains calls (GC points), like real library code — the
    GC-map density of the corpus matters for Table 2.
    """
    mixer_name = "mix"
    if mixer_name in app.methods:
        mixer = app.methods[mixer_name]
    else:
        mfn = Fn(program, app, mixer_name, args=["int", "int"],
                 returns="int")
        mfn.iload(0).iload(1).emit("ixor")
        mfn.iconst(0x9E3779B9 & 0x7FFFFFFF).emit("iadd").iret()
        mixer = mfn.finish()
    methods = []
    for k in range(count):
        fn = Fn(program, app, f"cold{k}", args=["int"], returns="int")
        x = 0
        acc = fn.local()
        fn.iload(x).istore(acc)
        with fn.loop(body_loops) as i:
            fn.iload(acc).iload(i).call(mixer)
            fn.iconst(1 + (k % 7)).emit("ishr")
            fn.istore(acc)
        fn.iload(acc).iret()
        methods.append(fn.finish())
    return methods


def call_fillers(fn: Fn, app: ClassInfo, fillers: List[MethodInfo]) -> None:
    """Invoke each filler once (forcing baseline compilation)."""
    for k, m in enumerate(fillers):
        fn.iconst(k).call(m).emit("pop")
