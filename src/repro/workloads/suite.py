"""The guest programs: Table 1, one row per program, and the probes.

Programs from SPEC JVM98 (largest workload, repeated), the DaCapo suite
(version 10-2006 MR-2, minus chart/eclipse/xalan, which the paper found
"not compatible with version 2.4.2 of Jikes RVM"), and pseudojbb (SPEC
JBB2000 with a fixed number of transactions).

Each program is an :class:`Analog`: a few kernel rows (:class:`Pair`,
:class:`Young`, :class:`Stream`; each emits its own methods) plus the
round count, the cold-method corpus size, the minimum heap and the LCG
seed.  The published per-benchmark *shape* — who has co-allocation
candidates, how large the mature working set is, how much young churn
there is (DESIGN.md §2) — is what a row fixes; sizes are scaled to the
simulator.  :func:`build_analog` composes any row by one set of rules:

* each kernel defines its classes and methods in row order, then the
  cold fillers follow;
* ``main`` takes one local per kernel (two buffers for a stream),
  allocates the stream buffers, sets ``rngstate`` when the row has a
  seed, calls the fillers, and then in kernel order builds each pair
  table and each young keep array;
* each round calls the kernels in row order and folds each result into
  ``App.checksum`` — except a young kernel's when it shares the row,
  which is popped;
* the plan opt-compiles the kernel methods in row order (a pair's
  ``scan`` then ``make``), the hot fields are the pair parents'
  payload fields, and a row of streams alone has no co-allocation
  candidates.

:data:`PROBES` holds the programs outside Table 1 (``phased``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

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


class Emitted(NamedTuple):
    """What a kernel row's ``define`` leaves for the composer."""

    run: MethodInfo                     # the method each round calls
    plan: Tuple[MethodInfo, ...]        # opt-compiled, in this order
    setup: Optional[MethodInfo] = None  # a pair's table builder
    hot_field: Optional[str] = None     # a pair's ``Parent::field``


@dataclass(frozen=True)
class Pair:
    """A table of ``n`` parents, each holding a payload array child,
    probed by shuffled lookups: the two-miss parent -> child pattern
    co-allocation halves, attributed to the parent's payload field.

    Churn (``churn_mask`` >= 0) re-makes entries, so newly promoted
    pairs follow the current placement policy.  ``payload_span`` > 0
    varies the child length over ``payload_len + [0, payload_span)``:
    combined cells then land in coarse size classes, the small-heap
    fragmentation of section 6.3.  ``parent="String"`` is the prelude
    ``String`` (db's pair), with fields ``value`` and ``count``.
    """

    parent: str
    n: int
    churn_mask: int
    payload_len: int
    payload_span: int = 0
    pad_ints: int = 0
    payload_kind: str = "char"

    def define(self, p: Program, app: ClassInfo) -> Emitted:
        """``Parent.make(seed)``, ``App.setup()`` and ``App.scan(table)``."""
        string = self.parent == "String"
        data, key = ("value", "count") if string else ("data", "key")
        if string:
            parent = p.string_class
        else:
            parent = p.define_class(self.parent)
            parent.add_field(data, "ref")
            parent.add_field(key, "int")
            for i in range(self.pad_ints):
                parent.add_field(f"pad{i}", "int")
            parent.seal()
        kind, n = self.payload_kind, self.n

        # static Parent make(int seed): child array + parent object
        fn = Fn(p, parent, "make", args=["int"], returns="ref")
        seed, arr, obj, length = 0, fn.local(), fn.local(), fn.local()
        if self.payload_span > 0:
            # length = payload_len + (seed * 31 + 7) % payload_span
            fn.iload(seed).iconst(31).emit("imul").iconst(7).emit("iadd")
            fn.iconst(self.payload_span).emit("irem")
            fn.iconst(self.payload_len).emit("iadd").istore(length)
        else:
            fn.iconst(self.payload_len).istore(length)
        fn.iload(length).emit("newarray", kind).rstore(arr)
        with fn.loop(local_ref(length)) as i:
            fn.rload(arr).iload(i)
            fn.iload(seed).iload(i).emit("iadd").iconst(0xFF).emit("iand")
            fn.emit("arrstore", kind)
        fn.new(parent).rstore(obj)
        fn.rload(obj).rload(arr).putfield(parent, data)
        fn.rload(obj).iload(seed).putfield(parent, key)
        fn.rload(obj).rret()
        make = fn.finish()

        # static ref setup(): build and populate the parent table
        fn = Fn(p, app, "setup", returns="ref")
        table = fn.local()
        fn.iconst(n).emit("newarray", "ref").rstore(table)
        with fn.loop(n) as i:
            fn.rload(table).iload(i)
            fn.iload(i).call(make)
            fn.emit("arrstore", "ref")
        fn.rload(table).rret()
        setup = fn.finish()

        # static int scan(ref table): one pass of n shuffled lookups
        fn = Fn(p, app, "scan", args=["ref"], returns="int")
        table, acc, state, idx, obj = (0, fn.local(), fn.local(),
                                       fn.local(), fn.local())
        fn.getstatic(app, "rngstate").istore(state)
        fn.iconst(0).istore(acc)
        with fn.loop(n):
            lcg_step(fn, state, n)
            fn.istore(idx)
            if self.churn_mask >= 0:
                # if ((state >> 16) & mask) == 0: table[idx] = make(idx)
                # (decided from the LCG's high bits, independent of idx)
                fn.iload(state).iconst(16).emit("ishr")
                fn.iconst(self.churn_mask).emit("iand")
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
            fn.rload(obj).getfield(parent, key)
            fn.emit("iadd").istore(acc)
            # acc += obj.data[idx % obj.data.length]  <- the attributed miss
            fn.iload(acc)
            fn.rload(obj).getfield(parent, data)
            fn.emit("dup").emit("arraylength")
            fn.iload(idx).emit("swap").emit("irem")
            fn.emit("arrload", kind)
            fn.emit("iadd").istore(acc)
        fn.iload(state).putstatic(app, "rngstate")
        fn.iload(acc).iret()
        scan = fn.finish()
        return Emitted(scan, (scan, make), setup, f"{self.parent}::{data}")


@dataclass(frozen=True)
class Young:
    """Bursts of ``burst`` short-lived ``klass`` objects, each linked to
    the previous; every ``keep_every``-th survives into a
    ``keep_len``-slot array.  The JVM98 shape: "many young objects that
    do not benefit from better spatial locality in the mature space."
    """

    klass: str
    burst: int
    keep_every: int
    keep_len: int
    name: str = "parse"
    ref_fields: int = 1
    int_fields: int = 3

    def __post_init__(self):
        # burst i survives into keep[i / keep_every]
        need = (self.burst - 1) // self.keep_every + 1
        if self.keep_len < need:
            raise ValueError(f"Young {self.klass!r}: keep_len "
                             f"{self.keep_len} < {need} survivors")

    def define(self, p: Program, app: ClassInfo) -> Emitted:
        """``class klass { ref r0..; int v0.. }`` and ``App.name(keep)``."""
        klass = p.define_class(self.klass)
        for i in range(self.ref_fields):
            klass.add_field(f"r{i}", "ref")
        for i in range(self.int_fields):
            klass.add_field(f"v{i}", "int")
        klass.seal()
        fn = Fn(p, app, self.name, args=["ref"], returns="int")
        keep, prev, cur, acc = 0, fn.local(), fn.local(), fn.local()
        fn.emit("aconst_null").rstore(prev)
        fn.iconst(0).istore(acc)
        with fn.loop(self.burst) as i:
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
            fn.iload(i).iconst(self.keep_every).emit("irem")
            survives = fn.fresh_label("sv")
            fn.emit("ifz", "ne", survives)
            fn.rload(keep)
            fn.iload(i).iconst(self.keep_every).emit("idiv")
            fn.rload(cur)
            fn.emit("arrstore", "ref")
            fn.label(survives)
            fn.rload(cur).rstore(prev)
        fn.iload(acc).iret()
        run = fn.finish()
        return Emitted(run, (run,))


@dataclass(frozen=True)
class Stream:
    """Sequential passes over two ``buffer_len`` int arrays
    (compress/mpegaudio): the prefetcher absorbs most misses, and with
    no reference fields co-allocation finds nothing (Figure 3).
    """

    buffer_len: int
    name: str = "process"

    def define(self, p: Program, app: ClassInfo) -> Emitted:
        """``static int name(ref src, ref dst)``."""
        fn = Fn(p, app, self.name, args=["ref", "ref"], returns="int")
        src, dst, acc = 0, 1, fn.local()
        fn.iconst(0).istore(acc)
        with fn.loop(self.buffer_len) as i:
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
        run = fn.finish()
        return Emitted(run, (run,))


@dataclass(frozen=True)
class Analog:
    """One guest program: kernels run ``rounds`` times, in row order."""

    name: str
    kernels: Tuple[Union[Pair, Young, Stream], ...]
    rounds: int
    fillers: int
    min_heap_kb: int
    description: str
    seed: Optional[int] = None

    def __post_init__(self):
        # Kernels name their App methods: a Pair's setup and scan, a
        # Young's or Stream's ``name``.
        names = [m for k in self.kernels for m in
                 (("setup", "scan") if isinstance(k, Pair) else (k.name,))]
        twice = [m for m in names if names.count(m) > 1]
        if twice:
            raise ValueError(
                f"Analog {self.name!r} defines App.{twice[0]} twice: a "
                f"row holds at most one Pair, and one kernel per name")


def make_app_class(program: Program) -> ClassInfo:
    """The benchmark's driver class with a checksum static."""
    app = program.define_class("App")
    app.add_static("checksum", "int")
    app.add_static("rngstate", "int")
    app.seal()
    return app


def add_filler_methods(program: Program, app: ClassInfo, count: int,
                       body_loops: int = 3) -> List[MethodInfo]:
    """``App.mix`` and ``count`` cold methods ``cold0..``, each meant to
    be invoked once.

    Real benchmarks compile hundreds to thousands of methods that run a
    handful of times; the per-benchmark ``count`` reproduces Table 2's
    machine-code and map-size spread (jython's corpus dwarfs db's).
    Each body contains calls (GC points), like real library code — the
    GC-map density of the corpus matters for Table 2.
    """
    fn = Fn(program, app, "mix", args=["int", "int"], returns="int")
    fn.iload(0).iload(1).emit("ixor")
    fn.iconst(0x9E3779B9 & 0x7FFFFFFF).emit("iadd").iret()
    mixer = fn.finish()
    methods = []
    for k in range(count):
        fn = Fn(program, app, f"cold{k}", args=["int"], returns="int")
        x, acc = 0, fn.local()
        fn.iload(x).istore(acc)
        with fn.loop(body_loops) as i:
            fn.iload(acc).iload(i).call(mixer)
            fn.iconst(1 + (k % 7)).emit("ishr")
            fn.istore(acc)
        fn.iload(acc).iret()
        methods.append(fn.finish())
    return methods


def call_fillers(fn: Fn, fillers: List[MethodInfo]) -> None:
    """Invoke each filler once (forcing baseline compilation)."""
    for k, m in enumerate(fillers):
        fn.iconst(k).call(m).emit("pop")


def _fold_checksum(fn: Fn, app: ClassInfo) -> None:
    """``App.checksum += <int on the stack>``."""
    fn.getstatic(app, "checksum").emit("iadd")
    fn.putstatic(app, "checksum")


def _plan(emitted: List[Emitted]) -> CompilationPlan:
    return CompilationPlan([m.qualified_name for e in emitted
                            for m in e.plan])


def build_analog(row: Analog) -> Workload:
    """Compose ``row`` into a fresh program (rules in the module doc)."""
    p = Program(row.name)
    app = make_app_class(p)
    emitted = [kernel.define(p, app) for kernel in row.kernels]
    fillers = add_filler_methods(p, app, row.fillers)

    fn = Fn(p, app, "main")
    args = [[fn.local() for _ in range(2 if isinstance(k, Stream) else 1)]
            for k in row.kernels]
    for kernel, slots in zip(row.kernels, args):
        if isinstance(kernel, Stream):
            for slot in slots:
                fn.iconst(kernel.buffer_len).emit("newarray", "int")
                fn.rstore(slot)
    if row.seed is not None:
        fn.iconst(row.seed).putstatic(app, "rngstate")
    call_fillers(fn, fillers)
    for kernel, kernel_out, slots in zip(row.kernels, emitted, args):
        if kernel_out.setup is not None:
            fn.call(kernel_out.setup).rstore(slots[0])
        elif isinstance(kernel, Young):
            fn.iconst(kernel.keep_len).emit("newarray", "ref")
            fn.rstore(slots[0])
    with fn.loop(row.rounds):
        for kernel, kernel_out, slots in zip(row.kernels, emitted, args):
            for slot in slots:
                fn.rload(slot)
            fn.call(kernel_out.run)
            if isinstance(kernel, Young) and len(row.kernels) > 1:
                fn.emit("pop")
            else:
                _fold_checksum(fn, app)
    fn.ret()
    p.set_main(fn.finish())

    return Workload(
        name=row.name, program=p, plan=_plan(emitted),
        min_heap_bytes=row.min_heap_kb * 1024,
        description=row.description,
        hot_fields=[e.hot_field for e in emitted if e.hot_field],
        no_candidates=all(isinstance(k, Stream) for k in row.kernels),
    )


#: Table 1 order.
BENCHMARKS: Dict[str, Analog] = {row.name: row for row in (
    # -- SPEC JVM98 --------------------------------------------------------
    # _201_compress: a handful of large arrays (straight into the LOS),
    # no reference fields, hence *zero* co-allocation candidates
    # (Figure 3).  96 KB int buffers: the pair exceeds the L2.
    Analog("compress", (Stream(96 * 1024 // 4),), rounds=16, fillers=10,
           min_heap_kb=320,
           description="sequential compression over LOS-resident buffers"),
    # _202_jess: a persistent rule network with moderate churn plus
    # bursts of short-lived facts.  Noticeable L1 miss reduction with
    # co-allocation, small execution-time effect (Figures 4/5).
    Analog("jess", (Pair("ReteNode", n=650, churn_mask=3, payload_len=12,
                         pad_ints=2),
                    Young("Fact", burst=220, keep_every=64, keep_len=8,
                          name="assertFacts")),
           rounds=40, fillers=18, min_heap_kb=320, seed=999,
           description="rule network matching plus short-lived fact "
                       "bursts"),
    # _209_db: shuffled String-index lookups dereference String::value —
    # the miss pattern of Figures 4-7.  Steady churn turns most of the
    # mature population over, so newly promoted String/char[] pairs
    # follow the co-allocation policy: the gradual "bend" of Figure 7a.
    Analog("db", (Pair("String", n=2000, churn_mask=3, payload_len=16,
                       payload_span=24),),
           rounds=52, fillers=6, min_heap_kb=512, seed=12345,
           description="shuffled String-index lookups with steady churn"),
    # _213_javac: bursts of short-lived AST nodes over a small mature
    # set; the net effect is the monitoring overhead — the paper's worst
    # case at large heaps (-2.1 %, section 6.3).
    Analog("javac", (Young("AstNode", burst=650, keep_every=96, keep_len=7,
                           ref_fields=2, int_fields=2),),
           rounds=75, fillers=50, min_heap_kb=320,
           description="AST-node bursts, almost nothing survives the "
                       "nursery"),
    # _222_mpegaudio: 6 KB tables stay in L1; any variation under
    # monitoring "comes from the event monitoring and processing".
    Analog("mpegaudio", (Stream(6 * 1024 // 4, name="decode"),), rounds=130,
           fillers=65, min_heap_kb=320,
           description="decode loops over cache-resident tables"),
    # _227_mtrt: a modest scene graph (mostly L2-resident) plus per-ray
    # temporaries; little co-allocation benefit.
    Analog("mtrt", (Pair("Shape", n=500, churn_mask=31, payload_len=10,
                         pad_ints=4),
                    Young("Vec", burst=170, keep_every=128, keep_len=4,
                          name="shade")),
           rounds=55, fillers=42, min_heap_kb=320, seed=4242,
           description="scene-graph traversal plus per-ray temporaries"),
    # _228_jack: young token bursts over a tiny persistent grammar.
    Analog("jack", (Young("Token", burst=480, keep_every=80, keep_len=7,
                          name="tokenize", int_fields=4),
                    Pair("Rule", n=240, churn_mask=15, payload_len=8)),
           rounds=65, fillers=36, min_heap_kb=320, seed=777,
           description="token bursts over a small persistent grammar"),
    # pseudojbb: "the majority of those objects are relatively large
    # (long[] arrays with a size of >128 bytes)" (section 6.3).  Each
    # Order's 448-byte history spans several lines, so co-allocation
    # fires a lot (Figure 3) but the L1 reduction stays small.
    Analog("pseudojbb", (Pair("Order", n=650, churn_mask=1, payload_len=56,
                              pad_ints=6, payload_kind="long"),),
           rounds=26, fillers=120, min_heap_kb=704, seed=20060101,
           description="fixed-transaction JBB: orders with >128B long[] "
                       "history"),
    # -- DaCapo ------------------------------------------------------------
    # antlr, fop: small heaps, few and interval-sensitive pairs.
    Analog("antlr", (Pair("GrammarNode", n=260, churn_mask=15,
                          payload_len=10),
                     Young("ParseTmp", burst=520, keep_every=80,
                           keep_len=7)),
           rounds=34, fillers=32, min_heap_kb=320, seed=11,
           description="grammar-graph walks, few and interval-sensitive "
                       "pairs"),
    # bloat: an IR graph through a hot reference field — one of the
    # paper's three speedup programs.
    Analog("bloat", (Pair("IrNode", n=1050, churn_mask=3, payload_len=14,
                          payload_span=12, pad_ints=1),),
           rounds=30, fillers=70, min_heap_kb=320, seed=23,
           description="IR-graph rewriting with hot use-def payloads"),
    Analog("fop", (Pair("LayoutBox", n=220, churn_mask=7, payload_len=8),
                   Young("Span", burst=760, keep_every=60, keep_len=13)),
           rounds=30, fillers=4, min_heap_kb=320, seed=31,
           description="one-shot layout-tree formatting, tiny mature set"),
    # hsqldb, luindex, pmd: many co-allocated pairs, insensitive to the
    # interval; noticeable L1 reductions for pmd (Figure 4).
    Analog("hsqldb", (Pair("Row", n=1000, churn_mask=3, payload_len=18,
                           payload_span=16, pad_ints=1),),
           rounds=48, fillers=100, min_heap_kb=320, seed=41,
           description="row/value-array lookups under transaction churn"),
    # jython: by far the largest compiled-code corpus (Table 2).
    Analog("jython", (Pair("DictEntry", n=900, churn_mask=7,
                           payload_len=12),
                      Young("PyFrame", burst=240, keep_every=96,
                            keep_len=3)),
           rounds=30, fillers=250, min_heap_kb=320, seed=53,
           description="interpreter dict/frame churn; huge method corpus"),
    Analog("luindex", (Pair("Posting", n=1000, churn_mask=3, payload_len=16,
                            payload_span=12),),
           rounds=48, fillers=110, min_heap_kb=320, seed=61,
           description="index construction with growing postings"),
    # lusearch: read-mostly probes, less churn.
    Analog("lusearch", (Pair("Hit", n=1300, churn_mask=15, payload_len=14),),
           rounds=34, fillers=85, min_heap_kb=640, seed=71,
           description="read-mostly postings probes"),
    Analog("pmd", (Pair("AstNode", n=900, churn_mask=3, payload_len=12,
                        payload_span=10),),
           rounds=50, fillers=55, min_heap_kb=320, seed=83,
           description="AST rule matching with node churn"),
)}

JVM98_NAMES = ("compress", "jess", "db", "javac", "mpegaudio", "mtrt", "jack")
DACAPO_NAMES = ("antlr", "bloat", "fop", "hsqldb", "jython", "luindex",
                "lusearch", "pmd")

#: Programs that should show zero co-allocated objects (Figure 3).
NO_CANDIDATE_NAMES = ("compress", "mpegaudio")


def build_phased() -> Workload:
    """Alternating stream / pointer-chase segments: a phase-shift probe
    for the run-health layer.

    Four unrolled segments (stream: few attributed samples, no churn;
    chase: high L1D miss attribution, steady allocation), each spanning
    many measurement periods, so the phase segmentation commits a
    boundary at each transition under the default hysteresis.
    """
    buf = 48 * 1024 // 4     # 48 KB int buffers: misses prefetch away
    p = Program("phased")
    app = make_app_class(p)
    # shuffled lookups into 1400 records miss in L1
    chase = Pair("Rec", n=1400, churn_mask=3, payload_len=16,
                 payload_span=16, pad_ints=2).define(p, app)
    stream = Stream(buf).define(p, app)
    fillers = add_filler_methods(p, app, 8)

    fn = Fn(p, app, "main")
    src, dst, table = fn.local(), fn.local(), fn.local()
    fn.iconst(31337).putstatic(app, "rngstate")
    call_fillers(fn, fillers)
    fn.iconst(buf).emit("newarray", "int").rstore(src)
    fn.iconst(buf).emit("newarray", "int").rstore(dst)
    fn.call(chase.setup).rstore(table)
    for segment in range(4):
        streaming = segment % 2 == 0
        with fn.loop(9 if streaming else 12):
            if streaming:
                fn.rload(src).rload(dst).call(stream.run)
            else:
                fn.rload(table).call(chase.run)
            _fold_checksum(fn, app)
    fn.ret()
    p.set_main(fn.finish())

    return Workload(
        name="phased", program=p, plan=_plan([stream, chase]),
        min_heap_bytes=512 * 1024,
        description="alternating stream / pointer-chase segments "
                    "(health-observatory phase-shift probe)",
        hot_fields=[chase.hot_field],
    )


#: Probes for the observability layers, outside Table 1.
PROBES: Dict[str, Callable[[], Workload]] = {"phased": build_phased}


def all_names() -> List[str]:
    return list(BENCHMARKS)


def extended_names() -> List[str]:
    """Table 1 plus the probes (CLI choices for tools that accept any
    buildable program, like ``repro doctor``)."""
    return list(BENCHMARKS) + list(PROBES)


def build(name: str) -> Workload:
    """Build one program (a fresh Program every call): a Table 1 row, or
    else a probe from :data:`PROBES`."""
    row = BENCHMARKS.get(name)
    if row is not None:
        return build_analog(row)
    probe = PROBES.get(name)
    if probe is None:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {', '.join(BENCHMARKS)}"
        )
    return probe()


def build_all() -> List[Workload]:
    return [build(name) for name in BENCHMARKS]
