"""The benchmark suite (Table 1), one row per program.

Programs from SPEC JVM98 (largest workload, repeated), the DaCapo suite
(version 10-2006 MR-2, minus chart/eclipse/xalan, which the paper found
"not compatible with version 2.4.2 of Jikes RVM"), and pseudojbb (SPEC
JBB2000 with a fixed number of transactions).

Each program is an :class:`Analog`: a few kernel rows from
:mod:`repro.workloads.patterns` (:class:`Pair`, :class:`Young`,
:class:`Stream`) plus the round count, the cold-method corpus size, the
minimum heap and the LCG seed.  The published per-benchmark *shape* —
who has co-allocation candidates, how large the mature working set is,
how much young churn there is (DESIGN.md §2) — is what a row fixes;
sizes are scaled to the simulator.  :func:`build_analog` composes any
row by one set of rules:

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.jit.aos import CompilationPlan
from repro.vm.program import Program
from repro.workloads.patterns import (
    Workload,
    add_filler_methods,
    add_pair_kernel,
    add_pair_setup,
    add_stream_kernel,
    add_young_churn_kernel,
    call_fillers,
    define_pair_classes,
    define_pair_factory,
    define_young_class,
    make_app_class,
)
from repro.workloads.synth import Fn


@dataclass(frozen=True)
class Pair:
    """A table of ``n`` parents, each holding a payload array child,
    probed by shuffled lookups (:func:`patterns.add_pair_kernel`).

    ``parent="String"`` is the prelude ``String`` (db's String/char[]
    pair), whose payload and key fields are ``value`` and ``count``.
    """

    parent: str
    n: int
    churn_mask: int
    payload_len: int
    payload_span: int = 0
    pad_ints: int = 0
    payload_kind: str = "char"


@dataclass(frozen=True)
class Young:
    """Bursts of short-lived ``klass`` objects; every ``keep_every``-th
    survives into a ``keep_len``-slot array
    (:func:`patterns.add_young_churn_kernel`)."""

    klass: str
    burst: int
    keep_every: int
    keep_len: int
    name: str = "parse"
    ref_fields: int = 1
    int_fields: int = 3


@dataclass(frozen=True)
class Stream:
    """Sequential passes over two ``buffer_len`` int arrays
    (:func:`patterns.add_stream_kernel`)."""

    buffer_len: int
    name: str = "process"


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


def build_analog(row: Analog) -> Workload:
    """Compose ``row`` into a fresh program (rules in the module doc)."""
    p = Program(row.name)
    app = make_app_class(p)
    runs, plan, setups, hot_fields = [], [], [], []
    for kernel in row.kernels:
        setup = None
        if isinstance(kernel, Pair):
            if kernel.parent == "String":
                parent, data, key = p.string_class, "value", "count"
            else:
                parent = define_pair_classes(p, kernel.parent, kernel.pad_ints)
                data, key = "data", "key"
            make = define_pair_factory(
                p, parent, kernel.payload_len, kernel.payload_kind,
                data_field=data, key_field=key,
                payload_span=kernel.payload_span)
            setup = add_pair_setup(p, app, make, kernel.n)
            run = add_pair_kernel(
                p, app, parent, make, n=kernel.n,
                churn_mask=kernel.churn_mask, payload_len=kernel.payload_len,
                payload_kind=kernel.payload_kind, data_field=data,
                key_field=key)
            plan += [run, make]
            hot_fields.append(f"{kernel.parent}::{data}")
        elif isinstance(kernel, Young):
            klass = define_young_class(p, kernel.klass, kernel.ref_fields,
                                       kernel.int_fields)
            run = add_young_churn_kernel(
                p, app, klass, burst=kernel.burst,
                keep_every=kernel.keep_every, name=kernel.name)
            plan.append(run)
        else:
            run = add_stream_kernel(p, app, buffer_len=kernel.buffer_len,
                                    name=kernel.name)
            plan.append(run)
        runs.append(run)
        setups.append(setup)
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
    call_fillers(fn, app, fillers)
    for kernel, setup, slots in zip(row.kernels, setups, args):
        if setup is not None:
            fn.call(setup).rstore(slots[0])
        elif isinstance(kernel, Young):
            fn.iconst(kernel.keep_len).emit("newarray", "ref")
            fn.rstore(slots[0])
    with fn.loop(row.rounds):
        for kernel, run, slots in zip(row.kernels, runs, args):
            for slot in slots:
                fn.rload(slot)
            fn.call(run)
            if isinstance(kernel, Young) and len(row.kernels) > 1:
                fn.emit("pop")
            else:
                fn.getstatic(app, "checksum").emit("iadd")
                fn.putstatic(app, "checksum")
    fn.ret()
    p.set_main(fn.finish())

    return Workload(
        name=row.name, program=p,
        plan=CompilationPlan([m.qualified_name for m in plan]),
        min_heap_bytes=row.min_heap_kb * 1024,
        description=row.description, hot_fields=hot_fields,
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


def all_names() -> List[str]:
    return list(BENCHMARKS)


def extended_names() -> List[str]:
    """Table 1 plus the adversarial probes (CLI choices for tools that
    accept any buildable program, like ``repro doctor``)."""
    from repro.workloads.adversarial import ADVERSARIAL

    return list(BENCHMARKS) + [n for n in ADVERSARIAL
                               if n not in BENCHMARKS]


def build(name: str) -> Workload:
    """Build one benchmark program (a fresh Program every call).

    Names outside Table 1 fall back to the adversarial registry
    (:mod:`repro.workloads.adversarial`) — probe programs for the
    observability layers that must not inflate the paper's suite.
    """
    row = BENCHMARKS.get(name)
    if row is not None:
        return build_analog(row)
    from repro.workloads.adversarial import ADVERSARIAL

    builder = ADVERSARIAL.get(name)
    if builder is None:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {', '.join(BENCHMARKS)}"
        )
    return builder()


def build_all() -> List[Workload]:
    return [build(name) for name in BENCHMARKS]
