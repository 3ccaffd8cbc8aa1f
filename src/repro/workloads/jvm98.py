"""SPEC JVM98 benchmark analogs (Table 1, upper half).

Each builder synthesizes a guest program whose allocation and access
profile matches the published characterization of its namesake (see
DESIGN.md §2 and the per-benchmark notes below).  Sizes are scaled to
the simulator (DESIGN.md "Scaling"); the paper-relevant *shape* is what
each program preserves.
"""

from __future__ import annotations

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


def _finish_main(fn: Fn, app) -> None:
    fn.ret()
    method = fn.finish()
    fn.program.set_main(method)


def build_db() -> Workload:
    """_209_db: an in-memory database of String records.

    Shuffled index lookups dereference ``String::value`` — the miss
    pattern of Figures 4/5/6/7.  Steady churn replaces entries so that
    newly promoted String/char[] pairs follow the co-allocation policy;
    over the run most of the mature population turns over, giving the
    paper's gradual "bend" (Figure 7a).
    """
    N, ROUNDS, PAYLOAD = 2000, 52, 16
    p = Program("db")
    app = make_app_class(p)
    string = p.string_class
    make = define_pair_factory(p, app, string, PAYLOAD,
                               data_field="value", key_field="count",
                               payload_span=24)
    setup = add_pair_setup(p, app, make, N)
    scan = add_pair_kernel(p, app, string, make, n=N, churn_mask=3,
                           payload_len=PAYLOAD, data_field="value",
                           key_field="count")
    fillers = add_filler_methods(p, app, 6)

    fn = Fn(p, app, "main")
    table = fn.local()
    fn.iconst(12345).putstatic(app, "rngstate")
    call_fillers(fn, app, fillers)
    fn.call(setup).rstore(table)
    with fn.loop(ROUNDS):
        fn.rload(table).call(scan)
        fn.getstatic(app, "checksum").emit("iadd").putstatic(app, "checksum")
    _finish_main(fn, app)

    return Workload(
        name="db", program=p,
        plan=CompilationPlan([scan.qualified_name, make.qualified_name]),
        min_heap_bytes=512 * 1024,
        description="shuffled String-index lookups with steady churn",
        hot_fields=["String::value"],
    )


def _stream_benchmark(name: str, *, buffer_len: int, rounds: int,
                      kernel: str, fillers: int,
                      description: str) -> Workload:
    """Two int buffers streamed through one kernel, ``rounds`` times:
    the shape compress and mpegaudio share."""
    p = Program(name)
    app = make_app_class(p)
    stream = add_stream_kernel(p, app, buffer_len=buffer_len, name=kernel)
    filler_methods = add_filler_methods(p, app, fillers)

    fn = Fn(p, app, "main")
    src = fn.local()
    dst = fn.local()
    fn.iconst(buffer_len).emit("newarray", "int").rstore(src)
    fn.iconst(buffer_len).emit("newarray", "int").rstore(dst)
    call_fillers(fn, app, filler_methods)
    with fn.loop(rounds):
        fn.rload(src).rload(dst).call(stream)
        fn.getstatic(app, "checksum").emit("iadd").putstatic(app, "checksum")
    _finish_main(fn, app)

    return Workload(
        name=name, program=p,
        plan=CompilationPlan([stream.qualified_name]),
        min_heap_bytes=320 * 1024,
        description=description,
        no_candidates=True,
    )


def build_compress() -> Workload:
    """_201_compress: block compression over large byte/int buffers.

    Only a handful of large arrays are allocated (straight into the
    LOS); there are no reference fields, hence *zero* co-allocation
    candidates (Figure 3).
    """
    return _stream_benchmark(
        "compress",
        # 96 KB int buffers: the pair exceeds the L2.
        buffer_len=96 * 1024 // 4, rounds=16, kernel="process", fillers=10,
        description="sequential compression over LOS-resident buffers")


def build_mpegaudio() -> Workload:
    """_222_mpegaudio: decode loops over constant tables.

    Small working set, nearly no allocation; any execution-time
    variation under monitoring comes from the sampling machinery itself
    ("mpegaudio shows varying numbers ... from the event monitoring and
    processing", section 6.3).
    """
    return _stream_benchmark(
        "mpegaudio",
        # 6 KB tables: inside L1 after warm-up.
        buffer_len=6 * 1024 // 4, rounds=130, kernel="decode", fillers=65,
        description="decode loops over cache-resident tables")


def build_jess() -> Workload:
    """_202_jess: expert system.

    A persistent rule network (pair kernel with moderate churn) plus
    bursts of short-lived fact objects.  Noticeable L1 miss reduction
    with co-allocation, small execution-time effect (Figures 4/5).
    """
    N, ROUNDS = 650, 40
    p = Program("jess")
    app = make_app_class(p)
    node = define_pair_classes(p, "ReteNode", pad_ints=2)
    make = define_pair_factory(p, app, node, payload_len=12)
    setup = add_pair_setup(p, app, make, N)
    match = add_pair_kernel(p, app, node, make, n=N, churn_mask=3,
                            payload_len=12)
    fact = define_young_class(p, "Fact")
    assert_facts = add_young_churn_kernel(p, app, fact, burst=220,
                                          keep_every=64, name="assertFacts")
    fillers = add_filler_methods(p, app, 18)

    fn = Fn(p, app, "main")
    table = fn.local()
    keep = fn.local()
    fn.iconst(999).putstatic(app, "rngstate")
    call_fillers(fn, app, fillers)
    fn.call(setup).rstore(table)
    fn.iconst(8).emit("newarray", "ref").rstore(keep)
    with fn.loop(ROUNDS):
        fn.rload(table).call(match)
        fn.getstatic(app, "checksum").emit("iadd").putstatic(app, "checksum")
        fn.rload(keep).call(assert_facts).emit("pop")
    _finish_main(fn, app)

    return Workload(
        name="jess", program=p,
        plan=CompilationPlan([match.qualified_name, make.qualified_name,
                              assert_facts.qualified_name]),
        min_heap_bytes=320 * 1024,
        description="rule network matching plus short-lived fact bursts",
        hot_fields=["ReteNode::data"],
    )


def build_javac() -> Workload:
    """_213_javac: the JDK compiler.

    Dominated by bursts of short-lived AST nodes; the mature working
    set is small, so co-allocation finds little and the (small) net
    effect is the monitoring overhead — the paper's worst case at large
    heaps (-2.1%, section 6.3).
    """
    ROUNDS, BURST = 75, 650
    p = Program("javac")
    app = make_app_class(p)
    ast = define_young_class(p, "AstNode", ref_fields=2, int_fields=2)
    parse = add_young_churn_kernel(p, app, ast, burst=BURST, keep_every=96)
    fillers = add_filler_methods(p, app, 50)

    fn = Fn(p, app, "main")
    keep = fn.local()
    call_fillers(fn, app, fillers)
    fn.iconst(BURST // 96 + 1).emit("newarray", "ref").rstore(keep)
    with fn.loop(ROUNDS):
        fn.rload(keep).call(parse)
        fn.getstatic(app, "checksum").emit("iadd").putstatic(app, "checksum")
    _finish_main(fn, app)

    return Workload(
        name="javac", program=p,
        plan=CompilationPlan([parse.qualified_name]),
        min_heap_bytes=320 * 1024,
        description="AST-node bursts, almost nothing survives the nursery",
    )


def build_mtrt() -> Workload:
    """_227_mtrt: ray tracer.

    A modest scene graph traversed with good locality (the scene fits
    mostly in L2) plus per-ray temporary vectors; little co-allocation
    benefit.
    """
    N, ROUNDS = 500, 55
    p = Program("mtrt")
    app = make_app_class(p)
    shape = define_pair_classes(p, "Shape", pad_ints=4)
    make = define_pair_factory(p, app, shape, payload_len=10)
    setup = add_pair_setup(p, app, make, N)
    trace = add_pair_kernel(p, app, shape, make, n=N, churn_mask=31,
                            payload_len=10)
    vec = define_young_class(p, "Vec", ref_fields=1, int_fields=3)
    shade = add_young_churn_kernel(p, app, vec, burst=170, keep_every=128,
                                   name="shade")
    fillers = add_filler_methods(p, app, 42)

    fn = Fn(p, app, "main")
    scene = fn.local()
    keep = fn.local()
    fn.iconst(4242).putstatic(app, "rngstate")
    call_fillers(fn, app, fillers)
    fn.call(setup).rstore(scene)
    fn.iconst(4).emit("newarray", "ref").rstore(keep)
    with fn.loop(ROUNDS):
        fn.rload(scene).call(trace)
        fn.getstatic(app, "checksum").emit("iadd").putstatic(app, "checksum")
        fn.rload(keep).call(shade).emit("pop")
    _finish_main(fn, app)

    return Workload(
        name="mtrt", program=p,
        plan=CompilationPlan([trace.qualified_name, make.qualified_name,
                              shade.qualified_name]),
        min_heap_bytes=320 * 1024,
        description="scene-graph traversal plus per-ray temporaries",
        hot_fields=["Shape::data"],
    )


def build_jack() -> Workload:
    """_228_jack: parser generator.

    Token-stream processing: bursts of young token objects, a tiny
    persistent grammar table.
    """
    ROUNDS, BURST = 65, 480
    p = Program("jack")
    app = make_app_class(p)
    token = define_young_class(p, "Token", ref_fields=1, int_fields=4)
    tokenize = add_young_churn_kernel(p, app, token, burst=BURST,
                                      keep_every=80, name="tokenize")
    grammar = define_pair_classes(p, "Rule")
    make = define_pair_factory(p, app, grammar, payload_len=8)
    setup = add_pair_setup(p, app, make, 240)
    lookup = add_pair_kernel(p, app, grammar, make, n=240, churn_mask=15,
                             payload_len=8)
    fillers = add_filler_methods(p, app, 36)

    fn = Fn(p, app, "main")
    keep = fn.local()
    rules = fn.local()
    fn.iconst(777).putstatic(app, "rngstate")
    call_fillers(fn, app, fillers)
    fn.iconst(BURST // 80 + 1).emit("newarray", "ref").rstore(keep)
    fn.call(setup).rstore(rules)
    with fn.loop(ROUNDS):
        fn.rload(keep).call(tokenize).emit("pop")
        fn.rload(rules).call(lookup)
        fn.getstatic(app, "checksum").emit("iadd").putstatic(app, "checksum")
    _finish_main(fn, app)

    return Workload(
        name="jack", program=p,
        plan=CompilationPlan([tokenize.qualified_name, lookup.qualified_name,
                              make.qualified_name]),
        min_heap_bytes=320 * 1024,
        description="token bursts over a small persistent grammar",
        hot_fields=["Rule::data"],
    )
