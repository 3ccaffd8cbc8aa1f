"""Shared test helpers: small guest programs and VM drivers."""

from repro.core.config import (CacheConfig, GCConfig, MachineConfig,
                               SystemConfig, TLBConfig)
from repro.jit.aos import CompilationPlan
from repro.vm.program import Program
from repro.vm.vmcore import VM, run_program
from repro.workloads.synth import Fn

BASELINE_ONLY = CompilationPlan([])

#: Machine geometries the memory-system tests run on: the default; a
#: direct-mapped 1 KB L1 with a one-entry DTLB, where touching a line
#: can evict the line touched before it, or its page (four lines of a
#: page share each set); and a 2-way 4 KB L1 with a two-entry DTLB.
GEOMETRIES = {
    "default": MachineConfig,
    "1way-1tlb": lambda: MachineConfig(l1=CacheConfig(1024, 128, 1, 2),
                                       tlb=TLBConfig(entries=1)),
    "2way4k-2tlb": lambda: MachineConfig(l1=CacheConfig(4 * 1024, 128, 2, 2),
                                         tlb=TLBConfig(entries=2)),
}


def run_main(program, *, config=None, plan=BASELINE_ONLY, **kwargs):
    """Run a program's main with a minimal config (no monitoring)."""
    if config is None:
        config = SystemConfig(monitoring=False,
                              gc=GCConfig(heap_bytes=2 * 1024 * 1024),
                              **kwargs)
    return run_program(program, config, compilation_plan=plan)


def int_main(body, *, returns="int", plan=BASELINE_ONLY, config=None):
    """Build a one-method program whose main computes an int into a
    static, then run it and return that value.

    ``body(fn, app)`` emits bytecode leaving one int on the stack.
    """
    p = Program("t")
    app = p.define_class("App")
    app.add_static("out", "int")
    app.seal()
    fn = Fn(p, app, "main")
    body(fn, app)
    fn.putstatic(app, "out")
    fn.ret()
    p.set_main(fn.finish())
    run_main(p, plan=plan, config=config)
    return app.static_values[app.static("out").index]


def self_recursive_method(program, klass, name, *, args, returns, build,
                          max_locals=None):
    """Define a method that may reference itself in its own bytecode.

    ``build(asm, method)`` emits into a raw Asm with the MethodInfo in
    hand (Program.define_method verifies eagerly, which forbids forward
    self-references).
    """
    from repro.vm.bytecode import Asm, analyze
    from repro.vm.model import MethodInfo

    method = MethodInfo(name, klass, is_static=True, arg_kinds=list(args),
                        return_kind=returns,
                        max_locals=max_locals or len(args), code=[])
    klass.add_method(method)
    asm = Asm()
    build(asm, method)
    method.code = asm.finish()
    analyze(method)
    return method


def hog_program():
    """A main that keeps every node it allocates alive through a
    static list head: it outgrows any small heap."""
    p = Program("hog")
    app = p.define_class("App")
    app.add_static("keep", "ref")
    app.seal()
    node = p.define_class("Node")
    node.add_field("next", "ref")
    node.seal()
    fn = Fn(p, app, "main")
    cur = fn.local()
    with fn.loop(100_000):
        fn.new(node).rstore(cur)
        fn.rload(cur).getstatic(app, "keep").putfield(node, "next")
        fn.rload(cur).putstatic(app, "keep")
    fn.ret()
    p.set_main(fn.finish())
    return p
