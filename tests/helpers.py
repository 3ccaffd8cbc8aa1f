"""Shared test helpers: small guest programs and VM drivers."""

import collections
import os
import sys
from contextlib import contextmanager

from repro.core.config import (CacheConfig, GCConfig, MachineConfig,
                               SystemConfig, TLBConfig)
from repro.gc import layout
from repro.jit.aos import CompilationPlan
from repro.vm.program import Program
from repro.vm.vmcore import VM, run_program
from repro.workloads.synth import Fn, local_ref

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


def define_string_factory(program):
    """``String makeString(int length, int seed)``.

    Allocates a String with a fresh char[] and fills it — the standard
    allocation pattern of the db workload's records (and the object pair
    of Figures 7/8).
    """
    string_class = program.string_class
    fn = Fn(program, string_class, "make", args=["int", "int"], returns="ref")
    length, seed = 0, 1
    s = fn.local()
    arr = fn.local()
    # char[] value = new char[length];
    fn.iload(length).emit("newarray", "char").rstore(arr)
    # fill with (seed + i) & 0xff
    with fn.loop(local_ref(length)) as i:
        fn.rload(arr).iload(i)
        fn.iload(seed).iload(i).emit("iadd").iconst(0xFF).emit("iand")
        fn.emit("arrstore", "char")
    # String s = new String; s.value = arr; s.count = length;
    fn.new(string_class).rstore(s)
    fn.rload(s).rload(arr).putfield(string_class, "value")
    fn.rload(s).iload(length).putfield(string_class, "count")
    fn.rload(s).rret()
    return fn.finish()


@contextmanager
def if_nonzero(fn):
    """Emit an if-block in ``fn`` guarded by the int on top of the stack."""
    skip = fn.fresh_label("skip")
    fn.emit("ifz", "eq", skip)
    yield
    fn.label(skip)


@contextmanager
def if_cond(fn, cond: str):
    """If-block in ``fn`` comparing the two ints on top of the stack.

    ``cond`` is the condition under which the block *runs*.
    """
    inverse = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt",
               "gt": "le", "le": "gt"}[cond]
    skip = fn.fresh_label("skip")
    fn.emit("if_icmp", inverse, skip)
    yield
    fn.label(skip)


def static_hot_fields(table: dict):
    """A co-allocation hot-field provider from a fixed {ClassInfo:
    FieldInfo} table, bypassing the online monitoring."""
    return table.get


# -- address-space and placement predicates ------------------------------------

def in_nursery(addr: int) -> bool:
    return layout.NURSERY_BASE <= addr < layout.NURSERY_LIMIT


def in_mature(addr: int) -> bool:
    return layout.MATURE_BASE <= addr < layout.MATURE_LIMIT


def in_los(addr: int) -> bool:
    return layout.LOS_BASE <= addr < layout.LOS_LIMIT


def region_name(addr: int) -> str:
    """The address-space region ``addr`` falls in."""
    for base, limit, name in (
        (layout.STACK_BASE, layout.STACK_LIMIT, "stack"),
        (layout.STATICS_BASE, layout.STATICS_LIMIT, "statics"),
        (layout.CODE_BASE, layout.CODE_LIMIT, "code"),
        (layout.NURSERY_BASE, layout.NURSERY_LIMIT, "nursery"),
        (layout.MATURE_BASE, layout.MATURE_LIMIT, "mature"),
        (layout.LOS_BASE, layout.LOS_LIMIT, "los"),
    ):
        if base <= addr < limit:
            return name
    return "unmapped"


def same_cache_line(a, b, line_bytes: int = 128) -> bool:
    """True when the *headers* of two objects share a cache line — the
    spatial-locality predicate co-allocation tries to make true for hot
    parent/child pairs (section 5.2)."""
    return (a.address // line_bytes) == (b.address // line_bytes)


def is_adjacent(parent, child) -> bool:
    """True when ``child`` is placed directly after ``parent`` in memory."""
    return child.address == parent.address + parent.size


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


# -- the claim checker ---------------------------------------------------------

#: One quantum poll level 2 skipped: the boundary (an instruction
#: count), the exact clock there, the nearer of ``scheduler.next_time``
#: and ``until_cycles`` (None: neither), and the largest bound granted
#: since the poll before it.
Claim = collections.namedtuple("Claim", "instructions clock limit bound")


class _PollLog:
    """Stands in for the CPU's scheduler and logs each poll — a read of
    ``next_time`` by the driver, not by the idle test — as ``(instructions,
    clock, next_time, until)``."""

    def __init__(self, cpu):
        self._cpu = cpu
        self._scheduler = cpu.scheduler
        self.until = None
        self.quiet = False
        self.events = []

    @property
    def next_time(self):
        value = self._scheduler.next_time
        if not self.quiet:
            cpu = self._cpu
            self.events.append(("poll", cpu.instructions, cpu.cycles, value,
                                self.until))
        return value

    def __getattr__(self, name):
        return getattr(self._scheduler, name)


def _claims_run(make_vm, until_cycles, step, skip):
    vm = make_vm()
    cpu = vm.cpu
    log = cpu.scheduler = _PollLog(cpu)
    real = cpu._boundary_idle

    def idle(slack, instructions, until):
        if not skip:
            return False
        log.quiet = True
        granted = real(slack, instructions, until)
        log.quiet = False
        if granted:
            log.events.append(("grant", cpu.cycles + cpu._cyc_cell[0] + slack
                               + cpu.mem.hook_charges(instructions)))
        return granted

    cpu._boundary_idle = idle
    vm.begin()
    done = False
    while not done and (until_cycles is None or cpu.cycles < until_cycles):
        log.until = until_cycles if step is None else (
            cpu.cycles + step if until_cycles is None
            else min(until_cycles, cpu.cycles + step))
        done = vm.advance(until_cycles=log.until)
    result = vm.finish()
    tracer = vm.observers.tracer
    state = (result.cycles, result.instructions, result.counters,
             vm.pebs.samples_taken if vm.pebs is not None else None,
             [(e.name, e.ts, e.args) for e in tracer.instants],
             [(e.name, e.ts, e.value) for e in tracer.samples])
    return log.events, state


def check_claims(make_vm, until_cycles=None, step=None):
    """The claim checker: where level 2 skips a quantum poll it claims
    the poll would have done nothing — the clock there below
    ``scheduler.next_time`` and ``until_cycles`` — on a bound it proved
    when granting the span or the straddle.  This checks the claims,
    not just their outcome.

    ``make_vm()`` builds a fresh VM at level 2.  It runs twice, in
    ``step``-cycle slices up to ``until_cycles`` if given: once with no
    grant (every poll taken, so the clock is exact at every boundary)
    and once as is, logging each grant with its bound.  Both must end
    in the same state (counters, PEBS samples, trace); every boundary
    the second run skipped must have been idle in the first, its clock
    within the bounds granted since the poll before it.  Returns the
    skipped polls as :class:`Claim` records — where the proofs held,
    and by how much.
    """
    exact, want = _claims_run(make_vm, until_cycles, step, skip=False)
    events, got = _claims_run(make_vm, until_cycles, step, skip=True)
    assert got == want
    # The grants made since the poll before, at each poll taken (and at
    # the end): they cover the boundaries skipped in between.
    bounds, granted = {}, []
    for event in events + [("poll", None)]:
        if event[0] == "grant":
            granted.append(event[1])
        else:
            bounds[event[1]] = max(granted, default=None)
            granted = []
    claims, skipped = [], []
    for _, instructions, clock, next_time, until in exact + [
            (None, None, None, None, None)]:
        if instructions not in bounds:
            limits = [t for t in (next_time, until) if t is not None]
            skipped.append((instructions, clock, min(limits, default=None)))
            continue
        claims += [Claim(*poll, bounds[instructions]) for poll in skipped]
        skipped = []
    for claim in claims:
        assert claim.bound is not None and claim.clock <= claim.bound, claim
        assert claim.limit is None or claim.clock < claim.limit, claim
    return claims


# -- the opcode ledger ---------------------------------------------------------

def host_opcodes(vm, until_cycles):
    """The host bytecodes CPython executes advancing ``vm`` (begun) to
    ``until_cycles``, by layer: a ``Counter`` keyed by source file
    (its path under ``repro/``, or the file name of code outside the
    package), generated code by its kind — ``<region>``,
    ``<superblock>`` or ``<handler>``.  Exact and repeatable, unlike
    host seconds; ``sys.settrace`` with ``f_trace_opcodes`` costs about
    100x, so tier-1 does not run it."""
    by_code = collections.Counter()

    def opcode(frame, event, arg):
        if event == "opcode":
            by_code[frame.f_code] += 1
        return opcode

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return opcode

    sys.settrace(call)
    try:
        vm.advance(until_cycles=until_cycles)
    finally:
        sys.settrace(None)
    layers = collections.Counter()
    for code, count in by_code.items():
        name = code.co_filename
        if name.startswith("<"):
            name = name.split()[0].rstrip(">") + ">"
        else:
            _, package, path = name.rpartition(f"{os.sep}repro{os.sep}")
            name = path if package else os.path.basename(name)
        layers[name] += count
    return layers
