"""One-time translation of compiled guest code into Python closures.

The reference interpreter in :mod:`repro.hw.cpu` pays a ~20-way
``if/elif`` dispatch chain — plus string compares on ``inst.aux`` and
attribute loads on the :class:`~repro.hw.isa.MInst` — for every
simulated instruction.  All of that work depends only on values that
are *constant once a method is compiled*: the opcode, the register
numbers, the field offset, the branch target, the ALU operation, and
the instruction's EIP (``code_addr + pc * 4``).

This module resolves all of it exactly once per
:class:`~repro.jit.codecache.CompiledMethod`.  What each straight-line
opcode and branch *does* is written down once, in :class:`_Emitter`,
which writes the Python source of one instruction; both executable
forms are generated from it:

* the **single** flavour — one handler template per opcode *shape*
  (:func:`_shape`), compiled at import; :func:`translate` instantiates
  it per instruction with the operands baked in as default arguments
  (which CPython loads as fast locals), and execution becomes threaded
  dispatch — ``pc = handlers[pc](frame, regs, slots)`` — with zero
  per-step operand decoding;
* the **fused** flavour — the body of a superblock closure, a
  straight-line run executed in one call with its memory accesses
  batched (fastpath level 2; see *Superblock compilation* below) —
  and its **region** form, where the runs of a loop become one
  function that iterates with the guest registers in Python locals
  (see *Regions* below): the same text, renamed and re-indented by
  the flavour's ``write`` callable.

Only the handlers that speak the driver's protocol (calls, returns,
allocations outside a region, illegal instructions) are hand-written.
It is a template JIT for the simulator's own hot loop, the same
once-against-the-profile-stable-operands trade the paper's online
optimizations make for the guest program.

Bit-identical contract
----------------------
The translated code must be indistinguishable from the reference
interpreter in every observable: cycle and instruction counts at every
flush point, the order and addresses of all memory accesses (and hence
cache state, event counters, and PEBS samples), what a PEBS or observer
hook reads of the clock when it fires, the cycle at which every
scheduler event runs, GC-point ``frame.pc`` anchoring, profiler
callbacks, and the text of guest faults.  Three conventions make that
cheap to maintain:

* Every instruction costs exactly ``instruction_cost``, so handlers do
  not account base cycles at all — the driver reconstructs them at
  flush points as ``n * instruction_cost`` from its local instruction
  count.  Only memory latencies and allocation costs flow through a
  shared one-slot accumulator (``cpu._cyc_cell``).
* Handlers return the next pc.  Control transfers the driver must
  observe (because they flush counts or switch frames) return sentinels
  instead: :data:`CALL_SENT` / :data:`RET_SENT` after stashing their
  operands on the CPU, and allocations return ``~pc`` so the driver can
  flush — or, at level 2, queue the flush behind accesses still
  pending — *before* running the second phase from
  :attr:`Translation.phase2` (collection may only happen there).  A
  region bumps the nursery inline and queues that flush itself; an
  allocation that would collect leaves it for the driver's two phases.
* Anything that is **not** constant after compilation stays a runtime
  lookup, exactly as in the reference: ``arr.esize`` / ``arr.kind``
  (a region reads a ring invariant's once per entry, see *Regions*),
  vtable dispatch through the receiver, and ``static_addr`` (whose
  lazy base assignment depends on first-touch order).

Translations close over the CPU's bound services, so they are cached
per ``(CompiledMethod, CPU)`` and rebuilt if either changes; the code
cache drops them when a method is recompiled (see
:meth:`~repro.jit.codecache.CodeCache.note_replaced`).
"""

from __future__ import annotations

import functools
import re
from types import SimpleNamespace
from typing import Callable, Dict, List

from repro.core.config import GCConfig
from repro.jit.liveness import uses_defs
from repro.hw.isa import (
    GuestError, INSTRUCTION_BYTES, OP_NAMES,
    M_ALOAD, M_ALU, M_ALUI, M_ASTORE, M_BC, M_BR, M_CALL, M_CALLV,
    M_GETF, M_GETSTATIC, M_LDF, M_LEN, M_MOV, M_MOVI, M_NEW, M_NEWARR,
    M_NOP, M_NULLCHK, M_PUTF, M_PUTSTATIC, M_RET, M_STF,
)
from repro.vm.model import ARRAY_HEADER_BYTES, KIND_BYTES
from repro.vm.objects import SPACE_NURSERY, HeapArray, HeapObject

#: Sentinel returned by call handlers (target/args stashed on the CPU).
CALL_SENT = -(1 << 30)
#: Sentinel returned by return handlers (value stashed on the CPU).
RET_SENT = CALL_SENT - 1
# Allocations return ``~pc`` (always in [-len(code), -1], far from the
# sentinels above) so the driver can recover the pc with another ``~``.

#: A translated instruction: ``(frame, regs, slots) -> next pc``.
Handler = Callable[..., int]


class Translation:
    """The compiled form of one method for one CPU.

    ``blocks`` is a per-pc table: ``blocks[pc]`` is ``(length,
    closure, is_region, rate)`` when a superblock starts at ``pc`` and
    ``None`` everywhere else (all ``None`` below fastpath level 2), so
    the driver can test eligibility with one list index.  Mid-block
    pcs are always ``None`` — a quantum split or branch landing inside
    a fused run simply executes per-instruction until the next block
    start.  At the header of a ring the closure is the region (called
    with the budget, returning ``(next pc, instructions)``) and
    ``length`` is its first block's, the only one the driver admits.
    ``rate`` bounds the cycles per instruction what the closure runs
    can add to the clock (see :func:`compile_superblocks`).

    ``pure`` is the per-pc flag the driver reads before dispatching
    ``handlers[pc]`` with deferred accesses still queued: true when the
    handler neither touches the memory system, nor can fault, nor
    switches frames (moves, branches, non-faulting ALU ops, and ``new``,
    whose flush rides the queue), so nothing it does can observe that
    the queue has not landed yet.  ``counted`` is the form it was built in.
    """

    __slots__ = ("cpu", "handlers", "phase2", "blocks", "pure", "counted")

    def __init__(self, cpu, handlers: List[Handler],
                 phase2: Dict[int, Callable], blocks: List,
                 pure: List[bool]):
        self.cpu = cpu
        self.handlers = handlers
        self.phase2 = phase2
        self.blocks = blocks
        self.pure = pure
        self.counted = cpu.counted


def translation_for(cm, cpu) -> Translation:
    """The cached translation of ``cm``, built on first use (per form)."""
    tr = cm.translation
    if tr is None or tr.cpu is not cpu or tr.counted is not cpu.counted:
        tr = translate(cm, cpu)
        cm.translation = tr
    return tr


# ---------------------------------------------------------------------------
# The opcode emitter: the one definition of what every straight-line
# opcode and branch does.  It replicates the reference interpreter's
# per-opcode semantics (including fault messages and the order of
# null/bounds checks relative to memory accesses) exactly.
# ---------------------------------------------------------------------------

#: Every ALU operation, as an expression over its operands: ``{a}``,
#: ``{b}`` and the shift count ``{s}``.  ``div``/``rem`` follow the
#: division prelude (scratch locals ``a``, ``v``, ``q``).
_ALU_EXPRS = {
    "add": "{a} + {b}", "sub": "{a} - {b}", "mul": "{a} * {b}",
    "and": "{a} & {b}", "xor": "{a} ^ {b}", "or": "{a} | {b}",
    "shl": "(({a} << {s}) & 0xFFFFFFFF)", "shr": "{a} >> {s}",
    "neg": "-{a}", "div": "q", "rem": "a - q * v",
}

#: How the register/register and the register/immediate form name the
#: operands of an ``_ALU_EXPRS`` entry (fields of the operand record
#: ``x``, read only if the expression mentions them: ``neg`` has no
#: immediate, and only the shifts mask one into a count).
_ALU_OPERANDS = {
    M_ALU: dict(a="regs[{x.rs1}]", b="regs[{x.rs2}]",
                s="(regs[{x.rs2}] & 31)"),
    M_ALUI: dict(a="regs[{x.rs1}]", b="{x.imm}", s="{x.sh}"),
}

#: The taken-test of every BC condition; ``{b}`` is the second register
#: or, without one, zero.
_BC_TESTS = {
    "eq": "== {b}", "ne": "!= {b}", "lt": "< {b}", "ge": ">= {b}",
    "gt": "> {b}", "le": "<= {b}", "null": "is None",
    "nonnull": "is not None",
}

#: The bounds-fault message, verbatim from the reference interpreter,
#: around the generated index local ``i`` and the length's expression.
_BOUNDS_MSG = 'f"index {i} out of bounds [0,{%s})"'

#: Every operand emitted text can mention that is read off the
#: instruction, as an attribute path from it.  The fused flavour
#: inlines the value (:class:`_Literal`); the single flavour binds it
#: under this name as a default argument.
_OPERANDS = {
    "rd": "rd", "rs1": "rs1", "rs2": "rs2", "imm": "imm",
    "sh": "imm & 31",                              # ALUI shift count
    "slot": "imm", "foff": "imm * 4",              # LDF/STF frame slot
    "fi": "aux.index", "off": "aux.offset",        # GETF/PUTF field
    "klass": "aux[0]", "fld": "aux[1]",            # GET/PUTSTATIC
    "sv": "aux[0].static_values", "sfi": "aux[1].index",
    "timm": "imm",                                 # BC/BR target
}


def _shape(inst) -> tuple:
    """What selects the text emitted for ``inst``: its opcode, plus the
    ALU operation, the branch condition and whether it compares two
    registers, or whether a ``putf`` stores a reference."""
    op = inst.op
    if op == M_ALU or op == M_ALUI:
        return (op, inst.aux)
    if op == M_BC:
        # The reference interpreter treats any unknown condition as
        # "nonnull" (its final else); mirror that.
        return (op, inst.aux if inst.aux in _BC_TESTS else "nonnull",
                inst.rs2 is not None)
    if op == M_PUTF:
        return (op, inst.aux.kind == "ref")
    return (op,)


#: Every shape the emitter knows — for ALU operations and branch
#: conditions, exactly the ones the reference chains accept (no
#: register/register ``neg``, no immediate ``xor``/``or``).
_SHAPES = (
    [(op,) for op in (M_MOVI, M_MOV, M_NOP, M_NULLCHK, M_LDF, M_STF,
                      M_GETF, M_ALOAD, M_ASTORE, M_LEN, M_GETSTATIC,
                      M_PUTSTATIC, M_BR)]
    + [(M_PUTF, is_ref) for is_ref in (False, True)]
    + [(M_ALU, aux) for aux in _ALU_EXPRS if aux != "neg"]
    + [(M_ALUI, aux) for aux in _ALU_EXPRS if aux not in ("xor", "or")]
    + [(M_BC, cond, two_regs) for cond in _BC_TESTS
       for two_regs in (False, True)]
)


class _Emitter:
    """Writes the Python source of instructions, one :meth:`emit` each.

    It does not know which executable form it is writing.  Operands
    arrive as a record ``x`` whose fields render into the text
    (``regs[{x.rd}]`` is ``regs[3]`` fused and ``regs[rd]`` single),
    and what the flavours do differently are callables:
    ``access(address, is_write, x)`` issues a data access,
    ``fault(indent, message, x)`` raises a guest fault,
    ``barrier(indent, holder, slot, value)`` runs the write barrier,
    ``name(operand)`` names an object operand,
    ``branch(test, x)`` transfers control to ``x.timm`` — if ``test``
    (an expression; ``None`` for always) holds, else to ``x.npc`` —
    and, for an allocation (only a region has one), ``leave(indent,
    pc)`` exits to the driver, ``flush(indent, size)`` queues its flush
    and counts it, and ``cell_max`` bounds what the nursery takes.

    Redundancy elimination: it tracks which register each scratch local
    (``a``/``i``/``o``) currently mirrors, which registers are proven
    non-null by an earlier check, and whether the current (array,
    index) pair has already passed its bounds check — so repeated
    accesses through the same registers skip the reloads and the
    provably-passing checks.  Eliding a check never changes behavior:
    it is only elided when the same unmodified register already passed
    one (which fault message would have fired is then moot), and an
    array store cannot change ``len(elements)``.  It also tracks which
    registers hold a literal (set by ``movi``, copied by ``mov``): a
    div/rem by a nonzero literal writes the truncating result directly
    from the ``t`` scratch local, with no zero test and no ``abs()``
    call; the generic sequence clobbers the ``a`` scratch local.  Any
    write to a register drops every fact about it.  (Facts are
    consulted before an instruction's own register write, so they
    matter only across instructions: a single-flavour template, one
    instruction long, checks everything.)
    """

    def __init__(self, write, access, fault, barrier, name, branch,
                 leave=None, flush=None, cell_max=None, arrays=(),
                 objects=()):
        self.write = write
        self.access = access
        self.fault = fault
        self.barrier = barrier
        self.name = name
        self.branch = branch
        self.leave = leave
        self.flush = flush
        self.cell_max = cell_max
        self.arrays, self.objects = arrays, objects
        self.a_reg = self.i_reg = self.o_reg = self.u_key = None
        self.e_valid = self.bounds_ok = False
        self.nonnull = set()
        self.literals = {}

    def invalidate(self, rd) -> None:
        self.nonnull.discard(rd)
        self.literals.pop(rd, None)
        if rd == self.a_reg:
            self.a_reg = None
            self.e_valid = self.bounds_ok = False
        if rd == self.i_reg:
            self.i_reg = None
            self.bounds_ok = False
        if rd == self.o_reg:
            self.o_reg = None
        if self.u_key is not None and rd in self.u_key:
            self.u_key = None

    def bind_array(self, x, message) -> str:
        """Null-test array ``x.rs1``; the name of the array, as
        ``bind_object``'s of the object."""
        rs1 = x.rs1
        base = f"regs[{rs1}]" if rs1 in self.arrays else "a"
        if self.a_reg != rs1:
            if base == "a":
                self.write(f"        a = regs[{rs1}]")
            self.a_reg = rs1
            self.e_valid = self.bounds_ok = False
        if rs1 not in self.nonnull:
            self.write(f"        if {base} is None:")
            self.fault("            ", message, x)
            self.nonnull.add(rs1)
        return base

    def bind_index_and_bounds(self, x) -> str:
        """Bounds-test ``x.rs2`` against array ``x.rs1``; the name of
        its elements list."""
        rs2 = x.rs2
        if self.i_reg != rs2:
            self.write(f"        i = regs[{rs2}]")
            self.i_reg = rs2
            self.bounds_ok = False
        if x.rs1 in self.arrays:
            elements, length = f"e{x.rs1}", f"n{x.rs1}"
        else:
            elements, length = "e", "len(e)"
            if not self.e_valid:
                self.write("        e = a.elements")
                self.e_valid = True
        if not self.bounds_ok:
            self.write(f"        if i < 0 or i >= {length}:")
            self.fault("            ", _BOUNDS_MSG % length, x)
            self.bounds_ok = True
        return elements

    def bind_object(self, x, message) -> tuple:
        """Null-test object ``x.rs1``; its name, and the names of its
        address and its slots."""
        rs1 = x.rs1
        base = "o"
        if rs1 in self.objects:
            base = f"regs[{rs1}]"
        elif self.o_reg != rs1:
            self.write(f"        o = regs[{rs1}]")
            self.o_reg = rs1
        if rs1 not in self.nonnull:
            self.write(f"        if {base} is None:")
            self.fault("            ", message, x)
            self.nonnull.add(rs1)
        if base == "o":
            return base, "o.address", "o.slots"
        return base, f"p{rs1}", f"f{rs1}"

    def element(self, x, is_write) -> None:
        """Queue the access to element ``i`` of array ``x.rs1``: a ring
        invariant's address off its hoisted base, kept in ``u`` for the
        next element access to reuse if it names the same array at the
        same unwritten index register."""
        r = x.rs1
        key = (r, x.rs2) if r in self.arrays else None
        if key is None:
            address = "a.address + 12 + i * a.esize"
        elif key == self.u_key:
            address = "u"
        else:
            address = f"u := d{r} + i * z{r}"
        self.u_key = key
        self.access(address, is_write, x)

    def emit(self, shape, x) -> None:
        """Append the source of one instruction of ``shape``."""
        W = self.write
        op = shape[0]
        if op == M_LDF:
            rd = x.rd
            self.access(f"{x.fb} + {x.foff}", False, x)
            W(f"        regs[{rd}] = slots[{x.slot}]")
            self.invalidate(rd)
        elif op == M_STF:
            self.access(f"{x.fb} + {x.foff}", True, x)
            W(f"        slots[{x.slot}] = regs[{x.rs1}]")
        elif op == M_MOVI:
            imm = x.imm
            W(f"        regs[{x.rd}] = {imm}")
            self.invalidate(x.rd)
            if isinstance(imm, int):    # a literal, and not None
                self.nonnull.add(x.rd)
                self.literals[x.rd] = imm
        elif op == M_MOV:
            W(f"        regs[{x.rd}] = regs[{x.rs1}]")
            known = x.rs1 in self.nonnull
            literal = self.literals.get(x.rs1)
            self.invalidate(x.rd)
            if known and x.rd != x.rs1:
                self.nonnull.add(x.rd)
            if literal is not None:
                self.literals[x.rd] = literal
        elif op == M_ALU or op == M_ALUI:
            aux = shape[1]
            names = _ALU_OPERANDS[op]
            result = _ALU_EXPRS[aux].format(**names).format(x=x)
            if aux == "div" or aux == "rem":
                divisor = (self.literals.get(x.rs2) if op == M_ALU
                           else x.imm)
                if isinstance(divisor, int) and divisor:
                    W("        t = " + names["a"].format(x=x))
                    result = _truncating(aux, divisor)
                else:
                    # Replicate the reference's rounding.
                    W("        a = " + names["a"].format(x=x))
                    W("        v = " + names["b"].format(x=x))
                    W("        if v == 0:")
                    self.fault("            ", "'division by zero'", x)
                    W("        q = abs(a) // abs(v)")
                    W("        if (a >= 0) != (v >= 0):")
                    W("            q = -q")
                    self.a_reg = None    # ``a`` scratch local clobbered
                    self.e_valid = self.bounds_ok = False
            W(f"        regs[{x.rd}] = {result}")
            self.invalidate(x.rd)
            self.nonnull.add(x.rd)    # arithmetic yields an int
        elif op == M_GETF:
            _, address, fields = self.bind_object(x, "'null getfield'")
            self.access(f"{address} + {x.off}", False, x)
            W(f"        regs[{x.rd}] = {fields}[{x.fi}]")
            self.invalidate(x.rd)
        elif op == M_PUTF:
            base, address, fields = self.bind_object(x, "'null putfield'")
            if shape[1]:    # a reference store: barrier after the store
                W(f"        v = regs[{x.rs2}]")
                self.access(f"{address} + {x.off}", True, x)
                W(f"        {fields}[{x.fi}] = v")
                self.barrier("        ", base, x.fi, "v")
            else:
                self.access(f"{address} + {x.off}", True, x)
                W(f"        {fields}[{x.fi}] = regs[{x.rs2}]")
        elif op == M_ALOAD:
            self.bind_array(x, "'null array load'")
            elements = self.bind_index_and_bounds(x)
            self.element(x, False)
            W(f"        regs[{x.rd}] = {elements}[i]")
            self.invalidate(x.rd)
        elif op == M_ASTORE:
            base = self.bind_array(x, "'null array store'")
            elements = self.bind_index_and_bounds(x)
            W(f"        v = regs[{x.rd}]")
            self.element(x, True)
            W(f"        {elements}[i] = v")
            # ``a.kind`` is a runtime property of the array, not of the
            # instruction: keep the reference interpreter's check (only
            # the ref case has a write barrier).
            W(f"        if k{x.rs1}:" if base != "a" else
              "        if a.kind == 'ref':")
            self.barrier("            ", base, "i", "v")
        elif op == M_LEN:
            if self.bind_array(x, "'null arraylength'") != "a":
                self.access(f"d{x.rs1} - 4", False, x)
                W(f"        regs[{x.rd}] = n{x.rs1}")
            else:
                self.access("a.address + 8", False, x)
                W(f"        regs[{x.rd}] = len(e)" if self.e_valid else
                  f"        regs[{x.rd}] = len(a.elements)")
            self.invalidate(x.rd)
            self.nonnull.add(x.rd)    # a length is an int
        elif op == M_GETSTATIC or op == M_PUTSTATIC:
            klass, fld = self.name(x.klass), self.name(x.fld)
            values = self.name(x.sv)
            # ``static_addr`` stays a runtime call at access time: its
            # lazy base assignment depends on first-touch order.
            address = f"static_addr({klass}, {fld})"
            if op == M_GETSTATIC:
                self.access(address, False, x)
                W(f"        regs[{x.rd}] = {values}[{x.sfi}]")
                self.invalidate(x.rd)
            else:
                self.access(address, True, x)
                W(f"        {values}[{x.sfi}] = regs[{x.rs1}]")
        elif op == M_NULLCHK:
            if x.rs1 not in self.nonnull:
                W(f"        if regs[{x.rs1}] is None:")
                self.fault("            ", "'null receiver'", x)
                self.nonnull.add(x.rs1)
        elif op == M_BC:
            test = _BC_TESTS[shape[1]].format(
                b="regs[{x.rs2}]" if shape[2] else "0")
            self.branch(f"regs[{x.rs1}] " + test.format(x=x), x)
        elif op == M_BR:
            self.branch(None, x)
        elif op == M_NEW or op == M_NEWARR:
            # Bump the nursery inline, up to ``top``.  A negative length,
            # an object the LOS takes and a nursery that cannot fit it
            # are the driver's: ``leave`` for it at this pc, nothing done.
            rd, aux = x.rd, x.aux
            if op == M_NEW:
                size = aux.instance_bytes
                if size > self.cell_max:    # known here: always the LOS's
                    return self.leave("        ", x.pc)
                make = f"HeapObject({self.name(aux)}, c)"
                test = f"c + {size} > top"
            else:
                W(f"        z = regs[{x.rs1}]")
                W("        if z < 0:")
                self.leave("            ", x.pc)
                W(f"        y = ({ARRAY_HEADER_BYTES + 3}"
                  f" + {KIND_BYTES[aux]} * z) & ~3")
                size, make = "y", f"HeapArray({aux!r}, z, c)"
                test = f"y > {self.cell_max} or c + y > top"
            W("        c = nursery.cursor")
            W(f"        if {test}:")
            self.leave("            ", x.pc)
            self.flush("        ", size)
            W(f"        frame.pc = {x.pc}")
            W(f"        nursery.cursor = c + {size}")
            W(f"        regs[{rd}] = {make}")
            self.invalidate(rd)
            self.nonnull.add(rd)
        elif op != M_NOP:
            raise AssertionError(f"no emitter case for shape {shape}")


def _truncating(aux, divisor) -> str:
    """The reference's ``div``/``rem`` of ``t`` by a nonzero literal:
    the quotient truncates toward zero, the remainder takes the sign
    of the dividend."""
    d = abs(divisor)
    if aux == "rem":
        return f"t % {d} if t >= 0 else -(-t % {d})"
    if divisor > 0:
        return f"t // {d} if t >= 0 else -(-t // {d})"
    return f"-(t // {d}) if t >= 0 else -t // {d}"


def _returns(write):
    """The ``branch`` of the flavours whose closures *return* the next
    pc to the driver (single and fused)."""
    def branch(test, x):
        write(f"        return {x.timm}"
              + (f" if {test} else {x.npc}" if test else ""))
    return branch


# ---------------------------------------------------------------------------
# The single flavour: one handler template per shape, compiled once at
# import (a ``compile()`` per instruction or per method would cost more
# than it saves).  Operands are parameters bound per instruction as
# default arguments so the handler reads them as fast locals, the data
# access is issued at once through ``mem_access``, a fault is raised
# directly, and a reference store calls the write barrier.
# ---------------------------------------------------------------------------

#: The symbolic operand record: every field is its own name.  (The
#: frame base is not bound per instruction; a handler reads it off its
#: frame.)
_SYMBOLIC = SimpleNamespace(fb="frame.base", pc="pc", npc="npc",
                            **{name: name for name in _OPERANDS})

#: What a handler can bind besides its instruction's ``_OPERANDS``, as
#: expressions over the template factory's parameters.
_CONTEXT = {
    "cell": "cell", "mem_access": "mem_access", "wb": "wb",
    "static_addr": "static_addr", "eip": "eip", "method": "method",
    "pc": "pc", "npc": "pc + 1",
}


class _Template:
    """The compiled single-flavour form of one shape, and what
    generating it revealed about the shape."""

    __slots__ = ("shape", "make", "load", "pure", "mem", "frame",
                 "literal", "branch")

    def __init__(self, shape):
        lines: List[str] = []
        W = lines.append
        accesses = faults = False

        def access(address, is_write, x):
            nonlocal accesses
            accesses = True
            W(f"        cell[0] += mem_access({address}, {is_write}, eip)")

        def fault(indent, message, x):
            nonlocal faults
            faults = True
            W(f"{indent}raise GuestError({message}, method, {x.pc})")

        def barrier(indent, holder, slot, value):
            W(f"{indent}wb({holder}, {slot}, {value})")

        _Emitter(W, access, fault, barrier, str,
                 _returns(W)).emit(shape, _SYMBOLIC)
        self.shape = shape
        self.branch = shape[0] in (M_BC, M_BR)
        if not self.branch:
            W(f"        return {_SYMBOLIC.npc}")
        body = "\n".join(lines)
        mentioned = set(re.findall(r"[A-Za-z_]\w*", body))
        #: Issues a data access (one).
        self.mem = accesses
        #: An observation point for nobody: no ``mem.access``, no fault
        #: (and no template switches frames).
        self.pure = not (accesses or faults)
        #: Reads the frame base / inlines its immediate when fused
        #: (which then has to be writable as a literal).
        self.frame = _SYMBOLIC.fb in body
        self.literal = bool(mentioned & {"imm", "sh"})
        # Bind as defaults only the names the body mentions.
        operands = [(name, path) for name, path in _OPERANDS.items()
                    if name in mentioned]
        binds = [f"{name}={expr}" for name, expr in _CONTEXT.items()
                 if name in mentioned]
        binds += [f"{name}=inst.{path}" for name, path in operands]
        source = (
            "def make(inst, pc, eip, method, cell, mem_access, wb, "
            "static_addr):\n"
            f"    def h({', '.join(['frame', 'regs', 'slots'] + binds)}):\n"
            f"{body}\n"
            "    return h\n"
            "def load(x, inst):\n"
            + "".join(f"    x.{name} = inst.{path}\n"
                      for name, path in operands)
            + "    return x\n")
        namespace = {"GuestError": GuestError}
        name = " ".join([OP_NAMES[shape[0]], *map(str, shape[1:])])
        exec(compile(source, f"<handler {name}>", "exec"), namespace)
        #: ``make(inst, pc, eip, method, cell, mem_access, wb,
        #: static_addr)`` instantiates the handler of one instruction;
        #: ``load(x, inst)`` reads the same operands into a
        #: :class:`_Literal` for the fused flavour to inline.
        self.make = namespace["make"]
        self.load = namespace["load"]


_TEMPLATES = {shape: _Template(shape) for shape in _SHAPES}
#: The templates of the shapes an opcode alone selects, by opcode.
_PLAIN_TEMPLATES = {shape[0]: template
                    for shape, template in _TEMPLATES.items()
                    if len(shape) == 1}


def _decode(code) -> List:
    """The template of each instruction of ``code`` (``None`` where the
    handler is hand-written) — worked out once per method and shared by
    :func:`translate`, block discovery and the block emitter."""
    plain, shaped = _PLAIN_TEMPLATES.get, _TEMPLATES.get
    return [plain(inst.op) or shaped(_shape(inst)) for inst in code]


# ---------------------------------------------------------------------------
# The driver-protocol handlers stay hand-written: they stash operands on
# the CPU and return sentinels the driver acts on (frame switches,
# flushes, the two-phase allocation), which is a contract with
# ``CPU._run_fast``, not an instruction's effect on guest state.
# ---------------------------------------------------------------------------

def _h_bad(message, method, pc):
    def h(frame, regs, slots, message=message, method=method, pc=pc):
        raise GuestError(message, method, pc)
    return h


def _h_call(cpu, target, argregs, pc):
    n_args = len(argregs)
    if n_args == 0:
        def h(frame, regs, slots, cpu=cpu, target=target, pc=pc):
            frame.pc = pc
            cpu._call_target = target
            cpu._call_args = ()
            return CALL_SENT
    elif n_args == 1:
        def h(frame, regs, slots, cpu=cpu, target=target, pc=pc,
              a0=argregs[0]):
            frame.pc = pc
            cpu._call_target = target
            cpu._call_args = (regs[a0],)
            return CALL_SENT
    elif n_args == 2:
        def h(frame, regs, slots, cpu=cpu, target=target, pc=pc,
              a0=argregs[0], a1=argregs[1]):
            frame.pc = pc
            cpu._call_target = target
            cpu._call_args = (regs[a0], regs[a1])
            return CALL_SENT
    elif n_args == 3:
        def h(frame, regs, slots, cpu=cpu, target=target, pc=pc,
              a0=argregs[0], a1=argregs[1], a2=argregs[2]):
            frame.pc = pc
            cpu._call_target = target
            cpu._call_args = (regs[a0], regs[a1], regs[a2])
            return CALL_SENT
    else:
        def h(frame, regs, slots, cpu=cpu, target=target, pc=pc,
              argregs=argregs):
            frame.pc = pc
            cpu._call_target = target
            cpu._call_args = tuple([regs[r] for r in argregs])
            return CALL_SENT
    return h


def _h_callv(cell, mem_access, cpu, rs1, slot, argregs, eip, method, pc):
    def h(frame, regs, slots, cell=cell, mem_access=mem_access, cpu=cpu,
          rs1=rs1, slot=slot, argregs=argregs, eip=eip, method=method,
          pc=pc):
        frame.pc = pc
        receiver = regs[rs1]
        if receiver is None:
            raise GuestError("null receiver", method, pc)
        # Virtual dispatch reads the object header (a heap access the
        # interest analysis also tracks).
        cell[0] += mem_access(receiver.address, False, eip)
        cpu._call_target = receiver.class_info.vtable[slot]
        cpu._call_args = tuple([regs[r] for r in argregs])
        return CALL_SENT
    return h


def _h_ret(cpu, rs1):
    if rs1 is None:
        def h(frame, regs, slots, cpu=cpu):
            cpu._ret_value = None
            return RET_SENT
    else:
        def h(frame, regs, slots, cpu=cpu, rs1=rs1):
            cpu._ret_value = regs[rs1]
            return RET_SENT
    return h


def _h_new(pc):
    sent = ~pc
    def h(frame, regs, slots, pc=pc, sent=sent):
        frame.pc = pc  # GC point
        return sent
    return h


def _p2_new(alloc_object, klass, rd, cost):
    def p2(regs, alloc_object=alloc_object, klass=klass, rd=rd, cost=cost):
        regs[rd] = alloc_object(klass)
        return cost
    return p2


def _h_newarr(rs1, method, pc):
    sent = ~pc
    def h(frame, regs, slots, rs1=rs1, method=method, pc=pc, sent=sent):
        frame.pc = pc  # GC point
        if regs[rs1] < 0:
            raise GuestError("negative array size", method, pc)
        return sent
    return h


def _p2_newarr(alloc_array, kind, rd, rs1, cost):
    def p2(regs, alloc_array=alloc_array, kind=kind, rd=rd, rs1=rs1,
           cost=cost):
        regs[rd] = alloc_array(kind, regs[rs1])
        return cost
    return p2


# ---------------------------------------------------------------------------
# The translator.
# ---------------------------------------------------------------------------

def translate(cm, cpu) -> Translation:
    """Compile ``cm``'s instruction list into closures bound to ``cpu``."""
    mem_access = cpu.mem.access
    runtime = cpu.runtime
    plan = runtime.plan
    static_addr = runtime.static_addr
    wb = plan.write_barrier
    alloc_cost = plan.config.alloc_cost
    cell = cpu._cyc_cell
    method = cm.method
    base_eip = cm.code_addr
    code = cm.code
    templates = _decode(code)

    handlers: List[Handler] = []
    phase2: Dict[int, Callable] = {}
    pure: List[bool] = []
    for pc, (inst, template) in enumerate(zip(code, templates)):
        eip = base_eip + pc * INSTRUCTION_BYTES
        if template is not None:
            handlers.append(template.make(inst, pc, eip, method, cell,
                                          mem_access, wb, static_addr))
            pure.append(template.pure)
            continue
        op = inst.op
        if op == M_CALL:
            h = _h_call(cpu, inst.aux, tuple(inst.imm), pc)
        elif op == M_CALLV:
            h = _h_callv(cell, mem_access, cpu, inst.rs1, inst.aux[1],
                         tuple(inst.imm), eip, method, pc)
        elif op == M_RET:
            h = _h_ret(cpu, inst.rs1)
        elif op == M_NEW:
            h = _h_new(pc)
            phase2[pc] = _p2_new(plan.alloc_object, inst.aux, inst.rd,
                                 alloc_cost)
        elif op == M_NEWARR:
            h = _h_newarr(inst.rs1, method, pc)
            phase2[pc] = _p2_newarr(plan.alloc_array, inst.aux, inst.rd,
                                    inst.rs1, alloc_cost)
        elif op == M_ALU:
            h = _h_bad(f"bad alu op {inst.aux}", method, pc)
        elif op == M_ALUI:
            h = _h_bad(f"bad alui op {inst.aux}", method, pc)
        else:
            h = _h_bad(f"illegal opcode {op}", method, pc)
        handlers.append(h)
        # The one hand-flagged pure handler: ``new`` cannot fault, and
        # its flush joins the pending log (a collection lands the log
        # first); ``newarr`` can fault, so it is not.
        pure.append(op == M_NEW)
    if cpu.fastpath_level >= 2:
        blocks = compile_superblocks(cm, cpu, templates)
    else:
        blocks = [None] * len(code)
    return Translation(cpu, handlers, phase2, blocks, pure)


# ---------------------------------------------------------------------------
# Superblock compilation (fastpath level 2): the fused flavour.
#
# Straight-line runs of fusible instructions are compiled — via a small
# source-level template JIT (one ``exec`` per method; the ``compile()``
# behind it is memoised by source text, see :func:`_factory_code`) —
# into single closures that execute the whole run, deferring memory
# accesses into a local batch.  The batch joins the CPU's pending log
# at block exit; the driver replays the log in one
# :meth:`~repro.hw.memsys.MemorySystem.access_run_segments` call at the
# next *observation point* (listed in ``CPU._run_fast``), so the
# accesses of many chained blocks are simulated together.  The driver
# charges a run's base cycles as ``length * instruction_cost`` in one
# step and polls the scheduler only when the quantum budget empties, so
# a fused run eliminates the per-instruction dispatch, the per-access
# call overhead, and most of the per-batch simulation setup.
#
# Bit-identity is preserved because the log keeps program order: the
# sequence of (memory access, charge, flush) events seen by the clock,
# the counters, the PEBS unit, and any observer hook is exactly the
# reference interpreter's, and everything that could *read* that state
# sits behind a drain.  Inside a block:
#
# * a **write barrier** does its remembered-set bookkeeping at once
#   (it reads neither clock nor cache) and appends its charge to the
#   log as a clock entry, splitting the access segment there
#   (unconditionally for a ref putfield, behind the runtime
#   ``kind == 'ref'`` check for an array store) — it does not drain —
#   or, in a counted region (see *Regions*), counts it and writes the
#   remembered set's filter inline;
# * a **guest fault** must observe everything queued before it — this
#   block's batch and earlier blocks' entries — so every fault routes
#   through the ``fault`` helper, which drains before raising.  It is
#   the only place generated code drains.  (What a fault leaves on the
#   *clock* is, as in the reference, the last flush — the partial
#   quantum is dropped; where the driver skipped provably idle polls
#   that flush can lie up to one budget span off, see
#   ``CPU._run_fast``.)
#
# Block boundaries (branches and their targets, calls, returns,
# allocations, unknown ALU ops) stay per-instruction, which keeps GC
# safepoints, profiler callbacks, and ``frame.pc`` anchoring untouched
# (a region's allocation anchors ``frame.pc`` and never collects).
# ---------------------------------------------------------------------------

#: Fused runs are capped so a run usually fits the remaining scheduler
#: quantum (SCHED_QUANTUM = 128); longer runs split into chained blocks.
MAX_SUPERBLOCK = 64
#: Fusing a single instruction would only add overhead.
MIN_SUPERBLOCK = 2


def _is_literal(value) -> bool:
    """May ``value`` be inlined into generated source via ``repr``?"""
    return value is None or (isinstance(value, int)
                             and not isinstance(value, bool))


def _fuses(inst, template) -> bool:
    # Everything the emitter has a straight-line case for; a shape that
    # inlines its immediate needs one that can be written as a literal.
    return (template is not None and not template.branch
            and (not template.literal or _is_literal(inst.imm)))


def superblock_ranges(code, templates=None) -> List[tuple]:
    """Partition ``code`` into fusible ``(start, stop)`` runs.

    Leaders — pcs where control can enter other than by falling through
    a fused instruction — are branch targets and the successors of every
    control transfer and allocation; a run never spans one, so a branch
    into the middle of a straight-line region starts a fresh block
    there.  A run may additionally *end* with the branch that terminates
    it (the classic superblock shape): the branch executes inside the
    closure and the closure returns the taken pc, saving one driver
    dispatch per block without moving any flush point.

    ``templates`` is ``_decode(code)`` when the caller already has it.
    """
    if templates is None:
        templates = _decode(code)
    leaders = set()
    for pc, template in enumerate(templates):
        if template is None:    # call, return, allocation (or illegal)
            leaders.add(pc + 1)
        elif template.branch:
            leaders.add(code[pc].imm)
            leaders.add(pc + 1)
    fuses = list(map(_fuses, code, templates))
    ranges = []
    n = len(code)
    pc = 0
    while pc < n:
        if not fuses[pc]:
            pc += 1
            continue
        end = pc + 1
        while (end < n and end not in leaders and end - pc < MAX_SUPERBLOCK
               and fuses[end]):
            end += 1
        stop = end
        if (end < n and end not in leaders
                and code[end].op in (M_BC, M_BR)):
            stop = end + 1
        if stop - pc >= MIN_SUPERBLOCK:
            ranges.append((pc, stop))
        pc = stop
    return ranges


class _Literal:
    """An instruction's operands as the fused flavour inlines them: a
    template's ``load`` fills in the literal value of every
    ``_OPERANDS`` field its shape mentions (an allocation's are loaded
    by hand, ``aux`` among them)."""

    __slots__ = ("pc", "aux", *_OPERANDS)

    #: The block header hoists ``frame.base`` into a local.
    fb = "fb"
    npc = property(lambda x: x.pc + 1)


def _allocates(inst) -> bool:
    """Whether an allocation may run inside a region: a ``new`` of a
    sealed class (its size is fixed) or a ``newarr`` of a known kind."""
    if inst.op == M_NEW:
        return getattr(inst.aux, "slot_template", None) is not None
    return inst.op == M_NEWARR and inst.aux in KIND_BYTES


def _counts(inst) -> bool:
    """Whether a counted ring keeps ``inst``'s clock entry as a count: an
    allocation's, a typed reference store's (other barriers stay ordered)."""
    op = inst.op
    return (op == M_NEW or op == M_NEWARR
            or op == M_PUTF and inst.aux.kind == "ref"
            or op == M_ASTORE and inst.aux == "ref")


def _block_writer(code, templates, base_eip, W, branch, unwind="",
                  leave=None, cell_max=None):
    """``(emit_block, emit_ring, consts)``: ``emit_block(start, end)``
    writes, through ``W``, the body of the fused run ``[start, end)`` —
    everything under its ``def`` line — leaving through ``branch``;
    ``emit_ring`` writes the blocks of a ring (see there); ``consts``
    collects the constants the bodies reference.  ``unwind`` is text
    put in front of every fault call (a region stores its registers
    back there); ``leave(indent, pc)`` writes a region's exit, taken by
    an allocation the inline path (to ``cell_max`` bytes) cannot serve."""
    consts: List[object] = []
    const_ids: Dict[int, str] = {}
    # The flavour's callables are made once per method; what they read
    # of the batch being emitted (``has_mem``, ``writes``/``eips``,
    # ``meta`` naming their tuples, ``shared``), the block (``has_wb``)
    # and the ring (``tail``, ``grow``) is rebound where each starts.
    has_mem = has_wb = shared = grow = False
    tail = meta = ""
    arrays = objects = ()    # the ring's invariants, by their use
    writes: List[bool] = []
    eips: List[int] = []
    wslot = 0

    def const(obj) -> str:
        key = id(obj)
        name = const_ids.get(key)
        if name is None:
            name = f"K{len(consts)}"
            const_ids[key] = name
            consts.append(obj)
        return name

    def access(address, is_write, x):
        # Appended to the batch; the is-write flag and the EIP are
        # translate-time constants and travel in the metadata tuples.
        writes.append(is_write)
        eips.append(base_eip + x.pc * INSTRUCTION_BYTES)
        W(f"        ap({address})")

    def fault(indent, message, x):
        # Earlier blocks may have queued accesses even when this one
        # has none: every fault lands the log before it raises.
        batch = f"b, {meta}, s" if has_mem else "None, None, None, 0"
        W(f"{indent}{unwind}fault({batch}, {message}, {x.pc}{tail})")

    def barrier(indent, holder, slot, value):
        # The barrier's remembered-set bookkeeping reads no clock and
        # no cache state, so it happens at once; its charge joins the
        # log behind the batch so far — the segment is split here —
        # and lands in program order at the next drain.  (``b`` is
        # never empty: the barrier's own store was appended just
        # above.)  In a ring, where the batch started is known only at
        # run time.  A counted ring counts the charge and writes the
        # remembered set's filter inline.
        nonlocal has_wb
        if tail and _counts(code[x.pc]):
            W(f"{indent}w += 1")
            W(f"{indent}if {holder}.space != {SPACE_NURSERY} and {value}"
              f" is not None and {value}.space == {SPACE_NURSERY}:")
            W(f"{indent}    remember({holder}, {slot})")
            return
        has_wb = True
        W(f"{indent}pend((b, {meta}, s))")
        W(f"{indent}pend(barrier)")
        W(f"{indent}s += len(b)" if shared else f"{indent}s = {len(writes)}")
        W(f"{indent}b = []")
        W(f"{indent}ap = b.append")
        W(f"{indent}record_store({holder}, {slot}, {value})")

    def flush(indent, size):
        # The flush the driver queues at an allocation, for its local
        # count ``n`` since the last one: in a region, the count it was
        # entered with plus what the entry has run — the allocation
        # included, which its block's ``left`` skipped.  It joins the
        # log as a barrier's charge does, splitting a shared batch — or,
        # counted, notes where, and counts the allocation for ``land``.
        if shared and has_mem and not tail:
            W(f"{indent}if b:")
            W(f"{indent}    pend((b, {meta}, s))")
            W(f"{indent}    s += len(b)")
            W(f"{indent}    b = []")
            W(f"{indent}    ap = b.append")
        W(f"{indent}left -= 1")
        W(f"{indent}m = n + budget - left")
        if tail:
            W(f"{indent}fp = len(pending)")
            if shared and has_mem:
                W(f"{indent}fo = len(b)")
            W(f"{indent}na += 1")
            W(f"{indent}ab += {size}")
            return
        W(f"{indent}pend((None, land_flush, cell[0] + m * icost, m))")
        W(f"{indent}n = left - budget")
        W(f"{indent}cell[0] = alloc_cost")
        W(f"{indent}stats.alloc_objects += 1")
        W(f"{indent}stats.alloc_bytes += {size}")

    def accesses(runs) -> bool:
        return any(template is not None and template.mem
                   for start, stop in runs
                   for template in templates[start:stop])

    def reserve() -> str:
        # Reserve the const slots for a batch's access-metadata tuples
        # now (flush and fault lines name them); ``seal`` patches them
        # in once every access has been emitted.
        nonlocal wslot, writes, eips
        wslot = len(consts)
        consts.extend((None, None))
        writes, eips = [], []
        return f"K{wslot}, K{wslot + 1}"

    def seal(repeat):
        consts[wslot] = tuple(writes) * repeat
        consts[wslot + 1] = tuple(eips) * repeat

    x = _Literal()    # re-loaded for each instruction in turn

    def emit_block(start, end):
        nonlocal has_mem, has_wb, meta
        # A fresh emitter: no fact survives a block boundary.
        emit = _Emitter(W, access, fault, barrier, const, branch, leave,
                        flush, cell_max, arrays, objects).emit
        if templates[start] is None:
            # A ring's allocation, a run of its own: it falls through.
            inst = code[start]
            x.pc, x.rd, x.rs1, x.aux = start, inst.rd, inst.rs1, inst.aux
            emit((inst.op,), x)
            x.pc = x.timm = end
            branch(None, x)
            return
        # A BC/BR terminator executes inside the closure: the return
        # value IS the taken pc, so the driver skips a whole dispatch
        # per block.
        stop = end - 1 if templates[end - 1].branch else end
        body = templates[start:stop]
        mem = accesses([(start, stop)])
        own = not shared and mem
        if not shared:
            has_mem = mem
        has_wb = False
        if own:
            meta = reserve()
            W("        b = []")
            W("        ap = b.append")
            W("        s = 0")
        elif grow and mem:
            # The entry's batch runs whatever path this forked ring
            # takes: each block grows its metadata by its own tuples.
            reserve()
            W(f"        wx(K{wslot})")
            W(f"        ex(K{wslot + 1})")
        if any(template.frame for template in body):
            W("        fb = frame.base")

        for pc in range(start, stop):
            template = templates[pc]
            x.pc = pc
            emit(template.shape, template.load(x, code[pc]))

        if own or grow and mem:
            seal(1)
        if own:
            # The batch is not simulated here: it joins the CPU's
            # pending log, replayed at the next observation point so
            # the drain's setup cost amortizes over many chained blocks.
            if has_wb:
                # A write barrier may have emptied the batch mid-block.
                W("        if b:")
                W(f"            pend((b, {meta}, s))")
            else:
                W(f"        pend((b, {meta}, s))")
        x.pc = stop
        if stop == end:
            x.timm = end    # falls through: an unconditional branch on
            branch(None, x)
        else:
            emit(templates[stop].shape, templates[stop].load(x, code[stop]))

    def emit_ring(ring, enter, most, counts, invariants):
        """Write the blocks of ``ring`` in order — ``enter(j, start,
        stop)`` writes what goes in front of the ``j``-th — appending
        to ONE batch the caller opens and pends, and return the names of
        its metadata (``None`` if the ring accesses nothing).  Given
        ``most`` (the ring does not fork) that is the ring's, repeated
        to cover ``most`` instructions; otherwise the lists ``bw`` and
        ``be``, which each block grows by its own tuples (``wx``/``ex``)
        as the entry runs it.  ``counts`` names what a fault lands in a
        counted ring (see *Regions*); ``invariants`` the array and the
        object registers whose facts the caller hoists."""
        nonlocal has_mem, shared, grow, tail, meta, arrays, objects
        tail = counts
        arrays, objects = invariants
        shared = has_mem = accesses(ring)
        grow = shared and most is None
        if shared:
            meta = "bw, be" if grow else reserve()
        for j, (start, stop) in enumerate(ring):
            enter(j, start, stop)
            emit_block(start, stop)
        tail = ""
        batch = meta if shared else None
        if shared and not grow:
            seal(-(-most // sum(stop - start for start, stop in ring)))
        shared = grow = False
        return batch

    return emit_block, emit_ring, consts


#: A counted ring's helpers: ``land`` pends batch ``b``; the flush of
#: ``m`` instructions at entry ``p``, ``o`` accesses in, where the last of
#: ``na`` allocations (``ab`` bytes) left it — only they charge ``cell``
#: inside an entry, so what it held there is rebuilt from the count; and
#: the charge of ``w`` barriers (the remembered set counts them too).
_LAND = """\
    pending = pend.__self__
    remset = plan.remset
    remember = remset.remember
    def land(b, writes, eips, s, w=0, m=0, p=0, o=0, na=0, ab=0):
        if b:
            pend((b, writes, eips, s))
        if na:
            if o:
                a, writes, eips, s = pending[p]
                p += 1
                if o < len(a):
                    pending[p - 1:p] = ((a[:o], writes, eips, s),
                                        (a[o:], writes, eips, s + o))
            c = cell[0] + (na - 1) * alloc_cost
            pending.insert(p, (None, land_flush, c + m * icost, m))
            cell[0] = alloc_cost
            stats.alloc_objects += na
            stats.alloc_bytes += ab
        if w:
            pend((None, barrier[1], w * barrier[2], 0))
            remset.barrier_stores += w
    def fault(b, writes, eips, s, message, pc, *counts):
        land(b, writes, eips, s, *counts)""".split("\n")


def _factory_source(body, consts, names, extra=(), kept=False) -> str:
    """The factory around the closures ``names`` defined by ``body``: it
    binds the CPU-specific services (and the ``extra`` ones a region
    takes) once and returns the closures (``kept``: with ``_LAND``)."""
    lines = ["def _factory(cell, pend, drain, record_store, barrier, "
             "static_addr, GuestError, method, consts"
             + "".join(f", {name}" for name in extra) + "):"]
    if consts:
        lines.append(f"    ({', '.join(f'K{i}' for i in range(len(consts)))},)"
                     " = consts")
    lines += _LAND if kept else [
        "    def fault(b, writes, eips, s, message, pc):",
        "        if b:",
        "            pend((b, writes, eips, s))"]
    lines.append("        cell[0] += drain()")
    lines.append("        raise GuestError(message, method, pc)")
    lines.extend(body)
    lines.append(f"    return [{', '.join(names)}]")
    return "\n".join(lines) + "\n"


def superblock_source(cm, templates=None) -> tuple:
    """The factory source for all of ``cm``'s superblocks.

    Returns ``(source, consts, ranges)``; ``None`` when the method has
    no fusible run.  The factory returns the block closures in
    ``ranges`` order.  ``templates`` is ``_decode(cm.code)`` when the
    caller already has it.
    """
    code = cm.code
    if templates is None:
        templates = _decode(code)
    ranges = superblock_ranges(code, templates)
    if not ranges:
        return None
    body: List[str] = []
    emit_block, _, consts = _block_writer(code, templates, cm.code_addr,
                                          body.append, _returns(body.append))
    for start, end in ranges:
        body.append(f"    def _sb_{start}(frame, regs, slots):")
        emit_block(start, end)
    names = [f"_sb_{start}" for start, _ in ranges]
    return _factory_source(body, consts, names), consts, ranges


# ---------------------------------------------------------------------------
# Regions: the fused flavour's third form.  A *ring* — a loop whose runs
# may fork forward and rejoin, and allocate, with no call or unfusible
# instruction on the path — compiles to ONE function that keeps
# iterating without returning to the driver: guest registers live in
# Python locals, the blocks sit in pc order in a ``while True`` (one not
# simply fallen into from the block before is guarded by ``pc``), the
# quantum budget is tested inline before each block, and every exit
# (the loop's own, a side exit, the budget, an allocation only the
# driver can serve) stores the written registers back and returns
# ``(next pc, instructions executed, n)`` — ``n`` the driver's local
# count, which the allocation flushes the region queued restart.  An
# allocation bumps the nursery up to ``top``, read once per entry.  An
# entry appends to ONE access batch, pended at that exit (a barrier or
# an allocation splits it, a fault pends it before it drains): a ring
# that does not fork names the ring's metadata tuples, repeated; in one
# that forks each block with accesses grows the entry's metadata lists
# by its own tuples (``wx``/``ex``) as it runs.  Either way the log
# holds what the driver queues running the same blocks one dispatch at
# a time, in the same order — unless no hook reads the clock mid-replay
# (``CPU.counted``): then a typed reference store and an inline
# allocation split no batch.  The store counts ``w`` and tests the
# barrier's filter inline, calling ``remember`` only for a slot it
# passes; the allocation counts ``na`` and its bytes ``ab``.  Each exit
# or fault lands one charge for the ``w`` barriers (and adds them to
# ``barrier_stores``), the allocation statistics, and one flush where
# the last allocation's would be (``land``), as every earlier one only
# adds: inside an entry only its allocations charge ``cell``, so what
# it held there is ``na - 1`` costs past what it held at entry.
#
# A register the ring never writes is a *ring invariant*.  Used as an
# array or an object base in a block every trip runs (one no in-ring
# edge jumps over), its facts are computed once per entry (``_HOISTS``)
# and read from locals, with every null and bounds test kept: the
# register keeps its entry value, no collection runs inside a region
# (addresses, ``slots``/``elements`` lists and spaces stand still), and
# an array never changes length or kind.  An element access to the
# address the previous one queued reuses it (``_Emitter.element``).  A
# use on a rare fork hoists nothing, so a short entry pays no prologue.
# ---------------------------------------------------------------------------

def _ring_runs(code, templates, ranges) -> Dict[int, int]:
    """``{start: stop}`` of the runs a ring may be made of: the fused
    runs, and runs of one — every allocation :func:`_allocates` admits,
    every branch no fused run ends with."""
    runs = dict(ranges)
    ends = set(runs.values())
    for pc, template in enumerate(templates):
        if template is None:
            if _allocates(code[pc]):
                runs[pc] = pc + 1
        elif template.branch and pc + 1 not in ends:
            runs[pc] = pc + 1
    return runs


def _run_successors(code, templates, start, stop) -> set:
    """Where control goes after the run ``[start, stop)``."""
    template = templates[stop - 1]
    if template is None or not template.branch:
        return {stop}
    last = code[stop - 1]
    return {last.imm, stop} if last.op == M_BC else {last.imm}


def superblock_rings(code, templates=None, ranges=None) -> List[List[tuple]]:
    """The rings among the runs of ``code``, each a list of ``(start,
    stop)`` runs in pc order, the header first.

    A ring closes where a run (the *tail*) leads back to a fused run at
    or above it (the *header*).  Its members are the runs reached from
    the header by edges that go forward, up to the tail — so the body
    may fork and rejoin — and the tail must be one of them.  Every other
    edge (the loop's exit, a branch to a pc that starts no run, any
    backward branch but the tail's) is a side exit.  Besides the fused
    runs, allocations and lone branches are runs (:func:`_ring_runs`);
    a call or an unfusible instruction on the path is not, so a loop
    through one forms no ring.  The rule is structural, not a hotness
    threshold; a run belongs to at most one ring, inner loops first.
    """
    if templates is None:
        templates = _decode(code)
    if ranges is None:
        ranges = superblock_ranges(code, templates)
    fused = dict(ranges)
    runs = _ring_runs(code, templates, ranges)
    rings, claimed = [], set()
    for tail in sorted(runs):
        for header in _run_successors(code, templates, tail, runs[tail]):
            if header > tail or header not in fused:
                continue
            members, todo = {header}, [header]
            while todo:
                start = todo.pop()
                for pc in _run_successors(code, templates, start,
                                          runs[start]):
                    if start < pc <= tail and pc in runs \
                            and pc not in members:
                        members.add(pc)
                        todo.append(pc)
            if tail in members and not members & claimed:
                claimed |= members
                rings.append([(pc, runs[pc]) for pc in sorted(members)])
    return rings


#: A guest register in emitted text; a line that writes one.
_REG = re.compile(r"regs\[(\d+)\]")
_REG_WRITE = re.compile(r" *regs\[(\d+)\] = ")
#: Stands for a region's register store-back until every block of the
#: ring has been emitted (only then is the written set known).
_STORE_BACK = "<store back>; "
#: What a region's prologue computes of a ring-invariant array, and of
#: an object, in register ``r{0}``: every name ``None`` where it holds
#: no such value (a use reached then fails, as the reference's would).
_HOISTS = (("e{0} = r{0}.elements; n{0} = len(e{0}); d{0} = r{0}.address"
            " + 12; z{0} = r{0}.esize; k{0} = r{0}.kind == 'ref'",
            "e{0} = n{0} = d{0} = z{0} = k{0}"),
           ("p{0} = r{0}.address; f{0} = r{0}.slots", "p{0} = f{0}"))


def region_source(cm, templates=None, ranges=None, counted=False,
                  cell_max=GCConfig.max_cell_bytes) -> tuple:
    """The factory source for ``cm``'s regions in the ordered or the
    ``counted`` form, under the plan's cell limit ``cell_max``:
    ``(source, consts, rings)``, ``None`` if no ring."""
    code = cm.code
    if templates is None:
        templates = _decode(code)
    rings = superblock_rings(code, templates, ranges)
    if not rings:
        return None
    out: List[str] = ["    nursery, stats = plan.nursery, plan.stats"]
    mentioned, written = set(), set()
    pad = "    "    # into the ``while True``; one level more in a guard
    start = None    # of the block being written

    def local(match) -> str:
        mentioned.add(int(match[1]))
        return f"r{match[1]}"

    def W(line):
        # The emitter's text with ``regs[k]`` renamed to the local
        # ``rk``, re-indented into the ring's ``while True:``.
        write = _REG_WRITE.match(line)
        if write is not None:
            written.add(int(write[1]))
        out.append(pad + _REG.sub(local, line))

    def leave(indent, pc):
        W(f"{indent}pc = {pc}")
        W(f"{indent}break")

    def branch(test, x):
        # Edges inside the ring stay in the text — telling a guarded
        # block its pc; the next one in the text, or from the tail the
        # header, is simply reached — and the others leave.
        taken, fall = x.timm, x.npc
        edges = {taken} if test is None or taken == fall else {taken, fall}
        stays = edges & here[start]
        if len(edges) == 2 and len(stays) != 1:    # both guarded, or out
            W(f"        pc = {taken} if {test} else {fall}")
            if not stays:
                W("        break")
            return
        if len(edges) == 2:
            W(f"        if {test}:" if fall in stays
              else f"        if not ({test}):")
            leave("            ", taken if fall in stays else fall)
        elif not stays:
            leave("        ", taken)
        for pc in stays & guarded:
            W(f"        pc = {pc}")

    def fits(first, stop):
        W(f"        if left < {stop - first}:")
        leave("            ", first)

    def enter(j, first, stop):
        nonlocal pad, start
        start = first
        if first in guarded:
            pad = "    "
            W(f"        if pc == {first}:")
            pad = "        "
        if j:            # the driver admitted the first block
            fits(first, stop)
        if templates[first] is not None:    # an allocation counts itself
            W(f"        left -= {stop - first}")

    # The most instructions one entry runs: the driver hands a region at
    # most a ``BUDGET_QUANTA``-quanta budget, and admits its first block
    # whatever is left of it.
    from repro.hw.cpu import BUDGET_QUANTA, SCHED_QUANTUM
    ceiling = BUDGET_QUANTA * SCHED_QUANTUM
    _, emit_ring, consts = _block_writer(code, templates, cm.code_addr, W,
                                         branch, _STORE_BACK, leave, cell_max)
    kept = False
    for ring in rings:
        top = len(out)
        mentioned.clear()
        written.clear()
        starts = [run[0] for run in ring]
        header, tail = starts[0], starts[-1]
        here = {run[0]: {pc for pc in _run_successors(code, templates, *run)
                         if pc in starts and (pc > run[0] or run[0] == tail)}
                for run in ring}
        # A block needs a guard unless its one way in is from the block
        # before it in the text, whose one way on it is.
        guarded = {b for a, b in zip(starts, starts[1:])
                   if here[a] != {b} or any(b in here[c] for c in starts
                                            if c != a)}
        counts = ", w, m, fp, fo, na, ab" * (counted and any(
            _counts(code[pc]) for run in ring for pc in range(*run)))
        # The registers the ring never writes that a block every trip
        # runs (one no in-ring edge jumps over) uses as an array or an
        # object: their facts are computed once, in the prologue.
        jumped = {b for a in starts for c in here[a] for b in starts
                  if a < b < c}
        every = [code[pc] for first, stop in ring if first not in jumped
                 for pc in range(first, stop)]
        invariants = [sorted({inst.rs1 for inst in every if inst.op in ops})
                      for ops in ((M_ALOAD, M_ASTORE, M_LEN),
                                  (M_GETF, M_PUTF))]
        if invariants != [[], []]:
            defined = {reg for run in ring for pc in range(*run)
                       for reg in uses_defs(code[pc])[1]}
            invariants = [[reg for reg in regs if reg not in defined]
                          for regs in invariants]
        batch = emit_ring(ring, enter, None if guarded else
                          ceiling + ring[0][1] - ring[0][0], counts,
                          invariants)
        pad = "    "
        fits(*ring[0])
        store = "; ".join(f"regs[{reg}] = r{reg}"
                          for reg in sorted(written)) or "pass"
        opening = closing = []
        if batch is not None:    # opened at entry, pended at the one exit
            opening = [f"        {line}" for line in
                       ("b = []", "ap = b.append", "s = 0")
                       + ("bw = []", "be = []", "wx = bw.extend",
                          "ex = be.extend") * bool(guarded)]
            closing = ["        if b:", f"            pend((b, {batch}, s))"]
        if counts:               # kept from entry, landed at the exit
            kept = True
            opening = opening + ["        w = m = fp = fo = na = ab = 0"]
            closing = ["        land(%s%s)" % (
                f"b, {batch}, s" if batch else "None, None, None, 0",
                counts)]
        if any(templates[pc] is None for pc in starts):
            # Only a collection moves the nursery's top, and only the
            # driver's slow path collects.
            opening = (["        top = nursery.base + nursery.capacity"]
                       + opening)
        hoists = [f"        try:\n            {facts}\n        except "
                  f"Exception:\n            {names} = None".format(reg)
                  for (facts, names), regs in zip(_HOISTS, invariants)
                  for reg in regs]
        out[top:] = (
            [f"    def _rg_{header}(frame, regs, slots, budget, n):"]
            + [f"        r{reg} = regs[{reg}]" for reg in sorted(mentioned)]
            + hoists + opening + ["        left = budget",
                                  "        while True:"]
            + [line.replace(_STORE_BACK, store + "; ")
               for line in out[top:]]
            + [f"        {store}"] + closing
            + ["        return pc, budget - left, n + budget - left"
               + " - m" * bool(counts)])
    names = [f"_rg_{ring[0][0]}" for ring in rings]
    # Besides the plain services, a region binds the allocation path's.
    extra = ("plan", "land_flush", "icost", "alloc_cost", "HeapObject",
             "HeapArray")
    return _factory_source(out, consts, names, extra, kept), consts, rings


#: Distinct factory sources kept compiled — about three times what the
#: whole suite translates (311 methods, shared library code included),
#: at a few KB of source and code object each.
_CODE_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=_CODE_MEMO_SIZE)
def _factory_code(source: str, filename: str):
    """``compile()`` memoised by text: nothing per-CPU or per-run is in
    the source (EIPs and objects travel in ``consts``), so a guest's
    second translation in the process — every further spec of a figure
    matrix, every restored snapshot — reuses the first one's code."""
    return compile(source, filename, "exec")


def compile_superblocks(cm, cpu, templates=None) -> List:
    """Build the per-pc superblock table for ``cm`` bound to ``cpu``
    (``templates`` is ``_decode(cm.code)`` when the caller has it):
    ``(length, closure, is_region, rate)`` where a fused run starts — at
    a ring's header the closure is the region and ``length`` its first
    block's — and ``None`` everywhere else.

    ``rate`` bounds the cycles per instruction the closure adds to the
    clock, the PEBS unit's charges aside: a block's worst case (every
    access a TLB miss to memory, every store a barrier's, every
    allocation its cost) over its length — for a region, which runs
    whole blocks of its ring, the densest block's."""
    if templates is None:
        templates = _decode(cm.code)
    blocks: List = [None] * len(cm.code)
    built = superblock_source(cm, templates)
    if built is None:
        return blocks
    plan = cpu.runtime.plan
    config, gc_config = cpu.config, plan.config
    access = (config.tlb.miss_penalty + config.l1.hit_latency
              + config.l2.hit_latency + config.memory_latency)
    worst = [config.instruction_cost
             + access * (template is not None and template.mem)
             + gc_config.write_barrier_cost * (inst.op in (M_PUTF, M_ASTORE))
             + gc_config.alloc_cost * (template is None)
             for inst, template in zip(cm.code, templates)]

    def rate(runs):
        return max(-(-sum(worst[start:stop]) // (stop - start))
                   for start, stop in runs)
    services = (cpu._cyc_cell, cpu._pending.append, cpu.drain_accesses,
                plan.remset.record_store,
                (None, plan.hooks.land_charge, plan.config.write_barrier_cost,
                 0),
                cpu.runtime.static_addr, GuestError, cm.method)

    def closures(source, consts, kind, *extra):
        filename = f"<{kind} {cm.method.qualified_name}>"
        namespace: Dict[str, object] = {}
        exec(_factory_code(source, filename), namespace)
        return namespace["_factory"](*services, tuple(consts), *extra)

    source, consts, ranges = built
    for (start, stop), closure in zip(ranges,
                                      closures(source, consts, "superblock")):
        blocks[start] = (stop - start, closure, False,
                         rate([(start, stop)]))
    built = region_source(cm, templates, ranges, cpu.counted,
                          gc_config.max_cell_bytes)
    if built is not None:
        source, consts, rings = built
        for ring, closure in zip(rings, closures(
                source, consts, "region", plan, cpu._land_flush,
                cpu.config.instruction_cost, plan.config.alloc_cost,
                HeapObject, HeapArray)):
            start, stop = ring[0]
            blocks[start] = (stop - start, closure, True, rate(ring))
    return blocks
