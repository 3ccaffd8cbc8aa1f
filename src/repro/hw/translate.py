"""One-time translation of compiled guest code into Python closures.

The reference interpreter in :mod:`repro.hw.cpu` pays a ~20-way
``if/elif`` dispatch chain — plus string compares on ``inst.aux`` and
attribute loads on the :class:`~repro.hw.isa.MInst` — for every
simulated instruction.  All of that work depends only on values that
are *constant once a method is compiled*: the opcode, the register
numbers, the field offset, the branch target, the ALU operation, and
the instruction's EIP (``code_addr + pc * 4``).

This module resolves all of it exactly once per
:class:`~repro.jit.codecache.CompiledMethod`: :func:`translate` maps
each instruction to a specialized closure (a "template" instantiated
with the operands baked in as default arguments, which CPython loads as
fast locals), and execution becomes threaded dispatch —
``pc = handlers[pc](frame, regs, slots)`` — with zero per-step operand
decoding.  It is a template JIT for the simulator's own hot loop, the
same once-against-the-profile-stable-operands trade the paper's online
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
  :attr:`Translation.phase2` (collection may only happen there).
* Anything that is **not** constant after compilation stays a runtime
  lookup, exactly as in the reference: ``arr.esize`` / ``arr.kind``,
  vtable dispatch through the receiver, and ``static_addr`` (whose
  lazy base assignment depends on first-touch order).

Translations close over the CPU's bound services, so they are cached
per ``(CompiledMethod, CPU)`` and rebuilt if either changes; the code
cache drops them when a method is recompiled (see
:meth:`~repro.jit.codecache.CodeCache.note_replaced`).
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List

from repro.hw.isa import (
    GuestError, INSTRUCTION_BYTES,
    M_ALOAD, M_ALU, M_ALUI, M_ASTORE, M_BC, M_BR, M_CALL, M_CALLV,
    M_GETF, M_GETSTATIC, M_LDF, M_LEN, M_MOV, M_MOVI, M_NEW, M_NEWARR,
    M_NOP, M_NULLCHK, M_PUTF, M_PUTSTATIC, M_RET, M_STF,
)

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
    closure)`` when a superblock starts at ``pc`` and ``None``
    everywhere else (all ``None`` below fastpath level 2), so the
    driver can test eligibility with one list index.  Mid-block pcs
    are always ``None`` — a quantum split or branch landing inside a
    fused run simply executes per-instruction until the next block
    start.

    ``pure`` is the per-pc flag the driver reads before dispatching
    ``handlers[pc]`` with deferred accesses still queued: true when the
    handler neither touches the memory system, nor can fault, nor
    switches frames (moves, branches, non-faulting ALU ops, and ``new``,
    whose flush rides the queue), so nothing it does can observe that
    the queue has not landed yet.
    """

    __slots__ = ("cpu", "handlers", "phase2", "blocks", "pure")

    def __init__(self, cpu, handlers: List[Handler],
                 phase2: Dict[int, Callable], blocks: List,
                 pure: List[bool]):
        self.cpu = cpu
        self.handlers = handlers
        self.phase2 = phase2
        self.blocks = blocks
        self.pure = pure


def translation_for(cm, cpu) -> Translation:
    """The cached translation of ``cm``, built on first use."""
    tr = cm.translation
    if tr is None or tr.cpu is not cpu:
        tr = translate(cm, cpu)
        cm.translation = tr
    return tr


# ---------------------------------------------------------------------------
# Handler templates.  Operands arrive as default arguments so the inner
# function reads them as fast locals; the bodies replicate the reference
# interpreter's per-opcode semantics (including fault messages and the
# order of null/bounds checks relative to memory accesses) exactly.
# ---------------------------------------------------------------------------

def _h_movi(rd, imm, npc):
    def h(frame, regs, slots, rd=rd, imm=imm, npc=npc):
        regs[rd] = imm
        return npc
    return h


def _h_mov(rd, rs1, npc):
    def h(frame, regs, slots, rd=rd, rs1=rs1, npc=npc):
        regs[rd] = regs[rs1]
        return npc
    return h


def _h_nop(npc):
    def h(frame, regs, slots, npc=npc):
        return npc
    return h


def _h_bad(message, method, pc):
    def h(frame, regs, slots, message=message, method=method, pc=pc):
        raise GuestError(message, method, pc)
    return h


# -- ALU (register/register) ------------------------------------------------

def _h_alu_add(rd, rs1, rs2, npc):
    def h(frame, regs, slots, rd=rd, rs1=rs1, rs2=rs2, npc=npc):
        regs[rd] = regs[rs1] + regs[rs2]
        return npc
    return h


def _h_alu_sub(rd, rs1, rs2, npc):
    def h(frame, regs, slots, rd=rd, rs1=rs1, rs2=rs2, npc=npc):
        regs[rd] = regs[rs1] - regs[rs2]
        return npc
    return h


def _h_alu_mul(rd, rs1, rs2, npc):
    def h(frame, regs, slots, rd=rd, rs1=rs1, rs2=rs2, npc=npc):
        regs[rd] = regs[rs1] * regs[rs2]
        return npc
    return h


def _h_alu_and(rd, rs1, rs2, npc):
    def h(frame, regs, slots, rd=rd, rs1=rs1, rs2=rs2, npc=npc):
        regs[rd] = regs[rs1] & regs[rs2]
        return npc
    return h


def _h_alu_xor(rd, rs1, rs2, npc):
    def h(frame, regs, slots, rd=rd, rs1=rs1, rs2=rs2, npc=npc):
        regs[rd] = regs[rs1] ^ regs[rs2]
        return npc
    return h


def _h_alu_or(rd, rs1, rs2, npc):
    def h(frame, regs, slots, rd=rd, rs1=rs1, rs2=rs2, npc=npc):
        regs[rd] = regs[rs1] | regs[rs2]
        return npc
    return h


def _h_alu_shl(rd, rs1, rs2, npc):
    def h(frame, regs, slots, rd=rd, rs1=rs1, rs2=rs2, npc=npc):
        regs[rd] = (regs[rs1] << (regs[rs2] & 31)) & 0xFFFFFFFF
        return npc
    return h


def _h_alu_shr(rd, rs1, rs2, npc):
    def h(frame, regs, slots, rd=rd, rs1=rs1, rs2=rs2, npc=npc):
        regs[rd] = regs[rs1] >> (regs[rs2] & 31)
        return npc
    return h


def _h_alu_divrem(rd, rs1, rs2, npc, method, pc, rem):
    def h(frame, regs, slots, rd=rd, rs1=rs1, rs2=rs2, npc=npc,
          method=method, pc=pc, rem=rem):
        a = regs[rs1]
        b = regs[rs2]
        if b == 0:
            raise GuestError("division by zero", method, pc)
        q = abs(a) // abs(b)
        if (a >= 0) != (b >= 0):
            q = -q
        regs[rd] = a - q * b if rem else q
        return npc
    return h


_ALU_FACTORIES = {
    "add": _h_alu_add, "sub": _h_alu_sub, "mul": _h_alu_mul,
    "and": _h_alu_and, "xor": _h_alu_xor, "or": _h_alu_or,
    "shl": _h_alu_shl, "shr": _h_alu_shr,
}


# -- ALU (register/immediate) -----------------------------------------------

def _h_alui_add(rd, rs1, imm, npc):
    def h(frame, regs, slots, rd=rd, rs1=rs1, imm=imm, npc=npc):
        regs[rd] = regs[rs1] + imm
        return npc
    return h


def _h_alui_sub(rd, rs1, imm, npc):
    def h(frame, regs, slots, rd=rd, rs1=rs1, imm=imm, npc=npc):
        regs[rd] = regs[rs1] - imm
        return npc
    return h


def _h_alui_mul(rd, rs1, imm, npc):
    def h(frame, regs, slots, rd=rd, rs1=rs1, imm=imm, npc=npc):
        regs[rd] = regs[rs1] * imm
        return npc
    return h


def _h_alui_and(rd, rs1, imm, npc):
    def h(frame, regs, slots, rd=rd, rs1=rs1, imm=imm, npc=npc):
        regs[rd] = regs[rs1] & imm
        return npc
    return h


def _h_alui_shl(rd, rs1, imm, npc):
    def h(frame, regs, slots, rd=rd, rs1=rs1, sh=imm & 31, npc=npc):
        regs[rd] = (regs[rs1] << sh) & 0xFFFFFFFF
        return npc
    return h


def _h_alui_shr(rd, rs1, imm, npc):
    def h(frame, regs, slots, rd=rd, rs1=rs1, sh=imm & 31, npc=npc):
        regs[rd] = regs[rs1] >> sh
        return npc
    return h


def _h_alui_neg(rd, rs1, imm, npc):
    def h(frame, regs, slots, rd=rd, rs1=rs1, npc=npc):
        regs[rd] = -regs[rs1]
        return npc
    return h


def _h_alui_divrem(rd, rs1, imm, npc, method, pc, rem):
    def h(frame, regs, slots, rd=rd, rs1=rs1, b=imm, npc=npc,
          method=method, pc=pc, rem=rem):
        a = regs[rs1]
        if b == 0:
            raise GuestError("division by zero", method, pc)
        q = abs(a) // abs(b)
        if (a >= 0) != (b >= 0):
            q = -q
        regs[rd] = a - q * b if rem else q
        return npc
    return h


_ALUI_FACTORIES = {
    "add": _h_alui_add, "sub": _h_alui_sub, "mul": _h_alui_mul,
    "and": _h_alui_and, "shl": _h_alui_shl, "shr": _h_alui_shr,
    "neg": _h_alui_neg,
}


# -- branches ---------------------------------------------------------------

def _h_bc_eq(rs1, rs2, timm, npc):
    def h(frame, regs, slots, rs1=rs1, rs2=rs2, timm=timm, npc=npc):
        return timm if regs[rs1] == regs[rs2] else npc
    return h


def _h_bc_ne(rs1, rs2, timm, npc):
    def h(frame, regs, slots, rs1=rs1, rs2=rs2, timm=timm, npc=npc):
        return timm if regs[rs1] != regs[rs2] else npc
    return h


def _h_bc_lt(rs1, rs2, timm, npc):
    def h(frame, regs, slots, rs1=rs1, rs2=rs2, timm=timm, npc=npc):
        return timm if regs[rs1] < regs[rs2] else npc
    return h


def _h_bc_ge(rs1, rs2, timm, npc):
    def h(frame, regs, slots, rs1=rs1, rs2=rs2, timm=timm, npc=npc):
        return timm if regs[rs1] >= regs[rs2] else npc
    return h


def _h_bc_gt(rs1, rs2, timm, npc):
    def h(frame, regs, slots, rs1=rs1, rs2=rs2, timm=timm, npc=npc):
        return timm if regs[rs1] > regs[rs2] else npc
    return h


def _h_bc_le(rs1, rs2, timm, npc):
    def h(frame, regs, slots, rs1=rs1, rs2=rs2, timm=timm, npc=npc):
        return timm if regs[rs1] <= regs[rs2] else npc
    return h


def _h_bc_eq0(rs1, _rs2, timm, npc):
    def h(frame, regs, slots, rs1=rs1, timm=timm, npc=npc):
        return timm if regs[rs1] == 0 else npc
    return h


def _h_bc_ne0(rs1, _rs2, timm, npc):
    def h(frame, regs, slots, rs1=rs1, timm=timm, npc=npc):
        return timm if regs[rs1] != 0 else npc
    return h


def _h_bc_lt0(rs1, _rs2, timm, npc):
    def h(frame, regs, slots, rs1=rs1, timm=timm, npc=npc):
        return timm if regs[rs1] < 0 else npc
    return h


def _h_bc_ge0(rs1, _rs2, timm, npc):
    def h(frame, regs, slots, rs1=rs1, timm=timm, npc=npc):
        return timm if regs[rs1] >= 0 else npc
    return h


def _h_bc_gt0(rs1, _rs2, timm, npc):
    def h(frame, regs, slots, rs1=rs1, timm=timm, npc=npc):
        return timm if regs[rs1] > 0 else npc
    return h


def _h_bc_le0(rs1, _rs2, timm, npc):
    def h(frame, regs, slots, rs1=rs1, timm=timm, npc=npc):
        return timm if regs[rs1] <= 0 else npc
    return h


def _h_bc_null(rs1, _rs2, timm, npc):
    def h(frame, regs, slots, rs1=rs1, timm=timm, npc=npc):
        return timm if regs[rs1] is None else npc
    return h


def _h_bc_nonnull(rs1, _rs2, timm, npc):
    def h(frame, regs, slots, rs1=rs1, timm=timm, npc=npc):
        return timm if regs[rs1] is not None else npc
    return h


_BC_FACTORIES = {
    ("eq", True): _h_bc_eq, ("ne", True): _h_bc_ne,
    ("lt", True): _h_bc_lt, ("ge", True): _h_bc_ge,
    ("gt", True): _h_bc_gt, ("le", True): _h_bc_le,
    ("eq", False): _h_bc_eq0, ("ne", False): _h_bc_ne0,
    ("lt", False): _h_bc_lt0, ("ge", False): _h_bc_ge0,
    ("gt", False): _h_bc_gt0, ("le", False): _h_bc_le0,
    ("null", True): _h_bc_null, ("null", False): _h_bc_null,
    ("nonnull", True): _h_bc_nonnull, ("nonnull", False): _h_bc_nonnull,
}


def _h_br(timm):
    def h(frame, regs, slots, timm=timm):
        return timm
    return h


# -- memory traffic ---------------------------------------------------------

def _h_getf(cell, mem_access, rd, rs1, off, fi, eip, method, pc, npc):
    def h(frame, regs, slots, cell=cell, mem_access=mem_access, rd=rd,
          rs1=rs1, off=off, fi=fi, eip=eip, method=method, pc=pc, npc=npc):
        obj = regs[rs1]
        if obj is None:
            raise GuestError("null getfield", method, pc)
        cell[0] += mem_access(obj.address + off, False, eip)
        regs[rd] = obj.slots[fi]
        return npc
    return h


def _h_putf(cell, mem_access, rs1, rs2, off, fi, eip, method, pc, npc):
    def h(frame, regs, slots, cell=cell, mem_access=mem_access, rs1=rs1,
          rs2=rs2, off=off, fi=fi, eip=eip, method=method, pc=pc, npc=npc):
        obj = regs[rs1]
        if obj is None:
            raise GuestError("null putfield", method, pc)
        value = regs[rs2]
        cell[0] += mem_access(obj.address + off, True, eip)
        obj.slots[fi] = value
        return npc
    return h


def _h_putf_ref(cell, mem_access, wb, rs1, rs2, off, fi, eip, method, pc,
                npc):
    def h(frame, regs, slots, cell=cell, mem_access=mem_access, wb=wb,
          rs1=rs1, rs2=rs2, off=off, fi=fi, eip=eip, method=method, pc=pc,
          npc=npc):
        obj = regs[rs1]
        if obj is None:
            raise GuestError("null putfield", method, pc)
        value = regs[rs2]
        cell[0] += mem_access(obj.address + off, True, eip)
        obj.slots[fi] = value
        wb(obj, fi, value)
        return npc
    return h


def _h_aload(cell, mem_access, rd, rs1, rs2, eip, method, pc, npc):
    def h(frame, regs, slots, cell=cell, mem_access=mem_access, rd=rd,
          rs1=rs1, rs2=rs2, eip=eip, method=method, pc=pc, npc=npc):
        arr = regs[rs1]
        if arr is None:
            raise GuestError("null array load", method, pc)
        index = regs[rs2]
        elems = arr.elements
        if index < 0 or index >= len(elems):
            raise GuestError(
                f"index {index} out of bounds [0,{len(elems)})", method, pc)
        cell[0] += mem_access(arr.address + 12 + index * arr.esize,
                              False, eip)
        regs[rd] = elems[index]
        return npc
    return h


def _h_astore(cell, mem_access, wb, rd, rs1, rs2, eip, method, pc, npc):
    def h(frame, regs, slots, cell=cell, mem_access=mem_access, wb=wb,
          rd=rd, rs1=rs1, rs2=rs2, eip=eip, method=method, pc=pc, npc=npc):
        arr = regs[rs1]
        if arr is None:
            raise GuestError("null array store", method, pc)
        index = regs[rs2]
        elems = arr.elements
        if index < 0 or index >= len(elems):
            raise GuestError(
                f"index {index} out of bounds [0,{len(elems)})", method, pc)
        value = regs[rd]
        cell[0] += mem_access(arr.address + 12 + index * arr.esize,
                              True, eip)
        elems[index] = value
        # ``arr.kind`` is a runtime property of the array, not of the
        # instruction: keep the reference interpreter's check.
        if arr.kind == "ref":
            wb(arr, index, value)
        return npc
    return h


def _h_len(cell, mem_access, rd, rs1, eip, method, pc, npc):
    def h(frame, regs, slots, cell=cell, mem_access=mem_access, rd=rd,
          rs1=rs1, eip=eip, method=method, pc=pc, npc=npc):
        arr = regs[rs1]
        if arr is None:
            raise GuestError("null arraylength", method, pc)
        cell[0] += mem_access(arr.address + 8, False, eip)
        regs[rd] = len(arr.elements)
        return npc
    return h


def _h_ldf(cell, mem_access, rd, off, si, eip, npc):
    def h(frame, regs, slots, cell=cell, mem_access=mem_access, rd=rd,
          off=off, si=si, eip=eip, npc=npc):
        cell[0] += mem_access(frame.base + off, False, eip)
        regs[rd] = slots[si]
        return npc
    return h


def _h_stf(cell, mem_access, rs1, off, si, eip, npc):
    def h(frame, regs, slots, cell=cell, mem_access=mem_access, rs1=rs1,
          off=off, si=si, eip=eip, npc=npc):
        cell[0] += mem_access(frame.base + off, True, eip)
        slots[si] = regs[rs1]
        return npc
    return h


def _h_getstatic(cell, mem_access, static_addr, klass, fld, sv, fi, rd,
                 eip, npc):
    def h(frame, regs, slots, cell=cell, mem_access=mem_access,
          static_addr=static_addr, klass=klass, fld=fld, sv=sv, fi=fi,
          rd=rd, eip=eip, npc=npc):
        cell[0] += mem_access(static_addr(klass, fld), False, eip)
        regs[rd] = sv[fi]
        return npc
    return h


def _h_putstatic(cell, mem_access, static_addr, klass, fld, sv, fi, rs1,
                 eip, npc):
    def h(frame, regs, slots, cell=cell, mem_access=mem_access,
          static_addr=static_addr, klass=klass, fld=fld, sv=sv, fi=fi,
          rs1=rs1, eip=eip, npc=npc):
        cell[0] += mem_access(static_addr(klass, fld), True, eip)
        sv[fi] = regs[rs1]
        return npc
    return h


# -- calls, returns, allocation, checks -------------------------------------

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


def _h_nullchk(rs1, method, pc, npc):
    def h(frame, regs, slots, rs1=rs1, method=method, pc=pc, npc=npc):
        if regs[rs1] is None:
            raise GuestError("null receiver", method, pc)
        return npc
    return h


# ---------------------------------------------------------------------------
# The translator.
# ---------------------------------------------------------------------------

#: Opcodes whose per-instruction handler is an observation point for
#: nobody: no ``mem.access``, no fault, no frame switch (ALU/ALUI
#: qualify too when their op is one of the non-faulting factories).
#: ``new`` belongs here because its flush joins the pending log and a
#: collection lands the log first; ``newarr`` can fault, so it does not.
_PURE_OPS = frozenset({M_MOVI, M_MOV, M_NOP, M_BR, M_BC, M_NEW})


def translate(cm, cpu) -> Translation:
    """Compile ``cm``'s instruction list into closures bound to ``cpu``."""
    mem_access = cpu.mem.access
    runtime = cpu.runtime
    plan = runtime.plan
    static_addr = runtime.static_addr
    wb = plan.write_barrier
    alloc_object = plan.alloc_object
    alloc_array = plan.alloc_array
    alloc_cost = plan.config.alloc_cost
    cell = cpu._cyc_cell
    method = cm.method
    base_eip = cm.code_addr

    handlers: List[Handler] = []
    phase2: Dict[int, Callable] = {}
    pure: List[bool] = []
    for pc, inst in enumerate(cm.code):
        op = inst.op
        eip = base_eip + pc * INSTRUCTION_BYTES
        npc = pc + 1
        pure.append(op in _PURE_OPS
                    or (op == M_ALU and inst.aux in _ALU_FACTORIES)
                    or (op == M_ALUI and inst.aux in _ALUI_FACTORIES))
        if op == M_GETF:
            fld = inst.aux
            h = _h_getf(cell, mem_access, inst.rd, inst.rs1, fld.offset,
                        fld.index, eip, method, pc, npc)
        elif op == M_ALOAD:
            h = _h_aload(cell, mem_access, inst.rd, inst.rs1, inst.rs2,
                         eip, method, pc, npc)
        elif op == M_ALU:
            aux = inst.aux
            factory = _ALU_FACTORIES.get(aux)
            if factory is not None:
                h = factory(inst.rd, inst.rs1, inst.rs2, npc)
            elif aux == "div" or aux == "rem":
                h = _h_alu_divrem(inst.rd, inst.rs1, inst.rs2, npc,
                                  method, pc, aux == "rem")
            else:
                h = _h_bad(f"bad alu op {aux}", method, pc)
        elif op == M_BC:
            factory = _BC_FACTORIES.get((inst.aux, inst.rs2 is not None))
            if factory is None:
                # The reference interpreter treats any unknown condition
                # as "nonnull" (its final else); mirror that.
                factory = _h_bc_nonnull
            h = factory(inst.rs1, inst.rs2, inst.imm, npc)
        elif op == M_ALUI:
            aux = inst.aux
            factory = _ALUI_FACTORIES.get(aux)
            if factory is not None:
                h = factory(inst.rd, inst.rs1, inst.imm, npc)
            elif aux == "div" or aux == "rem":
                h = _h_alui_divrem(inst.rd, inst.rs1, inst.imm, npc,
                                   method, pc, aux == "rem")
            else:
                h = _h_bad(f"bad alui op {aux}", method, pc)
        elif op == M_MOVI:
            h = _h_movi(inst.rd, inst.imm, npc)
        elif op == M_MOV:
            h = _h_mov(inst.rd, inst.rs1, npc)
        elif op == M_LDF:
            h = _h_ldf(cell, mem_access, inst.rd, inst.imm * 4, inst.imm,
                       eip, npc)
        elif op == M_STF:
            h = _h_stf(cell, mem_access, inst.rs1, inst.imm * 4, inst.imm,
                       eip, npc)
        elif op == M_ASTORE:
            h = _h_astore(cell, mem_access, wb, inst.rd, inst.rs1,
                          inst.rs2, eip, method, pc, npc)
        elif op == M_PUTF:
            fld = inst.aux
            if fld.kind == "ref":
                h = _h_putf_ref(cell, mem_access, wb, inst.rs1, inst.rs2,
                                fld.offset, fld.index, eip, method, pc, npc)
            else:
                h = _h_putf(cell, mem_access, inst.rs1, inst.rs2,
                            fld.offset, fld.index, eip, method, pc, npc)
        elif op == M_BR:
            h = _h_br(inst.imm)
        elif op == M_LEN:
            h = _h_len(cell, mem_access, inst.rd, inst.rs1, eip, method,
                       pc, npc)
        elif op == M_CALL:
            h = _h_call(cpu, inst.aux, tuple(inst.imm), pc)
        elif op == M_CALLV:
            h = _h_callv(cell, mem_access, cpu, inst.rs1, inst.aux[1],
                         tuple(inst.imm), eip, method, pc)
        elif op == M_RET:
            h = _h_ret(cpu, inst.rs1)
        elif op == M_NEW:
            h = _h_new(pc)
            phase2[pc] = _p2_new(alloc_object, inst.aux, inst.rd,
                                 alloc_cost)
        elif op == M_NEWARR:
            h = _h_newarr(inst.rs1, method, pc)
            phase2[pc] = _p2_newarr(alloc_array, inst.aux, inst.rd,
                                    inst.rs1, alloc_cost)
        elif op == M_GETSTATIC:
            klass, fld = inst.aux
            h = _h_getstatic(cell, mem_access, static_addr, klass, fld,
                             klass.static_values, fld.index, inst.rd,
                             eip, npc)
        elif op == M_PUTSTATIC:
            klass, fld = inst.aux
            h = _h_putstatic(cell, mem_access, static_addr, klass, fld,
                             klass.static_values, fld.index, inst.rs1,
                             eip, npc)
        elif op == M_NULLCHK:
            h = _h_nullchk(inst.rs1, method, pc, npc)
        elif op == M_NOP:
            h = _h_nop(npc)
        else:
            h = _h_bad(f"illegal opcode {op}", method, pc)
        handlers.append(h)
    if getattr(cpu, "fastpath_level", 0) >= 2:
        blocks = compile_superblocks(cm, cpu)
    else:
        blocks = [None] * len(cm.code)
    return Translation(cpu, handlers, phase2, blocks, pure)


# ---------------------------------------------------------------------------
# Superblock compilation (fastpath level 2).
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
#   ``kind == 'ref'`` check for an array store) — it does not drain;
# * a **guest fault** must observe everything queued before it — this
#   block's batch and earlier blocks' entries — so every fault routes
#   through the ``fault`` helper, which drains before raising.  It is
#   the only place generated code drains.  (What a fault leaves on the
#   *clock* is, as in the reference, the last flush — the partial
#   quantum is dropped; after a straddle that flush sits at the end of
#   the straddling run rather than on the boundary inside it.)
#
# Block boundaries (branches and their targets, calls, returns,
# allocations, unknown ALU ops) stay per-instruction, which keeps GC
# safepoints, profiler callbacks, and ``frame.pc`` anchoring untouched.
# ---------------------------------------------------------------------------

#: Fused runs are capped so a run usually fits the remaining scheduler
#: quantum (SCHED_QUANTUM = 128); longer runs split into chained blocks.
MAX_SUPERBLOCK = 64
#: Fusing a single instruction would only add overhead.
MIN_SUPERBLOCK = 2

#: Opcodes a superblock may contain (ALU/ALUI additionally need a known
#: ``aux``; everything else — control flow, calls, allocations — is a
#: block breaker handled per-instruction).
_FUSIBLE_SIMPLE = frozenset({
    M_MOVI, M_MOV, M_NOP, M_NULLCHK, M_LEN, M_LDF, M_STF, M_GETF,
    M_PUTF, M_ALOAD, M_ASTORE, M_GETSTATIC, M_PUTSTATIC,
})

#: Opcodes that issue a data access (one each) inside a block.
_MEM_OPS = frozenset({
    M_GETF, M_PUTF, M_ALOAD, M_ASTORE, M_LEN, M_LDF, M_STF,
    M_GETSTATIC, M_PUTSTATIC,
})

_ALU_EXPRS = {
    "add": "{a} + {b}", "sub": "{a} - {b}", "mul": "{a} * {b}",
    "and": "{a} & {b}", "xor": "{a} ^ {b}", "or": "{a} | {b}",
}

#: The bounds-fault message, verbatim from the reference interpreter
#: (``i``/``e`` are the generated index/elements locals).
_BOUNDS_MSG = 'f"index {i} out of bounds [0,{len(e)})"'


def _is_literal(value) -> bool:
    """May ``value`` be inlined into generated source via ``repr``?"""
    return value is None or (isinstance(value, int)
                             and not isinstance(value, bool))


def fusible(inst) -> bool:
    """Whether one instruction may live inside a superblock."""
    op = inst.op
    if op in _FUSIBLE_SIMPLE:
        return op != M_MOVI or _is_literal(inst.imm)
    if op == M_ALU:
        return inst.aux in _ALU_FACTORIES or inst.aux in ("div", "rem")
    if op == M_ALUI:
        return _is_literal(inst.imm) and inst.imm is not None and (
            inst.aux in _ALUI_FACTORIES or inst.aux in ("div", "rem"))
    return False


def superblock_ranges(code) -> List[tuple]:
    """Partition ``code`` into fusible ``(start, stop)`` runs.

    Leaders — pcs where control can enter other than by falling through
    a fused instruction — are branch targets and the successors of every
    control transfer and allocation; a run never spans one, so a branch
    into the middle of a straight-line region starts a fresh block
    there.  A run may additionally *end* with the branch that terminates
    it (the classic superblock shape): the branch executes inside the
    closure and the closure returns the taken pc, saving one driver
    dispatch per block without moving any flush point.
    """
    leaders = set()
    for pc, inst in enumerate(code):
        op = inst.op
        if op == M_BC or op == M_BR:
            leaders.add(inst.imm)
            leaders.add(pc + 1)
        elif op in (M_CALL, M_CALLV, M_RET, M_NEW, M_NEWARR):
            leaders.add(pc + 1)
    ranges = []
    n = len(code)
    pc = 0
    while pc < n:
        if not fusible(code[pc]):
            pc += 1
            continue
        end = pc + 1
        while (end < n and end not in leaders and end - pc < MAX_SUPERBLOCK
               and fusible(code[end])):
            end += 1
        stop = end
        if (end < n and end not in leaders
                and code[end].op in (M_BC, M_BR)):
            stop = end + 1
        if stop - pc >= MIN_SUPERBLOCK:
            ranges.append((pc, stop))
        pc = stop
    return ranges


#: Comparison operators of the two-operand / vs-zero BC conditions.
_BC_OPERATORS = {"eq": "==", "ne": "!=", "lt": "<", "ge": ">=",
                 "gt": ">", "le": "<="}


def _bc_condition(inst) -> str:
    """The Python expression of a BC terminator's taken-test."""
    a = f"regs[{inst.rs1}]"
    aux = inst.aux
    if aux == "null":
        return f"{a} is None"
    op = _BC_OPERATORS.get(aux)
    if op is not None:
        if inst.rs2 is not None:
            return f"{a} {op} regs[{inst.rs2}]"
        return f"{a} {op} 0"
    # The reference interpreter treats any unknown condition as
    # "nonnull" (its final else); mirror that.
    return f"{a} is not None"


def _emit_block(out, consts, const_ids, code, start, end, base_eip):
    """Append the source of the fused closure for ``code[start:end]``."""

    def const(obj) -> str:
        key = id(obj)
        name = const_ids.get(key)
        if name is None:
            name = f"K{len(consts)}"
            const_ids[key] = name
            consts.append(obj)
        return name

    insts = [code[pc] for pc in range(start, end)]
    term = insts.pop() if insts[-1].op in (M_BC, M_BR) else None
    has_mem = any(inst.op in _MEM_OPS for inst in insts)
    has_frame = any(inst.op == M_LDF or inst.op == M_STF for inst in insts)
    writes: List[bool] = []
    eips: List[int] = []
    if has_mem:
        # Reserve the const slots for the block's access-metadata
        # tuples now (they are referenced by flush/fault lines) and
        # patch them in once every access has been emitted.
        wslot = len(consts)
        wname = f"K{wslot}"
        consts.append(None)
        eslot = len(consts)
        ename = f"K{eslot}"
        consts.append(None)

    def meta(is_write: bool, eip: int) -> None:
        writes.append(is_write)
        eips.append(eip)

    W = out.append
    W(f"    def _sb_{start}(frame, regs, slots):")
    if has_mem:
        W("        b = []")
        W("        ap = b.append")
        W("        s = 0")
    if has_frame:
        W("        fb = frame.base")

    has_wb = False

    def emit_fault(indent, msg_expr, pc):
        # Earlier blocks may have queued accesses even when this one
        # has none: every fault lands the log before it raises.
        if has_mem:
            W(f"{indent}fault(b, {wname}, {ename}, s, {msg_expr}, {pc})")
        else:
            W(f"{indent}fault(None, None, None, 0, {msg_expr}, {pc})")

    def emit_barrier(indent, args):
        # The barrier's remembered-set bookkeeping reads no clock and
        # no cache state, so it happens at once; its charge joins the
        # log behind the batch so far — the segment is split here —
        # and lands in program order at the next drain.  (``b`` is
        # never empty: the barrier's own store was appended just
        # above.)
        nonlocal has_wb
        has_wb = True
        W(f"{indent}pend((b, {wname}, {ename}, s))")
        W(f"{indent}pend(barrier)")
        W(f"{indent}s = {len(writes)}")
        W(f"{indent}b = []")
        W(f"{indent}ap = b.append")
        W(f"{indent}record_store({args})")

    # Redundancy elimination: track which register each scratch local
    # (``a``/``i``/``o``) currently mirrors, which registers are proven
    # non-null by an earlier check in this block, and whether the
    # current (array, index) pair has already passed its bounds check —
    # so repeated accesses through the same registers skip the reloads
    # and the provably-passing checks.  Eliding a check never changes
    # behavior: it is only elided when the same unmodified register
    # already passed one (which fault message would have fired is then
    # moot), and an array store cannot change ``len(elements)``.  Any
    # write to a register drops every fact about it; div/rem clobbers
    # the ``a`` scratch local.
    a_reg = i_reg = o_reg = None
    e_valid = bounds_ok = False
    nonnull = set()

    def invalidate(rd):
        nonlocal a_reg, i_reg, o_reg, e_valid, bounds_ok
        nonnull.discard(rd)
        if rd == a_reg:
            a_reg = None
            e_valid = bounds_ok = False
        if rd == i_reg:
            i_reg = None
            bounds_ok = False
        if rd == o_reg:
            o_reg = None

    def bind_array(rs1, msg_expr, pc):
        nonlocal a_reg, e_valid, bounds_ok
        if a_reg != rs1:
            W(f"        a = regs[{rs1}]")
            a_reg = rs1
            e_valid = bounds_ok = False
        if rs1 not in nonnull:
            W("        if a is None:")
            emit_fault("            ", msg_expr, pc)
            nonnull.add(rs1)

    def bind_index_and_bounds(rs2, pc):
        nonlocal i_reg, e_valid, bounds_ok
        if i_reg != rs2:
            W(f"        i = regs[{rs2}]")
            i_reg = rs2
            bounds_ok = False
        if not e_valid:
            W("        e = a.elements")
            e_valid = True
        if not bounds_ok:
            W("        if i < 0 or i >= len(e):")
            emit_fault("            ", _BOUNDS_MSG, pc)
            bounds_ok = True

    def bind_object(rs1, msg_expr, pc):
        nonlocal o_reg
        if o_reg != rs1:
            W(f"        o = regs[{rs1}]")
            o_reg = rs1
        if rs1 not in nonnull:
            W("        if o is None:")
            emit_fault("            ", msg_expr, pc)
            nonnull.add(rs1)

    for offset, inst in enumerate(insts):
        pc = start + offset
        eip = base_eip + pc * INSTRUCTION_BYTES
        op = inst.op
        if op == M_MOVI:
            W(f"        regs[{inst.rd}] = {inst.imm!r}")
            invalidate(inst.rd)
            if inst.imm is not None:
                nonnull.add(inst.rd)
        elif op == M_MOV:
            W(f"        regs[{inst.rd}] = regs[{inst.rs1}]")
            known = inst.rs1 in nonnull
            invalidate(inst.rd)
            if known and inst.rd != inst.rs1:
                nonnull.add(inst.rd)
        elif op == M_NOP:
            pass
        elif op == M_NULLCHK:
            if inst.rs1 not in nonnull:
                W(f"        if regs[{inst.rs1}] is None:")
                emit_fault("            ", "'null receiver'", pc)
                nonnull.add(inst.rs1)
        elif op == M_ALU or op == M_ALUI:
            if op == M_ALU:
                a, b = f"regs[{inst.rs1}]", f"regs[{inst.rs2}]"
                shift = f"(regs[{inst.rs2}] & 31)"
            else:
                a, b = f"regs[{inst.rs1}]", repr(inst.imm)
                shift = repr(inst.imm & 31)
            aux = inst.aux
            if aux in _ALU_EXPRS and (op == M_ALU or aux != "neg"):
                W(f"        regs[{inst.rd}] = "
                  + _ALU_EXPRS[aux].format(a=a, b=b))
            elif aux == "neg":
                W(f"        regs[{inst.rd}] = -{a}")
            elif aux == "shl":
                W(f"        regs[{inst.rd}] = "
                  f"(({a} << {shift}) & 0xFFFFFFFF)")
            elif aux == "shr":
                W(f"        regs[{inst.rd}] = {a} >> {shift}")
            else:  # div / rem — replicate the reference's rounding
                W(f"        a = {a}")
                W(f"        v = {b}")
                W("        if v == 0:")
                emit_fault("            ", "'division by zero'", pc)
                W("        q = abs(a) // abs(v)")
                W("        if (a >= 0) != (v >= 0):")
                W("            q = -q")
                if aux == "div":
                    W(f"        regs[{inst.rd}] = q")
                else:
                    W(f"        regs[{inst.rd}] = a - q * v")
                a_reg = None    # ``a`` scratch local clobbered
                e_valid = bounds_ok = False
            invalidate(inst.rd)
            nonnull.add(inst.rd)    # arithmetic yields an int
        elif op == M_LDF:
            meta(False, eip)
            W(f"        ap(fb + {inst.imm * 4})")
            W(f"        regs[{inst.rd}] = slots[{inst.imm}]")
            invalidate(inst.rd)
        elif op == M_STF:
            meta(True, eip)
            W(f"        ap(fb + {inst.imm * 4})")
            W(f"        slots[{inst.imm}] = regs[{inst.rs1}]")
        elif op == M_GETF:
            fld = inst.aux
            bind_object(inst.rs1, "'null getfield'", pc)
            meta(False, eip)
            W(f"        ap(o.address + {fld.offset})")
            W(f"        regs[{inst.rd}] = o.slots[{fld.index}]")
            invalidate(inst.rd)
        elif op == M_PUTF:
            fld = inst.aux
            bind_object(inst.rs1, "'null putfield'", pc)
            meta(True, eip)
            if fld.kind == "ref":
                W(f"        v = regs[{inst.rs2}]")
                W(f"        ap(o.address + {fld.offset})")
                W(f"        o.slots[{fld.index}] = v")
                emit_barrier("        ", f"o, {fld.index}, v")
            else:
                W(f"        ap(o.address + {fld.offset})")
                W(f"        o.slots[{fld.index}] = regs[{inst.rs2}]")
        elif op == M_ALOAD:
            bind_array(inst.rs1, "'null array load'", pc)
            bind_index_and_bounds(inst.rs2, pc)
            meta(False, eip)
            W("        ap(a.address + 12 + i * a.esize)")
            W(f"        regs[{inst.rd}] = e[i]")
            invalidate(inst.rd)
        elif op == M_ASTORE:
            bind_array(inst.rs1, "'null array store'", pc)
            bind_index_and_bounds(inst.rs2, pc)
            W(f"        v = regs[{inst.rd}]")
            meta(True, eip)
            W("        ap(a.address + 12 + i * a.esize)")
            W("        e[i] = v")
            # ``a.kind`` is a runtime property; only the ref case has a
            # write barrier (and hence splits the segment).
            W("        if a.kind == 'ref':")
            emit_barrier("            ", "a, i, v")
        elif op == M_LEN:
            bind_array(inst.rs1, "'null arraylength'", pc)
            meta(False, eip)
            W("        ap(a.address + 8)")
            if e_valid:
                W(f"        regs[{inst.rd}] = len(e)")
            else:
                W(f"        regs[{inst.rd}] = len(a.elements)")
            invalidate(inst.rd)
            nonnull.add(inst.rd)    # a length is an int
        elif op == M_GETSTATIC or op == M_PUTSTATIC:
            klass, fld = inst.aux
            kk, kf = const(klass), const(fld)
            ksv = const(klass.static_values)
            # ``static_addr`` stays a runtime call at access-append time:
            # its lazy base assignment depends on first-touch order.
            if op == M_GETSTATIC:
                meta(False, eip)
                W(f"        ap(static_addr({kk}, {kf}))")
                W(f"        regs[{inst.rd}] = {ksv}[{fld.index}]")
                invalidate(inst.rd)
            else:
                meta(True, eip)
                W(f"        ap(static_addr({kk}, {kf}))")
                W(f"        {ksv}[{fld.index}] = regs[{inst.rs1}]")
        else:  # pragma: no cover — superblock_ranges only admits the above
            raise AssertionError(f"unfusible op {op} in superblock")

    if has_mem:
        consts[wslot] = tuple(writes)
        consts[eslot] = tuple(eips)
        # The batch is not simulated here: it joins the CPU's pending
        # log, replayed at the next observation point so the drain's
        # setup cost amortizes over many chained blocks.
        if has_wb:
            # A write barrier may have emptied the batch mid-block.
            W("        if b:")
            W(f"            pend((b, {wname}, {ename}, s))")
        else:
            W(f"        pend((b, {wname}, {ename}, s))")
    # A BC/BR terminator executes inside the closure: the return value
    # IS the taken pc, so the driver skips a whole dispatch per block.
    if term is None:
        W(f"        return {end}")
    elif term.op == M_BR:
        W(f"        return {term.imm}")
    else:
        W(f"        return {term.imm} if {_bc_condition(term)} "
          f"else {end}")


def superblock_source(cm) -> tuple:
    """The factory source for all of ``cm``'s superblocks.

    Returns ``(source, consts, ranges)``; ``None`` when the method has
    no fusible run.  The factory binds the CPU-specific services once
    and returns the block closures in ``ranges`` order.
    """
    ranges = superblock_ranges(cm.code)
    if not ranges:
        return None
    consts: List[object] = []
    const_ids: Dict[int, str] = {}
    body: List[str] = []
    for start, end in ranges:
        _emit_block(body, consts, const_ids, cm.code, start, end,
                    cm.code_addr)
    lines = ["def _factory(cell, pend, drain, record_store, barrier, "
             "static_addr, GuestError, method, consts):"]
    if consts:
        names = ", ".join(f"K{i}" for i in range(len(consts)))
        lines.append(f"    ({names},) = consts")
    lines.append("    def fault(b, writes, eips, s, message, pc):")
    lines.append("        if b:")
    lines.append("            pend((b, writes, eips, s))")
    lines.append("        cell[0] += drain()")
    lines.append("        raise GuestError(message, method, pc)")
    lines.extend(body)
    names = ", ".join(f"_sb_{start}" for start, _ in ranges)
    lines.append(f"    return [{names}]")
    return "\n".join(lines) + "\n", consts, ranges


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


def compile_superblocks(cm, cpu) -> List:
    """Build the per-pc superblock table for ``cm`` bound to ``cpu``."""
    built = superblock_source(cm)
    blocks: List = [None] * len(cm.code)
    if built is None:
        return blocks
    source, consts, ranges = built
    filename = f"<superblock {cm.method.qualified_name}>"
    namespace: Dict[str, object] = {}
    exec(_factory_code(source, filename), namespace)
    plan = cpu.runtime.plan
    closures = namespace["_factory"](
        cpu._cyc_cell, cpu._pending.append, cpu.drain_accesses,
        plan.remset.record_store,
        (None, cpu._land_barrier, plan.config.write_barrier_cost, 0),
        cpu.runtime.static_addr, GuestError, cm.method, tuple(consts))
    for (start, end), closure in zip(ranges, closures):
        blocks[start] = (end - start, closure)
    return blocks
