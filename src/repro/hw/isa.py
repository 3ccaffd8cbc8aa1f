"""The target instruction set of the JIT compilers.

The simulated machine executes a typed load/store instruction set at
machine-instruction granularity: every instruction occupies 4 bytes of
code space and has its own EIP, which is what PEBS samples and what the
machine-code maps translate back to bytecode (section 4.2).

Design notes (DESIGN.md §5): the ISA is *functionally typed* — a field
load names its :class:`~repro.vm.model.FieldInfo` so the simulator can
read the functional state directly, while the *timing* side issues the
real byte address (``object.address + field.offset``) to the memory
hierarchy.  Register files are per-frame and effectively unbounded
(the optimizing compiler's virtual registers map 1:1).

Baseline-compiled code additionally traffics through *frame slots*
(``LDF``/``STF``): the operand stack and locals live in stack memory, so
every push/pop is a real (usually L1-hit) memory access — reproducing
the characteristic baseline/opt performance gap of Jikes RVM.
"""

from __future__ import annotations

from typing import Optional

# Opcodes.  Dense small ints; dispatch in the CPU is an if/elif chain
# ordered roughly by dynamic frequency.
M_MOVI = 0      # rd <- imm
M_MOV = 1       # rd <- rs1
M_ALU = 2       # rd <- rs1 <aux> rs2
M_ALUI = 3      # rd <- rs1 <aux> imm
M_LDF = 4       # rd <- frame[imm]          (stack-memory load)
M_STF = 5       # frame[imm] <- rs1         (stack-memory store)
M_GETF = 6      # rd <- rs1.<aux:FieldInfo>
M_PUTF = 7      # rs1.<aux:FieldInfo> <- rs2
M_ALOAD = 8     # rd <- rs1[rs2]            (aux = element kind)
M_ASTORE = 9    # rs1[rs2] <- rd            (aux = element kind)
M_LEN = 10      # rd <- rs1.length
M_BR = 11       # goto imm
M_BC = 12       # if rs1 <aux> rs2 goto imm (rs2 None: compare vs 0/null)
M_CALL = 13     # rd <- call aux:MethodInfo(args=imm tuple of regs)
M_CALLV = 14    # rd <- callv rs1.vtable[aux[1]] (aux=(ClassInfo, slot); args=imm)
M_RET = 15      # return rs1 (None for void)
M_NEW = 16      # rd <- new aux:ClassInfo           [GC point]
M_NEWARR = 17   # rd <- new aux:kind [rs1 elements] [GC point]
M_GETSTATIC = 18  # rd <- statics[aux:(ClassInfo, FieldInfo)]
M_PUTSTATIC = 19  # statics[aux] <- rs1
M_NOP = 20
M_NULLCHK = 21   # fault if rs1 is null (guards devirtualized calls)

#: Instruction encoding size in bytes (fixed-width).
INSTRUCTION_BYTES = 4

#: Opcodes that are garbage-collection points: the compilers must emit a
#: GC map for these pcs, and collection may only be triggered there.
GC_POINT_OPS = frozenset({M_CALL, M_CALLV, M_NEW, M_NEWARR})

#: Opcodes that access the data heap (candidates for PEBS data events).
HEAP_TOUCH_OPS = frozenset({
    M_GETF, M_PUTF, M_ALOAD, M_ASTORE, M_LEN, M_CALLV,
    M_GETSTATIC, M_PUTSTATIC, M_LDF, M_STF,
})

OP_NAMES = {
    M_MOVI: "movi", M_MOV: "mov", M_ALU: "alu", M_ALUI: "alui",
    M_LDF: "ldf", M_STF: "stf", M_GETF: "getf", M_PUTF: "putf",
    M_ALOAD: "aload", M_ASTORE: "astore", M_LEN: "len",
    M_BR: "br", M_BC: "bc", M_CALL: "call", M_CALLV: "callv",
    M_RET: "ret", M_NEW: "new", M_NEWARR: "newarr",
    M_GETSTATIC: "getstatic", M_PUTSTATIC: "putstatic", M_NOP: "nop",
    M_NULLCHK: "nullchk",
}

#: ALU operation names accepted in ``aux`` of M_ALU/M_ALUI.
ALU_OPS = ("add", "sub", "mul", "div", "rem", "and", "or", "xor",
           "shl", "shr", "neg")

#: Branch conditions accepted in ``aux`` of M_BC.
BC_CONDS = ("eq", "ne", "lt", "ge", "gt", "le", "null", "nonnull")


class MInst:
    """One machine instruction.

    ``bc_index`` is the bytecode index this instruction was compiled
    from (the machine-code map entry), and ``ir_id`` is the HIR
    instruction id for opt-compiled code (resolution target of the
    instructions-of-interest table).
    """

    __slots__ = ("op", "rd", "rs1", "rs2", "imm", "aux", "bc_index", "ir_id")

    def __init__(self, op: int, rd: Optional[int] = None,
                 rs1: Optional[int] = None, rs2: Optional[int] = None,
                 imm=None, aux=None, bc_index: int = -1,
                 ir_id: Optional[int] = None):
        self.op = op
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.aux = aux
        self.bc_index = bc_index
        self.ir_id = ir_id

    def __getstate__(self):
        return (self.op, self.rd, self.rs1, self.rs2, self.imm, self.aux,
                self.bc_index, self.ir_id)

    def __setstate__(self, state):
        (self.op, self.rd, self.rs1, self.rs2, self.imm, self.aux,
         self.bc_index, self.ir_id) = state

    def __repr__(self) -> str:
        parts = [OP_NAMES.get(self.op, f"op{self.op}")]
        for label, value in (("rd", self.rd), ("rs1", self.rs1),
                             ("rs2", self.rs2), ("imm", self.imm),
                             ("aux", self.aux)):
            if value is not None:
                parts.append(f"{label}={value!r}")
        return f"<{' '.join(parts)} bc={self.bc_index}>"


class GuestError(Exception):
    """A guest-program fault (null dereference, bounds, division by zero)."""

    def __init__(self, message: str, method=None, pc: Optional[int] = None):
        self.method = method
        self.pc = pc
        where = f" at {method.qualified_name}:{pc}" if method is not None else ""
        super().__init__(message + where)
