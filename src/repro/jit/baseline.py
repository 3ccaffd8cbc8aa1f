"""The baseline compiler.

Mirrors Jikes RVM's "simple and quick" baseline compiler (section 3.2):
each bytecode is expanded in isolation, with the operand stack and the
locals kept in *frame memory* (``LDF``/``STF`` traffic).  The code is
fast to produce and slow to run — the gap the adaptive optimization
system exists to close.

Because the expansion is per-bytecode, the machine-code map (one
bytecode index per machine instruction) falls out for free — the paper
notes this mapping "is already performed for methods that are compiled
with the baseline compiler" (section 4.2).  GC maps are emitted at GC
points (allocations and calls) from the bytecode type analysis.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.hw.isa import (
    MInst,
    M_ALOAD, M_ALU, M_ALUI, M_ASTORE, M_BC, M_BR, M_CALL, M_CALLV,
    M_GETF, M_GETSTATIC, M_LDF, M_LEN, M_MOVI, M_NEW, M_NEWARR, M_PUTF,
    M_PUTSTATIC, M_RET, M_STF,
)
from repro.jit.codecache import LEVEL_BASELINE, CompiledMethod
from repro.vm.bytecode import T_REF, Analysis, analyze
from repro.vm.model import MethodInfo

_BINOPS = {
    "iadd": "add", "isub": "sub", "imul": "mul", "idiv": "div",
    "irem": "rem", "iand": "and", "ior": "or", "ixor": "xor",
    "ishl": "shl", "ishr": "shr",
}


def _ref_map(analysis: Analysis, pc: int, max_locals: int) -> Tuple:
    """GC map at bytecode ``pc``: every ref-typed local and stack slot."""
    state = analysis.state_at(pc)
    roots = []
    for i, t in enumerate(state.locals):
        if t == T_REF:
            roots.append(("s", i))
    for j, t in enumerate(state.stack):
        if t == T_REF:
            roots.append(("s", max_locals + j))
    return tuple(roots)


def compile_baseline(method: MethodInfo) -> CompiledMethod:
    """Compile ``method`` with the baseline strategy."""
    analysis = analyze(method)
    code = method.code
    max_locals = method.max_locals
    out: List[MInst] = []
    bc_starts: List[int] = [0] * len(code)
    gc_maps: Dict[int, Tuple] = {}
    fixups: List[Tuple[int, int]] = []  # (machine pc, target bytecode index)
    max_args = method.num_args

    def slot(depth: int) -> int:
        return max_locals + depth

    def emit(op: int, bci: int, **kw) -> MInst:
        inst = MInst(op, bc_index=bci, **kw)
        out.append(inst)
        return inst

    for bci, instr in enumerate(code):
        bc_starts[bci] = len(out)
        if analysis.states[bci] is None:
            continue  # unreachable bytecode: no code, no targets
        d = analysis.stack_depth(bci)
        op = instr.op

        if op == "iconst":
            emit(M_MOVI, bci, rd=0, imm=instr.a)
            emit(M_STF, bci, rs1=0, imm=slot(d))
        elif op == "aconst_null":
            emit(M_MOVI, bci, rd=0, imm=None)
            emit(M_STF, bci, rs1=0, imm=slot(d))
        elif op in ("iload", "rload"):
            emit(M_LDF, bci, rd=0, imm=instr.a)
            emit(M_STF, bci, rs1=0, imm=slot(d))
        elif op in ("istore", "rstore"):
            emit(M_LDF, bci, rd=0, imm=slot(d - 1))
            emit(M_STF, bci, rs1=0, imm=instr.a)
        elif op in _BINOPS:
            emit(M_LDF, bci, rd=0, imm=slot(d - 2))
            emit(M_LDF, bci, rd=1, imm=slot(d - 1))
            emit(M_ALU, bci, rd=0, rs1=0, rs2=1, aux=_BINOPS[op])
            emit(M_STF, bci, rs1=0, imm=slot(d - 2))
        elif op == "ineg":
            emit(M_LDF, bci, rd=0, imm=slot(d - 1))
            emit(M_ALUI, bci, rd=0, rs1=0, aux="neg")
            emit(M_STF, bci, rs1=0, imm=slot(d - 1))
        elif op == "dup":
            emit(M_LDF, bci, rd=0, imm=slot(d - 1))
            emit(M_STF, bci, rs1=0, imm=slot(d))
        elif op == "pop":
            pass  # depth bookkeeping only
        elif op == "swap":
            emit(M_LDF, bci, rd=0, imm=slot(d - 2))
            emit(M_LDF, bci, rd=1, imm=slot(d - 1))
            emit(M_STF, bci, rs1=1, imm=slot(d - 2))
            emit(M_STF, bci, rs1=0, imm=slot(d - 1))
        elif op == "goto":
            fixups.append((len(out), instr.a))
            emit(M_BR, bci)
        elif op == "if_icmp":
            emit(M_LDF, bci, rd=0, imm=slot(d - 2))
            emit(M_LDF, bci, rd=1, imm=slot(d - 1))
            fixups.append((len(out), instr.b))
            emit(M_BC, bci, rs1=0, rs2=1, aux=instr.a)
        elif op == "ifz":
            emit(M_LDF, bci, rd=0, imm=slot(d - 1))
            fixups.append((len(out), instr.b))
            emit(M_BC, bci, rs1=0, aux=instr.a)
        elif op in ("ifnull", "ifnonnull"):
            emit(M_LDF, bci, rd=0, imm=slot(d - 1))
            fixups.append((len(out), instr.a))
            emit(M_BC, bci, rs1=0, aux=op[2:])
        elif op == "getfield":
            emit(M_LDF, bci, rd=0, imm=slot(d - 1))
            emit(M_GETF, bci, rd=1, rs1=0, aux=instr.a)
            emit(M_STF, bci, rs1=1, imm=slot(d - 1))
        elif op == "putfield":
            emit(M_LDF, bci, rd=0, imm=slot(d - 2))
            emit(M_LDF, bci, rd=1, imm=slot(d - 1))
            emit(M_PUTF, bci, rs1=0, rs2=1, aux=instr.a)
        elif op == "getstatic":
            emit(M_GETSTATIC, bci, rd=0,
                 aux=(instr.a.declaring_class, instr.a))
            emit(M_STF, bci, rs1=0, imm=slot(d))
        elif op == "putstatic":
            emit(M_LDF, bci, rd=0, imm=slot(d - 1))
            emit(M_PUTSTATIC, bci, rs1=0,
                 aux=(instr.a.declaring_class, instr.a))
        elif op == "new":
            gc_maps[len(out)] = _ref_map(analysis, bci, max_locals)
            emit(M_NEW, bci, rd=0, aux=instr.a)
            emit(M_STF, bci, rs1=0, imm=slot(d))
        elif op == "newarray":
            emit(M_LDF, bci, rd=0, imm=slot(d - 1))
            gc_maps[len(out)] = _ref_map(analysis, bci, max_locals)
            emit(M_NEWARR, bci, rd=1, rs1=0, aux=instr.a)
            emit(M_STF, bci, rs1=1, imm=slot(d - 1))
        elif op == "arraylength":
            emit(M_LDF, bci, rd=0, imm=slot(d - 1))
            emit(M_LEN, bci, rd=1, rs1=0)
            emit(M_STF, bci, rs1=1, imm=slot(d - 1))
        elif op == "arrload":
            emit(M_LDF, bci, rd=0, imm=slot(d - 2))
            emit(M_LDF, bci, rd=1, imm=slot(d - 1))
            emit(M_ALOAD, bci, rd=2, rs1=0, rs2=1, aux=instr.a)
            emit(M_STF, bci, rs1=2, imm=slot(d - 2))
        elif op == "arrstore":
            emit(M_LDF, bci, rd=0, imm=slot(d - 3))
            emit(M_LDF, bci, rd=1, imm=slot(d - 2))
            emit(M_LDF, bci, rd=2, imm=slot(d - 1))
            emit(M_ASTORE, bci, rs1=0, rs2=1, rd=2, aux=instr.a)
        elif op in ("invokestatic", "invokevirtual"):
            if op == "invokestatic":
                target = instr.a
            else:
                target = instr.a.method(instr.b)
            n = target.num_args
            max_args = max(max_args, n)
            for k in range(n):
                emit(M_LDF, bci, rd=k, imm=slot(d - n + k))
            gc_maps[len(out)] = _ref_map(analysis, bci, max_locals)
            ret_reg = 0 if target.return_kind != "void" else None
            if op == "invokestatic":
                emit(M_CALL, bci, rd=ret_reg, imm=tuple(range(n)), aux=target)
            else:
                emit(M_CALLV, bci, rd=ret_reg, rs1=0, imm=tuple(range(n)),
                     aux=(instr.a, instr.a.vtable_slot(instr.b)))
            if ret_reg is not None:
                emit(M_STF, bci, rs1=0, imm=slot(d - n))
        elif op == "return":
            emit(M_RET, bci)
        elif op in ("ireturn", "rreturn"):
            emit(M_LDF, bci, rd=0, imm=slot(d - 1))
            emit(M_RET, bci, rs1=0)
        elif op == "nop":
            pass
        else:  # pragma: no cover - verifier rejects unknown ops
            raise ValueError(f"baseline compiler: unknown bytecode {op}")

    for machine_pc, target_bci in fixups:
        out[machine_pc].imm = bc_starts[target_bci]

    # Prologue: incoming arguments arrive in registers 0..n-1; store them
    # into their local slots.  Prepending keeps branch targets valid only
    # because we patch them afterwards, so instead we build the prologue
    # separately and shift all code offsets.
    prologue: List[MInst] = []
    for i in range(method.num_args):
        prologue.append(MInst(M_STF, rs1=i, imm=i, bc_index=0))
    shift = len(prologue)
    if shift:
        for inst in out:
            if inst.op in (M_BR, M_BC):
                inst.imm += shift
        gc_maps = {pc + shift: roots for pc, roots in gc_maps.items()}
        out = prologue + out

    frame_words = max_locals + analysis.max_stack
    reg_count = max(4, max_args + 1)
    return CompiledMethod(method, LEVEL_BASELINE, out, reg_count,
                          frame_words, gc_maps)
