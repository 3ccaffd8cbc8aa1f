"""HIR -> machine code lowering for the optimizing compiler.

Each HIR instruction lowers to (at most) one machine instruction whose
destination is the HIR value's virtual register; the per-frame register
file of the simulated CPU is wide enough that no spilling is required.
Block-boundary sync moves are sequentialized as *parallel moves* (a
scratch register breaks cycles such as the classic two-register swap).

Every emitted instruction carries its bytecode index (the extended
machine-code map of section 4.2) and its HIR instruction id, which is
how a sampled EIP resolves to an instructions-of-interest entry.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.hw.isa import (
    MInst,
    M_ALOAD, M_ALU, M_ALUI, M_ASTORE, M_BC, M_BR, M_CALL, M_CALLV,
    M_GETF, M_GETSTATIC, M_LEN, M_MOV, M_MOVI, M_NEW, M_NEWARR,
    M_NULLCHK, M_PUTF, M_PUTSTATIC, M_RET,
)
from repro.jit.hir import HIRFunction, HIRInst


def sequentialize_moves(pairs: List[Tuple[int, int]],
                        scratch: int) -> List[Tuple[int, int]]:
    """Order parallel moves ``dest <- src`` so no source is clobbered.

    Standard algorithm: repeatedly emit moves whose destination is not a
    pending source; break remaining cycles through ``scratch``.
    Self-moves are dropped.

    >>> sequentialize_moves([(0, 1), (1, 0)], scratch=9)
    [(9, 1), (1, 0), (0, 9)]
    """
    pending = [(d, s) for d, s in pairs if d != s]
    out: List[Tuple[int, int]] = []
    while pending:
        sources = {s for _, s in pending}
        progress = False
        for i, (d, s) in enumerate(pending):
            if d not in sources:
                out.append((d, s))
                del pending[i]
                progress = True
                break
        if not progress:
            # Cycle: rotate through the scratch register.
            d, s = pending[0]
            out.append((scratch, s))
            # Every pending source equal to s now lives in scratch.
            pending = [(pd, scratch if ps == s else ps) for pd, ps in pending]
    return out


def lower(func: HIRFunction) -> Tuple[List[MInst], int]:
    """Lower ``func``; returns (machine code, register count incl. scratch)."""
    scratch = func.vreg_count
    reg_count = func.vreg_count + 1
    out: List[MInst] = []
    block_start: Dict[int, int] = {}
    fixups: List[Tuple[int, int]] = []  # (machine pc, target block index)

    for block in func.blocks:
        block_start[block.index] = len(out)
        pending_moves: List[Tuple[Tuple[int, int], HIRInst]] = []

        def flush_moves() -> None:
            if not pending_moves:
                return
            pairs = [p for p, _ in pending_moves]
            info = {p: inst for p, inst in pending_moves}
            for d, s in sequentialize_moves(pairs, scratch):
                src_inst = info.get((d, s))
                bci = src_inst.bc_index if src_inst is not None else -1
                iid = src_inst.id if src_inst is not None else None
                out.append(MInst(M_MOV, rd=d, rs1=s, bc_index=bci, ir_id=iid))
            pending_moves.clear()

        for inst in block.insts:
            op = inst.op
            if op == "param":
                continue
            if op == "move":
                if inst.aux is None:
                    # Shield copy into a temp: safe to emit immediately
                    # (temps are never parallel-move destinations).
                    out.append(MInst(M_MOV, rd=inst.vreg,
                                     rs1=inst.args[0].vreg,
                                     bc_index=inst.bc_index, ir_id=inst.id))
                else:
                    pending_moves.append(
                        ((inst.vreg, inst.args[0].vreg), inst))
                continue
            # Any non-move instruction flushes accumulated sync moves
            # (they are only ever emitted directly before terminators).
            flush_moves()
            kw = dict(bc_index=inst.bc_index, ir_id=inst.id)
            if op == "const":
                out.append(MInst(M_MOVI, rd=inst.vreg, imm=inst.imm, **kw))
            elif op == "alu":
                if len(inst.args) == 1:
                    out.append(MInst(M_ALUI, rd=inst.vreg,
                                     rs1=inst.args[0].vreg, aux=inst.aux,
                                     **kw))
                else:
                    out.append(MInst(M_ALU, rd=inst.vreg,
                                     rs1=inst.args[0].vreg,
                                     rs2=inst.args[1].vreg, aux=inst.aux,
                                     **kw))
            elif op == "getfield":
                out.append(MInst(M_GETF, rd=inst.vreg,
                                 rs1=inst.args[0].vreg, aux=inst.aux, **kw))
            elif op == "putfield":
                out.append(MInst(M_PUTF, rs1=inst.args[0].vreg,
                                 rs2=inst.args[1].vreg, aux=inst.aux, **kw))
            elif op == "getstatic":
                out.append(MInst(M_GETSTATIC, rd=inst.vreg, aux=inst.aux,
                                 **kw))
            elif op == "putstatic":
                out.append(MInst(M_PUTSTATIC, rs1=inst.args[0].vreg,
                                 aux=inst.aux, **kw))
            elif op == "new":
                out.append(MInst(M_NEW, rd=inst.vreg, aux=inst.aux, **kw))
            elif op == "newarray":
                out.append(MInst(M_NEWARR, rd=inst.vreg,
                                 rs1=inst.args[0].vreg, aux=inst.aux, **kw))
            elif op == "aload":
                out.append(MInst(M_ALOAD, rd=inst.vreg,
                                 rs1=inst.args[0].vreg,
                                 rs2=inst.args[1].vreg, aux=inst.aux, **kw))
            elif op == "astore":
                out.append(MInst(M_ASTORE, rs1=inst.args[0].vreg,
                                 rs2=inst.args[1].vreg,
                                 rd=inst.args[2].vreg, aux=inst.aux, **kw))
            elif op == "len":
                out.append(MInst(M_LEN, rd=inst.vreg,
                                 rs1=inst.args[0].vreg, **kw))
            elif op == "call":
                rd = inst.vreg if inst.typ != "v" else None
                out.append(MInst(M_CALL, rd=rd,
                                 imm=tuple(a.vreg for a in inst.args),
                                 aux=inst.aux, **kw))
            elif op == "callv":
                rd = inst.vreg if inst.typ != "v" else None
                out.append(MInst(M_CALLV, rd=rd, rs1=inst.args[0].vreg,
                                 imm=tuple(a.vreg for a in inst.args),
                                 aux=inst.aux, **kw))
            elif op == "nullcheck":
                out.append(MInst(M_NULLCHK, rs1=inst.args[0].vreg, **kw))
            elif op == "ret":
                rs1 = inst.args[0].vreg if inst.args else None
                out.append(MInst(M_RET, rs1=rs1, **kw))
            elif op == "br":
                fixups.append((len(out), inst.imm))
                out.append(MInst(M_BR, **kw))
            elif op == "bc":
                rs2 = inst.args[1].vreg if len(inst.args) > 1 else None
                fixups.append((len(out), inst.imm))
                out.append(MInst(M_BC, rs1=inst.args[0].vreg, rs2=rs2,
                                 aux=inst.aux, **kw))
            else:  # pragma: no cover
                raise ValueError(f"lowering: unknown HIR op {op}")
        flush_moves()

    for pc, block_index in fixups:
        out[pc].imm = block_start[block_index]
    return out, reg_count
