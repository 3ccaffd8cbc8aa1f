"""Disassembler and listing utilities for compiled guest code.

Formats the three levels a sample travels through — bytecode, HIR, and
machine code — side by side with the map information (bytecode index,
HIR id, GC maps, interest pairs), which makes the EIP-resolution
pipeline of section 4.2 inspectable by eye.

Used by ``python -m repro disasm <benchmark> <Class.method>`` and by the
examples; handy when debugging compiler changes.
"""

from __future__ import annotations

from typing import Optional

from repro.hw.isa import OP_NAMES, M_BC, M_BR
from repro.jit.codecache import LEVEL_OPT, CompiledMethod
from repro.vm.bytecode import BRANCH_OPS
from repro.vm.model import ClassInfo, FieldInfo, MethodInfo


def _operand(value) -> str:
    if value is None:
        return ""
    if isinstance(value, FieldInfo):
        return value.qualified_name
    if isinstance(value, MethodInfo):
        return value.qualified_name
    if isinstance(value, ClassInfo):
        return value.name
    if isinstance(value, tuple):
        return "(" + ", ".join(_operand(v) for v in value) + ")"
    return repr(value)


def format_bytecode(method: MethodInfo) -> str:
    """Numbered bytecode listing with resolved operands."""
    lines = [f"bytecode of {method.qualified_name} "
             f"(args={method.arg_kinds}, returns={method.return_kind}, "
             f"max_locals={method.max_locals}):"]
    for index, instr in enumerate(method.code):
        operands = " ".join(
            _operand(v) for v in (instr.a, instr.b) if v is not None)
        marker = "->" if instr.op in BRANCH_OPS else "  "
        lines.append(f"  {index:>4d} {marker} {instr.op:<12s} {operands}")
    return "\n".join(lines)


def format_machine_code(cm: CompiledMethod,
                        interest: Optional[dict] = None) -> str:
    """Machine-code listing with EIPs, maps, and interest annotations.

    ``interest`` is the method's instructions-of-interest table
    (ir_id -> FieldInfo); matching instructions are flagged with the
    field their misses would be attributed to.
    """
    kind = "opt" if cm.level == LEVEL_OPT else "baseline"
    lines = [f"{kind} code of {cm.method.qualified_name} "
             f"@ {cm.code_addr:#x} ({len(cm.code)} instructions, "
             f"{cm.reg_count} regs, {cm.frame_words} frame words):"]
    for pc, inst in enumerate(cm.code):
        eip = cm.eip_of_pc(pc)
        fields = []
        if inst.rd is not None:
            fields.append(f"r{inst.rd} <-")
        for reg in (inst.rs1, inst.rs2):
            if reg is not None:
                fields.append(f"r{reg}")
        if inst.op in (M_BR, M_BC):
            fields.append(f"-> pc {inst.imm}")
        elif inst.imm is not None:
            fields.append(f"#{inst.imm!r}" if not isinstance(inst.imm, tuple)
                          else f"args={inst.imm}")
        if inst.aux is not None:
            fields.append(_operand(inst.aux))
        annotations = []
        if pc in cm.gc_maps:
            roots = ",".join(f"{k}{i}" for k, i in cm.gc_maps[pc])
            annotations.append(f"[gc: {roots or 'none'}]")
        if interest and inst.ir_id in interest:
            annotations.append(
                f"[interest -> {interest[inst.ir_id].qualified_name}]")
        bc = f"bc={inst.bc_index}" if inst.bc_index >= 0 else ""
        lines.append(
            f"  {eip:#010x} {OP_NAMES[inst.op]:<10s} "
            f"{' '.join(fields):<40s} {bc:<8s} {' '.join(annotations)}"
            .rstrip())
    return "\n".join(lines)


def format_compiled_method(cm: CompiledMethod,
                           interest: Optional[dict] = None) -> str:
    """Full listing: bytecode plus annotated machine code."""
    return (format_bytecode(cm.method) + "\n\n"
            + format_machine_code(cm, interest))
