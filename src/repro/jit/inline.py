"""Bytecode-level method inlining for the optimizing compiler.

Jikes RVM's optimizing compiler inlines aggressively (the related work
discusses tuning this online, Lau et al. [20]); for the reproduction,
inlining matters for a subtler reason too: the instructions-of-interest
analysis (section 5.2) walks use-def edges *within* a method, so an
access path split across a getter — ``p.getY().i`` — only yields its
(S, f) pair after the getter body has been inlined into the caller.

The pass works on verified bytecode before HIR construction:

* only ``invokestatic`` call sites are inlined (virtual dispatch would
  need a class-hierarchy analysis and guards),
* callees must be small (``max_callee_bytecodes``), non-recursive, and
  the total growth is budgeted (``max_growth``),
* the callee's locals are relocated above the caller's frame; its
  returns become jumps to the instruction after the splice, leaving the
  return value on the operand stack — exactly where the call would have
  put it.

The resulting code is re-verified by the HIR builder's analysis, so a
bad splice cannot reach execution.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.vm.bytecode import BRANCH_OPS, Instr, branch_target
from repro.vm.model import MethodInfo

#: Callees above this bytecode count are never inlined.
MAX_CALLEE_BYTECODES = 24
#: The inlined method may grow to at most this multiple of its own size.
MAX_GROWTH = 4.0

_LOCAL_OPS = {"iload", "istore", "rload", "rstore"}


def _set_branch_target(instr: Instr, target: int) -> None:
    if instr.op in ("goto", "ifnull", "ifnonnull"):
        instr.a = target
    else:  # if_icmp, ifz
        instr.b = target


def can_inline(caller: MethodInfo, callee: MethodInfo,
               max_callee_bytecodes: int = MAX_CALLEE_BYTECODES) -> bool:
    """Is ``callee`` a safe, profitable inline candidate at this site?"""
    if callee is caller:
        return False
    if not callee.is_static:
        return False
    if len(callee.code) > max_callee_bytecodes:
        return False
    for instr in callee.code:
        # No nested calls: keeps the pass depth-1 and trivially
        # non-recursive (a self-call inside the callee stays a call).
        if instr.op in ("invokestatic", "invokevirtual"):
            return False
    return True


class _Splicer:
    """Copies one callee body into the output stream."""

    def __init__(self, out: List[Instr], callee: MethodInfo,
                 local_base: int):
        self.out = out
        self.callee = callee
        self.local_base = local_base
        #: callee bytecode index -> new index in ``out``.
        self.index_map: Dict[int, int] = {}
        self.fixups: List[Tuple[Instr, int]] = []   # (instr, callee target)
        self.end_jumps: List[Instr] = []

    def splice(self, call_site_returns: str) -> None:
        callee = self.callee
        base = self.local_base
        out = self.out
        # Prologue: the arguments sit on the operand stack, last on top;
        # store them into the relocated locals in reverse order.
        for k in reversed(range(callee.num_args)):
            kind = callee.arg_kinds[k]
            op = "rstore" if kind == "ref" else "istore"
            out.append(Instr(op, base + k))
        last = len(callee.code) - 1
        for idx, instr in enumerate(callee.code):
            self.index_map[idx] = len(out)
            op = instr.op
            if op in ("return", "ireturn", "rreturn"):
                if idx == last:
                    # Tail return: fall through into the caller.  This
                    # also keeps single-exit callees (getters!) free of
                    # block splits, so use-def chains — and therefore
                    # the instructions-of-interest analysis — flow
                    # across the inlined body.
                    continue
                # The value (if any) is already on the stack: jump to the
                # end of the splice.
                jump = Instr("goto", None)
                self.end_jumps.append(jump)
                out.append(jump)
            elif op in _LOCAL_OPS:
                out.append(Instr(op, instr.a + base))
            elif op in BRANCH_OPS:
                copy = Instr(op, instr.a, instr.b)
                self.fixups.append((copy, branch_target(instr)))
                out.append(copy)
            else:
                out.append(Instr(op, instr.a, instr.b))

    def finish(self) -> None:
        end = len(self.out)
        for instr, callee_target in self.fixups:
            _set_branch_target(instr, self.index_map[callee_target])
        for jump in self.end_jumps:
            jump.a = end


def inline_bytecode(method: MethodInfo) -> Tuple[List[Instr], int, int]:
    """Inline eligible call sites of ``method``.

    Returns ``(new code, new max_locals, inlined site count)``.  The
    original method is left untouched (instructions are copied).
    """
    code = method.code
    budget = int(len(code) * MAX_GROWTH)
    out: List[Instr] = []
    old2new: List[int] = [0] * len(code)
    caller_branches: List[Tuple[Instr, int]] = []
    extra_locals = 0
    inlined = 0

    for idx, instr in enumerate(code):
        old2new[idx] = len(out)
        op = instr.op
        if op == "invokestatic" and len(out) < budget \
                and can_inline(method, instr.a):
            callee: MethodInfo = instr.a
            # All splice sites share the slot range right above the
            # caller's frame: inlined locals are never live across
            # sites, so reuse is safe (and keeps frames small).
            splicer = _Splicer(out, callee, local_base=method.max_locals)
            splicer.splice(callee.return_kind)
            splicer.finish()
            extra_locals = max(extra_locals, callee.max_locals)
            inlined += 1
        elif op in BRANCH_OPS:
            copy = Instr(op, instr.a, instr.b)
            caller_branches.append((copy, branch_target(instr)))
            out.append(copy)
        else:
            out.append(Instr(op, instr.a, instr.b))

    for instr, old_target in caller_branches:
        _set_branch_target(instr, old2new[old_target])
    return out, method.max_locals + extra_locals, inlined


def inlined_view(method: MethodInfo) -> Optional[MethodInfo]:
    """A shadow MethodInfo with inlined code, or None if nothing inlined.

    The shadow is what the HIR builder consumes; the produced
    CompiledMethod still belongs to the original method.  Bytecode
    indices in the machine-code map then refer to the *inlined* stream
    (the call site's expansion), mirroring how real inlining maps
    machine code back through inline frames.
    """
    new_code, new_locals, count = inline_bytecode(method)
    if count == 0:
        return None
    shadow = MethodInfo(
        method.name, method.declaring_class, is_static=method.is_static,
        arg_kinds=list(method.arg_kinds), return_kind=method.return_kind,
        max_locals=new_locals, code=new_code)
    return shadow
