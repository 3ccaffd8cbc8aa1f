"""Class-hierarchy-based devirtualization.

A virtual call whose vtable slot has a *single* reachable implementation
across the loaded class hierarchy can be converted into a direct call:
the object-header load (vtable fetch) disappears — one data access saved
per invocation — at the price of an explicit null check that preserves
the fault semantics of the original dispatch.

This mirrors what Jikes RVM's opt compiler does with its class
hierarchy; because our guest has no dynamic class loading *during* a
run, no invalidation/guarding machinery is needed (the paper's VM would
deoptimize on conflicting class load).
"""

from __future__ import annotations

from repro.jit.hir import HIRFunction, HIRInst


def devirtualize(func: HIRFunction) -> int:
    """Convert monomorphic ``callv`` sites to direct calls in place.

    Returns the number of devirtualized sites.  Each converted site gains
    a ``nullcheck`` on the receiver directly before the call.
    """
    converted = 0
    next_id = 1 + max((inst.id for inst in func.all_insts()), default=0)
    for block in func.blocks:
        out = []
        for inst in block.insts:
            if inst.op == "callv":
                klass, slot = inst.aux
                target = klass.monomorphic_target(slot)
                if target is not None:
                    receiver = inst.args[0]
                    check = HIRInst(next_id, "nullcheck", (receiver,),
                                    bc_index=inst.bc_index)
                    next_id += 1
                    out.append(check)
                    inst.op = "call"
                    inst.aux = target
                    converted += 1
            out.append(inst)
        block.insts = out
    return converted
