"""The optimizing compiler pipeline.

bytecode -> HIR (use-def form) -> local optimizations -> machine code,
with liveness-derived GC maps and the full per-instruction bytecode /
HIR maps the monitoring system needs (section 4.2).  The produced
:class:`CompiledMethod` keeps its HIR attached: the monitoring
controller runs the instructions-of-interest filter over it right after
compilation ("filtering of instructions of interest at method
compilation time", section 5.1).
"""

from __future__ import annotations

from repro.jit.codecache import LEVEL_OPT, CompiledMethod
from repro.jit.devirt import devirtualize
from repro.jit.hir import build_hir
from repro.jit.inline import inlined_view
from repro.jit.liveness import compute_gc_maps
from repro.jit.lowering import lower
from repro.jit.optimizer import optimize
from repro.vm.model import MethodInfo


def compile_opt(method: MethodInfo, *, inline: bool = True,
                devirt: bool = True) -> CompiledMethod:
    """Compile ``method`` at the optimizing level.

    With ``inline`` enabled, small static callees are expanded first
    (see :mod:`repro.jit.inline`) — both a speed optimization and an
    enabler for the instructions-of-interest analysis, which walks
    use-def edges within one method's HIR.
    """
    source = method
    if inline:
        shadow = inlined_view(method)
        if shadow is not None:
            source = shadow
    func = build_hir(source)
    devirt_sites = devirtualize(func) if devirt else 0
    optimize(func)
    code, reg_count = lower(func)
    ref_vregs = {v for v, types in func.vreg_types.items() if "r" in types}
    gc_maps = compute_gc_maps(code, ref_vregs)
    # Opt code keeps everything in registers: no frame-memory slots.
    # The compiled method's identity stays the *original* method even
    # when the HIR came from the inlined shadow.
    cm = CompiledMethod(method, LEVEL_OPT, code, reg_count,
                        frame_words=0, gc_maps=gc_maps, hir=func)
    cm.devirt_sites = devirt_sites
    return cm
