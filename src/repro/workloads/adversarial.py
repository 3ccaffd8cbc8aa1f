"""Adversarial workloads for the health observatory (not in Table 1).

These programs exist to *provoke* the run-health layer rather than to
reproduce a published benchmark: ``phased`` alternates between a
streaming kernel (prefetch-friendly large-array passes: low attributed
samples, no churn) and a pointer-chasing pair kernel (shuffled
parent->child dereferences with churn: high L1D miss attribution,
steady allocation) in long unrolled segments, so the per-interval HPM
vector shifts sharply several times over the run — exactly what the
online phase segmentation must pick up.

Registered in their own table so :data:`repro.workloads.suite.BENCHMARKS`
stays exactly the paper's 16 programs; :func:`repro.workloads.suite.build`
falls back here for names outside Table 1.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.jit.aos import CompilationPlan
from repro.vm.program import Program
from repro.workloads.patterns import (
    Workload,
    add_filler_methods,
    add_pair_kernel,
    add_pair_setup,
    add_stream_kernel,
    call_fillers,
    define_pair_classes,
    define_pair_factory,
    make_app_class,
)
from repro.workloads.synth import Fn


def build_phased() -> Workload:
    """Alternating stream / pointer-chase segments (a phase-shift probe).

    Four unrolled segments (stream, chase, stream, chase), each long
    enough to span many measurement periods, so the segmentation sees
    at least one committed boundary per transition under the default
    hysteresis.
    """
    BUF = 48 * 1024 // 4     # 48 KB int buffers: misses prefetch away
    STREAM_ROUNDS = 9
    N, PAYLOAD = 1400, 16    # pair table: shuffled lookups miss in L1
    CHASE_ROUNDS = 12
    p = Program("phased")
    app = make_app_class(p)
    rec = define_pair_classes(p, "Rec", pad_ints=2)
    make = define_pair_factory(p, rec, PAYLOAD, payload_span=16)
    setup = add_pair_setup(p, app, make, N)
    scan = add_pair_kernel(p, app, rec, make, n=N, churn_mask=3,
                           payload_len=PAYLOAD)
    process = add_stream_kernel(p, app, buffer_len=BUF)
    fillers = add_filler_methods(p, app, 8)

    fn = Fn(p, app, "main")
    src = fn.local()
    dst = fn.local()
    table = fn.local()
    fn.iconst(31337).putstatic(app, "rngstate")
    call_fillers(fn, app, fillers)
    fn.iconst(BUF).emit("newarray", "int").rstore(src)
    fn.iconst(BUF).emit("newarray", "int").rstore(dst)
    fn.call(setup).rstore(table)
    for segment in range(4):
        if segment % 2 == 0:
            with fn.loop(STREAM_ROUNDS):
                fn.rload(src).rload(dst).call(process)
                fn.getstatic(app, "checksum").emit("iadd")
                fn.putstatic(app, "checksum")
        else:
            with fn.loop(CHASE_ROUNDS):
                fn.rload(table).call(scan)
                fn.getstatic(app, "checksum").emit("iadd")
                fn.putstatic(app, "checksum")
    fn.ret()
    main = fn.finish()
    p.set_main(main)

    return Workload(
        name="phased", program=p,
        plan=CompilationPlan([process.qualified_name, scan.qualified_name,
                              make.qualified_name]),
        min_heap_bytes=512 * 1024,
        description="alternating stream / pointer-chase segments "
                    "(health-observatory phase-shift probe)",
        hot_fields=["Rec::data"],
    )


#: Adversarial registry: probes for the observability layers.
ADVERSARIAL: Dict[str, Callable[[], Workload]] = {
    "phased": build_phased,
}
