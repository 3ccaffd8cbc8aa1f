#!/usr/bin/env python3
"""A tour of the HPM sampling stack, layer by layer.

Drives the monitoring infrastructure *standalone* — no benchmark, just
synthetic memory traffic — to show each stage of section 4:

1. the PEBS unit samples every n-th L1 miss with randomized low
   interval bits, writing 40-byte records into the DS buffer,
2. the watermark interrupt hands batches to the perfmon kernel module,
3. the user-space library drains the kernel buffer with one batched
   copy (no per-sample JNI calls),
4. the resolver maps raw EIPs back through the sorted method table and
   the extended machine-code maps to bytecode and reference fields.

Run:  python examples/sampling_tour.py
"""

import random

from repro import PEBSConfig, PerfmonConfig
from repro.core.config import MachineConfig
from repro.hw.memsys import MemorySystem
from repro.hw.pebs import SAMPLE_BYTES, PEBSUnit
from repro.perfmon.kernel import PerfmonKernelModule
from repro.perfmon.userlib import UserSampleLibrary


def main() -> None:
    charged = []
    kernel = PerfmonKernelModule(PerfmonConfig())
    pebs = PEBSUnit(PEBSConfig(), charged.append,
                    lambda batch: kernel.session.on_interrupt(batch),
                    rng=random.Random(42))
    session = kernel.create_session(pebs, "L1D_MISS", interval=50)
    userlib = UserSampleLibrary(session, PerfmonConfig(), charged.append)

    mem = MemorySystem(MachineConfig())
    mem.arm_event("L1D_MISS", pebs.on_event)

    # Synthetic traffic: a pointer-chase over 64 KB (4x the L1) —
    # essentially every access misses L1.
    print("=== 1+2: PEBS sampling with watermark interrupts ===")
    rng = random.Random(7)
    for i in range(20_000):
        addr = 0x1000_0000 + rng.randrange(0, 64 * 1024) // 4 * 4
        mem.access(addr, False, eip=0x0800_0000 + (i % 400) * 4)
    mem.sync_counters()
    print(f"L1 misses generated : {mem.counters.read('L1D_MISS'):,}")
    print(f"samples taken       : {pebs.samples_taken:,} "
          f"(interval 50, low bits randomized)")
    print(f"watermark interrupts: {pebs.interrupts_raised} "
          f"(DS buffer {pebs.config.ds_capacity} samples, "
          f"watermark {pebs.config.watermark:.0%})")
    print(f"cycles charged      : {sum(charged):,} "
          "(microcode + interrupts)")

    print("\n=== 3: the user library's batched copy ===")
    eips = userlib.read_samples()
    print(f"one poll drained    : {len(eips)} samples "
          f"({userlib.polls} JNI round trip)")
    print(f"library buffer      : {userlib.capacity} samples (80 KB / "
          f"{SAMPLE_BYTES} B records)")

    print("\n=== 4: resolving raw EIPs to source constructs ===")
    # Build a tiny program so the code cache has real methods and maps.
    from repro import CompilationPlan, Program, SystemConfig
    from repro.vm.vmcore import VM
    from repro.workloads.synth import Fn

    p = Program("tour")
    app = p.define_class("App")
    app.seal()
    box = p.define_class("Box")
    box.add_field("inner", "ref")
    box.seal()
    fn = Fn(p, app, "poke", args=["ref"], returns="int")
    fn.rload(0).getfield(box, "inner").emit("arraylength").iret()
    poke = fn.finish()
    main_fn = Fn(p, app, "main")
    b = main_fn.local()
    main_fn.new(box).rstore(b)
    main_fn.rload(b).iconst(4).emit("newarray", "int").putfield(box, "inner")
    with main_fn.loop(40):
        main_fn.rload(b).call(poke).emit("pop")
    main_fn.ret()
    p.set_main(main_fn.finish())

    vm = VM(p, SystemConfig(),
            compilation_plan=CompilationPlan([poke.qualified_name]))
    vm.run()
    cm = poke.current_code
    print(f"method table lookup : EIP {cm.code_addr:#x} -> "
          f"{cm.method.qualified_name} (sorted table, code never moves)")
    for pc, inst in enumerate(cm.code):
        eip = cm.eip_of_pc(pc)
        print(f"  EIP {eip:#x}: pc={pc:<2d} bytecode index="
              f"{cm.bc_map[pc]:<2d} ir={cm.ir_map[pc]}")
    interest = vm.controller.resolver.interest_table(cm)
    print(f"instructions of interest (S, f): "
          f"{{{', '.join(f'{k}: {v.qualified_name}' for k, v in interest.items())}}}")
    print("\n(the arraylength's base comes from the reference field "
          "Box::inner, so its")
    print(" misses would be credited to Box::inner — the pair the GC's "
          "co-allocation reads.)")


if __name__ == "__main__":
    main()
