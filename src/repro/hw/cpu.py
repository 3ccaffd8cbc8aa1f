"""The machine-code executor.

Executes the compiled code produced by :mod:`repro.jit` with full cycle
accounting: every instruction pays its base cost, every heap/stack
access goes through :class:`repro.hw.memsys.MemorySystem` (which feeds
the event counters and the PEBS unit with the precise EIP), and the
virtual-time scheduler is polled between instruction blocks so that the
"collector thread" and the AOS timer run at the right simulated times.

The CPU is also the GC's root provider: at GC points (allocations and
calls) every frame's live references are enumerated through the
compiler-generated GC maps — exactly the structure the paper's extended
machine-code maps piggyback on.

Implementation note: the interpreter loop accumulates cycles and
instruction counts in locals and flushes them to ``self.cycles`` /
``self.instructions`` at scheduler-quantum boundaries, GC points, and
frame switches.  Reentrant charges (PEBS microcode costs arriving
through ``charge`` *during* a memory access) remain correct because
cycle accounting is purely additive.  At level 2 memory accesses, write
barrier charges and allocation flushes are not applied as they occur
but appended to an ordered log (``CPU._pending``), replayed where the
memory system or the clock can be observed (:meth:`CPU._run_fast`) —
a region's as counts landed once per exit, where nothing reads the clock.

Two drivers execute the same compiled code at three levels:

* the **reference** interpreter (:meth:`CPU._run_reference`, level 0) —
  the ``if/elif`` dispatch chain below, kept as the differential oracle,
* the **fast** driver (:meth:`CPU._run_fast`) — threaded dispatch
  through per-instruction closures built once per method by
  :mod:`repro.hw.translate` (level 1), plus whole-run dispatch through
  fused straight-line superblock closures with batched memory
  simulation wherever the translation carries one (level 2, the
  default; a level-1 translation's block table is simply empty).
  Where the runs of a method close a loop — forks and allocations
  included — level 2 runs the whole *ring* as one region function
  that keeps iterating, guest registers in Python locals, until the
  quantum budget is spent or a collection is due; and
  where every poll of the next ``BUDGET_QUANTA`` quanta is provably
  idle — the ring's own worst case and the PEBS unit's exact state
  bound the clock — that budget spans all of them.
  All kinds of closure are generated from one per-opcode emitter in
  :mod:`repro.hw.translate` — its *single* and *fused* flavours — so
  what an instruction does is written down twice in all: there, and
  in the reference chain below.

The levels are bit-identical in every observable (cycles, instructions,
memory-access order, the clock a hook reads mid-access, scheduler
events, faults); ``REPRO_FASTPATH`` (``0``/``1``/``2``) or
``SystemConfig.fastpath`` selects the level — see
:func:`repro.core.config.fastpath_level`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import MachineConfig, fastpath_level
from repro.gc import layout
from repro.hw.isa import (
    GuestError,
    M_ALOAD, M_ALU, M_ALUI, M_ASTORE, M_BC, M_BR, M_CALL, M_CALLV,
    M_GETF, M_GETSTATIC, M_LDF, M_LEN, M_MOV, M_MOVI, M_NEW, M_NEWARR,
    M_NOP, M_NULLCHK, M_PUTF, M_PUTSTATIC, M_RET, M_STF,
)
from repro.hw.memsys import MemorySystem
from repro.hw.translate import CALL_SENT, RET_SENT, translation_for
from repro.vm.objects import HeapArray, HeapObject

#: Stack-memory bytes reserved per frame (locals + operand stack).
FRAME_BYTES = 1024
MAX_FRAME_WORDS = FRAME_BYTES // 4
MAX_STACK_DEPTH = 4000

#: Fixed overhead of a call/return pair beyond its instructions.
CALL_OVERHEAD = 4

#: Instructions executed between scheduler polls.
SCHED_QUANTUM = 128
#: Quanta one budget of the fast driver spans where every poll in
#: between is provably idle (see ``_run_fast``).  Measured: the gain
#: plateaus from 4 on, and no budget is extended where a deadline is
#: nearer than this many quanta at the ring's worst case
#: (docs/INTERNALS.md, *Budget*).
BUDGET_QUANTA = 4


class Frame:
    """One activation record."""

    __slots__ = ("cm", "pc", "regs", "slots", "base")

    def __init__(self, cm, base: int):
        self.cm = cm
        self.pc = 0
        self.regs: List[object] = [None] * cm.reg_count
        self.slots: List[object] = [0] * cm.frame_words
        self.base = base

    def __repr__(self) -> str:
        return f"<frame {self.cm.method.qualified_name}@{self.pc}>"


class CPU:
    """Executes compiled guest code against the memory hierarchy.

    ``runtime`` supplies the VM services (duck-typed; see
    :class:`repro.vm.vmcore.VM`):

    * ``compiled_code_for(method)`` — returns a CompiledMethod, invoking
      the baseline compiler on first call,
    * ``plan`` — the GC plan (allocation, write barrier),
    * ``static_addr(klass, field)`` — statics-table address.
    """

    def __init__(self, config: MachineConfig, mem: MemorySystem, runtime,
                 scheduler=None, fastpath: "bool | int | None" = None):
        self.config = config
        self.mem = mem
        self.runtime = runtime
        self.scheduler = scheduler
        self.frames: List[Frame] = []
        self.cycles = 0
        self.instructions = 0
        self.exit_value = None
        self.calls = 0
        #: Execution level: 0 reference if/elif, 1 per-instruction
        #: closures, 2 superblocks (the default); see
        #: :func:`repro.core.config.fastpath_level`.
        self.fastpath_level = fastpath_level(fastpath)
        #: Shared latency accumulator the translated handlers add memory
        #: and allocation cycles into; the fastpath driver folds it into
        #: ``self.cycles`` at the same flush points as the reference loop.
        self._cyc_cell = [0]
        #: The ordered log of everything that touches the memory system
        #: or the clock between two observation points (level 2):
        #: access segments appended by superblock closures, and clock
        #: entries — a write barrier's deferred charge, an allocation's
        #: deferred flush.  ``mem.access_run_segments`` replays it in
        #: order wherever the memory system or the clock is *read* (see
        #: :meth:`_run_fast`); it is empty whenever :meth:`run` returns
        #: or raises.
        self._pending: list = []
        #: Regions keep clock entries as counts (no hook reads the clock).
        self.counted = True
        # Sentinel mailboxes: call/return handlers stash their operands
        # here for the fastpath driver (see repro.hw.translate).
        self._call_target = None
        self._call_args = None
        self._ret_value = None
        #: Optional software method profiler (repro.core.counting) invoked
        #: at every call/return boundary — the instrumentation-based
        #: alternative the paper's sampling approach is compared against.
        self.profiler = None

    # -- public API -------------------------------------------------------------

    def charge(self, cycles: int) -> None:
        """Add non-application work (GC, monitoring) to the clock."""
        self.cycles += cycles

    def drain_accesses(self) -> int:
        """Replay and clear the pending log, in order.

        Returns the latency accumulated since the log's last flush
        entry (the caller adds it to the cycle accumulator — bound to a
        local first when the target is ``self.cycles``, which the
        log's clock entries charge: ``x += f()`` reads ``x`` before
        calling ``f``).  Bound into superblock closures for their fault
        path; the driver inlines the equivalent.
        """
        pending = self._pending
        if not pending:
            return 0
        latency = self.mem.access_run_segments(pending)
        del pending[:]
        return latency

    def safepoint(self) -> None:
        """Land the pending log on the clock: a collection is about to
        read it (``GCHooks.safepoint``, before ``gc.minor``/``gc.full``
        open their span).  Addresses were computed when each access was
        queued, so objects the collector then moves are replayed where
        the reference saw them."""
        self._cyc_cell[0] += self.drain_accesses()

    def _land_flush(self, latency: int, cycles: int, n: int) -> int:
        """Log entry: a flush deferred by an allocation.  Takes the
        drain's running latency with it, as the reference's flush at
        ``new`` takes every latency since the previous flush."""
        self.cycles += latency + cycles
        self.instructions += n
        return 0

    def begin_main(self, method) -> None:
        """Push the entry frame without running (for sliced execution)."""
        cm = self.runtime.compiled_code_for(method)
        self._push_frame(cm, ())

    def gc_roots(self):
        """Enumerate live references from all frames via GC maps."""
        roots = []
        for frame in self.frames:
            gc_map = frame.cm.gc_maps.get(frame.pc)
            if gc_map is None:
                raise RuntimeError(
                    f"no GC map at {frame.cm.method.qualified_name}"
                    f":{frame.pc} — collection outside a GC point"
                )
            regs, slots = frame.regs, frame.slots
            for kind, index in gc_map:
                value = regs[index] if kind == "r" else slots[index]
                if isinstance(value, (HeapObject, HeapArray)):
                    roots.append(value)
        return roots

    # -- frames -----------------------------------------------------------------

    def _push_frame(self, cm, args) -> None:
        if len(self.frames) >= MAX_STACK_DEPTH:
            raise GuestError("stack overflow", cm.method, 0)
        if cm.frame_words > MAX_FRAME_WORDS:
            raise GuestError(
                f"frame of {cm.frame_words} words exceeds the "
                f"{MAX_FRAME_WORDS}-word frame size", cm.method, 0)
        base = layout.STACK_BASE + len(self.frames) * FRAME_BYTES
        frame = Frame(cm, base)
        frame.regs[: len(args)] = args
        self.frames.append(frame)

    # -- the interpreter loop ------------------------------------------------------

    def run(self, until_cycles: Optional[int] = None) -> None:
        """Run until the call stack empties (or a cycle deadline passes)."""
        if self.fastpath_level >= 1:
            self._run_fast(until_cycles)
        else:
            self._run_reference(until_cycles)

    def _run_fast(self, until_cycles: Optional[int] = None) -> None:
        """The fast driver: closure dispatch, fused runs, batched memory.

        Every instruction has a per-instruction closure.  ``n`` counts
        instructions locally (base cycles are ``n * instruction_cost``,
        since every instruction costs the same), memory latencies arrive
        through ``self._cyc_cell``, and both are flushed to
        ``self.cycles`` / ``self.instructions`` at scheduler-quantum
        boundaries, GC points, and frame switches — the points where the
        scheduler, the GC, and the profiler observe the clock, exactly
        as in :meth:`_run_reference`.

        At level 2 the translation also carries superblocks: when one
        starts at ``pc`` the fused closure executes the entire run, its
        memory accesses join the pending log, and the budget drops by
        the run length; a *region* entry (third field true) is handed
        the budget and ``n``, runs as many blocks of its ring as fit it
        and returns ``(next pc, instructions executed, n)`` — ``n``
        restarted by each allocation flush it queued, as below — so the
        accounting is the same.  The log is replayed in order, in one
        ``access_run_segments`` call, only where the memory system or
        the clock is *read* — the **observation points**:

        * the quantum poll and the ``until_cycles`` test,
        * a collection about to start (:meth:`safepoint`),
        * call and return (profiler, lazy compile, frame switch),
        * a per-instruction handler that issues its own ``mem.access``
          or can fault (``Translation.pure[pc]`` is false),
        * a guest fault inside a fused run,
        * the end of :meth:`run`.

        Nothing else drains.  A write barrier inside a fused run and an
        allocation that does not collect append a *clock entry* to the
        log instead (the barrier's charge; the flush the reference does
        at ``new``), so whatever a PEBS or observer hook reads of the
        clock mid-replay is what the reference shows it — where none
        reads it (``counted``) a region lands one charge and one flush
        per exit; pure per-instruction handlers (moves, branches,
        non-faulting ALU ops, ``new``) run with the log still pending.

        A run that does not fit the remaining quantum budget may still
        execute whole — *straddle* the boundary — when the poll there
        is provably idle (:meth:`_boundary_idle`): with the log landed
        the clock is exact, and neither it plus the run's worst case
        (``rate`` per instruction, from the block table) nor the hooks'
        bounded charges reach ``scheduler.next_time`` or
        ``until_cycles``.  Otherwise — and for a branch landing
        mid-block — the run is split per-instruction up to the
        boundary, which keeps sliced ``until_cycles`` replay
        bit-identical.  At level 1 the block table is all ``None`` and
        the log stays empty, so every instruction takes the
        per-instruction path.

        A region entered on a one-quantum budget gets the same proof
        for ``BUDGET_QUANTA`` quanta at its ring's ``rate``; then one
        budget spans them all: the polls in between are the ones
        proven to do nothing, the grid of later polls does not move,
        the drains merge, and the region iterates that much longer.
        Only ring instructions are bounded so: a region that leaves its
        ring (or stops at an allocation the driver serves) with more
        than a quantum left puts the budget back on the grid.  A
        collection, a lazy compile or a profiler charges the clock only
        outside a region, and scheduler events are only ever scheduled
        by other events, so ``next_time`` cannot move closer in between.

        A hook may read the clock only where the reference flushed it
        last: so nothing is granted with an observer attached, and with
        telemetry on (the PMU interrupt's handler stamps the trace)
        nothing where the DS buffer could reach its watermark before the
        next poll — a straddle's flush is not the reference's till then.

        (What a guest fault leaves on the clock is the last flush, as
        in the reference; polls skipped skip their flushes, and the
        driver flushes where it grants a span — so a dead run's clock
        can differ from the reference's by less than one budget span,
        which nothing consumes; with an observer attached it is exact.)
        """
        icost = self.config.instruction_cost
        runtime = self.runtime
        scheduler = self.scheduler
        frames = self.frames
        cell = self._cyc_cell
        cell[0] = 0
        pending = self._pending
        drain_segments = self.mem.access_run_segments
        land_flush = self._land_flush
        idle = self._boundary_idle
        budget = SCHED_QUANTUM
        extension = (BUDGET_QUANTA - 1) * SCHED_QUANTUM
        self.counted = self.mem._observed_event is None and not getattr(
            getattr(runtime, "pebs", None), "handler_reads_clock", False)

        while frames:
            frame = frames[-1]
            cm = frame.cm
            translation = translation_for(cm, self)
            handlers = translation.handlers
            phase2 = translation.phase2
            blocks = translation.blocks
            pure = translation.pure
            regs = frame.regs
            slots = frame.slots
            pc = frame.pc
            switch = False
            n = 0     # local instruction delta

            while not switch:
                blk = blocks[pc]
                if blk is not None:
                    k, fn, region, rate = blk
                    if region and budget <= SCHED_QUANTUM and idle(
                            n * icost + (budget + extension) * rate,
                            budget + extension, until_cycles):
                        # The next BUDGET_QUANTA - 1 polls are idle too,
                        # as far as the ring runs; the log has landed.
                        self.cycles += cell[0] + n * icost
                        self.instructions += n
                        cell[0] = 0
                        n = 0
                        budget += extension
                    # Hooks stay bounded up to the next poll: until
                    # then a straddle's flush is not the reference's.
                    if k > budget and not idle(n * icost + k * rate,
                                               k + SCHED_QUANTUM,
                                               until_cycles):
                        blk = None
                if blk is not None:
                    if region:
                        pc, k, n = fn(frame, regs, slots, budget, n)
                        budget -= k
                        if budget > SCHED_QUANTUM:
                            # Out of the ring (or to an allocation the
                            # driver serves) with budget to spare: back
                            # onto the poll grid.
                            budget = (budget - 1) % SCHED_QUANTUM + 1
                    else:
                        pc = fn(frame, regs, slots)
                        n += k
                        budget -= k
                else:
                    n += 1
                    # A handler that issues its own ``mem.access``, can
                    # fault, or switches frames is an observation point:
                    # the log must land first.  Pure ones leave it
                    # pending.
                    if pending and not pure[pc]:
                        cell[0] += drain_segments(pending)
                        del pending[:]
                    next_pc = handlers[pc](frame, regs, slots)
                    if next_pc >= 0:
                        pc = next_pc
                    elif next_pc == CALL_SENT:
                        self.cycles += cell[0] + n * icost + CALL_OVERHEAD
                        self.instructions += n
                        cell[0] = 0
                        n = 0
                        target = self._call_target
                        args = self._call_args
                        self._call_target = None
                        self._call_args = None
                        callee = runtime.compiled_code_for(target)
                        if self.profiler is not None:
                            self.profiler.on_call(target, self.cycles)
                        self.calls += 1
                        self._push_frame(callee, args)
                        switch = True
                    elif next_pc == RET_SENT:
                        value = self._ret_value
                        self._ret_value = None
                        self.cycles += cell[0] + n * icost
                        self.instructions += n
                        cell[0] = 0
                        n = 0
                        if self.profiler is not None:
                            self.profiler.on_return(self.cycles)
                        frames.pop()
                        if frames:
                            caller = frames[-1]
                            call_inst = caller.cm.code[caller.pc]
                            if call_inst.rd is not None:
                                caller.regs[call_inst.rd] = value
                            caller.pc += 1
                        else:
                            self.exit_value = value
                        switch = True
                    else:
                        # Allocation (GC point): flush, then run phase 2
                        # so a collection sees a consistent clock and
                        # roots.  With accesses still queued the flush
                        # joins the log behind them; a collection lands
                        # the log first (``safepoint``), and without one
                        # nothing reads the clock here.
                        pc = ~next_pc
                        if pending:
                            pending.append(
                                (None, land_flush, cell[0] + n * icost, n))
                        else:
                            self.cycles += cell[0] + n * icost
                            self.instructions += n
                        cell[0] = 0
                        n = 0
                        alloc_cost = phase2[pc](regs)
                        cell[0] += alloc_cost
                        pc += 1
                    budget -= 1

                if budget > 0:
                    continue
                # On the quantum boundary — or, after a straddle, past
                # it: land the log and flush, so the clock is exact for
                # the poll (the poll a straddle skipped was proven idle).
                straddled = budget < 0
                budget += SCHED_QUANTUM
                if pending:
                    cell[0] += drain_segments(pending)
                    del pending[:]
                self.cycles += cell[0] + n * icost
                self.instructions += n
                cell[0] = 0
                n = 0
                if not straddled:
                    if scheduler is not None:
                        next_time = scheduler.next_time
                        if next_time is not None \
                                and next_time <= self.cycles:
                            frame.pc = pc
                            scheduler.run_due(self.cycles)
                    if until_cycles is not None \
                            and self.cycles >= until_cycles:
                        frame.pc = pc
                        self.sync_counters()
                        return
        self.sync_counters()

    def _boundary_idle(self, slack: int, instructions: int,
                       until_cycles: Optional[int]) -> bool:
        """Whether every quantum poll the next ``instructions`` pass
        provably does nothing.  The log lands first, so the clock is
        ``self.cycles`` plus the cell plus what ``slack`` bounds (the
        instructions since the last flush, and these), and the hooks'
        state is exact: they must read no clock and charge no more than
        they bound for that many accesses.  Then the clock may reach
        neither the next scheduler event nor ``until_cycles``."""
        limit = self.scheduler and self.scheduler.next_time
        if until_cycles is not None and (limit is None
                                         or until_cycles < limit):
            limit = until_cycles
        if limit is not None and self.cycles + slack >= limit:
            return False
        self._cyc_cell[0] += self.drain_accesses()
        charges = self.mem.hook_charges(instructions)
        return charges is not None and (limit is None or self.cycles
                                        + self._cyc_cell[0] + slack
                                        + charges < limit)

    def _run_reference(self, until_cycles: Optional[int] = None) -> None:
        """The reference if/elif interpreter (the differential oracle)."""
        mem_access = self.mem.access
        icost = self.config.instruction_cost
        runtime = self.runtime
        scheduler = self.scheduler
        frames = self.frames
        budget = SCHED_QUANTUM
        # Dispatch constants as locals: every ``op == M_*`` test below is
        # a LOAD_FAST instead of a LOAD_GLOBAL, which is measurable at
        # one comparison chain per simulated instruction.
        (m_getf, m_aload, m_alu, m_bc, m_alui, m_movi, m_mov, m_ldf,
         m_stf, m_astore, m_putf, m_br, m_len, m_call, m_callv, m_ret,
         m_new, m_newarr, m_getstatic, m_putstatic, m_nullchk, m_nop) = (
            M_GETF, M_ALOAD, M_ALU, M_BC, M_ALUI, M_MOVI, M_MOV, M_LDF,
            M_STF, M_ASTORE, M_PUTF, M_BR, M_LEN, M_CALL, M_CALLV, M_RET,
            M_NEW, M_NEWARR, M_GETSTATIC, M_PUTSTATIC, M_NULLCHK, M_NOP)

        while frames:
            frame = frames[-1]
            cm = frame.cm
            code = cm.code
            code_addr = cm.code_addr
            regs = frame.regs
            slots = frame.slots
            fbase = frame.base
            pc = frame.pc
            switch = False
            cyc = 0   # local cycle delta
            n = 0     # local instruction delta

            while not switch:
                inst = code[pc]
                op = inst.op
                cyc += icost
                n += 1

                if op == m_getf:
                    obj = regs[inst.rs1]
                    if obj is None:
                        raise GuestError("null getfield", cm.method, pc)
                    field = inst.aux
                    cyc += mem_access(obj.address + field.offset,
                                      False, code_addr + pc * 4)
                    regs[inst.rd] = obj.slots[field.index]
                    pc += 1
                elif op == m_aload:
                    arr = regs[inst.rs1]
                    if arr is None:
                        raise GuestError("null array load", cm.method, pc)
                    index = regs[inst.rs2]
                    elems = arr.elements
                    if index < 0 or index >= len(elems):
                        raise GuestError(
                            f"index {index} out of bounds [0,{len(elems)})",
                            cm.method, pc)
                    cyc += mem_access(arr.address + 12 + index * arr.esize,
                                      False, code_addr + pc * 4)
                    regs[inst.rd] = elems[index]
                    pc += 1
                elif op == m_alu:
                    a = regs[inst.rs1]
                    b = regs[inst.rs2]
                    aux = inst.aux
                    if aux == "add":
                        regs[inst.rd] = a + b
                    elif aux == "sub":
                        regs[inst.rd] = a - b
                    elif aux == "mul":
                        regs[inst.rd] = a * b
                    elif aux == "and":
                        regs[inst.rd] = a & b
                    elif aux == "xor":
                        regs[inst.rd] = a ^ b
                    elif aux == "or":
                        regs[inst.rd] = a | b
                    elif aux == "shl":
                        regs[inst.rd] = (a << (b & 31)) & 0xFFFFFFFF
                    elif aux == "shr":
                        regs[inst.rd] = a >> (b & 31)
                    elif aux == "div" or aux == "rem":
                        if b == 0:
                            raise GuestError("division by zero", cm.method, pc)
                        q = abs(a) // abs(b)
                        if (a >= 0) != (b >= 0):
                            q = -q
                        regs[inst.rd] = q if aux == "div" else a - q * b
                    else:
                        raise GuestError(f"bad alu op {aux}", cm.method, pc)
                    pc += 1
                elif op == m_bc:
                    a = regs[inst.rs1]
                    cond = inst.aux
                    if cond == "eq":
                        taken = a == (regs[inst.rs2] if inst.rs2 is not None else 0)
                    elif cond == "ne":
                        taken = a != (regs[inst.rs2] if inst.rs2 is not None else 0)
                    elif cond == "lt":
                        taken = a < (regs[inst.rs2] if inst.rs2 is not None else 0)
                    elif cond == "ge":
                        taken = a >= (regs[inst.rs2] if inst.rs2 is not None else 0)
                    elif cond == "gt":
                        taken = a > (regs[inst.rs2] if inst.rs2 is not None else 0)
                    elif cond == "le":
                        taken = a <= (regs[inst.rs2] if inst.rs2 is not None else 0)
                    elif cond == "null":
                        taken = a is None
                    else:  # nonnull
                        taken = a is not None
                    pc = inst.imm if taken else pc + 1
                elif op == m_alui:
                    a = regs[inst.rs1]
                    b = inst.imm
                    aux = inst.aux
                    if aux == "add":
                        regs[inst.rd] = a + b
                    elif aux == "sub":
                        regs[inst.rd] = a - b
                    elif aux == "mul":
                        regs[inst.rd] = a * b
                    elif aux == "and":
                        regs[inst.rd] = a & b
                    elif aux == "shl":
                        regs[inst.rd] = (a << (b & 31)) & 0xFFFFFFFF
                    elif aux == "shr":
                        regs[inst.rd] = a >> (b & 31)
                    elif aux == "neg":
                        regs[inst.rd] = -a
                    elif aux == "div" or aux == "rem":
                        if b == 0:
                            raise GuestError("division by zero", cm.method, pc)
                        q = abs(a) // abs(b)
                        if (a >= 0) != (b >= 0):
                            q = -q
                        regs[inst.rd] = q if aux == "div" else a - q * b
                    else:
                        raise GuestError(f"bad alui op {aux}", cm.method, pc)
                    pc += 1
                elif op == m_movi:
                    regs[inst.rd] = inst.imm
                    pc += 1
                elif op == m_mov:
                    regs[inst.rd] = regs[inst.rs1]
                    pc += 1
                elif op == m_ldf:
                    cyc += mem_access(fbase + inst.imm * 4, False,
                                      code_addr + pc * 4)
                    regs[inst.rd] = slots[inst.imm]
                    pc += 1
                elif op == m_stf:
                    cyc += mem_access(fbase + inst.imm * 4, True,
                                      code_addr + pc * 4)
                    slots[inst.imm] = regs[inst.rs1]
                    pc += 1
                elif op == m_astore:
                    arr = regs[inst.rs1]
                    if arr is None:
                        raise GuestError("null array store", cm.method, pc)
                    index = regs[inst.rs2]
                    elems = arr.elements
                    if index < 0 or index >= len(elems):
                        raise GuestError(
                            f"index {index} out of bounds [0,{len(elems)})",
                            cm.method, pc)
                    value = regs[inst.rd]
                    cyc += mem_access(arr.address + 12 + index * arr.esize,
                                      True, code_addr + pc * 4)
                    elems[index] = value
                    if arr.kind == "ref":
                        runtime.plan.write_barrier(arr, index, value)
                    pc += 1
                elif op == m_putf:
                    obj = regs[inst.rs1]
                    if obj is None:
                        raise GuestError("null putfield", cm.method, pc)
                    field = inst.aux
                    value = regs[inst.rs2]
                    cyc += mem_access(obj.address + field.offset,
                                      True, code_addr + pc * 4)
                    obj.slots[field.index] = value
                    if field.kind == "ref":
                        runtime.plan.write_barrier(obj, field.index, value)
                    pc += 1
                elif op == m_br:
                    pc = inst.imm
                elif op == m_len:
                    arr = regs[inst.rs1]
                    if arr is None:
                        raise GuestError("null arraylength", cm.method, pc)
                    cyc += mem_access(arr.address + 8, False,
                                      code_addr + pc * 4)
                    regs[inst.rd] = len(arr.elements)
                    pc += 1
                elif op == m_call or op == m_callv:
                    frame.pc = pc  # GC map anchor while the callee runs
                    if op == m_call:
                        target = inst.aux
                    else:
                        receiver = regs[inst.rs1]
                        if receiver is None:
                            raise GuestError("null receiver", cm.method, pc)
                        # Virtual dispatch reads the object header (a heap
                        # access the interest analysis also tracks).
                        cyc += mem_access(receiver.address, False,
                                          code_addr + pc * 4)
                        target = receiver.class_info.vtable[inst.aux[1]]
                    self.cycles += cyc + CALL_OVERHEAD
                    self.instructions += n
                    cyc = 0
                    n = 0
                    callee = runtime.compiled_code_for(target)
                    if self.profiler is not None:
                        self.profiler.on_call(target, self.cycles)
                    self.calls += 1
                    args = tuple(regs[r] for r in inst.imm)
                    self._push_frame(callee, args)
                    switch = True
                elif op == m_ret:
                    value = regs[inst.rs1] if inst.rs1 is not None else None
                    self.cycles += cyc
                    self.instructions += n
                    cyc = 0
                    n = 0
                    if self.profiler is not None:
                        self.profiler.on_return(self.cycles)
                    frames.pop()
                    if frames:
                        caller = frames[-1]
                        call_inst = caller.cm.code[caller.pc]
                        if call_inst.rd is not None:
                            caller.regs[call_inst.rd] = value
                        caller.pc += 1
                    else:
                        self.exit_value = value
                    switch = True
                elif op == m_new:
                    frame.pc = pc  # GC point
                    self.cycles += cyc
                    self.instructions += n
                    cyc = 0
                    n = 0
                    regs[inst.rd] = runtime.plan.alloc_object(inst.aux)
                    cyc += runtime.plan.config.alloc_cost
                    pc += 1
                elif op == m_newarr:
                    frame.pc = pc  # GC point
                    length = regs[inst.rs1]
                    if length < 0:
                        raise GuestError("negative array size", cm.method, pc)
                    self.cycles += cyc
                    self.instructions += n
                    cyc = 0
                    n = 0
                    regs[inst.rd] = runtime.plan.alloc_array(inst.aux, length)
                    cyc += runtime.plan.config.alloc_cost
                    pc += 1
                elif op == m_getstatic:
                    klass, field = inst.aux
                    cyc += mem_access(runtime.static_addr(klass, field),
                                      False, code_addr + pc * 4)
                    regs[inst.rd] = klass.static_values[field.index]
                    pc += 1
                elif op == m_putstatic:
                    klass, field = inst.aux
                    cyc += mem_access(runtime.static_addr(klass, field),
                                      True, code_addr + pc * 4)
                    klass.static_values[field.index] = regs[inst.rs1]
                    pc += 1
                elif op == m_nullchk:
                    if regs[inst.rs1] is None:
                        raise GuestError("null receiver", cm.method, pc)
                    pc += 1
                elif op == m_nop:
                    pc += 1
                else:
                    raise GuestError(f"illegal opcode {op}", cm.method, pc)

                budget -= 1
                if budget <= 0:
                    budget = SCHED_QUANTUM
                    self.cycles += cyc
                    self.instructions += n
                    cyc = 0
                    n = 0
                    if scheduler is not None:
                        next_time = scheduler.next_time
                        if next_time is not None and next_time <= self.cycles:
                            frame.pc = pc
                            scheduler.run_due(self.cycles)
                    if until_cycles is not None and self.cycles >= until_cycles:
                        frame.pc = pc
                        self.sync_counters()
                        return
        self.sync_counters()

    def sync_counters(self) -> None:
        """Publish instruction/cycle totals to the shared counter bank."""
        self.mem.sync_counters()
        self.mem.counters.counts["INSTRUCTIONS"] = self.instructions
        self.mem.counters.counts["CYCLES"] = self.cycles
