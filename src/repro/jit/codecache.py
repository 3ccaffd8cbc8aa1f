"""Compiled-method container and the sorted code lookup table.

The paper keeps "a sorted table of all methods with their start and end
address" to map a sampled EIP back to its Java method, and allocates
compiled code in the *immortal* space so the copying GC never moves it
(section 4.2) — stale code of recompiled methods is tolerated because
"only a small fraction of methods are re-compiled".  This module
reproduces both: a bump-allocated immortal code space and a
bisect-maintained method table.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from repro.gc import layout
from repro.hw.isa import INSTRUCTION_BYTES, MInst

LEVEL_BASELINE = 0
LEVEL_OPT = 1


class CompiledMethod:
    """One compiled version of a method.

    Attributes
    ----------
    code:
        The machine instructions.
    code_addr:
        Immortal-space base address; instruction ``i`` has
        ``EIP = code_addr + i * INSTRUCTION_BYTES``.
    gc_maps:
        ``pc -> tuple of root descriptors``; a descriptor is ``("r", n)``
        for register ``n`` or ``("s", n)`` for frame slot ``n``.  Present
        at GC points only (the paper's starting point).
    bc_map:
        ``pc -> bytecode index`` for *every* instruction — the paper's
        extension of the mapping information ("we extended the optimizing
        compiler so that it generates the bytecode index mapping for each
        machine code instruction, not only for GC points").
    ir_map:
        ``pc -> HIR instruction id`` (opt level only); lets the monitor
        count events per IR instruction (section 4.2).
    translation:
        The closure-threaded form of :attr:`code` built lazily by
        :mod:`repro.hw.translate` on first execution; dropped when this
        version is superseded (:meth:`CodeCache.note_replaced`) so
        recompiled methods — opt-compiler upgrades, devirt reverts —
        are re-specialized against their new code.
    """

    def __init__(self, method, level: int, code: List[MInst],
                 reg_count: int, frame_words: int,
                 gc_maps: Dict[int, Tuple],
                 hir=None):
        self.method = method
        self.level = level
        self.code = code
        self.reg_count = reg_count
        self.frame_words = frame_words
        self.gc_maps = gc_maps
        self.hir = hir
        self.code_addr = 0  # assigned by the code cache
        self.translation = None  # built by repro.hw.translate on demand
        #: callv sites converted to direct calls by the opt compiler
        #: (0 for baseline code); read by the decision-lineage ledger.
        self.devirt_sites = 0
        self.bc_map: List[int] = [inst.bc_index for inst in code]
        self.ir_map: List[Optional[int]] = [inst.ir_id for inst in code]

    @property
    def code_bytes(self) -> int:
        return len(self.code) * INSTRUCTION_BYTES

    @property
    def end_addr(self) -> int:
        return self.code_addr + self.code_bytes

    def pc_of_eip(self, eip: int) -> int:
        pc = (eip - self.code_addr) // INSTRUCTION_BYTES
        if not 0 <= pc < len(self.code):
            raise ValueError(f"eip {eip:#x} outside {self}")
        return pc

    def eip_of_pc(self, pc: int) -> int:
        return self.code_addr + pc * INSTRUCTION_BYTES

    def bytecode_index(self, eip: int) -> int:
        """Machine-code-map lookup: EIP -> bytecode index."""
        return self.bc_map[self.pc_of_eip(eip)]

    def ir_id(self, eip: int) -> Optional[int]:
        return self.ir_map[self.pc_of_eip(eip)]

    def __getstate__(self):
        # The translation is a web of closures over CPU internals —
        # unpicklable by construction.  Drop it from snapshots;
        # repro.hw.translate.translation_for rebuilds it (determin-
        # istically, from self.code) on first execution after restore.
        state = self.__dict__.copy()
        state["translation"] = None
        return state

    def __repr__(self) -> str:
        kind = "opt" if self.level == LEVEL_OPT else "base"
        return (f"<compiled {self.method.qualified_name} [{kind}] "
                f"@{self.code_addr:#x}+{self.code_bytes}>")


class CodeCache:
    """Immortal code space + the sorted EIP -> method table."""

    def __init__(self):
        self._cursor = layout.CODE_BASE
        #: Parallel sorted structures: start addresses and entries.
        self._starts: List[int] = []
        self._entries: List[CompiledMethod] = []
        self.stale_bytes = 0  # code of replaced method versions

    def install(self, cm: CompiledMethod) -> CompiledMethod:
        """Place ``cm`` in the immortal space and index it."""
        size = max(cm.code_bytes, INSTRUCTION_BYTES)
        if self._cursor + size > layout.CODE_LIMIT:
            raise MemoryError("immortal code space exhausted")
        cm.code_addr = self._cursor
        self._cursor += size
        index = bisect_right(self._starts, cm.code_addr)
        self._starts.insert(index, cm.code_addr)
        self._entries.insert(index, cm)
        return cm

    def note_replaced(self, old: CompiledMethod) -> None:
        """Account a superseded compiled version (kept: code never moves,
        so stale versions only cost space — section 4.2).  The stale
        version's translation is dropped: new invocations dispatch to
        the replacement, and any frame still running the old code simply
        re-translates on its next activation."""
        self.stale_bytes += old.code_bytes
        old.translation = None

    def lookup(self, eip: int) -> Optional[CompiledMethod]:
        """Sorted-table lookup of the method containing ``eip``.

        Returns None for addresses outside the VM-generated code — those
        samples are dropped by the collector thread.
        """
        if not layout.in_code_space(eip):
            return None
        index = bisect_right(self._starts, eip) - 1
        if index < 0:
            return None
        cm = self._entries[index]
        if eip >= cm.end_addr:
            return None
        return cm

    @property
    def methods(self) -> List[CompiledMethod]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
