"""Raw-sample resolution: EIP -> method -> bytecode/HIR -> field.

Implements the pipeline of section 4.2:

1. drop addresses outside the VM-generated code space (kernel, native
   libraries),
2. find the method through the sorted code table (code never moves —
   it lives in the immortal space),
3. translate the EIP to a bytecode index / HIR instruction through the
   extended machine-code map,
4. look the HIR instruction up in the method's instructions-of-interest
   table to find the reference field to credit (section 5.3); samples in
   baseline-compiled methods or on uninteresting instructions are
   counted but not attributed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.interest import InterestMap, analyze_compiled_method
from repro.jit.codecache import LEVEL_OPT, CodeCache, CompiledMethod
from repro.vm.model import FieldInfo


@dataclass
class ResolvedSample:
    """Outcome of resolving one raw EIP."""

    cm: CompiledMethod
    pc: int
    bc_index: int
    ir_id: Optional[int]
    field: Optional[FieldInfo]


@dataclass
class ResolutionStats:
    resolved: int = 0
    attributed: int = 0
    dropped_foreign: int = 0   # outside the VM code space
    dropped_baseline: int = 0  # baseline-compiled method (no interest info)
    unattributed: int = 0      # opt method, instruction not of interest


class SampleResolver:
    """Stateful resolver bound to a code cache.

    Interest tables are computed once per compiled method, at the time
    the method is registered (i.e., at compilation time, as in the
    paper), and cached here.  A method the resolver was not told about
    gets its table on its first sample.
    """

    def __init__(self, codecache: CodeCache):
        self.codecache = codecache
        # Keyed by the CompiledMethod itself (identity hash): id()
        # keys would dangle after a snapshot round-trip re-creates
        # the object graph at new addresses.
        self._interest: Dict[CompiledMethod, InterestMap] = {}
        self.stats = ResolutionStats()

    def register_method(self, cm: CompiledMethod) -> InterestMap:
        """Run the instructions-of-interest filter for a new method."""
        table = analyze_compiled_method(cm)
        self._interest[cm] = table
        return table

    def interest_table(self, cm: CompiledMethod) -> InterestMap:
        return self._interest.get(cm, {})

    def interesting_pairs(self) -> int:
        """Total (S, f) pairs across all registered methods."""
        return sum(len(t) for t in self._interest.values())

    def resolve(self, eip: int) -> Optional[ResolvedSample]:
        """Resolve one sample; None when it must be dropped."""
        cm = self.codecache.lookup(eip)
        if cm is None:
            self.stats.dropped_foreign += 1
            return None
        if cm.level != LEVEL_OPT:
            self.stats.dropped_baseline += 1
            return None
        pc = cm.pc_of_eip(eip)
        bc_index = cm.bc_map[pc]
        ir_id = cm.ir_map[pc]
        interest = self._interest.get(cm)
        if interest is None:
            interest = self.register_method(cm)
        fld = interest.get(ir_id) if ir_id is not None else None
        self.stats.resolved += 1
        if fld is not None:
            self.stats.attributed += 1
        else:
            self.stats.unattributed += 1
        return ResolvedSample(cm, pc, bc_index, ir_id, fld)
