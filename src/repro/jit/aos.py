"""The adaptive optimization system (AOS).

Mirrors Jikes RVM's architecture (section 3.2): every method is first
compiled with the quick baseline compiler; a timer samples the
top-of-stack method at regular intervals; methods whose sample count
crosses a threshold are evaluated with a static cost/benefit model and
recompiled with the optimizing compiler when the expected future
savings exceed the compile cost.

The paper's evaluation uses a *pseudo-adaptive* configuration: "each
program runs with a pre-generated compilation plan", eliminating AOS
nondeterminism.  :class:`CompilationPlan` provides that mode: a plan
recorded from one run (or authored by a workload) is replayed, opt-
compiling exactly the listed methods up front.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.config import JITConfig
from repro.vm.model import MethodInfo


class CompilationPlan:
    """A pre-generated compilation plan (pseudo-adaptive mode)."""

    def __init__(self, opt_methods: Optional[List[str]] = None):
        #: Qualified names ("Class.method") to opt-compile at startup.
        self.opt_methods: List[str] = list(opt_methods or [])

    def add(self, method: "MethodInfo | str") -> "CompilationPlan":
        name = method if isinstance(method, str) else method.qualified_name
        if name not in self.opt_methods:
            self.opt_methods.append(name)
        return self

    def __contains__(self, method: MethodInfo) -> bool:
        return method.qualified_name in self.opt_methods

    def __len__(self) -> int:
        return len(self.opt_methods)


class AdaptiveOptimizationSystem:
    """Timer-sampled hotness + cost/benefit recompilation decisions.

    The AOS does not compile anything itself; it *decides*.  The VM
    registers :meth:`sample` on the virtual-time timer and asks
    :meth:`poll_decisions` for methods to hand to the opt compiler.
    """

    def __init__(self, config: JITConfig):
        self.config = config
        self.samples: Dict[MethodInfo, int] = {}
        self.total_samples = 0
        self._pending: List[MethodInfo] = []
        self._decided: Set[MethodInfo] = set()

    def sample(self, method: Optional[MethodInfo]) -> None:
        """Record one top-of-stack timer sample."""
        self.total_samples += 1
        if method is None:
            return
        count = self.samples.get(method, 0) + 1
        self.samples[method] = count
        if method in self._decided:
            return
        if count >= self.config.hot_samples and self._worth_optimizing(method, count):
            self._decided.add(method)
            self._pending.append(method)

    def decision_stats(self, method: MethodInfo) -> Tuple[int, float, float]:
        """The cost/benefit arithmetic for ``method`` *right now*:
        ``(sample_count, estimated_benefit, estimated_cost)`` in cycles.

        This is the exact justification a recompilation decision rests
        on, exposed so the decision-lineage ledger can record it.
        """
        cfg = self.config
        count = self.samples.get(method, 0)
        past_cycles = count * cfg.aos_timer_cycles
        future_cycles = past_cycles
        benefit = future_cycles * (1.0 - 1.0 / cfg.opt_speedup)
        cost = float(cfg.opt_cost_per_bc * len(method.code))
        return count, benefit, cost

    def _worth_optimizing(self, method: MethodInfo, count: int) -> bool:
        """Jikes-style static cost/benefit model.

        Estimated future time in the method is assumed equal to the time
        observed so far (the standard "as much future as past"
        assumption); the benefit is the fraction saved by the opt
        compiler's speedup; the cost is proportional to bytecode size.
        """
        _, benefit, cost = self.decision_stats(method)
        return benefit > cost

    def poll_decisions(self) -> List[MethodInfo]:
        """Drain methods selected for opt recompilation."""
        pending, self._pending = self._pending, []
        return pending

    def hotness(self, method: MethodInfo) -> float:
        """Fraction of samples attributed to ``method``."""
        if self.total_samples == 0:
            return 0.0
        return self.samples.get(method, 0) / self.total_samples
