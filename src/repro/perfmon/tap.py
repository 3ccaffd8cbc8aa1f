"""Interval tap: per-period HPM deltas for the health observatory.

The controller already closes a measurement period every
``monitor.period_cycles``; the tap rides that boundary and condenses
everything the period observed into one
:class:`repro.health.phases.Interval` vector — hardware-counter deltas
(L1D miss rate), cycle-bucket deltas (GC fraction), allocation-rate
deltas, PEBS sample counts, and compilation activity — then hands it to
the VM's :class:`repro.health.HealthMonitor`.

Strictly read-only: the tap snapshots counters that the simulation
updates anyway and subtracts; it never charges cycles or touches
mutable monitor state (``period.field_counts`` is the already-closed
per-period snapshot, so ranking reads here cannot perturb the
hot-field cache).
"""

from __future__ import annotations

from typing import Tuple

from repro.health.phases import Interval

#: Hottest fields surfaced per interval (detector evidence, not policy).
TOP_FIELDS_PER_INTERVAL = 4


class IntervalTap:
    """Observes period closes on a VM; emits Interval vectors."""

    def __init__(self, vm):
        self.vm = vm
        self._prev_cycle = 0
        self._prev_l1_access = 0
        self._prev_l1_miss = 0
        self._prev_gc_cycles = 0
        self._prev_alloc_bytes = 0
        self._prev_compiled = 0

    def on_period(self, period, now_cycle: int, samples: int,
                  attributed: int) -> None:
        """Controller hook: called right after a period closes.

        ``period`` is the just-closed :class:`PeriodRecord`;
        ``samples``/``attributed`` are the controller's per-period tallies
        (read before the controller resets them).
        """
        vm = self.vm
        if now_cycle <= self._prev_cycle:
            return  # final drain landed on the same boundary: no new data
        # The memory system's live tallies, not ``vm.counters``: that
        # bank is only folded at the end of an ``advance()``, so reading
        # it would make the feature depend on how the run was sliced.
        memsys = vm.memsys
        l1_access = memsys.n_loads + memsys.n_stores
        l1_miss = memsys.n_l1_miss
        alloc_bytes = vm.plan.stats.alloc_bytes
        compiled = len(vm.codecache)

        cycles = now_cycle - self._prev_cycle
        d_access = l1_access - self._prev_l1_access
        d_miss = l1_miss - self._prev_l1_miss
        interval = Interval(
            index=period.index,
            start_cycle=self._prev_cycle,
            end_cycle=now_cycle,
            samples=samples,
            attributed=attributed,
            miss_rate=(d_miss / d_access) if d_access > 0 else 0.0,
            gc_fraction=(vm.gc_cycles - self._prev_gc_cycles) / cycles,
            alloc_rate=(alloc_bytes - self._prev_alloc_bytes) / cycles,
            recompiles=compiled - self._prev_compiled,
            sampling_paused=(vm.controller.sampling_paused
                             if vm.controller is not None else False),
            top_fields=self._top_fields(period),
            ledger_period_id=vm.lineage.last_period_id,
            ledger_ranking_id=vm.lineage.last_ranking_id,
        )

        self._prev_cycle = now_cycle
        self._prev_l1_access = l1_access
        self._prev_l1_miss = l1_miss
        self._prev_gc_cycles = vm.gc_cycles
        self._prev_alloc_bytes = alloc_bytes
        self._prev_compiled = compiled

        vm.health.on_interval(interval)

    @staticmethod
    def _top_fields(period) -> Tuple[Tuple[str, int], ...]:
        """The period's hottest fields, deterministically ordered."""
        if not period.field_counts:
            return ()
        ranked = sorted(period.field_counts.items(),
                        key=lambda kv: (-kv[1], kv[0].qualified_name))
        return tuple((field.qualified_name, count)
                     for field, count in ranked[:TOP_FIELDS_PER_INTERVAL])
