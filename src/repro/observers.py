"""The observer spine: which observers a run carries, and in what order
they see each fact of the monitoring loop.

A run can carry :class:`repro.telemetry.Telemetry` (spans, metrics),
:class:`repro.lineage.DecisionLedger` (the causal log) and
:class:`repro.health.HealthMonitor` (phases, pathologies).  The VM
resolves the three ``SystemConfig`` fields once into one
:class:`Observers` bundle and hands it to every layer; this is the only
module that knows which of them is attached.

Span sites use ``obs.tracer`` directly (the null one when telemetry is
off): it is a component's only telemetry channel in flight.  Metrics
are read off the finished run in one sweep, :meth:`Observers.publish`.
Everything else is a *fact*: one method per event of the loop, running
ledger → health → trace instant — the ledger first, because it returns
the entry id the health monitor cites (``-1`` without a ledger).  No
observer charges cycles, consumes randomness or mutates simulator
state, so a run is bit-identical whatever is attached.
docs/INTERNALS.md ("The observer spine") tabulates where each fact is
emitted.
"""

from __future__ import annotations

from repro.jit.codecache import LEVEL_OPT
from repro.telemetry import NULL_TELEMETRY


class Observers:
    """The observers of one run (or none: :data:`NO_OBSERVERS`)."""

    def __init__(self, telemetry=None, lineage=None, health=None):
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY
        self.tracer = self.telemetry.tracer
        #: The decision ledger / health monitor, or None.  (Never test
        #: the ledger's truth value: an empty one has ``len() == 0``.)
        self.lineage = lineage
        self.health = health
        self._vm = None

    @property
    def attached(self) -> bool:
        """True when anything records (a snapshot of such a VM is not
        *pure*: resuming it continues these observers)."""
        return (self.telemetry.enabled or self.lineage is not None
                or self.health is not None)

    @property
    def keeps_evidence(self) -> bool:
        """True when attribution tuples and rankings are recorded;
        emitters skip building them otherwise."""
        return self.lineage is not None

    def bind(self, vm) -> None:
        """Stamp everything with ``vm``'s cycle clock (a bound method,
        so the binding rides the VM through a snapshot) and let the
        per-period health vector read ``vm``'s running totals."""
        self._vm = vm
        clock = vm._cycle_clock
        self.telemetry.bind_clock(clock)
        if self.lineage is not None:
            self.lineage.bind_clock(clock)
        if self.health is not None:
            self.health.bind(clock, self.tracer)

    # -- perfmon / controller: samples and periods -------------------------

    def sample_batch(self, n_samples: int, source: str) -> None:
        """A batch of EIPs left the user buffer (``"poll"``/``"drain"``)."""
        if self.lineage is not None:
            self.lineage.sample_batch(n_samples, source)

    def attribution(self, n_samples: int, attributed: int, weight: int,
                    fields: tuple) -> None:
        """One batch resolved; ``fields`` is the per-field
        ``(FieldInfo, samples, events)`` it contributed."""
        if self.lineage is not None:
            self.lineage.attribution(n_samples, attributed, weight, fields)

    def period_closed(self, index: int, samples: int, attributed: int,
                      ranking) -> None:
        """A period closed, before its experiments are judged.
        ``ranking()`` builds the hot-field ranking in force; it is
        called only when the ranking is recorded."""
        if self.lineage is not None:
            self.lineage.period_close(index, samples, attributed)
            self.lineage.ranking_snapshot(index, ranking())

    def interval(self, period, now_cycle: int, samples: int,
                 attributed: int, sampling_paused: bool) -> None:
        """The closed period's HPM vector, after its verdicts."""
        if self.health is None:
            return
        vm = self._vm
        memsys = vm.memsys
        ledger = self.lineage
        # The memory system's live tallies, not ``vm.counters``: that
        # bank is only folded at the end of an ``advance()``, so reading
        # it would make the vector depend on how the run was sliced.
        self.health.on_period(
            period, now_cycle, samples, attributed,
            (memsys.n_loads + memsys.n_stores, memsys.n_l1_miss,
             vm.gc_cycles, vm.plan.stats.alloc_bytes, len(vm.codecache)),
            sampling_paused,
            ledger.last_period_id if ledger is not None else -1,
            ledger.last_ranking_id if ledger is not None else -1)

    # -- feedback: experiments ---------------------------------------------

    def experiment_begin(self, name: str, field, baseline: float,
                         started_period: int, baseline_samples: int,
                         threshold: float, patience: int) -> None:
        eid = -1
        if self.lineage is not None:
            eid = self.lineage.experiment_begin(
                name, field, baseline, started_period, baseline_samples,
                threshold, patience)
        if self.health is not None:
            self.health.on_experiment_begin(
                name, field.qualified_name, baseline, eid)
        self.tracer.instant("feedback.experiment_begin", cat="feedback",
                            experiment=name, field=field.qualified_name,
                            baseline_rate=baseline)

    def experiment_verdict(self, name: str, rate: float, threshold: float,
                           regressed: bool, streak: int) -> None:
        eid = -1
        if self.lineage is not None:
            eid = self.lineage.experiment_verdict(name, rate, threshold,
                                                  regressed, streak)
        if self.health is not None:
            self.health.on_experiment_verdict(name, rate, eid)
        self.tracer.instant("feedback.verdict", cat="feedback",
                            experiment=name, rate=rate,
                            regressed=regressed, streak=streak)

    def experiment_revert(self, name: str, field, period: int, rate: float,
                          baseline: float, threshold: float) -> None:
        eid = -1
        if self.lineage is not None:
            eid = self.lineage.experiment_revert(name, field, period, rate,
                                                 baseline, threshold)
        if self.health is not None:
            self.health.on_experiment_revert(
                name, field.qualified_name, rate, baseline, eid)
        self.tracer.instant("feedback.revert", cat="feedback",
                            experiment=name, period=period)

    # -- GC: placement -----------------------------------------------------

    def placement_pending(self, klass, field, parent_bytes: int,
                          child_bytes: int, gap: int, combined: int) -> None:
        """The policy accepted a co-allocation (not placed yet)."""
        if self.lineage is not None:
            self.lineage.placement_pending(klass, field, parent_bytes,
                                           child_bytes, gap, combined)

    def placement_commit(self, parent_addr: int, child_addr: int) -> None:
        """The collector gave the pending pair its final addresses."""
        if self.lineage is not None:
            self.lineage.placement_commit(parent_addr, child_addr)

    def gap_set(self, old_gap: int, new_gap: int) -> None:
        if self.lineage is not None:
            self.lineage.gap_set(old_gap, new_gap)

    # -- JIT ---------------------------------------------------------------

    def recompile(self, method, reason: str, samples: int, benefit: float,
                  cost: float, devirt_sites: int) -> None:
        """A method was selected for opt recompilation, on this
        cost/benefit arithmetic."""
        if self.lineage is not None:
            self.lineage.recompile(method, reason, samples, benefit, cost,
                                   devirt_sites)

    # -- end of run --------------------------------------------------------

    def publish(self, cycles: int, overhead: int) -> None:
        """Fill the registry with the end-of-run aggregates: the VM's
        cycle buckets and hardware counters, the compiled methods, the
        statistics each component keeps (its ``publish_metrics``), the
        health verdict.  The registry is complete once this has run,
        not in flight."""
        if not self.telemetry.enabled:
            return
        metrics = self.telemetry.metrics
        vm = self._vm
        for name, value in (
                ("vm.cycles", cycles),
                ("vm.instructions", vm.cpu.instructions),
                ("vm.app_cycles", cycles - overhead),
                ("vm.gc_cycles", vm.gc_cycles),
                ("vm.monitoring_cycles", vm.monitoring_cycles),
                ("vm.compile_cycles", vm.compile_cycles)):
            metrics.gauge(name).set(value)
        counters = metrics.gauge("hw.counters")
        for event, count in vm.counters.snapshot().items():
            counters.labels(event).set(count)
        # Every compiled version stays installed (code never moves), so
        # the code cache holds each compilation once.
        compilations = metrics.counter("jit.compilations",
                                       "methods compiled, by level")
        bytecodes = metrics.counter("jit.compiled_bytecodes",
                                    "bytecodes compiled, by level")
        for cm in vm.codecache.methods:
            level = "opt" if cm.level == LEVEL_OPT else "baseline"
            compilations.labels(level).inc()
            bytecodes.labels(level).inc(len(cm.method.code))
        for component in (vm.plan, vm.coalloc_policy, vm.kernel,
                          vm.collector, vm.controller, self.health):
            if component is not None:
                component.publish_metrics(metrics)


#: The default of every instrumented component built outside a VM:
#: nothing attached, every fact a no-op.
NO_OBSERVERS = Observers()
