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
Everything else is a *fact*: one method per event of the loop, recorded
in the ledger (then mirrored as a trace instant, for the feedback
facts).  The ledger is the run's one store of facts: the health
monitor keeps none of its own but reads its report off the ledger at
the end of the run, so attaching health attaches a ledger.  No
observer charges cycles, consumes randomness or mutates simulator
state, so a run is bit-identical whatever is attached.
docs/INTERNALS.md ("The observer spine") tabulates where each fact is
emitted.
"""

from __future__ import annotations

from repro.jit.codecache import LEVEL_OPT
from repro.lineage import DecisionLedger
from repro.telemetry import NULL_TELEMETRY


class Observers:
    """The observers of one run (or none: :data:`NO_OBSERVERS`)."""

    def __init__(self, telemetry=None, lineage=None, health=None):
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY
        self.tracer = self.telemetry.tracer
        if health is not None and lineage is None:
            lineage = DecisionLedger()  # the facts health reports on
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
        per-period HPM vector read ``vm``'s running totals."""
        self._vm = vm
        clock = vm._cycle_clock
        self.telemetry.bind_clock(clock)
        if self.lineage is not None:
            self.lineage.bind_clock(clock)
        if self.health is not None:
            self.health.bind(self.lineage, clock, self.tracer)

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

    def period_closed(self, index: int, now_cycle: int, samples: int,
                      attributed: int, sampling_paused: bool,
                      ranking) -> None:
        """A period closed at ``now_cycle``, before its experiments are
        judged.  ``ranking()`` builds the hot-field ranking in force; it
        and the HPM vector are read only when the ledger records them."""
        ledger = self.lineage
        if ledger is None:
            return
        vm = self._vm
        memsys = vm.memsys
        # The memory system's live tallies, not ``vm.counters``: that
        # bank is only folded at the end of an ``advance()``, so reading
        # it would make the vector depend on how the run was sliced.
        ledger.period_close(
            index, samples, attributed, now_cycle, sampling_paused,
            (memsys.n_loads + memsys.n_stores, memsys.n_l1_miss,
             vm.gc_cycles, vm.plan.stats.alloc_bytes, len(vm.codecache)))
        ledger.ranking_snapshot(index, ranking())

    # -- feedback: experiments ---------------------------------------------

    def experiment_begin(self, name: str, field, baseline: float,
                         started_period: int, baseline_samples: int,
                         threshold: float, patience: int) -> None:
        if self.lineage is not None:
            self.lineage.experiment_begin(
                name, field, baseline, started_period, baseline_samples,
                threshold, patience)
        self.tracer.instant("feedback.experiment_begin", cat="feedback",
                            experiment=name, field=field.qualified_name,
                            baseline_rate=baseline)

    def experiment_verdict(self, name: str, rate: float, threshold: float,
                           regressed: bool, streak: int) -> None:
        if self.lineage is not None:
            self.lineage.experiment_verdict(name, rate, threshold,
                                            regressed, streak)
        self.tracer.instant("feedback.verdict", cat="feedback",
                            experiment=name, rate=rate,
                            regressed=regressed, streak=streak)

    def experiment_revert(self, name: str, field, period: int, rate: float,
                          baseline: float, threshold: float) -> None:
        if self.lineage is not None:
            self.lineage.experiment_revert(name, field, period, rate,
                                           baseline, threshold)
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
