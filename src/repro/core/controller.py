"""The online-optimization controller.

Glue between the sampling stack and the consumers of performance data:

* receives raw sample batches from the collector thread and resolves /
  attributes them (charging the per-sample mapping cost to the clock),
* owns the :class:`OnlineMonitor` (per-field counts, period series),
  the per-class hot-field oracle the GC's co-allocation policy reads,
  and the :class:`FeedbackEngine` (Figure 8's revert logic),
* runs the measurement-period timer and the adaptive "auto" sampling
  interval ("adapts the sampling interval to obtain a certain number of
  samples per second", section 6.3): it steers to
  :data:`AUTO_TARGET_PER_PERIOD` samples per period, the paper's "default
  of 200 samples/sec" after scaling.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.config import MonitorConfig, PerfmonConfig
from repro.core.feedback import FeedbackEngine
from repro.core.mapping import SampleResolver
from repro.core.monitor import OnlineMonitor
from repro.jit.codecache import CodeCache, CompiledMethod
from repro.observers import NO_OBSERVERS
from repro.vm.model import ClassInfo, FieldInfo

#: Bounds for the adaptive sampling interval (events between samples).
AUTO_MIN_INTERVAL = 50
AUTO_MAX_INTERVAL = 100_000
AUTO_INITIAL_INTERVAL = 1000
#: Auto mode's target, expressed per measurement period.  Corresponds to
#: the paper's "default of 200 samples/sec" after the DESIGN.md scaling.
AUTO_TARGET_PER_PERIOD = 25


class OnlineOptimizationController:
    """Consumes samples; produces optimization guidance."""

    def __init__(self, codecache: CodeCache,
                 monitor_config: MonitorConfig,
                 perfmon_config: PerfmonConfig,
                 charge: Callable[[int], None],
                 set_sampling_interval: Optional[Callable[[int], None]] = None,
                 auto_interval: bool = False,
                 sampling_switch: Optional[Callable[[bool], None]] = None,
                 observers=NO_OBSERVERS):
        self.monitor_config = monitor_config
        self.resolver = SampleResolver(codecache)
        self.monitor = OnlineMonitor(monitor_config)
        self._obs = observers
        self.feedback = FeedbackEngine(self.monitor, monitor_config,
                                       observers=observers)
        self.perfmon_config = perfmon_config
        self._trace = observers.tracer
        self.charge = charge
        self._set_interval = set_sampling_interval
        self.auto_interval = auto_interval
        self.current_interval = AUTO_INITIAL_INTERVAL
        self._samples_this_period = 0
        #: Duty cycle (paper section 6.3's suggested extension): pause
        #: sampling after a run of fruitless periods.
        self._sampling_switch = sampling_switch
        self._attributed_this_period = 0
        self._idle_periods = 0
        self._paused_periods_left = 0
        self.sampling_paused = False
        self.duty_pauses = 0
        #: Minimum attributed *samples* on a field before it may steer
        #: the GC.  The warm-up this imposes is what produces Figure 7a's
        #: bend: survivors promoted before guidance exists stay scattered
        #: until churn replaces them.
        self.min_samples_for_guidance = 6
        self.batches_processed = 0

    # -- compilation-time hook -----------------------------------------------------

    def on_method_compiled(self, cm: CompiledMethod) -> None:
        """Run the instructions-of-interest filter for a fresh method."""
        self.resolver.register_method(cm)

    # -- sample path ------------------------------------------------------------------

    def process_samples(self, eips: List[int]) -> int:
        """Resolve and attribute one batch; returns attributed count.

        Samples are "buffered and processed in batches inside the VM"
        (section 5.3); the per-sample mapping cost is charged to the
        simulated clock — it is a real part of the Figure 2 overhead.
        """
        if not eips:
            return 0
        self.batches_processed += 1
        self._trace.begin("controller.batch", cat="controller")
        self.charge(self.perfmon_config.map_cost * len(eips))
        attributed = 0
        record = self.monitor.record
        resolve = self.resolver.resolve
        # Each sample stands for ~interval events (inverse sampling
        # probability), so the monitor's counts estimate true miss counts
        # even under the adaptive interval.
        weight = max(1, self.current_interval)
        record_method = self.monitor.record_method
        per_field = {} if self._obs.keeps_evidence else None
        for eip in eips:
            resolved = resolve(eip)
            if resolved is not None:
                record_method(resolved.cm.method, weight)
                if resolved.field is not None:
                    record(resolved.field, weight)
                    attributed += 1
                    if per_field is not None:
                        acc = per_field.get(resolved.field)
                        if acc is None:
                            per_field[resolved.field] = [1, weight]
                        else:
                            acc[0] += 1
                            acc[1] += weight
        if per_field is not None:
            self._obs.attribution(
                len(eips), attributed, weight,
                tuple((f, c[0], c[1]) for f, c in per_field.items()))
        self._samples_this_period += len(eips)
        self._attributed_this_period += attributed
        self._trace.end(samples=len(eips), attributed=attributed)
        return attributed

    # -- GC guidance --------------------------------------------------------------------

    def hot_field(self, klass: ClassInfo) -> Optional[FieldInfo]:
        """The hottest (most-missed) reference field of ``klass``.

        This is the oracle the co-allocation policy queries at promotion
        time; it returns None until enough evidence accumulated, which is
        why co-allocation "kicks in" only after the warm-up (Figure 7a).
        """
        return self.monitor.hot_field(klass, self.min_samples_for_guidance)

    # -- period timer -------------------------------------------------------------------

    def on_period(self, now_cycle: int) -> None:
        """Close a measurement period; adapt the interval; judge experiments."""
        self._trace.instant("controller.period_close", cat="controller",
                            period=len(self.monitor.periods),
                            samples=self._samples_this_period,
                            attributed=self._attributed_this_period)
        period = self.monitor.close_period(now_cycle)
        self._obs.period_closed(period.index, now_cycle,
                                self._samples_this_period,
                                self._attributed_this_period,
                                self.sampling_paused, self._ranking_evidence)
        self.feedback.on_period()
        if self.auto_interval and self._set_interval is not None \
                and not self.sampling_paused:
            self._adapt_interval()
        if self.monitor_config.duty_cycle:
            self._duty_cycle_tick()
        self._samples_this_period = 0
        self._attributed_this_period = 0

    def _ranking_evidence(self) -> tuple:
        """The hot-field ranking as the ledger records it: the 16 hottest
        classes (by total estimated events), each with its top 4 fields
        as ``(field, events, raw_samples)``.  Bounded so a snapshot per
        period stays cheap on benchmarks with many sampled classes."""
        monitor = self.monitor
        ranked = []
        for klass, per_class in monitor._by_class.items():
            ranked.append((klass, sum(per_class.values())))
        ranked.sort(key=lambda kv: -kv[1])
        out = []
        for klass, _total in ranked[:16]:
            fields = tuple(
                (field, events, monitor.sample_counts.get(field, 0))
                for field, events in monitor.ranked_fields(klass)[:4])
            out.append((klass, fields))
        return tuple(out)

    def _duty_cycle_tick(self) -> None:
        """Pause sampling after fruitless periods; re-arm later.

        Implements the paper's suggestion (section 6.3): "Note that
        monitoring is turned on throughout the whole execution even when
        no candidate objects are found.  The overhead could be reduced
        by turning off monitoring for most of the time in such a
        scenario."
        """
        cfg = self.monitor_config
        if self.sampling_paused:
            self._paused_periods_left -= 1
            if self._paused_periods_left <= 0:
                self.sampling_paused = False
                self._idle_periods = 0
                if self._sampling_switch is not None:
                    self._sampling_switch(True)
                self._trace.instant("controller.duty_resume",
                                    cat="controller")
            return
        if self._attributed_this_period == 0:
            self._idle_periods += 1
        else:
            self._idle_periods = 0
        if self._idle_periods >= cfg.duty_idle_periods:
            self.sampling_paused = True
            self.duty_pauses += 1
            self._paused_periods_left = cfg.duty_off_periods
            if self._sampling_switch is not None:
                self._sampling_switch(False)
            self._trace.instant("controller.duty_pause", cat="controller",
                                idle_periods=self._idle_periods,
                                off_periods=cfg.duty_off_periods)

    def _adapt_interval(self) -> None:
        observed = self._samples_this_period
        target = AUTO_TARGET_PER_PERIOD
        if observed == 0:
            # No events sampled: halve the interval to regain coverage.
            new = max(AUTO_MIN_INTERVAL, self.current_interval // 2)
        else:
            scaled = int(self.current_interval * observed / target)
            new = min(AUTO_MAX_INTERVAL, max(AUTO_MIN_INTERVAL, scaled))
        if new != self.current_interval:
            self._trace.instant("controller.interval_adapted",
                                cat="controller",
                                old=self.current_interval, new=new,
                                observed=observed)
            self.current_interval = new
            self._set_interval(new)

    # -- summaries ----------------------------------------------------------------------

    def _summary_items(self) -> List[tuple]:
        """The canonical end-of-run statistics, as (key, value) pairs.

        Single source of truth: :meth:`summary` (the dict the harness
        and CLI read) and :meth:`publish_metrics` (the
        ``controller.summary.*`` gauges in the telemetry registry) are
        both views of this list.
        """
        stats = self.resolver.stats
        return [
            ("attributed", stats.attributed),
            ("resolved", stats.resolved),
            ("dropped_foreign", stats.dropped_foreign),
            ("dropped_baseline", stats.dropped_baseline),
            ("unattributed", stats.unattributed),
            ("interest_pairs", self.resolver.interesting_pairs()),
            ("periods", len(self.monitor.periods)),
            ("batches", self.batches_processed),
            ("final_interval", self.current_interval),
            ("duty_pauses", self.duty_pauses),
        ]

    def summary(self) -> dict:
        return dict(self._summary_items())

    def publish_metrics(self, metrics) -> None:
        """Export the end-of-run statistics (call once per run): the
        canonical summary as ``controller.summary.<key>`` gauges, and
        the counts this controller and its feedback engine keep."""
        for key, value in self._summary_items():
            metrics.gauge(f"controller.summary.{key}").set(value)
        metrics.gauge(
            "controller.sampling_interval",
            "current hardware sampling interval (events between samples)"
        ).set(self.current_interval)
        stats = self.resolver.stats
        metrics.counter("controller.batches", "sample batches processed"
                        ).inc(self.batches_processed)
        # Every sample received lands in exactly one resolver bin.
        metrics.counter("controller.samples", "raw EIP samples received"
                        ).inc(stats.resolved + stats.dropped_foreign
                              + stats.dropped_baseline)
        metrics.counter("controller.attributed_samples",
                        "samples attributed to a reference field"
                        ).inc(stats.attributed)
        metrics.counter("controller.duty_pauses",
                        "duty-cycle sampling pauses").inc(self.duty_pauses)
        self.feedback.publish_metrics(metrics)
