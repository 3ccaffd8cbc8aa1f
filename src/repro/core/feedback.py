"""Optimization assessment and reversion (sections 5.3 and 6.4, Figure 8).

"A system that includes feedback based on a performance reporting unit
allows an assessment of the effectiveness of an optimization step.  If
the transformation improved performance, the system can proceed
normally.  If the transformation reduced performance, either a
different optimization step can be performed or it is possible to
revert to the old code."

:class:`FeedbackEngine` tracks *experiments*: a placement (or other)
policy change applied at a known period, with the pre-change miss rate
as the baseline.  After each measurement period the engine compares the
moving-average rate against the baseline; a sustained regression (the
paper's "simple heuristic": several consecutive worse periods) triggers
the experiment's revert callback.  Already-placed mature objects remain
in place — "only newly promoted objects will follow the new copying
policy" — so the rate recovers gradually, exactly Figure 8's shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, List, Optional

from repro.core.config import MonitorConfig
from repro.core.monitor import OnlineMonitor
from repro.observers import NO_OBSERVERS
from repro.vm.model import ClassInfo, FieldInfo


@dataclass
class Experiment:
    """One policy change under observation."""

    name: str
    #: Field whose miss rate judges the experiment.
    field: FieldInfo
    #: Called when the engine decides the change hurt performance.
    revert: Callable[[], None]
    #: Pre-change events/period (the comparison baseline).
    baseline_rate: float
    started_period: int
    #: Consecutive regressed periods observed so far.
    regressed_periods: int = 0
    active: bool = True
    reverted: bool = False
    reverted_period: Optional[int] = None
    #: Rate history while the experiment ran (diagnostics / Figure 8).
    observed: List[float] = dataclass_field(default_factory=list)


class FeedbackEngine:
    """Judges policy experiments against monitored miss rates."""

    def __init__(self, monitor: OnlineMonitor, config: MonitorConfig,
                 observers=NO_OBSERVERS):
        self.monitor = monitor
        self.config = config
        self.experiments: List[Experiment] = []
        self._obs = observers

    def begin_experiment(self, name: str, field: FieldInfo,
                         revert: Callable[[], None],
                         baseline_window: Optional[int] = None) -> Experiment:
        """Start observing a policy change applied *now*.

        The baseline is the moving-average rate over the periods before
        the change.
        """
        baseline = self.monitor.recent_rate(field, baseline_window)
        exp = Experiment(name=name, field=field, revert=revert,
                         baseline_rate=baseline,
                         started_period=len(self.monitor.periods))
        self.experiments.append(exp)
        self._obs.experiment_begin(
            name, field, baseline, exp.started_period,
            self.monitor.sample_counts.get(field, 0),
            self.config.revert_threshold, self.config.revert_patience)
        return exp

    def on_period(self) -> None:
        """Evaluate all active experiments after a period closed."""
        cfg = self.config
        current_period = len(self.monitor.periods)
        for exp in self.experiments:
            if not exp.active:
                continue
            # Let at least one full period elapse under the new policy.
            if current_period <= exp.started_period:
                continue
            rate = self.monitor.recent_rate(exp.field)
            exp.observed.append(rate)
            threshold = exp.baseline_rate * (1.0 + cfg.revert_threshold)
            regressed = exp.baseline_rate > 0 and rate > threshold
            if regressed:
                exp.regressed_periods += 1
            else:
                exp.regressed_periods = 0
            self._obs.experiment_verdict(exp.name, rate, threshold,
                                         regressed, exp.regressed_periods)
            if exp.regressed_periods >= cfg.revert_patience:
                exp.revert()
                exp.active = False
                exp.reverted = True
                exp.reverted_period = current_period
                self._obs.experiment_revert(
                    exp.name, exp.field, current_period, rate,
                    exp.baseline_rate, cfg.revert_threshold)

    def active_experiments(self) -> List[Experiment]:
        return [e for e in self.experiments if e.active]

    def reverted_experiments(self) -> List[Experiment]:
        return [e for e in self.experiments if e.reverted]

    def publish_metrics(self, metrics) -> None:
        """Export the experiment census (call once per run)."""
        started = metrics.counter(
            "feedback.experiments_started",
            "policy experiments begun, by experiment name")
        reverts = metrics.counter(
            "feedback.reverts",
            "experiments reverted after regression, by experiment name")
        for exp in self.experiments:
            started.labels(exp.name).inc()
            if exp.reverted:
                reverts.labels(exp.name).inc()
