"""Case execution: one run, its gates, and the cache hygiene around it.

:func:`run_case` is the one way a :class:`~repro.bench.registry.
BenchCase` is executed — the CLI and the profiler both come through
here — and the one place that does cache hygiene: the case body runs
on a fresh in-process memo with no disk layer, so it really simulates,
and whatever disk layer was installed before is installed again
afterwards.  Repetition is the case's own business (best-of-
``params["repeats"]`` inside ``run``); ``wall_s`` is the wall time of
the whole body, kept for orientation and read by no gate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.registry import BenchCase


@dataclass
class CaseRun:
    """One executed case: resolved params, metrics, gates, verdict."""

    case: BenchCase
    params: Dict[str, object]
    metrics: Dict[str, object]
    wall_s: float
    gates: List[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(g["passed"] for g in self.gates)

    @property
    def primary_value(self):
        return self.metrics.get(self.case.primary_metric)


def run_case(case: BenchCase,
             overrides: Optional[Dict[str, object]] = None) -> CaseRun:
    """Execute ``case`` once and evaluate its gates.

    Cases are free to install their own disk caches or clear the memo;
    the surrounding process sees none of it afterwards.
    """
    from repro.harness import runner

    params = case.resolve_params(overrides)
    installed = runner._disk()
    runner.clear_cache()
    runner.set_disk_cache(None)
    start = time.perf_counter()
    try:
        metrics = case.run(dict(params))
    finally:
        wall_s = time.perf_counter() - start
        runner.clear_cache()
        runner.set_disk_cache(installed)
    return CaseRun(case=case, params=params, metrics=metrics, wall_s=wall_s,
                   gates=case.evaluate_gates(metrics, params))
