"""Telemetry for the simulated HPM pipeline.

The paper's contribution is a *low-overhead monitoring pipeline*; this
package makes our reproduction of that pipeline observable instead of a
black box.  It bundles:

* :mod:`repro.telemetry.metrics` — a registry of labeled
  Counters/Gauges/Histograms with an O(1) hot path,
* :mod:`repro.telemetry.tracer` — span tracing stamped with the
  **simulated cycle clock** (never wall time),
* :mod:`repro.telemetry.export` — Chrome trace-event JSON (Perfetto),
  JSONL, and text-timeline exporters.

Usage::

    from repro.telemetry import Telemetry
    tele = Telemetry()
    result = run_program(program, SystemConfig(telemetry=tele))
    export.write_chrome_trace("out.json", tele.tracer, tele.metrics)

Read the registry after the run has finished: the statistics a
component already keeps are exported from the statistic itself in one
end-of-run sweep (:meth:`repro.observers.Observers.publish`), so the
registry is complete once ``VM.finish()`` has run, not in flight.

The hard invariant: telemetry is a pure observer.  Instrumented code
paths never charge cycles, consume randomness, or mutate VM state on
behalf of telemetry, so a run with telemetry enabled is cycle-identical
to a run without it — and the disabled default (:data:`NULL_TELEMETRY`)
routes every record into shared no-op instruments.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    REGISTRY,
)
from repro.telemetry.tracer import NullTracer, SpanEvent, Tracer


class Telemetry:
    """One metrics registry + one tracer, enabled or null."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None, enabled: bool = True):
        if enabled:
            self.metrics = metrics if metrics is not None else MetricsRegistry()
            self.tracer = tracer if tracer is not None else Tracer()
        else:
            self.metrics = metrics if metrics is not None \
                else NullMetricsRegistry()
            self.tracer = tracer if tracer is not None else NullTracer()
        self.enabled = enabled

    def bind_clock(self, clock: Callable[[], int]) -> None:
        """Point the tracer at a cycle clock (the VM binds its CPU's)."""
        if self.enabled:
            self.tracer.clock = clock


#: Shared disabled instance: recording through it stores nothing.  The
#: VM uses this whenever ``SystemConfig.telemetry`` is None (the
#: default), which is what keeps un-instrumented runs bit-identical to
#: the pre-telemetry behavior.
NULL_TELEMETRY = Telemetry(enabled=False)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NullTracer",
    "NULL_TELEMETRY",
    "REGISTRY",
    "SpanEvent",
    "Telemetry",
    "Tracer",
]
