"""Telemetry for the simulated HPM pipeline.

The paper's contribution is a *low-overhead monitoring pipeline*; this
package makes our reproduction of that pipeline observable instead of a
black box.  It bundles:

* :mod:`repro.telemetry.metrics` — a registry of labeled
  Counters/Gauges/Histograms,
* :mod:`repro.telemetry.tracer` — span tracing stamped with the
  **simulated cycle clock** (never wall time),
* :mod:`repro.telemetry.export` — Chrome trace-event JSON (Perfetto),
  JSONL, and text-timeline exporters.

Usage::

    from repro.telemetry import Telemetry
    tele = Telemetry()
    result = run_program(program, SystemConfig(telemetry=tele))
    export.write_chrome_trace("out.json", tele.tracer, tele.metrics)

In flight a component reaches telemetry only through its tracer.  The
registry is read after the run: each statistic a component keeps — a
tally, or the recorded spans themselves — is exported in one end-of-run
sweep (:meth:`repro.observers.Observers.publish`), so the registry is
complete once ``VM.finish()`` has run.  One :class:`Telemetry` observes
one run.

The hard invariant: telemetry is a pure observer.  Instrumented code
paths never charge cycles, consume randomness, or mutate VM state on
behalf of telemetry, so a run with telemetry enabled is cycle-identical
to a run without it — and the disabled default (:data:`NULL_TELEMETRY`)
records no span and fills no instrument.
"""

from __future__ import annotations

from typing import Callable

from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.tracer import NullTracer, SpanEvent, Tracer


class Telemetry:
    """One metrics registry + one tracer, enabled or null."""

    def __init__(self, enabled: bool = True):
        self.metrics = MetricsRegistry()
        self.tracer = Tracer() if enabled else NullTracer()
        self.enabled = enabled

    def bind_clock(self, clock: Callable[[], int]) -> None:
        """Point the tracer at a cycle clock (the VM binds its CPU's)."""
        if self.enabled:
            self.tracer.clock = clock


#: Shared disabled instance: it records nothing, and its registry stays
#: empty.  The VM uses this whenever ``SystemConfig.telemetry`` is None
#: (the default), which is what keeps un-instrumented runs bit-identical
#: to the pre-telemetry behavior.
NULL_TELEMETRY = Telemetry(enabled=False)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "NULL_TELEMETRY",
    "SpanEvent",
    "Telemetry",
    "Tracer",
]
