"""Perfmon loadable-kernel-module analog (section 4.1, part 1).

"This kernel module is part of the Perfmon infrastructure ... It offers
the functions to access the performance counter hardware for a variety
of hardware platforms.  The kernel module hides the platform-specific
details from the JVM.  It also provides the interrupt handler that is
called by the sampling hardware when the CPU buffer for the samples is
full."

The module owns the kernel-side sample buffer: the PMU interrupt
handler appends the DS-buffer contents, and the user-space library
reads batches out (pulling any pending hardware samples first, as the
real perfmon read path does).  Overflow is counted, not fatal — the
collector thread's adaptive polling exists precisely to keep this
buffer from filling (section 4.1, part 3).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import PerfmonConfig
from repro.hw.pebs import PEBSUnit, Sample
from repro.observers import NO_OBSERVERS


class PerfmonSession:
    """One monitoring session: an armed event with its kernel buffer."""

    def __init__(self, config: PerfmonConfig, pebs: PEBSUnit,
                 event: str, interval: int, observers=NO_OBSERVERS):
        self.config = config
        self.pebs = pebs
        self.event = event
        self.interval = interval
        self._buffer: List[Sample] = []
        self.samples_received = 0
        self.samples_dropped = 0
        self._trace = observers.tracer
        self._m_interrupts = observers.metrics.counter(
            "perfmon.kernel.interrupts", "watermark interrupts handled")
        pebs.configure(event, interval)

    # -- interrupt side ---------------------------------------------------------

    def on_interrupt(self, batch: List[Sample]) -> None:
        """PMU interrupt handler: move DS samples into the kernel buffer."""
        capacity = self.config.kernel_buffer_capacity
        room = capacity - len(self._buffer)
        self._m_interrupts.inc()
        if room >= len(batch):
            self._buffer.extend(batch)
            self.samples_received += len(batch)
        else:
            dropped = len(batch) - room
            self._buffer.extend(batch[:room])
            self.samples_received += room
            self.samples_dropped += dropped
            self._trace.instant("perfmon.buffer_overflow", cat="perfmon",
                                dropped=dropped)
        self._trace.sample("perfmon.kernel.buffer_fill", len(self._buffer),
                           cat="perfmon")

    # -- read side ------------------------------------------------------------------

    def read(self, max_samples: int) -> List[Sample]:
        """Return up to ``max_samples``, draining pending hardware samples
        first (the perfmon read path)."""
        pending = self.pebs.drain()
        if pending:
            self.on_interrupt(pending)
        batch = self._buffer[:max_samples]
        del self._buffer[:len(batch)]
        return batch

    def set_interval(self, interval: int) -> None:
        """Adjust the hardware sampling interval (auto mode)."""
        self.interval = interval
        self.pebs.set_interval(interval)

    def close(self) -> None:
        self.pebs.stop()

    @property
    def pending(self) -> int:
        return len(self._buffer)

    def publish_metrics(self, metrics) -> None:
        """Export the buffer statistics (call once per run)."""
        metrics.counter("perfmon.kernel.samples_received",
                        "samples moved DS buffer -> kernel buffer"
                        ).inc(self.samples_received)
        metrics.counter("perfmon.kernel.samples_dropped",
                        "samples lost to a full kernel buffer"
                        ).inc(self.samples_dropped)
        metrics.gauge("perfmon.kernel.buffer_fill",
                      "kernel buffer occupancy").set(self.pending)


class PerfmonKernelModule:
    """Session factory; hides the machine-specific PMU details."""

    def __init__(self, config: PerfmonConfig, observers=NO_OBSERVERS):
        self.config = config
        self._obs = observers
        self.session: Optional[PerfmonSession] = None

    def create_session(self, pebs: PEBSUnit, event: str,
                       interval: int) -> PerfmonSession:
        """Arm the PMU; only one session at a time (one PEBS event on P4)."""
        if self.session is not None:
            raise RuntimeError("a perfmon session is already active")
        self.session = PerfmonSession(self.config, pebs, event, interval,
                                      observers=self._obs)
        return self.session

    def close_session(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def publish_metrics(self, metrics) -> None:
        if self.session is not None:
            self.session.publish_metrics(metrics)
