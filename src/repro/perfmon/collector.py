"""The sample-collector "thread" (section 4.1, part 3).

"We use a separate Java thread that polls the kernel device driver via
the JNI interface whether there are any new samples.  The polling
interval is adaptively set ... depending on the size of the sample
buffer and the sampling rate.  This makes sure that no samples will be
dropped due to a full sample buffer."

In the simulation the thread is a self-rescheduling virtual-time event:
each poll drains the user library, hands the EIP batch to the
monitoring controller (which charges the mapping cost), and adapts the
next polling delay — shorter when the buffer runs hot, longer when
polls come back nearly empty.
"""

from __future__ import annotations

from typing import Callable, List

from repro.core.config import PerfmonConfig
from repro.observers import NO_OBSERVERS
from repro.perfmon.userlib import UserSampleLibrary
from repro.vm.scheduler import VirtualTimeScheduler


class CollectorThread:
    """Adaptive polling loop feeding the monitoring controller."""

    def __init__(self, userlib: UserSampleLibrary,
                 deliver: Callable[[List[int]], object],
                 scheduler: VirtualTimeScheduler,
                 config: PerfmonConfig, observers=NO_OBSERVERS):
        self.userlib = userlib
        self.deliver = deliver
        self.scheduler = scheduler
        self.config = config
        self._obs = observers
        self.poll_interval = config.poll_min_cycles * 4
        self.polls = 0
        self.samples_delivered = 0
        self._running = False
        self._trace = observers.tracer

    def start(self, now: int = 0) -> None:
        if self._running:
            raise RuntimeError("collector already running")
        self._running = True
        self.scheduler.after(now, self.poll_interval, self._tick)

    def stop(self) -> None:
        self._running = False

    def drain_now(self) -> int:
        """Synchronous final drain (end of execution)."""
        self._trace.begin("collector.drain", cat="perfmon")
        eips = self.userlib.read_samples()
        if eips:
            self._obs.sample_batch(len(eips), "drain")
            self.deliver(eips)
            self.samples_delivered += len(eips)
        self._trace.end(batch=len(eips))
        return len(eips)

    # -- the periodic tick -----------------------------------------------------

    def _tick(self, now: int) -> None:
        if not self._running:
            return
        self.polls += 1
        self._trace.begin("collector.poll", cat="perfmon")
        eips = self.userlib.read_samples()
        if eips:
            self._obs.sample_batch(len(eips), "poll")
            self.deliver(eips)
            self.samples_delivered += len(eips)
        self._adapt(len(eips))
        self._trace.end(batch=len(eips), next_poll=self.poll_interval)
        self.scheduler.after(now, self.poll_interval, self._tick)

    def _adapt(self, batch_size: int) -> None:
        """Halve the interval when polls come back heavy (buffer at risk
        of overflowing); back off when they come back nearly empty —
        "depending on the size of the sample buffer and the sampling
        rate" (section 4.1)."""
        cfg = self.config
        if batch_size >= cfg.poll_batch_high:
            self.poll_interval = max(cfg.poll_min_cycles,
                                     self.poll_interval // 2)
        elif batch_size < cfg.poll_batch_low:
            self.poll_interval = min(cfg.poll_max_cycles,
                                     self.poll_interval * 2)

    def publish_metrics(self, metrics) -> None:
        """Export the polling statistics (call once per run)."""
        metrics.counter("perfmon.collector.polls",
                        "collector-thread poll ticks").inc(self.polls)
        metrics.counter("perfmon.collector.samples_delivered",
                        "EIPs handed to the controller"
                        ).inc(self.samples_delivered)
        metrics.gauge("perfmon.collector.poll_interval",
                      "adaptive polling delay in cycles"
                      ).set(self.poll_interval)
        batches = metrics.histogram("perfmon.collector.batch_size",
                                    "samples per poll")
        for span in self._trace.spans:
            if span.name == "collector.poll":
                batches.observe(span.args["batch"])
