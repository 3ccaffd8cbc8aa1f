"""Precise event-based sampling (PEBS) unit.

Models the P4 mechanism of sections 3.1/4.1:

* an interval counter is armed with the sampling interval *n*; every
  *n*-th occurrence of the monitored event is sampled,
* the low bits of the reset value are randomized to avoid measuring
  biased results "by sampling at the same locations over and over"
  (section 6.1; 8 bits in the paper's configuration),
* a microcode routine saves the CPU state (40 bytes: EIP + registers)
  into a debug-store (DS) buffer supplied by the OS — we charge its cost
  in cycles to the running program,
* an interrupt is generated only when the buffer is filled to a
  specified watermark; the handler (the perfmon kernel module) drains it.

Only one event can be measured at a time, enforced here as on the P4.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from repro.core.config import PEBSConfig
from repro.hw.events import validate_event


class Sample:
    """One 40-byte PEBS record: the EIP plus the register contents.

    The paper analyzes only the EIP ("at the moment we do not monitor the
    data register contents"), so registers are carried as an opaque tuple.
    """

    __slots__ = ("eip", "regs")

    def __init__(self, eip: int, regs: tuple = ()):
        self.eip = eip
        self.regs = regs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Sample(eip={self.eip:#x})"


class PEBSUnit:
    """The sampling hardware.

    Parameters
    ----------
    config:
        Buffer geometry and per-sample/per-interrupt cycle costs.
    cost_sink:
        Called with a cycle count whenever the unit charges time to the
        executing program (microcode save, interrupt delivery).
    interrupt_handler:
        The kernel module's PMU interrupt handler.  Receives the drained
        DS-buffer contents when the watermark is reached.
    rng:
        Source of the interval randomization.
    """

    def __init__(
        self,
        config: PEBSConfig,
        cost_sink: Callable[[int], None],
        interrupt_handler: Callable[[List[Sample]], None],
        rng: Optional[random.Random] = None,
    ):
        self.config = config
        self.cost_sink = cost_sink
        self.interrupt_handler = interrupt_handler
        self.rng = rng if rng is not None else random.Random(0)
        self.event: Optional[str] = None
        self.interval = 0
        self._countdown = 0
        self._ds_buffer: List[Sample] = []
        self._watermark = max(1, int(config.ds_capacity * config.watermark))
        self.enabled = False
        # Lifetime statistics.
        self.samples_taken = 0
        self.interrupts_raised = 0
        self.samples_dropped = 0

    # -- configuration --------------------------------------------------------

    def configure(self, event: str, interval: int) -> None:
        """Arm the unit for ``event`` with the given sampling interval."""
        if interval < 1:
            raise ValueError("sampling interval must be >= 1")
        self.event = validate_event(event, pebs=True)
        self.interval = interval
        self._countdown = self._next_countdown()
        self.enabled = True

    def set_interval(self, interval: int) -> None:
        """Change the sampling interval (used by the adaptive "auto" mode)."""
        if interval < 1:
            raise ValueError("sampling interval must be >= 1")
        self.interval = interval
        if self._countdown > interval:
            self._countdown = self._next_countdown()

    def stop(self) -> None:
        self.enabled = False

    def _next_countdown(self) -> int:
        """Interval with randomized low bits (mean-preserving jitter).

        The number of randomized bits is capped so the jitter stays well
        below the (scaled) interval; with the paper's unscaled 25K..100K
        intervals the full 8 bits are used.  With ``randomize_bits = 0``
        the interval is exact — which exposes the aliasing bias the
        randomization exists to prevent ("this should prevent us from
        measuring biased results by sampling at the same locations over
        and over", section 6.1); see the bias tests/ablation.
        """
        if self.config.randomize_bits <= 0:
            return self.interval
        bits = min(self.config.randomize_bits,
                   max(1, self.interval.bit_length() - 3))
        jitter = self.rng.getrandbits(bits) - (1 << (bits - 1))
        return max(1, self.interval + jitter)

    # -- the event path --------------------------------------------------------

    def on_event(self, eip: int) -> None:
        """Called by the memory system on each occurrence of the armed event."""
        if not self.enabled:
            return
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = self._next_countdown()
        # Microcode save routine: store the CPU state into the DS area.
        self.cost_sink(self.config.microcode_cost)
        if len(self._ds_buffer) >= self.config.ds_capacity:
            # Buffer overrun: the sample is lost.  This only happens when
            # the interrupt handler cannot keep up.
            self.samples_dropped += 1
            return
        self._ds_buffer.append(Sample(eip))
        self.samples_taken += 1
        if len(self._ds_buffer) >= self._watermark:
            self._raise_interrupt()

    def _raise_interrupt(self) -> None:
        self.interrupts_raised += 1
        batch = self._ds_buffer
        self._ds_buffer = []
        self.cost_sink(self.config.interrupt_cost)
        self.cost_sink(self.config.kernel_copy_cost * len(batch))
        self.interrupt_handler(batch)

    def flush(self) -> None:
        """Drain a partially filled DS buffer (used on session teardown and
        by the kernel module's explicit read path)."""
        if self._ds_buffer:
            self._raise_interrupt()

    def drain(self) -> List[Sample]:
        """Read-side drain: hand pending samples to the caller without an
        interrupt (the perfmon read path), charging only the copy cost."""
        batch = self._ds_buffer
        if not batch:
            return []
        self._ds_buffer = []
        self.cost_sink(self.config.kernel_copy_cost * len(batch))
        return batch

    @property
    def pending(self) -> int:
        """Samples sitting in the DS area, not yet delivered to the kernel."""
        return len(self._ds_buffer)
