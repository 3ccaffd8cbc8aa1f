"""Normal counting mode and software instrumentation profiling.

Section 3.1 describes the P4's two modes of operation.  Sampling-based
counting drives the co-allocation optimization; this module implements
the other one plus the software-only alternative the paper positions
itself against:

* :class:`CountingSession` — "the performance counters are configured
  to count events detected by the CPU's event detectors.  A tool can
  read those counter values after program execution and reports the
  total number of events."  Used to "evaluate the precise effect of
  program transformations" — e.g., the before/after L1-miss counts of
  Figure 4.
* :class:`MethodProfiler` — the instrumentation approach of Georges et
  al. [15], discussed in related work: "instrument method entries and
  exits with reads of the hardware performance counters."  Every
  call/return boundary pays a counter-read cost, which is exactly why
  the paper's conclusion — sampling overhead "is low compared to
  software-only profiling techniques" (section 6.2) — holds; the
  benchmark suite reproduces that comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.hw.events import COUNTED_EVENTS, EventCounters, validate_event
from repro.vm.model import MethodInfo

#: Cycles charged per hardware-counter read at a method boundary.  The
#: P4's rdpmc/rdtsc are notoriously slow (tens of cycles) and the probe
#: must also spill/update its bookkeeping; Georges et al. report
#: substantial per-method instrumentation cost, which their phase-level
#: instrumentation exists to amortize.
COUNTER_READ_COST = 60


class CountingSession:
    """Aggregate event counting around a region of execution.

    >>> session = CountingSession(counters)      # doctest: +SKIP
    >>> session.start(); run_workload(); delta = session.stop()
    """

    def __init__(self, counters: EventCounters,
                 events: Optional[List[str]] = None):
        self.counters = counters
        self.events = [validate_event(e) for e in (events or COUNTED_EVENTS)]
        self._before: Optional[Dict[str, int]] = None
        self.deltas: Optional[Dict[str, int]] = None

    def start(self) -> None:
        self._before = self.counters.snapshot()
        self.deltas = None

    def stop(self) -> Dict[str, int]:
        if self._before is None:
            raise RuntimeError("counting session not started")
        full = self.counters.delta(self._before)
        self.deltas = {e: full[e] for e in self.events}
        self._before = None
        return self.deltas

    @staticmethod
    def compare(before: Dict[str, int],
                after: Dict[str, int]) -> Dict[str, float]:
        """Relative change per event: the "precise effect of program
        transformations" use case of section 3.1."""
        out = {}
        for event in before:
            if before[event]:
                out[event] = after.get(event, 0) / before[event] - 1.0
        return out


@dataclass
class MethodProfile:
    """Exclusive per-method event totals."""

    method: MethodInfo
    invocations: int = 0
    cycles: int = 0
    events: int = 0


class MethodProfiler:
    """Software instrumentation at every method entry and exit.

    Attached to the CPU (``cpu.profiler``), it is invoked on every call
    and return with the current cycle count and the value of the L1D_MISS
    counter; deltas between boundaries are attributed
    *exclusively* to the method on top of the (mirrored) call stack.
    Each boundary charges :data:`COUNTER_READ_COST` cycles through
    ``charge`` — the software-profiling overhead the paper's sampling
    approach avoids.
    """

    def __init__(self, event_reader: Callable[[], int],
                 charge: Callable[[int], None]):
        self.event_reader = event_reader
        self.charge = charge
        self.profiles: Dict[MethodInfo, MethodProfile] = {}
        self._stack: List[MethodInfo] = []
        self._last_cycles = 0
        self._last_events = 0
        self.boundary_reads = 0

    def _account(self, cycles: int, events: int) -> None:
        if self._stack:
            profile = self._profile(self._stack[-1])
            profile.cycles += cycles - self._last_cycles
            profile.events += events - self._last_events
        self._last_cycles = cycles
        self._last_events = events

    def _profile(self, method: MethodInfo) -> MethodProfile:
        profile = self.profiles.get(method)
        if profile is None:
            profile = MethodProfile(method)
            self.profiles[method] = profile
        return profile

    # -- CPU hooks -------------------------------------------------------------

    def on_call(self, method: MethodInfo, cycles: int) -> None:
        self.boundary_reads += 1
        self.charge(COUNTER_READ_COST)
        self._account(cycles, self.event_reader())
        self._stack.append(method)
        self._profile(method).invocations += 1

    def on_return(self, cycles: int) -> None:
        self.boundary_reads += 1
        self.charge(COUNTER_READ_COST)
        self._account(cycles, self.event_reader())
        if self._stack:
            self._stack.pop()

    # -- reporting --------------------------------------------------------------

    def ranked(self) -> List[MethodProfile]:
        """Profiles sorted by exclusive event count, hottest first."""
        return sorted(self.profiles.values(), key=lambda p: -p.events)

    def total_overhead_cycles(self) -> int:
        return self.boundary_reads * COUNTER_READ_COST
