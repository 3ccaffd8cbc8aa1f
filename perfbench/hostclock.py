"""Host time measured against a calibration kernel run at the same moment.

This sandbox shares its two cores with other tenants: the same guest
run takes 1.4 s in one ten-second stretch and 2.0 s in the next, and
the median over a 20 s window still moves by 7-10 % from window to
window (README.md, "Measured noise").  The slowdown is a change in the
speed of the processor, not time stolen from it (process CPU time moves
with wall time), so it hits any Python code running at that moment.

Every timed segment is therefore bracketed by a fixed pure-Python
kernel, and the segment's time is reported in *reference seconds*:

    reference_s = wall_s * KERNEL_REFERENCE_S / mean(kernel before, after)

On a quiet reference box the kernel takes ``KERNEL_REFERENCE_S`` and
reference seconds equal wall seconds.  The kernel is part of the
benchmark, not of the program, so it is identical on both sides of any
comparison and a faster program still reads as faster.  The kernel mixes
arithmetic and dict stores with a pointer chase over a few MiB of small
objects, the two things the simulator itself does, so that contention
for the core and for the caches slows it about as much as the program.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

#: What one kernel run takes on this box when its neighbours are quiet.
KERNEL_REFERENCE_S = 0.0100

#: Loop iterations of one kernel run (about 10 ms here).
KERNEL_STEPS = 80_000

#: A calibration this recent (seconds) still describes "now".
_FRESH_S = 0.004


class _Cell:
    __slots__ = ("value", "link")

    def __init__(self, value: int, link: int):
        self.value = value
        self.link = link


class _Region:
    ref_s = 0.0


class HostClock:
    """Times callables in reference seconds (see the module docstring)."""

    def __init__(self, tracer=None):
        rng = random.Random(0x5EED)
        size = 1 << 18
        self._cells = [_Cell(i, rng.randrange(size)) for i in range(size)]
        self._jump = [rng.randrange(size) for _ in range(size)]
        self._last_end = 0.0
        self._last_s = 0.0
        self.kernel_runs = 0
        self.kernel_total_s = 0.0
        self._calibrate = self._kernel
        if tracer is not None:
            self._calibrate = tracer.wrapper("bench.calibrate", self._kernel)

    def _kernel(self) -> float:
        cells, jump = self._cells, self._jump
        table = {}
        acc = idx = 0
        start = time.perf_counter()
        for i in range(KERNEL_STEPS):
            acc = (acc * 31 + i) & 0xFFFF
            table[acc & 255] = i
            cell = cells[idx]
            acc += cell.value
            idx = jump[cell.link]
        end = time.perf_counter()
        self._last_end = end
        self._last_s = end - start
        self.kernel_runs += 1
        self.kernel_total_s += end - start
        return self._last_s

    def speed(self) -> float:
        """Mean host speed over every kernel run so far (1.0 = reference)."""
        return KERNEL_REFERENCE_S * self.kernel_runs / self.kernel_total_s

    def timed(self, fn, *args, **kwargs):
        """Run ``fn``; return ``(result, reference_s, wall_s)``."""
        if time.perf_counter() - self._last_end > _FRESH_S:
            self._calibrate()
        before = self._last_s
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        after = self._calibrate()
        speed = (before + after) / 2 / KERNEL_REFERENCE_S
        return result, wall / speed, wall

    @contextmanager
    def region(self):
        """Reference seconds of a long stretch that calls :meth:`timed`
        inside: its wall time less the kernel runs it contains, against
        the mean of those runs and one more at either end.  Read
        ``ref_s`` from the yielded object after the block."""
        region = _Region()
        kernels = self._calibrate()
        runs, total = self.kernel_runs, self.kernel_total_s
        start = time.perf_counter()
        yield region
        wall = time.perf_counter() - start
        inside = self.kernel_total_s - total
        count = self.kernel_runs - runs + 2
        kernels += inside + self._calibrate()
        region.ref_s = (wall - inside) * KERNEL_REFERENCE_S * count / kernels
