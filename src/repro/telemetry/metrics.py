"""Labeled metrics, filled once a run has finished.

The registry is deliberately minimal — three instrument kinds, no
timestamps, no background threads — because it records *simulated*
quantities: every number in here is derived from the virtual cycle
clock and the deterministic event streams of the simulation, so it is
exact, not approximate.

Nothing writes to it in flight.  Each component keeps its statistics
as plain tallies (or reads them off the tracer's recorded spans) and
exports them in the end-of-run sweep,
:meth:`repro.observers.Observers.publish`; so recording cannot perturb
the simulation, and a run without telemetry touches no instrument at
all.  ``tests/test_observer_purity.py`` asserts that runs with and
without telemetry produce bit-identical
:class:`~repro.vm.vmcore.RunResult` numbers.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class Counter:
    """Monotonically increasing count, optionally split by label values."""

    __slots__ = ("name", "help", "value", "_children")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0
        self._children: Dict[Tuple[str, ...], "Counter"] = {}

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def labels(self, *values: str) -> "Counter":
        """Child counter for one label-value combination (created lazily)."""
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            child = Counter(self.name)
            self._children[key] = child
        return child

    @property
    def children(self) -> Dict[Tuple[str, ...], "Counter"]:
        return self._children


class Gauge:
    """A value that can go up and down (buffer fills, current interval)."""

    __slots__ = ("name", "help", "value", "_children")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0
        self._children: Dict[Tuple[str, ...], "Gauge"] = {}

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def dec(self, amount: int = 1) -> None:
        self.value -= amount

    def labels(self, *values: str) -> "Gauge":
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            child = Gauge(self.name)
            self._children[key] = child
        return child

    @property
    def children(self) -> Dict[Tuple[str, ...], "Gauge"]:
        return self._children


class Histogram:
    """Power-of-two-bucketed distribution (batch sizes, pause cycles).

    ``observe(v)`` is O(1): the bucket index is ``v.bit_length()``, i.e.
    bucket *i* holds values in ``[2^(i-1), 2^i)``.
    """

    __slots__ = ("name", "help", "count", "sum", "buckets")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.count = 0
        self.sum = 0
        self.buckets: Dict[int, int] = {}

    def observe(self, value) -> None:
        self.count += 1
        self.sum += value
        idx = int(value).bit_length()
        self.buckets[idx] = self.buckets.get(idx, 0) + 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def bucket_bounds(self) -> List[Tuple[int, int]]:
        """[(upper_bound_exclusive, count), ...] sorted by bound."""
        return sorted(((1 << i, n) for i, n in self.buckets.items()))


class MetricsRegistry:
    """Named-instrument registry of one run (or of the fleet daemon).

    Factories are idempotent: asking twice for the same name returns the
    same instrument, and the first declaration's help string stays.
    Components declare and fill their instruments in one place, their
    ``publish_metrics``, after the run.
    """

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def _get(self, kind, name: str, help: str):
        inst = self._metrics.get(name)
        if inst is None:
            inst = kind(name, help)
            self._metrics[name] = inst
        elif not isinstance(inst, kind):
            raise TypeError(f"metric {name!r} already registered as "
                            f"{type(inst).__name__}")
        return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(Histogram, name, help)

    def get(self, name: str):
        """Look up an instrument by name (None when absent)."""
        return self._metrics.get(name)

    def instruments(self) -> List[Tuple[str, object]]:
        """All registered instruments as sorted (name, instrument)."""
        return sorted(self._metrics.items())

    def value(self, name: str, default=None):
        """Convenience: the scalar value of a counter/gauge by name."""
        inst = self._metrics.get(name)
        if inst is None:
            return default
        return inst.value

    # -- views -------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Plain-data dump: {name: value | {label-key: value} | hist-dict}."""
        out: Dict[str, object] = {}
        for name, inst in sorted(self._metrics.items()):
            if isinstance(inst, Histogram):
                out[name] = {"count": inst.count, "sum": inst.sum,
                             "buckets": {str(b): n
                                         for b, n in inst.bucket_bounds()}}
            elif inst.children:
                per_label = {",".join(k): c.value
                             for k, c in sorted(inst.children.items())}
                if inst.value:
                    per_label[""] = inst.value
                out[name] = per_label
            else:
                out[name] = inst.value
        return out

    def render(self) -> str:
        """Human-readable text dump, one instrument per line."""
        lines: List[str] = []
        for name, inst in sorted(self._metrics.items()):
            kind = type(inst).__name__.lower()
            if isinstance(inst, Histogram):
                lines.append(f"{kind} {name} count={inst.count} "
                             f"sum={inst.sum} mean={inst.mean:.1f}")
            else:
                if inst.value or not inst.children:
                    lines.append(f"{kind} {name} {inst.value}")
                for key, child in sorted(inst.children.items()):
                    lines.append(f"{kind} {name}{{{','.join(key)}}} "
                                 f"{child.value}")
        return "\n".join(lines)
