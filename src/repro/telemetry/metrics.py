"""Labeled metrics with an O(1) hot path and a free "off" switch.

The registry is deliberately minimal — three instrument kinds, no
timestamps, no background threads — because it records *simulated*
quantities: every number in here is derived from the virtual cycle
clock and the deterministic event streams of the simulation, so a
sample-on-write model is exact, not approximate.

Two properties matter for the paper's methodology:

* **Recording must not perturb the simulation.**  Instruments never
  touch the cycle clock, the RNGs, or any VM state; they are pure
  observers.  The telemetry invariant test
  (``tests/test_telemetry.py``) asserts that runs with and without
  telemetry produce bit-identical :class:`~repro.vm.vmcore.RunResult`
  numbers.
* **Disabled telemetry must cost (almost) nothing.**  The null
  registry hands out one shared no-op instrument, so instrumented code
  holds a reference whose ``inc``/``set``/``observe`` are empty
  methods — no branches at the call sites.
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
    """Process-wide named-instrument registry.

    Factories are idempotent: asking twice for the same name returns the
    same instrument, so instrumented components can re-declare their
    metrics cheaply in ``__init__`` and share series across VM runs that
    reuse one :class:`~repro.telemetry.Telemetry`.
    """

    enabled = True

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


class _NullInstrument:
    """Shared no-op stand-in for every instrument kind."""

    __slots__ = ()
    name = "null"
    help = ""
    value = 0
    count = 0
    sum = 0
    mean = 0.0
    children: Dict[Tuple[str, ...], object] = {}
    buckets: Dict[int, int] = {}

    def inc(self, amount: int = 1) -> None:
        pass

    def dec(self, amount: int = 1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def labels(self, *values: str) -> "_NullInstrument":
        return self

    def bucket_bounds(self):
        return []


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry(MetricsRegistry):
    """Registry whose instruments record nothing and store nothing."""

    enabled = False

    def __init__(self):
        super().__init__()

    def counter(self, name: str, help: str = "") -> Counter:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "") -> Histogram:
        return _NULL_INSTRUMENT  # type: ignore[return-value]
