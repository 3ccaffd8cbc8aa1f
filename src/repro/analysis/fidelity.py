"""Sampling-fidelity auditor: sampled profiles vs. exact ground truth.

The paper's central claim is that *sampled* PEBS profiles are accurate
enough (and cheap enough) to steer online co-allocation.  The simulator
is in the unique position to check that claim exactly: it sees every
cache miss, not every *n*-th one.  This module taps that stream with an
:class:`ExactAttributionOracle` — a pure observer that charges every
occurrence of the monitored event to its method / bytecode / field
through the *same* resolution pipeline the sampling stack uses
(sorted code table -> machine-code maps -> instructions-of-interest,
sections 4.2/5.2) — and scores the run's sample-derived profile against
that ground truth:

* **overlap coefficient** of the top-N hot sets (methods and fields):
  did sampling find the same hot spots?
* **Spearman rank correlation** over the union of profiled names: did
  sampling order them the same way?
* **normalized per-field absolute error**: how far off are the
  estimated (interval-weighted) event counts?

Swept across the paper's sampling intervals this yields the
accuracy-vs-overhead frontier of Figure 2's regime: fidelity falls and
overhead falls as the interval grows (Nonell et al. quantify the same
frontier on real PEBS hardware).

The oracle is subject to the telemetry invariant: attaching it must
leave cycles, counters, and the PEBS sample stream bit-identical
(enforced by ``tests/test_fidelity.py``).  It charges no cycles,
consumes no randomness, and resolves through a
:class:`~repro.core.mapping.SampleResolver` of its own, so it never
touches the controller's resolver statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.config import scaled_interval
from repro.core.mapping import SampleResolver
from repro.jit.codecache import CodeCache

#: Bump when the audit report layout changes (checked by the CI smoke job).
AUDIT_SCHEMA_VERSION = 1

#: The paper's sampling intervals, densest first.  The first entry is
#: the default evaluation point for the acceptance thresholds.
DEFAULT_INTERVALS: Tuple[str, ...] = ("25K", "50K", "100K")

#: Size of the hot sets compared by the overlap coefficient.
DEFAULT_TOP_N = 10


class ExactAttributionOracle:
    """Exhaustive, zero-cost sample resolution: the ground truth.

    Resolves through its own :class:`repro.core.mapping.SampleResolver`
    — foreign EIPs are dropped, baseline-compiled methods carry no
    interest information, opt methods attribute through the interest
    table (built on a method's first event) — but sees every event
    instead of every *n*-th, charges no mapping cost, and accumulates
    into its own tables keyed by qualified names (portable,
    comparison-ready).  The drop and attribution counters are views of
    the resolver's statistics.
    """

    attributed = property(lambda self: self.resolver.stats.attributed)
    unattributed = property(lambda self: self.resolver.stats.unattributed)
    dropped_foreign = property(
        lambda self: self.resolver.stats.dropped_foreign)
    dropped_baseline = property(
        lambda self: self.resolver.stats.dropped_baseline)

    def __init__(self, codecache: CodeCache):
        self.resolver = SampleResolver(codecache)
        #: qualified method name -> exact events in its code.
        self.method_events: Dict[str, int] = {}
        #: qualified field name -> exact events attributed to it.
        self.field_events: Dict[str, int] = {}
        #: (qualified method name, bytecode index) -> exact events.
        self.bytecode_events: Dict[Tuple[str, int], int] = {}
        self.total_events = 0

    def attach(self, vm) -> None:
        """Tap ``vm``'s memory system for its monitored event."""
        vm.memsys.attach_observer(vm.config.sampled_event, self.on_event)

    def on_event(self, eip: int) -> None:
        """Observe one event occurrence (the memory-system hook)."""
        self.total_events += 1
        resolved = self.resolver.resolve(eip)
        if resolved is None:
            return
        name = resolved.cm.method.qualified_name
        self.method_events[name] = self.method_events.get(name, 0) + 1
        bc_key = (name, resolved.bc_index)
        self.bytecode_events[bc_key] = self.bytecode_events.get(bc_key, 0) + 1
        if resolved.field is not None:
            fname = resolved.field.qualified_name
            self.field_events[fname] = self.field_events.get(fname, 0) + 1


# ---------------------------------------------------------------------------
# Fidelity metrics
# ---------------------------------------------------------------------------

def hot_set(profile: Dict[str, int], top_n: int) -> List[str]:
    """The ``top_n`` hottest names, deterministically tie-broken."""
    ranked = sorted(profile.items(), key=lambda kv: (-kv[1], kv[0]))
    return [name for name, _ in ranked[:top_n]]

def overlap_coefficient(exact: Dict[str, int], sampled: Dict[str, int],
                        top_n: int = DEFAULT_TOP_N) -> float:
    """Overlap of the two top-N hot sets: ``|A & B| / min(|A|, |B|)``.

    1.0 means sampling found exactly the hot set the ground truth
    names; an empty sampled profile against a non-empty exact one
    scores 0.0 (sampling found nothing).
    """
    a, b = set(hot_set(exact, top_n)), set(hot_set(sampled, top_n))
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


def _ranks(values: List[float]) -> List[float]:
    """Fractional ranks (average rank across ties)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(exact: Dict[str, int], sampled: Dict[str, int]) -> float:
    """Spearman rank correlation over the union of profiled names.

    Names missing from one profile count as 0 events there.  Degenerate
    inputs (fewer than two names, or a constant profile) return 1.0
    when the profiles induce the same ordering and 0.0 otherwise.
    """
    names = sorted(set(exact) | set(sampled))
    if len(names) < 2:
        # One or zero names: the ordering is trivially identical; all
        # that can differ is *which* names were seen at all.
        hit = {n for n in exact if exact[n]} == {n for n in sampled
                                                if sampled[n]}
        return 1.0 if hit else 0.0
    xs = _ranks([float(exact.get(n, 0)) for n in names])
    ys = _ranks([float(sampled.get(n, 0)) for n in names])
    n = len(names)
    mean = (n + 1) / 2
    cov = sum((x - mean) * (y - mean) for x, y in zip(xs, ys))
    var_x = sum((x - mean) ** 2 for x in xs)
    var_y = sum((y - mean) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 1.0 if xs == ys else 0.0
    return cov / (var_x * var_y) ** 0.5


def normalized_abs_error(exact: Dict[str, int],
                         sampled: Dict[str, int]) -> float:
    """Normalized L1 error of the estimated counts: ``sum |est - true|
    / sum true`` over the union of names (0.0 = perfect estimates)."""
    names = set(exact) | set(sampled)
    total = sum(exact.values())
    err = sum(abs(sampled.get(n, 0) - exact.get(n, 0)) for n in names)
    return err / max(1, total)


# ---------------------------------------------------------------------------
# The audit
# ---------------------------------------------------------------------------

@dataclass
class IntervalAudit:
    """Fidelity and overhead of one run at one sampling interval."""

    interval: str
    scaled_interval: int
    cycles: int
    monitoring_cycles: int
    samples_taken: int
    exact_events: int
    exact_attributed: int
    sampled_attributed: int
    method_overlap: float
    field_overlap: float
    method_spearman: float
    field_spearman: float
    field_abs_error: float
    top_methods_exact: List[Tuple[str, int]] = field(default_factory=list)
    top_methods_sampled: List[Tuple[str, int]] = field(default_factory=list)
    top_fields_exact: List[Tuple[str, int]] = field(default_factory=list)
    top_fields_sampled: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def overhead(self) -> float:
        """Monitoring cycles as a fraction of total cycles."""
        return self.monitoring_cycles / self.cycles if self.cycles else 0.0

    @property
    def fidelity(self) -> float:
        """The headline fidelity score: top-N hot-method overlap."""
        return self.method_overlap

    def to_json(self) -> dict:
        return {
            "interval": self.interval,
            "scaled_interval": self.scaled_interval,
            "cycles": self.cycles,
            "monitoring_cycles": self.monitoring_cycles,
            "overhead": self.overhead,
            "samples_taken": self.samples_taken,
            "exact_events": self.exact_events,
            "exact_attributed": self.exact_attributed,
            "sampled_attributed": self.sampled_attributed,
            "fidelity": self.fidelity,
            "method_overlap": self.method_overlap,
            "field_overlap": self.field_overlap,
            "method_spearman": self.method_spearman,
            "field_spearman": self.field_spearman,
            "field_abs_error": self.field_abs_error,
            "top_methods_exact": [list(t) for t in self.top_methods_exact],
            "top_methods_sampled": [list(t) for t in self.top_methods_sampled],
            "top_fields_exact": [list(t) for t in self.top_fields_exact],
            "top_fields_sampled": [list(t) for t in self.top_fields_sampled],
        }


@dataclass
class AuditReport:
    """The accuracy-vs-overhead frontier for one benchmark."""

    benchmark: str
    seed: int
    event: str
    top_n: int
    intervals: List[IntervalAudit]

    def frontier(self) -> List[Tuple[float, float]]:
        """(overhead, fidelity) points, in sweep order."""
        return [(ia.overhead, ia.fidelity) for ia in self.intervals]

    def to_json(self) -> dict:
        return {
            "schema": AUDIT_SCHEMA_VERSION,
            "benchmark": self.benchmark,
            "seed": self.seed,
            "event": self.event,
            "top_n": self.top_n,
            "intervals": [ia.to_json() for ia in self.intervals],
        }


def _top(profile: Dict[str, int], top_n: int) -> List[Tuple[str, int]]:
    return sorted(profile.items(), key=lambda kv: (-kv[1], kv[0]))[:top_n]


def audit_run(spec, top_n: int = DEFAULT_TOP_N) -> Tuple[IntervalAudit, object]:
    """Run ``spec`` once with the oracle attached; score the profiles.

    Returns ``(audit, run_result)``.  The run is always simulated fresh
    (the oracle needs a live memory system), but by the pure-observer
    invariant its result is bit-identical to an unaudited run of the
    same spec.
    """
    from repro.harness.runner import make_vm

    vm, _workload = make_vm(spec.benchmark, spec)
    if vm.controller is None:
        raise ValueError("the fidelity audit needs monitoring enabled "
                         f"(spec {spec!r} has monitoring=False)")
    oracle = ExactAttributionOracle(vm.codecache)
    oracle.attach(vm)
    result = vm.run()

    monitor = vm.controller.monitor
    sampled_methods = {m.qualified_name: n
                       for m, n in monitor.method_events.items()}
    sampled_fields = {f.qualified_name: n
                      for f, n in monitor.cumulative.items()}

    audit = IntervalAudit(
        interval=spec.interval,
        scaled_interval=(scaled_interval(spec.interval)
                         if spec.interval != "auto"
                         else vm.controller.current_interval),
        cycles=result.cycles,
        monitoring_cycles=result.monitoring_cycles,
        samples_taken=vm.pebs.samples_taken,
        exact_events=oracle.total_events,
        exact_attributed=oracle.attributed,
        sampled_attributed=vm.controller.resolver.stats.attributed,
        method_overlap=overlap_coefficient(oracle.method_events,
                                           sampled_methods, top_n),
        field_overlap=overlap_coefficient(oracle.field_events,
                                          sampled_fields, top_n),
        method_spearman=spearman(oracle.method_events, sampled_methods),
        field_spearman=spearman(oracle.field_events, sampled_fields),
        field_abs_error=normalized_abs_error(oracle.field_events,
                                             sampled_fields),
        top_methods_exact=_top(oracle.method_events, top_n),
        top_methods_sampled=_top(sampled_methods, top_n),
        top_fields_exact=_top(oracle.field_events, top_n),
        top_fields_sampled=_top(sampled_fields, top_n),
    )
    return audit, result


def audit_benchmark(benchmark: str,
                    intervals: Tuple[str, ...] = DEFAULT_INTERVALS,
                    seed: int = 1, top_n: int = DEFAULT_TOP_N,
                    event: str = "L1D_MISS",
                    coalloc: bool = False) -> AuditReport:
    """Sweep the sampling intervals; return the fidelity frontier.

    Defaults mirror the Figure 2 configuration: monitoring on,
    co-allocation off, so the sweep isolates sampling accuracy from
    placement feedback effects.
    """
    from repro.harness.runner import RunSpec

    audits: List[IntervalAudit] = []
    for interval in intervals:
        spec = RunSpec(benchmark=benchmark, coalloc=coalloc,
                       monitoring=True, interval=interval,
                       event=event, seed=seed)
        audit, _result = audit_run(spec, top_n=top_n)
        audits.append(audit)
    return AuditReport(benchmark=benchmark, seed=seed, event=event,
                       top_n=top_n, intervals=audits)


def format_report(report: AuditReport) -> str:
    """Human-readable audit report for the ``repro audit`` subcommand."""
    lines = [
        f"fidelity audit: {report.benchmark} "
        f"(event {report.event}, seed {report.seed}, "
        f"top-{report.top_n} hot sets)",
        "",
        f"{'interval':>8} {'overhead':>9} {'samples':>8} {'exact':>9} "
        f"{'m.overlap':>9} {'f.overlap':>9} {'m.rho':>6} {'f.rho':>6} "
        f"{'f.err':>6}",
    ]
    for ia in report.intervals:
        lines.append(
            f"{ia.interval:>8} {ia.overhead:>8.2%} {ia.samples_taken:>8,} "
            f"{ia.exact_events:>9,} {ia.method_overlap:>9.2f} "
            f"{ia.field_overlap:>9.2f} {ia.method_spearman:>6.2f} "
            f"{ia.field_spearman:>6.2f} {ia.field_abs_error:>6.2f}")
    first = report.intervals[0] if report.intervals else None
    if first is not None:
        lines.append("")
        lines.append(f"hottest methods at {first.interval} "
                     f"(exact | sampled estimate):")
        sampled = dict(first.top_methods_sampled)
        for name, events in first.top_methods_exact[:5]:
            est = sampled.get(name)
            est_txt = f"{est:,}" if est is not None else "missed"
            lines.append(f"  {name:<28} {events:>9,} | {est_txt}")
        if first.top_fields_exact:
            lines.append(f"hottest fields at {first.interval} "
                         f"(exact | sampled estimate):")
            sampled_f = dict(first.top_fields_sampled)
            for name, events in first.top_fields_exact[:5]:
                est = sampled_f.get(name)
                est_txt = f"{est:,}" if est is not None else "missed"
                lines.append(f"  {name:<28} {events:>9,} | {est_txt}")
    return "\n".join(lines)
