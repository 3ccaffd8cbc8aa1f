"""Portable run results.

A :class:`RunRecord` is everything the experiment harness needs from one
simulated execution, detached from the live :class:`~repro.vm.vmcore.VM`
so it can cross process boundaries (the parallel scheduler) and survive
on disk (the persistent result cache).  The deep-inspection surfaces the
figures read off the VM — the per-field miss time series of Figures 7/8,
the compiler map sizes of Table 2, the feedback engine's revert log —
are extracted eagerly at run end into plain data.

The record round-trips losslessly through JSON (:meth:`to_json` /
:meth:`from_json`), which is what makes "parallel == serial" and "cached
== recomputed" exact equalities rather than approximations: a record
computed in a worker process, stored to disk, and reloaded compares
equal field-for-field to one computed inline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.monitor import moving_average
from repro.gc.stats import GCStats

#: Bump when the record layout changes; part of the disk-cache key.
#: Version 2 added ``provenance``; version 3 added the optional
#: ``lineage`` document (the serialized decision ledger); version 4
#: added ``exit_value`` (the guest main's return value — None for runs
#: truncated by ``until_cycles``), which the snapshot bit-identity
#: gates compare; version 5 added the optional ``health`` document (the
#: serialized :class:`repro.health.HealthReport`).  Only this version
#: loads: the disk cache is keyed by code version anyway, so an older
#: document is a hand-saved file, to be re-exported with ``repro run
#: --record``.
SCHEMA_VERSION = 5


@dataclass
class RunRecord:
    """One execution's results in plain, JSON-serializable data."""

    program: str
    cycles: int
    instructions: int
    app_cycles: int
    gc_cycles: int
    monitoring_cycles: int
    counters: Dict[str, int]
    gc_stats: GCStats
    monitor_summary: Optional[dict]
    #: qualified field name -> [(period end cycle, events), ...]
    field_series: Dict[str, List[Tuple[int, int]]] = field(default_factory=dict)
    #: (machine code, GC maps, MC maps) bytes of the compiled corpus.
    map_sizes: Tuple[int, int, int] = (0, 0, 0)
    #: Names of feedback experiments that were reverted during the run.
    reverted_experiments: List[str] = field(default_factory=list)
    moving_average_window: int = 3
    #: Provenance manifest (:mod:`repro.analysis.provenance`): the
    #: inputs this record is a pure function of — code version, spec +
    #: spec key, seed, fastpath knob, schema.  Stamped by the harness
    #: (:func:`repro.harness.runner.record_from_result`); None for
    #: records built directly from a RunResult.
    provenance: Optional[dict] = None
    #: The guest main method's return value (a guest int, or None for
    #: a run truncated by an ``until_cycles`` bound).  Must stay
    #: JSON-representable.
    exit_value: object = None
    #: Serialized decision ledger (:meth:`DecisionLedger.to_json`):
    #: ``{"schema", "entries", "dropped"}``.  None when the run carried
    #: no ledger (the default).
    lineage: Optional[dict] = None
    #: Serialized health report (:meth:`repro.health.HealthReport.to_json`):
    #: ``{"schema", "verdict", "phases", "findings", ...}``.  None when
    #: the run carried no health monitor.
    health: Optional[dict] = None

    # -- RunResult-compatible read surface -----------------------------------

    @property
    def l1_misses(self) -> int:
        return self.counters["L1D_MISS"]

    @property
    def l1_miss_rate(self) -> float:
        accesses = self.counters["L1D_ACCESS"]
        return self.counters["L1D_MISS"] / accesses if accesses else 0.0

    @property
    def coallocated(self) -> int:
        return self.gc_stats.coallocated_objects

    # -- time series (Figures 7 and 8) ---------------------------------------

    def series(self, field_name: str) -> List[Tuple[int, int]]:
        """Per-period events for a field, by qualified name."""
        return self.field_series.get(field_name, [])

    def cumulative_series(self, field_name: str) -> List[Tuple[int, int]]:
        out = []
        total = 0
        for end_cycle, events in self.series(field_name):
            total += events
            out.append((end_cycle, total))
        return out

    def moving_average(self, values: List[int]) -> List[float]:
        return moving_average(values, self.moving_average_window)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_result(cls, result) -> "RunRecord":
        """Extract a portable record from a live RunResult."""
        vm = result.vm
        field_series: Dict[str, List[Tuple[int, int]]] = {}
        reverted: List[str] = []
        window = 3
        map_sizes = (0, 0, 0)
        lineage = None
        health = None
        if vm is not None:
            obs = vm.observers
            if obs.lineage is not None:
                lineage = obs.lineage.to_json()
            if obs.health is not None:
                health = obs.health.report(result.cycles).to_json()
            from repro.jit.maps import corpus_map_sizes

            sizes = corpus_map_sizes(vm.codecache.methods)
            map_sizes = (sizes.machine_code, sizes.gc_maps, sizes.mc_maps)
            if vm.controller is not None:
                monitor = vm.controller.monitor
                window = monitor.config.moving_average_window
                fields = set(monitor.cumulative)
                for period in monitor.periods:
                    fields.update(period.field_counts)
                # Sorted so a record's serialized form is deterministic
                # regardless of hash randomization across processes.
                for fld in sorted(fields, key=lambda f: f.qualified_name):
                    field_series[fld.qualified_name] = monitor.series(fld)
                reverted = [e.name for e in
                            vm.controller.feedback.reverted_experiments()]
        return cls(
            program=result.program,
            cycles=result.cycles,
            instructions=result.instructions,
            app_cycles=result.app_cycles,
            gc_cycles=result.gc_cycles,
            monitoring_cycles=result.monitoring_cycles,
            counters=dict(result.counters),
            gc_stats=GCStats(**asdict(result.gc_stats)),
            monitor_summary=(dict(result.monitor_summary)
                             if result.monitor_summary else None),
            field_series=field_series,
            map_sizes=map_sizes,
            reverted_experiments=reverted,
            moving_average_window=window,
            exit_value=result.exit_value,
            lineage=lineage,
            health=health,
        )

    # -- JSON round trip -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "program": self.program,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "app_cycles": self.app_cycles,
            "gc_cycles": self.gc_cycles,
            "monitoring_cycles": self.monitoring_cycles,
            "counters": dict(self.counters),
            "gc_stats": asdict(self.gc_stats),
            "monitor_summary": self.monitor_summary,
            "field_series": {name: [list(point) for point in series]
                             for name, series in self.field_series.items()},
            "map_sizes": list(self.map_sizes),
            "reverted_experiments": list(self.reverted_experiments),
            "moving_average_window": self.moving_average_window,
            "exit_value": self.exit_value,
            "provenance": self.provenance,
            "lineage": self.lineage,
            "health": self.health,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "RunRecord":
        if not isinstance(doc, dict):
            raise ValueError(f"record document must be an object, "
                             f"got {type(doc).__name__}")
        if doc.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"record schema {doc.get('schema')!r} is not "
                             f"{SCHEMA_VERSION}; re-export it with `repro "
                             f"run --record`")
        return cls(
            program=doc["program"],
            cycles=doc["cycles"],
            instructions=doc["instructions"],
            app_cycles=doc["app_cycles"],
            gc_cycles=doc["gc_cycles"],
            monitoring_cycles=doc["monitoring_cycles"],
            counters=dict(doc["counters"]),
            gc_stats=GCStats(**doc["gc_stats"]),
            monitor_summary=doc["monitor_summary"],
            field_series={name: [tuple(point) for point in series]
                          for name, series in doc["field_series"].items()},
            map_sizes=tuple(doc["map_sizes"]),
            reverted_experiments=list(doc["reverted_experiments"]),
            moving_average_window=doc["moving_average_window"],
            exit_value=doc.get("exit_value"),
            provenance=doc.get("provenance"),
            lineage=doc.get("lineage"),
            health=doc.get("health"),
        )
