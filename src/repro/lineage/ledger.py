"""The append-only decision ledger.

Entries are plain tuples ``(id, kind, cycle, parents, payload)`` —
integer ids assigned in append order, a shared interned kind string, the
simulated cycle at which the event happened, a tuple of parent entry
ids, and a kind-specific positional payload tuple.  The hot path does no
string formatting and allocates no dicts: payloads hold live
:class:`~repro.vm.model.FieldInfo` / ``ClassInfo`` / ``MethodInfo``
references, and qualified names are rendered only at serialization time
(:meth:`DecisionLedger.to_json`), long after the simulated run ended.

Parent links always point at earlier entries (``parent id < entry id``),
which makes the graph a DAG by construction and lets
:mod:`repro.lineage.explain` validate a serialized ledger with one pass.

The ledger is a **pure observer**: recording reads simulator state but
never charges cycles, consumes randomness, or mutates anything the
simulation reads back.  Emitters never call it directly: every record
goes through the run's :class:`repro.observers.Observers` bundle, whose
facts skip the ledger when none is attached.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

#: Bump when the serialized entry layout changes.
LINEAGE_SCHEMA_VERSION = 2
#: Entries kept per run; later ones are counted in ``dropped`` instead,
#: so a runaway run cannot grow the ledger without bound.
MAX_ENTRIES = 1_000_000

# Tuple indices of one entry.
E_ID, E_KIND, E_CYCLE, E_PARENTS, E_PAYLOAD = range(5)

# Entry kinds (shared interned strings; payload layouts documented at
# the recording method of each kind).
K_BATCH = "sample_batch"
K_ATTRIBUTION = "attribution"
K_PERIOD = "period_close"
K_RANKING = "ranking"
K_EXPERIMENT = "experiment_begin"
K_VERDICT = "experiment_verdict"
K_REVERT = "experiment_revert"
K_GAP = "gap_set"
K_PLACEMENT = "coalloc_placement"
K_RECOMPILE = "jit_recompile"

#: Kinds that represent *decisions* (as opposed to evidence flowing
#: toward them).  ``repro explain`` targets these; ``repro diff`` uses
#: them to locate the first diverging decision between two runs.
DECISION_KINDS = (K_EXPERIMENT, K_VERDICT, K_REVERT, K_GAP, K_PLACEMENT,
                  K_RECOMPILE)

_NO_PARENTS: Tuple[int, ...] = ()


def _parents(*ids: int) -> Tuple[int, ...]:
    """The ids among ``ids`` that name an entry (-1 is none)."""
    return tuple(eid for eid in ids if eid >= 0)


def _zero_clock() -> int:
    """Default clock before a VM binds one; module-level (not a
    lambda) so an unbound ledger pickles inside a run snapshot."""
    return 0


class DecisionLedger:
    """Append-only log of causally-linked online-optimization events."""

    def __init__(self):
        #: The entry list; tuples ``(id, kind, cycle, parents, payload)``.
        self.entries: List[tuple] = []
        #: Entries discarded after :data:`MAX_ENTRIES` was reached.
        self.dropped = 0
        self._clock: Callable[[], int] = _zero_clock
        # Causal bookkeeping (all integer ids; -1 = none yet).
        self._open_batch = -1
        self._period_attrs: List[int] = []
        self._last_period = -1
        self._last_ranking = -1
        self._experiments = {}       # experiment name -> begin entry id
        self._last_verdict = {}      # experiment name -> last verdict id
        self._pending_placement: Optional[tuple] = None

    def bind_clock(self, clock: Callable[[], int]) -> None:
        """Point entry timestamps at a cycle clock (the VM binds its
        CPU's, exactly like telemetry)."""
        self._clock = clock

    def __len__(self) -> int:
        return len(self.entries)

    # -- the one append point ------------------------------------------------

    def _add(self, kind: str, parents: Tuple[int, ...],
             payload: tuple) -> int:
        entries = self.entries
        if len(entries) >= MAX_ENTRIES:
            self.dropped += 1
            return -1
        eid = len(entries)
        entries.append((eid, kind, self._clock(), parents, payload))
        return eid

    # -- perfmon: sample batches ---------------------------------------------

    def sample_batch(self, n_samples: int, source: str) -> int:
        """A batch of EIPs left the user buffer (collector poll/drain).

        Payload: ``(n_samples, source)`` with source ``"poll"``/``"drain"``.
        """
        eid = self._add(K_BATCH, _NO_PARENTS, (n_samples, source))
        self._open_batch = eid
        return eid

    # -- controller: attribution ----------------------------------------------

    def attribution(self, n_samples: int, attributed: int, weight: int,
                    fields: tuple) -> int:
        """One batch resolved and attributed by the controller.

        Payload: ``(n_samples, attributed, weight, fields)`` where
        ``fields`` is a tuple of ``(FieldInfo, samples, events)`` — the
        per-field increments this batch contributed to the monitor.
        Parent: the collector batch entry the EIPs came from.
        """
        batch = self._open_batch
        self._open_batch = -1
        parents = (batch,) if batch >= 0 else _NO_PARENTS
        eid = self._add(K_ATTRIBUTION, parents,
                        (n_samples, attributed, weight, fields))
        if eid >= 0:
            self._period_attrs.append(eid)
        return eid

    # -- monitor/controller: periods and rankings ------------------------------

    def period_close(self, index: int, samples: int, attributed: int,
                     now_cycle: int, sampling_paused: bool,
                     totals: tuple) -> int:
        """A measurement period closed, with its HPM vector.

        Payload: ``(period_index, samples, attributed, now_cycle,
        sampling_paused, accesses, l1_misses, gc_cycles, alloc_bytes,
        compiled_methods)`` — ``now_cycle`` is the timer's boundary (the
        entry's own cycle can be later), and the last five are the VM's
        running totals (``totals``).  Parents: the attribution entries
        recorded during the period.
        """
        parents = tuple(self._period_attrs)
        self._period_attrs = []
        eid = self._add(K_PERIOD, parents,
                        (index, samples, attributed, now_cycle,
                         sampling_paused) + totals)
        if eid >= 0:
            self._last_period = eid
        return eid

    def ranking_snapshot(self, period_index: int, classes: tuple) -> int:
        """The hot-field ranking in force after a period closed.

        Payload: ``(period_index, classes)`` where ``classes`` is a
        tuple of ``(ClassInfo, ((FieldInfo, events, samples), ...))``
        rows, hottest class first.  Parent: the period-close entry.
        """
        eid = self._add(K_RANKING, _parents(self._last_period),
                        (period_index, classes))
        if eid >= 0:
            self._last_ranking = eid
        return eid

    # -- feedback: experiments --------------------------------------------------

    def experiment_begin(self, name: str, field, baseline_rate: float,
                         started_period: int, baseline_samples: int,
                         threshold: float, patience: int) -> int:
        """A policy experiment began.

        Payload: ``(name, FieldInfo, baseline_rate, started_period,
        baseline_samples, threshold, patience)``.  Parent: the ranking
        snapshot in force when the baseline was taken.
        """
        eid = self._add(K_EXPERIMENT, _parents(self._last_ranking),
                        (name, field, baseline_rate, started_period,
                         baseline_samples, threshold, patience))
        if eid >= 0:
            self._experiments[name] = eid
        return eid

    def experiment_verdict(self, name: str, rate: float, threshold: float,
                           regressed: bool, streak: int) -> int:
        """One per-period judgment of an active experiment ("refresh").

        Payload: ``(name, rate, threshold, regressed, streak)``.
        Parents: the experiment-begin entry and the period judged.
        """
        parents = _parents(self._experiments.get(name, -1),
                           self._last_period)
        eid = self._add(K_VERDICT, parents,
                        (name, rate, threshold, regressed, streak))
        if eid >= 0:
            self._last_verdict[name] = eid
        return eid

    def experiment_revert(self, name: str, field, period: int, rate: float,
                          baseline_rate: float, threshold: float) -> int:
        """The feedback engine reverted an experiment.

        Payload: ``(name, FieldInfo, period, rate, baseline_rate,
        threshold)``.  Parents: the experiment-begin entry and the final
        regressed verdict.
        """
        parents = _parents(self._experiments.get(name, -1),
                           self._last_verdict.get(name, -1))
        return self._add(K_REVERT, parents,
                         (name, field, period, rate, baseline_rate,
                          threshold))

    # -- GC: placement and gap decisions -----------------------------------------

    def gap_set(self, old_gap: int, new_gap: int) -> int:
        """The co-allocation gap changed (Figure 8's intervention).

        Payload: ``(old_gap, new_gap)``.
        """
        return self._add(K_GAP, _NO_PARENTS, (old_gap, new_gap))

    def placement_pending(self, klass, field, parent_bytes: int,
                          child_bytes: int, gap: int, combined: int) -> None:
        """The policy accepted a co-allocation; the collector has not
        placed the pair yet.  :meth:`placement_commit` (called by the
        plan once addresses are assigned) emits the entry."""
        self._pending_placement = (klass, field, parent_bytes, child_bytes,
                                   gap, combined)

    def placement_commit(self, parent_addr: int, child_addr: int) -> int:
        """The promoted pair received its final mature-space addresses.

        Payload: ``(ClassInfo, FieldInfo, parent_bytes, child_bytes,
        gap, combined, parent_addr, child_addr)``.  Parent: the ranking
        snapshot whose hot-field table selected the child.
        """
        pending = self._pending_placement
        if pending is None:
            return -1
        self._pending_placement = None
        return self._add(K_PLACEMENT, _parents(self._last_ranking),
                         pending + (parent_addr, child_addr))

    # -- JIT: recompilation decisions ----------------------------------------------

    def recompile(self, method, reason: str, samples: int, benefit: float,
                  cost: float, devirt_sites: int) -> int:
        """The AOS (or a compilation plan) selected a method for opt
        recompilation.

        Payload: ``(MethodInfo, reason, samples, benefit, cost,
        devirt_sites)`` with reason ``"aos"`` or ``"plan"``.
        """
        return self._add(K_RECOMPILE, _NO_PARENTS,
                         (method, reason, samples, benefit, cost,
                          devirt_sites))

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        """Render the ledger as plain JSON data (the RunRecord surface).

        Every entry becomes ``{"id", "kind", "cycle", "parents", ...}``
        with kind-specific fields; object references are rendered to
        their qualified names here, never on the recording path.
        """
        out = []
        for entry in self.entries:
            doc = {"id": entry[E_ID], "kind": entry[E_KIND],
                   "cycle": entry[E_CYCLE],
                   "parents": list(entry[E_PARENTS])}
            doc.update((key, _render(key, value)) for key, value
                       in zip(_PAYLOAD_FIELDS[entry[E_KIND]],
                              entry[E_PAYLOAD]))
            out.append(doc)
        return {"schema": LINEAGE_SCHEMA_VERSION,
                "entries": out,
                "dropped": self.dropped}


# ---------------------------------------------------------------------------
# Payload -> JSON (cold path only)
# ---------------------------------------------------------------------------

#: Each kind's payload as :meth:`DecisionLedger.to_json` names it, one
#: JSON key per payload slot, in payload order.
_PAYLOAD_FIELDS = {
    K_BATCH: ("samples", "source"),
    K_ATTRIBUTION: ("samples", "attributed", "weight", "fields"),
    K_PERIOD: ("period", "samples", "attributed", "now_cycle",
               "sampling_paused", "accesses", "l1_misses", "gc_cycles",
               "alloc_bytes", "compiled_methods"),
    K_RANKING: ("period", "classes"),
    K_EXPERIMENT: ("experiment", "field", "baseline_rate", "period",
                   "baseline_samples", "threshold", "patience"),
    K_VERDICT: ("experiment", "rate", "threshold", "regressed", "streak"),
    K_REVERT: ("experiment", "field", "period", "rate", "baseline_rate",
               "threshold"),
    K_GAP: ("old_gap", "new_gap"),
    K_PLACEMENT: ("class", "field", "parent_bytes", "child_bytes", "gap",
                  "combined", "parent_addr", "child_addr"),
    K_RECOMPILE: ("method", "reason", "samples", "benefit", "cost",
                  "devirt_sites"),
}


def _render(key: str, value):
    """One payload slot as plain JSON: model objects by name."""
    if key in ("field", "method"):
        return value.qualified_name
    if key == "class":
        return value.name
    if key == "fields":
        return [{"field": f.qualified_name, "samples": s, "events": e}
                for f, s, e in value]
    if key == "classes":
        return [{"class": klass.name,
                 "fields": [{"field": f.qualified_name, "events": events,
                             "samples": samples}
                            for f, events, samples in fields]}
                for klass, fields in value]
    return value
