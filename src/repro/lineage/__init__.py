"""Decision lineage: explain every online optimization from the
samples that caused it.

The paper's loop is causal — PEBS samples are drained in batches,
attributed to reference fields, aggregated into per-period hot-field
rankings, consumed by the GC's co-allocation policy at promotion time,
and judged by the feedback engine, which reverts experiments that
regress.  Telemetry (PR 1) and the fidelity auditor (PR 4) observe the
endpoints of that chain; this package records the chain itself.

:class:`~repro.lineage.ledger.DecisionLedger` is an append-only,
pure-observer log of typed entries with stable integer ids and parent
links.  Every decision the online loop takes — a co-allocation
placement, an experiment begin, a revert, an AOS recompile — is an
entry whose parents lead transitively back to the raw sample batches
that justified it.  :mod:`repro.lineage.explain` walks those links to
produce the ``repro explain`` justification chains, Graphviz exports,
and the machine-checkable JSON the CI smoke job validates.

The hard invariant is the same as telemetry's: the ledger is a pure
observer.  Recording never charges simulated cycles, consumes
randomness, or mutates VM state, so a run with the ledger attached is
bit-identical (cycles, counters, PEBS sample stream) to a run without
it.  With no ledger attached, the run's
:class:`repro.observers.Observers` bundle skips every record.
"""

from repro.lineage.ledger import (
    DecisionLedger,
    LINEAGE_SCHEMA_VERSION,
)

__all__ = [
    "DecisionLedger",
    "LINEAGE_SCHEMA_VERSION",
]
