"""Decision lineage: explain every online optimization from the
samples that caused it.

The paper's loop is causal — PEBS samples are drained in batches,
attributed to reference fields, aggregated into per-period hot-field
rankings, consumed by the GC's co-allocation policy at promotion time,
and judged by the feedback engine, which reverts experiments that
regress.  :class:`~repro.lineage.ledger.DecisionLedger` records that
chain: an append-only, pure-observer log of typed entries with stable
integer ids and parent links, each decision's parents leading back to
the sample batches that justified it.  It is the run's one store of
facts (the health report is read off it too), and
:mod:`repro.lineage.explain` walks its links into the ``repro explain``
justification chains, Graphviz exports, and the machine-checkable JSON
the CI smoke job validates.
"""

from repro.lineage.ledger import (
    DecisionLedger,
    LINEAGE_SCHEMA_VERSION,
)

__all__ = [
    "DecisionLedger",
    "LINEAGE_SCHEMA_VERSION",
]
