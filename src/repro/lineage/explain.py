"""Walk a serialized decision ledger into human justification chains.

Everything here operates on the *serialized* ledger form
(:meth:`~repro.lineage.ledger.DecisionLedger.to_json`), which is also
what :class:`~repro.harness.record.RunRecord` persists in its
``lineage`` field (record schema 5), so the same code explains a live
run and a record loaded from disk.

The central operation is the ancestor walk: starting from a decision
entry, follow parent links transitively to collect the evidence that
justified it — a revert leads to its final verdict, the verdict to the
period that produced the rate, the period to the attribution batches,
each batch to the raw sample drain.  :func:`format_chain` renders that
walk as an indented narrative, :func:`to_dot` as a Graphviz digraph,
and :func:`validate` machine-checks the parent-link invariants the CI
smoke job relies on (ids strictly increasing, every parent resolving to
an earlier entry).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.lineage.ledger import (
    DECISION_KINDS,
    K_ATTRIBUTION,
    K_BATCH,
    K_EXPERIMENT,
    K_GAP,
    K_PERIOD,
    K_PLACEMENT,
    K_RANKING,
    K_RECOMPILE,
    K_REVERT,
    K_VERDICT,
    LINEAGE_SCHEMA_VERSION,
)

#: Priority order for the default explain target: the most decision-like
#: recent entry wins.
_TARGET_PRIORITY = (K_REVERT, K_EXPERIMENT, K_GAP, K_PLACEMENT,
                    K_RECOMPILE, K_RANKING)
#: Parents narrated per entry in a chain; the rest are counted.
MAX_PARENTS = 3


def index_entries(doc: dict) -> Dict[int, dict]:
    """Index a serialized ledger by entry id; raises ValueError when the
    document is not a lineage ledger."""
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ValueError("not a lineage ledger document")
    return {entry["id"]: entry for entry in doc["entries"]}


def validate(doc: dict) -> List[str]:
    """Check the ledger invariants; returns problems (empty == valid).

    A valid document can be indexed and walked by id, kind and parents
    without a type error.

    * the document and each entry are objects,
    * the schema version is one we understand,
    * entry ids are unique and strictly increasing,
    * every parent id resolves to an *earlier* entry (DAG by
      construction).
    """
    if not isinstance(doc, dict):
        return [f"lineage document is a {type(doc).__name__}, not an object"]
    if doc.get("schema") != LINEAGE_SCHEMA_VERSION:
        return [f"unsupported lineage schema {doc.get('schema')!r}"]
    entries = doc.get("entries", [])
    if not isinstance(entries, list):
        return [f"lineage entries are a {type(entries).__name__}, "
                f"not a list"]
    problems: List[str] = []
    last_id = -1
    seen = set()
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            problems.append(f"entry [{i}] is a {type(entry).__name__}, "
                            f"not an object")
            continue
        eid = entry.get("id")
        if not isinstance(eid, int) or eid in seen:
            problems.append(f"duplicate or invalid entry id {eid!r}")
            continue
        if eid <= last_id:
            problems.append(f"entry ids not strictly increasing at {eid}")
        seen.add(eid)
        last_id = max(last_id, eid)
        if not isinstance(entry.get("kind"), str) \
                or not isinstance(entry.get("parents"), list):
            problems.append(f"entry {eid} missing kind/parents")
            continue
        for parent in entry["parents"]:
            if not isinstance(parent, int) or parent not in seen \
                    or parent == eid:
                problems.append(
                    f"entry {eid} parent {parent} does not resolve to an "
                    f"earlier entry")
    return problems


def find_target(doc: dict, field: Optional[str] = None,
                revert: Optional[int] = None,
                decision: Optional[int] = None) -> Optional[dict]:
    """Select the entry a chain should justify.

    ``decision`` picks an entry by id; ``revert`` picks the N-th revert
    of the run (1-based); ``field`` picks the most recent decision
    entry touching that qualified field name.  With no selector the
    most recent decision wins, preferring reverts, then experiment
    begins, gap changes, placements, recompiles, and finally rankings.
    """
    entries = doc.get("entries", [])
    if decision is not None:
        return next((e for e in entries if e["id"] == decision), None)
    if revert is not None:
        reverts = [e for e in entries if e["kind"] == K_REVERT]
        if 1 <= revert <= len(reverts):
            return reverts[revert - 1]
        return None
    if field is not None:
        touching = [e for e in entries
                    if e["kind"] in DECISION_KINDS
                    and e.get("field") == field]
        return touching[-1] if touching else None
    for kind in _TARGET_PRIORITY:
        matching = [e for e in entries if e["kind"] == kind]
        if matching:
            return matching[-1]
    return entries[-1] if entries else None


def chain_ids(by_id: Dict[int, dict], target_id: int) -> List[int]:
    """All transitive ancestors of ``target_id`` (inclusive), ascending."""
    seen = set()
    stack = [target_id]
    while stack:
        eid = stack.pop()
        if eid in seen or eid not in by_id:
            continue
        seen.add(eid)
        stack.extend(by_id[eid]["parents"])
    return sorted(seen)


def resolve_evidence(doc: dict,
                     findings) -> Tuple[Dict[int, List[int]], List[str]]:
    """Resolve health findings' evidence against a valid ledger.

    Returns the justification chain (:func:`chain_ids`) behind each
    finding's primary evidence entry — the last of its ``ledger_ids``
    the ledger holds, which is the chain's last id — by finding index,
    and one problem per evidence id the ledger does not hold.
    """
    by_id = index_entries(doc)
    chains: Dict[int, List[int]] = {}
    problems: List[str] = []
    for i, finding in enumerate(findings):
        resolved = [eid for eid in finding.ledger_ids if eid in by_id]
        problems.extend(f"finding[{i}] ({finding.detector}): evidence id "
                        f"{eid} not in ledger"
                        for eid in finding.ledger_ids if eid not in by_id)
        if resolved:
            chains[i] = chain_ids(by_id, resolved[-1])
    return chains, problems


# ---------------------------------------------------------------------------
# Narration
# ---------------------------------------------------------------------------

def narrate(entry: dict) -> str:
    """One sentence for one entry (no id/cycle prefix)."""
    kind = entry["kind"]
    if kind == K_BATCH:
        return (f"collector {entry['source']} drained "
                f"{entry['samples']} sample(s)")
    if kind == K_ATTRIBUTION:
        top = sorted(entry["fields"], key=lambda f: -f["events"])[:3]
        detail = ", ".join(f"{f['field']} +{f['events']}" for f in top)
        return (f"batch of {entry['samples']} sample(s) attributed "
                f"{entry['attributed']} (weight {entry['weight']}"
                + (f"): {detail}" if detail else ")"))
    if kind == K_PERIOD:
        return (f"period {entry['period']} closed at cycle "
                f"{entry['now_cycle']:,}: {entry['samples']} sample(s), "
                f"{entry['attributed']} attributed"
                + (" (sampling paused)" if entry["sampling_paused"] else "")
                + f"; run totals {entry['accesses']:,} accesses, "
                f"{entry['l1_misses']:,} L1 misses, {entry['gc_cycles']:,} "
                f"GC cycles, {entry['alloc_bytes']:,} B allocated, "
                f"{entry['compiled_methods']} method(s) compiled")
    if kind == K_RANKING:
        rows = []
        for klass in entry["classes"][:3]:
            if klass["fields"]:
                hot = klass["fields"][0]
                rows.append(f"{hot['field']} ({hot['events']} events from "
                            f"{hot['samples']} samples)")
        detail = "; ".join(rows) if rows else "no fields ranked"
        return f"hot-field ranking at period {entry['period']}: {detail}"
    if kind == K_EXPERIMENT:
        return (f"experiment '{entry['experiment']}' on {entry['field']} "
                f"begun at period {entry['period']}: baseline "
                f"{entry['baseline_rate']:.2f} events/period from "
                f"{entry['baseline_samples']} sample(s), revert above "
                f"x{1.0 + entry['threshold']:.2f} for {entry['patience']} "
                f"period(s)")
    if kind == K_VERDICT:
        verdict = "regressed" if entry["regressed"] else "ok"
        return (f"verdict for '{entry['experiment']}': rate "
                f"{entry['rate']:.2f} vs threshold "
                f"{entry['threshold']:.2f} -> {verdict} "
                f"(streak {entry['streak']})")
    if kind == K_REVERT:
        return (f"revert of experiment '{entry['experiment']}' "
                f"({entry['field']}) at period {entry['period']}: rate "
                f"{entry['rate']:.2f} events/period vs baseline "
                f"{entry['baseline_rate']:.2f} x {1.0 + entry['threshold']:.2f}"
                f" = {entry['baseline_rate'] * (1.0 + entry['threshold']):.2f}")
    if kind == K_GAP:
        return (f"co-allocation gap set: {entry['old_gap']} -> "
                f"{entry['new_gap']} bytes")
    if kind == K_PLACEMENT:
        return (f"co-allocated {entry['class']} with hot child via "
                f"{entry['field']}: {entry['parent_bytes']}+"
                f"{entry['child_bytes']}B, gap {entry['gap']}B at "
                f"0x{entry['parent_addr']:x}/0x{entry['child_addr']:x}")
    if kind == K_RECOMPILE:
        return (f"opt-recompile {entry['method']} ({entry['reason']}): "
                f"{entry['samples']} AOS sample(s), benefit "
                f"{entry['benefit']:.0f} > cost {entry['cost']:.0f}, "
                f"{entry['devirt_sites']} site(s) devirtualized")
    return f"{kind} entry"


def _ordered_parents(entry: dict,
                     by_id: Dict[int, dict]) -> "tuple[List[int], int]":
    """Parents to narrate, most informative first, capped at
    :data:`MAX_PARENTS`.

    Periods can have dozens of attribution parents; prefer the ones
    that actually attributed samples, and report how many were elided.
    """
    parents = [p for p in entry["parents"] if p in by_id]

    def weight(pid: int) -> tuple:
        parent = by_id[pid]
        return (-(parent.get("attributed") or 0), -pid)

    parents.sort(key=weight)
    return parents[:MAX_PARENTS], max(0, len(parents) - MAX_PARENTS)


def format_chain(doc: dict, target: dict) -> str:
    """The indented justification narrative for one decision."""
    by_id = index_entries(doc)
    lines: List[str] = []
    visited = set()

    def emit(eid: int, depth: int) -> None:
        indent = "    " * depth
        arrow = "<- " if depth else ""
        if eid in visited:
            lines.append(f"{indent}{arrow}#{eid} (see above)")
            return
        visited.add(eid)
        entry = by_id[eid]
        lines.append(f"{indent}{arrow}#{eid} [cycle {entry['cycle']:,}] "
                     f"{narrate(entry)}")
        parents, elided = _ordered_parents(entry, by_id)
        for parent in parents:
            emit(parent, depth + 1)
        if elided:
            lines.append(f"{'    ' * (depth + 1)}<- ... {elided} more "
                         f"contributing entr{'y' if elided == 1 else 'ies'}")

    emit(target["id"], 0)
    return "\n".join(lines)


def format_summary(doc: dict) -> str:
    """Header lines: entry counts by kind, decisions with their ids."""
    entries = doc.get("entries", [])
    counts: Dict[str, int] = {}
    for entry in entries:
        counts[entry["kind"]] = counts.get(entry["kind"], 0) + 1
    lines = [f"lineage: {len(entries)} entr"
             f"{'y' if len(entries) == 1 else 'ies'}"
             + (f" ({doc.get('dropped', 0)} dropped)"
                if doc.get("dropped") else "")]
    for kind in (K_BATCH, K_ATTRIBUTION, K_PERIOD, K_RANKING, K_PLACEMENT,
                 K_RECOMPILE, K_GAP, K_EXPERIMENT, K_VERDICT, K_REVERT):
        if counts.get(kind):
            lines.append(f"  {kind:20s} {counts[kind]}")
    decisions = [e for e in entries
                 if e["kind"] in (K_EXPERIMENT, K_REVERT, K_GAP)]
    for entry in decisions[-8:]:
        lines.append(f"  decision #{entry['id']:<6d} {narrate(entry)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Graphviz
# ---------------------------------------------------------------------------

def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(doc: dict, chain: Optional[List[int]] = None) -> str:
    """Render the ledger as a Graphviz digraph.

    With ``chain`` given, those entries are filled; everything else
    stays plain so the justification path pops out visually.
    """
    highlight = set(chain or ())
    lines = ["digraph lineage {", "  rankdir=BT;",
             '  node [shape=box, fontsize=10, fontname="monospace"];']
    for entry in doc.get("entries", []):
        label = _dot_escape(f"#{entry['id']} {entry['kind']}\n"
                            f"{narrate(entry)[:60]}")
        style = (', style=filled, fillcolor="lightgoldenrod1"'
                 if entry["id"] in highlight else "")
        lines.append(f'  n{entry["id"]} [label="{label}"{style}];')
        for parent in entry["parents"]:
            lines.append(f"  n{entry['id']} -> n{parent};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Divergence (repro diff support)
# ---------------------------------------------------------------------------

def decision_signature(entry: dict) -> tuple:
    """A cycle-free comparable summary of one decision entry.

    Cycles are omitted deliberately: two records of the same spec under
    different code versions legitimately shift every timestamp, and the
    interesting question is *which decision* diverged first, not when.
    """
    kind = entry["kind"]
    keys = {
        K_EXPERIMENT: ("experiment", "field", "period"),
        K_VERDICT: ("experiment", "regressed", "streak"),
        K_REVERT: ("experiment", "field", "period"),
        K_GAP: ("old_gap", "new_gap"),
        K_PLACEMENT: ("class", "field", "gap"),
        K_RECOMPILE: ("method", "reason"),
    }.get(kind, ())
    return (kind,) + tuple(entry.get(k) for k in keys)


def first_divergence(doc_a: Optional[dict],
                     doc_b: Optional[dict]) -> Optional[dict]:
    """The first decision where two ledgers disagree, or None.

    Compares the ordered decision entries of both ledgers by
    :func:`decision_signature`.  Returns ``{"index", "a", "b"}`` where
    ``a``/``b`` are ``{"id", "parents", "summary"}`` (None on the side
    that ran out of decisions first).
    """
    if not doc_a or not doc_b:
        return None
    decisions_a = [e for e in doc_a.get("entries", [])
                   if e["kind"] in DECISION_KINDS]
    decisions_b = [e for e in doc_b.get("entries", [])
                   if e["kind"] in DECISION_KINDS]

    def describe(entry: Optional[dict]) -> Optional[dict]:
        if entry is None:
            return None
        return {"id": entry["id"], "parents": list(entry["parents"]),
                "summary": narrate(entry)}

    for i in range(max(len(decisions_a), len(decisions_b))):
        a = decisions_a[i] if i < len(decisions_a) else None
        b = decisions_b[i] if i < len(decisions_b) else None
        if (a is None) != (b is None) or \
                (a is not None and
                 decision_signature(a) != decision_signature(b)):
            return {"index": i, "a": describe(a), "b": describe(b)}
    return None
