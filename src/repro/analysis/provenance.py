"""Run provenance: where a result came from, pinned to the record.

A :class:`~repro.harness.record.RunRecord` is a pure function of the
simulator's code and its :class:`~repro.harness.runner.RunSpec`, so two
records can only legitimately differ when one of those inputs differs.
The provenance manifest embeds exactly those inputs — code version,
spec (and its cache key), seed, the resolved execution level, and the
record schema — so a record on disk is self-explaining: ``repro diff``
can tell "same experiment, different code" from "same code, different
seed" without access to the processes that produced either file.

The manifest is deliberately free of wall-clock timestamps, hostnames,
and process ids: identical runs must produce byte-identical manifests,
or the disk cache's "cached == recomputed" equality would break.
"""

from __future__ import annotations

from repro.core.config import fastpath_level
from repro.harness import diskcache
from repro.harness.record import SCHEMA_VERSION

#: Bump when the manifest layout changes.  Version 2 records the
#: execution level (0, 1 or 2) under ``fastpath`` instead of a bool.
MANIFEST_VERSION = 2


def manifest(spec, fastpath: "int | None" = None) -> dict:
    """The provenance manifest for one run of ``spec``.

    ``fastpath`` is the level the run actually used (``None`` resolves
    the environment default, the same way
    :func:`~repro.core.config.fastpath_level` does for an execution).
    """
    return {
        "manifest_version": MANIFEST_VERSION,
        "code_version": diskcache.code_version(),
        "spec": spec.as_dict(),
        "spec_key": diskcache.spec_key(spec),
        "seed": spec.seed,
        "fastpath": fastpath_level(fastpath),
        "record_schema": SCHEMA_VERSION,
    }


def describe(prov: "dict | None") -> str:
    """One-line human rendering of a manifest (used by the CLI)."""
    if not prov:
        return "no provenance recorded"
    spec = prov.get("spec", {})
    return (f"{spec.get('benchmark', '?')} "
            f"spec={prov.get('spec_key', '?')[:10]} "
            f"seed={prov.get('seed', '?')} "
            f"code={prov.get('code_version', '?')} "
            f"level={prov.get('fastpath', '?')}")
