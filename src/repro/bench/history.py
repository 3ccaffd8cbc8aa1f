"""Persistent bench trajectory: ``results/bench_history.jsonl``.

Every executed case appends one self-describing JSON line keyed by
timestamp, code version (the same source hash that keys the result
disk cache), and git sha.  The file is append-only and tolerated as
hostile input on read: torn writes, hand edits, and foreign lines are
skipped and counted, never trusted — the same corruption posture as
:mod:`repro.harness.diskcache`.

Entries embed everything regression scoring needs (primary metric
name, direction, per-case threshold, a params-key fingerprint), so
:mod:`repro.bench.compare` works on history alone without consulting
the live registry — entries outlive code that renames or retires a
case.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from typing import Dict, List, Optional, Tuple

from repro.bench.execute import CaseRun

#: History line format version.
HISTORY_SCHEMA = 1

#: Default trajectory location, relative to the working directory.
DEFAULT_HISTORY = os.path.join("results", "bench_history.jsonl")


def git_sha() -> Optional[str]:
    """Current HEAD sha, or None outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def params_key(params: Dict[str, object]) -> str:
    """Stable fingerprint of a resolved params dict."""
    canonical = json.dumps(params, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def build_entry(run: CaseRun, now: Optional[float] = None,
                code_version: Optional[str] = None,
                sha: Optional[str] = "auto") -> dict:
    """One history line for an executed case."""
    import platform
    import sys

    from repro.harness import diskcache

    ts = time.time() if now is None else now
    return {
        "schema": HISTORY_SCHEMA,
        "case": run.case.name,
        "ts": ts,
        "iso": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(ts)),
        "code_version": (diskcache.code_version() if code_version is None
                         else code_version),
        "git_sha": git_sha() if sha == "auto" else sha,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "params": dict(run.params),
        "params_key": params_key(run.params),
        "primary": {
            "metric": run.case.primary_metric,
            "direction": run.case.primary_direction,
            "threshold": run.case.compare_threshold,
        },
        "metrics": dict(run.metrics),
        "wall_s": round(run.wall_s, 3),
        "gates": list(run.gates),
        "passed": run.passed,
    }


def append(path: str, *entries: dict) -> None:
    """Append ``entries``; the file and its directory are created on
    demand — with no entries that is all it does, which lets a caller
    find out that ``path`` is unwritable before doing the work."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, default=str))
            fh.write("\n")


def load(path: str) -> Tuple[List[dict], int]:
    """All well-formed entries plus the count of skipped lines.

    Any line that is not a JSON object with the expected schema marker
    — torn writes, hand edits, blank lines — is skipped, mirroring the
    disk-cache corruption sweep: history degrades to a shorter
    baseline, never to wrong verdicts.
    """
    entries: List[dict] = []
    skipped = 0
    try:
        with open(path, "r") as fh:
            lines = fh.read().splitlines()
    except (FileNotFoundError, OSError):
        return [], 0
    for line in lines:
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except ValueError:
            skipped += 1
            continue
        if (not isinstance(doc, dict) or doc.get("schema") != HISTORY_SCHEMA
                or not isinstance(doc.get("case"), str)
                or not isinstance(doc.get("metrics"), dict)):
            skipped += 1
            continue
        entries.append(doc)
    return entries, skipped
