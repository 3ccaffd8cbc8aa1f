"""Persistent on-disk result cache for the experiment harness.

Re-running any figure — locally or in CI — should cost simulation time
only once.  Runs are deterministic functions of their :class:`RunSpec`
*and* of the simulator's code, so the cache key combines both:

* **spec key** — a hash of the spec's canonical JSON form,
* **code version** — a hash over every source file of the ``repro``
  package (plus the record schema version).  Any change to the
  simulator, GC, JIT, or harness invalidates every cached result at
  once; stale versions are swept by :meth:`DiskCache.clear` or simply
  ignored.

Layout: one JSON file per entry under ``<root>/<version>/<spec>.json``,
written atomically (tmp file + ``os.replace``), so concurrent writers —
parallel workers, two CI jobs sharing a cache volume — can never leave a
torn file behind.  A truncated or otherwise corrupt entry is treated as
a miss and deleted; the result is recomputed, never trusted.

Environment knobs:

* ``REPRO_CACHE_DIR`` — cache root (default ``results/.cache``),
* ``REPRO_DISK_CACHE=0`` — disable the disk layer entirely (the
  in-process memo still applies).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict
from typing import Optional

from repro.harness.record import RunRecord, SCHEMA_VERSION
from repro.vm.snapshot import Snapshot, SnapshotError

#: Default cache root, relative to the working directory.
DEFAULT_ROOT = os.path.join("results", ".cache")

_CODE_VERSION: Optional[str] = None


def cache_enabled() -> bool:
    """Whether the disk layer is switched on (``REPRO_DISK_CACHE``)."""
    return os.environ.get("REPRO_DISK_CACHE", "1") != "0"


def cache_root() -> str:
    return os.environ.get("REPRO_CACHE_DIR", DEFAULT_ROOT)


def code_version() -> str:
    """Hash of the ``repro`` package sources + the record schema.

    Computed once per process; a one-line change anywhere in the
    simulator yields a different version, so cached results can never
    outlive the code that produced them.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        digest = hashlib.sha256()
        digest.update(f"schema:{SCHEMA_VERSION}".encode())
        pkg_dir = os.path.dirname(os.path.abspath(repro.__file__))
        sources = []
        for dirpath, _dirnames, filenames in os.walk(pkg_dir):
            for name in filenames:
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    sources.append((os.path.relpath(path, pkg_dir), path))
        for relpath, path in sorted(sources):
            digest.update(relpath.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def spec_key(spec) -> str:
    """Stable hash of one RunSpec's canonical JSON form."""
    canonical = json.dumps(asdict(spec), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:24]


def _write_atomically(path: str, payload: "str | bytes") -> None:
    """tmp file + ``os.replace``.  A failed write removes its tmp file
    on the way out — :meth:`DiskCache._walk_entries` skips such names,
    so neither ``stats`` nor ``prune`` would ever find it."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb" if isinstance(payload, bytes) else "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class DiskCache:
    """One directory of spec-keyed run records for one code version."""

    def __init__(self, root: Optional[str] = None,
                 version: Optional[str] = None):
        self.root = root or cache_root()
        self.version = version or code_version()
        #: Session counters (surfaced by ``cache stats`` and tests).
        #: Records and snapshots count separately so snapshot probes
        #: never perturb the record hit rate.
        self.hits = 0
        self.misses = 0
        self.snapshot_hits = 0
        self.snapshot_misses = 0

    def _entry_path(self, spec) -> str:
        return os.path.join(self.root, self.version, spec_key(spec) + ".json")

    # -- read/write ----------------------------------------------------------

    def get(self, spec) -> Optional[RunRecord]:
        """Load the cached record for ``spec``, or None.

        Any unreadable entry — truncated write, foreign schema, hand
        edit — is deleted and reported as a miss: the cache degrades to
        recomputation, never to wrong results.
        """
        path = self._entry_path(spec)
        try:
            with open(path, "r") as fh:
                doc = json.load(fh)
            record = RunRecord.from_json(doc["record"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        self.hits += 1
        return record

    def put(self, spec, record: RunRecord) -> None:
        """Store ``record`` atomically (tmp file + rename)."""
        doc = {"version": self.version, "spec": asdict(spec),
               "record": record.to_json()}
        _write_atomically(self._entry_path(spec), json.dumps(doc))

    # -- snapshots -----------------------------------------------------------
    #
    # Snapshot entries checkpoint a run mid-flight so a later process
    # can simulate only the delta.  They are keyed by the *base* spec
    # (the runner strips ``until_cycles`` before calling in) plus the
    # captured cycle: ``<root>/<version>/<key>.snap.<cycle>.bin`` —
    # every ``until_cycles`` extension of the same configuration shares
    # one checkpoint family.

    def _snapshot_path(self, spec, cycle: int) -> str:
        return os.path.join(self.root, self.version,
                            f"{spec_key(spec)}.snap.{cycle}.bin")

    def snapshot_cycles(self, spec) -> "list[int]":
        """Checkpoint cycles available for ``spec``, ascending."""
        prefix = spec_key(spec) + ".snap."
        directory = os.path.join(self.root, self.version)
        cycles = []
        try:
            names = os.listdir(directory)
        except OSError:
            return cycles
        for name in names:
            if name.startswith(prefix) and name.endswith(".bin"):
                try:
                    cycles.append(int(name[len(prefix):-len(".bin")]))
                except ValueError:
                    continue
        cycles.sort()
        return cycles

    def put_snapshot(self, spec, snapshot: Snapshot) -> str:
        """Store one checkpoint atomically; returns its path."""
        path = self._snapshot_path(spec, snapshot.cycle)
        _write_atomically(path, snapshot.to_bytes())
        return path

    def get_snapshot(self, spec, max_cycle: Optional[int] = None,
                     require_pure: bool = False) -> Optional[Snapshot]:
        """The latest checkpoint strictly before ``max_cycle`` (or the
        latest overall), or None.  Corrupt entries are deleted and
        treated as misses, exactly like records.  ``require_pure``
        skips snapshots whose VM carries live observers (the record
        cache must only resume those — see :attr:`Snapshot.pure`)."""
        candidates = [c for c in self.snapshot_cycles(spec)
                      if max_cycle is None or c < max_cycle]
        while candidates:
            cycle = candidates.pop()
            path = self._snapshot_path(spec, cycle)
            try:
                with open(path, "rb") as fh:
                    snapshot = Snapshot.from_bytes(fh.read())
            except FileNotFoundError:
                continue
            except (OSError, SnapshotError):
                try:
                    os.remove(path)
                except OSError:
                    pass
                continue
            if require_pure and not snapshot.pure:
                continue
            self.snapshot_hits += 1
            return snapshot
        self.snapshot_misses += 1
        return None

    # -- maintenance ---------------------------------------------------------

    def clear(self) -> int:
        """Drop every entry (all code versions); returns files removed."""
        removed = 0
        if os.path.isdir(self.root):
            for name in os.listdir(self.root):
                path = os.path.join(self.root, name)
                if os.path.isdir(path):
                    removed += sum(len(files) for _, _, files in os.walk(path))
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    os.remove(path)
                    removed += 1
        return removed

    def _walk_entries(self):
        """Yield ``(path, kind, current, size, mtime)`` per cache file.

        ``kind`` is ``"record"`` (``*.json``) or ``"snapshot"``
        (``*.snap.<cycle>.bin``); anything else (tmp droppings) is
        skipped.
        """
        if not os.path.isdir(self.root):
            return
        for dirpath, _dirnames, filenames in os.walk(self.root):
            current = os.path.basename(dirpath) == self.version
            for name in filenames:
                if name.endswith(".json"):
                    kind = "record"
                elif name.endswith(".bin") and ".snap." in name:
                    kind = "snapshot"
                else:
                    continue
                path = os.path.join(dirpath, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                yield path, kind, current, st.st_size, st.st_mtime

    def stats(self) -> dict:
        """Entry counts and sizes, split by kind and by staleness."""
        current = stale = total_bytes = 0
        by_kind = {"record": {"entries": 0, "bytes": 0},
                   "snapshot": {"entries": 0, "bytes": 0}}
        for _path, kind, is_current, size, _mtime in self._walk_entries():
            total_bytes += size
            if is_current:
                current += 1
                by_kind[kind]["entries"] += 1
                by_kind[kind]["bytes"] += size
            else:
                stale += 1
        return {
            "root": self.root,
            "version": self.version,
            "entries": current,
            "stale_entries": stale,
            "bytes": total_bytes,
            "records": by_kind["record"],
            "snapshots": by_kind["snapshot"],
            "session_hits": self.hits,
            "session_misses": self.misses,
            "session_snapshot_hits": self.snapshot_hits,
            "session_snapshot_misses": self.snapshot_misses,
        }

    def prune(self, max_bytes: Optional[int] = None,
              dry_run: bool = False) -> dict:
        """Evict stale code versions, then trim to a byte budget.

        Every entry under a non-current version directory is removed
        unconditionally (results from other code can never be served
        again).  If ``max_bytes`` is given and the surviving entries
        still exceed it, current-version entries are evicted oldest-
        mtime-first — snapshots and records alike, since both are pure
        functions of (spec, code) and regenerate on demand.

        ``dry_run`` computes the same plan — identical counts and
        surviving byte total — without deleting anything; the planned
        removals are listed under ``"would_remove"``.
        """
        removed_stale = removed_current = 0
        would_remove = []
        survivors = []
        for path, _kind, is_current, size, mtime in self._walk_entries():
            if is_current:
                survivors.append((mtime, size, path))
            elif dry_run:
                would_remove.append(path)
                removed_stale += 1
            else:
                try:
                    os.remove(path)
                    removed_stale += 1
                except OSError:
                    pass
        # Sweep now-empty stale version directories.
        if not dry_run and os.path.isdir(self.root):
            for name in os.listdir(self.root):
                path = os.path.join(self.root, name)
                if os.path.isdir(path) and name != self.version \
                        and not os.listdir(path):
                    shutil.rmtree(path, ignore_errors=True)
        remaining = sum(size for _mtime, size, _path in survivors)
        if max_bytes is not None:
            survivors.sort()  # oldest first
            for mtime, size, path in survivors:
                if remaining <= max_bytes:
                    break
                if dry_run:
                    would_remove.append(path)
                else:
                    try:
                        os.remove(path)
                    except OSError:
                        continue
                removed_current += 1
                remaining -= size
        outcome = {
            "removed_stale": removed_stale,
            "removed_current": removed_current,
            "bytes": remaining,
        }
        if dry_run:
            outcome["would_remove"] = would_remove
        return outcome
