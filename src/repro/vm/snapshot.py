"""Full-fidelity run snapshots: checkpoint a mid-run VM, resume later.

The paper's workloads are *long-running*; our simulator executes them
deterministically, so a run is fully described by (program, config,
cycle count).  A :class:`Snapshot` captures everything that cycle count
implies — guest heap, frames and registers, scheduler heap, CPU cycle /
instruction / counter state, cache, TLB and prefetcher lines, the PEBS
RNG stream and armed countdown, controller / feedback / experiment and
GC bookkeeping, JIT compilation state, and the lineage ledger tail — so
resuming from a snapshot is *bit-identical* to never having stopped.

Mechanism: the whole VM object graph is pickled.  The codebase keeps
that graph picklable by construction (every long-lived callback is a
bound method, every id()-keyed table is keyed by the object itself);
the only deliberately excluded state is each compiled method's
closure-threaded *translation*, which
:func:`repro.hw.translate.translation_for` rebuilds deterministically
from the machine code on first execution after restore.  Snapshots are
only valid at the scheduler-quantum boundaries where
``VM.advance(until_cycles)`` returns: there the interpreters have
flushed their cycle cell, drained pending superblock memory segments,
and anchored ``frame.pc``, so a fresh ``advance()`` continues exactly
where the old one stopped.

A restored VM is a private copy: its telemetry / lineage observers are
the snapshot's own (they continue accumulating, which is what makes the
final ledger of a resumed run identical to an unbroken one).
"""

from __future__ import annotations

import json
import pickle
import struct
import sys
import zlib
from contextlib import contextmanager

from repro.core.config import fastpath_level

#: Recursion headroom for (de)serializing the guest heap: pickling
#: recurses once per edge along reference chains, and guest workloads
#: build linked structures far deeper than the interpreter default.
_PICKLE_RECURSION_LIMIT = 500_000


@contextmanager
def _deep_recursion():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, _PICKLE_RECURSION_LIMIT))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)

#: Wire format magic + version for :meth:`Snapshot.to_bytes`.
SNAPSHOT_MAGIC = b"RSNP"
SNAPSHOT_VERSION = 1


class SnapshotError(ValueError):
    """Raised for malformed, truncated, or stale snapshot bytes."""


class Snapshot:
    """An inert, self-contained copy of a mid-run VM.

    Instances hold compressed pickle bytes, never live objects — the
    source VM keeps running (and mutating) after capture without
    affecting the snapshot, and one snapshot can be restored any
    number of times, each yielding an independent VM.
    """

    def __init__(self, payload: bytes, cycle: int, program: str,
                 pure: bool = True):
        self._payload = payload
        #: The captured VM's cycle clock (restore resumes from here).
        self.cycle = cycle
        #: Guest program name, for cache bookkeeping and error messages.
        self.program = program
        #: True when the captured VM carries no live observers
        #: (``not vm.observers.attached``).  Only pure snapshots may serve
        #: the record cache: a resumed run continues the snapshot's
        #: observers, and cached records must stay pure functions of
        #: the spec — identical whether simulated fresh or resumed.
        self.pure = pure

    # -- capture / restore -------------------------------------------------

    @classmethod
    def capture(cls, vm) -> "Snapshot":
        """Deep-freeze ``vm`` at its current cycle.

        Call only when the VM is paused between ``advance()`` slices
        (or after ``begin()``, before the first slice) — never from
        inside a callback, where interpreter loop state lives in
        locals the pickle cannot see.
        """
        with _deep_recursion():
            raw = pickle.dumps(vm, protocol=pickle.HIGHEST_PROTOCOL)
        return cls(zlib.compress(raw), vm.cpu.cycles, vm.program.name,
                   pure=not vm.observers.attached)

    def restore(self, fastpath: "bool | int | None" = None):
        """Materialize an independent VM, ready for ``advance()``.

        ``fastpath`` optionally overrides the execution level for the
        remainder of the run — safe because all three interpreter
        levels are bit-identical, and useful for cross-level replay
        tests.  Translations were dropped at capture; they rebuild
        lazily against the new CPU on first execution.
        """
        with _deep_recursion():
            vm = pickle.loads(zlib.decompress(self._payload))
        if fastpath is not None:
            vm.config.fastpath = fastpath
            vm.cpu.fastpath_level = fastpath_level(fastpath)
        return vm

    # -- serialization -----------------------------------------------------

    @property
    def payload_bytes(self) -> int:
        return len(self._payload)

    def to_bytes(self) -> bytes:
        """Self-describing wire form: magic, JSON header, payload.

        The header pins the snapshot format version and the repo code
        version: restoring pickled simulator internals under different
        source code would silently diverge, so :meth:`from_bytes`
        refuses mismatches instead.
        """
        from repro.harness.diskcache import code_version

        header = json.dumps({
            "version": SNAPSHOT_VERSION,
            "code_version": code_version(),
            "cycle": self.cycle,
            "program": self.program,
            "pure": self.pure,
        }).encode("utf-8")
        return (SNAPSHOT_MAGIC + struct.pack(">I", len(header))
                + header + self._payload)

    @classmethod
    def from_bytes(cls, data: bytes,
                   check_code_version: bool = True) -> "Snapshot":
        if data[:4] != SNAPSHOT_MAGIC:
            raise SnapshotError("not a repro snapshot (bad magic)")
        if len(data) < 8:
            raise SnapshotError("truncated snapshot header")
        (hlen,) = struct.unpack(">I", data[4:8])
        try:
            header = json.loads(data[8:8 + hlen].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SnapshotError(f"corrupt snapshot header: {exc}")
        if header.get("version") != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot format v{header.get('version')} != "
                f"supported v{SNAPSHOT_VERSION}")
        if check_code_version:
            from repro.harness.diskcache import code_version

            if header.get("code_version") != code_version():
                raise SnapshotError(
                    "snapshot was captured under different simulator "
                    "sources (code version mismatch); re-run instead "
                    "of resuming")
        return cls(data[8 + hlen:], header["cycle"], header["program"],
                   pure=bool(header.get("pure", True)))
