"""Generational write barrier and remembered set.

Minor collections must see every mature→nursery reference without
scanning the whole mature space.  The write barrier intercepts reference
stores; when a non-nursery holder receives a nursery target, the *slot*
(holder, slot index) is remembered.  Slots — not values — are recorded,
so the collector always reads the slot's current content at GC time.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

from repro.vm.objects import SPACE_NURSERY


class RememberedSet:
    """Slot-remembering set with duplicate suppression."""

    def __init__(self):
        self._entries: List[Tuple[object, int]] = []
        # (holder, slot) keyed by the holder object itself, not
        # id(holder): membership must survive a snapshot pickle,
        # and heap objects hash by identity.
        self._seen: Set[Tuple[object, int]] = set()
        self.barrier_stores = 0
        self.remembered = 0

    def record_store(self, holder, slot_index: int, value) -> bool:
        """The barrier: called for every reference store, it counts the
        store and runs the filter — a holder outside the nursery, a
        value inside it — before :meth:`remember`.  (A counted region of
        the level-2 translator writes the same filter inline and adds
        its stores to ``barrier_stores`` as one count at each exit.)

        Returns True when the slot was (newly) remembered.
        """
        self.barrier_stores += 1
        if value is None or holder is None:
            return False
        if holder.space == SPACE_NURSERY:
            return False
        if value.space != SPACE_NURSERY:
            return False
        return self.remember(holder, slot_index)

    def remember(self, holder, slot_index: int) -> bool:
        """Remember a slot that passed the barrier's filter, once;
        True when it is new."""
        key = (holder, slot_index)
        if key in self._seen:
            return False
        self._seen.add(key)
        self._entries.append(key)
        self.remembered += 1
        return True

    def slots(self) -> Iterable[Tuple[object, int]]:
        """The remembered (holder, slot) pairs."""
        return list(self._entries)

    def targets(self):
        """Current nursery objects referenced from remembered slots."""
        for holder, index in self._entries:
            value = (holder.elements[index] if holder.is_array
                     else holder.slots[index])
            if value is not None and value.space == SPACE_NURSERY:
                yield value

    def clear(self) -> None:
        self._entries.clear()
        self._seen.clear()

    def __len__(self) -> int:
        return len(self._entries)

    # ``_seen`` is always ``set(_entries)``, and a set of identity-hashed
    # pairs pickles in address order: a snapshot carries the entries
    # only, so its bytes follow from the VM state.
    def __getstate__(self):
        return (self._entries, self.barrier_stores, self.remembered)

    def __setstate__(self, state):
        self._entries, self.barrier_stores, self.remembered = state
        self._seen = set(self._entries)
