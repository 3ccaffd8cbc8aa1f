"""Runtime heap objects (functional state).

The simulator is functionally executed / timing-directed (DESIGN.md §5):
an object's *contents* live in ordinary Python lists here, while its
*placement* is a simulated byte address assigned by the allocators in
:mod:`repro.gc`.  The garbage collector "moves" an object by reassigning
``address``; because reference slots hold Python references to
:class:`HeapObject` instances, pointer forwarding is implicit and cannot
be done inconsistently.

Space identifiers record which heap region an object currently occupies;
the write barrier and the generational collectors dispatch on them.
"""

from __future__ import annotations

from typing import List, Optional

from repro.vm.model import (
    ARRAY_HEADER_BYTES,
    KIND_BYTES,
    ClassInfo,
    array_bytes,
    element_offset,
)

# Space identifiers.
SPACE_NURSERY = 0
SPACE_MATURE = 1
SPACE_LOS = 2
SPACE_IMMORTAL = 3

SPACE_NAMES = {
    SPACE_NURSERY: "nursery",
    SPACE_MATURE: "mature",
    SPACE_LOS: "los",
    SPACE_IMMORTAL: "immortal",
}


class HeapObject:
    """A scalar (non-array) heap object."""

    __slots__ = ("class_info", "address", "space", "slots", "gc_mark",
                 "coallocated", "cell")

    is_array = False

    def __init__(self, class_info: ClassInfo, address: int = 0,
                 space: int = SPACE_NURSERY):
        self.class_info = class_info
        self.address = address
        self.space = space
        # One slot per instance field, in FieldInfo.index order: a copy
        # of the sealed class's template (an unsealed class may still
        # grow fields, so its defaults are worked out per object).
        template = class_info.slot_template
        self.slots: List[object] = (
            template[:] if template is not None
            else class_info.default_slots())
        self.gc_mark = False
        #: True when this object was placed by the co-allocation policy
        #: (used for Figure 3's co-allocated-object counts).
        self.coallocated = False
        #: Free-list cell hosting this object once promoted (GenMS).
        self.cell = None

    @property
    def size(self) -> int:
        return self.class_info.instance_bytes

    def read(self, index: int) -> object:
        return self.slots[index]

    def write(self, index: int, value: object) -> None:
        self.slots[index] = value

    def ref_children(self):
        """Yield (FieldInfo, child) for every non-null reference field."""
        for field in self.class_info.fields:
            if field.kind == "ref":
                child = self.slots[field.index]
                if child is not None:
                    yield field, child

    def __repr__(self) -> str:
        return (f"<{self.class_info.name}@{self.address:#x} "
                f"{SPACE_NAMES.get(self.space, '?')}>")


class HeapArray:
    """An array object.  Element kind determines size and ref-ness."""

    __slots__ = ("kind", "address", "space", "elements", "gc_mark",
                 "coallocated", "cell", "esize")

    is_array = True
    class_info = None  # arrays have no ClassInfo

    def __init__(self, kind: str, length: int, address: int = 0,
                 space: int = SPACE_NURSERY):
        if kind not in KIND_BYTES:
            raise ValueError(f"unknown element kind {kind!r}")
        if length < 0:
            raise ValueError("negative array length")
        self.kind = kind
        self.esize = KIND_BYTES[kind]
        self.address = address
        self.space = space
        self.elements: List[object] = (
            [None] * length if kind == "ref" else [0] * length
        )
        self.gc_mark = False
        self.coallocated = False
        self.cell = None

    @property
    def length(self) -> int:
        return len(self.elements)

    @property
    def size(self) -> int:
        return array_bytes(self.kind, len(self.elements))

    def element_address(self, index: int) -> int:
        return self.address + element_offset(self.kind, index)

    def read(self, index: int) -> object:
        return self.elements[index]

    def write(self, index: int, value: object) -> None:
        self.elements[index] = value

    def ref_children(self):
        """Yield (index, child) for each non-null reference element."""
        if self.kind == "ref":
            for i, child in enumerate(self.elements):
                if child is not None:
                    yield i, child

    def __repr__(self) -> str:
        return (f"<{self.kind}[{len(self.elements)}]@{self.address:#x} "
                f"{SPACE_NAMES.get(self.space, '?')}>")


def object_size(obj) -> int:
    """Size in bytes of any heap object or array."""
    return obj.size


def same_cache_line(a, b, line_bytes: int = 128) -> bool:
    """True when the *headers* of two objects share a cache line.

    This is the spatial-locality predicate the co-allocation optimization
    tries to make true for hot parent/child pairs (section 5.2: "increases
    the chance that both objects lie in the same cache line").
    """
    return (a.address // line_bytes) == (b.address // line_bytes)


def is_adjacent(parent, child) -> bool:
    """True when ``child`` is placed directly after ``parent`` in memory."""
    return child.address == parent.address + parent.size
