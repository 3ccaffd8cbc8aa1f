"""Class, field, and method model of the Java-like VM.

The reproduction's guest language is a compact Java analog: single
inheritance, typed instance/static fields, virtual and static methods,
and a stack bytecode (see :mod:`repro.vm.bytecode`).  This module defines
the *static* program structure; runtime objects live in
:mod:`repro.vm.objects`.

Field layout matters because the optimization under study works at the
granularity of 128-byte cache lines: offsets are computed here exactly
once per class, using 32-bit-era sizes (4-byte references and ints,
2-byte chars, 8-byte longs/doubles, 8-byte object headers).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Object header size in bytes (status word + type information block).
HEADER_BYTES = 8
#: Array header: object header plus a 4-byte length word.
ARRAY_HEADER_BYTES = 12

#: Field/element kinds with their sizes in bytes.
KIND_BYTES = {
    "byte": 1,
    "char": 2,
    "int": 4,
    "ref": 4,
    "long": 8,
    "double": 8,
}

REF_KIND = "ref"


def _align(offset: int, alignment: int) -> int:
    return (offset + alignment - 1) & ~(alignment - 1)


class FieldInfo:
    """One instance or static field.

    ``offset`` is the byte offset from the object base (instance fields)
    or the slot index in the class statics area (static fields).
    """

    __slots__ = ("name", "kind", "declaring_class", "offset", "index", "is_static")

    def __init__(self, name: str, kind: str, declaring_class: "ClassInfo",
                 offset: int, index: int, is_static: bool = False):
        if kind not in KIND_BYTES:
            raise ValueError(f"unknown field kind {kind!r}")
        self.name = name
        self.kind = kind
        self.declaring_class = declaring_class
        self.offset = offset
        self.index = index
        self.is_static = is_static

    @property
    def is_ref(self) -> bool:
        return self.kind == REF_KIND

    @property
    def size(self) -> int:
        return KIND_BYTES[self.kind]

    @property
    def qualified_name(self) -> str:
        """The paper's ``Class::field`` notation (e.g. ``String::value``)."""
        return f"{self.declaring_class.name}::{self.name}"

    def __repr__(self) -> str:
        return f"<field {self.qualified_name}:{self.kind}@{self.offset}>"


class MethodInfo:
    """One method: signature plus bytecode.

    The JIT attaches compiled-code versions at runtime
    (:class:`repro.jit.codecache.CompiledMethod` instances); those
    attributes start out ``None`` here.
    """

    __slots__ = (
        "name", "declaring_class", "is_static", "arg_kinds", "return_kind",
        "max_locals", "code", "vtable_slot",
        "baseline_code", "opt_code", "current_code", "compile_count",
    )

    def __init__(self, name: str, declaring_class: "ClassInfo", *,
                 is_static: bool, arg_kinds: List[str], return_kind: str,
                 max_locals: int, code: list):
        self.name = name
        self.declaring_class = declaring_class
        self.is_static = is_static
        #: Argument kinds, *including* the receiver for virtual methods.
        self.arg_kinds = arg_kinds
        self.return_kind = return_kind  # "void" | "int" | "ref"
        self.max_locals = max_locals
        self.code = code
        self.vtable_slot: Optional[int] = None
        # JIT state.
        self.baseline_code = None
        self.opt_code = None
        self.current_code = None
        self.compile_count = 0

    @property
    def num_args(self) -> int:
        return len(self.arg_kinds)

    @property
    def qualified_name(self) -> str:
        return f"{self.declaring_class.name}.{self.name}"

    def __repr__(self) -> str:
        return f"<method {self.qualified_name}/{self.num_args}>"


class ClassInfo:
    """A loaded class: fields with computed offsets, methods, and a vtable."""

    def __init__(self, name: str, superclass: Optional["ClassInfo"] = None):
        self.name = name
        self.superclass = superclass
        #: All instance fields including inherited ones, in layout order.
        self.fields: List[FieldInfo] = list(superclass.fields) if superclass else []
        self.fields_by_name: Dict[str, FieldInfo] = (
            dict(superclass.fields_by_name) if superclass else {}
        )
        self.static_fields: Dict[str, FieldInfo] = {}
        self.static_values: List[object] = []
        self.methods: Dict[str, MethodInfo] = {}
        #: Virtual dispatch table: slot -> MethodInfo.
        self.vtable: List[MethodInfo] = list(superclass.vtable) if superclass else []
        self._vtable_slots: Dict[str, int] = (
            dict(superclass._vtable_slots) if superclass else {}
        )
        self.instance_bytes = superclass.instance_bytes if superclass else HEADER_BYTES
        self._sealed = False
        #: A fresh instance's slots (``None`` per reference field, ``0``
        #: otherwise), copied by every allocation; ``None`` until
        #: :meth:`seal` fixes the layout.
        self.slot_template: Optional[List[object]] = None
        #: Direct subclasses (class-hierarchy analysis for devirtualization).
        self.subclasses: List["ClassInfo"] = []
        if superclass is not None:
            superclass.subclasses.append(self)

    # -- class construction ---------------------------------------------------

    def add_field(self, name: str, kind: str) -> FieldInfo:
        """Append an instance field, computing its aligned offset."""
        self._check_open()
        if name in self.fields_by_name:
            raise ValueError(f"duplicate field {self.name}.{name}")
        if kind not in KIND_BYTES:
            raise ValueError(f"unknown field kind {kind!r}")
        size = KIND_BYTES[kind]
        offset = _align(self.instance_bytes, min(size, 4))
        field = FieldInfo(name, kind, self, offset, index=len(self.fields))
        self.fields.append(field)
        self.fields_by_name[name] = field
        self.instance_bytes = offset + size
        return field

    def add_static(self, name: str, kind: str, initial: object = None) -> FieldInfo:
        if name in self.static_fields:
            raise ValueError(f"duplicate static {self.name}.{name}")
        index = len(self.static_values)
        field = FieldInfo(name, kind, self, offset=index * 4, index=index,
                          is_static=True)
        self.static_fields[name] = field
        if initial is None and kind != REF_KIND:
            initial = 0
        self.static_values.append(initial)
        return field

    def add_method(self, method: MethodInfo) -> MethodInfo:
        if method.name in self.methods:
            raise ValueError(f"duplicate method {self.name}.{method.name}")
        self.methods[method.name] = method
        if not method.is_static:
            slot = self._vtable_slots.get(method.name)
            if slot is None:
                slot = len(self.vtable)
                self.vtable.append(method)
                self._vtable_slots[method.name] = slot
            else:
                self.vtable[slot] = method
            method.vtable_slot = slot
        return method

    def seal(self) -> "ClassInfo":
        """Finalize the layout (alignment of the total instance size)."""
        self.instance_bytes = _align(self.instance_bytes, 4)
        self._sealed = True
        self.slot_template = self.default_slots()
        return self

    def default_slots(self) -> List[object]:
        """One default value per instance field, in index order."""
        return [None if f.is_ref else 0 for f in self.fields]

    def _check_open(self) -> None:
        # seal() freezes only the instance layout; methods and statics may
        # still be added afterwards (they do not affect object sizes).
        if self._sealed:
            raise RuntimeError(f"class {self.name} is sealed")

    # -- lookups ---------------------------------------------------------------

    def field(self, name: str) -> FieldInfo:
        try:
            return self.fields_by_name[name]
        except KeyError:
            raise KeyError(f"no field {self.name}.{name}") from None

    def static(self, name: str) -> FieldInfo:
        klass: Optional[ClassInfo] = self
        while klass is not None:
            if name in klass.static_fields:
                return klass.static_fields[name]
            klass = klass.superclass
        raise KeyError(f"no static field {self.name}.{name}")

    def method(self, name: str) -> MethodInfo:
        klass: Optional[ClassInfo] = self
        while klass is not None:
            if name in klass.methods:
                return klass.methods[name]
            klass = klass.superclass
        raise KeyError(f"no method {self.name}.{name}")

    def vtable_slot(self, name: str) -> int:
        try:
            return self._vtable_slots[name]
        except KeyError:
            raise KeyError(f"no virtual method {self.name}.{name}") from None

    def is_subclass_of(self, other: "ClassInfo") -> bool:
        klass: Optional[ClassInfo] = self
        while klass is not None:
            if klass is other:
                return True
            klass = klass.superclass
        return False

    def ref_fields(self) -> List[FieldInfo]:
        """Instance fields of reference kind, in layout order."""
        return [f for f in self.fields if f.is_ref]

    def all_subclasses(self) -> List["ClassInfo"]:
        """Transitive subclasses (excluding self)."""
        out: List[ClassInfo] = []
        stack = list(self.subclasses)
        while stack:
            klass = stack.pop()
            out.append(klass)
            stack.extend(klass.subclasses)
        return out

    def monomorphic_target(self, slot: int) -> "Optional[MethodInfo]":
        """Class-hierarchy analysis: the unique implementation reachable
        from a receiver of (a subclass of) this class at vtable ``slot``,
        or None when any loaded subclass overrides it."""
        target = self.vtable[slot]
        for sub in self.all_subclasses():
            if sub.vtable[slot] is not target:
                return None
        return target

    def __repr__(self) -> str:
        return f"<class {self.name} ({self.instance_bytes}B)>"


def array_bytes(kind: str, length: int) -> int:
    """Total size in bytes of an array object of ``length`` elements."""
    if kind not in KIND_BYTES:
        raise ValueError(f"unknown element kind {kind!r}")
    if length < 0:
        raise ValueError("negative array length")
    return _align(ARRAY_HEADER_BYTES + KIND_BYTES[kind] * length, 4)


def element_offset(kind: str, index: int) -> int:
    """Byte offset of element ``index`` from the array base address."""
    return ARRAY_HEADER_BYTES + KIND_BYTES[kind] * index
