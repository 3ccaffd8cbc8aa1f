"""Tests for the class/field/method model and runtime objects."""

import pytest

from tests.helpers import (element_address, is_adjacent, is_subclass_of,
                           ref_children, same_cache_line)
from repro.vm.model import (
    ARRAY_HEADER_BYTES,
    HEADER_BYTES,
    ClassInfo,
    MethodInfo,
    array_bytes,
    element_offset,
)
from repro.vm.objects import (
    SPACE_MATURE,
    SPACE_NURSERY,
    HeapArray,
    HeapObject,
)
from repro.vm.program import Program


class TestFieldLayout:
    def test_header_is_8_bytes(self):
        k = ClassInfo("Empty").seal()
        assert k.instance_bytes == HEADER_BYTES

    def test_int_field_offsets(self):
        k = ClassInfo("A")
        f1 = k.add_field("x", "int")
        f2 = k.add_field("y", "int")
        k.seal()
        assert f1.offset == 8
        assert f2.offset == 12
        assert k.instance_bytes == 16

    def test_char_fields_pack(self):
        k = ClassInfo("C")
        a = k.add_field("a", "char")
        b = k.add_field("b", "char")
        k.seal()
        assert a.offset == 8
        assert b.offset == 10
        assert k.instance_bytes == 12

    def test_alignment_after_char(self):
        k = ClassInfo("D")
        k.add_field("c", "char")
        f = k.add_field("r", "ref")
        k.seal()
        assert f.offset == 12  # aligned to 4

    def test_long_field_size(self):
        k = ClassInfo("L")
        f = k.add_field("v", "long")
        k.seal()
        assert f.size == 8
        assert k.instance_bytes == 16

    def test_inherited_fields_keep_offsets(self):
        base = ClassInfo("Base")
        fx = base.add_field("x", "int")
        base.seal()
        sub = ClassInfo("Sub", base)
        fy = sub.add_field("y", "int")
        sub.seal()
        assert sub.field("x") is fx
        assert fy.offset == fx.offset + 4

    def test_duplicate_field_rejected(self):
        k = ClassInfo("A")
        k.add_field("x", "int")
        with pytest.raises(ValueError):
            k.add_field("x", "int")

    def test_sealed_class_rejects_fields(self):
        k = ClassInfo("A").seal()
        with pytest.raises(RuntimeError):
            k.add_field("x", "int")

    def test_unknown_kind_rejected(self):
        k = ClassInfo("A")
        with pytest.raises(ValueError):
            k.add_field("x", "float128")

    def test_qualified_name(self):
        k = ClassInfo("String")
        f = k.add_field("value", "ref")
        assert f.qualified_name == "String::value"

    def test_ref_fields_listing(self):
        k = ClassInfo("A")
        k.add_field("i", "int")
        k.add_field("r", "ref")
        k.add_field("s", "ref")
        k.seal()
        assert [f.name for f in k.ref_fields()] == ["r", "s"]


class TestVtable:
    def make_method(self, klass, name):
        return MethodInfo(name, klass, is_static=False, arg_kinds=["ref"],
                          return_kind="void", max_locals=1, code=[])

    def test_vtable_slot_assignment(self):
        k = ClassInfo("A")
        m = self.make_method(k, "foo")
        k.add_method(m)
        assert m.vtable_slot == 0
        assert k.vtable[0] is m

    def test_override_reuses_slot(self):
        base = ClassInfo("Base")
        m1 = self.make_method(base, "foo")
        base.add_method(m1)
        base.seal()
        sub = ClassInfo("Sub", base)
        m2 = self.make_method(sub, "foo")
        sub.add_method(m2)
        assert m2.vtable_slot == m1.vtable_slot == 0
        assert sub.vtable[0] is m2
        assert base.vtable[0] is m1

    def test_method_lookup_follows_superclass(self):
        base = ClassInfo("Base")
        m = self.make_method(base, "foo")
        base.add_method(m)
        sub = ClassInfo("Sub", base)
        assert sub.method("foo") is m

    def test_is_subclass_of(self):
        base = ClassInfo("Base")
        sub = ClassInfo("Sub", base)
        assert is_subclass_of(sub, base)
        assert not is_subclass_of(base, sub)


class TestArrays:
    def test_array_bytes(self):
        assert array_bytes("int", 4) == ARRAY_HEADER_BYTES + 16
        assert array_bytes("char", 3) == 20  # 12 + 6, aligned to 4
        assert array_bytes("ref", 0) == ARRAY_HEADER_BYTES

    def test_element_offset(self):
        assert element_offset("int", 0) == 12
        assert element_offset("char", 2) == 16
        assert element_offset("long", 1) == 20

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            array_bytes("int", -1)


class TestHeapObjects:
    def test_object_slots_default_values(self):
        k = ClassInfo("A")
        k.add_field("i", "int")
        k.add_field("r", "ref")
        k.seal()
        obj = HeapObject(k)
        assert obj.read(0) == 0
        assert obj.read(1) is None

    def test_object_read_write(self):
        k = ClassInfo("A")
        k.add_field("i", "int")
        k.seal()
        obj = HeapObject(k)
        obj.write(0, 42)
        assert obj.read(0) == 42

    def test_ref_children(self):
        k = ClassInfo("A")
        k.add_field("i", "int")
        k.add_field("r", "ref")
        k.seal()
        parent, child = HeapObject(k), HeapObject(k)
        parent.write(1, child)
        children = list(ref_children(parent))
        assert children == [(k.field("r"), child)]

    def test_array_defaults(self):
        arr = HeapArray("ref", 3)
        assert arr.read(0) is None
        arr2 = HeapArray("int", 3)
        assert arr2.read(0) == 0

    def test_array_element_address(self):
        arr = HeapArray("char", 10, address=0x1000)
        assert element_address(arr, 0) == 0x100C
        assert element_address(arr, 4) == 0x1014

    def test_array_ref_children(self):
        arr = HeapArray("ref", 3)
        k = ClassInfo("A").seal()
        obj = HeapObject(k)
        arr.write(1, obj)
        assert list(ref_children(arr)) == [(1, obj)]

    def test_same_cache_line(self):
        k = ClassInfo("A").seal()
        a = HeapObject(k, address=0x1000)
        b = HeapObject(k, address=0x1008)
        c = HeapObject(k, address=0x1080)
        assert same_cache_line(a, b)
        assert not same_cache_line(a, c)

    def test_is_adjacent(self):
        k = ClassInfo("A")
        k.add_field("x", "int")
        k.seal()  # 12 bytes
        a = HeapObject(k, address=0x1000)
        b = HeapObject(k, address=0x1000 + k.instance_bytes)
        assert is_adjacent(a, b)

    def test_space_tagging(self):
        k = ClassInfo("A").seal()
        obj = HeapObject(k, space=SPACE_NURSERY)
        obj.space = SPACE_MATURE
        assert obj.space == SPACE_MATURE


class TestProgram:
    def test_prelude_classes(self):
        p = Program("t")
        assert "Object" in p.classes
        s = p.klass("String")
        assert s.field("value").is_ref
        assert s.field("value").offset == 8

    def test_string_char_pair_fits_one_line(self):
        # The db case study depends on String + small char[] fitting a
        # 128-byte cache line when co-allocated.
        p = Program("t")
        string_bytes = p.string_class.instance_bytes
        assert string_bytes + array_bytes("char", 16) <= 128

    def test_duplicate_class_rejected(self):
        p = Program("t")
        p.define_class("A")
        with pytest.raises(ValueError):
            p.define_class("A")
