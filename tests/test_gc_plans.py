"""Tests for the GenMS / GenCopy plans, write barrier, and co-allocation.

The collection is one skeleton shared by both plans, so what holds for
any plan is written once in a ``...Cases`` class and run by a GenMS and
a GenCopy ``Test...`` class (the reachability property draws its plan);
free-list, cell and semispace facts stay with their plan.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import is_adjacent, same_cache_line, static_hot_fields
from repro.core.config import GCConfig
from repro.gc.coalloc import CoallocationPolicy
from repro.gc.gencopy import GenCopyPlan, make_plan
from repro.gc.genms import GenMSPlan
from repro.gc.plan import GCHooks, HeapExhausted
from repro.vm.model import ARRAY_HEADER_BYTES, KIND_BYTES
from repro.vm.objects import (
    SPACE_LOS,
    SPACE_MATURE,
    SPACE_NURSERY,
)
from repro.vm.program import Program


def fresh_program():
    p = Program("t")
    node = p.define_class("Node")
    node.add_field("next", "ref")
    node.add_field("value", "int")
    node.seal()
    return p, node


class RootBag:
    """Mutable root set for driving plans in tests."""

    def __init__(self):
        self.objects = []

    def __call__(self):
        return list(self.objects)


def _hooks(roots, charges):
    return GCHooks(
        roots=roots if roots is not None else lambda: (),
        charge=(charges.append if charges is not None else lambda c: None),
    )


def make_genms(heap=1 << 20, coalloc=None, roots=None, charges=None):
    return GenMSPlan(GCConfig(heap_bytes=heap), _hooks(roots, charges),
                     coalloc)


def make_gencopy(heap=1 << 20, roots=None, charges=None):
    return GenCopyPlan(GCConfig(heap_bytes=heap), _hooks(roots, charges))


class TestAllocation:
    def test_object_allocated_in_nursery(self):
        p, node = fresh_program()
        plan = make_genms()
        obj = plan.alloc_object(node)
        assert obj.space == SPACE_NURSERY
        assert plan.nursery.contains(obj.address)

    def test_large_object_goes_to_los(self):
        plan = make_genms()
        arr = plan.alloc_array("int", 2000)  # 8012 bytes
        assert arr.space == SPACE_LOS
        assert plan.stats.los_objects == 1

    def test_sequential_nursery_addresses(self):
        p, node = fresh_program()
        plan = make_genms()
        a = plan.alloc_object(node)
        b = plan.alloc_object(node)
        assert b.address == a.address + node.instance_bytes

    def test_alloc_stats(self):
        p, node = fresh_program()
        plan = make_genms()
        plan.alloc_object(node)
        plan.alloc_array("int", 4)
        assert plan.stats.alloc_objects == 2
        assert plan.stats.alloc_bytes > 0


class MinorCollectionCases:
    """What a minor collection does under either plan (``make``)."""

    def test_nursery_full_triggers_minor_gc(self):
        p, node = fresh_program()
        roots = RootBag()
        plan = self.make(heap=1 << 20, roots=roots)
        n = plan.nursery.capacity // node.instance_bytes + 10
        for _ in range(n):
            roots.objects = [plan.alloc_object(node)]  # only last survives
        assert plan.stats.minor_gcs >= 1

    def test_live_objects_promoted_dead_dropped(self):
        p, node = fresh_program()
        roots = RootBag()
        plan = self.make(roots=roots)
        live = plan.alloc_object(node)
        plan.alloc_object(node)  # dead
        roots.objects = [live]
        plan.collect_minor()
        assert live.space == SPACE_MATURE
        assert plan.stats.promoted_objects == 1

    def test_transitive_reachability(self):
        p, node = fresh_program()
        roots = RootBag()
        plan = self.make(roots=roots)
        a = plan.alloc_object(node)
        b = plan.alloc_object(node)
        c = plan.alloc_object(node)
        a.write(0, b)
        b.write(0, c)
        roots.objects = [a]
        plan.collect_minor()
        assert all(o.space == SPACE_MATURE for o in (a, b, c))

    def test_field_values_preserved_across_gc(self):
        p, node = fresh_program()
        roots = RootBag()
        plan = self.make(roots=roots)
        a = plan.alloc_object(node)
        a.write(1, 1234)
        roots.objects = [a]
        plan.collect_minor()
        assert a.read(1) == 1234

    def test_remset_keeps_nursery_object_alive(self):
        p, node = fresh_program()
        roots = RootBag()
        plan = self.make(roots=roots)
        parent = plan.alloc_object(node)
        roots.objects = [parent]
        plan.collect_minor()
        assert parent.space == SPACE_MATURE
        child = plan.alloc_object(node)
        parent.write(0, child)
        plan.write_barrier(parent, 0, child)
        roots.objects = []  # only reachable via the mature parent
        plan.collect_minor()
        assert child.space == SPACE_MATURE

    def test_without_barrier_child_is_lost(self):
        # Documents why the barrier is required: skipping it loses the
        # mature->nursery edge.
        p, node = fresh_program()
        roots = RootBag()
        plan = self.make(roots=roots)
        parent = plan.alloc_object(node)
        roots.objects = [parent]
        plan.collect_minor()
        child = plan.alloc_object(node)
        parent.write(0, child)  # no barrier call
        roots.objects = []
        plan.collect_minor()
        assert child.space == SPACE_NURSERY  # stale: GC never saw it

    def test_nursery_reset_after_gc(self):
        p, node = fresh_program()
        roots = RootBag()
        plan = self.make(roots=roots)
        plan.alloc_object(node)
        plan.collect_minor()
        assert plan.nursery.used == 0

    def test_promotion_charges_cycles(self):
        p, node = fresh_program()
        roots = RootBag()
        charges = []
        plan = self.make(roots=roots, charges=charges)
        roots.objects = [plan.alloc_object(node)]
        plan.collect_minor()
        assert sum(charges) >= plan.config.minor_fixed_cost

    def test_no_survivor_promoted_to_los(self):
        # The LOS takes every object larger than a cell when it is
        # allocated, so the largest nursery object fits one and each
        # survivor of a minor collection lands in the mature space.
        p, node = fresh_program()
        roots = RootBag()
        plan = self.make(roots=roots)
        cell_max = plan.config.max_cell_bytes
        length = (cell_max - ARRAY_HEADER_BYTES) // KIND_BYTES["int"]
        largest = plan.alloc_array("int", length)
        larger = plan.alloc_array("int", length + 1)
        assert largest.size == cell_max and largest.space == SPACE_NURSERY
        assert larger.space == SPACE_LOS
        young = [largest, plan.alloc_object(node), plan.alloc_array("ref", 3)]
        roots.objects = young + [larger]
        plan.collect_minor()
        assert all(obj.space == SPACE_MATURE for obj in young)
        assert plan.los_objects == [larger]


class TestMinorCollection(MinorCollectionCases):
    make = staticmethod(make_genms)


class TestMinorCollectionGenCopy(MinorCollectionCases):
    make = staticmethod(make_gencopy)


class FullCollectionCases:
    """What a full collection does under either plan (``make``)."""

    def test_full_gc_clears_marks(self):
        p, node = fresh_program()
        roots = RootBag()
        plan = self.make(roots=roots)
        a = plan.alloc_object(node)
        roots.objects = [a]
        plan.collect_minor()
        plan.collect_full()
        assert a.gc_mark is False

    def test_los_swept(self):
        roots = RootBag()
        plan = self.make(roots=roots)
        arr = plan.alloc_array("int", 3000)
        roots.objects = [arr]
        plan.collect_full()
        assert plan.los.bytes_in_use > 0
        roots.objects = []
        plan.collect_full()
        assert plan.los.bytes_in_use == 0

    def test_heap_exhaustion_raises(self):
        p, node = fresh_program()
        roots = RootBag()
        keep = []
        roots.objects = keep
        plan = self.make(heap=160 * 1024, roots=lambda: keep)
        with pytest.raises(HeapExhausted):
            for _ in range(20000):
                keep.append(plan.alloc_object(node))


class TestFullCollection(FullCollectionCases):
    make = staticmethod(make_genms)

    def test_dead_mature_objects_swept(self):
        p, node = fresh_program()
        roots = RootBag()
        plan = make_genms(roots=roots)
        a = plan.alloc_object(node)
        b = plan.alloc_object(node)
        roots.objects = [a, b]
        plan.collect_minor()
        roots.objects = [a]
        before = plan.freelist.bytes_in_use
        plan.collect_full()
        assert plan.freelist.bytes_in_use < before
        assert plan.stats.swept_objects == 1
        assert a.space == SPACE_MATURE


class TestFullCollectionGenCopy(FullCollectionCases):
    make = staticmethod(make_gencopy)


class TestCoallocation:
    def make_coalloc_plan(self, hot_table, roots, gap=0, heap=1 << 20):
        policy = CoallocationPolicy(static_hot_fields(hot_table),
                                    gap_bytes=gap)
        return make_genms(heap=heap, coalloc=policy, roots=roots), policy

    def test_hot_pair_placed_adjacently(self):
        p, node = fresh_program()
        roots = RootBag()
        plan, _ = self.make_coalloc_plan({node: node.field("next")}, roots)
        parent = plan.alloc_object(node)
        child = plan.alloc_object(node)
        parent.write(0, child)
        roots.objects = [parent]
        plan.collect_minor()
        assert parent.space == child.space == SPACE_MATURE
        assert is_adjacent(parent, child)
        assert same_cache_line(parent, child)
        assert parent.coallocated and child.coallocated
        assert plan.stats.coalloc_pairs == 1
        assert plan.stats.coallocated_objects == 2

    def test_pair_shares_one_cell(self):
        p, node = fresh_program()
        roots = RootBag()
        plan, _ = self.make_coalloc_plan({node: node.field("next")}, roots)
        parent = plan.alloc_object(node)
        child = plan.alloc_object(node)
        parent.write(0, child)
        roots.objects = [parent]
        plan.collect_minor()
        assert parent.cell is child.cell
        assert len(parent.cell.inhabitants) == 2

    def test_no_hot_field_means_normal_promotion(self):
        p, node = fresh_program()
        roots = RootBag()
        plan, policy = self.make_coalloc_plan({}, roots)
        parent = plan.alloc_object(node)
        child = plan.alloc_object(node)
        parent.write(0, child)
        roots.objects = [parent]
        plan.collect_minor()
        assert not parent.coallocated
        assert policy.no_hot_field > 0

    def test_child_already_mature_not_coallocated(self):
        p, node = fresh_program()
        roots = RootBag()
        plan, policy = self.make_coalloc_plan({node: node.field("next")}, roots)
        child = plan.alloc_object(node)
        roots.objects = [child]
        plan.collect_minor()
        parent = plan.alloc_object(node)
        parent.write(0, child)
        roots.objects = [parent]
        plan.collect_minor()
        assert not parent.coallocated
        assert policy.child_unavailable > 0

    def test_null_child_not_coallocated(self):
        p, node = fresh_program()
        roots = RootBag()
        plan, _ = self.make_coalloc_plan({node: node.field("next")}, roots)
        parent = plan.alloc_object(node)
        roots.objects = [parent]
        plan.collect_minor()
        assert not parent.coallocated

    def test_combined_size_over_limit_rejected(self):
        p = Program("t")
        big = p.define_class("Big")
        big.add_field("child", "ref")
        for i in range(1020):
            big.add_field(f"f{i}", "int")  # ~4 KB object
        big.seal()
        roots = RootBag()
        plan, policy = self.make_coalloc_plan({big: big.field("child")}, roots)
        parent = plan.alloc_object(big)
        child = plan.alloc_object(big)
        parent.write(0, child)
        roots.objects = [parent]
        plan.collect_minor()
        assert not parent.coallocated
        assert policy.too_large > 0

    def test_gap_bytes_separates_pair(self):
        # Figure 8: one cache line of empty space between the objects.
        p, node = fresh_program()
        roots = RootBag()
        plan, _ = self.make_coalloc_plan({node: node.field("next")}, roots,
                                         gap=128)
        parent = plan.alloc_object(node)
        child = plan.alloc_object(node)
        parent.write(0, child)
        roots.objects = [parent]
        plan.collect_minor()
        assert parent.coallocated
        assert child.address == parent.address + parent.size + 128
        assert not same_cache_line(parent, child)

    def test_coalloc_cell_freed_only_when_both_dead(self):
        p, node = fresh_program()
        roots = RootBag()
        plan, _ = self.make_coalloc_plan({node: node.field("next")}, roots)
        parent = plan.alloc_object(node)
        child = plan.alloc_object(node)
        parent.write(0, child)
        roots.objects = [parent]
        plan.collect_minor()
        cell = parent.cell
        # Keep only the child alive: parent dies, cell must survive.
        roots.objects = [child]
        parent.write(0, None)
        plan.collect_full()
        assert cell.addr in plan.freelist.cells
        assert cell.inhabitants == [child]
        roots.objects = []
        plan.collect_full()
        assert cell.addr not in plan.freelist.cells

    def test_chain_promotion_pairs_greedily(self):
        # a -> b -> c with Node::next hot: BFS promotes a+b as a pair; c
        # is already promoted by the time b is considered as a parent.
        p, node = fresh_program()
        roots = RootBag()
        plan, _ = self.make_coalloc_plan({node: node.field("next")}, roots)
        a = plan.alloc_object(node)
        b = plan.alloc_object(node)
        c = plan.alloc_object(node)
        a.write(0, b)
        b.write(0, c)
        roots.objects = [a]
        plan.collect_minor()
        assert a.coallocated and b.coallocated
        assert is_adjacent(a, b)
        assert plan.stats.coalloc_pairs in (1, 2)


class TestGenCopy:
    def test_rejects_coalloc_policy(self):
        with pytest.raises(ValueError):
            GenCopyPlan(GCConfig(), coalloc=CoallocationPolicy(lambda k: None))

    def test_minor_promotes_to_tospace(self):
        p, node = fresh_program()
        roots = RootBag()
        plan = GenCopyPlan(GCConfig(heap_bytes=1 << 20), GCHooks(roots=roots))
        a = plan.alloc_object(node)
        roots.objects = [a]
        plan.collect_minor()
        assert a.space == SPACE_MATURE
        assert plan.tospace.contains(a.address)

    def test_cheney_order_gives_locality(self):
        p, node = fresh_program()
        roots = RootBag()
        plan = GenCopyPlan(GCConfig(heap_bytes=1 << 20), GCHooks(roots=roots))
        a = plan.alloc_object(node)
        b = plan.alloc_object(node)
        a.write(0, b)
        roots.objects = [a]
        plan.collect_minor()
        assert b.address == a.address + a.size  # only two objects: adjacent

    def test_full_gc_flips_semispaces(self):
        p, node = fresh_program()
        roots = RootBag()
        plan = GenCopyPlan(GCConfig(heap_bytes=1 << 20), GCHooks(roots=roots))
        a = plan.alloc_object(node)
        roots.objects = [a]
        plan.collect_minor()
        old_space = plan.tospace
        old_addr = a.address
        plan.collect_full()
        assert plan.tospace is not old_space
        assert a.address != old_addr
        assert plan.tospace.contains(a.address)

    def test_full_gc_drops_dead_mature(self):
        p, node = fresh_program()
        roots = RootBag()
        plan = GenCopyPlan(GCConfig(heap_bytes=1 << 20), GCHooks(roots=roots))
        a = plan.alloc_object(node)
        b = plan.alloc_object(node)
        roots.objects = [a, b]
        plan.collect_minor()
        roots.objects = [a]
        plan.collect_full()
        assert len(plan.mature_objects) == 1
        assert plan.stats.swept_objects == 1

    def test_copy_reserve_doubles_footprint(self):
        p, node = fresh_program()
        roots = RootBag()
        plan = GenCopyPlan(GCConfig(heap_bytes=1 << 20), GCHooks(roots=roots))
        a = plan.alloc_object(node)
        roots.objects = [a]
        plan.collect_minor()
        assert plan.mature_footprint() == 2 * a.size

    def test_make_plan_factory(self):
        assert isinstance(make_plan("genms", GCConfig()), GenMSPlan)
        assert isinstance(make_plan("gencopy", GCConfig()), GenCopyPlan)
        with pytest.raises(ValueError):
            make_plan("nogc", GCConfig())


class TestGCProperties:
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                    min_size=1, max_size=40),
           st.lists(st.booleans(), min_size=10, max_size=10),
           st.sampled_from([make_genms, make_gencopy]))
    @settings(max_examples=80, deadline=None)
    def test_reachable_objects_survive_arbitrary_graphs(self, edges, root_mask,
                                                        make):
        """Build a random 10-node graph, run minor+full GC under either
        plan, and check that exactly the reachable nodes survive with
        values intact."""
        p, node = fresh_program()
        roots = RootBag()
        plan = make(roots=roots)
        objs = [plan.alloc_object(node) for _ in range(10)]
        for i, obj in enumerate(objs):
            obj.write(1, i * 100)
        for src, dst in edges:
            objs[src].write(0, objs[dst])
        roots.objects = [o for o, keep in zip(objs, root_mask) if keep]
        # Compute expected reachability.
        expected = set()
        stack = [i for i, keep in enumerate(root_mask) if keep]
        while stack:
            i = stack.pop()
            if i in expected:
                continue
            expected.add(i)
            child = objs[i].read(0)
            if child is not None:
                stack.append(objs.index(child))
        plan.collect_minor()
        plan.collect_full()
        for i in expected:
            assert objs[i].space == SPACE_MATURE
            assert objs[i].read(1) == i * 100
        assert plan.stats.promoted_objects == len(expected)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_live_mature_objects_never_overlap(self, data):
        """Address-range disjointness under co-allocation and gaps."""
        p, node = fresh_program()
        gap = data.draw(st.sampled_from([0, 64, 128]))
        roots = RootBag()
        policy = CoallocationPolicy(
            static_hot_fields({node: node.field("next")}), gap_bytes=gap)
        plan = make_genms(coalloc=policy, roots=roots)
        n = data.draw(st.integers(2, 30))
        objs = [plan.alloc_object(node) for _ in range(n)]
        for a, b in zip(objs, objs[1:]):
            if data.draw(st.booleans()):
                a.write(0, b)
        roots.objects = objs
        plan.collect_minor()
        spans = sorted((o.address, o.address + o.size) for o in objs)
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            assert e1 <= s2
