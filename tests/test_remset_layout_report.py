"""Direct tests for the remembered set, the address-space layout, and
the report formatters."""

import pytest

from tests.helpers import in_los, in_mature, in_nursery, region_name
from repro.gc import layout
from repro.gc.remset import RememberedSet
from repro.harness import experiments as ex
from repro.harness.report import (
    format_fig2,
    format_fig3,
    format_fig4,
    format_fig5,
    format_fig6,
    format_fig8,
    format_table2,
)
from repro.vm.model import ClassInfo
from repro.vm.objects import SPACE_MATURE, SPACE_NURSERY, HeapArray, HeapObject


def make_objects():
    k = ClassInfo("A")
    k.add_field("r", "ref")
    k.seal()
    mature = HeapObject(k, space=SPACE_MATURE)
    young = HeapObject(k, space=SPACE_NURSERY)
    return k, mature, young


class TestRememberedSet:
    def test_mature_to_nursery_recorded(self):
        k, mature, young = make_objects()
        rs = RememberedSet()
        assert rs.record_store(mature, 0, young) is True
        assert len(rs) == 1

    def test_nursery_to_nursery_not_recorded(self):
        k, mature, young = make_objects()
        other = HeapObject(k, space=SPACE_NURSERY)
        rs = RememberedSet()
        assert rs.record_store(young, 0, other) is False
        assert len(rs) == 0

    def test_null_store_not_recorded(self):
        k, mature, young = make_objects()
        rs = RememberedSet()
        assert rs.record_store(mature, 0, None) is False

    def test_mature_target_not_recorded(self):
        k, mature, young = make_objects()
        other = HeapObject(k, space=SPACE_MATURE)
        rs = RememberedSet()
        assert rs.record_store(mature, 0, other) is False

    def test_duplicate_slot_suppressed(self):
        k, mature, young = make_objects()
        rs = RememberedSet()
        rs.record_store(mature, 0, young)
        assert rs.record_store(mature, 0, young) is False
        assert len(rs) == 1
        assert rs.barrier_stores == 2

    def test_targets_read_current_slot_value(self):
        k, mature, young = make_objects()
        rs = RememberedSet()
        mature.write(0, young)
        rs.record_store(mature, 0, young)
        # Overwrite the slot after recording: the remset must see the
        # *current* value.
        newer = HeapObject(k, space=SPACE_NURSERY)
        mature.write(0, newer)
        assert list(rs.targets()) == [newer]

    def test_targets_skip_promoted_values(self):
        k, mature, young = make_objects()
        rs = RememberedSet()
        mature.write(0, young)
        rs.record_store(mature, 0, young)
        young.space = SPACE_MATURE  # promoted meanwhile
        assert list(rs.targets()) == []

    def test_array_holder(self):
        k, mature, young = make_objects()
        arr = HeapArray("ref", 4, space=SPACE_MATURE)
        arr.write(2, young)
        rs = RememberedSet()
        rs.record_store(arr, 2, young)
        assert list(rs.targets()) == [young]

    def test_clear(self):
        k, mature, young = make_objects()
        rs = RememberedSet()
        rs.record_store(mature, 0, young)
        rs.clear()
        assert len(rs) == 0
        # The same slot can be re-recorded after a clear.
        assert rs.record_store(mature, 0, young) is True


class TestLayout:
    def test_regions_disjoint_and_ordered(self):
        bounds = [
            (layout.STACK_BASE, layout.STACK_LIMIT),
            (layout.STATICS_BASE, layout.STATICS_LIMIT),
            (layout.CODE_BASE, layout.CODE_LIMIT),
            (layout.NURSERY_BASE, layout.NURSERY_LIMIT),
            (layout.MATURE_BASE, layout.MATURE_LIMIT),
            (layout.LOS_BASE, layout.LOS_LIMIT),
        ]
        for (b1, l1), (b2, l2) in zip(bounds, bounds[1:]):
            assert b1 < l1 <= b2 < l2

    def test_region_predicates(self):
        assert layout.in_code_space(layout.CODE_BASE)
        assert not layout.in_code_space(layout.CODE_LIMIT)
        assert in_nursery(layout.NURSERY_BASE + 8)
        assert in_mature(layout.MATURE_BASE + 8)
        assert in_los(layout.LOS_BASE + 8)

    def test_region_name(self):
        assert region_name(layout.CODE_BASE) == "code"
        assert region_name(layout.NURSERY_BASE) == "nursery"
        assert region_name(0) == "unmapped"


class TestReportFormatting:
    def test_table2_formatting(self):
        rows = [ex.Table2Row("db", 2, 1, 5),
                ex.Table2Row("boot image", 700, 260, 250)]
        text = format_table2(rows)
        assert "db" in text and "boot image" in text
        assert "machine code" in text

    def test_fig2_formatting_with_average(self):
        rows = [ex.OverheadRow("db", {"25K": 0.03, "auto": 0.005}),
                ex.OverheadRow("fop", {"25K": 0.01, "auto": 0.001})]
        text = format_fig2(rows)
        assert "average" in text
        assert "3.00%" in text

    def test_fig3_formatting(self):
        rows = [ex.CoallocRow("db", {"25K": 20000, "100K": 19000})]
        text = format_fig3(rows)
        assert "20000" in text

    def test_fig4_reduction_property(self):
        row = ex.MissReductionRow("db", 100, 72)
        assert row.reduction == pytest.approx(0.28)
        assert "28.0%" in format_fig4([row])

    def test_fig4_zero_baseline(self):
        row = ex.MissReductionRow("empty", 0, 0)
        assert row.reduction == 0.0

    def test_fig5_formatting(self):
        rows = [ex.ExecTimeRow("db", {1.0: 0.91, 4.0: 0.89})]
        text = format_fig5(rows)
        assert "0.890" in text

    def test_fig6_normalization(self):
        comp = ex.GCPlanComparison("db", {
            1.0: {"genms": 100, "genms+coalloc": 87, "gencopy": 101}})
        assert comp.normalized(1.0, "genms+coalloc") == pytest.approx(0.87)
        text = format_fig6(comp)
        assert "gencopy" in text

    def test_fig8_formatting_markers(self):
        result = ex.RevertResult(
            benchmark="db", per_period=[(100, 5), (200, 9), (300, 4)],
            moving_average=[5.0, 7.0, 6.0], gap_applied_period=1,
            reverted=True, reverted_period=2, baseline_rate=5.0,
            peak_rate=9.0, final_rate=4.0)
        text = format_fig8(result)
        assert "gap inserted" in text
        assert "reverted" in text
