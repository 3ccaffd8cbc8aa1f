"""Tests for the decision-lineage ledger (src/repro/lineage).

Three layers:

* unit tests of :class:`DecisionLedger` (append-only DAG, parent links,
  capacity, null ledger, serialization),
* the pure-observer invariant — attaching a ledger changes no simulated
  number under either interpreter,
* end-to-end: a real run records a complete causal chain, the Figure 8
  experiment's revert narrates back to its sample batches, records
  round-trip the ledger through schema 3, and ``repro diff`` locates
  the first diverging decision.
"""

import json

import pytest

from repro.harness.record import RunRecord, SCHEMA_VERSION
from repro.harness.runner import RunSpec, execute
from repro.lineage import (DecisionLedger, LINEAGE_SCHEMA_VERSION,
                           explain, ledger as ledger_module)
from repro.lineage.ledger import (DECISION_KINDS, E_CYCLE, E_ID, E_KIND,
                                  E_PARENTS, K_ATTRIBUTION, K_BATCH,
                                  K_EXPERIMENT, K_GAP, K_PERIOD,
                                  K_PLACEMENT, K_RANKING, K_RECOMPILE,
                                  K_REVERT, K_VERDICT)
from repro.observers import NO_OBSERVERS
from repro.vm.model import ClassInfo, FieldInfo, MethodInfo


#: A period's running totals: accesses, L1 misses, GC cycles,
#: allocated bytes, compiled methods.
TOTALS = (4000, 120, 300, 2048, 7)


def make_field(name="next", klass_name="Entry"):
    klass = ClassInfo(name=klass_name)
    fld = FieldInfo(name=name, kind="ref", declaring_class=klass,
                    offset=0, index=0)
    return klass, fld


class TestLedgerUnit:
    def test_ids_are_append_order(self):
        ledger = DecisionLedger()
        a = ledger.sample_batch(5, "poll")
        b = ledger.sample_batch(3, "drain")
        assert (a, b) == (0, 1)
        assert [e[E_ID] for e in ledger.entries] == [0, 1]

    def test_attribution_links_open_batch(self):
        ledger = DecisionLedger()
        _, fld = make_field()
        batch = ledger.sample_batch(4, "poll")
        attr = ledger.attribution(4, 2, 100, ((fld, 2, 200),))
        assert ledger.entries[attr][E_PARENTS] == (batch,)
        # The batch link is consumed: a second attribution without a
        # new batch has no parent.
        attr2 = ledger.attribution(1, 0, 100, ())
        assert ledger.entries[attr2][E_PARENTS] == ()

    def test_period_collects_attributions(self):
        ledger = DecisionLedger()
        _, fld = make_field()
        ledger.sample_batch(4, "poll")
        a1 = ledger.attribution(4, 2, 1, ((fld, 2, 2),))
        ledger.sample_batch(2, "poll")
        a2 = ledger.attribution(2, 1, 1, ((fld, 1, 1),))
        period = ledger.period_close(0, 6, 3, 1000, False, TOTALS)
        assert ledger.entries[period][E_PARENTS] == (a1, a2)
        # Next period starts empty.
        period2 = ledger.period_close(1, 0, 0, 2000, False, TOTALS)
        assert ledger.entries[period2][E_PARENTS] == ()

    def test_experiment_chain_parents(self):
        ledger = DecisionLedger()
        klass, fld = make_field()
        period = ledger.period_close(0, 1, 1, 1000, False, TOTALS)
        ranking = ledger.ranking_snapshot(0, ((klass, ((fld, 10, 2),)),))
        exp = ledger.experiment_begin("gap-128", fld, 0.6, 7, 412, 0.25, 3)
        verdict = ledger.experiment_verdict("gap-128", 0.9, 0.75, True, 3)
        revert = ledger.experiment_revert("gap-128", fld, 12, 0.9, 0.6, 0.25)
        entries = ledger.entries
        assert entries[ranking][E_PARENTS] == (period,)
        assert entries[exp][E_PARENTS] == (ranking,)
        assert entries[verdict][E_PARENTS] == (exp, period)
        assert entries[revert][E_PARENTS] == (exp, verdict)

    def test_parent_ids_always_earlier(self):
        ledger = DecisionLedger()
        klass, fld = make_field()
        ledger.sample_batch(1, "poll")
        ledger.attribution(1, 1, 1, ((fld, 1, 1),))
        ledger.period_close(0, 1, 1, 1000, False, TOTALS)
        ledger.ranking_snapshot(0, ((klass, ((fld, 1, 1),)),))
        ledger.placement_pending(klass, fld, 20, 76, 0, 96)
        ledger.placement_commit(0x100, 0x114)
        for entry in ledger.entries:
            for parent in entry[E_PARENTS]:
                assert parent < entry[E_ID]

    def test_placement_requires_pending(self):
        ledger = DecisionLedger()
        assert ledger.placement_commit(0x100, 0x114) == -1
        klass, fld = make_field()
        ledger.placement_pending(klass, fld, 20, 76, 0, 96)
        eid = ledger.placement_commit(0x100, 0x114)
        assert ledger.entries[eid][E_KIND] == K_PLACEMENT
        # The pending slot is consumed.
        assert ledger.placement_commit(0x200, 0x214) == -1

    def test_capacity_cap_drops_not_grows(self, monkeypatch):
        monkeypatch.setattr(ledger_module, "MAX_ENTRIES", 2)
        ledger = DecisionLedger()
        ledger.sample_batch(1, "poll")
        ledger.sample_batch(1, "poll")
        assert ledger.sample_batch(1, "poll") == -1
        assert len(ledger.entries) == 2
        assert ledger.dropped == 1

    def test_clock_binding(self):
        ledger = DecisionLedger()
        clock = {"now": 123}
        ledger.bind_clock(lambda: clock["now"])
        eid = ledger.sample_batch(1, "poll")
        assert ledger.entries[eid][E_CYCLE] == 123

    def test_null_ledger_is_inert(self):
        """No ledger attached: the bundle's facts record nothing, and
        emitters are told not to build evidence tuples."""
        klass, fld = make_field()
        assert NO_OBSERVERS.lineage is None
        assert not NO_OBSERVERS.keeps_evidence
        assert not NO_OBSERVERS.attached
        NO_OBSERVERS.sample_batch(5, "poll")
        NO_OBSERVERS.experiment_begin("x", fld, 0, 0, 0, 0, 0)
        NO_OBSERVERS.placement_pending(klass, fld, 1, 2, 0, 3)
        NO_OBSERVERS.placement_commit(1, 2)
        NO_OBSERVERS.period_closed(0, 1000, 5, 3, False, ranking=None)

    def test_empty_ledger_still_attaches(self):
        """An empty ledger is falsy (len 0) but must still be honored
        when attached — the regression the explicit None checks fix."""
        from repro.core.config import SystemConfig
        from repro.vm.vmcore import VM
        from repro.workloads import suite

        workload = suite.build("fop")
        config = SystemConfig(coalloc=True)
        config.lineage = ledger = DecisionLedger()
        vm = VM(workload.program, config, compilation_plan=workload.plan)
        assert vm.observers.lineage is ledger

    def test_to_json_renders_names_and_schema(self):
        ledger = DecisionLedger()
        klass, fld = make_field()
        ledger.ranking_snapshot(0, ((klass, ((fld, 10, 2),)),))
        ledger.experiment_begin("gap-128", fld, 0.5, 3, 10, 0.25, 3)
        doc = ledger.to_json()
        assert doc["schema"] == LINEAGE_SCHEMA_VERSION
        assert doc["dropped"] == 0
        kinds = [e["kind"] for e in doc["entries"]]
        assert kinds == [K_RANKING, K_EXPERIMENT]
        exp = doc["entries"][1]
        assert exp["field"] == "Entry::next"
        assert exp["experiment"] == "gap-128"
        json.dumps(doc)  # plain data, serializable


    def test_period_close_carries_the_hpm_vector(self):
        ledger = DecisionLedger()
        ledger.bind_clock(lambda: 1040)
        ledger.period_close(3, 6, 2, 1000, True, TOTALS)
        [doc] = ledger.to_json()["entries"]
        assert doc == {"id": 0, "kind": K_PERIOD, "cycle": 1040,
                       "parents": [], "period": 3, "samples": 6,
                       "attributed": 2, "now_cycle": 1000,
                       "sampling_paused": True, "accesses": 4000,
                       "l1_misses": 120, "gc_cycles": 300,
                       "alloc_bytes": 2048, "compiled_methods": 7}
        assert explain.narrate(doc) == (
            "period 3 closed at cycle 1,000: 6 sample(s), 2 attributed "
            "(sampling paused); run totals 4,000 accesses, 120 L1 misses, "
            "300 GC cycles, 2,048 B allocated, 7 method(s) compiled")


class TestExplain:
    def build_doc(self):
        ledger = DecisionLedger()
        klass, fld = make_field("value", "String")
        ledger.sample_batch(4, "poll")
        ledger.attribution(4, 2, 100, ((fld, 2, 200),))
        ledger.period_close(0, 4, 2, 1000, False, TOTALS)
        ledger.ranking_snapshot(0, ((klass, ((fld, 200, 2),)),))
        ledger.experiment_begin("gap-128", fld, 0.61, 7, 412, 0.30, 3)
        ledger.experiment_verdict("gap-128", 0.84, 0.793, True, 3)
        ledger.experiment_revert("gap-128", fld, 12, 0.84, 0.61, 0.30)
        return ledger.to_json()

    def test_validate_accepts_real_ledger(self):
        assert explain.validate(self.build_doc()) == []

    def test_validate_rejects_forward_parent(self):
        doc = self.build_doc()
        doc["entries"][0]["parents"] = [3]
        assert any("does not resolve" in p for p in explain.validate(doc))

    def test_validate_rejects_wrong_schema(self):
        problems = explain.validate({"schema": 99, "entries": []})
        assert any("schema" in p for p in problems)

    def test_default_target_prefers_revert(self):
        doc = self.build_doc()
        target = explain.find_target(doc)
        assert target["kind"] == K_REVERT

    def test_target_by_field_revert_decision(self):
        doc = self.build_doc()
        assert explain.find_target(doc, field="String::value")["kind"] \
            == K_REVERT
        assert explain.find_target(doc, revert=1)["kind"] == K_REVERT
        assert explain.find_target(doc, revert=2) is None
        assert explain.find_target(doc, decision=4)["kind"] == K_EXPERIMENT
        assert explain.find_target(doc, field="No::such") is None

    def test_chain_reaches_sample_batch(self):
        doc = self.build_doc()
        by_id = explain.index_entries(doc)
        target = explain.find_target(doc)
        ids = explain.chain_ids(by_id, target["id"])
        kinds = {by_id[i]["kind"] for i in ids}
        assert {K_REVERT, K_VERDICT, K_EXPERIMENT, K_RANKING, K_PERIOD,
                K_ATTRIBUTION, K_BATCH} <= kinds

    def test_format_chain_narrates_threshold_arithmetic(self):
        doc = self.build_doc()
        text = explain.format_chain(doc, explain.find_target(doc))
        assert "revert of experiment 'gap-128'" in text
        assert "0.84" in text and "0.61" in text
        # baseline x (1 + threshold) spelled out
        assert "x 1.30" in text and "0.79" in text
        assert "collector poll drained 4 sample(s)" in text

    def test_dot_export_shape(self):
        doc = self.build_doc()
        by_id = explain.index_entries(doc)
        chain = explain.chain_ids(by_id, explain.find_target(doc)["id"])
        dot = explain.to_dot(doc, chain=chain)
        assert dot.startswith("digraph lineage {")
        assert dot.rstrip().endswith("}")
        assert "lightgoldenrod1" in dot
        # One node per entry, one edge per parent link.  (Count edge
        # *lines*: narration text may itself contain "->".)
        import re

        assert dot.count("[label=") == len(doc["entries"])
        edges = sum(len(e["parents"]) for e in doc["entries"])
        assert len(re.findall(r"^  n\d+ -> n\d+;$", dot, re.M)) == edges

    def test_first_divergence(self):
        doc_a = self.build_doc()
        doc_b = self.build_doc()
        assert explain.first_divergence(doc_a, doc_b) is None
        # Flip one decision: b's revert happens at a later period.
        for entry in doc_b["entries"]:
            if entry["kind"] == K_REVERT:
                entry["period"] = 99
        div = explain.first_divergence(doc_a, doc_b)
        assert div is not None
        assert div["a"]["summary"].startswith("revert of experiment")
        assert div["a"]["id"] == div["b"]["id"]
        # Cycle shifts alone never count as divergence.
        doc_c = self.build_doc()
        for entry in doc_c["entries"]:
            entry["cycle"] += 1_000_000
        assert explain.first_divergence(doc_a, doc_c) is None

    def test_first_divergence_shorter_stream(self):
        doc_a = self.build_doc()
        doc_b = self.build_doc()
        doc_b["entries"] = [e for e in doc_b["entries"]
                            if e["kind"] != K_REVERT]
        div = explain.first_divergence(doc_a, doc_b)
        assert div["b"] is None and div["a"]["summary"]

    def test_index_entries_rejects_non_ledger(self):
        with pytest.raises(ValueError):
            explain.index_entries({"spans": []})


class TestEndToEnd:
    def test_run_records_all_evidence_kinds(self):
        ledger = DecisionLedger()
        execute(RunSpec(benchmark="db", coalloc=True), lineage=ledger)
        kinds = {e[E_KIND] for e in ledger.entries}
        assert {K_BATCH, K_ATTRIBUTION, K_PERIOD, K_RANKING,
                K_PLACEMENT} <= kinds
        assert explain.validate(ledger.to_json()) == []

    def test_fig8_revert_full_causal_chain(self):
        """The acceptance chain: revert -> experiment begin -> hot-field
        ranking -> at least one sample batch, on the Figure 8 workload."""
        from repro.harness.experiments import fig8_revert

        ledger = DecisionLedger()
        result = fig8_revert("db", lineage=ledger)
        assert result.reverted
        doc = ledger.to_json()
        assert explain.validate(doc) == []
        by_id = explain.index_entries(doc)
        target = explain.find_target(doc)
        assert target["kind"] == K_REVERT
        assert target["field"] == "String::value"
        ids = explain.chain_ids(by_id, target["id"])
        kinds = [by_id[i]["kind"] for i in ids]
        assert K_EXPERIMENT in kinds
        assert K_RANKING in kinds
        assert kinds.count(K_BATCH) >= 1
        # The gap interventions are on the ledger too.
        gaps = [e for e in doc["entries"] if e["kind"] == K_GAP]
        assert [(g["old_gap"], g["new_gap"]) for g in gaps] \
            == [(0, 128), (128, 0)]
        text = explain.format_chain(doc, target)
        assert "revert of experiment 'gap-128'" in text
        assert "baseline" in text

    def test_recompile_entries(self):
        ledger = DecisionLedger()
        execute(RunSpec(benchmark="compress"), lineage=ledger)
        recompiles = [e for e in ledger.entries
                      if e[E_KIND] == K_RECOMPILE]
        assert recompiles
        doc = ledger.to_json()
        rendered = [e for e in doc["entries"] if e["kind"] == K_RECOMPILE]
        for entry in rendered:
            assert entry["reason"] in ("aos", "plan")
            assert "." in entry["method"]

    def test_record_round_trips_lineage(self):
        ledger = DecisionLedger()
        result = execute(RunSpec(benchmark="fop", coalloc=True),
                         lineage=ledger)
        record = RunRecord.from_result(result)
        assert record.lineage is not None
        doc = record.to_json()
        assert doc["schema"] == SCHEMA_VERSION == 5
        reloaded = RunRecord.from_json(json.loads(json.dumps(doc)))
        assert reloaded.lineage == record.lineage
        assert explain.validate(reloaded.lineage) == []

    def test_record_without_ledger_has_no_lineage(self):
        result = execute(RunSpec(benchmark="fop"))
        record = RunRecord.from_result(result)
        assert record.lineage is None

    def test_diff_reports_first_diverging_decision(self):
        from repro.analysis.diff import diff_records, format_diff

        ledger_a = DecisionLedger()
        ledger_b = DecisionLedger()
        res_a = execute(RunSpec(benchmark="db", coalloc=True),
                        lineage=ledger_a)
        res_b = execute(RunSpec(benchmark="db", coalloc=True, seed=2),
                        lineage=ledger_b)
        rec_a = RunRecord.from_result(res_a)
        rec_b = RunRecord.from_result(res_b)
        # Same spec/seed: decision streams agree.
        same = diff_records(rec_a, RunRecord.from_json(rec_a.to_json()))
        assert same.lineage_divergence is None
        diff = diff_records(rec_a, rec_b)
        if diff.lineage_divergence is not None:
            div = diff.lineage_divergence
            assert "index" in div
            side = div["a"] or div["b"]
            assert {"id", "parents", "summary"} <= set(side)
            text = format_diff(diff, "a.json", "b.json")
            assert "first diverging decision" in text
            assert any(d.path == "lineage.first_divergence"
                       for d in diff.deltas)

    def test_decision_kinds_cover_targets(self):
        # explain's target priority must stay within DECISION_KINDS
        # (plus the ranking fallback).
        from repro.lineage.explain import _TARGET_PRIORITY

        assert set(_TARGET_PRIORITY) - {K_RANKING} \
            == set(DECISION_KINDS) - {K_VERDICT}
