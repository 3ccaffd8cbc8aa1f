"""The sampling-fidelity auditor.

Two contracts under test:

* **Purity** — the exact-attribution oracle is a pure observer: a run
  with the oracle attached is bit-identical (cycles, counters, GC
  statistics, monitoring summary, PEBS samples taken) to one without.
* **Accuracy** — the paper's claim, checked against the simulator's
  ground truth: at the default (densest) sampling interval the sampled
  hot-method set matches the exact one (overlap >= 0.8), and fidelity
  never *improves* as the interval grows.
"""

import pytest

from repro.analysis import fidelity
from repro.analysis.fidelity import (ExactAttributionOracle, audit_benchmark,
                                     audit_run, hot_set, normalized_abs_error,
                                     overlap_coefficient, spearman)
from repro.harness.runner import RunSpec, make_vm

AUDITED = RunSpec(benchmark="db", coalloc=True, monitoring=True)


# ---------------------------------------------------------------------------
# Metric unit tests
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_hot_set_orders_by_count_then_name(self):
        profile = {"b": 5, "a": 5, "c": 9, "d": 1}
        assert hot_set(profile, 3) == ["c", "a", "b"]
        assert hot_set(profile, 10) == ["c", "a", "b", "d"]
        assert hot_set({}, 3) == []

    def test_overlap_coefficient_basics(self):
        exact = {"a": 10, "b": 5, "c": 1}
        assert overlap_coefficient(exact, exact) == 1.0
        assert overlap_coefficient(exact, {"a": 3, "b": 1}, top_n=2) == 1.0
        assert overlap_coefficient(exact, {"x": 7, "y": 2}) == 0.0

    def test_overlap_coefficient_empty_profiles(self):
        assert overlap_coefficient({}, {}) == 1.0
        assert overlap_coefficient({"a": 1}, {}) == 0.0
        assert overlap_coefficient({}, {"a": 1}) == 0.0

    def test_spearman_perfect_and_reversed(self):
        exact = {"a": 30, "b": 20, "c": 10}
        same_order = {"a": 3, "b": 2, "c": 1}
        reversed_order = {"a": 1, "b": 2, "c": 3}
        assert spearman(exact, exact) == pytest.approx(1.0)
        assert spearman(exact, same_order) == pytest.approx(1.0)
        assert spearman(exact, reversed_order) == pytest.approx(-1.0)

    def test_spearman_missing_names_count_as_zero(self):
        # "c" missing from the sampled profile ranks below a and b.
        rho = spearman({"a": 30, "b": 20, "c": 10},
                       {"a": 3, "b": 2})
        assert rho == pytest.approx(1.0)

    def test_spearman_degenerate_single_name(self):
        # One name: ordering is trivial; what matters is whether the
        # sampled profile saw the same name at all.  The estimate being
        # off (5 vs 500) must not score 0.
        assert spearman({"a": 500}, {"a": 5}) == 1.0
        assert spearman({"a": 500}, {}) == 0.0
        assert spearman({}, {}) == 1.0

    def test_spearman_constant_profile(self):
        assert spearman({"a": 1, "b": 1}, {"a": 7, "b": 7}) == 1.0

    def test_normalized_abs_error(self):
        exact = {"a": 100, "b": 50}
        assert normalized_abs_error(exact, exact) == 0.0
        assert normalized_abs_error(exact, {}) == 1.0
        assert normalized_abs_error(exact, {"a": 100, "b": 20}) == \
            pytest.approx(30 / 150)
        # A name only the sampled profile saw is pure error mass.
        assert normalized_abs_error({}, {"x": 5}) == 5.0


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------

class TestOracle:
    def test_oracle_accounting_adds_up(self):
        vm, _ = make_vm(AUDITED.benchmark, AUDITED)
        oracle = ExactAttributionOracle(vm.codecache)
        oracle.attach(vm)
        vm.run()
        assert (oracle.dropped_foreign + oracle.dropped_baseline +
                oracle.unattributed + oracle.attributed) == \
            oracle.total_events
        in_opt_code = oracle.total_events - oracle.dropped_foreign \
            - oracle.dropped_baseline
        assert sum(oracle.method_events.values()) == in_opt_code
        assert sum(oracle.bytecode_events.values()) == in_opt_code
        assert sum(oracle.field_events.values()) == oracle.attributed

    def test_exact_sees_more_than_sampling(self):
        """The oracle sees every event; PEBS sees every n-th."""
        audit, _result = audit_run(AUDITED)
        assert audit.exact_events > audit.samples_taken
        assert audit.exact_attributed >= audit.sampled_attributed

    def test_unknown_event_rejected(self):
        vm, _ = make_vm(AUDITED.benchmark, AUDITED)
        with pytest.raises(ValueError):
            vm.memsys.attach_observer("BOGUS_EVENT", lambda eip: None)

    def test_detach_stops_observation(self):
        vm, _ = make_vm(AUDITED.benchmark, AUDITED)
        oracle = ExactAttributionOracle(vm.codecache)
        oracle.attach(vm)
        vm.memsys.detach_observer()
        vm.run()
        assert oracle.total_events == 0

    def test_audit_requires_monitoring(self):
        spec = RunSpec(benchmark="fop", monitoring=False)
        with pytest.raises(ValueError, match="monitoring"):
            audit_run(spec)


# ---------------------------------------------------------------------------
# The interval sweep (acceptance thresholds)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fop_report():
    return audit_benchmark("fop")


class TestAuditSweep:
    def test_hot_method_overlap_at_default_interval(self, fop_report):
        first = fop_report.intervals[0]
        assert first.interval == fidelity.DEFAULT_INTERVALS[0]
        assert first.method_overlap >= 0.8

    def test_fidelity_monotone_non_increasing(self, fop_report):
        scores = [ia.fidelity for ia in fop_report.intervals]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_sparser_sampling_costs_less(self, fop_report):
        samples = [ia.samples_taken for ia in fop_report.intervals]
        assert all(a >= b for a, b in zip(samples, samples[1:]))
        assert fop_report.intervals[0].overhead >= \
            fop_report.intervals[-1].overhead
        assert all(0.0 <= ia.overhead < 1.0 for ia in fop_report.intervals)

    def test_report_json_schema(self, fop_report):
        doc = fop_report.to_json()
        assert doc["schema"] == fidelity.AUDIT_SCHEMA_VERSION
        assert doc["benchmark"] == "fop"
        assert len(doc["intervals"]) == len(fidelity.DEFAULT_INTERVALS)
        required = {"interval", "scaled_interval", "cycles",
                    "monitoring_cycles", "overhead", "samples_taken",
                    "exact_events", "exact_attributed",
                    "sampled_attributed", "fidelity", "method_overlap",
                    "field_overlap", "method_spearman", "field_spearman",
                    "field_abs_error", "top_methods_exact",
                    "top_methods_sampled", "top_fields_exact",
                    "top_fields_sampled"}
        for entry in doc["intervals"]:
            assert required <= set(entry)

    def test_frontier_shape(self, fop_report):
        frontier = fop_report.frontier()
        assert len(frontier) == len(fop_report.intervals)
        for (overhead, score), ia in zip(frontier, fop_report.intervals):
            assert overhead == ia.overhead and score == ia.fidelity

    def test_format_report_renders(self, fop_report):
        text = fidelity.format_report(fop_report)
        assert "fidelity audit: fop" in text
        assert "m.overlap" in text
        assert "hottest methods at 25K" in text
