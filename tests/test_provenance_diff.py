"""Run provenance manifests and structured record diffing.

The contract: a record is a pure function of (code, spec), the manifest
pins exactly those inputs, and ``diff_records`` tells "same experiment"
(clean diff) from "different seed / code / spec" (significant deltas)
without access to the runs that produced either record.
"""

import json

import pytest

from repro.analysis import provenance
from repro.analysis.diff import (DEFAULT_THRESHOLD, diff_records,
                                 format_diff, load_record)
from repro.harness import diskcache, runner
from repro.harness.record import RunRecord, SCHEMA_VERSION
from repro.harness.runner import RunSpec

SPEC = RunSpec(benchmark="fop", heap_mult=2.0, coalloc=True,
               monitoring=True)
SPEC_SEED2 = RunSpec(benchmark="fop", heap_mult=2.0, coalloc=True,
                     monitoring=True, seed=2)


# ---------------------------------------------------------------------------
# Provenance manifest
# ---------------------------------------------------------------------------

class TestManifest:
    def test_byte_identical_across_calls(self):
        # No timestamps, hostnames, or pids: the manifest is a pure
        # function of (code, spec), or cached != recomputed would break.
        a = json.dumps(provenance.manifest(SPEC), sort_keys=True)
        b = json.dumps(provenance.manifest(SPEC), sort_keys=True)
        assert a == b

    def test_pins_code_spec_and_seed(self):
        doc = provenance.manifest(SPEC)
        assert doc["manifest_version"] == provenance.MANIFEST_VERSION
        assert doc["code_version"] == diskcache.code_version()
        assert doc["spec_key"] == diskcache.spec_key(SPEC)
        assert doc["seed"] == SPEC.seed
        assert doc["spec"]["benchmark"] == "fop"
        assert doc["record_schema"] == SCHEMA_VERSION

    def test_distinguishes_seeds(self):
        a = provenance.manifest(SPEC)
        b = provenance.manifest(SPEC_SEED2)
        assert a["spec_key"] != b["spec_key"]
        assert a["seed"] != b["seed"]
        assert a["code_version"] == b["code_version"]

    def test_fastpath_knob_recorded(self):
        assert provenance.manifest(SPEC, fastpath=0)["fastpath"] == 0
        assert provenance.manifest(SPEC, fastpath=2)["fastpath"] == 2

    def test_describe(self):
        line = provenance.describe(provenance.manifest(SPEC))
        assert "fop" in line and "seed=1" in line
        assert provenance.describe(None) == "no provenance recorded"
        assert provenance.describe({}) == "no provenance recorded"


# ---------------------------------------------------------------------------
# Records carry their provenance
# ---------------------------------------------------------------------------

class TestRecordProvenance:
    def test_record_for_embeds_manifest(self):
        record = runner.record_for(SPEC)
        assert record.provenance is not None
        assert record.provenance["spec_key"] == diskcache.spec_key(SPEC)
        assert record.provenance["seed"] == SPEC.seed

    def test_provenance_survives_json_round_trip(self):
        record = runner.record_for(SPEC)
        clone = RunRecord.from_json(
            json.loads(json.dumps(record.to_json())))
        assert clone.provenance == record.provenance
        assert clone == record

    def test_legacy_record_without_provenance_loads(self):
        doc = runner.record_for(SPEC).to_json()
        doc.pop("provenance")
        legacy = RunRecord.from_json(doc)
        assert legacy.provenance is None
        assert legacy.cycles > 0


# ---------------------------------------------------------------------------
# Record diffing
# ---------------------------------------------------------------------------

class TestDiff:
    def test_same_spec_and_seed_diff_clean(self):
        a = runner.record_for(SPEC)
        runner.clear_cache()
        b = runner.record_for(SPEC)  # recomputed, not recalled
        diff = diff_records(a, b)
        assert not diff.deltas, \
            f"recomputed run must be bit-identical, got {diff.deltas}"
        assert not diff.significant

    def test_different_seeds_flagged_significant(self):
        diff = diff_records(runner.record_for(SPEC),
                            runner.record_for(SPEC_SEED2))
        assert len(diff.significant) >= 1
        paths = {d.path for d in diff.significant}
        assert "provenance.seed" in paths
        assert "provenance.spec_key" in paths
        # Categorical provenance deltas carry no relative magnitude.
        seed_delta = next(d for d in diff.deltas
                          if d.path == "provenance.seed")
        assert seed_delta.rel == 0.0 and seed_delta.significant

    def test_threshold_separates_jitter_from_signal(self):
        a = runner.record_for(SPEC)
        doc = a.to_json()
        doc["cycles"] = int(doc["cycles"] * 1.001)  # 0.1% jitter
        jitter = diff_records(a, RunRecord.from_json(doc))
        cyc = next(d for d in jitter.deltas if d.path == "cycles")
        assert not cyc.significant, "sub-threshold delta is noise"

        doc["cycles"] = int(a.cycles * 1.5)
        signal = diff_records(a, RunRecord.from_json(doc))
        cyc = next(d for d in signal.deltas if d.path == "cycles")
        assert cyc.significant
        assert cyc.rel == pytest.approx(1 / 3)

        # A tighter threshold promotes the jitter to significant.
        strict = diff_records(a, RunRecord.from_json(
            dict(a.to_json(), cycles=int(a.cycles * 1.001))),
            threshold=0.0001)
        assert any(d.path == "cycles" and d.significant
                   for d in strict.deltas)

    def test_significant_deltas_sort_first(self):
        diff = diff_records(runner.record_for(SPEC),
                            runner.record_for(SPEC_SEED2))
        flags = [d.significant for d in diff.deltas]
        assert flags == sorted(flags, reverse=True)

    def test_diff_json_shape(self):
        diff = diff_records(runner.record_for(SPEC),
                            runner.record_for(SPEC_SEED2))
        doc = diff.to_json()
        assert doc["threshold"] == DEFAULT_THRESHOLD
        assert doc["differences"] == len(diff.deltas)
        assert doc["significant"] == len(diff.significant)
        for delta in doc["deltas"]:
            assert {"path", "a", "b", "rel", "significant"} <= set(delta)

    def test_format_diff_marks_significant(self):
        diff = diff_records(runner.record_for(SPEC),
                            runner.record_for(SPEC_SEED2))
        text = format_diff(diff, "a.json", "b.json")
        assert "! provenance.seed" in text
        assert "significant" in text

    def test_format_diff_identical(self):
        a = runner.record_for(SPEC)
        text = format_diff(diff_records(a, a), "x", "y")
        assert "x and y are identical" in text

    def test_format_diff_limit(self):
        diff = diff_records(runner.record_for(SPEC),
                            runner.record_for(SPEC_SEED2))
        assert len(diff.deltas) > 1
        text = format_diff(diff, limit=1)
        assert f"... {len(diff.deltas) - 1} more" in text


class TestLoadRecord:
    def test_loads_bare_record_doc(self, tmp_path):
        record = runner.record_for(SPEC)
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(record.to_json()))
        assert load_record(str(path)) == record

    def test_loads_disk_cache_envelope(self, tmp_path):
        record = runner.record_for(SPEC)
        envelope = {"version": "v-test",
                    "spec": {"benchmark": "fop"},
                    "record": record.to_json()}
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(envelope))
        assert load_record(str(path)) == record

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_record(str(tmp_path / "absent.json"))

    def test_non_record_json_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises((ValueError, KeyError, TypeError)):
            load_record(str(path))
