"""Golden behaviour pins: absolute record digests, committed.

Every other bit-identity test in the suite compares two runs built
from the *same* tree (level 2 vs reference, resumed vs unbroken,
observer on vs off), so a refactor that shifts both sides alike passes
them all.  This file pins what a run *is*: for each suite workload plus
``phased``, with monitoring off and with co-allocation + monitoring,
the sha256 of the canonical record JSON (provenance excluded — it
carries the code version) of the first 1.5 M cycles at the default
fastpath, no observers.  Those runs (heap 4x) reach no full collection
and never run GenCopy, so three more pin the collectors at heap 1.0x:
a whole ``javac`` run under GenCopy (9 minor, 2 full collections),
``pseudojbb`` co-allocating to 6 M cycles (8 minor, 3 full, 2,834
objects co-allocated) and ``db`` under GenCopy to 6 M cycles (3 minor,
2 full).

``tests/golden/observers.json`` pins what the *observers* output: with
telemetry, the decision ledger and the health monitor all attached, the
sha256 of the ledger JSON, the health report JSON, the metrics
snapshot, the Prometheus text and the tracer's spans, instants and
samples in recorded order — for ``db`` with co-allocation to 8 M cycles
and for a whole ``phased`` run under the revert storm ``repro doctor
--storm`` seeds (all ten ledger kinds, verdict ``critical``).  The five
outputs do not depend on the fastpath level or the hash seed, so the
file holds at every ``REPRO_FASTPATH``.

``tests/golden/superblocks.json`` pins what level 2 *executes*: for each
suite guest plus ``phased``, every method compiled by both JITs (no
simulation), the number of fused runs and the sha256 of the
concatenated :func:`~repro.hw.translate.superblock_source` text — so a
change to the emitted superblock bodies is a reviewed digest hunk.
``tests/golden/regions.json`` does the same for the ring regions
(:func:`~repro.hw.translate.region_source`): the number of rings found
and the sha256 of the region text, in the ordered form observed runs
execute and in the counted form the others do (``counted_sha256``; the
same text where no ring has a typed reference store or an allocation,
as in ``compress`` and ``mpegaudio``).

The golden files change only when simulated behaviour (or what an
observer emits, or what the superblock or region emitter writes) is
meant to change.  Regenerate all four with::

    PYTHONPATH=src python tests/test_golden_digests.py

or name the ones to regenerate (``digests``, ``observers``,
``superblocks``, ``regions``), so a deliberate change to one pin file
cannot rewrite the others in the same step::

    PYTHONPATH=src python tests/test_golden_digests.py regions
"""

import hashlib
import json
import os
import sys

import pytest

from repro.harness import experiments, runner
from repro.harness.runner import RunSpec
from repro.health import HealthMonitor
from repro.hw.translate import region_source, superblock_source
from repro.jit.baseline import compile_baseline
from repro.jit.opt import compile_opt
from repro.lineage import DecisionLedger
from repro.telemetry import Telemetry
from repro.telemetry.export import prometheus_text
from repro.workloads import suite

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_PATH = os.path.join(GOLDEN_DIR, "digests.json")
OBSERVERS_PATH = os.path.join(GOLDEN_DIR, "observers.json")
SUPERBLOCKS_PATH = os.path.join(GOLDEN_DIR, "superblocks.json")
REGIONS_PATH = os.path.join(GOLDEN_DIR, "regions.json")
UNTIL_CYCLES = 1_500_000

CONFIGS = {
    "plain": dict(monitoring=False),
    "coalloc": dict(coalloc=True, monitoring=True),
}

GUESTS = suite.all_names() + ["phased"]

#: The collector pins: each case's full :class:`RunSpec` arguments.
GC_CASES = {
    "javac/gencopy-1x": dict(gc_plan="gencopy", heap_mult=1.0),
    "pseudojbb/coalloc-1x-6M": dict(coalloc=True, heap_mult=1.0,
                                    until_cycles=6_000_000),
    "db/gencopy-1x-6M": dict(gc_plan="gencopy", heap_mult=1.0,
                             until_cycles=6_000_000),
}

CASES = [f"{name}/{config}" for name in GUESTS for config in CONFIGS] \
    + list(GC_CASES)


def _sha(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def digest(case: str) -> str:
    name, config = case.split("/")
    spec = (RunSpec(name, **GC_CASES[case]) if case in GC_CASES else
            RunSpec(name, until_cycles=UNTIL_CYCLES, **CONFIGS[config]))
    doc = runner.record_from_result(spec, runner.execute(spec)).to_json()
    del doc["provenance"]
    return _sha(doc)


def _db_8m(**observers):
    return runner.execute(
        RunSpec("db", coalloc=True, until_cycles=8_000_000), **observers)


def _phased_storm(**observers):
    """The run ``repro doctor phased --storm --storm-count 3`` builds."""
    result, _driver = experiments.revert_storm(
        RunSpec("phased", coalloc=True), count=3, **observers)
    return result


OBSERVER_CASES = {"db-8M": _db_8m, "phased-storm": _phased_storm}


def observer_digests(case: str) -> dict:
    """sha256 of each of the five observer outputs of one pinned run."""
    telemetry, ledger, health = Telemetry(), DecisionLedger(), HealthMonitor()
    result = OBSERVER_CASES[case](telemetry=telemetry, lineage=ledger,
                                  health=health)
    tracer = telemetry.tracer
    return {
        "ledger": _sha(ledger.to_json()),
        "health": _sha(health.report(result.cycles).to_json()),
        "metrics": _sha(telemetry.metrics.snapshot()),
        "prometheus": _sha(prometheus_text(telemetry.metrics)),
        "trace": _sha({
            "spans": [(e.name, e.cat, e.ts, e.dur, e.depth, e.args)
                      for e in tracer.spans],
            "instants": [(e.name, e.cat, e.ts, e.args)
                         for e in tracer.instants],
            "samples": [(e.name, e.cat, e.ts, e.value)
                        for e in tracer.samples],
        }),
    }


def _emitted_digest(guest: str, source, counted: str, **forms) -> dict:
    """Count and sha256 of what ``source`` emits for every method of
    ``guest``, baseline- and opt-compiled — as ``sha256`` and, for each
    of ``forms``, under that key with its keyword arguments."""
    forms = {"sha256": {}, **forms}
    count, texts = 0, {key: hashlib.sha256() for key in forms}
    for method in suite.build(guest).program.all_methods():
        for compile_method in (compile_baseline, compile_opt):
            cm = compile_method(method)
            for key, options in forms.items():
                built = source(cm, **options)
                if built is not None:
                    count += len(built[2]) * (key == "sha256")
                    texts[key].update(built[0].encode())
    return {counted: count,
            **{key: text.hexdigest() for key, text in texts.items()}}


def superblock_digest(guest: str) -> dict:
    """Fused-run count and sha256 of the emitted superblock source."""
    return _emitted_digest(guest, superblock_source, "runs")


def region_digest(guest: str) -> dict:
    """Ring count and sha256 of the emitted region source, both forms."""
    return _emitted_digest(guest, region_source, "rings",
                           counted_sha256={"counted": True})


def load_golden(path: str = GOLDEN_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def test_golden_file_covers_exactly_the_cases():
    assert sorted(load_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_record_digest_matches_golden(case):
    assert digest(case) == load_golden()[case], (
        f"simulated behaviour of {case} changed; if that is intended, "
        f"regenerate with: python tests/test_golden_digests.py digests")


@pytest.mark.parametrize("case", sorted(OBSERVER_CASES))
def test_observer_outputs_match_golden(case):
    assert observer_digests(case) == load_golden(OBSERVERS_PATH)[case], (
        f"what the observers emit for {case} changed; if that is "
        f"intended, regenerate with: python tests/test_golden_digests.py "
        f"observers")


@pytest.mark.parametrize("guest", GUESTS)
def test_superblock_source_matches_golden(guest):
    assert superblock_digest(guest) == load_golden(SUPERBLOCKS_PATH)[guest], (
        f"the superblock bodies emitted for {guest} changed; if that is "
        f"intended, regenerate with: python tests/test_golden_digests.py "
        f"superblocks")


@pytest.mark.parametrize("guest", GUESTS)
def test_region_source_matches_golden(guest):
    assert region_digest(guest) == load_golden(REGIONS_PATH)[guest], (
        f"the regions emitted for {guest} changed; if that is intended, "
        f"regenerate with: python tests/test_golden_digests.py regions")


def test_counted_form_only_where_a_count_is_kept():
    """``compress`` and ``mpegaudio`` (``sim_compute``) have no ring
    with a typed reference store or an allocation: both forms are one
    text, so an unobserved run of them executes the ordered code.
    ``sim_churn``'s guests keep counts."""
    pins = load_golden(REGIONS_PATH)
    for guest in ("compress", "mpegaudio", "javac", "jack", "fop", "antlr"):
        same = pins[guest]["counted_sha256"] == pins[guest]["sha256"]
        assert same == (guest in ("compress", "mpegaudio")), guest


#: Each pin file by name: its path and what regenerates its pins.
PIN_FILES = {
    "digests": (GOLDEN_PATH, lambda: {case: digest(case) for case in CASES}),
    "observers": (OBSERVERS_PATH, lambda: {
        case: observer_digests(case) for case in sorted(OBSERVER_CASES)}),
    "superblocks": (SUPERBLOCKS_PATH, lambda: {
        guest: superblock_digest(guest) for guest in GUESTS}),
    "regions": (REGIONS_PATH, lambda: {
        guest: region_digest(guest) for guest in GUESTS}),
}


if __name__ == "__main__":
    names = sys.argv[1:] or list(PIN_FILES)
    unknown = [name for name in names if name not in PIN_FILES]
    if unknown:
        sys.exit(f"unknown pin file {', '.join(unknown)}: "
                 f"choose from {', '.join(PIN_FILES)}")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in names:
        path, regenerate = PIN_FILES[name]
        pins = regenerate()
        with open(path, "w") as fh:
            json.dump(pins, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(pins)} pins to {path}")
