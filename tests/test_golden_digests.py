"""Golden behaviour pins: absolute record digests, committed.

Every other bit-identity test in the suite compares two runs built
from the *same* tree (level 2 vs reference, resumed vs unbroken,
observer on vs off), so a refactor that shifts both sides alike passes
them all.  This file pins what a run *is*: for each suite workload plus
``phased``, with monitoring off and with co-allocation + monitoring,
the sha256 of the canonical record JSON (provenance excluded — it
carries the code version) of the first 1.5 M cycles at the default
fastpath, no observers.

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
and the sha256 of the region text.

The golden files change only when simulated behaviour (or what an
observer emits, or what the superblock or region emitter writes) is
meant to change.  Regenerate all four with::

    PYTHONPATH=src python tests/test_golden_digests.py
"""

import hashlib
import json
import os

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

CASES = [f"{name}/{config}" for name in GUESTS for config in CONFIGS]


def _sha(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def digest(case: str) -> str:
    name, config = case.split("/")
    spec = RunSpec(name, until_cycles=UNTIL_CYCLES, **CONFIGS[config])
    doc = runner.record_from_result(spec, runner.execute(spec)).to_json()
    del doc["provenance"]
    return _sha(doc)


def _db_8m(**observers):
    return runner.execute(
        RunSpec("db", coalloc=True, until_cycles=8_000_000), **observers)


def _phased_storm(**observers):
    """The run ``repro doctor phased --storm`` builds."""
    vm, workload = runner.make_vm(
        "phased", RunSpec("phased", coalloc=True), **observers)
    field = experiments.resolve_field(vm.program, workload.hot_fields[0])
    experiments.seed_revert_storm(vm, field, count=3)
    return vm.run()


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


def _emitted_digest(guest: str, source, counted: str) -> dict:
    """Count and sha256 of what ``source`` emits for every method of
    ``guest``, baseline- and opt-compiled."""
    count, text = 0, hashlib.sha256()
    for method in suite.build(guest).program.all_methods():
        for compile_method in (compile_baseline, compile_opt):
            built = source(compile_method(method))
            if built is not None:
                count += len(built[2])
                text.update(built[0].encode())
    return {counted: count, "sha256": text.hexdigest()}


def superblock_digest(guest: str) -> dict:
    """Fused-run count and sha256 of the emitted superblock source."""
    return _emitted_digest(guest, superblock_source, "runs")


def region_digest(guest: str) -> dict:
    """Ring count and sha256 of the emitted region source."""
    return _emitted_digest(guest, region_source, "rings")


def load_golden(path: str = GOLDEN_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def test_golden_file_covers_exactly_the_cases():
    assert sorted(load_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_record_digest_matches_golden(case):
    assert digest(case) == load_golden()[case], (
        f"simulated behaviour of {case} changed; if that is intended, "
        f"regenerate with: python tests/test_golden_digests.py")


@pytest.mark.parametrize("case", sorted(OBSERVER_CASES))
def test_observer_outputs_match_golden(case):
    assert observer_digests(case) == load_golden(OBSERVERS_PATH)[case], (
        f"what the observers emit for {case} changed; if that is "
        f"intended, regenerate with: python tests/test_golden_digests.py")


@pytest.mark.parametrize("guest", GUESTS)
def test_superblock_source_matches_golden(guest):
    assert superblock_digest(guest) == load_golden(SUPERBLOCKS_PATH)[guest], (
        f"the superblock bodies emitted for {guest} changed; if that is "
        f"intended, regenerate with: python tests/test_golden_digests.py")


@pytest.mark.parametrize("guest", GUESTS)
def test_region_source_matches_golden(guest):
    assert region_digest(guest) == load_golden(REGIONS_PATH)[guest], (
        f"the regions emitted for {guest} changed; if that is intended, "
        f"regenerate with: python tests/test_golden_digests.py")


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for path, pins in (
            (GOLDEN_PATH, {case: digest(case) for case in CASES}),
            (OBSERVERS_PATH, {case: observer_digests(case)
                              for case in sorted(OBSERVER_CASES)}),
            (SUPERBLOCKS_PATH, {guest: superblock_digest(guest)
                                for guest in GUESTS}),
            (REGIONS_PATH, {guest: region_digest(guest)
                            for guest in GUESTS})):
        with open(path, "w") as fh:
            json.dump(pins, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(pins)} pins to {path}")
