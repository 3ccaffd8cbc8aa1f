"""The pure-observer invariant, as one matrix.

Telemetry, the decision ledger, the health monitor and the
exact-attribution oracle must not change one simulated number, whatever
is attached and at every fastpath level; and what each of them reports
must depend on the run alone — not on its neighbours, the level, or how
the run was sliced.

Ten simulations of ``db`` with co-allocation serve every assertion: one
*off* run per level, each observer alone at level 2, and all four
together at levels 0, 1 and 2.
"""

from types import SimpleNamespace

import pytest

from repro.analysis.fidelity import ExactAttributionOracle
from repro.harness.record import RunRecord
from repro.harness.runner import RunSpec, make_vm, record_from_result
from repro.health import HealthMonitor
from repro.lineage import DecisionLedger
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.vm.snapshot import Snapshot

SPEC = RunSpec(benchmark="db", coalloc=True)
LEVELS = (0, 1, 2)
OBSERVERS = ("telemetry", "lineage", "health", "oracle")
FACTORIES = {"telemetry": Telemetry, "lineage": DecisionLedger,
             "health": HealthMonitor}
#: What each observer holds once it has really observed a run.
OBSERVED = {"telemetry": lambda t: t.tracer.spans,
            "lineage": lambda ledger: ledger.entries,
            "health": lambda h: h.intervals,
            "oracle": lambda o: o.total_events}


def simulate(level, attach=()):
    """One whole run; returns the result, everything compared across
    the matrix, and the attached observers by name."""
    observers = {name: FACTORIES[name]() for name in attach
                 if name != "oracle"}
    vm, _ = make_vm(SPEC.benchmark, SPEC, fastpath=level, **observers)
    if "oracle" in attach:
        observers["oracle"] = ExactAttributionOracle(vm.codecache)
        observers["oracle"].attach(vm)
    result = vm.run()
    record = record_from_result(SPEC, result).to_json()
    surface = {key: value for key, value in record.items()
               if key not in ("provenance", "lineage", "health")}
    surface["pebs.samples_taken"] = vm.pebs.samples_taken
    surface["reverts"] = [e.name for e in
                          vm.controller.feedback.reverted_experiments()]
    return SimpleNamespace(result=result, surface=surface,
                           ledger_doc=record["lineage"],
                           health_doc=record["health"], observers=observers)


@pytest.fixture(scope="module")
def off():
    return {level: simulate(level) for level in LEVELS}


@pytest.fixture(scope="module")
def on(off):
    runs = {(name, 2): simulate(2, (name,)) for name in OBSERVERS}
    runs.update({("all", level): simulate(level, OBSERVERS)
                 for level in LEVELS})
    return runs


CASES = [(name, 2) for name in OBSERVERS] + [("all", lv) for lv in LEVELS]


@pytest.mark.parametrize("attached,level", CASES,
                         ids=[f"{name}-{lv}" for name, lv in CASES])
def test_on_equals_off(on, off, attached, level):
    """The whole record, the PEBS sample count and the revert log."""
    run = on[attached, level]
    assert run.surface == off[level].surface
    # ... and each attached observer really observed the run.
    for name in OBSERVERS if attached == "all" else (attached,):
        assert OBSERVED[name](run.observers[name])


def test_off_run_carries_nothing(off):
    for run in off.values():
        assert not run.result.vm.observers.attached
        assert run.result.telemetry is NULL_TELEMETRY
        assert run.ledger_doc is None and run.health_doc is None


def test_ledger_unchanged_by_other_observers(on):
    """No entry id, parent link or payload moves when telemetry, health
    and the oracle ride along — at any level."""
    alone = on["lineage", 2].ledger_doc
    assert alone["entries"]
    for level in LEVELS:
        assert on["all", level].ledger_doc == alone
    # Every id health captured is a real entry of that ledger.
    ids = {e["id"] for e in alone["entries"]}
    report = on["all", 2].health_doc
    for finding in report["findings"]:
        assert set(finding["ledger_ids"]) <= ids
    for phase in report["phases"]:
        assert phase["period_ids"] and set(phase["period_ids"]) <= ids


def test_health_report_is_level_independent(on):
    reports = [on["all", level].health_doc for level in LEVELS]
    assert reports[0] == reports[1] == reports[2]


def test_health_report_is_slicing_independent(on):
    """db run in 500K-cycle slices and moved through a snapshot halfway
    reports what the unbroken run reports (the per-period vector reads
    live tallies, not the counter bank folded at the end of a slice)."""
    vm, _ = make_vm(SPEC.benchmark, SPEC, health=HealthMonitor())
    vm.begin()
    stop = 0
    done = False
    while not done:
        stop += 500_000
        done = vm.advance(until_cycles=stop)
        if stop == 3_000_000:
            assert not done
            vm = Snapshot.capture(vm).restore()
    sliced = RunRecord.from_result(vm.finish()).health
    assert on["health", 2].health_doc == sliced
    assert sliced["phases"][0]["centroid"]["miss_rate"] > 0
