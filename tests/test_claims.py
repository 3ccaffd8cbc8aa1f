"""Every quantum poll level 2 skips was provably idle — checked, guest
by guest, with :func:`tests.helpers.check_claims`.

Record equality shows a proof held; this shows *where* it held and by
how much: the exact clock at each skipped boundary (from a second run
that skips none) against ``scheduler.next_time``, ``until_cycles`` and
the bound the skip was granted on.  Short slices of all 17 guests,
monitored (PEBS armed, co-allocation on) and unmonitored, one with
telemetry on, sliced runs, and ``sim_churn``'s guests at heap 1.0x; the
fuzzed recipes are checked in ``tests/test_fuzz_pipeline.py``.

Run as a script for a report on longer slices, monitored, at a heap
multiplier (CI does, at the default 4.0 and at 1.0)::

    PYTHONPATH=src:. python -m tests.test_claims [CYCLES [HEAP_MULT]]
"""

import statistics
import sys

import pytest

from tests.helpers import check_claims
from repro.harness import runner
from repro.harness.runner import RunSpec
from repro.telemetry import Telemetry
from repro.workloads import suite

GUESTS = suite.all_names() + ["phased"]

#: Tier-1's slice: long enough for a few hundred skipped polls a guest.
SLICE_CYCLES = 200_000


def guest_claims(name: str, monitored: bool, cycles: int,
                 telemetry: bool = False, **options):
    options.setdefault("coalloc", monitored)
    spec = RunSpec(name, monitoring=monitored, **options)
    return check_claims(
        lambda: runner.make_vm(name, spec, fastpath=2, telemetry=(
            Telemetry() if telemetry else None))[0],
        until_cycles=cycles)


@pytest.mark.parametrize("monitored", [True, False],
                         ids=["monitored", "unmonitored"])
@pytest.mark.parametrize("name", GUESTS)
def test_every_skipped_poll_was_idle(name, monitored):
    claims = guest_claims(name, monitored, SLICE_CYCLES)
    assert len(claims) > 100


def test_with_telemetry_on():
    """The PMU interrupt's handler stamps the trace: spans and
    straddles are refused where it could fire, and the trace of the
    two runs is the same."""
    claims = guest_claims("db", True, 1_000_000, telemetry=True)
    assert len(claims) > 1000


@pytest.mark.parametrize("name, gc_plan", [
    ("javac", "genms"), ("fop", "genms"), ("javac", "gencopy"),
    ("fop", "gencopy")])
def test_at_heap_1x(name, gc_plan):
    """``sim_churn``'s configuration: no heap headroom, so regions
    allocate inline and, unobserved, land one flush per exit — the
    ``n`` and ``cell[0]`` a grant is computed from.  Co-allocating
    under GenMS."""
    claims = guest_claims(name, True, SLICE_CYCLES, heap_mult=1.0,
                          gc_plan=gc_plan, coalloc=gc_plan == "genms")
    assert len(claims) > 100


@pytest.mark.parametrize("step", [7_000, 30_000])
def test_in_slices(step):
    """``until_cycles`` a few spans ahead: the skipped polls stay below
    it, and the slices end where the reference's do."""
    spec = RunSpec("compress")
    claims = check_claims(
        lambda: runner.make_vm("compress", spec, fastpath=2)[0],
        until_cycles=400_000, step=step)
    assert claims
    assert all(claim.limit is not None for claim in claims)


def report(cycles: int, heap_mult: float = 4.0) -> None:
    """Every guest, monitored, for ``cycles`` at ``heap_mult``: skipped
    polls, and the margins they held by (limit − exact clock) and their
    bounds were loose by (bound − exact clock), smallest and median."""
    print(f"{'guest':10s} {'skipped':>8s} {'margin min':>11s} "
          f"{'median':>8s} {'slack min':>10s} {'median':>8s}")
    for name in GUESTS:
        claims = guest_claims(name, True, cycles, heap_mult=heap_mult)
        margins = [c.limit - c.clock for c in claims if c.limit is not None]
        slack = [c.bound - c.clock for c in claims]
        print(f"{name:10s} {len(claims):8d} {min(margins):11d} "
              f"{statistics.median(margins):8.0f} {min(slack):10d} "
              f"{statistics.median(slack):8.0f}", flush=True)


if __name__ == "__main__":
    report(int(sys.argv[1]) if len(sys.argv) > 1 else 3_000_000,
           *map(float, sys.argv[2:3]))
