"""``sim_churn``'s six configurations, run whole, leave the same record
on the reference interpreter and at level 2 (and, run as a script,
``sim_compute``'s two as well).

These are the allocation-heavy guests at the minimum heap (1.0x), where
level-2 regions allocate inline, count their barriers and allocations,
and fork: javac, jack, fop and antlr under GenMS with co-allocation,
and javac and fop under GenCopy.  Records are compared with their
provenance left out (it names the interpreter level); everything else —
cycles, counters, GC statistics, samples — must be equal.

Run as a script (CI does) for one line per configuration; it exits 1
if any record differs.  The script also runs ``sim_compute``'s two
configurations, where region bodies do the work (compress whole, and
mpegaudio to 4.4 M cycles, monitoring off); they take about half its
time, so the suite leaves them to it::

    PYTHONPATH=src:. python -m tests.test_churn_records
"""

import sys

import pytest

from repro.harness.record import RunRecord
from repro.harness.runner import RunSpec, execute

CONFIGS = [RunSpec(name, heap_mult=1.0, coalloc=True)
           for name in ("javac", "jack", "fop", "antlr")] + [
    RunSpec(name, heap_mult=1.0, gc_plan="gencopy")
    for name in ("javac", "fop")]
#: ``sim_compute``'s configurations, compared by the script only.
COMPUTE = [RunSpec("compress", monitoring=False),
           RunSpec("mpegaudio", monitoring=False, until_cycles=4_400_000)]


def record(spec: RunSpec, level: int) -> dict:
    """The whole run's record at interpreter ``level``, provenance left
    out."""
    doc = RunRecord.from_result(execute(spec, fastpath=level)).to_json()
    doc.pop("provenance", None)
    return doc


def label(spec: RunSpec) -> str:
    return (f"{spec.benchmark}/"
            f"{spec.gc_plan if spec.monitoring else 'unmonitored'}")


@pytest.mark.parametrize("spec", CONFIGS, ids=label)
def test_level2_record_is_the_reference(spec):
    assert record(spec, 2) == record(spec, 0)


def main() -> int:
    failed = 0
    for spec in CONFIGS + COMPUTE:
        ref, fast = record(spec, 0), record(spec, 2)
        same = fast == ref
        failed += not same
        print(f"{label(spec):21s} cycles {ref['cycles']:>10,}  "
              f"{'same' if same else 'DIFFERENT'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
