#!/usr/bin/env python3
"""The paper's headline case study: HPM-guided co-allocation on _209_db.

Runs the db benchmark analog three ways —

* plain VM (no sampling, no co-allocation),
* monitoring only (the Figure 2 overhead),
* monitoring + co-allocation (the full system),

and prints the Figure 4/5/7 quantities: L1 miss reduction, execution-
time reduction, and an ASCII rendering of the ``String::value`` miss-
rate timeline with the co-allocation "bend".

Run:  python examples/db_locality.py
"""

from repro.harness import experiments as ex
from repro.harness.runner import record_for
from repro.workloads import suite


def sparkline(values, width=64, height=8):
    """Tiny ASCII chart of a numeric series."""
    if not values:
        return "(empty)"
    step = max(1, len(values) // width)
    buckets = [sum(values[i:i + step]) / len(values[i:i + step])
               for i in range(0, len(values), step)]
    top = max(buckets) or 1
    rows = []
    for level in range(height, 0, -1):
        threshold = top * (level - 0.5) / height
        rows.append("".join("#" if v >= threshold else " " for v in buckets))
    rows.append("-" * len(buckets))
    return "\n".join(rows)


def main() -> None:
    print("building and running db (three configurations)...\n")
    plain = record_for(ex.plain("db"))
    monitored = record_for(ex.monitored("db"))
    full = record_for(ex.full("db"))

    def row(label, r):
        print(f"{label:24s} cycles={r.cycles:>12,}  "
              f"L1 misses={r.counters['L1D_MISS']:>9,}  "
              f"GC={r.gc_stats.minor_gcs}/{r.gc_stats.full_gcs}  "
              f"co-allocated={r.gc_stats.coallocated_objects}")

    row("plain VM", plain)
    row("monitoring only", monitored)
    row("monitoring + coalloc", full)

    overhead = monitored.cycles / plain.cycles - 1
    speedup = 1 - full.cycles / plain.cycles
    miss_red = 1 - full.l1_misses / plain.l1_misses
    print(f"\nsampling overhead       : {overhead:+.2%}   (paper: <1% avg)")
    print(f"L1 miss reduction       : {miss_red:.1%}    (paper: up to 28%)")
    print(f"execution-time reduction: {speedup:.1%}    (paper: up to 13.9%)")

    # Figure 7(b): the String::value miss-rate timeline.
    name = suite.build("db").program.string_class.field(
        "value").qualified_name
    series = [n for _, n in full.series(name)]
    smooth = full.moving_average(series)
    print("\nString::value estimated misses per period "
          "(moving average, Figure 7b):")
    print(sparkline(smooth))

    workload = suite.build("db")
    print(f"\n(db = {workload.description})")


if __name__ == "__main__":
    main()
