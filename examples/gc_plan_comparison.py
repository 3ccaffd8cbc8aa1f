#!/usr/bin/env python3
"""Figure 6 live: space-efficiency vs locality — GenCopy against GenMS
with HPM-guided co-allocation, on db, across heap sizes.

The paper's argument: a copying collector gets spatial locality "for
free" (allocation order follows the object graph at every collection)
but pays a copy reserve — half the mature space — which hurts badly at
small heaps.  GenMS with co-allocation combines the free-list
collector's space efficiency with monitored, targeted locality, and
outperforms GenCopy at *every* heap size.

Run:  python examples/gc_plan_comparison.py
"""

from repro.harness import experiments as ex
from repro.harness.runner import record_for


def main() -> None:
    heaps = (1.0, 1.5, 2.0, 3.0, 4.0)
    print("running db under three collector configurations "
          "(this takes a minute)...\n")
    comparison = ex.fig6_gencopy_vs_genms("db", heaps)

    print(f"{'heap':>6s} {'GenMS':>10s} {'GenMS+co':>10s} {'GenCopy':>10s}"
          f"   (normalized to GenMS at each heap)")
    for mult in heaps:
        co = comparison.normalized(mult, "genms+coalloc")
        gencopy = comparison.normalized(mult, "gencopy")
        print(f"{mult:>5.1f}x {1.0:>10.3f} {co:>10.3f} {gencopy:>10.3f}")

    print("\nwhy GenCopy loses at small heaps (full collections forced by "
          "the copy reserve):")
    for mult in (min(heaps), max(heaps)):
        for plan in ("genms", "gencopy"):
            stats = record_for(ex.plain("db", mult, gc_plan=plan)).gc_stats
            print(f"  heap {mult:>3.1f}x {plan:8s}: "
                  f"{stats.minor_gcs:>3d} minor / {stats.full_gcs:>2d} full "
                  f"collections, {stats.gc_cycles:>9,} GC cycles")

    small, large = min(heaps), max(heaps)
    print("\npaper shapes to check:")
    print(f"  GenMS+coalloc beats GenCopy at every heap size: "
          f"{all(comparison.normalized(m, 'genms+coalloc') < comparison.normalized(m, 'gencopy') for m in heaps)}")
    gap_small = (comparison.normalized(small, 'gencopy')
                 - comparison.normalized(small, 'genms+coalloc'))
    gap_large = (comparison.normalized(large, 'gencopy')
                 - comparison.normalized(large, 'genms+coalloc'))
    print(f"  advantage at small heap: {gap_small:.1%}; "
          f"at large heap: {gap_large:.1%} "
          "(paper: 10% small, 7% large)")


if __name__ == "__main__":
    main()
