"""Plain-text rendering of the experiment results.

Formats each table/figure the way the paper reports it (rows per
benchmark, percentages, normalized times), so a run of the benchmark
harness can be compared against the published numbers side by side
(see EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional

from repro.harness import experiments as ex


def _rule(width: int = 72) -> str:
    return "-" * width


def format_table1(rows: List[ex.Table1Row]) -> str:
    out = ["Table 1: benchmark programs", _rule()]
    for row in rows:
        out.append(f"{row.name:10s} {row.origin}")
        out.append(f"{'':10s}   {row.description}")
    return "\n".join(out)


def format_table2(rows: List[ex.Table2Row]) -> str:
    out = [
        "Table 2: space overhead — size of machine code maps in KB",
        f"{'program':12s} {'machine code':>12s} {'GC maps only':>12s} "
        f"{'MC maps':>9s}",
        _rule(50),
    ]
    for row in rows:
        out.append(f"{row.name:12s} {row.machine_code_kb:>12d} "
                   f"{row.gc_maps_kb:>12d} {row.mc_maps_kb:>9d}")
    return "\n".join(out)


def format_fig2(rows: List[ex.OverheadRow]) -> str:
    intervals = list(rows[0].overhead) if rows else []
    header = f"{'program':12s}" + "".join(f"{iv:>9s}" for iv in intervals)
    out = ["Figure 2: execution-time overhead of sampling (heap = 4x min)",
           header, _rule(12 + 9 * len(intervals))]
    for row in rows:
        cells = "".join(f"{row.overhead[iv] * 100:>8.2f}%" for iv in intervals)
        out.append(f"{row.name:12s}{cells}")
    if rows:
        avg = {iv: sum(r.overhead[iv] for r in rows) / len(rows)
               for iv in intervals}
        out.append(_rule(12 + 9 * len(intervals)))
        out.append(f"{'average':12s}"
                   + "".join(f"{avg[iv] * 100:>8.2f}%" for iv in intervals))
    return "\n".join(out)


def format_fig3(rows: List[ex.CoallocRow]) -> str:
    intervals = list(rows[0].counts) if rows else []
    header = f"{'program':12s}" + "".join(f"{iv:>10s}" for iv in intervals)
    out = ["Figure 3: number of co-allocated objects (heap = 4x min, "
           "log-scale in the paper)", header, _rule(12 + 10 * len(intervals))]
    for row in rows:
        cells = "".join(f"{row.counts[iv]:>10d}" for iv in intervals)
        out.append(f"{row.name:12s}{cells}")
    return "\n".join(out)


def format_fig4(rows: List[ex.MissReductionRow]) -> str:
    out = ["Figure 4: L1 miss reduction with co-allocation (heap = 4x min)",
           f"{'program':12s} {'baseline':>10s} {'coalloc':>10s} "
           f"{'reduction':>10s}", _rule(46)]
    for row in rows:
        out.append(f"{row.name:12s} {row.baseline_misses:>10d} "
                   f"{row.coalloc_misses:>10d} {row.reduction * 100:>9.1f}%")
    return "\n".join(out)


def format_fig5(rows: List[ex.ExecTimeRow]) -> str:
    mults = list(rows[0].normalized) if rows else []
    header = f"{'program':12s}" + "".join(f"{m:>8.1f}x" for m in mults)
    out = ["Figure 5: execution time relative to the baseline "
           "(auto interval)", header, _rule(12 + 9 * len(mults))]
    for row in rows:
        cells = "".join(f"{row.normalized[m]:>9.3f}" for m in mults)
        out.append(f"{row.name:12s}{cells}")
    return "\n".join(out)


def format_fig6(result: ex.GCPlanComparison) -> str:
    mults = list(result.cycles)
    out = [f"Figure 6: GenCopy vs GenMS with co-allocation ({result.benchmark})",
           f"{'config':16s}" + "".join(f"{m:>8.1f}x" for m in mults),
           _rule(16 + 9 * len(mults))]
    for config in ("genms", "genms+coalloc", "gencopy"):
        cells = "".join(f"{result.normalized(m, config):>9.3f}"
                        for m in mults)
        out.append(f"{config:16s}{cells}")
    return "\n".join(out)


def format_fig7(result: ex.TimelineResult) -> str:
    out = [f"Figure 7: L1 misses for {result.field_name} over time "
           f"({result.benchmark}; {result.coallocated} objects co-allocated)",
           f"{'period':>6s} {'cycles':>12s} {'misses':>8s} {'cumul':>8s} "
           f"{'mov.avg':>8s}", _rule(48)]
    for i, ((cyc, n), (_, cum)) in enumerate(
            zip(result.per_period, result.cumulative)):
        out.append(f"{i:>6d} {cyc:>12d} {n:>8d} {cum:>8d} "
                   f"{result.moving_average[i]:>8.1f}")
    return "\n".join(out)


def format_fig8(result: ex.RevertResult) -> str:
    out = [f"Figure 8: poorly performing placement on {result.benchmark} "
           "(gap = one cache line)",
           f"gap applied at period {result.gap_applied_period}; "
           f"baseline rate {result.baseline_rate:.1f} misses/period",
           f"peak rate {result.peak_rate:.1f}; "
           f"reverted: {result.reverted} "
           f"(period {result.reverted_period}); "
           f"final rate {result.final_rate:.1f}",
           f"{'period':>6s} {'misses':>8s} {'mov.avg':>8s}", _rule(26)]
    for i, (cyc, n) in enumerate(result.per_period):
        marker = ""
        if i == result.gap_applied_period:
            marker = "  <- gap inserted"
        elif result.reverted_period is not None and i == result.reverted_period:
            marker = "  <- reverted"
        out.append(f"{i:>6d} {n:>8d} {result.moving_average[i]:>8.1f}{marker}")
    return "\n".join(out)


class Figure(NamedTuple):
    """One table/figure: what computes it and what prints it."""

    compute: Callable
    format: Callable
    #: Takes a benchmark subset (the CLI's ``--benchmarks``) first.
    benchmarks: bool = False
    #: Takes ``jobs=`` (its matrix is more than one run).
    jobs: bool = False

    def text(self, benchmarks: Optional[List[str]] = None,
             jobs: Optional[int] = None) -> str:
        args = (benchmarks,) if self.benchmarks else ()
        kwargs = {"jobs": jobs} if self.jobs else {}
        return self.format(self.compute(*args, **kwargs))


#: Every table and figure of the paper's evaluation, by CLI name.
FIGURES = {
    "table1": Figure(ex.table1, format_table1),
    "table2": Figure(ex.table2, format_table2, benchmarks=True, jobs=True),
    "fig2": Figure(ex.fig2_sampling_overhead, format_fig2,
                   benchmarks=True, jobs=True),
    "fig3": Figure(ex.fig3_coalloc_counts, format_fig3,
                   benchmarks=True, jobs=True),
    "fig4": Figure(ex.fig4_l1_reduction, format_fig4,
                   benchmarks=True, jobs=True),
    "fig5": Figure(ex.fig5_exec_time, format_fig5,
                   benchmarks=True, jobs=True),
    "fig6": Figure(ex.fig6_gencopy_vs_genms, format_fig6, jobs=True),
    "fig7": Figure(ex.fig7_db_timeline, format_fig7),
    "fig8": Figure(ex.fig8_revert, format_fig8),
}
