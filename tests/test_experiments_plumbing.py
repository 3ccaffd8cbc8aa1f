"""Plumbing tests for the experiment drivers, on a small fast subset.

The benchmark suite asserts the paper's *shapes* on the full matrix;
these tests assert the drivers' *mechanics* (correct configurations
compared, correct normalization) cheaply, so refactoring the harness is
safe without a 10-minute run.
"""

import os

import pytest

from repro.harness import engine, runner
from repro.harness import experiments as ex
from repro.harness import report
from repro.harness.runner import clear_cache, record_for

SMALL = ["fop"]

#: The formatted text of every spec-keyed figure on ``fop`` (13
#: simulations).  Regenerate by running this file:
#: ``PYTHONPATH=src python tests/test_experiments_plumbing.py``.
FIGURES_PATH = os.path.join(os.path.dirname(__file__), "golden",
                            "figures_fop.txt")


def figures_text() -> str:
    heaps = (1.0, 4.0)
    return "\n\n".join([
        report.format_table2(ex.table2(SMALL)),
        report.format_fig2(ex.fig2_sampling_overhead(SMALL)),
        report.format_fig3(ex.fig3_coalloc_counts(SMALL)),
        report.format_fig4(ex.fig4_l1_reduction(SMALL)),
        report.format_fig5(ex.fig5_exec_time(SMALL, heap_mults=heaps)),
        report.format_fig6(ex.fig6_gencopy_vs_genms("fop",
                                                    heap_mults=heaps)),
        report.format_fig7(ex.fig7_db_timeline("fop")),
    ]) + "\n"


@pytest.fixture(autouse=True, scope="module")
def _warm_cache():
    yield
    clear_cache()


def test_figure_text_matches_golden():
    """What the figure drivers print is pinned byte for byte, so a
    harness refactor that moves a number or a column shows up here."""
    with open(FIGURES_PATH) as fh:
        assert figures_text() == fh.read()


class TestFigureSpecs:
    def test_figures_simulate_nothing_beyond_figure_specs(self):
        """``figure_specs`` is the union of what the figures run: after
        one pass over it, no figure has anything left to simulate."""
        engine.run_specs(ex.figure_specs(SMALL), jobs=1)
        before = runner.SIM_RUNS
        for figure in report.FIGURES.values():
            if figure.benchmarks:
                figure.text(SMALL, jobs=1)
        assert runner.SIM_RUNS == before

    def test_single_benchmark_order_is_perfbench_matrix(self):
        """perfbench/ indexes this matrix by position."""
        assert ex.figure_specs(["antlr"], (4.0,), ("25K",)) == [
            ex.plain("antlr"), ex.full("antlr"),
            ex.monitored("antlr", "25K"), ex.monitored("antlr", "auto"),
            ex.full("antlr", interval="25K")]

    def test_matrix_sizes(self):
        assert len(ex.figure_specs()) == 277
        assert len(ex.figure_specs(["fop", "compress"], (1.0, 4.0))) == 22


class TestFig2Plumbing:
    def test_overhead_relative_to_no_monitoring(self):
        rows = ex.fig2_sampling_overhead(SMALL, intervals=("auto",))
        (row,) = rows
        base = record_for(ex.plain("fop"))
        mon = record_for(ex.monitored("fop", "auto"))
        expected = mon.cycles / base.cycles - 1.0
        assert row.overhead["auto"] == pytest.approx(expected)

    def test_requested_intervals_only(self):
        rows = ex.fig2_sampling_overhead(SMALL, intervals=("25K", "auto"))
        assert set(rows[0].overhead) == {"25K", "auto"}


class TestFig4Fig5Plumbing:
    def test_fig4_counts_match_measurements(self):
        (row,) = ex.fig4_l1_reduction(SMALL)
        base = record_for(ex.plain("fop"))
        assert row.baseline_misses == base.l1_misses
        assert 0 <= abs(row.reduction) <= 1

    def test_fig5_normalization(self):
        (row,) = ex.fig5_exec_time(SMALL, heap_mults=(4.0,))
        base = record_for(ex.plain("fop"))
        co = record_for(ex.full("fop"))
        assert row.normalized[4.0] == pytest.approx(co.cycles / base.cycles)


class TestFig6Plumbing:
    def test_three_configs_per_heap(self):
        result = ex.fig6_gencopy_vs_genms("fop", heap_mults=(4.0,))
        assert set(result.cycles[4.0]) == {"genms", "genms+coalloc",
                                           "gencopy"}
        assert result.normalized(4.0, "genms") == 1.0


class TestTimelinePlumbing:
    def test_fig7_series_lengths_agree(self):
        result = ex.fig7_db_timeline("fop")
        assert len(result.per_period) == len(result.cumulative)
        assert len(result.moving_average) == len(result.per_period)

    def test_fig8_runs_on_small_benchmark(self):
        # fop has little churn: the experiment machinery must still
        # produce a well-formed result (reverted or not).
        result = ex.fig8_revert("fop", intervene_fraction=0.3)
        assert result.gap_applied_period >= 0
        assert len(result.moving_average) == len(result.per_period)


if __name__ == "__main__":
    runner.set_disk_cache(None)
    with open(FIGURES_PATH, "w") as fh:
        fh.write(figures_text())
    print(f"wrote {FIGURES_PATH}")
