"""Figure 7: cache misses sampled for String objects (db) over time.

Paper shapes:

* 7(a): the cumulative miss count for ``String::value`` bends when
  co-allocation kicks in after the warm-up,
* 7(b): the per-period miss rate drops at the same time; the 3-period
  moving average follows the trend without the local fluctuations,
* the co-allocated String/char[] pairs cut the misses on those objects
  substantially (paper: ~60% on db's String objects; we require the
  with-co-allocation steady state to be well below the without-one).
"""

from conftest import write_result

from repro.harness import experiments as ex
from repro.harness.report import format_fig7
from repro.harness.runner import record_for
from repro.workloads import suite


def _steady_state(values, fraction=0.33):
    tail = values[int(len(values) * (1 - fraction)):]
    return sum(tail) / max(1, len(tail))


def test_fig7_timeline_shape(benchmark):
    result = benchmark.pedantic(ex.fig7_db_timeline, rounds=1, iterations=1)
    write_result("fig7.txt", format_fig7(result))

    values = [n for _, n in result.per_period]
    assert len(values) > 30, "need a meaningful number of periods"
    assert result.coallocated > 1000

    # 7(a): cumulative series is monotone non-decreasing.
    cumulative = [c for _, c in result.cumulative]
    assert all(b >= a for a, b in zip(cumulative, cumulative[1:]))
    assert cumulative[-1] > 0

    # 7(b): the miss rate declines from the post-warm-up peak to the
    # steady state (the "drop ... after the warm-up phase").
    third = max(3, len(values) // 3)
    warmup_peak = max(result.moving_average[:third])
    steady = _steady_state(result.moving_average)
    assert steady < warmup_peak, (warmup_peak, steady)

    # The moving average fluctuates less than the raw series.
    def spread(series):
        mean = sum(series) / len(series)
        return sum((v - mean) ** 2 for v in series) / len(series)

    assert spread(result.moving_average) <= spread([float(v) for v in values])


def test_fig7_coalloc_cuts_string_misses(benchmark):
    """Steady-state String::value misses: with co-allocation well below
    without (paper: ~60% reduction on those objects)."""

    def run_off():
        res = record_for(ex.monitored("db"))
        name = suite.build("db").program.string_class.field(
            "value").qualified_name
        return [n for _, n in res.series(name)]

    off_series = benchmark.pedantic(run_off, rounds=1, iterations=1)
    on = ex.fig7_db_timeline()
    on_steady = _steady_state([n for _, n in on.per_period])
    off_steady = _steady_state(off_series)
    assert on_steady < 0.70 * off_steady, (on_steady, off_steady)
