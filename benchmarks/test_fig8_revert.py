"""Figure 8: detecting and reverting a poorly performing optimization.

The controlled experiment of section 6.4: starting from a good
allocation order, the GC is manually instructed to place one cache line
(128 bytes) of empty space between each String and its char[] —
undoing the benefit.  The monitoring feedback must (a) observe the miss
rate rising for the affected class, (b) trigger the switch back after
several measurement periods, and (c) see the rate return toward its
old value as newly promoted objects follow the restored policy.
"""

from conftest import write_result

from repro.harness import experiments as ex
from repro.harness.report import format_fig8


def test_fig8_revert(benchmark):
    result = benchmark.pedantic(ex.fig8_revert, rounds=1, iterations=1)
    write_result("fig8.txt", format_fig8(result))

    # The bad placement was detected and reverted.
    assert result.reverted, "feedback failed to revert the bad placement"
    assert result.reverted_period is not None
    assert result.reverted_period > result.gap_applied_period

    # The paper's heuristic waits several measurement periods.
    waited = result.reverted_period - result.gap_applied_period
    assert waited >= 2, f"reverted suspiciously fast ({waited} periods)"

    # The rate visibly regressed under the gap...
    assert result.peak_rate > 1.2 * result.baseline_rate, (
        result.peak_rate, result.baseline_rate)

    # ...and returned toward the old value after the revert ("the miss
    # rate returns to its old value").
    assert result.final_rate < 0.75 * result.peak_rate, (
        result.final_rate, result.peak_rate)


def test_fig8_no_revert_without_regression(benchmark):
    """Control: with no gap, the feedback engine never reverts."""
    from repro.harness.runner import record_for

    def run_normal():
        return record_for(ex.full("db")).reverted_experiments

    reverted = benchmark.pedantic(run_normal, rounds=1, iterations=1)
    assert reverted == []
