"""Shared fixtures for the benchmark harness.

Runs are memoized process-wide (see repro.harness.runner) and persisted
to the on-disk result cache (repro.harness.diskcache), so figures that
share configurations (Figure 4's large-heap points are Figure 5's 4x
points) pay for them once — and a re-run against unchanged code pays
for nothing at all.

A session-scoped fixture runs the entire suite's run matrix through
the parallel engine before the first test, so on a multi-core machine
every figure's own pass over its matrix is pure cache hits.  Control
the worker count with ``REPRO_JOBS`` (1 = serial).

Set ``REPRO_QUICK=1`` to run a reduced matrix (three benchmarks, two
heap sizes) — useful while iterating; the full matrix is the default
and regenerates every table and figure of the paper.
"""

import os

import pytest

from repro.harness import engine
from repro.harness import experiments as ex
from repro.workloads import suite

QUICK = bool(int(os.environ.get("REPRO_QUICK", "0")))

#: Benchmarks exercised per figure.
ALL_BENCHMARKS = suite.all_names()
QUICK_BENCHMARKS = ["compress", "db", "pseudojbb"]

BENCHMARKS = QUICK_BENCHMARKS if QUICK else ALL_BENCHMARKS
HEAP_MULTS = (1.0, 4.0) if QUICK else (1.0, 1.5, 2.0, 3.0, 4.0)


def pytest_report_header(config):
    mode = "QUICK (REPRO_QUICK=1)" if QUICK else "full"
    return (f"repro benchmark harness: {mode} matrix, "
            f"{len(BENCHMARKS)} benchmarks")


@pytest.fixture(autouse=True, scope="session")
def _warm_suite():
    """Precompute the suite's run matrix across cores (or recall it from
    the disk cache) before the first figure asserts on it."""
    engine.run_specs(ex.figure_specs(list(BENCHMARKS), tuple(HEAP_MULTS)))


@pytest.fixture(scope="session")
def benchmarks():
    return list(BENCHMARKS)


@pytest.fixture(scope="session")
def heap_mults():
    return tuple(HEAP_MULTS)


RESULTS_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                           "results")
os.makedirs(RESULTS_DIR, exist_ok=True)


def write_result(name: str, text: str) -> None:
    """Persist a formatted table/figure under results/."""
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print(f"\n{text}\n[written to {path}]")
