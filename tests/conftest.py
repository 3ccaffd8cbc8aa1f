"""Shared pytest fixtures.

The harness runner memoizes records and snapshots process-wide, keyed
by spec.  Tests within one module may rely on that reuse
(``test_experiments_plumbing`` deliberately warms the memo once per
module), but results must never leak *across* modules — a module that
tweaks global state before running a spec would otherwise poison later
modules' records.  The module-scoped autouse fixture clears the memo at
each module boundary.

The persistent disk cache is disabled for the whole unit-test session:
these tests mutate simulator globals mid-run, and results produced under
such tweaks must never be written where other processes would trust
them.  The cache has its own tests (``test_engine_cache``) which inject
a :class:`~repro.harness.diskcache.DiskCache` against a tmp_path.
"""

import pytest

from repro.harness import runner


@pytest.fixture(autouse=True, scope="session")
def _no_disk_cache():
    runner.set_disk_cache(None)
    yield
    runner.set_disk_cache(None)


@pytest.fixture(autouse=True, scope="module")
def _fresh_runner_cache():
    runner.clear_cache()
    yield
    runner.clear_cache()
