"""The ratio gate: the ``repro bench`` subsystem.

The paper's premise is that monitoring must be cheap enough to leave
on; this package holds the repository to its own host-side ratios.
Four cases (:mod:`repro.bench.cases`) each time two ways of doing the
same work in one process and gate the ratio: level 2 over the
reference interpreter, level 2 over level 1, the engine's cold serial
pass over its parallel one (plus the zero-simulation warm replay), and
a run with every observer attached over a bare one.  A same-process
ratio means the same on any box; absolute end-to-end numbers belong to
``perfbench/`` and bit-identities to the tier-1 tests.

Around the registry of declarative :class:`~repro.bench.registry.
BenchCase` objects sits one of everything:

* :mod:`repro.bench.execute` runs a case once, on a fresh cache state
  it restores afterwards (repetition is the case's own best-of-N),
* :mod:`repro.bench.history` is the cases' one store: ``bench run``
  appends every executed case to ``results/bench_history.jsonl``, and
  ``bench history`` is its one reader,
* :mod:`repro.bench.pairs` is the one judge of a speed change: ten
  alternating perfbench pairs of the checkout and a base commit, a
  verdict per end-to-end metric, written to ``BENCH_<workload>.json``
  (the only meaning of a ``BENCH_*.json`` file),
* :mod:`repro.bench.profile` wraps any case in cProfile, attributes
  wall time to repro subsystems, and exports collapsed stacks for
  flamegraph.pl or speedscope,
* :mod:`repro.bench.cli` declares and handles ``python -m repro bench
  list|run|pairs|history|profile``.
"""

from repro.bench.registry import (BenchCase, Gate, all_cases,  # noqa: F401
                                  get_case, register)
