"""The built-in cases: four A/B ratios measured inside one process.

Each case times two ways of doing the same work back to back and
reports their ratio — level 2 over the reference interpreter, level 2
over level 1, the engine's cold serial pass over its cold parallel
one, a run with every observer attached over a bare one.  A ratio of
two times taken in the same process means the same on any machine,
which is what lets a committed history line serve as a baseline
everywhere; absolute end-to-end numbers are ``perfbench/``'s job, and
the bit-identities behind these ratios are tier-1's.

Case functions return a **flat metrics dict** — booleans for identity
properties, numbers for everything else — and never print or assert:
gate evaluation and reporting belong to the caller.  They start on a
fresh memo with no disk layer (:func:`repro.bench.execute.run_case`
sees to that and restores what it found), so every run really
simulates.
"""

from __future__ import annotations

import tempfile
import time
from typing import Dict

from repro.bench.registry import BenchCase, Gate, register


def _register_interp_case(name: str, description: str, slow: int, fast: int,
                          slow_label: str, fast_label: str) -> None:
    """One interpreter A/B: ``slow`` and ``fast`` are execution levels
    (0/1/2, see :func:`repro.core.config.fastpath_level`), the labels
    name the two sides in the metrics and gate texts (the committed
    history is keyed by those metric names)."""
    slow_text = slow_label.replace("_", "-")
    fast_text = fast_label.replace("_", "-")

    def run(params: Dict[str, object]) -> Dict[str, object]:
        from repro.harness import runner
        from repro.harness.record import RunRecord
        from repro.harness.runner import RunSpec

        repeats = int(params["repeats"])
        spec = RunSpec(benchmark=str(params["benchmark"]), monitoring=True)

        def timed(fastpath):
            start = time.perf_counter()
            result = runner.execute(spec, fastpath=fastpath)
            elapsed = time.perf_counter() - start
            return RunRecord.from_result(result).to_json(), elapsed

        # The two sides alternate, so a drift in the box's speed lands
        # on both; each keeps its best wall time of ``repeats``.
        slow_s = fast_s = float("inf")
        for _ in range(repeats):
            slow_doc, elapsed = timed(slow)
            slow_s = min(slow_s, elapsed)
            fast_doc, elapsed = timed(fast)
            fast_s = min(fast_s, elapsed)
        return {
            "benchmark": params["benchmark"],
            "instructions": slow_doc["instructions"],
            "repeats": repeats,
            f"{slow_label}_seconds": round(slow_s, 3),
            f"{fast_label}_seconds": round(fast_s, 3),
            "speedup": round(slow_s / fast_s, 3),
            f"{fast_label}_mips":
                round(fast_doc["instructions"] / fast_s / 1e6, 3),
            "min_speedup": params["min_speedup"],
            "identical": fast_doc == slow_doc,
        }

    register(BenchCase(
        name=name, description=description, run=run,
        params={"benchmark": "compress", "repeats": 2, "min_speedup": 1.5},
        gates=(
            Gate("identical", "==", True,
                 f"{fast_text} record bit-identical to the "
                 f"{slow_text} record"),
            Gate("speedup", ">=", "min_speedup",
                 f"{fast_text}/{slow_text} speedup floor"),
        ),
        primary_metric="speedup",
    ))


_register_interp_case(
    "interp", "translated fast path (level 2) vs reference interpreter "
              "(bit-identity + speedup floor)",
    slow=0, fast=2, slow_label="reference", fast_label="fastpath")
_register_interp_case(
    "interp_superblock", "superblock fast path (level 2) vs "
                         "per-instruction fast path (level 1) "
                         "(bit-identity + speedup floor)",
    slow=1, fast=2, slow_label="per_instruction", fast_label="superblock")


def run_engine(params: Dict[str, object]) -> Dict[str, object]:
    """Engine cold serial vs cold parallel, then zero-work warm replay."""
    from repro.harness import engine, runner
    from repro.harness import experiments as ex
    from repro.harness.diskcache import DiskCache

    benchmarks = [str(b) for b in params["benchmarks"]]
    jobs = int(params["jobs"])
    specs = ex.figure_specs(benchmarks,
                            heap_mults=tuple(params["heap_mults"]))

    def cold_run(n_jobs, cache_root):
        runner.clear_cache()
        runner.set_disk_cache(DiskCache(root=cache_root))
        start = time.perf_counter()
        records = engine.run_specs(specs, jobs=n_jobs)
        elapsed = time.perf_counter() - start
        return [r.to_json() for r in records], elapsed

    with tempfile.TemporaryDirectory(prefix="bench-serial-") as serial_root, \
            tempfile.TemporaryDirectory(prefix="bench-par-") as par_root:
        serial_docs, serial_s = cold_run(1, serial_root)
        parallel_docs, parallel_s = cold_run(jobs, par_root)

        # Warm replay against the parallel run's disk cache, fresh
        # memo — must perform zero simulation work.
        runner.clear_cache()
        runner.set_disk_cache(DiskCache(root=par_root))
        sims_before = runner.SIM_RUNS
        start = time.perf_counter()
        engine.run_specs(specs, jobs=1)
        warm_s = time.perf_counter() - start
        warm_sims = runner.SIM_RUNS - sims_before

    return {
        "benchmarks": ",".join(benchmarks),
        "specs": len(specs),
        "jobs": jobs,
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 3),
        "warm_replay_seconds": round(warm_s, 3),
        "warm_replay_simulations": warm_sims,
        "identical": serial_docs == parallel_docs,
    }


register(BenchCase(
    name="engine",
    description="experiment engine: cold serial vs cold parallel at a "
                "fixed worker count (identical records), warm cache "
                "replays with zero simulation work",
    run=run_engine,
    # ``jobs`` is pinned, not taken from the CPU count, so the ratio
    # means the same on every box with at least two cores.
    params={"benchmarks": ["fop", "compress"], "jobs": 2,
            "heap_mults": [1.0, 4.0]},
    gates=(
        Gate("identical", "==", True,
             "parallel records bit-identical to serial records"),
        Gate("warm_replay_simulations", "<=", 0,
             "warm-cache replay performs no simulation work"),
    ),
    primary_metric="speedup",
))


def run_observer_overhead(params: Dict[str, object]) -> Dict[str, object]:
    """Host cost of observing: all three observers attached vs none.

    Off and on runs alternate so drift in the box's load lands on both
    sides, each side keeps its least-disturbed reading, and the clock is
    process time, which a busy neighbour cannot inflate.  That the
    observed run is bit-identical to the bare one is tier-1's assertion
    (``tests/test_observer_purity.py``), not re-proved here.
    """
    from repro.harness import runner
    from repro.harness.runner import RunSpec
    from repro.health import HealthMonitor
    from repro.lineage import DecisionLedger
    from repro.telemetry import Telemetry

    spec = RunSpec(benchmark=str(params["benchmark"]), coalloc=True)
    repeats = int(params["repeats"])

    def process_seconds(**observers) -> float:
        start = time.process_time()
        runner.execute(spec, **observers)
        return time.process_time() - start

    off, on = [], []
    for _ in range(repeats):
        off.append(process_seconds())
        on.append(process_seconds(telemetry=Telemetry(),
                                  lineage=DecisionLedger(),
                                  health=HealthMonitor()))
    return {
        "benchmark": params["benchmark"],
        "repeats": repeats,
        "off_seconds": round(min(off), 3),
        "on_seconds": round(min(on), 3),
        "overhead_ratio": round(min(on) / min(off), 4),
        "max_ratio": params["max_ratio"],
    }


register(BenchCase(
    name="observer_overhead",
    description="telemetry + decision ledger + health monitor attached "
                "vs none: host process-time ratio under its ceiling",
    run=run_observer_overhead,
    # Ten readings of identical code on a shared 2-vCPU box (PR 22, the
    # ten lines in results/bench_history.jsonl): 0.947 0.998 1.000
    # 1.002 1.019 1.023 1.028 1.037 1.040 1.117 — median 1.02, the
    # highest 9 % above it; twenty earlier readings of the same body
    # spanned 0.745–1.105.  The ceiling sits at 1.25, more than twice
    # as far above the median as the highest of the thirty: the spread
    # does not trip it, observers that cost a quarter more do.
    params={"benchmark": "db", "repeats": 3, "max_ratio": 1.25},
    gates=(
        Gate("overhead_ratio", "<=", "max_ratio",
             "observers-on / observers-off process-time ceiling"),
    ),
    primary_metric="overhead_ratio",
))
