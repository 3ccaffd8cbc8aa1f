#!/usr/bin/env python3
"""perfbench: the repository's benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all
    python3 perfbench/run.py --repeat-check
    python3 perfbench/run.py --spread-check

One run measures one workload in this process and prints each metric by
name with its unit, then one JSON object on the last line of stdout.
``--trace 0`` gives the end-to-end metrics; ``--trace 1`` is the separate
traced run that gives the per-layer metrics and writes
``perfbench/out/trace-<workload>.json``.  The exit code is non-zero if
any checked output was wrong.

Names, units and bounds are read from ``BENCHMARK.json`` at the root of
the checkout, so the file the driver reads and the numbers printed here
cannot drift apart.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: Set-up runs this many times in a run; ``setup_s`` takes the median.
SETUP_ROUNDS = 3
#: Timed passes a run makes at the least, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Passes a traced run makes untraced, then traced.
TRACE_PASSES = 2


def load_declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_program() -> None:
    """Put the program and the benchmark's own modules on ``sys.path``."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit("perfbench: nothing to measure: src/repro is not here")
    sys.path[:0] = [src, HERE]
    # Settings a user's shell may carry must not reach the measurement.
    for var in ("REPRO_FASTPATH", "REPRO_JOBS", "REPRO_CACHE_DIR",
                "REPRO_DISK_CACHE"):
        os.environ.pop(var, None)


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def timed_setup(workload, clock, gate, rounds: int) -> float:
    """Median reference seconds of ``rounds`` complete set-ups."""
    taken = []
    for _ in range(rounds):
        with clock.region() as region:
            workload.setup(clock, gate)
        taken.append(region.ref_s)
    return statistics.median(taken)


def run_passes(workload, clock, gate, seconds: float, count=None) -> list:
    """Whole passes for ``seconds`` (or exactly ``count`` of them).

    A pass starts only while the last one's length still fits before
    the deadline, so the timed region ends within ``seconds`` or at
    :data:`MIN_PASSES`, whichever comes later."""
    passes = []
    started = time.perf_counter()
    while True:
        gc.collect()
        begun = time.perf_counter()
        passes.append(workload.run_pass(clock, gate))
        del passes[-1].records[:]
        now = time.perf_counter()
        if count is not None:
            if len(passes) >= count:
                return passes
        elif len(passes) >= MIN_PASSES \
                and now - started + (now - begun) > seconds:
            return passes


def end_to_end(passes, warmup, setup_s: float, gate) -> dict:
    simulated = {(p.cycles, p.instructions) for p in passes + [warmup]}
    gate.check("simulated cycles and instructions repeat in every pass",
               len(simulated) == 1, str(sorted(simulated)))
    probes = [ms for p in passes for ms in p.probe_ref_ms]
    return {
        "setup_s": setup_s,
        "sim_mips": passes[0].instructions
        / statistics.median(p.ref_s for p in passes) / 1e6,
        "probe_ms_p50": statistics.median(probes),
        "sim_cycles_per_kinstr":
            warmup.cycles * 1000 / warmup.instructions,
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(name, workload, warmup, clock, gate, tracer, args) -> dict:
    """Untraced then traced passes, the workload's own counts, the probes."""
    import probes
    import tracing

    plain = [warmup] + run_passes(workload, clock, gate, 0,
                                  count=TRACE_PASSES - 1)
    tracing.install(tracer)
    traced = []
    try:
        for tracer.pass_id in range(TRACE_PASSES):
            gc.collect()
            span = tracer.begin("bench.pass")
            try:
                traced.append(workload.run_pass(clock, gate))
            finally:
                tracer.end(span)
    finally:
        tracer.pass_id = None
        tracer.unpatch_all()
    workload.close()

    self_ms = tracer.self_ms_by_name(threading.current_thread().name)

    def layer(*prefixes) -> float:
        return sum(ms for span, ms in self_ms.items()
                   if span.startswith(prefixes)) / TRACE_PASSES

    plain_s = statistics.median(p.ref_s for p in plain)
    traced_s = statistics.median(p.ref_s for p in traced)
    metrics = {
        # The program's share of a traced pass: the calibration kernel
        # that runs between its segments is the benchmark's own cost.
        "bench.pass_ms": (sum(self_ms.values()) / TRACE_PASSES
                          - layer("bench.calibrate")),
        "bench.untraced_ms": layer("bench.pass"),
        "bench.calibrate_ms": layer("bench.calibrate"),
        "bench.trace_overhead_pct": (traced_s / plain_s - 1) * 100,
        "bench.wall_sim_mips": plain[0].instructions
        / statistics.median(p.wall_s for p in plain) / 1e6,
        "workloads.build_ms": layer("workloads.build"),
        "vm.boot_ms": layer("vm.init", "vm.begin"),
        "vm.advance_ms": layer("vm.advance"),
        "vm.finish_ms": layer("vm.finish"),
        "vm.snapshot_pass_ms": layer("vm.snapshot"),
        "harness.pass_ms": layer("harness."),
        "fleet.pass_ms": layer("fleet."),
    }
    metrics.update(probes.record_counts(warmup.records))
    metrics.update(probes.layer_probes(clock, args.seed, args.quick, OUT))

    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{name}.json"), {
        "workload": name, "seed": args.seed, "passes": TRACE_PASSES,
        "self_ms_by_name": {k: round(v, 4) for k, v in self_ms.items()}})
    return metrics


def measure(args, declared) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # One dict and set layout for every run of the same code: the
        # interpreter's per-process hash seed is worth 1-2 % of speed.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    if hasattr(os, "sched_setaffinity"):
        # One core for the whole run: no migrations, and the fleet
        # server's thread wakes on the core its client just left.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    load_program()
    from hostclock import HostClock
    from tracing import SpanTracer
    from workloads import WORKLOADS, Gate
    from repro.harness import runner

    runner.set_disk_cache(None)     # never the user's results/.cache
    tracer = SpanTracer() if args.trace else None
    clock = HostClock(tracer)
    # What is alive now (modules, the clock's 14 MiB of cells) stays alive:
    # keep the collector from walking it during every timed collection.
    gc.freeze()
    gate = Gate()
    workload = WORKLOADS[args.workload](args.seed, args.quick, OUT)
    import_s = time.perf_counter() - _PROCESS_START
    try:
        rounds = 1 if args.quick or args.trace else SETUP_ROUNDS
        setup_s = import_s + timed_setup(workload, clock, gate, rounds)
        gc.collect()
        warmup = workload.run_pass(clock, gate)
        setup_s += warmup.ref_s
        if args.trace:
            metrics = per_layer(args.workload, workload, warmup, clock,
                                gate, tracer, args)
            kind = "per_layer"
        else:
            passes = run_passes(workload, clock, gate, args.seconds,
                                count=2 if args.quick else None)
            metrics = end_to_end(passes, warmup, setup_s, gate)
            kind = "end_to_end"
            wall_s = statistics.median(p.wall_s for p in passes)
            print(f"{len(passes)} timed passes after 1 warm-up pass, "
                  f"{len(warmup.records)} records each; host at "
                  f"{clock.speed():.2f} of reference speed; wall-clock "
                  f"sim_mips {warmup.instructions / wall_s / 1e6:.4g}")
    finally:
        workload.close()

    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(units) != set(metrics):
        sys.exit(f"perfbench: BENCHMARK.json and run.py disagree on {kind}: "
                 f"{sorted(set(units) ^ set(metrics))}")
    for name in units:
        value = metrics[name]
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        print(f"{name:36s} {shown:>16s} {units[name]}")
    print(f"attempted {gate.attempted}  failed {gate.failed}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if gate.failed == 0 else 1


# ---------------------------------------------------------------------------
# Many runs: each in a fresh process
# ---------------------------------------------------------------------------

def child_command(workload: str, seed: int, seconds: float,
                  trace: int) -> list:
    return [sys.executable, os.path.abspath(__file__),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def run_child(workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in a fresh process; its end-to-end metrics."""
    print(f"running {workload} seed {seed}", file=sys.stderr, flush=True)
    proc = subprocess.run(child_command(workload, seed, seconds, 0),
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench: {workload} seed {seed} exited "
                 f"{proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])["metrics"]


def run_all(args, declared) -> int:
    for workload in declared["workloads"]:
        for trace in (0, 1):
            print(f"== {workload['name']} --trace {trace}", flush=True)
            code = subprocess.run(child_command(
                workload["name"], args.seed, args.seconds, trace)).returncode
            if code != 0:
                return code
    return 0


def repeat_check(args, declared) -> int:
    """Every workload twice on this tree, A B B A: do the two agree?"""
    names = [w["name"] for w in declared["workloads"]]
    first, second = {}, {}
    for name in names + names[::-1]:
        into = second if name in first else first
        into[name] = run_child(name, args.seed, args.seconds)
    bad = 0
    print(f"{'workload':14s}{'metric':23s}{'first':>16s}{'second':>16s}"
          f"{'diff':>9s}{'bound':>7s}")
    for name in names:
        for metric in declared["end_to_end"]:
            a = first[name][metric["name"]]["value"]
            b = second[name][metric["name"]]["value"]
            rel = abs(a - b) / max(abs(a), abs(b))
            exact = metric["name"] == "sim_cycles_per_kinstr"
            ok = a == b if exact else rel <= metric["bound"]
            bad += not ok
            print(f"{name:14s}{metric['name']:23s}{a:16.6g}{b:16.6g}"
                  f"{rel:9.2%}{'exact' if exact else metric['bound']:>7}"
                  f"{'' if ok else '  FAIL'}")
    print(f"repeat-check: {'FAIL' if bad else 'ok'} "
          f"(seed {args.seed}, {args.seconds} s per run)")
    return 1 if bad else 0


def spread_check(args, declared) -> int:
    """Ten seeds per workload: (Q3 - Q1) / median of each metric, which
    the driver requires to stay within the metric's bound."""
    bad = 0
    print(f"{'workload':14s}{'metric':23s}{'median':>16s}{'spread':>9s}"
          f"{'bound':>7s}")
    for workload in declared["workloads"]:
        runs = [run_child(workload["name"], seed, args.seconds)
                for seed in range(args.seed, args.seed + 10)]
        for metric in declared["end_to_end"]:
            values = [r[metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            ok = spread <= metric["bound"] or metric["name"] == "setup_s"
            bad += not ok
            print(f"{workload['name']:14s}{metric['name']:23s}"
                  f"{statistics.median(values):16.6g}{spread:9.2%}"
                  f"{metric['bound']:7}{'' if ok else '  FAIL'}")
    print(f"spread-check: {'FAIL' if bad else 'ok'} (seeds {args.seed}.."
          f"{args.seed + 9}, {args.seconds} s per run)")
    return 1 if bad else 0


def main() -> int:
    declared = load_declared()
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny guests, one set-up, two passes: for "
                             "test_perfbench.py, not for numbers")
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced then traced")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--spread-check", action="store_true")
    args = parser.parse_args()
    if args.workload:
        return measure(args, declared)
    load_program()      # refuses to start where there is no program
    if args.all:
        return run_all(args, declared)
    if args.repeat_check:
        return repeat_check(args, declared)
    if args.spread_check:
        return spread_check(args, declared)
    parser.error("give --workload NAME, --all, --repeat-check or "
                 "--spread-check")


if __name__ == "__main__":
    sys.exit(main())
