"""``python -m repro list|run|table1..fig8|ablations|cache``, and the
pieces every command family shares.

Each family module (this one, :mod:`repro.analysis.cli`,
:mod:`repro.bench.cli`, :mod:`repro.fleet.cli`) has an ``add_parser(sub)``
that declares its commands and hands each one its handler with
``set_defaults(handler=...)``; :mod:`repro.__main__` only calls
``args.handler(args)``.  The shared pieces live here: the options that
spell a :class:`RunSpec`, ``--jobs``/``--progress``, and the one-line
refusals for unwritable outputs and unreadable records.
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional

from repro.harness import experiments as ex
from repro.harness import report
from repro.harness.runner import INTERVAL_NAMES, RunSpec
from repro.hw.events import PEBS_EVENTS
from repro.workloads import suite


def positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def benchmark_list(value: Optional[str]) -> Optional[List[str]]:
    """``--benchmarks a,b`` -> ``["a", "b"]``; empty means all (None)."""
    if not value:
        return None
    names = [v.strip() for v in value.split(",") if v.strip()]
    for name in names:
        if name not in suite.BENCHMARKS:
            raise SystemExit(f"unknown benchmark {name!r}; "
                             f"known: {', '.join(suite.all_names())}")
    return names


def add_run_options(p, positional: str = "benchmark",
                    **positional_kwargs) -> None:
    """The options that spell a :class:`RunSpec` (see :func:`run_spec`).

    ``submit`` names several benchmarks, so the positional is a
    parameter; the rest has one spelling.
    """
    # Table 1 plus the probes of suite.PROBES (e.g. "phased", the health
    # observatory's phase-shift workload).
    p.add_argument(positional, choices=suite.extended_names(),
                   **positional_kwargs)
    p.add_argument("--heap-mult", type=float, default=4.0,
                   help="heap as a multiple of the minimum (default 4)")
    p.add_argument("--coalloc", action="store_true",
                   help="enable HPM-guided co-allocation")
    p.add_argument("--no-monitoring", action="store_true",
                   help="disable event sampling")
    p.add_argument("--interval", default="auto", choices=INTERVAL_NAMES)
    p.add_argument("--gc-plan", default="genms", choices=["genms", "gencopy"])
    p.add_argument("--event", default="L1D_MISS", choices=PEBS_EVENTS)
    p.add_argument("--seed", type=int, default=1)


def add_local_run_options(p) -> None:
    """One benchmark, run in this process: the interpreter is a choice
    too (it is not part of the spec, so ``submit`` has none)."""
    add_run_options(p)
    p.add_argument("--no-fastpath", action="store_true",
                   help="run the reference interpreter instead of the "
                        "translated fast path (same results, slower)")


def add_jobs_option(p) -> None:
    p.add_argument("--jobs", type=positive_int, default=None, metavar="N",
                   help="worker processes for uncached runs (default: "
                        "REPRO_JOBS or the CPU count; 1 = serial)")
    p.add_argument("--progress", action="store_true",
                   help="stream fleet job events (queued/started/"
                        "finished/cache-hit, with an ETA) to stderr")
    p.add_argument("--progress-log", metavar="PATH", default=None,
                   help="append fleet job events to a JSONL event log")


def run_spec(args, benchmark: Optional[str] = None) -> RunSpec:
    """The spec the shared run options describe (``submit`` names its
    benchmarks one by one; most commands have no ``--until-cycles``)."""
    return RunSpec(
        benchmark=benchmark or args.benchmark,
        heap_mult=args.heap_mult,
        coalloc=args.coalloc,
        monitoring=not args.no_monitoring,
        interval=args.interval,
        gc_plan=args.gc_plan,
        event=args.event,
        seed=args.seed,
        until_cycles=getattr(args, "until_cycles", None),
    )


def fastpath(args) -> Optional[int]:
    """The execution level ``--no-fastpath`` asks for (None: default)."""
    return 0 if args.no_fastpath else None


def write_or_exit(command: str, what: str, path: str, content):
    """Write ``content`` to ``path``, or exit with one line naming
    ``command``, ``what`` and ``path``.

    A str is written as is, a callable is called with ``path`` (the
    writers that open the file themselves; its result is returned), and
    anything else is written as indented JSON.
    """
    try:
        if callable(content):
            return content(path)
        with open(path, "w") as fh:
            if isinstance(content, str):
                fh.write(content)
            else:
                json.dump(content, fh, indent=1, default=str)
                fh.write("\n")
    except OSError as exc:
        raise SystemExit(f"{command}: cannot write {what} to {path!r}: "
                         f"{exc}")


def not_a_record(command: str, path: str) -> SystemExit:
    return SystemExit(f"{command}: {path!r} is not an exported run record "
                      "of this version (re-export it with `repro run "
                      "BENCH --record PATH`)")


def load_record_or_exit(command: str, path: str):
    """The exported run record at ``path``, or exit naming ``command``."""
    from repro.analysis.diff import load_record

    try:
        return load_record(path)
    except OSError as exc:
        raise SystemExit(f"{command}: cannot read {path!r}: {exc}")
    except (ValueError, KeyError, TypeError, AttributeError):
        raise not_a_record(command, path)


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------

def cmd_list(args) -> None:
    for row in ex.table1():
        print(f"{row.name:10s} {row.description}")


def cmd_run(args) -> None:
    from repro.harness import runner
    from repro.telemetry import Telemetry
    from repro.telemetry.export import (collapsed_stacks, write_chrome_trace,
                                        write_collapsed, write_jsonl,
                                        write_prometheus)

    spec = run_spec(args)
    telemetry = (Telemetry()
                 if (args.trace or args.metrics or args.prom
                     or args.collapsed)
                 else None)
    # Exported records (schema 5) carry the decision ledger and the
    # health report, so `repro explain --from REC.json`,
    # `repro doctor --from REC.json`, and `repro diff` work on them
    # without re-running anything.
    lineage = None
    health = None
    if args.record:
        from repro.health import HealthMonitor
        from repro.lineage import DecisionLedger

        lineage = DecisionLedger()
        health = HealthMonitor()

    resume_from = None
    if args.resume:
        # CLI resume accepts any checkpoint, pure or not: the user
        # asked to continue *this* run, observers and all.  (The record
        # cache is stricter — see `runner.best_snapshot`.)
        disk = runner._disk()
        if disk is not None:
            resume_from = disk.get_snapshot(spec.base(),
                                            max_cycle=spec.until_cycles)
        if resume_from is None:
            raise SystemExit(
                f"run: no checkpoint to resume for this spec (run with "
                f"--checkpoint-every first, and keep the same options)")

    on_checkpoint = None
    stored = []
    if args.checkpoint_every or spec.until_cycles is not None:
        def on_checkpoint(snap):
            runner.store_snapshot(spec, snap)
            stored.append(snap)

    vm = runner.start(spec, telemetry=telemetry, lineage=lineage,
                      health=health, fastpath=fastpath(args),
                      resume_from=resume_from)
    if resume_from is not None:
        # A resumed run continues the checkpoint's own observers (they
        # hold the prefix); the fresh ones built above are never
        # attached.  Refuse, before a cycle is simulated, when the
        # checkpoint lacks an observer the output flags need.
        obs = vm.observers
        lacks = []
        if telemetry is not None and not obs.telemetry.enabled:
            lacks.append("telemetry (--trace/--metrics/--prom/--collapsed)")
        if args.record and (obs.lineage is None or obs.health is None):
            lacks.append("the decision ledger and health monitor (--record)")
        if lacks:
            raise SystemExit(
                f"run: the checkpoint at cycle {resume_from.cycle:,} was "
                f"taken without {' or '.join(lacks)}, and a resumed run "
                f"continues the checkpoint's observers; take the "
                f"checkpoint with the same flags, or run without --resume")
        if telemetry is not None:
            telemetry = obs.telemetry
    result = runner.drive(vm, until_cycles=spec.until_cycles,
                          checkpoint_every=args.checkpoint_every,
                          on_checkpoint=on_checkpoint)
    if resume_from is not None:
        print(f"resumed              : from cycle {resume_from.cycle:,}")
    print(f"benchmark            : {result.program}")
    print(f"cycles               : {result.cycles:,}")
    print(f"instructions         : {result.instructions:,}")
    print(f"L1D misses           : {result.counters['L1D_MISS']:,} "
          f"(rate {result.l1_miss_rate:.4f})")
    print(f"L2 misses            : {result.counters['L2_MISS']:,}")
    print(f"DTLB misses          : {result.counters['DTLB_MISS']:,}")
    print(f"GC                   : {result.gc_stats.summary()}")
    print(f"cycles (app/gc/mon)  : {result.app_cycles:,} / "
          f"{result.gc_cycles:,} / {result.monitoring_cycles:,}")
    if result.monitor_summary:
        print(f"monitoring           : {result.monitor_summary}")
    else:
        print("monitoring           : disabled")
    truncated = result.vm is not None and bool(result.vm.cpu.frames)
    if truncated:
        print(f"truncated            : at --until-cycles {spec.until_cycles:,}"
              f" (resume with --resume)")
    if stored:
        print(f"checkpoints          : {len(stored)} stored "
              f"(cycles {', '.join(f'{s.cycle:,}' for s in stored)})")
    if telemetry is not None and args.trace:
        metadata = {"benchmark": spec.benchmark, "seed": spec.seed,
                    "gc_plan": spec.gc_plan, "coalloc": spec.coalloc}
        write_or_exit("run", "trace", args.trace, (
            (lambda p: write_jsonl(p, telemetry.tracer, telemetry.metrics))
            if args.trace.endswith(".jsonl") else
            (lambda p: write_chrome_trace(p, telemetry.tracer,
                                          telemetry.metrics, metadata))))
        print(f"trace                : {args.trace} "
              f"({len(telemetry.tracer.spans)} spans; open in Perfetto)")
    if telemetry is not None and args.prom:
        write_or_exit("run", "metrics", args.prom,
                      lambda p: write_prometheus(p, telemetry.metrics))
        print(f"prometheus           : {args.prom}")
    if telemetry is not None and args.collapsed:
        lines = write_or_exit(
            "run", "collapsed stacks", args.collapsed,
            lambda p: write_collapsed(p, collapsed_stacks(telemetry.tracer)))
        print(f"collapsed            : {args.collapsed} ({lines} stacks; "
              "feed to flamegraph.pl or speedscope)")
    if args.record:
        record = runner.record_from_result(spec, result,
                                           fastpath=fastpath(args))
        write_or_exit("run", "record", args.record, record.to_json())
        print(f"record               : {args.record} (repro diff input)")
    if telemetry is not None and args.metrics:
        print("metrics:")
        for line in telemetry.metrics.render().splitlines():
            print(f"  {line}")


def cmd_figure(args) -> None:
    print(report.FIGURES[args.command].text(
        getattr(args, "benchmarks", None), jobs=args.jobs))


def cmd_ablations(args) -> None:
    from repro.harness import ablations as ab

    ev = ab.event_driver_ablation(jobs=args.jobs)
    print(f"event-driver ablation ({ev.benchmark}):")
    for event, (cycles, l1, co) in ev.by_event.items():
        print(f"  {event:10s} cycles={cycles:,} coallocated={co}")
    oracle = ab.static_oracle_ablation(jobs=args.jobs)
    print(f"\nstatic-oracle ablation ({oracle.benchmark}):")
    print(f"  online speedup {oracle.online_speedup:.1%}, "
          f"oracle speedup {oracle.oracle_speedup:.1%}")
    for name in ("compress", "db"):
        pf = ab.prefetcher_ablation(name)
        print(f"\nprefetcher off ({name}): "
              f"+{pf.slowdown_without:.1%} time, "
              f"L2 misses {pf.l2_misses_with:,} -> {pf.l2_misses_without:,}")


def cmd_cache(args) -> None:
    from repro.harness import runner
    from repro.harness.diskcache import DiskCache, cache_enabled

    if not cache_enabled():
        print("disk cache disabled (REPRO_DISK_CACHE=0)")
        return
    cache = DiskCache()
    if args.cache_command == "clear":
        removed = cache.clear()
        runner.clear_cache()
        print(f"removed {removed} cached result(s) from {cache.root}")
    elif args.cache_command == "prune":
        outcome = cache.prune(max_bytes=args.max_bytes,
                              dry_run=args.dry_run)
        if not args.dry_run:
            runner.clear_cache()
        verb = "would prune" if args.dry_run else "pruned"
        tail = ("would remain" if args.dry_run else "remain")
        print(f"{verb} {outcome['removed_stale']} stale-version and "
              f"{outcome['removed_current']} current-version entr(ies); "
              f"{outcome['bytes'] / 1024:.1f} KiB {tail} in {cache.root}")
    else:
        import os

        if not os.path.isdir(cache.root):
            if args.json:
                print("{}")
            else:
                print(f"cache: no cache directory at {cache.root} "
                      "(nothing cached yet)")
            return
        stats = cache.stats()
        if args.json:
            print(json.dumps(stats, indent=1, sort_keys=True))
            return
        if stats["entries"] == 0 and stats["stale_entries"] == 0:
            print(f"cache: empty at {cache.root} (nothing cached yet)")
            return
        rec, snap = stats["records"], stats["snapshots"]
        print(f"root          : {stats['root']}")
        print(f"code version  : {stats['version']}")
        print(f"entries       : {stats['entries']} (current version)")
        print(f"  records     : {rec['entries']} "
              f"({rec['bytes'] / 1024:.1f} KiB)")
        print(f"  snapshots   : {snap['entries']} "
              f"({snap['bytes'] / 1024:.1f} KiB)")
        print(f"stale entries : {stats['stale_entries']} (older versions)")
        print(f"size          : {stats['bytes'] / 1024:.1f} KiB")


def add_parser(sub) -> None:
    """Attach ``list``, ``run``, the tables and figures, ``ablations`` and
    ``cache`` to the top-level sub-parsers ``sub``."""
    sub.add_parser("list", help="list the benchmark programs") \
        .set_defaults(handler=cmd_list)

    run_p = sub.add_parser("run", help="run one benchmark")
    run_p.set_defaults(handler=cmd_run)
    add_local_run_options(run_p)
    run_p.add_argument("--until-cycles", type=int, default=None, metavar="N",
                       help="stop at the first scheduler boundary past N "
                            "cycles, record the truncated run, and leave a "
                            "checkpoint behind for --resume")
    run_p.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="N",
                       help="capture a resumable checkpoint every N cycles "
                            "(absolute grid, stored in the result cache)")
    run_p.add_argument("--resume", action="store_true",
                       help="continue from the latest cached checkpoint of "
                            "this exact spec instead of starting at cycle 0 "
                            "(bit-identical to never having stopped)")
    run_p.add_argument("--trace", metavar="PATH", default=None,
                       help="write the telemetry trace (Chrome trace-event "
                            "JSON; '.jsonl' suffix selects JSONL)")
    run_p.add_argument("--metrics", action="store_true",
                       help="print the metrics registry after the run")
    run_p.add_argument("--prom", metavar="PATH", default=None,
                       help="write the metrics registry in Prometheus "
                            "text format")
    run_p.add_argument("--record", metavar="PATH", default=None,
                       help="export the portable run record (with its "
                            "provenance manifest) as JSON for `repro diff`")
    run_p.add_argument("--collapsed", metavar="PATH", default=None,
                       help="export the span trace as collapsed stacks "
                            "(flamegraph.pl / speedscope input, weighted "
                            "by simulated self-cycles)")

    # Every table/figure gets --jobs/--progress/--progress-log (those
    # that run a single simulation simply ignore the fan-out knobs);
    # the multi-benchmark ones also get --benchmarks.
    for name, figure in report.FIGURES.items():
        fig_p = sub.add_parser(name, help=f"regenerate {name}")
        fig_p.set_defaults(handler=cmd_figure)
        if figure.benchmarks:
            fig_p.add_argument("--benchmarks", type=benchmark_list,
                               default="",
                               help="comma-separated subset "
                                    "(default: all 16)")
        add_jobs_option(fig_p)
    ablations_p = sub.add_parser("ablations", help="run the ablations")
    ablations_p.set_defaults(handler=cmd_ablations)
    add_jobs_option(ablations_p)

    cache_p = sub.add_parser("cache",
                             help="inspect, prune, or clear the persistent "
                                  "result cache")
    cache_p.set_defaults(handler=cmd_cache)
    cache_p.add_argument("cache_command", choices=["stats", "clear", "prune"])
    cache_p.add_argument("--max-bytes", type=int, default=None, metavar="N",
                         help="prune: evict oldest current-version entries "
                              "until the cache fits in N bytes (stale code "
                              "versions are always removed)")
    cache_p.add_argument("--dry-run", action="store_true",
                         help="prune: report what would be removed without "
                              "deleting anything")
    cache_p.add_argument("--json", action="store_true",
                         help="stats: print the raw stats document as JSON")
