"""``python -m repro audit|diff|explain|doctor|timeline|disasm``: the
commands that look inside a run (see :mod:`repro.harness.cli` for how
families register)."""

from __future__ import annotations

from typing import List

from repro.harness.cli import (add_local_run_options, fastpath,
                               load_record_or_exit, not_a_record,
                               positive_int, run_spec, write_or_exit)
from repro.harness.runner import INTERVAL_NAMES, execute
from repro.hw.events import PEBS_EVENTS
from repro.workloads import suite


def _refuse_invalid_lineage(command: str, problems: List[str]) -> None:
    """Print the ledger's problems and exit before anything walks it."""
    if problems:
        print("lineage INVALID:")
        for problem in problems:
            print(f"  {problem}")
        raise SystemExit(f"{command}: the decision ledger is invalid "
                         f"({len(problems)} problem(s) above)")


def cmd_audit(args) -> None:
    from repro.analysis import fidelity

    intervals = tuple(v.strip() for v in args.intervals.split(",")
                      if v.strip())
    for name in intervals:
        if name not in INTERVAL_NAMES:
            raise SystemExit(f"unknown interval {name!r}; "
                             f"known: {', '.join(INTERVAL_NAMES)}")
    report = fidelity.audit_benchmark(
        args.benchmark, intervals=intervals, seed=args.seed,
        top_n=args.top, event=args.event, coalloc=args.coalloc)
    print(fidelity.format_report(report))
    if args.json:
        write_or_exit("audit", "report", args.json, report.to_json())
        print(f"\njson report: {args.json}")


def cmd_diff(args) -> None:
    from repro.analysis import provenance
    from repro.analysis.diff import diff_records, format_diff

    a, b = (load_record_or_exit("diff", path)
            for path in (args.record_a, args.record_b))
    print(f"a: {provenance.describe(a.provenance)}")
    print(f"b: {provenance.describe(b.provenance)}")
    diff = diff_records(a, b, threshold=args.threshold)
    print(format_diff(diff, args.record_a, args.record_b,
                      limit=args.limit))
    if diff.significant:
        raise SystemExit(1)


def cmd_explain(args) -> None:
    from repro.lineage import DecisionLedger, explain

    if args.from_record:
        doc = load_record_or_exit("explain", args.from_record).lineage
        if not doc:
            raise SystemExit(f"explain: {args.from_record!r} carries no "
                             "lineage (re-export it with this version: "
                             "`repro run BENCH --record PATH`)")
    elif args.fig8:
        from repro.harness import experiments as exps

        ledger = DecisionLedger()
        revert = exps.fig8_revert(args.benchmark, lineage=ledger)
        doc = ledger.to_json()
        print(f"fig8 intervention on {revert.benchmark}: gap applied at "
              f"period {revert.gap_applied_period}, "
              f"reverted={revert.reverted} "
              f"(period {revert.reverted_period})\n")
    else:
        ledger = DecisionLedger()
        execute(run_spec(args), lineage=ledger, fastpath=fastpath(args))
        doc = ledger.to_json()

    _refuse_invalid_lineage("explain", explain.validate(doc))
    target = explain.find_target(doc, field=args.field, revert=args.revert,
                                 decision=args.decision)
    chain = (explain.chain_ids(explain.index_entries(doc), target["id"])
             if target is not None else [])

    if args.json:
        write_or_exit("explain", "report", args.json,
                      {"lineage": doc, "problems": [],
                       "target": target["id"] if target else None,
                       "chain": chain})
        print(f"json report: {args.json}")
    if args.dot:
        write_or_exit("explain", "graph", args.dot,
                      explain.to_dot(doc, chain=chain))
        print(f"dot graph: {args.dot} (render with `dot -Tsvg`)")

    print(explain.format_summary(doc))
    if target is None:
        selector = (f"field {args.field!r}" if args.field
                    else f"revert #{args.revert}" if args.revert is not None
                    else f"decision #{args.decision}")
        raise SystemExit(f"explain: no decision matches {selector}")
    print(f"\njustification chain for #{target['id']}:")
    print(explain.format_chain(doc, target))


def cmd_doctor(args) -> None:
    """Run-health report: phase table, pathology findings, and — when a
    decision ledger rides along — each finding's evidence validated and
    justified against it.  Exits 1 only when evidence fails to resolve
    (the verdict itself is diagnosis, not a gate)."""
    from repro.health.report import HealthReport, format_findings, \
        format_phase_table
    from repro.lineage import explain

    storm_info = None
    if args.from_record:
        record = load_record_or_exit("doctor", args.from_record)
        if not record.health:
            raise SystemExit(f"doctor: {args.from_record!r} carries no "
                             "health report (re-export it with this "
                             "version: `repro run BENCH --record PATH`)")
        try:
            health_report = HealthReport.from_json(record.health)
        except (ValueError, KeyError, TypeError, AttributeError):
            raise not_a_record("doctor", args.from_record)
        lineage_doc = record.lineage
        benchmark = record.program
    else:
        from dataclasses import replace

        from repro.harness import experiments as exps
        from repro.health import HealthMonitor
        from repro.lineage import DecisionLedger

        spec = run_spec(args)
        health = HealthMonitor()
        ledger = DecisionLedger()
        if args.storm:
            if not spec.coalloc:
                # The storm intervenes through the co-allocation policy.
                print("doctor: --storm implies --coalloc")
                spec = replace(spec, coalloc=True)
            try:
                result, driver = exps.revert_storm(
                    spec, count=args.storm_count, fastpath=fastpath(args),
                    lineage=ledger, health=health)
            except ValueError as exc:
                raise SystemExit(f"doctor: {exc}")
            storm_info = {"field": driver.field.qualified_name,
                          "begun": driver.begun,
                          "reverted": driver.reverted()}
            print(f"storm: {driver.begun} experiment(s) seeded on "
                  f"{storm_info['field']}, {driver.reverted()} reverted\n")
        else:
            result = execute(spec, lineage=ledger, health=health,
                             fastpath=fastpath(args))
        health_report = health.report(result.cycles)
        lineage_doc = ledger.to_json()
        benchmark = result.program

    if lineage_doc:
        _refuse_invalid_lineage("doctor", explain.validate(lineage_doc))
    print(f"doctor: {benchmark} — verdict {health_report.verdict.upper()} "
          f"({len(health_report.findings)} finding(s), "
          f"{len(health_report.phases)} phase(s), "
          f"{health_report.intervals} interval(s))")
    print()
    print(format_phase_table(health_report))
    print()
    print(format_findings(health_report))

    # Resolve every finding's evidence against the ledger and print the
    # justification chain behind each finding's primary evidence entry.
    problems: List[str] = []
    chains = {}
    if lineage_doc:
        chains, problems = explain.resolve_evidence(lineage_doc,
                                                    health_report.findings)
        for i, chain in chains.items():
            print(f"\njustification chain for finding [{i}] "
                  f"{health_report.findings[i].detector} "
                  f"(ledger #{chain[-1]}):")
            print(explain.format_chain(lineage_doc, {"id": chain[-1]}))
    elif health_report.findings:
        print("\n(no decision ledger rode along: evidence ids not "
              "validated; run without --from, or re-export the record)")

    if args.json:
        write_or_exit("doctor", "report", args.json,
                      {"benchmark": benchmark,
                       "verdict": health_report.verdict,
                       "report": health_report.to_json(),
                       "storm": storm_info, "problems": problems,
                       "chains": chains})
        print(f"\njson report: {args.json}")

    if problems:
        print("\nevidence INVALID:")
        for problem in problems:
            print(f"  {problem}")
        raise SystemExit(1)


def cmd_timeline(args) -> None:
    from repro.telemetry import Telemetry
    from repro.telemetry.export import format_timeline, read_trace_spans
    from repro.telemetry.tracer import Tracer

    if args.from_trace:
        if args.phases:
            raise SystemExit("timeline: --phases needs a live run (it "
                             "recomputes per-interval HPM vectors); drop "
                             "--from")
        try:
            spans = read_trace_spans(args.from_trace)
        except OSError:
            raise SystemExit(f"timeline: no trace at {args.from_trace!r} "
                             "(run `repro run BENCH --trace PATH` first)")
        except (ValueError, KeyError, TypeError, AttributeError):
            # Malformed JSON, truncated files, and well-formed JSON of
            # the wrong shape (a list, spans missing fields, ...) all
            # land here: a readable message, never a traceback.
            raise SystemExit(f"timeline: {args.from_trace!r} is not an "
                             "exported trace (JSON or JSONL)")
        if not spans:
            print(f"timeline: no spans in {args.from_trace!r}")
            return
        tracer = Tracer()
        tracer.spans = spans
        print(format_timeline(tracer, width=args.width))
        return
    telemetry = Telemetry()
    health = None
    if args.phases:
        from repro.health import HealthMonitor

        health = HealthMonitor()
    result = execute(run_spec(args), telemetry=telemetry, health=health,
                     fastpath=fastpath(args))
    print(format_timeline(telemetry.tracer, total_cycles=result.cycles,
                          width=args.width))
    if health is not None:
        from repro.health.report import format_phase_overlay, format_phase_table

        health_report = health.report(result.cycles)
        print(format_phase_overlay(health_report, result.cycles,
                                   width=args.width))
        print()
        print(format_phase_table(health_report))


def cmd_disasm(args) -> None:
    from repro.core.interest import analyze_compiled_method
    from repro.jit.baseline import compile_baseline
    from repro.jit.disasm import format_compiled_method
    from repro.jit.opt import compile_opt

    workload = suite.build(args.benchmark)
    wanted = args.method
    method = next((m for m in workload.program.all_methods()
                   if m.qualified_name == wanted), None)
    if method is None:
        known = ", ".join(sorted(m.qualified_name
                                 for m in workload.program.all_methods()
                                 if not m.name.startswith("cold")))
        raise SystemExit(f"no method {wanted!r}; try one of: {known}")
    cm = (compile_baseline(method) if args.baseline
          else compile_opt(method))
    cm.code_addr = 0x0800_0000  # nominal base for the listing
    interest = analyze_compiled_method(cm)
    print(format_compiled_method(cm, interest))


def add_parser(sub) -> None:
    """Attach ``audit``, ``diff``, ``explain``, ``doctor``, ``timeline``
    and ``disasm`` to the top-level sub-parsers ``sub``."""
    audit_p = sub.add_parser(
        "audit", help="audit sampled-profile fidelity against the "
                      "simulator's exact miss attribution")
    audit_p.set_defaults(handler=cmd_audit)
    audit_p.add_argument("benchmark", choices=suite.all_names())
    audit_p.add_argument("--intervals", default="25K,50K,100K",
                         help="comma-separated sampling intervals to sweep "
                              "(default 25K,50K,100K)")
    audit_p.add_argument("--seed", type=int, default=1)
    audit_p.add_argument("--top", type=positive_int, default=10,
                         metavar="N", help="hot-set size for the overlap "
                                           "coefficient (default 10)")
    audit_p.add_argument("--event", default="L1D_MISS", choices=PEBS_EVENTS)
    audit_p.add_argument("--coalloc", action="store_true",
                         help="audit with co-allocation enabled (default "
                              "off, the Figure 2 configuration)")
    audit_p.add_argument("--json", metavar="PATH", default=None,
                         help="also write the report as JSON")

    diff_p = sub.add_parser(
        "diff", help="structured diff of two exported run records "
                     "(exit 1 when significantly different)")
    diff_p.set_defaults(handler=cmd_diff)
    diff_p.add_argument("record_a", metavar="A.json")
    diff_p.add_argument("record_b", metavar="B.json")
    diff_p.add_argument("--threshold", type=float, default=0.01,
                        help="relative-delta significance threshold "
                             "(default 0.01)")
    diff_p.add_argument("--limit", type=positive_int, default=40,
                        metavar="N", help="max differences to print")

    explain_p = sub.add_parser(
        "explain", help="print the justification chain behind an online "
                        "optimization decision (decision lineage)")
    explain_p.set_defaults(handler=cmd_explain)
    add_local_run_options(explain_p)
    source = explain_p.add_mutually_exclusive_group()
    source.add_argument("--from", dest="from_record", metavar="RECORD.json",
                        default=None,
                        help="explain a previously exported run record "
                             "(`repro run --record`) instead of re-running")
    source.add_argument("--fig8", action="store_true",
                        help="run the Figure 8 revert experiment (mid-run "
                             "gap injection) and explain its decisions")
    which = explain_p.add_mutually_exclusive_group()
    which.add_argument("--field", metavar="CLASS::FIELD", default=None,
                       help="latest decision touching this qualified field")
    which.add_argument("--revert", type=positive_int, metavar="N",
                       default=None, help="the N-th revert of the run "
                                          "(1-based)")
    which.add_argument("--decision", type=int, metavar="ID", default=None,
                       help="a specific entry id")
    explain_p.add_argument("--json", metavar="PATH", default=None,
                           help="write the full lineage document, "
                                "validation problems, and chain as JSON")
    explain_p.add_argument("--dot", metavar="PATH", default=None,
                           help="write the ledger as a Graphviz digraph "
                                "with the chain highlighted")

    doctor_p = sub.add_parser(
        "doctor", help="run-health report: online phase segmentation, "
                       "pathology detectors, ledger-backed evidence")
    doctor_p.set_defaults(handler=cmd_doctor)
    add_local_run_options(doctor_p)
    doctor_p.add_argument("--from", dest="from_record",
                          metavar="RECORD.json", default=None,
                          help="diagnose a previously exported run record "
                               "(`repro run --record`) instead of "
                               "re-running")
    doctor_p.add_argument("--storm", action="store_true",
                          help="seed a revert storm (repeated bad-placement "
                               "experiments the feedback engine must "
                               "revert) before diagnosing; implies "
                               "--coalloc")
    doctor_p.add_argument("--storm-count", type=positive_int, default=4,
                          metavar="N",
                          help="experiments the storm seeds (default 4)")
    doctor_p.add_argument("--json", metavar="PATH", default=None,
                          help="write the verdict, full health report, "
                               "evidence problems, and justification "
                               "chains as JSON")

    tl_p = sub.add_parser("timeline",
                          help="run one benchmark, print a text timeline")
    tl_p.set_defaults(handler=cmd_timeline)
    add_local_run_options(tl_p)
    tl_p.add_argument("--width", type=int, default=72,
                      help="timeline width in columns (default 72)")
    tl_p.add_argument("--from", dest="from_trace", metavar="PATH",
                      default=None,
                      help="render a previously exported trace (JSON or "
                           "JSONL) instead of re-running the benchmark")
    tl_p.add_argument("--phases", action="store_true",
                      help="overlay the online phase segmentation (a "
                           "phase lane under the timeline plus the phase "
                           "table)")

    dis_p = sub.add_parser("disasm", help="disassemble a benchmark method")
    dis_p.set_defaults(handler=cmd_disasm)
    dis_p.add_argument("benchmark", choices=suite.all_names())
    dis_p.add_argument("method", help="qualified name, e.g. App.scan")
    dis_p.add_argument("--baseline", action="store_true",
                       help="use the baseline compiler instead of opt")
