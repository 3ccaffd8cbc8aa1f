"""``python -m repro bench ...``: the sub-parser and its handlers.

Everything the command family knows about its flags lives here —
:func:`add_parser` declares them and hands each sub-command its
``cmd_*`` handler (see :mod:`repro.harness.cli`).  ``run`` appends
every executed case to the history and ``history`` reads it back;
``pairs`` judges the checkout against a base commit with perfbench and
writes ``BENCH_<workload>.json``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.bench import history as hist
from repro.bench.execute import CaseRun, run_case
from repro.bench.registry import BenchCase, all_cases, get_case
from repro.harness.cli import write_or_exit

#: How many trailing entries ``bench history`` shows.
HISTORY_TAIL = 20


def parse_params(pairs: Optional[List[str]]) -> Dict[str, object]:
    """``--param key=value`` pairs; values parse as JSON when they can.

    ``--param benchmark=fop`` keeps the string; ``--param
    'benchmarks=["fop"]'`` and ``--param repeats=3`` get real types.
    """
    overrides: Dict[str, object] = {}
    for pair in pairs or []:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"bench: --param needs key=value, got {pair!r}")
        try:
            overrides[key] = json.loads(raw)
        except ValueError:
            overrides[key] = raw
    return overrides


def select_cases(names: List[str], all_flag: bool) -> List[BenchCase]:
    if all_flag:
        return all_cases()
    if not names:
        known = ", ".join(c.name for c in all_cases())
        raise SystemExit(f"bench: name at least one case or pass --all; "
                         f"known cases: {known}")
    try:
        return [get_case(name) for name in names]
    except ValueError as exc:
        raise SystemExit(f"bench: {exc}")


def resolve_selection(cases: List[BenchCase],
                      overrides: Dict[str, object]) -> List[Dict[str, object]]:
    """Each selected case's share of the ``--param`` overrides, checked.

    ``--param`` is shared across the selection, so every key must exist
    on at least one selected case and each case receives only the keys
    it declares; every value is validated here, before any case runs.
    """
    for key in overrides:
        if not any(key in case.params for case in cases):
            known = sorted({k for case in cases for k in case.params})
            raise SystemExit(f"bench: no selected case has parameter "
                             f"{key!r}; known: {', '.join(known)}")
    shares = [{k: v for k, v in overrides.items() if k in case.params}
              for case in cases]
    try:
        for case, mine in zip(cases, shares):
            case.resolve_params(mine)
    except ValueError as exc:
        raise SystemExit(f"bench: {exc}")
    return shares


def _gate_line(gate: dict) -> str:
    status = "ok" if gate["passed"] else "FAIL"
    return (f"    [{status}] {gate['metric']} {gate['op']} "
            f"{gate['limit']!r} (got {gate['value']!r})")


def _print_case_run(run: CaseRun) -> None:
    verdict = "PASS" if run.passed else "FAIL"
    primary = run.primary_value
    primary_txt = (f"{primary:.4g}" if isinstance(primary, float)
                   else str(primary))
    print(f"{run.case.name:18s} {verdict}  "
          f"{run.case.primary_metric}={primary_txt}  "
          f"wall {run.wall_s:.2f}s")
    for gate in run.gates:
        if not gate["passed"]:
            print(_gate_line(gate))


def cmd_list(args) -> None:
    for case in all_cases():
        print(f"{case.name:18s} {case.primary_metric}, "
              f"{len(case.gates)} gate(s)")
        print(f"         {case.description}")
        for gate in case.gates:
            limit = (f"param {gate.limit!r}" if isinstance(gate.limit, str)
                     else repr(gate.limit))
            print(f"           gate: {gate.metric} {gate.op} {limit}")


def cmd_run(args) -> None:
    cases = select_cases(args.cases, args.all)
    shares = resolve_selection(cases, parse_params(args.param))
    # The history is opened before any case runs: a result that took
    # minutes must not be lost to a mistyped path.
    write_or_exit("bench", "history", args.history, hist.append)

    failed = []
    for case, mine in zip(cases, shares):
        run = run_case(case, mine)
        _print_case_run(run)
        entry = hist.build_entry(run)
        write_or_exit("bench", "history", args.history,
                      lambda path: hist.append(path, entry))
        if not run.passed:
            failed.append(case.name)
    print(f"history -> {args.history} (+{len(cases)} entries)")
    if failed:
        raise SystemExit(f"bench: gate failure in: {', '.join(failed)}")


def cmd_history(args) -> None:
    entries, skipped = hist.load(args.history)
    if args.case:
        entries = [e for e in entries if e.get("case") == args.case]
    entries = entries[-HISTORY_TAIL:]
    if args.json:
        print(json.dumps(entries, indent=1, default=str))
        return
    if not entries:
        print(f"bench history: no entries in {args.history}"
              + (f" for case {args.case!r}" if args.case else ""))
        if skipped:
            print(f"({skipped} corrupt line(s) skipped)")
        return
    for e in entries:
        primary = (e.get("primary") or {}).get("metric", "?")
        value = (e.get("metrics") or {}).get(primary)
        value_txt = f"{value:.4g}" if isinstance(value, float) else str(value)
        sha = (e.get("git_sha") or "-")[:10]
        code = (e.get("code_version") or "-")[:10]
        print(f"{e.get('iso', '?'):20s} {e.get('case', '?'):18s} "
              f"{primary}={value_txt:<10s} code={code} git={sha}"
              + ("" if e.get("passed", True) else "  [FAILED]"))
    tail = f"{len(entries)} entr(y/ies) from {args.history}"
    if skipped:
        tail += f"; {skipped} corrupt line(s) skipped"
    print(tail)


def cmd_pairs(args) -> None:
    from repro.bench import pairs

    doc = pairs.judge(args.base, args.workload)
    for name, row in doc["summary"].items():
        print(f"{name:22s} {row['verdict']:10s} {row['parent_median']:.6g}"
              f" -> {row['change_median']:.6g}, change better in "
              f"{row['change_wins']}/{row['pairs']} pairs")
    print(f"sim_cycles_per_kinstr matched every pair: "
          f"{doc['sim_cycles_per_kinstr_matched_every_pair']}")
    print(f"judgement -> BENCH_{args.workload}.json")


def cmd_profile(args) -> None:
    from repro.bench import profile as prof
    from repro.telemetry.export import write_collapsed

    [case] = select_cases([args.case], False)
    [mine] = resolve_selection([case], parse_params(args.param))
    report = prof.profile_case(case, mine)
    print(prof.format_report(report))
    if args.collapsed:
        lines = write_or_exit(
            "bench", "collapsed stacks", args.collapsed,
            lambda path: write_collapsed(path, report.stacks))
        print(f"collapsed stacks -> {args.collapsed} ({lines} lines; "
              "feed to flamegraph.pl or speedscope)")
    if args.json:
        write_or_exit("bench", "profile report", args.json,
                      report.to_json())
        print(f"profile report -> {args.json}")


def add_parser(sub) -> None:
    """Attach the ``bench`` family to the top-level sub-parsers ``sub``."""
    bench_p = sub.add_parser(
        "bench", help="the ratio gate: run the in-process A/B cases, "
                      "keep their history, judge a change in pairs, "
                      "self-profile")
    bench_sub = bench_p.add_subparsers(dest="bench_command", required=True)

    def command(name: str, handler, help: str):
        p = bench_sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    def add_history_option(p) -> None:
        p.add_argument("--history", metavar="PATH",
                       default=hist.DEFAULT_HISTORY,
                       help=f"bench trajectory file "
                            f"(default {hist.DEFAULT_HISTORY})")

    def add_param_option(p) -> None:
        p.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="override a case parameter (value parsed as "
                            "JSON when possible; repeatable)")

    command("list", cmd_list, "list the registered cases, their gates, "
                              "and primary metrics")

    run_p = command("run", cmd_run,
                    "execute cases and append them to the history; exit 1 "
                    "on any gate failure")
    run_p.add_argument("cases", nargs="*", metavar="CASE",
                       help="case names (see `bench list`)")
    run_p.add_argument("--all", action="store_true",
                       help="run every registered case")
    add_param_option(run_p)
    add_history_option(run_p)

    pairs_p = command("pairs", cmd_pairs,
                      "judge this checkout against BASE: ten alternating "
                      "perfbench pairs, a verdict per end-to-end metric, "
                      "written to BENCH_<WORKLOAD>.json; exit 1 when a run "
                      "failed, never on a verdict")
    pairs_p.add_argument("base", metavar="BASE",
                         help="the commit to compare against (any git "
                              "revision)")
    pairs_p.add_argument("workload", metavar="WORKLOAD",
                         help="a workload of BENCHMARK.json")

    hist_p = command("history", cmd_history,
                     "show the recorded bench trajectory")
    hist_p.add_argument("--case", metavar="NAME", default=None,
                        help="restrict to one case")
    hist_p.add_argument("--json", action="store_true",
                        help="print the raw entries as JSON")
    add_history_option(hist_p)

    prof_p = command("profile", cmd_profile,
                     "run one case under cProfile: subsystem wall-time "
                     "attribution + collapsed stacks")
    prof_p.add_argument("case", metavar="CASE")
    add_param_option(prof_p)
    prof_p.add_argument("--collapsed", metavar="PATH", default=None,
                        help="write collapsed stacks (flamegraph.pl "
                             "/ speedscope input)")
    prof_p.add_argument("--json", metavar="PATH", default=None,
                        help="write the attribution report as JSON")
