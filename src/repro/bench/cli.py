"""``python -m repro bench ...``: the sub-parser and its handlers.

Everything the command family knows about its flags lives here —
:func:`add_parser` declares them, the ``cmd_*`` handlers beside it
read them — so :mod:`repro.__main__` needs one hook and one dispatch
entry.  ``run`` is the only command that simulates: it appends every
executed case to the history and writes its ``BENCH_<case>.json``;
``compare`` and ``history`` only read that history back.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.bench import compare as cmp
from repro.bench import history as hist
from repro.bench.execute import CaseRun, run_case
from repro.bench.registry import BenchCase, all_cases, get_case

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


def _unwritable(exc: OSError) -> SystemExit:
    return SystemExit(f"bench: cannot write to {exc.filename!r}: "
                      f"{exc.strerror}")


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
        arrow = ("↓" if case.primary_direction == "lower" else "↑")
        print(f"{case.name:18s} {case.primary_metric} {arrow} "
              f"(±{case.compare_threshold:.0%}), {len(case.gates)} gate(s)")
        print(f"         {case.description}")
        for gate in case.gates:
            limit = (f"param {gate.limit!r}" if isinstance(gate.limit, str)
                     else repr(gate.limit))
            print(f"           gate: {gate.metric} {gate.op} {limit}")


def cmd_run(args) -> None:
    cases = select_cases(args.cases, args.all)
    shares = resolve_selection(cases, parse_params(args.param))
    # Both destinations are opened before any case runs: a result that
    # took minutes must not be lost to a mistyped path.
    try:
        hist.append(args.history)
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise _unwritable(exc)

    failed = []
    for case, mine in zip(cases, shares):
        run = run_case(case, mine)
        _print_case_run(run)
        entry = hist.build_entry(run)
        artifact = os.path.join(args.out_dir, f"BENCH_{case.name}.json")
        try:
            hist.append(args.history, entry)
            with open(artifact, "w") as fh:
                json.dump(entry, fh, indent=1, default=str)
                fh.write("\n")
        except OSError as exc:
            raise _unwritable(exc)
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


def cmd_compare(args) -> None:
    history, skipped = hist.load(args.history)
    newest = cmp.newest_entries(history)
    absent = [name for name in args.cases if name not in newest]
    if absent:
        raise SystemExit(f"bench: no entry in {args.history} for: "
                         f"{', '.join(absent)} (see `repro bench run`)")
    entries = [newest[name] for name in args.cases or newest]
    if not entries:
        print(f"bench compare: nothing to score in {args.history}")
        return
    scores = [cmp.score_entry(entry, history) for entry in entries]
    print(cmp.format_scores(scores))
    if skipped:
        print(f"({skipped} corrupt history line(s) skipped)")
    gate_failures = [e["case"] for e in entries if not e.get("passed")]
    if gate_failures:
        raise SystemExit(
            f"bench: gate failure in: {', '.join(gate_failures)}")
    if cmp.has_failures(scores):
        bad = [f"{s['case']} ({s['verdict']})" for s in scores
               if s["verdict"] in cmp.FAILING_VERDICTS]
        raise SystemExit(f"bench: regression verdict in: {', '.join(bad)}")


def cmd_profile(args) -> None:
    from repro.bench import profile as prof
    from repro.telemetry.export import write_collapsed

    [case] = select_cases([args.case], False)
    [mine] = resolve_selection([case], parse_params(args.param))
    report = prof.profile_case(case, mine)
    print(prof.format_report(report))
    if args.collapsed:
        lines = write_collapsed(args.collapsed, report.stacks)
        print(f"collapsed stacks -> {args.collapsed} ({lines} lines; "
              "feed to flamegraph.pl or speedscope)")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_json(), fh, indent=1)
            fh.write("\n")
        print(f"profile report -> {args.json}")


def add_parser(sub) -> None:
    """Attach the ``bench`` family to the top-level sub-parsers ``sub``;
    each sub-command carries its handler as ``args.bench_handler``."""
    bench_p = sub.add_parser(
        "bench", help="the ratio gate: run the in-process A/B cases, "
                      "keep their history, score regressions, "
                      "self-profile")
    bench_sub = bench_p.add_subparsers(dest="bench_command", required=True)

    def command(name: str, handler, help: str):
        p = bench_sub.add_parser(name, help=help)
        p.set_defaults(bench_handler=handler)
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
                    "execute cases, append them to the history and write "
                    "BENCH_<case>.json; exit 1 on any gate failure")
    run_p.add_argument("cases", nargs="*", metavar="CASE",
                       help="case names (see `bench list`)")
    run_p.add_argument("--all", action="store_true",
                       help="run every registered case")
    add_param_option(run_p)
    run_p.add_argument("--out-dir", metavar="DIR", default=".",
                       help="directory for BENCH_<case>.json artifacts "
                            "(default: current directory)")
    add_history_option(run_p)

    cmp_p = command("compare", cmd_compare,
                    "score the newest history entry of each case against "
                    "the window before it (no simulation); exit 1 on a "
                    "regressed or invalid verdict")
    cmp_p.add_argument("cases", nargs="*", metavar="CASE",
                       help="cases to score (default: every case in the "
                            "history)")
    add_history_option(cmp_p)

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


def dispatch(args) -> None:
    args.bench_handler(args)
