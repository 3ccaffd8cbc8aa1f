"""Handlers behind ``python -m repro bench ...``.

Argument *parsing* lives in :mod:`repro.__main__` with the rest of the
CLI; this module owns the behaviour: case selection, ``--param``
overrides, artifact/report writing, history appends, verdict printing,
and exit codes.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional

from repro.bench import compare as cmp
from repro.bench import history as hist
from repro.bench.execute import CaseRun, run_case
from repro.bench.registry import BenchCase, all_cases, get_case

#: Schema of the ``bench run --json`` report envelope.
REPORT_SCHEMA = 1


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


def check_override_keys(cases: List[BenchCase],
                        overrides: Dict[str, object]) -> None:
    """Every ``--param`` key must exist on at least one selected case."""
    for key in overrides:
        if not any(key in case.params for case in cases):
            known = sorted({k for case in cases for k in case.params})
            raise SystemExit(f"bench: no selected case has parameter "
                             f"{key!r}; known: {', '.join(known)}")


def _gate_line(gate: dict) -> str:
    status = "ok" if gate["passed"] else "FAIL"
    return (f"    [{status}] {gate['metric']} {gate['op']} "
            f"{gate['limit']!r} (got {gate['value']!r})")


def _print_case_run(run: CaseRun) -> None:
    verdict = "PASS" if run.passed else "FAIL"
    wall = run.wall
    primary = run.primary_value
    primary_txt = (f"{primary:.4g}" if isinstance(primary, float)
                   else str(primary))
    print(f"{run.case.name:8s} {verdict}  "
          f"{run.case.primary_metric}={primary_txt}  "
          f"wall median {wall['median']:.2f}s "
          f"(mad {wall['mad']:.3f}, min {wall['min']:.2f}, "
          f"n={wall['n']})")
    for gate in run.gates:
        if not gate["passed"]:
            print(_gate_line(gate))


def _execute_selection(args) -> List[dict]:
    """Run the selected cases, returning their history entries.

    Prints progress per case; writes ``BENCH_<case>.json`` artifacts
    and appends history unless disabled.  The caller owns exit codes.
    """
    overrides = parse_params(getattr(args, "param", None))
    cases = select_cases(getattr(args, "cases", []) or [],
                         getattr(args, "all", False))
    check_override_keys(cases, overrides)

    entries: List[dict] = []
    for case in cases:
        mine = {k: v for k, v in overrides.items() if k in case.params}
        run = run_case(case, mine, repeats=args.repeats, warmup=args.warmup)
        _print_case_run(run)
        entry = hist.build_entry(run)
        entries.append(entry)
        if not getattr(args, "no_artifacts", False):
            out_dir = getattr(args, "out_dir", None) or "."
            os.makedirs(out_dir, exist_ok=True)
            artifact = os.path.join(out_dir, f"BENCH_{case.name}.json")
            with open(artifact, "w") as fh:
                json.dump(entry, fh, indent=1, default=str)
                fh.write("\n")
        if not getattr(args, "no_history", False):
            hist.append(args.history, entry)
    return entries


def _write_report(path: str, entries: List[dict]) -> None:
    doc = {
        "schema": REPORT_SCHEMA,
        "ts": time.time(),
        "entries": entries,
        "passed": all(e.get("passed") for e in entries),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, default=str)
        fh.write("\n")


def _load_report(path: str) -> List[dict]:
    try:
        with open(path, "r") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"bench: cannot read {path!r}: {exc}")
    except ValueError:
        raise SystemExit(f"bench: {path!r} is not a bench report "
                         "(see `repro bench run --json`)")
    if not isinstance(doc, dict) or doc.get("schema") != REPORT_SCHEMA \
            or not isinstance(doc.get("entries"), list):
        raise SystemExit(f"bench: {path!r} is not a bench report "
                         "(see `repro bench run --json`)")
    return doc["entries"]


def cmd_list(args) -> None:
    for case in all_cases():
        arrow = ("↓" if case.primary_direction == "lower" else "↑")
        print(f"{case.name:8s} {case.primary_metric} {arrow} "
              f"(±{case.compare_threshold:.0%}), {len(case.gates)} gate(s)")
        print(f"         {case.description}")
        for gate in case.gates:
            limit = (f"param {gate.limit!r}" if isinstance(gate.limit, str)
                     else repr(gate.limit))
            print(f"           gate: {gate.metric} {gate.op} {limit}")


def cmd_run(args) -> None:
    entries = _execute_selection(args)
    if args.json:
        _write_report(args.json, entries)
        print(f"report -> {args.json}")
    if not getattr(args, "no_history", False):
        print(f"history -> {args.history} (+{len(entries)} entries)")
    failed = [e["case"] for e in entries if not e["passed"]]
    if failed:
        raise SystemExit(f"bench: gate failure in: {', '.join(failed)}")


def cmd_history(args) -> None:
    entries, skipped = hist.load(args.history)
    if args.case:
        entries = [e for e in entries if e.get("case") == args.case]
    entries = entries[-args.limit:]
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
        print(f"{e.get('iso', '?'):20s} {e.get('case', '?'):8s} "
              f"{primary}={value_txt:<10s} code={code} git={sha}"
              + ("" if e.get("passed", True) else "  [FAILED]"))
    tail = f"{len(entries)} entr(y/ies) from {args.history}"
    if skipped:
        tail += f"; {skipped} corrupt line(s) skipped"
    print(tail)


def cmd_compare(args) -> None:
    history, skipped = hist.load(args.history)
    if args.from_report:
        entries = _load_report(args.from_report)
    else:
        entries = _execute_selection(args)
        print()
    scores = cmp.score_run(entries, history, window=args.window,
                           threshold=args.threshold,
                           code_version=args.baseline_code)
    print(cmp.format_scores(scores))
    if skipped:
        print(f"({skipped} corrupt history line(s) skipped)")
    if args.json:
        doc = {"schema": REPORT_SCHEMA, "scores": scores,
               "window": args.window, "history": args.history}
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=1, default=str)
            fh.write("\n")
        print(f"verdicts -> {args.json}")
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

    overrides = parse_params(getattr(args, "param", None))
    case = select_cases([args.case], False)[0]
    check_override_keys([case], overrides)
    report = prof.profile_case(case, overrides, warmup=args.warmup)
    print(prof.format_report(report, top=args.top))
    if args.collapsed:
        lines = write_collapsed(args.collapsed, report.stacks)
        print(f"collapsed stacks -> {args.collapsed} ({lines} lines; "
              "feed to flamegraph.pl or speedscope)")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_json(), fh, indent=1)
            fh.write("\n")
        print(f"profile report -> {args.json}")
