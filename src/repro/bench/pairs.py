"""The judge of a speed change: ``repro bench pairs BASE WORKLOAD``.

Like the paper's feedback loop, which judges a placement against the
experiment's own baseline (section 6.4), a change is judged against
its base commit, not a rolling history.  :func:`judge` extracts
``BASE`` with ``git archive`` and copies the checkout's working tree
into two sibling directories of one temporary directory, ``parent``
and ``change`` (a tree's path shows in its ``peak_rss_mib``, so both
paths have one length), byte-compiles both, and runs a perfbench
workload in them: ten pairs, seeds 1-10, even-indexed pairs parent
first, odd-indexed change first.  Each end-to-end metric
of ``BENCHMARK.json`` gets the first verdict that holds:

* ``worse`` -- the change's median is worse than the parent's by more
  than the metric's bound (relative to the parent's median),
* ``unresolved`` -- either side's IQR exceeds the bound times its
  median, unless every change run beats every parent run,
* ``gain`` -- the change is better in at least 9 of the 10 pairs (ties
  count for neither) and its median is better by more than the
  parent's IQR,
* ``same`` -- none of these.

The judgement goes to ``BENCH_<WORKLOAD>.json`` at the checkout's
root.  A tree that does not compile, or a run that exits non-zero,
reports ``"correct": false`` or names other metrics than
``BENCHMARK.json``, fails it closed: nothing is written, the exit is
non-zero.  A verdict never sets the exit code.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import tempfile
from typing import Callable, Dict, List, Tuple

#: Pairs per judgement (seeds 1..PAIRS) and the pairs a gain must win.
PAIRS = 10
GAIN_WINS = 9

#: ``run(tree, workload, seed, seconds) -> (exit code, stdout)``.
Runner = Callable[[str, str, int, float], Tuple[int, str]]
#: ``byte_compile(tree) -> (exit code, output)``.
Compiler = Callable[[str], Tuple[int, str]]


def _command(tree: str) -> List[str]:
    with open(os.path.join(tree, "BENCHMARK.json")) as fh:
        return json.load(fh)["command"]


def compile_tree(tree: str) -> Tuple[int, str]:
    """Byte-compile ``tree``'s ``src`` and ``perfbench`` with the
    declared command's interpreter.  A run under
    ``PYTHONDONTWRITEBYTECODE`` would otherwise compile its sources
    itself, and the compiler's memory would show in ``peak_rss_mib``;
    ``compileall`` writes the ``.pyc`` files whatever that says."""
    proc = subprocess.run(
        [_command(tree)[0], "-m", "compileall", "-q", "src", "perfbench"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    return proc.returncode, proc.stdout


def run_perfbench(tree: str, workload: str, seed: int,
                  seconds: float) -> Tuple[int, str]:
    """One end-to-end run of ``tree``'s declared benchmark command."""
    command = _command(tree)
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def _git(root: str, *args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=root, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench: git {' '.join(args)}: "
                         f"{proc.stderr.strip()}")
    return proc.stdout.strip()


def _extract(root: str, sha: str, into: str) -> None:
    """``git archive sha | tar -x``: the commit's files, no ``.git``."""
    archive = subprocess.Popen(["git", "archive", sha], cwd=root,
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise SystemExit(f"bench: could not extract {sha} with git archive")


def _copy_checkout(root: str, into: str) -> None:
    """The checkout's working-tree files, tracked and untracked but not
    ignored, copied into ``into`` (no ``.git``)."""
    listed = _git(root, "ls-files", "-z", "--cached", "--others",
                  "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        source = os.path.join(root, name)
        if os.path.isfile(source):    # not a tracked file deleted here
            target = os.path.join(into, name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(source, target)


def _metrics(side: str, seed: int, code: int, stdout: str,
             names: List[str]) -> Dict[str, float]:
    """The metric values of one run's last JSON line, checked."""
    try:
        doc = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        doc = None
    where = f"the {side} run of seed {seed}"
    if code != 0 or not isinstance(doc, dict):
        raise SystemExit(f"bench: {where} exited {code}; nothing written")
    if doc.get("correct") is not True:
        raise SystemExit(f"bench: {where} reported wrong output; "
                         f"nothing written")
    if sorted(doc.get("metrics", ())) != sorted(names):
        raise SystemExit(f"bench: {where} reports metrics "
                         f"{sorted(doc.get('metrics', ()))}, not "
                         f"{sorted(names)}; nothing written")
    return {name: doc["metrics"][name]["value"] for name in names}


def _iqr(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarise(pairs: List[dict], metrics: List[dict]) -> Dict[str, dict]:
    """Per declared metric: medians, IQRs, ranges, wins, ties, verdict.

    ``metrics`` are ``BENCHMARK.json``'s ``end_to_end`` entries; each
    pair gains its ``change_wins`` per metric.
    """
    summary = {}
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        # sign * value grows as the metric gets better.
        sign = 1 if metric["better"] == "higher" else -1
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        for pair, p, c in zip(pairs, parent, change):
            pair.setdefault("change_wins", {})[name] = sign * (c - p) > 0
        wins = sum(pair["change_wins"][name] for pair in pairs)
        ties = sum(c == p for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        p_iqr, c_iqr = _iqr(parent), _iqr(change)
        apart = (min(sign * c for c in change)
                 > max(sign * p for p in parent))
        if sign * (p_med - c_med) > bound * abs(p_med):
            verdict = "worse"
        elif not apart and (p_iqr > bound * abs(p_med)
                            or c_iqr > bound * abs(c_med)):
            verdict = "unresolved"
        elif wins >= GAIN_WINS and sign * (c_med - p_med) > p_iqr:
            verdict = "gain"
        else:
            verdict = "same"
        summary[name] = {
            "better": metric["better"],
            "bound": bound,
            "parent_median": round(p_med, 4),
            "change_median": round(c_med, 4),
            "change_vs_parent_pct": (round(100 * (c_med - p_med) / p_med, 2)
                                     if p_med else None),
            "parent_iqr": round(p_iqr, 4),
            "change_iqr": round(c_iqr, 4),
            "parent_range": [min(parent), max(parent)],
            "change_range": [min(change), max(change)],
            "change_wins": wins,
            "ties": ties,
            "pairs": len(pairs),
            "verdict": verdict,
        }
    return summary


def judge(base: str, workload: str, run: Runner = run_perfbench,
          byte_compile: Compiler = compile_tree) -> dict:
    """Judge the current checkout against ``base`` on ``workload`` and
    write ``BENCH_<workload>.json``; returns the written document."""
    root = _git(".", "rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    known = [w["name"] for w in declared["workloads"]]
    if workload not in known:
        raise SystemExit(f"bench: unknown workload {workload!r}; "
                         f"known: {', '.join(known)}")
    base_sha = _git(root, "rev-parse", "--verify", f"{base}^{{commit}}")
    change = {"git_sha": _git(root, "rev-parse", "HEAD"),
              "dirty": bool(_git(root, "status", "--porcelain"))}
    seconds = declared["run_seconds"]
    names = [m["name"] for m in declared["end_to_end"]]
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees = {side: os.path.join(scratch, side)
                 for side in ("parent", "change")}
        for tree in trees.values():
            os.mkdir(tree)
        _extract(root, base_sha, trees["parent"])
        _copy_checkout(root, trees["change"])
        for side, tree in trees.items():
            code, output = byte_compile(tree)
            if code != 0:
                last = (output.strip().splitlines() or ["no output"])[-1]
                raise SystemExit(f"bench: could not compile the {side} "
                                 f"tree ({last}); nothing written")
        for seed in range(1, PAIRS + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                print(f"pair {seed}/{PAIRS}: {side}", flush=True)
                pair[side] = _metrics(
                    side, seed, *run(trees[side], workload, seed, seconds),
                    names)
            pairs.append(pair)
    doc = {
        "schema": 1,
        "workload": workload,
        "command": " ".join(declared["command"] + [
            "--workload", workload, "--seed", "K", "--seconds",
            str(seconds), "--trace", "0"]),
        "method": "alternating pairs: even-indexed pairs run the parent "
                  "first, odd-indexed the change first; each run a fresh "
                  "process in a sibling directory of one temporary "
                  "directory, the parent's a git archive of its commit, "
                  "the change's a copy of the checkout's working tree",
        "host": f"{os.cpu_count()} CPUs, {platform.system()}, "
                f"Python {platform.python_version()}",
        "base": {"git_sha": base_sha},
        "change": change,
        "sim_cycles_per_kinstr_matched_every_pair": all(
            pair["parent"]["sim_cycles_per_kinstr"]
            == pair["change"]["sim_cycles_per_kinstr"] for pair in pairs),
        "all_runs_correct": True,
        "summary": summarise(pairs, declared["end_to_end"]),
        "pairs": pairs,
    }
    with open(os.path.join(root, f"BENCH_{workload}.json"), "w") as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")
    return doc
