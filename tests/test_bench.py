"""Tests for ``repro bench``, the ratio gate and the judge of a change.

The registry, the execution harness (one run, cache state restored),
the four built-in cases at toy parameters, the history file and its
corruption tolerance, the self-profiler, and the CLI surface; and
``bench pairs`` on a stub runner: its seeds and order, each verdict at
its edges, and failing closed.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.bench import history as hist
from repro.bench import pairs
from repro.bench import registry
from repro.bench.execute import run_case
from repro.bench.registry import (BenchCase, Gate, all_cases, get_case,
                                  is_finite_number)
from repro.harness import runner

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

FAKE_PARAMS = {"value": 100.0, "floor": 0.0}

#: The built-in cases in registration order, and parameters that make
#: each a seconds-long smoke with its speed floor/ceiling neutralised.
BUILTIN_CASES = ["interp", "interp_superblock", "engine",
                 "observer_overhead"]
TOY_PARAMS = {"benchmark": "fop", "repeats": 1, "benchmarks": ["fop"],
              "heap_mults": [1.0], "min_speedup": 0.0, "max_ratio": 100.0}


def make_case(name="fake", value=100.0, gates=(), run=None):
    """A cheap registerable case whose metric is controlled by a param."""
    def default_run(params):
        return {"value": float(params["value"]), "identical": True}
    return BenchCase(
        name=name, description="synthetic test case",
        run=run or default_run, params=dict(FAKE_PARAMS), gates=tuple(gates),
        primary_metric="value")


@pytest.fixture
def fake_case(monkeypatch):
    """Register a synthetic case without disturbing the builtins."""
    all_cases()  # force builtin registration before we add to REGISTRY
    case = make_case()
    monkeypatch.setitem(registry.REGISTRY, case.name, case)
    return case


_TS = iter(range(10_000, 20_000))


def entry(case="fake", value=100.0, metric="value"):
    """Fabricate one self-describing history entry."""
    return {
        "schema": hist.HISTORY_SCHEMA,
        "case": case,
        "ts": float(next(_TS)),
        "code_version": "codeA",
        "params": dict(FAKE_PARAMS),
        "primary": {"metric": metric},
        "metrics": {metric: value},
        "passed": True,
    }


# ---------------------------------------------------------------------------
# Registry: gates, params, builtins
# ---------------------------------------------------------------------------

class TestGates:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown gate op"):
            Gate("speedup", "!=", 1.0)

    def test_param_limit_resolution(self):
        gate = Gate("speedup", ">=", "min_speedup")
        assert gate.resolve_limit({"min_speedup": 2.5}) == 2.5
        assert Gate("x", "<=", 3.0).resolve_limit({}) == 3.0

    def test_floor_ceiling_equality(self):
        params = {"min_speedup": 1.5}
        assert Gate("s", ">=", "min_speedup").evaluate(
            {"s": 1.5}, params)["passed"]
        assert not Gate("s", ">=", "min_speedup").evaluate(
            {"s": 1.49}, params)["passed"]
        assert Gate("r", "<=", 1.10).evaluate({"r": 1.10}, {})["passed"]
        assert Gate("identical", "==", True).evaluate(
            {"identical": True}, {})["passed"]
        assert not Gate("identical", "==", True).evaluate(
            {"identical": False}, {})["passed"]

    def test_missing_metric_fails_not_raises(self):
        verdict = Gate("absent", ">=", 1.0).evaluate({}, {})
        assert verdict["passed"] is False and verdict["value"] is None

    def test_nan_cannot_clear_numeric_gates(self):
        assert not Gate("s", ">=", 0.0).evaluate(
            {"s": float("nan")}, {})["passed"]
        assert not Gate("s", "<=", 1e9).evaluate(
            {"s": float("inf")}, {})["passed"]

    def test_is_finite_number_guards(self):
        assert is_finite_number(1) and is_finite_number(1.5)
        assert not is_finite_number(True), "bools are not measurements"
        assert not is_finite_number(float("nan"))
        assert not is_finite_number(float("inf"))
        assert not is_finite_number(None)
        assert not is_finite_number("1.5")


class TestBenchCase:
    def test_strict_override_checking(self):
        case = make_case()
        with pytest.raises(ValueError, match="no parameter 'typo'"):
            case.resolve_params({"typo": 1})
        assert case.resolve_params({"value": 7.0})["value"] == 7.0

    def test_override_values_checked_before_anything_runs(self):
        case = BenchCase(name="typed", description="", run=dict,
                         params={"repeats": 2, "min_speedup": 1.5,
                                 "benchmark": "fop", "benchmarks": ["fop"]})
        assert case.resolve_params({"min_speedup": 2})["min_speedup"] == 2
        for bad, message in (
                ({"repeats": 0}, "'repeats' must be >= 1"),
                ({"repeats": "many"}, "takes a int"),
                ({"repeats": True}, "takes a int"),
                ({"benchmarks": "fop"}, "takes a list"),
                ({"benchmark": "nope"}, "unknown benchmark 'nope'"),
                ({"benchmarks": ["fop", "nope"]}, "unknown benchmark 'nope'")):
            with pytest.raises(ValueError, match=message):
                case.resolve_params(bad)

    def test_builtin_cases_registered(self):
        assert [case.name for case in all_cases()] == BUILTIN_CASES
        interp = get_case("interp")
        assert any(g.limit == "min_speedup" for g in interp.gates)
        with pytest.raises(ValueError, match="unknown bench case"):
            get_case("nope")


# ---------------------------------------------------------------------------
# Execution harness
# ---------------------------------------------------------------------------

class TestRunCase:
    def test_runs_once_and_times_the_body(self):
        calls = []

        def run(params):
            calls.append(params)
            return {"value": 3.0, "identical": True}

        run_result = run_case(make_case(run=run))
        assert calls == [FAKE_PARAMS]
        assert run_result.metrics["value"] == run_result.primary_value == 3.0
        assert run_result.wall_s >= 0.0

    def test_gate_verdicts(self):
        passing = run_case(make_case(gates=[Gate("value", "<=", "floor")]),
                           overrides={"value": 0.0})
        assert passing.passed
        failing = run_case(make_case(gates=[Gate("value", "<=", "floor")]),
                           overrides={"value": 5.0})
        assert not failing.passed
        assert [g["passed"] for g in failing.gates] == [False]

    def test_cache_state_hidden_from_the_case_and_restored(self, tmp_path):
        """The body runs on a fresh memo with no disk layer; the layer
        that was installed before is installed again afterwards."""
        from repro.harness.diskcache import DiskCache
        from repro.harness.runner import RunSpec

        spec = RunSpec(benchmark="fop", until_cycles=100_000)
        seen = {}

        def run(params):
            seen["disk"] = runner._disk()
            seen["cached"] = runner.cached_record(spec)
            runner.set_disk_cache(DiskCache(root=str(tmp_path / "own")))
            return {"value": 1.0}

        disk = DiskCache(root=str(tmp_path / "injected"))
        runner.set_disk_cache(disk)
        try:
            record = runner.record_for(spec)
            run_case(make_case(run=run))
            assert seen == {"disk": None, "cached": None}
            assert runner._disk() is disk
            # The memo was dropped, so this read goes through the disk.
            assert runner.cached_record(spec).to_json() == record.to_json()
        finally:
            runner.set_disk_cache(None)
            runner.clear_cache()


@pytest.mark.parametrize("name", BUILTIN_CASES)
def test_builtin_case_runs_at_toy_parameters(name):
    """Every metric a gate or the primary names exists and is finite,
    and the gates pass — a renamed metric or a broken body fails here,
    not in a CI job."""
    case = get_case(name)
    run = run_case(case, {k: v for k, v in TOY_PARAMS.items()
                          if k in case.params})
    named = {gate.metric for gate in case.gates} | {case.primary_metric}
    for metric in named:
        value = run.metrics.get(metric)
        assert value is True or is_finite_number(value), (metric, value)
    assert run.passed, run.gates


# ---------------------------------------------------------------------------
# History: build, append, load, corruption tolerance
# ---------------------------------------------------------------------------

class TestHistory:
    def test_build_entry_is_self_describing(self):
        run_result = run_case(make_case())
        doc = hist.build_entry(run_result, now=123.0, code_version="deadbeef",
                               sha=None)
        assert doc["schema"] == hist.HISTORY_SCHEMA
        assert doc["case"] == "fake" and doc["ts"] == 123.0
        assert doc["code_version"] == "deadbeef" and doc["git_sha"] is None
        assert doc["params"] == FAKE_PARAMS
        assert doc["primary"] == {"metric": "value"}
        assert doc["metrics"]["value"] == 100.0 and doc["passed"]
        assert isinstance(doc["wall_s"], float)

    def test_committed_trajectory_still_loads(self):
        """Lines written before ``wall_s`` replaced the ``wall`` dict,
        and those that still carry the removed windowed verdict's
        ``params_key`` and direction, all load; today's cases' params
        are among them."""
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            hist.DEFAULT_HISTORY)
        with open(path) as fh:
            lines = [line for line in fh if line.strip()]
        entries, skipped = hist.load(path)
        assert skipped == 0 and len(entries) == len(lines) >= 5
        assert {e["case"] for e in entries} <= set(BUILTIN_CASES)
        for name in ("interp", "interp_superblock"):
            assert any(e["params"] == dict(get_case(name).params)
                       for e in entries if e["case"] == name)

    def test_append_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "h.jsonl")
        first, second = entry(value=1.0), entry(value=2.0)
        hist.append(path, first)
        hist.append(path, second)
        entries, skipped = hist.load(path)
        assert skipped == 0
        assert [e["metrics"]["value"] for e in entries] == [1.0, 2.0]

    def test_missing_file_is_empty_not_error(self, tmp_path):
        assert hist.load(str(tmp_path / "absent.jsonl")) == ([], 0)

    def test_corrupt_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "h.jsonl"
        good = entry(value=3.0)
        lines = [
            json.dumps(good),
            "{torn write",                                   # not JSON
            "[1, 2, 3]",                                     # not an object
            json.dumps({"schema": 99, "case": "fake",
                        "metrics": {}}),                     # wrong schema
            json.dumps({"schema": hist.HISTORY_SCHEMA, "case": 5,
                        "metrics": {}}),                     # bad case type
            "",                                              # blank: ignored
        ]
        path.write_text("\n".join(lines) + "\n")
        entries, skipped = hist.load(str(path))
        assert [e["metrics"]["value"] for e in entries] == [3.0]
        assert skipped == 4


# ---------------------------------------------------------------------------
# bench pairs: the judge of a change
# ---------------------------------------------------------------------------

BENCHMARK_JSON = os.path.join(os.path.dirname(__file__), os.pardir,
                              "BENCHMARK.json")
with open(BENCHMARK_JSON) as _fh:
    DECLARED = json.load(_fh)
NAMES = [m["name"] for m in DECLARED["end_to_end"]]


def git(cwd, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
         "-c", "commit.gpgsign=false", *args],
        cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    """A one-commit git checkout holding this repository's
    BENCHMARK.json, as the working directory."""
    tree = tmp_path / "checkout"
    tree.mkdir()
    (tree / "BENCHMARK.json").write_text(open(BENCHMARK_JSON).read())
    git(tree, "init", "-q")
    git(tree, "add", "BENCHMARK.json")
    git(tree, "commit", "-q", "-m", "base")
    monkeypatch.chdir(tree)
    return tree


def stub_runner(values=None, calls=None, outcome=None):
    """A perfbench stand-in: ``values(side, seed)`` gives a run's
    metrics (all 1.0 by default), ``outcome(side, seed, doc)`` may
    replace its (exit code, stdout)."""
    def run(tree, workload, seed, seconds):
        side = os.path.basename(tree)
        # Each side is a copy in a temporary directory, not a checkout.
        assert side in ("parent", "change")
        assert os.path.exists(os.path.join(tree, "BENCHMARK.json"))
        assert not os.path.exists(os.path.join(tree, ".git"))
        if calls is not None:
            calls.append((side, seed, workload, seconds))
        metrics = values(side, seed) if values else dict.fromkeys(NAMES, 1.0)
        doc = {"correct": True, "attempted": 1, "failed": 0,
               "metrics": {k: {"value": v, "unit": "u"}
                           for k, v in metrics.items()}}
        if outcome is not None:
            return outcome(side, seed, doc)
        return 0, "sim_mips 1.0 Minstr/s\n" + json.dumps(doc) + "\n"
    return run


def verdict(parent, change, better="lower", bound=0.05):
    """The verdict ``summarise`` gives one metric's pairs."""
    metric = {"name": "m", "better": better, "bound": bound}
    pair_list = [{"parent": {"m": p}, "change": {"m": c}}
                 for p, c in zip(parent, change)]
    return pairs.summarise(pair_list, [metric])["m"]["verdict"]


#: Ten parent runs with a small spread (IQR 0.55, 0.5 % of the median).
STEADY = [100.0 + 0.1 * i for i in range(10)]


class TestPairs:
    def test_seeds_and_alternating_order(self, checkout, capsys):
        calls = []
        doc = pairs.judge("HEAD", "sim_compute",
                          stub_runner(calls=calls))
        seconds = DECLARED["run_seconds"]
        assert calls == [(side, seed, "sim_compute", seconds)
                         for seed in range(1, 11)
                         for side in (("parent", "change") if seed % 2
                                      else ("change", "parent"))]
        assert [(p["seed"], p["first"]) for p in doc["pairs"]] == [
            (seed, "parent" if seed % 2 else "change")
            for seed in range(1, 11)]

    def test_written_file_and_its_keys(self, checkout, capsys):
        head = git(checkout, "rev-parse", "HEAD")
        doc = pairs.judge("HEAD", "sim_compute", stub_runner())
        path = checkout / "BENCH_sim_compute.json"
        assert json.loads(path.read_text()) == doc
        assert list(doc) == [
            "schema", "workload", "command", "method", "host", "base",
            "change", "sim_cycles_per_kinstr_matched_every_pair",
            "all_runs_correct", "summary", "pairs"]
        assert doc["base"] == {"git_sha": head}
        assert doc["change"] == {"git_sha": head, "dirty": False}
        assert doc["all_runs_correct"] is True
        assert doc["command"].endswith(
            f"--workload sim_compute --seed K --seconds "
            f"{DECLARED['run_seconds']} --trace 0")
        assert list(doc["summary"]) == NAMES
        for metric, row in zip(DECLARED["end_to_end"],
                               doc["summary"].values()):
            assert list(row) == [
                "better", "bound", "parent_median", "change_median",
                "change_vs_parent_pct", "parent_iqr", "change_iqr",
                "parent_range", "change_range", "change_wins", "ties",
                "pairs", "verdict"]
            assert (row["better"], row["bound"]) == (metric["better"],
                                                     metric["bound"])
            assert (row["ties"], row["pairs"], row["verdict"]) \
                == (10, 10, "same")
        assert len(doc["pairs"]) == 10
        assert list(doc["pairs"][0]) == ["seed", "first", "parent",
                                         "change", "change_wins"]
        # The written file is an uncommitted edit: the next judgement
        # says its change is dirty.
        again = pairs.judge("HEAD", "sim_compute", stub_runner())
        assert again["change"] == {"git_sha": head, "dirty": True}

    def test_gain_needs_nine_wins_and_more_than_the_iqr(self):
        assert verdict(STEADY, [p - 1 for p in STEADY]) == "gain"
        nine = [p - 1 for p in STEADY[:9]] + [STEADY[9] + 0.05]
        assert verdict(STEADY, nine) == "gain"
        eight = [p - 1 for p in STEADY[:8]] + [p + 0.05 for p in STEADY[8:]]
        assert verdict(STEADY, eight) == "same"
        # A tie counts for neither side.
        tied = [p - 1 for p in STEADY[:8]] + STEADY[8:]
        assert verdict(STEADY, tied) == "same"
        assert verdict(STEADY, tied[:9] + [STEADY[9] - 1]) == "gain"
        # Ten wins, but by less than the parent's IQR.
        assert verdict(STEADY, [p - 0.1 for p in STEADY]) == "same"

    def test_worse_is_strictly_past_the_bound(self):
        assert verdict([100.0] * 10, [105.0] * 10) == "same"
        assert verdict([100.0] * 10, [105.5] * 10) == "worse"
        # Higher is better: a lower median is the worse one.
        assert verdict([100.0] * 10, [94.5] * 10, better="higher") == "worse"
        assert verdict([100.0] * 10, [95.0] * 10, better="higher") == "same"
        assert verdict(STEADY, [p + 1 for p in STEADY],
                       better="higher") == "gain"

    def test_unresolved_unless_every_change_run_wins(self):
        wide = [80.0, 85.0, 90.0, 95.0, 100.0, 105.0, 110.0, 115.0, 120.0,
                125.0]
        assert verdict(wide, [w - 1 for w in wide]) == "unresolved"
        assert verdict(STEADY, wide[::-1]) == "unresolved"
        # Wide on both sides, yet every change run beats every parent run.
        assert verdict(wide, [w - 50 for w in wide]) == "gain"

    def test_same(self):
        assert verdict(STEADY, STEADY) == "same"
        assert verdict(STEADY, [p + 0.1 for p in STEADY]) == "same"

    def test_cycles_matched_flag(self, checkout, capsys):
        def drift(side, seed):
            metrics = dict.fromkeys(NAMES, 1.0)
            if side == "change" and seed == 7:
                metrics["sim_cycles_per_kinstr"] = 1.5
            return metrics

        doc = pairs.judge("HEAD", "sim_compute", stub_runner())
        assert doc["sim_cycles_per_kinstr_matched_every_pair"] is True
        doc = pairs.judge("HEAD", "sim_compute",
                          stub_runner(values=drift))
        assert doc["sim_cycles_per_kinstr_matched_every_pair"] is False

    @pytest.mark.parametrize("outcome, message", [
        (lambda side, seed, doc: (1, json.dumps(doc)), "exited 1"),
        (lambda side, seed, doc: (0, "Traceback ..."), "exited 0"),
        (lambda side, seed, doc: (0, json.dumps(dict(doc, correct=False))),
         "reported wrong output"),
        (lambda side, seed, doc: (0, json.dumps(dict(doc, metrics=dict(
            doc["metrics"], extra={"value": 1.0, "unit": "u"}))))
         if side == "parent" else (0, json.dumps(doc)),
         "the parent run of seed 1 reports metrics"),
    ], ids=["failed", "no-json", "incorrect", "metric-names"])
    def test_fails_closed_writing_nothing(self, checkout, outcome, message,
                                          capsys):
        with pytest.raises(SystemExit, match=message):
            pairs.judge("HEAD", "sim_compute",
                        stub_runner(outcome=outcome))
        assert sorted(os.listdir(checkout)) == [".git", "BENCHMARK.json"]

    def test_a_late_failure_still_writes_nothing(self, checkout, capsys):
        def late(side, seed, doc):
            return (2 if (side, seed) == ("change", 10) else 0,
                    json.dumps(doc))

        with pytest.raises(SystemExit,
                           match="the change run of seed 10 exited 2"):
            pairs.judge("HEAD", "sim_compute",
                        stub_runner(outcome=late))
        assert not (checkout / "BENCH_sim_compute.json").exists()

    def test_both_trees_compile_before_the_first_run(self, checkout,
                                                     capsys):
        calls = []

        def byte_compile(tree):
            calls.append(("compile", os.path.basename(tree) == "change"))
            return 0, ""

        pairs.judge("HEAD", "sim_compute", stub_runner(calls=calls),
                    byte_compile)
        assert calls[:2] == [("compile", False), ("compile", True)]
        assert all(call[0] != "compile" for call in calls[2:])
        assert len(calls) == 22

    @pytest.mark.parametrize("side", ["parent", "change"])
    def test_a_compile_failure_fails_closed_writing_nothing(
            self, checkout, side, capsys):
        def byte_compile(tree):
            if os.path.basename(tree) == side:
                return 1, "  File 'src/x.py', line 1\nSyntaxError: bad\n"
            return 0, ""

        def never(*args):
            raise AssertionError("a run started on a tree that failed "
                                 "to compile")

        with pytest.raises(SystemExit, match=f"could not compile the {side} "
                           r"tree \(SyntaxError: bad\); nothing written"):
            pairs.judge("HEAD", "sim_compute", never, byte_compile)
        assert sorted(os.listdir(checkout)) == [".git", "BENCHMARK.json"]

    def test_both_trees_run_from_sibling_paths_of_one_length(
            self, checkout, capsys):
        """A tree's path shows in its ``peak_rss_mib``: the two sides
        run from copies whose paths differ only in their last component,
        of one length; the change's holds the checkout's working tree,
        untracked files too, but nothing ignored."""
        (checkout / ".gitignore").write_text("ignored.txt\n")
        (checkout / "ignored.txt").write_text("left out\n")
        (checkout / "src").mkdir()
        (checkout / "src" / "untracked.py").write_text("X = 1\n")
        trees = {}

        def run(tree, workload, seed, seconds):
            trees.setdefault(os.path.basename(tree), sorted(
                os.path.relpath(os.path.join(where, name), tree)
                for where, _, names in os.walk(tree) for name in names))
            return stub_runner()(tree, workload, seed, seconds)

        paths = []
        pairs.judge("HEAD", "sim_compute", run,
                    lambda tree: paths.append(tree) or (0, ""))
        parent, change = paths
        assert len(parent) == len(change)
        assert os.path.dirname(parent) == os.path.dirname(change)
        assert os.path.basename(parent) != os.path.basename(change)
        assert trees["parent"] == ["BENCHMARK.json"]
        assert trees["change"] == [".gitignore", "BENCHMARK.json",
                                   os.path.join("src", "untracked.py")]

    def test_compile_tree_writes_bytecode_and_reports_errors(
            self, tmp_path, monkeypatch):
        # Even where the runs themselves write no bytecode.
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(
            {"command": [sys.executable, "run.py"]}))
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "good.py").write_text("X = 1\n")
        assert pairs.compile_tree(str(tmp_path))[0] == 0
        assert [p.name.split(".")[0] for p in
                (tmp_path / "src" / "__pycache__").iterdir()] == ["good"]
        (tmp_path / "perfbench").mkdir()
        (tmp_path / "perfbench" / "bad.py").write_text("def (:\n")
        code, output = pairs.compile_tree(str(tmp_path))
        assert code != 0 and "SyntaxError" in output

    def test_bad_input_is_one_line_before_any_run(self, checkout):
        def never(*args):
            raise AssertionError("a run started before its input was checked")

        for base, workload, message in (
                ("HEAD", "nope", "unknown workload 'nope'"),
                ("no-such-rev", "sim_compute", "git rev-parse")):
            with pytest.raises(SystemExit, match=message) as exc:
                pairs.judge(base, workload, never)
            assert str(exc.value).startswith("bench: ")
            assert "\n" not in str(exc.value)

    def test_perfbench_runner_passes_the_declared_command(self, tmp_path):
        script = tmp_path / "fake.py"
        script.write_text("import sys\nprint(sys.argv[1:])\nsys.exit(3)\n")
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(
            {"command": [sys.executable, "fake.py"]}))
        code, out = pairs.run_perfbench(str(tmp_path), "sim_churn", 4, 20)
        assert code == 3
        assert out.strip() == str(["--workload", "sim_churn", "--seed", "4",
                                   "--seconds", "20", "--trace", "0"])

# ---------------------------------------------------------------------------
# Self-profiling
# ---------------------------------------------------------------------------

def _busy_run(params):
    total = 0
    for i in range(300_000):
        total += i * i
    return {"value": float(total % 97), "identical": True}


class TestProfile:
    def test_subsystem_mapping(self):
        import repro.hw
        import repro.bench.registry
        from repro.bench.profile import subsystem_of

        assert subsystem_of(repro.hw.__file__) == "hw"
        assert subsystem_of(repro.bench.registry.__file__) == "bench"
        import repro
        top_level = os.path.join(os.path.dirname(repro.__file__),
                                 "something.py")
        assert subsystem_of(top_level) == "core"
        assert subsystem_of(None) == "builtin"
        assert subsystem_of("<string>") == "builtin"
        assert subsystem_of(os.__file__) == "stdlib"
        assert subsystem_of("/nowhere/else/x.py") == "host"

    def test_profile_case_attribution_and_stacks(self):
        import re

        from repro.bench.profile import format_report, profile_case
        from repro.telemetry.export import format_collapsed

        report = profile_case(make_case(run=_busy_run))
        assert report.name == "fake"
        assert report.total_self_s > 0 and report.rows
        doc = report.to_json()
        assert doc["schema"] == 1 and doc["stacks"] == len(report.stacks)
        assert doc["stacks"] > 0
        shares = sum(row["share"] for row in doc["subsystems"])
        assert shares == pytest.approx(1.0, abs=0.05)
        text = format_collapsed(report.stacks)
        for line in text.splitlines():
            assert re.match(r"^\S+(;\S+)* \d+$", line), line
        assert "subsystem" in format_report(report)

    def test_frame_labels_are_collapsed_safe(self):
        from repro.bench.profile import _frame_label

        assert _frame_label("<built-in method time.sleep>") \
            == "built-in_method_time.sleep"

        class FakeCode:
            co_filename = "/somewhere/pkg/mod name.py"
            co_name = "fn;x"

        assert " " not in _frame_label(FakeCode())
        assert ";" not in _frame_label(FakeCode())


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestBenchCli:
    def test_list_shows_registered_cases(self, capsys):
        main(["bench", "list"])
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()
                if not line.startswith(" ")] == BUILTIN_CASES
        assert "gate:" in out

    def test_run_writes_artifact_history_and_report(self, fake_case,
                                                    tmp_path, monkeypatch,
                                                    capsys):
        """The history is the cases' one store: no ``BENCH_*.json``."""
        monkeypatch.chdir(tmp_path)
        history = str(tmp_path / "h.jsonl")
        main(["bench", "run", "fake", "--history", history])
        out = capsys.readouterr().out
        assert "fake" in out and "PASS" in out
        entries, skipped = hist.load(history)
        assert [e["case"] for e in entries] == ["fake"] and skipped == 0
        assert entries[0]["passed"]
        assert os.listdir(tmp_path) == ["h.jsonl"]

    def test_gate_failure_exits_nonzero(self, monkeypatch, tmp_path):
        all_cases()
        failing = make_case(name="failing",
                            gates=[Gate("value", "<=", "floor")])
        monkeypatch.setitem(registry.REGISTRY, "failing", failing)
        with pytest.raises(SystemExit, match="gate failure in: failing"):
            main(["bench", "run", "failing",
                  "--history", str(tmp_path / "h.jsonl")])

    def test_run_rejects_unknown_case_and_params(self, fake_case, tmp_path):
        history = str(tmp_path / "h.jsonl")
        with pytest.raises(SystemExit, match="unknown bench case"):
            main(["bench", "run", "nope", "--history", history])
        with pytest.raises(SystemExit, match="needs key=value"):
            main(["bench", "run", "fake", "--param", "oops",
                  "--history", history])
        with pytest.raises(SystemExit, match="no selected case has param"):
            main(["bench", "run", "fake", "--param", "typo=1",
                  "--history", history])
        with pytest.raises(SystemExit, match="name at least one case"):
            main(["bench", "run", "--history", history])

    @pytest.mark.parametrize("argv", [
        ["interp", "--param", "repeats=0"],
        ["engine", "--param", 'benchmarks=["nope"]'],
        ["interp", "--history", "/proc/nope/h.jsonl"],
    ], ids=["repeats", "benchmark-name", "history-path"])
    def test_bad_outside_input_is_one_line_before_any_case_runs(
            self, argv, tmp_path, monkeypatch):
        from repro.bench import cli

        def entered(*args, **kwargs):
            raise AssertionError("a case ran before its input was checked")

        monkeypatch.setattr(cli, "run_case", entered)
        argv = ["bench", "run"] + argv
        if "--history" not in argv:
            argv += ["--history", str(tmp_path / "h.jsonl")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = str(exc.value)
        assert message.startswith("bench: ") and "\n" not in message

    def test_param_overrides_reach_the_case(self, fake_case, tmp_path,
                                            capsys):
        history = str(tmp_path / "h.jsonl")
        main(["bench", "run", "fake", "--param", "value=42.5",
              "--history", history])
        entries, _ = hist.load(history)
        assert entries[0]["metrics"]["value"] == 42.5
        assert entries[0]["params"]["value"] == 42.5

    def test_shared_overrides_filtered_per_case(self, monkeypatch, tmp_path,
                                                capsys):
        seen = {}

        def run_a(params):
            seen["a"] = params
            return {"value": 1.0}

        def run_b(params):
            seen["b"] = params
            return {"other": 1.0}

        all_cases()
        monkeypatch.setitem(registry.REGISTRY, "a",
                            make_case(name="a", run=run_a))
        monkeypatch.setitem(registry.REGISTRY, "b", BenchCase(
            name="b", description="", run=run_b, params={"knob": 1},
            primary_metric="other"))
        main(["bench", "run", "a", "b", "--param", "value=9.0",
              "--param", "knob=2", "--history", str(tmp_path / "h.jsonl")])
        assert seen["a"]["value"] == 9.0 and "knob" not in seen["a"]
        assert seen["b"]["knob"] == 2 and "value" not in seen["b"]

    def test_history_listing(self, tmp_path, capsys):
        history = str(tmp_path / "h.jsonl")
        hist.append(history, entry(value=1.25))
        hist.append(history, entry(value=2.5, case="other"))
        main(["bench", "history", "--history", history, "--case", "fake"])
        out = capsys.readouterr().out
        assert "value=1.25" in out and "other" not in out
        main(["bench", "history", "--history", history, "--json"])
        docs = json.loads(capsys.readouterr().out)
        assert [d["case"] for d in docs] == ["fake", "other"]

    def test_profile_command(self, monkeypatch, tmp_path, capsys):
        import re

        all_cases()
        busy = make_case(name="busy", run=_busy_run)
        monkeypatch.setitem(registry.REGISTRY, "busy", busy)
        collapsed = tmp_path / "p.collapsed"
        profile_json = tmp_path / "p.json"
        main(["bench", "profile", "busy", "--collapsed", str(collapsed),
              "--json", str(profile_json)])
        out = capsys.readouterr().out
        assert "profile of 'busy'" in out and "subsystem" in out
        doc = json.loads(profile_json.read_text())
        assert doc["schema"] == 1 and doc["name"] == "busy"
        lines = collapsed.read_text().splitlines()
        assert lines
        for line in lines:
            assert re.match(r"^\S+(;\S+)* \d+$", line), line
        # A real case (the cheapest: two fop runs) attributes time to
        # the simulated hardware and to the VM.
        main(["bench", "profile", "observer_overhead",
              "--param", 'benchmark="fop"', "--param", "repeats=1",
              "--json", str(profile_json)])
        doc = json.loads(profile_json.read_text())
        assert doc["name"] == "observer_overhead" and doc["total_self_s"] > 0
        subsystems = {row["subsystem"] for row in doc["subsystems"]}
        assert {"hw", "vm"} <= subsystems, subsystems
