"""Tests for ``repro bench``, the ratio gate.

The regression-detection edge cases are the heart of this file: empty
history, a single-entry baseline, zero/NaN metric guards, verdict
thresholds straddling exactly-at-limit values, and history-file
corruption tolerance.  The registry, the execution harness (one run,
cache state restored), the four built-in cases at toy parameters, the
self-profiler, and the CLI surface are covered around them.
"""

import json
import os

import pytest

from repro.__main__ import main
from repro.bench import compare as cmp
from repro.bench import history as hist
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


def make_case(name="fake", value=100.0, gates=(), direction="lower",
              threshold=0.10, run=None):
    """A cheap registerable case whose metric is controlled by a param."""
    def default_run(params):
        return {"value": float(params["value"]), "identical": True}
    return BenchCase(
        name=name, description="synthetic test case",
        run=run or default_run, params=dict(FAKE_PARAMS), gates=tuple(gates),
        primary_metric="value", primary_direction=direction,
        compare_threshold=threshold)


@pytest.fixture
def fake_case(monkeypatch):
    """Register a synthetic case without disturbing the builtins."""
    all_cases()  # force builtin registration before we add to REGISTRY
    case = make_case()
    monkeypatch.setitem(registry.REGISTRY, case.name, case)
    return case


_TS = iter(range(10_000, 20_000))


def entry(case="fake", value=100.0, ts=None, metric="value",
          direction="lower", threshold=0.10, params=None, code="codeA",
          schema=hist.HISTORY_SCHEMA, passed=True):
    """Fabricate one self-describing history entry."""
    params = dict(FAKE_PARAMS) if params is None else params
    return {
        "schema": schema,
        "case": case,
        "ts": float(next(_TS)) if ts is None else float(ts),
        "code_version": code,
        "params": params,
        "params_key": hist.params_key(params),
        "primary": {"metric": metric, "direction": direction,
                    "threshold": threshold},
        "metrics": {metric: value},
        "passed": passed,
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
    def test_direction_validated(self):
        with pytest.raises(ValueError, match="unknown direction"):
            make_case(direction="sideways")

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
        run_result = run_case(make_case(threshold=0.25, direction="higher"))
        doc = hist.build_entry(run_result, now=123.0, code_version="deadbeef",
                               sha=None)
        assert doc["schema"] == hist.HISTORY_SCHEMA
        assert doc["case"] == "fake" and doc["ts"] == 123.0
        assert doc["code_version"] == "deadbeef" and doc["git_sha"] is None
        assert doc["params_key"] == hist.params_key(doc["params"])
        assert doc["primary"] == {"metric": "value", "direction": "higher",
                                  "threshold": 0.25}
        assert doc["metrics"]["value"] == 100.0 and doc["passed"]
        assert isinstance(doc["wall_s"], float)

    def test_committed_trajectory_still_loads(self):
        """Lines written before ``wall_s`` replaced the ``wall`` dict
        stay a usable baseline: same params key as today's cases."""
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            hist.DEFAULT_HISTORY)
        with open(path) as fh:
            lines = [line for line in fh if line.strip()]
        entries, skipped = hist.load(path)
        assert skipped == 0 and len(entries) == len(lines) >= 5
        assert {e["case"] for e in entries} <= set(BUILTIN_CASES)
        for name in ("interp", "interp_superblock"):
            key = hist.params_key(dict(get_case(name).params))
            assert key == "dc280a990f76dd7f"
            assert any(e["params_key"] == key for e in entries
                       if e["case"] == name)

    def test_params_key_is_order_insensitive(self):
        assert hist.params_key({"a": 1, "b": [2]}) \
            == hist.params_key({"b": [2], "a": 1})
        assert hist.params_key({"a": 1}) != hist.params_key({"a": 2})

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
# Regression detection
# ---------------------------------------------------------------------------

class TestCompare:
    def test_empty_history_gives_no_baseline(self):
        score = cmp.score_entry(entry(value=5.0), history=[])
        assert score["verdict"] == "no-baseline"
        assert score["baseline"] is None and score["delta"] is None
        assert not cmp.has_failures([score])

    def test_single_entry_baseline(self):
        history = [entry(value=100.0)]
        score = cmp.score_entry(entry(value=104.0), history)
        assert score["baseline"] == 100.0 and score["baseline_n"] == 1
        assert score["delta"] == pytest.approx(0.04)
        assert score["verdict"] == "ok"

    def test_exactly_at_threshold_is_ok(self):
        history = [entry(value=100.0)]
        # 10% worse with a 10% threshold: delta == t stays ok ...
        assert cmp.score_entry(entry(value=110.0), history)["verdict"] == "ok"
        # ... one hair past it regresses.
        assert cmp.score_entry(entry(value=110.00001),
                               history)["verdict"] == "regressed"
        # Symmetric on the improvement side.
        assert cmp.score_entry(entry(value=90.0), history)["verdict"] == "ok"
        assert cmp.score_entry(entry(value=89.99),
                               history)["verdict"] == "improved"

    def test_higher_is_better_flips_the_delta(self):
        # Binary-exact values so delta == threshold is truly exact.
        history = [entry(value=2.0, direction="higher", threshold=0.25)]

        def current(v):
            return entry(value=v, direction="higher", threshold=0.25)
        assert cmp.score_entry(current(1.5), history)["verdict"] == "ok"
        assert cmp.score_entry(current(1.4375),
                               history)["verdict"] == "regressed"
        assert cmp.score_entry(current(2.5), history)["verdict"] == "ok"
        assert cmp.score_entry(current(2.625),
                               history)["verdict"] == "improved"

    def test_baseline_is_median_of_window(self):
        history = [entry(value=float(v)) for v in range(1, 11)]
        score = cmp.score_entry(entry(value=9.0), history, window=3)
        assert score["baseline"] == 9.0 and score["baseline_n"] == 3
        assert score["verdict"] == "ok"
        wide = cmp.score_entry(entry(value=9.0), history, window=100)
        assert wide["baseline"] == 5.5 and wide["baseline_n"] == 10
        assert wide["verdict"] == "regressed"

    def test_current_entry_excluded_from_its_own_baseline(self):
        current = entry(value=50.0)
        history = [entry(value=100.0), dict(current)]
        score = cmp.score_entry(current, history)
        assert score["baseline"] == 100.0 and score["baseline_n"] == 1
        assert score["verdict"] == "improved"

    def test_params_and_case_mismatches_excluded(self):
        history = [entry(value=100.0, params={"value": 1.0, "floor": 9.0}),
                   entry(value=100.0, case="other"),
                   entry(value=100.0, schema=99),
                   entry(value=100.0, metric="other_metric")]
        assert cmp.score_entry(entry(value=100.0),
                               history)["verdict"] == "no-baseline"

    def test_nan_current_value_is_invalid(self):
        history = [entry(value=100.0)]
        for bad in (float("nan"), float("inf"), None, "fast", True):
            score = cmp.score_entry(entry(value=bad), history)
            assert score["verdict"] == "invalid", bad
            assert score["value"] is None
            assert cmp.has_failures([score])
        missing = entry(value=1.0)
        missing["metrics"] = {}
        assert cmp.score_entry(missing, history)["verdict"] == "invalid"

    def test_nan_baseline_entries_filtered(self):
        history = [entry(value=float("nan")), entry(value=float("inf")),
                   entry(value=100.0)]
        score = cmp.score_entry(entry(value=100.0), history)
        assert score["baseline_n"] == 1, "non-finite entries are not evidence"
        assert score["verdict"] == "ok"

    def test_zero_baseline_cannot_anchor_a_relative_verdict(self):
        history = [entry(value=0.0), entry(value=0.0), entry(value=0.0)]
        score = cmp.score_entry(entry(value=5.0), history)
        assert score["verdict"] == "no-baseline"
        assert score["baseline"] == 0.0 and score["baseline_n"] == 3

    def test_explicit_threshold_overrides_per_case(self):
        history = [entry(value=100.0)]
        score = cmp.score_entry(entry(value=105.0), history, threshold=0.01)
        assert score["verdict"] == "regressed"

    def test_newest_entry_per_case(self):
        old, new = entry(value=1.0, ts=5.0), entry(value=2.0, ts=9.0)
        other = entry(case="other", value=3.0, ts=7.0)
        newest = cmp.newest_entries([new, other, old])
        assert list(newest) == ["fake", "other"]
        assert newest["fake"] is new and newest["other"] is other
        assert cmp.newest_entries([]) == {}

    def test_score_run_and_failure_detection(self):
        history = [entry(value=100.0)]
        scores = [cmp.score_entry(current, history)
                  for current in (entry(value=100.0), entry(value=150.0))]
        assert [s["verdict"] for s in scores] == ["ok", "regressed"]
        assert cmp.has_failures(scores)
        table = cmp.format_scores(scores)
        assert "regressed" in table and "fake" in table
        assert "+50.0%" in table


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
                                                    tmp_path, capsys):
        history = str(tmp_path / "h.jsonl")
        main(["bench", "run", "fake", "--history", history,
              "--out-dir", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert "fake" in out and "PASS" in out
        artifact = json.loads(
            (tmp_path / "out" / "BENCH_fake.json").read_text())
        assert artifact["case"] == "fake" and artifact["passed"]
        entries, skipped = hist.load(history)
        assert entries == [artifact] and skipped == 0

    def test_gate_failure_exits_nonzero(self, monkeypatch, tmp_path):
        all_cases()
        failing = make_case(name="failing",
                            gates=[Gate("value", "<=", "floor")])
        monkeypatch.setitem(registry.REGISTRY, "failing", failing)
        with pytest.raises(SystemExit, match="gate failure in: failing"):
            main(["bench", "run", "failing",
                  "--history", str(tmp_path / "h.jsonl"),
                  "--out-dir", str(tmp_path)])

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
        ["interp", "--out-dir", "/proc/nope"],
    ], ids=["repeats", "benchmark-name", "history-path", "out-dir"])
    def test_bad_outside_input_is_one_line_before_any_case_runs(
            self, argv, tmp_path, monkeypatch):
        from repro.bench import cli

        def entered(*args, **kwargs):
            raise AssertionError("a case ran before its input was checked")

        monkeypatch.setattr(cli, "run_case", entered)
        argv = ["bench", "run"] + argv
        if "--history" not in argv:
            argv += ["--history", str(tmp_path / "h.jsonl")]
        if "--out-dir" not in argv:
            argv += ["--out-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = str(exc.value)
        assert message.startswith("bench: ") and "\n" not in message

    def test_param_overrides_reach_the_case(self, fake_case, tmp_path,
                                            capsys):
        history = str(tmp_path / "h.jsonl")
        main(["bench", "run", "fake", "--param", "value=42.5",
              "--history", history, "--out-dir", str(tmp_path)])
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
              "--param", "knob=2", "--history", str(tmp_path / "h.jsonl"),
              "--out-dir", str(tmp_path)])
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

    def test_compare_regression_exits_nonzero(self, tmp_path, capsys):
        history = str(tmp_path / "h.jsonl")
        hist.append(history, *(entry(value=v) for v in (1.0, 1.0, 1.0, 2.0)))
        with pytest.raises(SystemExit,
                           match="regression verdict in: fake"):
            main(["bench", "compare", "--history", history])
        assert "regressed" in capsys.readouterr().out

    def test_compare_clean_run_exits_zero(self, tmp_path, capsys):
        """Compare reads the history and nothing else: the newest entry
        of each selected case, no simulation."""
        history = str(tmp_path / "h.jsonl")
        hist.append(history, *(entry(value=v) for v in (1.0, 1.0, 1.0, 1.02)),
                    entry(case="other", value=7.0))
        sims = runner.SIM_RUNS
        main(["bench", "compare", "--history", history])
        out = capsys.readouterr().out
        assert [line.split()[:3] for line in out.splitlines()[1:]] == [
            ["fake", "value", "ok"], ["other", "value", "no-baseline"]]
        main(["bench", "compare", "other", "--history", history])
        out = capsys.readouterr().out
        assert "no-baseline" in out and "fake" not in out
        assert runner.SIM_RUNS == sims

    def test_compare_fails_on_a_failed_gate_or_an_unknown_case(
            self, tmp_path):
        history = str(tmp_path / "h.jsonl")
        hist.append(history, entry(value=1.0), entry(value=1.0, passed=False))
        with pytest.raises(SystemExit, match="gate failure in: fake"):
            main(["bench", "compare", "--history", history])
        with pytest.raises(SystemExit, match="no entry in .* for: typo"):
            main(["bench", "compare", "typo", "--history", history])

    def test_compare_with_nothing_to_score_exits_zero(self, tmp_path,
                                                      capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        for path in (empty, tmp_path / "absent.jsonl"):
            main(["bench", "compare", "--history", str(path)])
            assert "nothing to score" in capsys.readouterr().out

    def test_compare_ignores_stray_artifacts(self, fake_case, tmp_path,
                                             monkeypatch, capsys):
        # Only the history is a baseline: an artifact lying in the
        # working directory must not be lifted into one.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "BENCH_fake.json").write_text(json.dumps(
            {"value": 100.0, "identical": True, "passed": True}))
        history = str(tmp_path / "h.jsonl")
        main(["bench", "run", "fake", "--history", history,
              "--out-dir", str(tmp_path / "out")])
        main(["bench", "compare", "fake", "--history", history])
        assert "no-baseline" in capsys.readouterr().out
        entries, _ = hist.load(history)
        assert [e["case"] for e in entries] == ["fake"]

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
