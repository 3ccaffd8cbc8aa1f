"""Tests for the ``python -m repro`` command-line interface.

``tests/golden/cli.json`` pins the command-line surface: for every
parser (the top level, each command, each ``bench`` subcommand) its
help and description, and for each of its actions the option strings,
dest, default, choices, nargs, metavar, required flag and help.  It is
the structure, not the rendered ``--help`` text, because argparse
renders help differently across Python versions.  Regenerate it with
``PYTHONPATH=src python tests/test_cli.py`` when a change is *meant*
to move the surface.
"""

import argparse
import json
import os
import subprocess
import sys

import pytest

from repro.__main__ import build_parser, main
from repro.harness import report
from repro.harness.cli import benchmark_list

CLI_PATH = os.path.join(os.path.dirname(__file__), "golden", "cli.json")


def _action_surface(action: argparse.Action) -> dict:
    choices = action.choices
    if choices is not None:
        # A sub-parser table pins its command names, in order.
        choices = list(choices)
    return {"option_strings": list(action.option_strings),
            "dest": action.dest, "default": action.default,
            "choices": choices, "nargs": action.nargs,
            "metavar": action.metavar, "required": action.required,
            "help": action.help}


def cli_surface() -> dict:
    """Every parser path -> its help, description and actions."""
    surface = {}

    def walk(path: str, parser: argparse.ArgumentParser, help) -> None:
        surface[path] = {"help": help, "description": parser.description,
                         "actions": [_action_surface(a)
                                     for a in parser._actions]}
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                helps = {c.dest: c.help for c in action._choices_actions}
                for name, child in action.choices.items():
                    walk(f"{path} {name}", child, helps.get(name))

    walk("repro", build_parser(), None)
    return surface


def test_cli_surface_matches_golden():
    with open(CLI_PATH) as fh:
        golden = json.load(fh)
    surface = json.loads(json.dumps(cli_surface()))
    assert sorted(surface) == sorted(golden), "parser paths moved"
    for path in golden:
        assert surface[path] == golden[path], path


def test_closed_pipe_ends_quietly(tmp_path):
    """A printing command whose reader stops after one line (``| head
    -1``) exits without a traceback.  The timeline is far wider than a
    pipe holds, so the command is still writing when the pipe closes."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        build_parser.__code__.co_filename)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "timeline", "fop", "--heap-mult",
         "2", "--width", "50000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src, REPRO_CACHE_DIR=str(tmp_path)))
    assert proc.stdout.readline().startswith(b"timeline: ")
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in stderr and "Error" not in stderr, stderr


class TestArgumentHandling:
    def test_benchmark_list_parsing(self):
        assert benchmark_list("db,compress") == ["db", "compress"]
        assert benchmark_list("") is None
        assert benchmark_list(None) is None

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            benchmark_list("db,eclipse")

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_run_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "eclipse"])


class TestCommands:
    def test_list(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "db" in out and "pseudojbb" in out
        assert len(out.strip().splitlines()) == 16

    def test_table1(self, capsys):
        main(["table1"])
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "DaCapo" in out

    def test_run_small_benchmark(self, capsys):
        main(["run", "fop", "--no-monitoring", "--heap-mult", "2"])
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "GC" in out

    def test_run_with_gencopy(self, capsys):
        main(["run", "fop", "--no-monitoring", "--gc-plan", "gencopy"])
        out = capsys.readouterr().out
        assert "cycles" in out

    def test_fig4_subset(self, capsys):
        main(["fig4", "--benchmarks", "fop"])
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "fop" in out

    @pytest.mark.parametrize("name", [
        name for name, figure in report.FIGURES.items() if figure.benchmarks])
    def test_figure_command_prints_the_registry_text(self, name, capsys):
        main([name, "--benchmarks", "fop", "--jobs", "1"])
        assert capsys.readouterr().out == \
            report.FIGURES[name].text(["fop"]) + "\n"

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_repro_jobs_is_one_line(self, value, monkeypatch):
        """``REPRO_JOBS`` is outside input like ``--jobs``: refused in
        one line naming the variable and the value, never a traceback."""
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(SystemExit) as exc:
            main(["fig4", "--benchmarks", "fop"])
        assert "REPRO_JOBS" in str(exc.value)
        assert repr(value) in str(exc.value)


class TestObservability:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.strip() != "repro"

    def test_no_monitoring_prints_disabled(self, capsys):
        main(["run", "fop", "--no-monitoring", "--heap-mult", "2"])
        out = capsys.readouterr().out
        assert "monitoring           : disabled" in out

    def test_run_trace_writes_chrome_json(self, tmp_path, capsys):
        import json

        import re

        path = tmp_path / "trace.json"
        collapsed = tmp_path / "trace.collapsed"
        main(["run", "fop", "--heap-mult", "2", "--trace", str(path),
              "--collapsed", str(collapsed)])
        out = capsys.readouterr().out
        assert "trace                :" in out
        doc = json.loads(path.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "X" in phases and "M" in phases
        for event in doc["traceEvents"]:
            assert "ph" in event and "pid" in event
            if event["ph"] == "X":
                assert {"ts", "dur", "cat"} <= set(event)
        assert doc["otherData"]["clock"] == "simulated cycles"
        assert doc["metrics"]["vm.cycles"] > 0
        lines = collapsed.read_text().splitlines()
        assert lines, "no collapsed span stacks"
        for line in lines:
            assert re.match(r"^\S+(;\S+)* \d+$", line), line

    def test_run_trace_jsonl(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.jsonl"
        main(["run", "fop", "--heap-mult", "2", "--trace", str(path)])
        capsys.readouterr()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[-1]["type"] == "metrics"

    def test_run_metrics_flag(self, capsys):
        main(["run", "fop", "--heap-mult", "2", "--metrics"])
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "gauge vm.cycles" in out

    def test_timeline_command(self, capsys):
        main(["timeline", "fop", "--heap-mult", "2", "--width", "40"])
        out = capsys.readouterr().out
        assert "timeline:" in out
        assert "cycles/column" in out

    def test_timeline_from_exported_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        main(["run", "fop", "--heap-mult", "2", "--trace", str(trace)])
        capsys.readouterr()
        main(["timeline", "fop", "--from", str(trace), "--width", "40"])
        out = capsys.readouterr().out
        assert "cycles/column" in out

    def test_timeline_from_missing_trace(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["timeline", "fop", "--from", "no/such/trace.json"])
        assert "no trace at" in str(exc.value)

    def test_timeline_from_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        with pytest.raises(SystemExit) as exc:
            main(["timeline", "fop", "--from", str(bad)])
        assert "not an exported trace" in str(exc.value)

    def test_timeline_from_wrong_shape_json(self, tmp_path):
        # Well-formed JSON that is not a trace document: a bare list
        # (used to escape as an AttributeError traceback).
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(SystemExit) as exc:
            main(["timeline", "fop", "--from", str(bad)])
        assert "not an exported trace" in str(exc.value)

    def test_timeline_from_malformed_jsonl(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span"}\nnot json at all\n')
        with pytest.raises(SystemExit) as exc:
            main(["timeline", "fop", "--from", str(bad)])
        assert "not an exported trace" in str(exc.value)

    def test_timeline_from_empty_trace(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        main(["timeline", "fop", "--from", str(empty)])
        out = capsys.readouterr().out
        assert "no spans" in out

    def test_run_prom_export(self, tmp_path, capsys):
        path = tmp_path / "run.prom"
        main(["run", "fop", "--heap-mult", "2", "--prom", str(path)])
        out = capsys.readouterr().out
        assert "prometheus" in out
        text = path.read_text()
        assert text.startswith("# HELP repro_")
        assert "# TYPE repro_vm_cycles gauge" in text
        assert text.endswith("\n")

    def test_cache_stats_without_cache_dir(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "absent"))
        monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
        main(["cache", "stats"])  # regression: used to KeyError/stack
        out = capsys.readouterr().out
        assert "nothing cached yet" in out

    def test_cache_stats_json_without_cache_dir(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "absent"))
        monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
        main(["cache", "stats", "--json"])
        assert capsys.readouterr().out.strip() == "{}"

    @pytest.fixture()
    def warm_cache(self, tmp_path, monkeypatch):
        """A cache dir with one current and one stale-version entry."""
        from repro.harness import runner
        from repro.harness.diskcache import DiskCache
        from repro.harness.runner import RunSpec

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
        spec = RunSpec(benchmark="fop", heap_mult=2.0, monitoring=False)
        record = runner.record_for(spec)
        DiskCache(root=str(tmp_path)).put(spec, record)
        DiskCache(root=str(tmp_path), version="v-old").put(spec, record)
        return str(tmp_path)

    def test_cache_stats_json_is_machine_readable(self, warm_cache,
                                                  capsys):
        import json

        main(["cache", "stats", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"] == 1
        assert doc["stale_entries"] == 1
        assert doc["records"]["entries"] == 1
        assert doc["root"] == warm_cache

    def test_cache_prune_dry_run_is_read_only(self, warm_cache, capsys):
        import json

        main(["cache", "prune", "--dry-run"])
        out = capsys.readouterr().out
        assert "would prune 1 stale-version" in out
        assert "would remain" in out
        main(["cache", "stats", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["stale_entries"] == 1, "dry run deleted nothing"
        main(["cache", "prune"])
        out = capsys.readouterr().out
        assert "pruned 1 stale-version" in out
        main(["cache", "stats", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["stale_entries"] == 0 and doc["entries"] == 1


class TestResumeObservers:
    """``--resume`` continues the checkpoint's own observers, so it must
    refuse — before simulating — output flags they cannot serve."""

    FOP = ["run", "fop", "--heap-mult", "2"]
    LEG = FOP + ["--until-cycles", "600000", "--checkpoint-every", "300000"]

    @pytest.fixture()
    def disk(self, tmp_path):
        from repro.harness import runner
        from repro.harness.diskcache import DiskCache

        runner.clear_cache()
        runner.set_disk_cache(DiskCache(root=str(tmp_path / "cache")))
        yield
        runner.set_disk_cache(None)
        runner.clear_cache()

    def test_resume_refuses_observers_the_checkpoint_lacks(
            self, disk, tmp_path, capsys):
        from repro.harness import runner

        main(self.LEG)
        simulated = runner.SIM_CYCLES
        trace, record = tmp_path / "t.json", tmp_path / "r.json"
        for flags, lacking in ((["--trace", str(trace)], "telemetry"),
                               (["--metrics"], "telemetry"),
                               (["--record", str(record)],
                                "decision ledger and health monitor")):
            with pytest.raises(SystemExit) as exc:
                main(self.FOP + ["--resume"] + flags)
            message = str(exc.value)
            assert lacking in message
            assert "checkpoint at cycle 6" in message
            assert "same flags" in message
            assert "without --resume" in message
        assert not trace.exists() and not record.exists()
        assert runner.SIM_CYCLES == simulated, "refused before simulating"
        main(self.FOP + ["--resume"])       # no observer asked for: fine
        assert "resumed              : from cycle 6" in \
            capsys.readouterr().out

    def test_resume_exports_what_the_checkpoint_observed(
            self, disk, tmp_path, capsys):
        import json

        record = tmp_path / "r.json"
        main(self.LEG + ["--metrics", "--record", str(tmp_path / "leg.json")])
        capsys.readouterr()
        main(self.FOP + ["--resume", "--metrics", "--record", str(record)])
        out = capsys.readouterr().out
        assert "gauge vm.cycles" in out
        doc = json.loads(record.read_text())
        assert doc["lineage"]["entries"] and doc["health"]["phases"]
        main(["doctor", "fop", "--from", str(record)])
        assert "doctor: fop — verdict" in capsys.readouterr().out


class TestAuditAndDiff:
    def test_audit_text_and_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "audit.json"
        main(["audit", "fop", "--intervals", "25K", "--json", str(path)])
        out = capsys.readouterr().out
        assert "fidelity audit: fop" in out
        assert "m.overlap" in out
        doc = json.loads(path.read_text())
        assert doc["schema"] >= 1
        assert doc["benchmark"] == "fop"
        assert len(doc["intervals"]) == 1
        assert doc["intervals"][0]["fidelity"] >= 0.8

    def test_audit_rejects_unknown_interval(self):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "fop", "--intervals", "13K"])
        assert "unknown interval" in str(exc.value)

    @pytest.fixture()
    def record_pair(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["run", "fop", "--heap-mult", "2", "--record", str(a)])
        main(["run", "fop", "--heap-mult", "2", "--seed", "2",
              "--record", str(b)])
        capsys.readouterr()
        return str(a), str(b)

    def test_diff_identical_records_exit_zero(self, record_pair, capsys):
        a, _b = record_pair
        main(["diff", a, a])  # no SystemExit: clean diff
        out = capsys.readouterr().out
        assert "0 significant" in out
        assert "are identical" in out

    def test_diff_different_seeds_exit_one(self, record_pair, capsys):
        a, b = record_pair
        with pytest.raises(SystemExit) as exc:
            main(["diff", a, b])
        assert exc.value.code == 1
        out = capsys.readouterr().out
        assert "! provenance.seed" in out
        assert "seed=1" in out and "seed=2" in out

    def test_diff_missing_file(self, record_pair):
        a, _b = record_pair
        with pytest.raises(SystemExit) as exc:
            main(["diff", a, "no/such/record.json"])
        assert "cannot read" in str(exc.value)

    def test_diff_non_record_json(self, tmp_path, record_pair):
        a, _b = record_pair
        junk = tmp_path / "junk.json"
        junk.write_text('{"surprise": true}')
        with pytest.raises(SystemExit) as exc:
            main(["diff", a, str(junk)])
        assert "not an exported run record" in str(exc.value)

    def test_figure_driver_accepts_progress_flags(self, tmp_path, capsys):
        from repro.harness import runner

        runner.clear_cache()  # force real jobs, not memo hits
        log = tmp_path / "events.jsonl"
        main(["fig4", "--benchmarks", "fop", "--jobs", "1",
              "--progress", "--progress-log", str(log)])
        captured = capsys.readouterr()
        assert "Figure 4" in captured.out
        assert "[engine]" in captured.err
        import json

        docs = [json.loads(line)
                for line in log.read_text().splitlines()]
        assert docs and all(d["type"] == "job" for d in docs)
        assert {"queued", "started", "finished"} <= {d["kind"]
                                                     for d in docs}


@pytest.fixture(scope="module")
def coalloc_record_doc(tmp_path_factory):
    """A ``repro run fop --coalloc --record`` document: it carries both
    the decision ledger and the health report."""
    path = tmp_path_factory.mktemp("record") / "rec.json"
    main(["run", "fop", "--heap-mult", "2", "--coalloc",
          "--record", str(path)])
    return json.loads(path.read_text())


def _drop_first_kind(doc):
    del doc["lineage"]["entries"][0]["kind"]


def _set(key, value):
    def mutate(doc):
        doc[key] = value
    return mutate


def _set_health_schema(doc):
    doc["health"]["schema"] = 99


class TestMalformedRecordDocuments:
    """A record whose embedded ledger or health report is malformed is
    refused in one line before anything walks it — never a traceback,
    never a clean verdict."""

    @pytest.mark.parametrize("command,mutate,message", [
        ("explain", _drop_first_kind, "decision ledger is invalid"),
        ("explain", _set("lineage", [1, 2]), "decision ledger is invalid"),
        ("doctor", _set("lineage", [1, 2]), "decision ledger is invalid"),
        ("doctor", _set("health", [1, 2]), "not an exported run record"),
        ("doctor", _set_health_schema, "not an exported run record"),
    ], ids=["entry-without-kind", "lineage-list-explain",
            "lineage-list-doctor", "health-list", "health-schema-99"])
    def test_refused_in_one_line(self, command, mutate, message,
                                 coalloc_record_doc, tmp_path, capsys):
        doc = json.loads(json.dumps(coalloc_record_doc))
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main([command, "fop", "--from", str(path)])
        assert isinstance(exc.value.code, str)
        assert message in exc.value.code and "\n" not in exc.value.code
        assert "verdict" not in capsys.readouterr().out

    @pytest.mark.parametrize("schema", [4, "next"])
    def test_other_record_schema_refused(self, schema, coalloc_record_doc,
                                         tmp_path):
        from repro.harness.record import SCHEMA_VERSION

        doc = dict(coalloc_record_doc,
                   schema=SCHEMA_VERSION + 1 if schema == "next" else schema)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["diff", str(path), str(path)])
        assert "re-export it with `repro run" in exc.value.code
        assert "\n" not in exc.value.code


class TestExplainCli:
    @pytest.fixture()
    def record_with_lineage(self, tmp_path, capsys):
        path = tmp_path / "rec.json"
        main(["run", "fop", "--heap-mult", "2", "--coalloc",
              "--record", str(path)])
        capsys.readouterr()
        return str(path)

    def test_explain_fresh_run(self, capsys):
        main(["explain", "fop", "--heap-mult", "2", "--coalloc"])
        out = capsys.readouterr().out
        assert "lineage:" in out
        assert "justification chain for #" in out

    def test_explain_from_record(self, record_with_lineage, tmp_path,
                                 capsys):
        out_json = tmp_path / "lineage.json"
        out_dot = tmp_path / "lineage.dot"
        main(["explain", "fop", "--from", record_with_lineage,
              "--json", str(out_json), "--dot", str(out_dot)])
        out = capsys.readouterr().out
        assert "justification chain for #" in out
        import json

        from repro.lineage import LINEAGE_SCHEMA_VERSION, explain

        doc = json.loads(out_json.read_text())
        assert doc["problems"] == []
        assert doc["target"] in doc["chain"]
        assert doc["lineage"]["schema"] == LINEAGE_SCHEMA_VERSION
        assert doc["lineage"]["entries"], "ledger recorded nothing"
        assert explain.validate(doc["lineage"]) == []
        ids = {e["id"] for e in doc["lineage"]["entries"]}
        assert all(p in ids for e in doc["lineage"]["entries"]
                   for p in e["parents"])
        assert out_dot.read_text().startswith("digraph lineage {")

    def test_explain_record_without_lineage(self, tmp_path, capsys):
        # Legacy-shaped record: strip the lineage field.
        import json

        path = tmp_path / "rec.json"
        main(["run", "fop", "--heap-mult", "2", "--record", str(path)])
        capsys.readouterr()
        doc = json.loads(path.read_text())
        doc["lineage"] = None
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["explain", "fop", "--from", str(path)])
        assert "carries no lineage" in str(exc.value)

    def test_explain_missing_record(self):
        with pytest.raises(SystemExit) as exc:
            main(["explain", "fop", "--from", "no/such/rec.json"])
        assert "cannot read" in str(exc.value)

    def test_explain_non_record_json(self, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text("[]")
        with pytest.raises(SystemExit) as exc:
            main(["explain", "fop", "--from", str(junk)])
        assert "not an exported run record" in str(exc.value)

    def test_explain_unmatched_selector(self, record_with_lineage):
        with pytest.raises(SystemExit) as exc:
            main(["explain", "fop", "--from", record_with_lineage,
                  "--revert", "7"])
        assert "no decision matches revert #7" in str(exc.value)

    def test_doctor_fresh_run(self, tmp_path, capsys):
        import json

        path = tmp_path / "doctor.json"
        main(["doctor", "fop", "--heap-mult", "2", "--json", str(path)])
        out = capsys.readouterr().out
        assert "doctor: fop — verdict" in out
        assert "phase  periods" in out
        doc = json.loads(path.read_text())
        assert {"benchmark", "verdict", "report", "storm", "problems",
                "chains"} <= set(doc)
        from repro.health.report import HEALTH_SCHEMA_VERSION

        assert doc["benchmark"] == "fop"
        assert doc["problems"] == []
        assert doc["report"]["schema"] == HEALTH_SCHEMA_VERSION
        assert doc["report"]["intervals"] > 0
        assert doc["report"]["phases"], "at least one phase segmented"
        assert doc["storm"] is None

    def test_doctor_storm_json(self, tmp_path, capsys):
        """A seeded revert storm on the phase-shifting workload: phases
        segmented, the storm flagged critical, every finding grounded
        in ledger entries that resolve into justification chains."""
        import json

        path = tmp_path / "doctor.json"
        main(["doctor", "phased", "--coalloc", "--storm",
              "--json", str(path)])
        capsys.readouterr()
        doc = json.loads(path.read_text())
        report = doc["report"]
        assert len(report["phases"]) >= 2
        findings = {f["detector"]: f for f in report["findings"]}
        assert findings["revert_storm"]["severity"] == "critical"
        assert findings["revert_storm"]["ledger_ids"]
        assert doc["verdict"] == "critical"
        assert doc["problems"] == []
        assert doc["chains"], "no justification chains resolved"
        assert doc["storm"]["reverted"] >= 2

    def test_doctor_from_record(self, record_with_lineage, capsys):
        main(["doctor", "fop", "--from", record_with_lineage])
        out = capsys.readouterr().out
        assert "doctor: fop — verdict" in out
        assert "phase  periods" in out

    def test_doctor_record_without_health(self, tmp_path, capsys):
        import json

        path = tmp_path / "rec.json"
        main(["run", "fop", "--heap-mult", "2", "--record", str(path)])
        capsys.readouterr()
        doc = json.loads(path.read_text())
        doc["health"] = None
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["doctor", "fop", "--from", str(path)])
        assert "carries no health report" in str(exc.value)

    def test_doctor_missing_record(self):
        with pytest.raises(SystemExit) as exc:
            main(["doctor", "fop", "--from", "no/such/rec.json"])
        assert "cannot read" in str(exc.value)

    def test_doctor_non_record_json(self, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text("[]")
        with pytest.raises(SystemExit) as exc:
            main(["doctor", "fop", "--from", str(junk)])
        assert "not an exported run record" in str(exc.value)

    def test_timeline_phases_overlay(self, capsys):
        main(["timeline", "fop", "--heap-mult", "2", "--phases",
              "--width", "40"])
        out = capsys.readouterr().out
        assert "cycles/column" in out
        assert "phases" in out and "phase(s)" in out
        assert "phase  periods" in out

    def test_timeline_phases_rejects_from(self, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text("{}")
        with pytest.raises(SystemExit) as exc:
            main(["timeline", "fop", "--from", str(trace), "--phases"])
        assert "--phases needs a live run" in str(exc.value)

    def test_explain_field_selector(self, record_with_lineage, capsys):
        # Pick any decision field present in the record, then ask for it.
        import json

        from repro.lineage.ledger import DECISION_KINDS

        doc = json.loads(open(record_with_lineage).read())["lineage"]
        fields = [e["field"] for e in doc["entries"]
                  if e["kind"] in DECISION_KINDS and e.get("field")]
        if not fields:
            pytest.skip("record has no field-bearing decision")
        main(["explain", "fop", "--from", record_with_lineage,
              "--field", fields[-1]])
        out = capsys.readouterr().out
        assert fields[-1] in out


if __name__ == "__main__":
    with open(CLI_PATH, "w") as fh:
        surface = cli_surface()
        json.dump({path: surface[path] for path in sorted(surface)}, fh,
                  indent=1)
        fh.write("\n")
    print(f"wrote {CLI_PATH}")
