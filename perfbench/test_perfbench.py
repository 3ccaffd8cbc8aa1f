"""Shape and gate tests of the benchmark itself (not part of tier-1).

    python3 -m pytest perfbench/test_perfbench.py -q

Everything runs in ``--quick`` mode: guests bounded at 500 K cycles, one
set-up, two passes.  The numbers such a run prints mean nothing; what is
tested is that the benchmark says what BENCHMARK.json declares, that its
simulated statistics repeat, and that its correctness gate can fail.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402
from hostclock import HostClock  # noqa: E402
from repro.harness.diskcache import spec_key  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
DECLARED = run.load_declared()
WORKLOAD_NAMES = [w["name"] for w in DECLARED["workloads"]]


def quick_run(workload, trace=0, seed=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--quick"],
        stdout=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def clock():
    return HostClock()


def one_pass(name, seed, clock, tmp_path):
    gate = workloads.Gate()
    workload = workloads.WORKLOADS[name](seed, True, str(tmp_path))
    try:
        workload.setup(clock, gate)
        return workload.run_pass(clock, gate), gate
    finally:
        workload.close()


def test_declaration_is_within_the_contract():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert DECLARED["paths"] == ["perfbench"]
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    names = WORKLOAD_NAMES + [m["name"] for m in DECLARED["end_to_end"]
                              + DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), names
    for w in DECLARED["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    for m in DECLARED["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in DECLARED["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert re.match(r"[A-Za-z0-9_/%.-]{1,16}\Z", m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert set(WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_workload_reports_every_end_to_end_metric(workload):
    doc = quick_run(workload)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert set(doc["metrics"]) == set(want)
    for name, entry in doc["metrics"].items():
        assert set(entry) == {"value", "unit"} and entry["unit"] == want[name]
        assert entry["value"] > 0, name


def test_traced_run_reports_every_per_layer_metric_and_writes_spans():
    doc = quick_run("harness_warm", trace=1)
    assert doc["correct"] is True
    assert set(doc["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    with open(os.path.join(HERE, "out", "trace-harness_warm.json")) as fh:
        trace = json.load(fh)
    spans = trace["spans"]
    ids = {s["id"] for s in spans}
    assert all(s["parent"] in ids for s in spans if s["parent"] is not None)
    assert all(s["end_ms"] >= s["start_ms"] for s in spans)
    assert {s["pass"] for s in spans if s["name"] == "bench.pass"} == {0, 1}
    layers = {s["name"].split(".")[0] for s in spans}
    assert {"bench", "vm", "harness", "fleet"} <= layers


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_simulated_statistics_repeat_for_a_seed_and_inputs_follow_the_seed(
        workload, clock, tmp_path):
    def simulated(result):
        return [(r.cycles, r.instructions, r.counters, r.monitor_summary,
                 r.field_series) for r in result.records]

    def specs(result):
        return [r.provenance["spec"] for r in result.records]

    first, gate = one_pass(workload, 1, clock, tmp_path)
    again, _ = one_pass(workload, 1, clock, tmp_path)
    other, _ = one_pass(workload, 2, clock, tmp_path)
    assert gate.failed == 0
    assert (first.cycles, first.instructions) \
        == (again.cycles, again.instructions)
    assert simulated(first) == simulated(again)
    # The seed reaches the program's inputs: RunSpec.seed (the PEBS
    # jitter stream) where monitoring is on, the mpegaudio cut on
    # sim_compute.  At --quick length too few samples have been taken
    # for the statistics to part; REPEATABILITY.txt shows them parting
    # at full length.
    assert specs(first) != specs(other)
    if workload == "sim_compute":
        assert first.cycles != other.cycles


def test_a_corrupted_cached_record_fails_the_gate(clock, tmp_path):
    gate = workloads.Gate()
    warm = workloads.HarnessWarm(1, True, str(tmp_path))
    try:
        warm.setup(clock, gate)
        warm.run_pass(clock, gate)
        assert gate.failed == 0
        name = spec_key(warm.matrix[0]) + ".json"
        (path,) = [os.path.join(d, name) for d, _dirs, files
                   in os.walk(warm.root) if name in files]
        with open(path) as fh:
            doc = json.load(fh)
        doc["record"]["cycles"] += 1
        with open(path, "w") as fh:
            json.dump(doc, fh)
        warm.run_pass(clock, gate)
        assert gate.failed > 0
    finally:
        warm.close()


def test_no_program_no_result(tmp_path):
    """With only BENCHMARK.json and perfbench/ present, refuse to run."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_compute",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
