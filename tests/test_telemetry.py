"""Tests for the telemetry package: metrics, tracing, exporters, and
the pure-observer invariant (telemetry must never perturb the
simulation)."""

import json

import pytest

from repro.harness.runner import RunSpec, execute
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.export import (
    chrome_trace,
    format_timeline,
    jsonl_records,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.metrics import MetricsRegistry, NullMetricsRegistry
from repro.telemetry.tracer import NullTracer, Tracer


class TestMetricsRegistry:
    def test_counter_inc(self):
        reg = MetricsRegistry()
        c = reg.counter("requests", "help text")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert reg.value("requests") == 5

    def test_factories_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_labels_create_children(self):
        reg = MetricsRegistry()
        c = reg.counter("by_event")
        c.labels("L1D_MISS").inc(3)
        c.labels("L2_MISS").inc()
        assert c.labels("L1D_MISS").value == 3
        assert c.labels("L2_MISS").value == 1
        assert c.labels("L1D_MISS") is c.labels("L1D_MISS")

    def test_gauge_set_inc_dec(self):
        g = MetricsRegistry().gauge("fill")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12

    def test_histogram_power_of_two_buckets(self):
        h = MetricsRegistry().histogram("pause")
        for v in (1, 2, 3, 100):
            h.observe(v)
        assert h.count == 4
        assert h.sum == 106
        assert h.mean == pytest.approx(26.5)
        bounds = dict(h.bucket_bounds())
        assert bounds[2] == 1      # value 1 -> [1, 2)
        assert bounds[4] == 2      # values 2, 3 -> [2, 4)
        assert bounds[128] == 1    # value 100 -> [64, 128)

    def test_snapshot_shapes(self):
        reg = MetricsRegistry()
        reg.counter("plain").inc(7)
        reg.counter("labeled").labels("a", "b").inc(2)
        reg.histogram("dist").observe(5)
        snap = reg.snapshot()
        assert snap["plain"] == 7
        assert snap["labeled"] == {"a,b": 2}
        assert snap["dist"]["count"] == 1
        assert snap["dist"]["sum"] == 5

    def test_render_lines(self):
        reg = MetricsRegistry()
        reg.counter("n").inc()
        reg.gauge("g").set(3)
        text = reg.render()
        assert "counter n 1" in text
        assert "gauge g 3" in text

    def test_null_registry_records_nothing(self):
        reg = NullMetricsRegistry()
        assert not reg.enabled
        c = reg.counter("anything")
        c.inc(100)
        c.labels("x").inc()
        assert c.value == 0
        assert reg.snapshot() == {}
        # All kinds share one no-op instrument.
        assert reg.counter("a") is reg.gauge("b") is reg.histogram("c")


class TestTracer:
    def make(self):
        clock = {"now": 0}
        tracer = Tracer(clock=lambda: clock["now"])
        return tracer, clock

    def test_span_timestamps_from_clock(self):
        tracer, clock = self.make()
        clock["now"] = 100
        tracer.begin("work", cat="gc")
        clock["now"] = 250
        ev = tracer.end()
        assert (ev.name, ev.cat, ev.ts, ev.dur) == ("work", "gc", 100, 150)

    def test_nesting_depth(self):
        tracer, clock = self.make()
        tracer.begin("outer")
        tracer.begin("inner")
        inner = tracer.end()
        outer = tracer.end()
        assert inner.depth == 1
        assert outer.depth == 0
        assert tracer.open_spans == 0

    def test_end_merges_extra_args(self):
        tracer, _ = self.make()
        tracer.begin("b", cat="gc", phase="minor")
        ev = tracer.end(promoted=12)
        assert ev.args == {"phase": "minor", "promoted": 12}

    def test_span_context_manager(self):
        tracer, clock = self.make()
        with tracer.span("cm", cat="jit"):
            clock["now"] = 50
        assert len(tracer.spans) == 1
        assert tracer.spans[0].dur == 50

    def test_instants_and_samples(self):
        tracer, clock = self.make()
        clock["now"] = 7
        tracer.instant("mark", cat="controller", reason="test")
        tracer.sample("fill", 42, cat="perfmon")
        assert tracer.instants[0].ts == 7
        assert tracer.samples[0].value == 42
        assert tracer.end_cycle() == 7

    def test_categories_first_appearance_order(self):
        tracer, _ = self.make()
        tracer.begin("a", cat="jit")
        tracer.end()
        tracer.instant("b", cat="gc")
        assert tracer.categories() == ["jit", "gc"]

    def test_event_cap_counts_drops(self):
        tracer, _ = self.make()
        tracer.max_events = 2
        for _ in range(4):
            tracer.begin("s")
            tracer.end()
        assert len(tracer.spans) == 2
        assert tracer.dropped_events == 2

    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        with tracer.span("x"):
            pass
        tracer.begin("y")
        assert tracer.end() is None
        tracer.instant("z")
        tracer.sample("s", 1)
        assert not tracer.spans and not tracer.instants and not tracer.samples

    def test_null_telemetry_singleton_disabled(self):
        assert not NULL_TELEMETRY.enabled
        assert not NULL_TELEMETRY.metrics.enabled
        # Binding a clock on the null bundle must stay a no-op.
        NULL_TELEMETRY.bind_clock(lambda: 99)
        NULL_TELEMETRY.tracer.begin("a")
        assert NULL_TELEMETRY.tracer.end() is None


class TestExporters:
    def traced(self):
        tracer, clock = TestTracer().make()
        tracer.begin("gc.minor", cat="gc")
        clock["now"] = 1000
        tracer.end(promoted=3)
        tracer.instant("controller.period_close", cat="controller")
        tracer.sample("perfmon.kernel.buffer_fill", 12, cat="perfmon")
        return tracer

    def test_chrome_trace_schema(self):
        tracer = self.traced()
        reg = MetricsRegistry()
        reg.counter("gc.minor_collections").inc()
        doc = chrome_trace(tracer, reg, metadata={"benchmark": "t"})
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"M", "X", "i", "C"} <= phases
        span = next(e for e in events if e["ph"] == "X")
        assert span["ts"] == 0 and span["dur"] == 1000
        assert span["args"]["promoted"] == 3
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert {"gc", "controller", "perfmon"} <= names
        assert doc["otherData"]["clock"] == "simulated cycles"
        assert doc["otherData"]["benchmark"] == "t"
        assert doc["metrics"]["gc.minor_collections"] == 1

    def test_chrome_trace_roundtrips_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), self.traced())
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_jsonl_sorted_with_metrics_tail(self, tmp_path):
        reg = MetricsRegistry()
        reg.gauge("vm.cycles").set(1000)
        path = tmp_path / "trace.jsonl"
        write_jsonl(str(path), self.traced(), reg)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[-1] == {"type": "metrics",
                               "data": {"vm.cycles": 1000}}
        body = records[:-1]
        assert {r["type"] for r in body} == {"span", "instant", "sample"}
        assert [r["ts"] for r in body] == sorted(r["ts"] for r in body)

    def test_jsonl_records_without_metrics(self):
        assert all("type" in r for r in jsonl_records(self.traced()))

    def test_timeline_text(self):
        text = format_timeline(self.traced(), total_cycles=2000, width=20)
        assert "timeline: 0 .. 2,000 cycles" in text
        assert "gc |" in text
        assert "longest spans:" in text
        assert "gc/gc.minor" in text

    def test_timeline_empty(self):
        assert format_timeline(Tracer()) == "timeline: no spans recorded"


class TestTelemetryBundle:
    def test_enabled_bundle_gets_real_backends(self):
        tele = Telemetry()
        assert tele.enabled
        assert isinstance(tele.metrics, MetricsRegistry)
        assert not isinstance(tele.metrics, NullMetricsRegistry)
        assert not isinstance(tele.tracer, NullTracer)

    def test_bind_clock(self):
        tele = Telemetry()
        tele.bind_clock(lambda: 77)
        tele.tracer.begin("a")
        assert tele.tracer.end().ts == 77


class TestVMIntegration:
    def test_monitored_run_traces_four_layers(self):
        tele = Telemetry()
        result = execute(RunSpec(benchmark="db", coalloc=True),
                         telemetry=tele)
        cats = set(tele.tracer.categories())
        assert {"perfmon", "controller", "gc", "jit"} <= cats
        assert tele.tracer.open_spans == 0
        snap = tele.metrics.snapshot()
        assert snap["vm.cycles"] == result.cycles
        assert snap["gc.minor_collections"] == result.gc_stats.minor_gcs
        assert snap["controller.batches"] == result.monitor_summary["batches"]
        # Canonical summary export: every summary key has a gauge twin.
        for key, value in result.monitor_summary.items():
            assert snap[f"controller.summary.{key}"] == value
        assert result.telemetry is tele

    def test_coalloc_decisions_counted(self):
        tele = Telemetry()
        result = execute(RunSpec(benchmark="db", coalloc=True),
                         telemetry=tele)
        accepted = tele.metrics.get("gc.coalloc.accepted")
        total = sum(c.value for c in accepted.children.values())
        assert total == result.gc_stats.coalloc_pairs

    def test_jit_compilations_labeled(self):
        tele = Telemetry()
        execute(RunSpec(benchmark="compress"), telemetry=tele)
        comp = tele.metrics.get("jit.compilations")
        assert comp.labels("baseline").value > 0
