"""Fleet daemon tests: scheduler dedup, HTTP API, metrics, watch.

The scheduler tests inject a blocking ``engine_call`` so the in-flight
dedup window is held open deterministically — no sleeps, no races.
The end-to-end tests run a real :class:`BackgroundFleet` (ephemeral
port, engine ``jobs=1`` so simulations run in the daemon's own process
and ``runner.SIM_RUNS`` is observable) and drive it through the
stdlib :class:`FleetClient`, asserting the acceptance criteria:
records fetched over the API are bit-identical to a local
``run_specs``, duplicate in-flight specs provably simulate once, and
``/metrics`` parses under the Prometheus text-format validator.
"""

import asyncio
import json
import logging
import socket
import struct
import threading
import time

import pytest

from repro.analysis.diff import diff_docs
from repro.fleet import (BackgroundFleet, FleetClient, FleetClientError,
                         FleetError, FleetScheduler, FleetServer,
                         FleetUnavailable)
from repro.fleet import scheduler as fleet_scheduler
from repro.fleet import server as fleet_server
from repro.fleet import watch
from repro.harness import engine, runner
from repro.harness.diskcache import spec_key
from repro.harness.engine import EventBus
from repro.harness.runner import RunSpec
from repro.telemetry.export import parse_prometheus_text

SMALL = 150_000  # cycles: enough for a couple of scheduler quanta


@pytest.fixture(autouse=True)
def _close_clients(monkeypatch):
    """Every :class:`FleetClient` a test makes is closed when it ends:
    a client keeps its connections until then."""
    made = []
    init = FleetClient.__init__

    def tracked(self, *args, **kw):
        init(self, *args, **kw)
        made.append(self)

    monkeypatch.setattr(FleetClient, "__init__", tracked)
    yield
    for client in made:
        client.close()


def spec_doc(benchmark="compress", **kw):
    doc = {"benchmark": benchmark, "until_cycles": SMALL}
    doc.update(kw)
    return doc


# ---------------------------------------------------------------------------
# EventBus
# ---------------------------------------------------------------------------

class TestEventBus:
    def test_backlog_seeds_late_subscriber(self):
        bus = EventBus(retain=3)
        for i in range(5):
            bus.publish({"i": i})
        got = []
        bus.subscribe(got.append, backlog=True)
        # Bounded history: only the last 3 survive.
        assert [d["i"] for d in got] == [2, 3, 4]
        bus.publish({"i": 5})
        assert [d["i"] for d in got] == [2, 3, 4, 5]

    def test_no_backlog_and_unsubscribe(self):
        bus = EventBus()
        bus.publish({"i": 0})
        got = []
        bus.subscribe(got.append, backlog=False)
        assert got == []
        bus.publish({"i": 1})
        assert got == [{"i": 1}]
        bus.unsubscribe(got.append)
        bus.publish({"i": 2})
        assert got == [{"i": 1}]


# ---------------------------------------------------------------------------
# Scheduler: validation + deterministic dedup
# ---------------------------------------------------------------------------

class TestSchedulerValidation:
    def _scheduler(self):
        return FleetScheduler(jobs=1, engine_call=lambda *a, **k: None)

    def test_rejects_non_list_and_empty(self):
        async def scenario():
            sched = self._scheduler()
            for bad in (None, {}, [], "compress"):
                with pytest.raises(FleetError):
                    sched.parse_specs(bad)

        asyncio.run(scenario())

    def test_rejects_unknown_benchmark_and_field(self):
        async def scenario():
            sched = self._scheduler()
            with pytest.raises(FleetError, match="unknown benchmark"):
                sched.parse_specs([{"benchmark": "nope"}])
            with pytest.raises(FleetError, match="unknown field"):
                sched.parse_specs([{"benchmark": "compress",
                                    "bogus": 1}])

        asyncio.run(scenario())

    def test_parses_valid_docs(self):
        async def scenario():
            sched = self._scheduler()
            specs = sched.parse_specs(
                [spec_doc(), spec_doc("db", seed=7)])
            assert [s.benchmark for s in specs] == ["compress", "db"]
            assert specs[1].seed == 7

        asyncio.run(scenario())

    def test_draining_refuses(self):
        async def scenario():
            sched = self._scheduler()
            await sched.drain()
            with pytest.raises(FleetUnavailable):
                sched.submit([RunSpec(benchmark="compress")])

        asyncio.run(scenario())


class TestSchedulerDedup:
    def test_inflight_key_coalesces_onto_owner(self):
        """While batch A's simulation is held in flight, batch B
        submitting the identical spec must coalesce — exactly one
        engine call — and both jobs finish once it completes."""
        release = threading.Event()
        calls = []

        def engine_call(specs, jobs=None, progress=None, batch=None,
                        leg_cycles=None):
            calls.append((batch, [spec_key(s) for s in specs]))
            assert release.wait(timeout=30)
            for s in specs:
                runner.store_record(s, runner.record_for(s))

        async def scenario():
            sched = FleetScheduler(jobs=1, engine_call=engine_call)
            spec = RunSpec(benchmark="compress", until_cycles=SMALL,
                           seed=11)
            job_a = sched.submit([spec])
            # Let A reach the engine call (running on a worker thread).
            for _ in range(200):
                if calls:
                    break
                await asyncio.sleep(0.01)
            assert calls, "batch A never reached the engine"

            job_b = sched.submit([spec])
            assert job_b.coalesced == {spec_key(spec)}
            assert not job_b.done_event.is_set()

            release.set()
            await asyncio.wait_for(job_a.done_event.wait(), timeout=30)
            await asyncio.wait_for(job_b.done_event.wait(), timeout=30)
            assert len(calls) == 1, "coalesced spec must not re-simulate"
            assert job_a.state == "done" and job_b.state == "done"
            rows = sched.job_json(job_b)["spec_states"]
            assert rows[0]["coalesced"] is True
            assert rows[0]["state"] == "done"
            counters = {name: inst.value
                        for name, inst in sched.metrics.instruments()
                        if hasattr(inst, "value")}
            assert counters["fleet.dedup_coalesced"] == 1
            assert counters["fleet.cache_misses"] == 1
            await sched.drain()

        asyncio.run(scenario())

    def test_intra_batch_duplicate_simulates_once(self):
        calls = []

        def engine_call(specs, jobs=None, progress=None, batch=None,
                        leg_cycles=None):
            calls.append([spec_key(s) for s in specs])
            for s in specs:
                runner.store_record(s, runner.record_for(s))

        async def scenario():
            sched = FleetScheduler(jobs=1, engine_call=engine_call)
            spec = RunSpec(benchmark="compress", until_cycles=SMALL,
                           seed=12)
            job = sched.submit([spec, spec])
            await asyncio.wait_for(job.done_event.wait(), timeout=30)
            assert calls == [[spec_key(spec)]]
            rows = sched.job_json(job)["spec_states"]
            assert [r["coalesced"] for r in rows] == [False, True]
            assert all(r["state"] == "done" for r in rows)
            await sched.drain()

        asyncio.run(scenario())

    def test_terminal_entry_is_a_cache_hit(self):
        calls = []

        def engine_call(specs, jobs=None, progress=None, batch=None,
                        leg_cycles=None):
            calls.append(1)
            for s in specs:
                runner.store_record(s, runner.record_for(s))

        async def scenario():
            sched = FleetScheduler(jobs=1, engine_call=engine_call)
            spec = RunSpec(benchmark="compress", until_cycles=SMALL,
                           seed=13)
            job_a = sched.submit([spec])
            await asyncio.wait_for(job_a.done_event.wait(), timeout=30)
            job_b = sched.submit([spec])
            await asyncio.wait_for(job_b.done_event.wait(), timeout=30)
            assert len(calls) == 1
            counters = {name: inst.value
                        for name, inst in sched.metrics.instruments()
                        if hasattr(inst, "value")}
            assert counters["fleet.cache_hits"] == 1
            await sched.drain()

        asyncio.run(scenario())

    def test_engine_failure_fails_job_and_entries(self):
        def engine_call(specs, jobs=None, progress=None, batch=None,
                        leg_cycles=None):
            raise RuntimeError("boom")

        async def scenario():
            sched = FleetScheduler(jobs=1, engine_call=engine_call)
            job = sched.submit([RunSpec(benchmark="compress",
                                        until_cycles=SMALL, seed=14)])
            await asyncio.wait_for(job.done_event.wait(), timeout=30)
            assert job.state == "failed"
            assert "boom" in job.error
            row = sched.job_json(job)["spec_states"][0]
            assert row["state"] == "failed"
            await sched.drain()

        asyncio.run(scenario())


class TestJobRetention:
    def test_oldest_finished_jobs_are_evicted_first(self):
        """Past the cap the job table drops terminal jobs in finish
        order; an evicted id answers 404 like an unknown one, and a
        running or queued job stays however full the table is."""
        cap = fleet_scheduler.RETAIN_JOBS
        release = threading.Event()
        held = RunSpec(benchmark="compress", until_cycles=SMALL, seed=32)

        def engine_call(specs, jobs=None, progress=None, batch=None,
                        leg_cycles=None):
            if held in specs:
                assert release.wait(timeout=30)
            for s in specs:
                runner.store_record(s, runner.record_for(s))

        async def get_status(server, path):
            reader, writer = await asyncio.open_connection(server.host,
                                                           server.port)
            writer.write(f"GET {path} HTTP/1.1\r\n\r\n".encode())
            status = (await reader.readline()).split()[1]
            writer.close()
            return int(status)

        async def scenario():
            sched = FleetScheduler(jobs=1, engine_call=engine_call)
            spec = RunSpec(benchmark="compress", until_cycles=SMALL,
                           seed=31)
            jobs = [sched.submit([spec]) for _ in range(cap + 6)]
            for job in jobs:
                await asyncio.wait_for(job.done_event.wait(), timeout=30)
            ids = [row["job"] for row in sched.jobs_json()]
            assert ids == [job.id for job in jobs[6:]]

            running = sched.submit([held])
            for _ in range(3000):
                if running.state == "running":
                    break
                await asyncio.sleep(0.01)
            assert running.state == "running"
            queued = [sched.submit([spec]) for _ in range(3)]
            assert len(sched.jobs_json()) == cap + 4
            assert sched.get_job(jobs[6].id) is jobs[6]
            release.set()
            for job in [running] + queued:
                await asyncio.wait_for(job.done_event.wait(), timeout=30)
            ids = [row["job"] for row in sched.jobs_json()]
            assert ids == [job.id for job in jobs[10:] + [running] + queued]

            server = FleetServer(sched, port=0)
            await server.start()
            assert await get_status(server, f"/jobs/{jobs[9].id}") == 404
            assert await get_status(server, f"/jobs/{jobs[10].id}") == 200
            assert await get_status(server, "/jobs/b99999") == 404
            await server.shutdown()

        asyncio.run(scenario())

    def test_entries_follow_the_retained_jobs(self, monkeypatch):
        """Evicting a job drops each terminal spec entry no retained job
        names, so the entry table is bounded with the job table; a
        dropped key submitted again is a cache hit, found through the
        record cache."""
        monkeypatch.setattr(runner, "cached_record", lambda spec: object())

        def engine_call(specs, **kw):
            raise AssertionError("a cached spec was simulated")

        async def scenario():
            sched = FleetScheduler(jobs=1, engine_call=engine_call)
            specs = [RunSpec(benchmark="compress", until_cycles=SMALL,
                             seed=seed) for seed in range(2000)]
            jobs = [sched.submit([spec]) for spec in specs]
            for job in jobs:
                await asyncio.wait_for(job.done_event.wait(), timeout=30)
            named = {key for row in sched.jobs_json()
                     for key in sched.get_job(row["job"]).keys}
            assert set(sched._entries) == named
            assert len(named) == fleet_scheduler.RETAIN_JOBS
            again = sched.submit([specs[0]])
            await asyncio.wait_for(again.done_event.wait(), timeout=30)
            assert sched.spec_row(again, 0)["state"] == "cache-hit"

        asyncio.run(scenario())

    def test_healthz_counts_jobs_without_building_them(self, monkeypatch):
        """A liveness probe counts the job table; it builds no job's
        summary (a summary that cannot be built must not fail it)."""
        def engine_call(specs, jobs=None, progress=None, batch=None,
                        leg_cycles=None):
            for s in specs:
                runner.store_record(s, runner.record_for(s))

        def unbuildable(job, specs=True):
            raise AssertionError("/healthz built a job summary")

        async def healthz(server):
            reader, writer = await asyncio.open_connection(server.host,
                                                           server.port)
            writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
            status = int((await reader.readline()).split()[1])
            length = 0
            while (line := await reader.readline()) != b"\r\n":
                name, _, value = line.decode().partition(":")
                if name.lower() == "content-length":
                    length = int(value)
            body = json.loads(await reader.readexactly(length))
            writer.close()
            return status, body

        async def scenario():
            sched = FleetScheduler(jobs=1, engine_call=engine_call)
            spec = RunSpec(benchmark="compress", until_cycles=SMALL,
                           seed=34)
            jobs = [sched.submit([spec]) for _ in range(3)]
            for job in jobs:
                await asyncio.wait_for(job.done_event.wait(), timeout=30)
            monkeypatch.setattr(sched, "job_json", unbuildable)
            server = FleetServer(sched, port=0)
            await server.start()
            try:
                assert await healthz(server) == (
                    200, {"ok": True, "draining": False, "jobs": 3})
            finally:
                await server.shutdown()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# End-to-end over HTTP
# ---------------------------------------------------------------------------

class TestFleetEndToEnd:
    def test_api_record_bit_identical_to_local_run(self):
        spec = RunSpec(benchmark="compress", until_cycles=SMALL, seed=21)
        with BackgroundFleet(jobs=1) as fleet:
            client = FleetClient(fleet.base_url, timeout=60)
            doc = client.submit([json_spec(spec)], wait=True)
            assert doc["state"] == "done"
            key = doc["spec_states"][0]["spec"]
            assert key == spec_key(spec)
            via_api = client.record(key)["record"]
        # Recompute from scratch locally: determinism makes the two
        # JSON documents bit-identical.
        runner.clear_cache()
        local = engine.run_specs([spec], jobs=1)[0].to_json()
        assert via_api == local

    def test_concurrent_duplicate_specs_simulate_once(self):
        spec = RunSpec(benchmark="db", until_cycles=SMALL, seed=22)
        before = runner.SIM_RUNS
        results = []
        with BackgroundFleet(jobs=1) as fleet:
            def submit():
                client = FleetClient(fleet.base_url, timeout=60)
                doc = client.submit([json_spec(spec)], wait=True)
                results.append(
                    client.record(doc["spec_states"][0]["spec"]))

            threads = [threading.Thread(target=submit) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        # jobs=1 keeps the simulation in the daemon process, so the
        # process-wide counter proves exactly one simulation happened.
        assert runner.SIM_RUNS == before + 1
        assert len(results) == 2
        assert results[0] == results[1], "callers must share one record"

    def test_metrics_parse_and_fleet_series(self):
        spec = RunSpec(benchmark="compress", until_cycles=SMALL, seed=23)
        other = RunSpec(benchmark="db", until_cycles=SMALL, seed=23)
        with BackgroundFleet(jobs=1) as fleet:
            client = FleetClient(fleet.base_url, timeout=60)
            job = client.submit([json_spec(spec), json_spec(other),
                                 json_spec(spec)], wait=True)
            listed = client.jobs()
            text = client.metrics()
        rows = job["spec_states"]
        assert job["state"] == "done" and job["completed"] == 3
        assert rows[0]["spec"] == rows[2]["spec"] != rows[1]["spec"]
        assert [bool(row.get("coalesced")) for row in rows] \
            == [False, False, True], "the duplicate rides on the first"
        assert [doc["state"] for doc in listed] == ["done"]
        parsed = parse_prometheus_text(text)
        types = {name: doc["type"] for name, doc in parsed.items()}
        for family, kind in (
                ("repro_fleet_jobs_submitted", "counter"),
                ("repro_fleet_jobs_completed", "counter"),
                ("repro_fleet_specs_submitted", "counter"),
                ("repro_fleet_sim_runs", "counter"),
                ("repro_fleet_cache_hits", "counter"),
                ("repro_fleet_dedup_coalesced", "counter"),
                ("repro_fleet_queue_depth", "gauge"),
                ("repro_fleet_in_flight", "gauge"),
                ("repro_fleet_uptime_seconds", "gauge"),
                ("repro_fleet_wall_ms_compress", "histogram"),
                ("repro_fleet_wall_ms_db", "histogram")):
            assert types.get(family) == kind, (family, types.get(family))
        flat = {series: value
                for doc in parsed.values()
                for series, _labels, value in doc["samples"]}
        assert flat["repro_fleet_jobs_submitted"] == 1
        assert flat["repro_fleet_jobs_completed"] == 1
        assert flat["repro_fleet_specs_submitted"] == 3
        assert flat["repro_fleet_sim_runs"] == 2, \
            "three submitted specs, two unique: exactly two simulations"
        assert flat["repro_fleet_dedup_coalesced"] == 1
        assert flat["repro_fleet_queue_depth"] == 0
        assert flat["repro_fleet_in_flight"] == 0
        assert flat["repro_fleet_runner_sim_runs"] >= 2
        assert flat["repro_fleet_uptime_seconds"] > 0
        # The per-benchmark wall-time histograms are complete.
        assert flat["repro_fleet_wall_ms_compress_count"] == 1
        assert flat["repro_fleet_wall_ms_db_count"] == 1

    def test_leg_cycles_job_is_counted_like_any_other(self):
        """A legged job speaks the engine's one event vocabulary, so the
        fleet's gauges, histogram and spec rows see it."""
        spec = RunSpec(benchmark="compress", until_cycles=SMALL, seed=28)
        before = runner.SIM_RUNS
        with BackgroundFleet(jobs=1) as fleet:
            client = FleetClient(fleet.base_url, timeout=60)
            doc = client.submit([json_spec(spec)], leg_cycles=60_000,
                                wait=True)
            assert doc["state"] == "done"
            row = doc["spec_states"][0]
            via_api = client.record(row["spec"])["record"]
            parsed = parse_prometheus_text(client.metrics())
        assert row["wall_s"] > 0
        flat = {series: value
                for family in parsed.values()
                for series, _labels, value in family["samples"]}
        assert flat["repro_fleet_in_flight"] == 0
        assert flat["repro_fleet_sim_runs"] == 1
        assert flat["repro_fleet_runner_sim_runs"] == runner.SIM_RUNS \
            == before + 1
        assert flat["repro_fleet_wall_ms_compress_count"] == 1
        assert flat["repro_fleet_wall_ms_compress_sum"] > 0, \
            "no 0 ms observation"
        runner.clear_cache()
        assert via_api == runner.record_for(spec).to_json()

    def test_diff_endpoint_and_errors(self):
        a = RunSpec(benchmark="compress", until_cycles=SMALL, seed=24)
        b = RunSpec(benchmark="compress", until_cycles=SMALL, seed=25)
        with BackgroundFleet(jobs=1) as fleet:
            client = FleetClient(fleet.base_url, timeout=60)
            doc = client.submit([json_spec(a), json_spec(b)], wait=True)
            key_a, key_b = [r["spec"] for r in doc["spec_states"]]

            same = client.diff(key_a, key_a)
            assert same["diff"]["differences"] == 0

            # Seeds differ only in sampling jitter: the wire diff
            # matches the in-process differ on the same records.
            wire = client.diff(key_a, key_b)
            local = diff_docs(client.record(key_a),
                              client.record(key_b))
            assert wire["diff"] == local.to_json()

            with pytest.raises(FleetClientError) as exc:
                client.record("no-such-key")
            assert exc.value.status == 404
            with pytest.raises(FleetClientError) as exc:
                client.diff(key_a, "no-such-key")
            assert exc.value.status == 404
            with pytest.raises(FleetClientError) as exc:
                client.submit([{"benchmark": "nope"}])
            assert exc.value.status == 400
            with pytest.raises(FleetClientError) as exc:
                client.job("b999")
            assert exc.value.status == 404

    def test_event_stream_and_graceful_drain(self):
        spec = RunSpec(benchmark="compress", until_cycles=SMALL, seed=26)
        fleet = BackgroundFleet(jobs=1)
        events = []

        def tail():
            client = FleetClient(fleet.base_url)
            for doc in client.events():  # ends on the shutdown event
                events.append(doc)

        tailer = threading.Thread(target=tail)
        tailer.start()
        try:
            client = FleetClient(fleet.base_url, timeout=60)
            client.submit([json_spec(spec)], wait=True)
            assert client.health()["ok"] is True
        finally:
            fleet.stop()
        tailer.join(timeout=30)
        assert not tailer.is_alive(), "stream must end on shutdown"

        kinds = [(e.get("type"), e.get("kind")) for e in events]
        assert ("fleet", "job-submitted") in kinds
        assert ("fleet", "job-finished") in kinds
        assert ("job", "finished") in kinds
        assert kinds[-1] == ("fleet", "shutdown")
        finished = next(e for e in events
                        if (e.get("type"), e.get("kind"))
                        == ("job", "finished"))
        # Engine events on the wire carry the batch tag and timestamp.
        assert finished["batch"] == "b1"
        assert isinstance(finished["ts"], float)

        # Draining refuses new work with 503.
        with pytest.raises(FleetClientError):
            FleetClient(fleet.base_url, timeout=5).health()


    def test_a_reader_that_stops_reading_cannot_hold_the_drain(self):
        """An ``/events`` client that stops reading is cut ``DRAIN_S``
        after the shutdown announcement, so the daemon exits; a client
        that reads still receives the ``shutdown`` document."""
        fleet = BackgroundFleet(jobs=1)
        bus = fleet.server.scheduler.bus
        events = []

        def tail():
            for doc in FleetClient(fleet.base_url).events():
                events.append(doc)

        tailer = threading.Thread(target=tail)
        tailer.start()
        stuck = socket.create_connection(("127.0.0.1", fleet.port))
        try:
            stuck.sendall(b"GET /events?format=jsonl HTTP/1.1\r\n"
                          b"Host: x\r\n\r\n")
            deadline = time.monotonic() + 10
            while len(bus._subscribers) != 2:
                assert time.monotonic() < deadline, len(bus._subscribers)
                time.sleep(0.01)
            # 8 MB: more than the socket buffers hold for a reader that
            # never reads.
            for i in range(400):
                fleet.server.loop.call_soon_threadsafe(
                    bus.publish, {"type": "test", "kind": "bulk", "i": i,
                                  "pad": "x" * 20_000})
            start = time.monotonic()
            fleet.stop(timeout=fleet_server.DRAIN_S + 20)
            assert time.monotonic() - start < fleet_server.DRAIN_S + 5
        finally:
            stuck.close()
        tailer.join(timeout=30)
        assert not tailer.is_alive()
        assert sum(e.get("kind") == "bulk" for e in events) == 400
        assert (events[-1]["type"], events[-1]["kind"]) \
            == ("fleet", "shutdown")

    def test_hung_up_event_client_unsubscribes_on_a_quiet_bus(self, caplog):
        """A client that connects to ``/events`` and hangs up while
        nothing is published is unsubscribed at once — not at the next
        publish — and leaves no traceback in the log."""
        import logging
        import socket
        import time

        def subscribers(count):
            deadline = time.monotonic() + 10
            while len(bus._subscribers) != count:
                assert time.monotonic() < deadline, len(bus._subscribers)
                time.sleep(0.01)

        caplog.set_level(logging.DEBUG)
        with BackgroundFleet(jobs=1) as fleet:
            bus = fleet.server.scheduler.bus
            subscribers(0)
            sock = socket.create_connection(("127.0.0.1", fleet.port))
            sock.sendall(b"GET /events HTTP/1.1\r\nHost: x\r\n\r\n")
            subscribers(1)
            sock.close()
            subscribers(0)
        assert not [r for r in caplog.records
                    if r.levelno >= logging.WARNING]


# ---------------------------------------------------------------------------
# Connections: kept between requests, closed cleanly
# ---------------------------------------------------------------------------

def read_reply(sock: socket.socket) -> tuple:
    """One HTTP reply off a raw socket, reading no byte past it:
    (status, headers, body)."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        byte = sock.recv(1)
        assert byte, f"connection closed mid-head: {head!r}"
        head += byte
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.lower().split(": ", 1) for line in lines[1:] if line)
    body, length = b"", int(headers["content-length"])
    while len(body) < length:
        body += sock.recv(length - len(body))
    return int(lines[0].split()[1]), headers, body


def closed_by_peer(sock: socket.socket, within: float = 5.0) -> bool:
    """True when the peer closes without sending another byte."""
    sock.settimeout(within)
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


class ScriptedPeer:
    """A raw TCP listener that answers the requests it reads, in order,
    as its script says: ``"ok"`` replies and keeps the connection,
    ``"ok-close"`` replies and closes it, ``"drop"`` closes it without a
    reply, and bytes are sent as they are, then the connection is reset
    once the client has had time to read them (a reset discards what the
    client has not read).  Past the script every request is dropped."""

    OK = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
          b"Content-Length: 12\r\n\r\n{\"ok\": true}")

    def __init__(self, script):
        self.script = list(script)
        self.accepts = self.requests = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.accepts += 1
            with conn:
                while True:
                    data = b""
                    while not data.endswith(b"\r\n\r\n"):
                        chunk = conn.recv(1)
                        if not chunk:
                            break
                        data += chunk
                    if not data.endswith(b"\r\n\r\n"):
                        break
                    self.requests += 1
                    action = self.script.pop(0) if self.script else "drop"
                    if action in ("ok", "ok-close"):
                        conn.sendall(self.OK)
                    elif action != "drop":
                        conn.sendall(action)
                        time.sleep(0.5)
                        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                        struct.pack("ii", 1, 0))
                    if action != "ok":
                        break

    def close(self):
        self.listener.shutdown(socket.SHUT_RDWR)   # wakes the accept()
        self.listener.close()


class TestConnections:
    @pytest.fixture
    def quick_deadline(self, monkeypatch):
        monkeypatch.setattr(fleet_server, "REQUEST_TIMEOUT_S", 0.3)

    def test_idle_kept_connection_closes_silently(self, quick_deadline):
        with BackgroundFleet(jobs=1) as fleet:
            sock = socket.create_connection(("127.0.0.1", fleet.port))
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            status, headers, _ = read_reply(sock)
            assert status == 200 and headers["connection"] == "keep-alive"
            start = time.monotonic()
            assert closed_by_peer(sock), "the idle close wrote bytes"
            assert time.monotonic() - start >= 0.2
            sock.close()

    def test_half_sent_head_gets_400_and_close(self, quick_deadline):
        with BackgroundFleet(jobs=1) as fleet:
            sock = socket.create_connection(("127.0.0.1", fleet.port))
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost:")
            status, headers, body = read_reply(sock)
            assert status == 400 and headers["connection"] == "close"
            assert json.loads(body)["error"] == "request timeout"
            assert closed_by_peer(sock)
            sock.close()

    @pytest.mark.parametrize("request_bytes, status", [
        (b"POST /jobs HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n", 413),
        (b"POST /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
        (b"NONSENSE\r\n\r\n", 400),
    ], ids=["413", "bad-length", "malformed"])
    def test_error_before_the_body_closes(self, request_bytes, status):
        with BackgroundFleet(jobs=1) as fleet:
            sock = socket.create_connection(("127.0.0.1", fleet.port))
            sock.sendall(request_bytes)
            got, headers, _ = read_reply(sock)
            assert got == status and headers["connection"] == "close"
            assert closed_by_peer(sock)
            sock.close()

    def test_error_after_the_body_keeps_the_connection(self):
        with BackgroundFleet(jobs=1) as fleet:
            sock = socket.create_connection(("127.0.0.1", fleet.port))
            sock.sendall(b"GET /jobs/b9 HTTP/1.1\r\n\r\n"
                         b"GET /healthz HTTP/1.1\r\n\r\n")
            assert read_reply(sock)[0] == 404
            assert read_reply(sock)[0] == 200
            sock.close()

    def test_drain_closes_a_held_idle_connection(self, caplog):
        caplog.set_level(logging.DEBUG)
        fleet = BackgroundFleet(jobs=1)
        client = FleetClient(fleet.base_url, timeout=60)
        assert client.health()["ok"] is True
        held = next(iter(client._conns.values())).sock
        start = time.monotonic()
        fleet.stop()
        assert time.monotonic() - start < 2.0
        assert closed_by_peer(held, within=1.0)
        assert not [r for r in caplog.records
                    if r.levelno >= logging.WARNING]

    def test_one_client_reuses_one_connection(self, monkeypatch):
        accepts = []
        handle = FleetServer._handle

        async def counted(self, reader, writer):
            accepts.append(writer)
            await handle(self, reader, writer)

        monkeypatch.setattr(FleetServer, "_handle", counted)
        spec = RunSpec(benchmark="compress", until_cycles=SMALL, seed=33)
        with BackgroundFleet(jobs=1) as fleet:
            client = FleetClient(fleet.base_url, timeout=60)
            job = client.submit([json_spec(spec)], wait=True)
            assert job["state"] == "done"
            key = job["spec_states"][0]["spec"]
            calls = [client.health, client.jobs, client.metrics,
                     lambda: client.record(key),
                     lambda: client.job(job["job"], wait=True),
                     lambda: client.diff(key, key),
                     lambda: client.submit([json_spec(spec)], wait=True)]
            for i in range(19):
                calls[i % len(calls)]()
            with pytest.raises(FleetClientError) as exc:
                client.job("b404")
            assert exc.value.status == 404
            assert len(accepts) == 1
            client.close()
            assert client.health()["ok"] is True
            assert len(accepts) == 2

    def test_stale_reused_connection_is_reopened_once(self):
        peer = ScriptedPeer(["ok-close", "ok", "drop", "drop"])
        try:
            client = FleetClient(peer.url, timeout=10)
            assert client.health() == {"ok": True}
            # The peer closed the kept connection: reopened once.
            assert client.health() == {"ok": True}
            assert (peer.accepts, peer.requests) == (2, 2)
            # Dropped on the reused and on the fresh connection: the
            # fresh one is not retried.
            with pytest.raises(FleetClientError):
                client.health()
            assert (peer.accepts, peer.requests) == (3, 4)
        finally:
            peer.close()

    @pytest.mark.parametrize("partial", [
        b"HTTP/1.1 20",
        b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\n\r\n{\"ok",
    ], ids=["in-head", "in-body"])
    def test_reply_broken_off_is_not_retried(self, partial):
        peer = ScriptedPeer(["ok", partial])
        try:
            client = FleetClient(peer.url, timeout=10)
            assert client.health() == {"ok": True}
            with pytest.raises(FleetClientError):
                client.submit([{"benchmark": "compress"}])
            assert (peer.accepts, peer.requests) == (1, 2)
        finally:
            peer.close()


def json_spec(spec: RunSpec) -> dict:
    from dataclasses import asdict

    return asdict(spec)


# ---------------------------------------------------------------------------
# Watch: fold + render + offline replay
# ---------------------------------------------------------------------------

def synthetic_stream():
    return [
        {"type": "fleet", "kind": "job-submitted", "batch": "b1",
         "specs": 3, "fresh": 2, "cache_hits": 1, "coalesced": 0,
         "benchmarks": ["compress", "db"], "ts": 1.0},
        {"type": "fleet", "kind": "job-started", "batch": "b1",
         "ts": 1.1},
        {"type": "job", "kind": "queued", "benchmark": "compress",
         "spec": "k1", "index": 0, "total": 2, "completed": 0,
         "batch": "b1", "ts": 1.2},
        {"type": "job", "kind": "finished", "benchmark": "compress",
         "spec": "k1", "index": 0, "total": 2, "completed": 1,
         "wall_s": 0.5, "eta_s": 0.5, "batch": "b1", "ts": 1.7},
        {"type": "job", "kind": "finished", "benchmark": "db",
         "spec": "k2", "index": 1, "total": 2, "completed": 2,
         "wall_s": 0.4, "batch": "b1", "ts": 2.1},
        {"type": "fleet", "kind": "job-finished", "batch": "b1",
         "state": "done", "wall_s": 1.2, "error": None, "ts": 2.2},
        {"type": "fleet", "kind": "shutdown", "jobs": 1, "ts": 3.0},
    ]


class TestWatch:
    def test_fold(self):
        state = watch.FleetState()
        for doc in synthetic_stream():
            state.apply(doc)
        assert state.total_specs == 3
        assert state.sim_runs == 2
        assert state.cache_hits == 1
        assert state.cache_hit_rate == pytest.approx(1 / 3)
        assert state.shutdown is True
        view = state.jobs["b1"]
        assert view.state == "done"
        assert view.finished_specs == 2
        assert view.wall_s == 1.2

    def test_render(self):
        state = watch.FleetState()
        for doc in synthetic_stream():
            state.apply(doc)
        text = watch.render(state)
        assert "1 job(s)" in text and "1 done" in text
        assert "cache-hit 33%" in text
        assert "[daemon shut down]" in text
        assert "b1" in text and "3/3" in text
        assert "compress,db" in text

    def test_replay_lines_tolerates_noise_and_sse(self):
        lines = [json.dumps(d) for d in synthetic_stream()]
        lines.insert(0, "")               # blank
        lines.insert(1, "not json {")     # corrupt line
        lines[3] = "data: " + lines[3]    # recorded SSE frame
        state = watch.replay_lines(lines)
        assert state.total_specs == 3 and state.shutdown

    def test_replay_file_matches_live_fold(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("".join(json.dumps(d) + "\n"
                                for d in synthetic_stream()))
        state = watch.replay_file(str(path))
        assert watch.render(state) == watch.render(
            watch.replay_lines([json.dumps(d)
                                for d in synthetic_stream()]))

    def test_watch_stream_raw_json_passthrough(self):
        import io

        out = io.StringIO()
        state = watch.watch_stream(iter(synthetic_stream()), out=out,
                                   raw_json=True)
        lines = [json.loads(l) for l in out.getvalue().splitlines()]
        assert lines == synthetic_stream()
        assert state.shutdown

    def test_watch_stream_renders_frames(self):
        import io

        out = io.StringIO()
        watch.watch_stream(iter(synthetic_stream()), out=out,
                           redraw=False, width=60)
        text = out.getvalue()
        assert "[daemon shut down]" in text
        assert text.count("fleet:") == len(synthetic_stream())


# ---------------------------------------------------------------------------
# Server-side event log (serve --events-log)
# ---------------------------------------------------------------------------

class TestEventsLog:
    def test_log_replays_into_the_dashboard(self, tmp_path):
        path = tmp_path / "events.jsonl"
        spec = RunSpec(benchmark="compress", until_cycles=SMALL, seed=27)
        with BackgroundFleet(jobs=1, events_log=str(path)) as fleet:
            client = FleetClient(fleet.base_url, timeout=60)
            client.submit([json_spec(spec)], wait=True)
        state = watch.replay_file(str(path))
        assert state.shutdown
        assert state.sim_runs == 1
        assert state.jobs["b1"].state == "done"
        assert "done" in watch.render(state)

    def test_unwritable_log_exits_with_one_line(self, tmp_path):
        from repro.__main__ import main

        blocker = tmp_path / "file"
        blocker.write_text("")
        path = blocker / "events.jsonl"  # under a regular file
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "0", "--events-log", str(path)])
        assert str(exc.value).startswith(
            f"serve: cannot write events log to {str(path)!r}: ")

    def test_log_parent_directories_are_created(self, tmp_path):
        path = tmp_path / "new" / "dir" / "events.jsonl"
        with BackgroundFleet(jobs=1, events_log=str(path)):
            pass
        assert watch.replay_file(str(path)).shutdown

    def test_progress_log_and_events_log_fold_alike(self, tmp_path):
        """``--progress-log`` and ``serve --events-log`` are one format:
        the same job documents, one sorted-key line each."""
        progress_log = tmp_path / "progress.jsonl"
        events_log = tmp_path / "events.jsonl"
        local = RunSpec(benchmark="compress", until_cycles=SMALL, seed=31)
        served = RunSpec(benchmark="compress", until_cycles=SMALL, seed=32)
        log = engine.JsonlLog(str(progress_log))
        engine.run_specs([local], jobs=1, progress=log)
        log.close()
        with BackgroundFleet(jobs=1, events_log=str(events_log)) as fleet:
            FleetClient(fleet.base_url, timeout=60).submit(
                [json_spec(served)], wait=True)

        def job_docs(path):
            lines = path.read_text().splitlines()
            docs = [json.loads(line) for line in lines]
            assert lines == [json.dumps(d, sort_keys=True) for d in docs]
            return [d for d in docs if d["type"] == "job"]

        local_docs = job_docs(progress_log)
        served_docs = job_docs(events_log)
        assert [d["kind"] for d in local_docs] \
            == [d["kind"] for d in served_docs] \
            == ["queued", "started", "finished"]
        assert [set(d) | {"batch"} for d in local_docs] \
            == [set(d) for d in served_docs]
        for path, docs in ((progress_log, local_docs),
                           (events_log, served_docs)):
            state = watch.replay_file(str(path))
            assert state.sim_runs == 1
            assert state.sim_wall_s == docs[-1]["wall_s"]


# ---------------------------------------------------------------------------
# The client commands: repro submit / jobs / watch
# ---------------------------------------------------------------------------

class TestFleetCli:
    def test_submit_jobs_and_watch_commands(self, tmp_path, capsys):
        from repro.__main__ import main

        log = tmp_path / "events.jsonl"
        with BackgroundFleet(jobs=1, events_log=str(log)) as fleet:
            client = ["--url", fleet.base_url, "--timeout", "60"]
            main(["jobs"] + client)
            assert "no jobs submitted yet" in capsys.readouterr().out

            main(["submit", "compress", "db", "compress", "--seed", "29",
                  "--until-cycles", str(SMALL), "--wait", "--json"] + client)
            job = json.loads(capsys.readouterr().out)
            assert job["state"] == "done" and job["completed"] == 3
            rows = job["spec_states"]
            assert [row["benchmark"] for row in rows] \
                == ["compress", "db", "compress"]
            assert rows[0]["spec"] == spec_key(RunSpec(
                benchmark="compress", seed=29, until_cycles=SMALL))
            assert rows[2]["coalesced"] is True

            main(["jobs", job["job"], "--json"] + client)
            shown = json.loads(capsys.readouterr().out)
            assert shown["state"] == "done"
            assert shown["spec_states"] == rows
            main(["jobs", job["job"]] + client)
            out = capsys.readouterr().out
            assert f"job {job['job']}: done (3/3 specs)" in out
            assert out.count("coalesced") == 1
            main(["jobs"] + client)
            assert capsys.readouterr().out \
                == f"job {job['job']}: done (3/3 specs)\n"

            # The same batch again, summarised: nothing left to simulate.
            main(["submit", "compress", "db", "--seed", "29",
                  "--until-cycles", str(SMALL), "--wait"] + client)
            assert "done (2/2 specs)" in capsys.readouterr().out
            main(["jobs", "--json"] + client)
            assert [doc["state"] for doc
                    in json.loads(capsys.readouterr().out)] == ["done"] * 2

        main(["watch", "--from", str(log)])
        out = capsys.readouterr().out
        assert "done" in out
        state = watch.replay_file(str(log))
        assert state.shutdown, "the event log ends with the drain"
        assert state.sim_runs == 2 and state.coalesced == 1
        with pytest.raises(SystemExit, match="watch: cannot read"):
            main(["watch", "--from", str(tmp_path / "absent.jsonl")])
