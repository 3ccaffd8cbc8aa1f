"""Stdlib-only HTTP/JSON API over the fleet scheduler.

The daemon speaks plain HTTP/1.1 on asyncio streams — no web
framework, one request per connection (``Connection: close``), which
keeps the parser ~50 lines and the failure modes obvious.  Endpoints:

========================  ==================================================
``POST /jobs``            submit ``{"specs": [...], "leg_cycles": N?}``
``GET /jobs``             all jobs, newest last (summary rows)
``GET /jobs/<id>``        one job with per-spec states; ``?wait=1``
                          long-polls until the job is terminal
``GET /records/<key>``    cached record for a spec key (cache envelope)
``GET /diff?a=&b=``       structured diff of two spec keys' records
``GET /events``           live stream — SSE by default,
                          ``?format=jsonl`` for newline-delimited JSON,
                          ``?backlog=0`` to skip replaying history
``GET /metrics``          Prometheus text exposition (fleet + engine)
``GET /healthz``          liveness probe
``POST /shutdown``        drain and exit (same path as SIGTERM)
========================  ==================================================

:func:`serve` is the blocking entry point behind ``repro serve``; it
installs SIGTERM/SIGINT handlers for a graceful drain (refuse new
jobs, finish accepted ones, announce ``shutdown`` on the bus, exit).
:class:`BackgroundFleet` runs the same server on a daemon thread for
in-process tests and ad-hoc tooling.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import urllib.parse
from functools import partial
from typing import Optional, Tuple

from repro.analysis.diff import DEFAULT_THRESHOLD, diff_docs
from repro.fleet.scheduler import FleetError, FleetScheduler, FleetUnavailable
from repro.harness import engine, runner
from repro.harness.cli import write_or_exit
from repro.harness.diskcache import DiskCache
from repro.telemetry.export import prometheus_text

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8077

#: Largest request body the daemon will read (1 MiB of spec JSON).
MAX_BODY = 1 << 20
#: Seconds a draining daemon waits for its event streams to send the
#: ``shutdown`` announcement (a stalled client is then cut off).
STREAM_DRAIN_S = 5.0

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


async def _read_request(reader: asyncio.StreamReader
                        ) -> Tuple[str, str, dict, bytes]:
    """Parse one HTTP/1.1 request: (method, target, headers, body)."""
    try:
        line = await asyncio.wait_for(reader.readline(), timeout=10)
    except asyncio.TimeoutError:
        raise _HttpError(400, "request line timeout")
    if not line:
        raise ConnectionError("client closed")
    parts = line.decode("latin-1").split()
    if len(parts) != 3:
        raise _HttpError(400, "malformed request line")
    method, target, _version = parts
    headers = {}
    while True:
        try:
            raw = await asyncio.wait_for(reader.readline(), timeout=10)
        except asyncio.TimeoutError:
            raise _HttpError(400, "header timeout")
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length = int(headers.get("content-length", 0) or 0)
    if length > MAX_BODY:
        raise _HttpError(413, f"body exceeds {MAX_BODY} bytes")
    if length:
        body = await reader.readexactly(length)
    return method, target, headers, body


def _response(status: int, body: bytes,
              content_type: str = "application/json") -> bytes:
    head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode("latin-1") + body


def _json_response(status: int, doc: object) -> bytes:
    return _response(status, (json.dumps(doc, sort_keys=True) + "\n")
                     .encode("utf-8"))


class FleetServer:
    """One asyncio HTTP server bound to one :class:`FleetScheduler`."""

    def __init__(self, scheduler: FleetScheduler,
                 host: str = DEFAULT_HOST, port: int = DEFAULT_PORT):
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self._streams: set = set()    # handler tasks tailing the bus
        self.loop: Optional[asyncio.AbstractEventLoop] = None

    async def start(self) -> None:
        self.loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        # Resolve port 0 to the real ephemeral port.
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def request_shutdown(self) -> None:
        """Signal-handler-safe: ask :func:`serve_forever` to drain."""
        self._shutdown.set()

    async def serve_forever(self) -> None:
        """Serve until :meth:`request_shutdown`, then drain and close."""
        await self._shutdown.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        await self.scheduler.drain()
        # Let every event stream write the ``shutdown`` announcement and
        # end, rather than be cancelled mid-write when the loop closes.
        if self._streams:
            await asyncio.wait(self._streams, timeout=STREAM_DRAIN_S)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._shutdown.set()

    # -- request handling ----------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, target, _headers, body = await _read_request(reader)
            except _HttpError as exc:
                writer.write(_json_response(exc.status,
                                            {"error": exc.message}))
                return
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            url = urllib.parse.urlsplit(target)
            query = dict(urllib.parse.parse_qsl(url.query))
            try:
                await self._route(method, url.path, query, body, reader,
                                  writer)
            except _HttpError as exc:
                writer.write(_json_response(exc.status,
                                            {"error": exc.message}))
            except FleetError as exc:
                writer.write(_json_response(400, {"error": str(exc)}))
            except FleetUnavailable as exc:
                writer.write(_json_response(503, {"error": str(exc)}))
            except Exception as exc:  # pragma: no cover - defensive
                writer.write(_json_response(
                    500, {"error": f"{type(exc).__name__}: {exc}"}))
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, method: str, path: str, query: dict,
                     body: bytes, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        sched = self.scheduler
        if path == "/healthz":
            writer.write(_json_response(200, {
                "ok": True, "draining": sched.draining,
                "jobs": len(sched.jobs_json())}))
            return
        if path == "/metrics":
            if method != "GET":
                raise _HttpError(405, "GET only")
            sched.refresh_gauges()
            text = prometheus_text(sched.metrics)
            writer.write(_response(
                200, text.encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8"))
            return
        if path == "/events":
            if method != "GET":
                raise _HttpError(405, "GET only")
            await self._stream_events(query, reader, writer)
            return
        if path == "/jobs" and method == "POST":
            doc = _parse_json_body(body)
            specs = sched.parse_specs(doc.get("specs"))
            job = sched.submit(specs, leg_cycles=doc.get("leg_cycles"))
            writer.write(_json_response(200, sched.job_json(job)))
            return
        if path == "/jobs" and method == "GET":
            writer.write(_json_response(200, {"jobs": sched.jobs_json()}))
            return
        if path.startswith("/jobs/") and method == "GET":
            job = sched.get_job(path[len("/jobs/"):])
            if job is None:
                raise _HttpError(404, "no such job")
            if query.get("wait") in ("1", "true"):
                await job.done_event.wait()
            writer.write(_json_response(200, sched.job_json(job)))
            return
        if path.startswith("/records/") and method == "GET":
            doc = sched.record_json(path[len("/records/"):])
            if doc is None:
                raise _HttpError(404, "no record for that spec key")
            writer.write(_json_response(200, doc))
            return
        if path == "/diff" and method == "GET":
            a_key, b_key = query.get("a"), query.get("b")
            if not a_key or not b_key:
                raise _HttpError(400, "need ?a=<spec_key>&b=<spec_key>")
            docs = []
            for key in (a_key, b_key):
                doc = sched.record_json(key)
                if doc is None:
                    raise _HttpError(404, f"no record for spec key {key}")
                docs.append(doc)
            try:
                threshold = float(query.get("threshold",
                                            DEFAULT_THRESHOLD))
            except ValueError:
                raise _HttpError(400, "threshold must be a float")
            diff = diff_docs(docs[0], docs[1], threshold=threshold)
            writer.write(_json_response(200, {
                "a": a_key, "b": b_key, "diff": diff.to_json()}))
            return
        if path == "/shutdown" and method == "POST":
            writer.write(_json_response(200, {"draining": True}))
            self.request_shutdown()
            return
        raise _HttpError(404, f"no route for {method} {path}")

    async def _stream_events(self, query: dict,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        """Tail the bus: SSE by default, JSONL with ``?format=jsonl``.

        The stream ends when the daemon announces ``shutdown`` on the
        bus or the client disconnects — seen as end of input even while
        the bus is quiet; each write is drained so a slow consumer
        backpressures its own queue, not the bus.
        """
        jsonl = query.get("format") == "jsonl"
        backlog = query.get("backlog") not in ("0", "false")
        content_type = ("application/x-ndjson" if jsonl
                        else "text/event-stream")
        writer.write((f"HTTP/1.1 200 OK\r\n"
                      f"Content-Type: {content_type}\r\n"
                      f"Cache-Control: no-store\r\n"
                      f"Connection: close\r\n\r\n").encode("latin-1"))
        queue: asyncio.Queue = asyncio.Queue()
        self.scheduler.bus.subscribe(queue.put_nowait, backlog=backlog)
        hangup = asyncio.ensure_future(_end_of_input(reader, queue))
        self._streams.add(asyncio.current_task())
        try:
            while True:
                doc = await queue.get()
                if doc is None:     # the client hung up
                    break
                line = json.dumps(doc, sort_keys=True)
                if jsonl:
                    writer.write((line + "\n").encode("utf-8"))
                else:
                    writer.write(f"data: {line}\n\n".encode("utf-8"))
                await writer.drain()
                if doc.get("type") == "fleet" \
                        and doc.get("kind") == "shutdown":
                    break
        except (ConnectionError, OSError):
            pass
        finally:
            hangup.cancel()
            self.scheduler.bus.unsubscribe(queue.put_nowait)
            self._streams.discard(asyncio.current_task())


async def _end_of_input(reader: asyncio.StreamReader,
                        queue: asyncio.Queue) -> None:
    """Queue ``None`` once the client has closed its end (or reset
    it), so its stream ends even while the bus is quiet."""
    try:
        while await reader.read(4096):
            pass
    except (ConnectionError, OSError):
        pass
    queue.put_nowait(None)


def _parse_json_body(body: bytes) -> dict:
    if not body:
        raise _HttpError(400, "empty request body")
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _HttpError(400, f"invalid JSON body: {exc}")
    if not isinstance(doc, dict):
        raise _HttpError(400, "request body must be a JSON object")
    return doc


async def _serve_async(host: str, port: int, jobs: Optional[int],
                       events_log: Optional[engine.JsonlLog],
                       ready: Optional[threading.Event] = None,
                       server_box: Optional[list] = None,
                       install_signals: bool = True) -> None:
    scheduler = FleetScheduler(jobs=jobs)
    if events_log is not None:
        scheduler.bus.subscribe(events_log)
    try:
        server = FleetServer(scheduler, host, port)
        await server.start()
        if server_box is not None:
            server_box.append(server)
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, server.request_shutdown)
                except (NotImplementedError, RuntimeError):
                    pass  # non-main thread or platform without signals
            print(f"repro fleet: serving on {server.base_url} "
                  f"(jobs={scheduler.jobs})", flush=True)
        if ready is not None:
            ready.set()
        await server.serve_forever()
    finally:
        scheduler.bus.close()  # the events log, if one is subscribed


def serve(host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
          jobs: Optional[int] = None, cache_dir: Optional[str] = None,
          events_log: Optional[str] = None) -> int:
    """Blocking entry point behind ``repro serve``.

    Runs until SIGTERM/SIGINT (or ``POST /shutdown``), then drains:
    new jobs are refused, accepted ones finish, the bus announces
    ``shutdown`` to every streaming client, and the server exits 0.
    An ``events_log`` that cannot be written exits with one line
    before the port is bound.
    """
    log = (write_or_exit("serve", "events log", events_log,
                         partial(engine.JsonlLog, mode="w"))
           if events_log else None)
    if cache_dir:
        runner.set_disk_cache(DiskCache(root=cache_dir))
    asyncio.run(_serve_async(host, port, jobs, log))
    print("repro fleet: drained, bye", flush=True)
    return 0


class BackgroundFleet:
    """A fleet daemon on a background thread (tests and tooling).

    ::

        with BackgroundFleet() as fleet:
            client = FleetClient(fleet.base_url)
            ...

    The context exit drains the scheduler exactly like SIGTERM would.
    """

    def __init__(self, jobs: Optional[int] = None, host: str = DEFAULT_HOST,
                 port: int = 0, events_log: Optional[str] = None):
        self._ready = threading.Event()
        self._box: list = []
        log = engine.JsonlLog(events_log, mode="w") if events_log else None
        self._thread = threading.Thread(
            target=self._run, args=(host, port, jobs, log),
            name="fleet-server", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("fleet server failed to start")
        self.server: FleetServer = self._box[0]

    def _run(self, host: str, port: int, jobs: Optional[int],
             events_log: Optional[engine.JsonlLog]) -> None:
        asyncio.run(_serve_async(host, port, jobs, events_log,
                                 ready=self._ready, server_box=self._box,
                                 install_signals=False))

    @property
    def base_url(self) -> str:
        return self.server.base_url

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self, timeout: float = 60) -> None:
        if not self._thread.is_alive():
            return
        # request_shutdown sets an asyncio.Event, which is loop-affine;
        # hop onto the server's loop from this foreign thread.
        try:
            self.server.loop.call_soon_threadsafe(
                self.server.request_shutdown)
        except RuntimeError:  # loop already closed: nothing to stop
            pass
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():  # pragma: no cover - defensive
            raise RuntimeError("fleet server did not drain in time")

    def __enter__(self) -> "BackgroundFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
