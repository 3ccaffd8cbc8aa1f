"""Stdlib-only HTTP/JSON API over the fleet scheduler.

The daemon speaks plain HTTP/1.1 on asyncio streams, no web
framework.  A connection stays open between requests unless a request
asks for ``Connection: close``; each request is read under one deadline,
and a connection idle past it is closed without a byte written.  An
``/events`` stream is a connection's last reply.  Endpoints:

========================  ==================================================
``POST /jobs``            submit ``{"specs": [...], "leg_cycles": N?}``;
                          ``?wait=1`` answers once the job is terminal
``GET /jobs``             retained jobs, newest last (summary rows)
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
jobs, finish accepted ones, announce ``shutdown``, close idle
connections, abort any still open ``DRAIN_S`` later, exit).
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
#: Seconds a connection has to send its next whole request, head and body.
REQUEST_TIMEOUT_S = 10.0
#: Seconds a draining daemon waits for its connections to end: event
#: streams send the ``shutdown`` announcement, busy ones their reply.
#: A connection still open then is aborted.
DRAIN_S = 5.0

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


async def _read_request(reader: asyncio.StreamReader, started: list
                        ) -> Tuple[str, str, bytes, bool]:
    """Parse one request: (method, target, body, keep-alive).
    ``started`` gets an item with the first byte, so that a deadline can
    tell an idle connection from a half-sent request."""
    first = await reader.read(1)
    if not first:
        raise ConnectionError("client closed")
    started.append(first)
    try:
        head = first + await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError:
        raise _HttpError(400, "request head too large")
    lines = head[:-4].decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise _HttpError(400, "malformed request line")
    method, target, version = parts
    headers = {}
    for raw in lines[1:]:
        name, _, value = raw.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "0")
    if not length.isdecimal() or int(length) > MAX_BODY:
        raise _HttpError(413 if length.isdecimal() else 400,
                         f"body length must be 0..{MAX_BODY} bytes")
    body = await reader.readexactly(int(length))
    keep = (version == "HTTP/1.1"
            and headers.get("connection", "").lower() != "close")
    return method, target, body, keep


def _response(status: int, body: bytes, content_type: str,
              keep: bool) -> bytes:
    head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep else 'close'}\r\n\r\n")
    return head.encode("latin-1") + body


def _json(status: int, doc: object) -> Tuple[int, bytes, str]:
    return (status, (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8"),
            "application/json")


class FleetServer:
    """One asyncio HTTP server bound to one :class:`FleetScheduler`."""

    def __init__(self, scheduler: FleetScheduler,
                 host: str = DEFAULT_HOST, port: int = DEFAULT_PORT):
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self._handlers: dict = {}     # open connections: task -> writer
        self._idle: set = set()       # writers awaiting their next request
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
        if self._server is not None:
            self._server.close()
        # Idle connections end here, busy ones after their reply, event
        # streams after the ``shutdown`` announcement the drain made.
        for writer in list(self._idle):
            writer.close()
        if self._handlers:
            await asyncio.wait(list(self._handlers), timeout=DRAIN_S)
        # What is still open has a client that stopped reading; cut it,
        # or its handler would wait on a full socket buffer forever.
        for writer in self._handlers.values():
            writer.transport.abort()
        if self._server is not None:
            await self._server.wait_closed()
        self._shutdown.set()

    # -- request handling ----------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Serve requests on one connection until either side closes it.

        A connection that sends nothing within the deadline is closed
        without a word, one that stops part-way gets a 400, and any error
        met before the body was read closes the connection."""
        self._handlers[asyncio.current_task()] = writer
        try:
            while True:
                started: list = []
                self._idle.add(writer)
                try:
                    method, target, body, keep = \
                        await asyncio.wait_for(
                            _read_request(reader, started), REQUEST_TIMEOUT_S)
                except asyncio.TimeoutError:
                    if started:
                        writer.write(_response(
                            *_json(400, {"error": "request timeout"}), False))
                    return
                except _HttpError as exc:
                    writer.write(_response(
                        *_json(exc.status, {"error": exc.message}), False))
                    return
                except (ConnectionError, asyncio.IncompleteReadError):
                    return
                finally:
                    self._idle.discard(writer)
                url = urllib.parse.urlsplit(target)
                query = dict(urllib.parse.parse_qsl(url.query))
                try:
                    reply = await self._route(method, url.path, query, body,
                                              reader, writer)
                except _HttpError as exc:
                    reply = _json(exc.status, {"error": exc.message})
                except FleetError as exc:
                    reply = _json(400, {"error": str(exc)})
                except FleetUnavailable as exc:
                    reply = _json(503, {"error": str(exc)})
                except Exception as exc:  # pragma: no cover - defensive
                    reply = _json(500, {
                        "error": f"{type(exc).__name__}: {exc}"})
                if reply is None:   # an event stream, ended
                    return
                keep = keep and not self.scheduler.draining
                writer.write(_response(*reply, keep))
                if not keep:
                    return
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            del self._handlers[asyncio.current_task()]

    async def _route(self, method: str, path: str, query: dict,
                     body: bytes, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter
                     ) -> Optional[Tuple[int, bytes, str]]:
        """The reply, or None after an event stream (it writes its own)."""
        sched = self.scheduler
        wait = query.get("wait") in ("1", "true")
        if path == "/healthz":
            return _json(200, {"ok": True, "draining": sched.draining,
                               "jobs": sched.job_count()})
        if path == "/metrics":
            if method != "GET":
                raise _HttpError(405, "GET only")
            sched.refresh_gauges()
            return (200, prometheus_text(sched.metrics).encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8")
        if path == "/events":
            if method != "GET":
                raise _HttpError(405, "GET only")
            await self._stream_events(query, reader, writer)
            return None
        if path == "/jobs" and method == "POST":
            doc = _parse_json_body(body)
            specs = sched.parse_specs(doc.get("specs"))
            job = sched.submit(specs, leg_cycles=doc.get("leg_cycles"))
            if wait:
                await job.done_event.wait()
            return _json(200, sched.job_json(job))
        if path == "/jobs" and method == "GET":
            return _json(200, {"jobs": sched.jobs_json()})
        if path.startswith("/jobs/") and method == "GET":
            job = sched.get_job(path[len("/jobs/"):])
            if job is None:
                raise _HttpError(404, "no such job")
            if wait:
                await job.done_event.wait()
            return _json(200, sched.job_json(job))
        if path.startswith("/records/") and method == "GET":
            doc = sched.record_json(path[len("/records/"):])
            if doc is None:
                raise _HttpError(404, "no record for that spec key")
            return _json(200, doc)
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
            return _json(200, {"a": a_key, "b": b_key,
                               "diff": diff.to_json()})
        if path == "/shutdown" and method == "POST":
            self.request_shutdown()
            return _json(200, {"draining": True})
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
