"""Stdlib HTTP client for the fleet daemon.

One :class:`FleetClient` per base URL keeps one connection per thread,
for every call but :meth:`~FleetClient.events`, until it is closed.
``repro submit`` / ``repro jobs`` / ``repro watch`` are thin wrappers
over these methods.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import urllib.parse
from typing import Iterator, List, Optional, Tuple

from repro.fleet.server import DEFAULT_HOST, DEFAULT_PORT


class FleetClientError(RuntimeError):
    """Connection failure or non-2xx response from the daemon."""

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


def default_base_url() -> str:
    return f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"


class FleetClient:
    """Typed access to every daemon endpoint."""

    def __init__(self, base_url: Optional[str] = None,
                 timeout: float = 30.0):
        url = urllib.parse.urlsplit(base_url or default_base_url())
        if url.scheme not in ("http", ""):
            raise FleetClientError(f"unsupported scheme {url.scheme!r}")
        self.host = url.hostname or DEFAULT_HOST
        self.port = url.port or DEFAULT_PORT
        self.timeout = timeout
        self._conns: dict = {}    # thread ident -> its kept connection

    def close(self) -> None:
        """Close every kept connection; call it with no request in flight."""
        for conn in list(self._conns.values()):
            conn.close()

    def _exchange(self, method: str, path: str, payload: Optional[bytes],
                  timeout: Optional[float]) -> Tuple[int, bytes]:
        """One request on this thread's kept connection: (status, body).

        A reused connection that fails before the reply's first byte was
        closed by the daemon's idle deadline as the request left, so the
        daemon never read it: it is sent once more, on a fresh
        connection.  Nothing is sent again once a reply has begun."""
        conn = self._conns.get(threading.get_ident())
        if conn is None:
            conn = self._conns[threading.get_ident()] = \
                http.client.HTTPConnection(self.host, self.port)
        headers = {"Content-Type": "application/json"} if payload else {}
        for retry in (conn.sock is not None, False):
            conn.timeout = timeout
            if conn.sock is not None:
                conn.sock.settimeout(timeout)
            answered = b""
            try:
                conn.request(method, path, body=payload, headers=headers)
                # Wait for the reply's first byte, left for getresponse().
                answered = conn.sock.recv(1, socket.MSG_PEEK)
                if answered:
                    resp = conn.getresponse()
                    return resp.status, resp.read()
                raise ConnectionResetError("closed without a reply")
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                if retry and not answered and isinstance(exc, ConnectionError):
                    continue
                raise FleetClientError(
                    f"fleet daemon unreachable at "
                    f"http://{self.host}:{self.port}: {exc}")

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None,
                 timeout: Optional[float] = -1) -> dict:
        """One JSON round trip; raises :class:`FleetClientError` on any
        connection failure or non-2xx status (carrying the daemon's
        ``error`` message when it sent one)."""
        payload = (json.dumps(body).encode("utf-8")
                   if body is not None else None)
        status, raw = self._exchange(
            method, path, payload, self.timeout if timeout == -1 else timeout)
        try:
            doc = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            doc = {"raw": raw.decode("utf-8", "replace")}
        if status >= 300:
            message = doc.get("error") if isinstance(doc, dict) else None
            raise FleetClientError(
                message or f"HTTP {status} for {method} {path}",
                status=status)
        return doc

    # -- endpoints -----------------------------------------------------------

    def submit(self, spec_docs: List[dict],
               leg_cycles: Optional[int] = None,
               wait: bool = False) -> dict:
        """POST a batch; with ``wait=True`` the daemon answers once the
        job is terminal, however long that takes (no client timeout)."""
        body = {"specs": spec_docs}
        if leg_cycles is not None:
            body["leg_cycles"] = leg_cycles
        if wait:
            return self._request("POST", "/jobs?wait=1", body=body,
                                 timeout=None)
        return self._request("POST", "/jobs", body=body)

    def jobs(self) -> List[dict]:
        return self._request("GET", "/jobs")["jobs"]

    def job(self, job_id: str, wait: bool = False) -> dict:
        path = f"/jobs/{urllib.parse.quote(job_id)}"
        if wait:
            # Long poll: the daemon answers when the job is terminal,
            # however long the simulations take — no client timeout.
            return self._request("GET", path + "?wait=1", timeout=None)
        return self._request("GET", path)

    def record(self, spec_key: str) -> dict:
        return self._request(
            "GET", f"/records/{urllib.parse.quote(spec_key)}")

    def diff(self, a: str, b: str,
             threshold: Optional[float] = None) -> dict:
        query = {"a": a, "b": b}
        if threshold is not None:
            query["threshold"] = str(threshold)
        return self._request(
            "GET", "/diff?" + urllib.parse.urlencode(query))

    def metrics(self) -> str:
        """Raw Prometheus text from ``GET /metrics``."""
        status, raw = self._exchange("GET", "/metrics", None, self.timeout)
        if status != 200:
            raise FleetClientError(f"HTTP {status} for GET /metrics",
                                   status=status)
        return raw.decode("utf-8")

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def shutdown(self) -> dict:
        return self._request("POST", "/shutdown")

    def events(self, backlog: bool = True) -> Iterator[dict]:
        """Tail ``GET /events`` as JSONL, parsed, until the daemon
        announces shutdown or the connection drops."""
        query = {"format": "jsonl"}
        if not backlog:
            query["backlog"] = "0"
        path = "/events?" + urllib.parse.urlencode(query)
        conn = http.client.HTTPConnection(self.host, self.port)  # no timeout
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            if resp.status != 200:
                raise FleetClientError(
                    f"HTTP {resp.status} for GET /events",
                    status=resp.status)
            while True:
                line = resp.readline()
                if not line:
                    return
                text = line.decode("utf-8").strip()
                if not text:
                    continue
                try:
                    yield json.loads(text)
                except json.JSONDecodeError:
                    continue
        except (OSError, http.client.HTTPException) as exc:
            raise FleetClientError(f"event stream dropped: {exc}")
        finally:
            conn.close()


def format_job(doc: dict) -> str:
    """A job document (``GET /jobs/<id>``) as one summary line plus a
    line per spec."""
    lines = [f"job {doc['job']}: {doc['state']} "
             f"({doc['completed']}/{doc['specs']} specs)"
             + (f" error: {doc['error']}" if doc.get("error") else "")]
    for row in doc.get("spec_states", ()):
        flags = []
        if row.get("coalesced"):
            flags.append("coalesced")
        if row.get("wall_s") is not None:
            flags.append(f"{row['wall_s']:.2f}s")
        if row.get("error"):
            flags.append(f"error: {row['error']}")
        tail = ("  (" + ", ".join(flags) + ")") if flags else ""
        lines.append(f"  {row['state']:>9}  {row['benchmark']:<10} "
                     f"{row['spec']}{tail}")
    return "\n".join(lines)
