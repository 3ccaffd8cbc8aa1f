"""Stdlib HTTP client for the fleet daemon.

One :class:`FleetClient` per base URL; every call opens a fresh
``http.client.HTTPConnection`` (the daemon closes connections after
each response anyway), so the client is trivially thread-safe and
never holds a stale socket.  ``repro submit`` / ``repro jobs`` /
``repro watch`` are thin wrappers over these methods.
"""

from __future__ import annotations

import http.client
import json
import urllib.parse
from typing import Iterator, List, Optional

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

    def _connect(self, timeout: Optional[float]) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=timeout)

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None,
                 timeout: Optional[float] = -1) -> dict:
        """One JSON round trip; raises :class:`FleetClientError` on any
        connection failure or non-2xx status (carrying the daemon's
        ``error`` message when it sent one)."""
        if timeout == -1:
            timeout = self.timeout
        conn = self._connect(timeout)
        try:
            payload = (json.dumps(body).encode("utf-8")
                       if body is not None else None)
            headers = {"Content-Type": "application/json"} if payload \
                else {}
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            raise FleetClientError(
                f"fleet daemon unreachable at "
                f"http://{self.host}:{self.port}: {exc}")
        finally:
            conn.close()
        try:
            doc = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            doc = {"raw": raw.decode("utf-8", "replace")}
        if resp.status >= 300:
            message = doc.get("error") if isinstance(doc, dict) else None
            raise FleetClientError(
                message or f"HTTP {resp.status} for {method} {path}",
                status=resp.status)
        return doc

    # -- endpoints -----------------------------------------------------------

    def submit(self, spec_docs: List[dict],
               leg_cycles: Optional[int] = None,
               wait: bool = False) -> dict:
        """POST a batch; with ``wait=True`` long-poll to completion."""
        body = {"specs": spec_docs}
        if leg_cycles is not None:
            body["leg_cycles"] = leg_cycles
        doc = self._request("POST", "/jobs", body=body)
        if wait:
            return self.job(doc["job"], wait=True)
        return doc

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
        conn = self._connect(self.timeout)
        try:
            conn.request("GET", "/metrics")
            resp = conn.getresponse()
            raw = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            raise FleetClientError(f"metrics scrape failed: {exc}")
        finally:
            conn.close()
        if resp.status != 200:
            raise FleetClientError(f"HTTP {resp.status} for GET /metrics",
                                   status=resp.status)
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
        conn = self._connect(None)  # stream: no read timeout
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
