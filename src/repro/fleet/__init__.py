"""Fleet service: a long-running daemon serving simulation jobs.

The single-run harness already has the hard parts — deterministic
``RunSpec -> RunRecord`` execution, a content-keyed disk cache, a
process-pool engine narrating its jobs as JSON documents on an
:class:`~repro.harness.engine.EventBus`, and Prometheus exposition.
This package wraps them in a job daemon so a *fleet* of runs becomes
observable live instead of post-hoc:

* :mod:`repro.fleet.scheduler` — the asyncio job queue: batches of
  specs admitted one engine call at a time, server-side dedup of
  in-flight identical spec keys (concurrent submitters share one
  simulation, backed by the disk cache), one event bus carrying every
  batch's engine documents and the fleet's own, and live fleet
  metrics.
* :mod:`repro.fleet.server` — a small stdlib-only HTTP/JSON API on
  asyncio streams: ``POST /jobs``, ``GET /jobs[/<id>]``,
  ``GET /records/<key>``, ``GET /diff``, ``GET /events`` (SSE or
  JSONL), ``GET /metrics`` (Prometheus text), graceful SIGTERM drain.
* :mod:`repro.fleet.client` — the stdlib client behind
  ``repro submit`` / ``repro jobs`` / ``repro watch``.
* :mod:`repro.fleet.watch` — the live terminal dashboard, which also
  replays recorded event streams offline (``watch --from``).
"""

from repro.fleet.scheduler import (FleetError, FleetScheduler,  # noqa: F401
                                   FleetUnavailable)
from repro.fleet.server import (DEFAULT_HOST, DEFAULT_PORT,  # noqa: F401
                                BackgroundFleet, FleetServer, serve)
from repro.fleet.client import FleetClient, FleetClientError  # noqa: F401
