"""``python -m repro serve|submit|jobs|watch``: the fleet daemon and its
clients (see :mod:`repro.harness.cli` for how families register)."""

from __future__ import annotations

import json

from repro.harness.cli import add_run_options, positive_int, run_spec


def cmd_serve(args) -> None:
    from repro.fleet import DEFAULT_HOST, DEFAULT_PORT, serve

    raise SystemExit(serve(
        host=args.host or DEFAULT_HOST,
        port=DEFAULT_PORT if args.port is None else args.port,
        jobs=args.jobs, cache_dir=args.cache_dir,
        events_log=args.events_log))


def _client(args):
    from repro.fleet import FleetClient

    return FleetClient(args.url, timeout=args.timeout)


def cmd_submit(args) -> None:
    from repro.fleet import FleetClientError
    from repro.fleet.client import format_job

    specs = [run_spec(args, benchmark).as_dict()
             for benchmark in args.submit_benchmarks]
    client = _client(args)
    try:
        doc = client.submit(specs, leg_cycles=args.leg_cycles,
                            wait=args.wait)
    except FleetClientError as exc:
        raise SystemExit(f"submit: {exc}")
    finally:
        client.close()
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
        return
    print(format_job(doc))
    if doc.get("state") == "failed":
        raise SystemExit(1)


def cmd_jobs(args) -> None:
    from repro.fleet import FleetClientError
    from repro.fleet.client import format_job

    client = _client(args)
    try:
        if args.job_id:
            rows = [client.job(args.job_id, wait=args.wait)]
        else:
            rows = client.jobs()
    except FleetClientError as exc:
        raise SystemExit(f"jobs: {exc}")
    finally:
        client.close()
    if args.json:
        print(json.dumps(rows[0] if args.job_id else rows, indent=1,
                         sort_keys=True))
        return
    if not rows:
        print("no jobs submitted yet")
    for doc in rows:
        print(format_job(doc))


def cmd_watch(args) -> None:
    from repro.fleet import FleetClientError, watch

    if args.from_log:
        try:
            state = watch.replay_file(args.from_log)
        except OSError as exc:
            raise SystemExit(f"watch: cannot read {args.from_log!r}: {exc}")
        print(watch.render(state, width=args.width))
        return
    try:
        watch.watch_stream(_client(args).events(backlog=not args.no_backlog),
                           width=args.width, raw_json=args.json)
    except FleetClientError as exc:
        raise SystemExit(f"watch: {exc}")
    except KeyboardInterrupt:
        pass


def _add_client_options(p) -> None:
    p.add_argument("--url", metavar="URL", default=None,
                   help="daemon base URL (default http://127.0.0.1:8077)")
    p.add_argument("--timeout", type=float, default=30.0, metavar="S",
                   help="per-request timeout in seconds (default 30)")
    p.add_argument("--json", action="store_true",
                   help="print raw JSON instead of the summary")


def add_parser(sub) -> None:
    """Attach ``serve``, ``submit``, ``jobs`` and ``watch`` to the
    top-level sub-parsers ``sub``."""
    serve_p = sub.add_parser(
        "serve", help="run the fleet daemon: an HTTP/JSON job queue over "
                      "the engine with live /events and /metrics")
    serve_p.set_defaults(handler=cmd_serve)
    serve_p.add_argument("--host", default=None,
                         help="bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=None,
                         help="bind port (default 8077; 0 = ephemeral)")
    serve_p.add_argument("--jobs", type=positive_int, default=None,
                         metavar="N",
                         help="worker processes per batch (default: "
                              "REPRO_JOBS or the CPU count)")
    serve_p.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="disk-cache root for this daemon (default: "
                              "REPRO_CACHE_DIR or results/.cache)")
    serve_p.add_argument("--events-log", metavar="PATH", default=None,
                         help="tee every fleet event to a JSONL file "
                              "(replayable with `repro watch --from`)")

    submit_p = sub.add_parser(
        "submit", help="submit a batch of benchmarks to the fleet daemon")
    submit_p.set_defaults(handler=cmd_submit)
    add_run_options(submit_p, "submit_benchmarks", nargs="+",
                    metavar="BENCH", help="benchmarks to run (one spec each)")
    submit_p.add_argument("--until-cycles", type=int, default=None,
                          metavar="N")
    submit_p.add_argument("--leg-cycles", type=positive_int, default=None,
                          metavar="N",
                          help="run each spec as a chain of checkpoint "
                               "legs of N cycles")
    submit_p.add_argument("--wait", action="store_true",
                          help="long-poll until the job is terminal; exit "
                               "1 if it failed")
    _add_client_options(submit_p)

    jobs_p = sub.add_parser(
        "jobs", help="list the fleet daemon's jobs (or show one)")
    jobs_p.set_defaults(handler=cmd_jobs)
    jobs_p.add_argument("job_id", nargs="?", default=None, metavar="JOB",
                        help="job id for per-spec detail (default: all)")
    jobs_p.add_argument("--wait", action="store_true",
                        help="with JOB: long-poll until it is terminal")
    _add_client_options(jobs_p)

    watch_p = sub.add_parser(
        "watch", help="live terminal dashboard over the fleet event "
                      "stream (or replay a recorded one)")
    watch_p.set_defaults(handler=cmd_watch)
    watch_p.add_argument("--from", dest="from_log", metavar="EVENTS.jsonl",
                         default=None,
                         help="replay a recorded event stream (`serve "
                              "--events-log` / `--progress-log`) offline "
                              "instead of connecting")
    watch_p.add_argument("--no-backlog", action="store_true",
                         help="skip the daemon's replayed event history; "
                              "show only new events")
    watch_p.add_argument("--width", type=positive_int, default=100,
                         help="dashboard width in columns (default 100)")
    _add_client_options(watch_p)
