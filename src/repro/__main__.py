"""Command-line interface: ``python -m repro <command>``.

``python -m repro --help`` lists the commands and ``python -m repro
COMMAND --help`` their options; README's Quickstart walks through them.
Each command family declares its own commands in an ``add_parser(sub)``
that hands every sub-parser its handler (``set_defaults(handler=...)``):
:mod:`repro.harness.cli`, :mod:`repro.analysis.cli`,
:mod:`repro.bench.cli` and :mod:`repro.fleet.cli`.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis import cli as analysis_cli
from repro.bench import cli as bench_cli
from repro.fleet import cli as fleet_cli
from repro.harness import cli as harness_cli
from repro.harness import engine

#: Every command family, in ``--help`` order.
FAMILIES = (harness_cli, analysis_cli, bench_cli, fleet_cli)


def _version() -> str:
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        import repro

        return getattr(repro, "__version__", "unknown")


def build_parser() -> argparse.ArgumentParser:
    """The whole command line: every command and its options."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=("Reproduction of 'Online Optimizations Driven by "
                     "Hardware Performance Monitoring' (PLDI 2007)"))
    parser.add_argument("--version", action="version",
                        version=f"repro {_version()}")
    sub = parser.add_subparsers(dest="command", required=True)
    for family in FAMILIES:
        family.add_parser(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> None:
    args = build_parser().parse_args(argv)
    if getattr(args, "jobs", 0) is None:
        # No --jobs: the worker count comes from REPRO_JOBS, which is
        # outside input like the flag and gets the same one-line refusal.
        try:
            engine.resolve_jobs()
        except ValueError as exc:
            raise SystemExit(f"{args.command}: {exc}")

    bus = engine.EventBus(retain=0)
    if getattr(args, "progress", False):
        bus.subscribe(engine.StderrProgress())
    if getattr(args, "progress_log", None):
        bus.subscribe(harness_cli.write_or_exit(
            args.command, "progress log", args.progress_log,
            engine.JsonlLog))
    engine.set_default_progress(bus.publish)
    try:
        args.handler(args)
        sys.stdout.flush()    # a reader gone shows here, not at exit
    except BrokenPipeError:
        # Piped into ``head`` or the like: the reader stopped listening.
        # Nothing more goes out, and no traceback either.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1)
    finally:
        engine.set_default_progress(None)
        bus.close()


if __name__ == "__main__":
    main()
