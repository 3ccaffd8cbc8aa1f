"""Trace and metrics exporters.

Three output forms:

* **Chrome trace-event JSON** (:func:`chrome_trace` /
  :func:`write_chrome_trace`) — loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.  Each telemetry
  category (perfmon, controller, gc, jit, feedback, vm) becomes one
  named "thread" track; spans are complete (``ph: "X"``) events,
  instants are ``ph: "i"``, and counter samples become ``ph: "C"``
  counter tracks.  Timestamps are **simulated cycles**, not
  microseconds — the viewer's time axis reads in cycles.
* **JSONL** (:func:`write_jsonl`) — one self-describing JSON object per
  line (``type`` is ``span`` / ``instant`` / ``sample`` / ``metrics``),
  for ad-hoc analysis with ``jq`` or pandas.
* **Plain-text timeline** (:func:`format_timeline`) — a terminal Gantt
  chart of per-category occupancy over the run, used by the
  ``python -m repro timeline`` subcommand.
* **Prometheus text exposition** (:func:`prometheus_text`) — the
  metrics registry rendered in the Prometheus 0.0.4 text format, for
  scraping a run's end-state into a production dashboard.  Counters and
  gauges map directly; power-of-two histograms become cumulative
  ``_bucket{le=...}`` series.  Metric names are sanitized to the
  Prometheus grammar, and label values are escaped per the spec.
* **Collapsed stacks** (:func:`collapsed_stacks` /
  :func:`format_collapsed`) — the span tree folded into Brendan
  Gregg's one-line-per-stack format (``frame;frame;frame weight``),
  directly consumable by ``flamegraph.pl`` and speedscope.  Weights
  are **self** cycles: each span's duration minus its children's, so
  the flame graph's column widths sum to traced time exactly.  The
  same formatter renders the host-side cProfile stacks produced by
  ``repro bench profile``.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional

from repro.telemetry.metrics import Counter, Histogram, MetricsRegistry
from repro.telemetry.tracer import SpanEvent, Tracer

#: Stable thread-id assignment so traces from different runs line up.
_KNOWN_CATEGORIES = ("vm", "jit", "gc", "perfmon", "controller", "feedback")

_OCCUPANCY_CHARS = " ░▒▓█"


def _tid_map(tracer: Tracer) -> Dict[str, int]:
    tids: Dict[str, int] = {cat: i + 1
                            for i, cat in enumerate(_KNOWN_CATEGORIES)}
    for cat in tracer.categories():
        if cat not in tids:
            tids[cat] = len(tids) + 1
    return tids


def chrome_trace(tracer: Tracer,
                 metrics: Optional[MetricsRegistry] = None,
                 metadata: Optional[dict] = None) -> dict:
    """Build a Chrome trace-event document from recorded telemetry."""
    tids = _tid_map(tracer)
    events: List[dict] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "repro simulated VM"}},
    ]
    for cat, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append({"name": "thread_name", "ph": "M", "pid": 1,
                       "tid": tid, "args": {"name": cat}})
    for ev in tracer.spans:
        record = {"name": ev.name, "cat": ev.cat, "ph": "X",
                  "ts": ev.ts, "dur": ev.dur, "pid": 1,
                  "tid": tids[ev.cat]}
        if ev.args:
            record["args"] = ev.args
        events.append(record)
    for ev in tracer.instants:
        record = {"name": ev.name, "cat": ev.cat, "ph": "i", "s": "t",
                  "ts": ev.ts, "pid": 1, "tid": tids.get(ev.cat, 0)}
        if ev.args:
            record["args"] = ev.args
        events.append(record)
    for ev in tracer.samples:
        events.append({"name": ev.name, "cat": ev.cat, "ph": "C",
                       "ts": ev.ts, "pid": 1, "tid": tids.get(ev.cat, 0),
                       "args": {"value": ev.value}})
    other = {"clock": "simulated cycles"}
    if tracer.dropped_events:
        other["dropped_events"] = tracer.dropped_events
    if metadata:
        other.update(metadata)
    doc = {"traceEvents": events, "displayTimeUnit": "ns",
           "otherData": other}
    if metrics is not None:
        doc["metrics"] = metrics.snapshot()
    return doc


def write_chrome_trace(path: str, tracer: Tracer,
                       metrics: Optional[MetricsRegistry] = None,
                       metadata: Optional[dict] = None) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer, metrics, metadata), fh)
        fh.write("\n")


def jsonl_records(tracer: Tracer,
                  metrics: Optional[MetricsRegistry] = None) -> List[dict]:
    records: List[dict] = []
    for ev in tracer.spans:
        records.append({"type": "span", "name": ev.name, "cat": ev.cat,
                        "ts": ev.ts, "dur": ev.dur, "depth": ev.depth,
                        "args": ev.args})
    for ev in tracer.instants:
        records.append({"type": "instant", "name": ev.name, "cat": ev.cat,
                        "ts": ev.ts, "args": ev.args})
    for ev in tracer.samples:
        records.append({"type": "sample", "name": ev.name, "cat": ev.cat,
                        "ts": ev.ts, "value": ev.value})
    records.sort(key=lambda r: r["ts"])
    if metrics is not None:
        records.append({"type": "metrics", "data": metrics.snapshot()})
    return records


def write_jsonl(path: str, tracer: Tracer,
                metrics: Optional[MetricsRegistry] = None) -> None:
    with open(path, "w") as fh:
        for record in jsonl_records(tracer, metrics):
            fh.write(json.dumps(record))
            fh.write("\n")


def read_trace_spans(path: str) -> List[SpanEvent]:
    """The span events of a trace :func:`write_chrome_trace` (JSON) or
    :func:`write_jsonl` (``.jsonl``) wrote; empty for an empty file.

    Raises OSError when ``path`` cannot be read, and ValueError,
    KeyError, TypeError or AttributeError when it is not such a trace.
    """
    with open(path, "r") as fh:
        text = fh.read()
    if not text.strip():
        return []
    if path.endswith(".jsonl"):
        docs = [json.loads(line) for line in text.splitlines() if line.strip()]
        return [SpanEvent(d["name"], d["cat"], d["ts"], d["dur"],
                          d.get("depth", 0), d.get("args"))
                for d in docs if d.get("type") == "span"]
    return [SpanEvent(ev["name"], ev.get("cat", "vm"), ev["ts"], ev["dur"],
                      0, ev.get("args"))
            for ev in json.loads(text).get("traceEvents", [])
            if ev.get("ph") == "X"]


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

#: Characters legal in a Prometheus metric name (after the first char).
_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str, prefix: str) -> str:
    clean = _PROM_NAME_RE.sub("_", name)
    if clean and clean[0].isdigit():
        clean = "_" + clean
    return prefix + clean


def _prom_escape(value: str) -> str:
    """Escape a label value per the text-format spec: backslash,
    double-quote, and newline."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _prom_help(text: str) -> str:
    """HELP lines escape backslash and newline (quotes are legal)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _prom_labels(key: tuple) -> str:
    return "{" + ",".join(
        f'label{i}="{_prom_escape(v)}"' for i, v in enumerate(key)) + "}"


def prometheus_text(metrics: MetricsRegistry,
                    prefix: str = "repro_") -> str:
    """Render the registry in the Prometheus text exposition format.

    Labeled instruments carry their (positional) label values as
    ``label0`` / ``label1`` / ... — the registry records values, not
    label names.  The output ends with a newline, as scrapers expect.
    """
    lines: List[str] = []
    for name, inst in metrics.instruments():
        pname = _prom_name(name, prefix)
        if inst.help:
            lines.append(f"# HELP {pname} {_prom_help(inst.help)}")
        if isinstance(inst, Histogram):
            lines.append(f"# TYPE {pname} histogram")
            cumulative = 0
            for bound, count in inst.bucket_bounds():
                cumulative += count
                lines.append(f'{pname}_bucket{{le="{bound}"}} {cumulative}')
            lines.append(f'{pname}_bucket{{le="+Inf"}} {inst.count}')
            lines.append(f"{pname}_sum {inst.sum}")
            lines.append(f"{pname}_count {inst.count}")
            continue
        kind = "counter" if isinstance(inst, Counter) else "gauge"
        lines.append(f"# TYPE {pname} {kind}")
        if inst.value or not inst.children:
            lines.append(f"{pname} {inst.value}")
        for key, child in sorted(inst.children.items()):
            lines.append(f"{pname}{_prom_labels(key)} {child.value}")
    return "\n".join(lines) + "\n"


def write_prometheus(path: str, metrics: MetricsRegistry,
                     prefix: str = "repro_") -> None:
    with open(path, "w") as fh:
        fh.write(prometheus_text(metrics, prefix))


#: One sample line: name, optional {labels}, numeric value.
_PROM_SERIES_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{((?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\",?)*)\})?"
    r" (-?(?:[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|\+?Inf|NaN))$")

_PROM_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def parse_prometheus_text(text: str) -> Dict[str, dict]:
    """Parse (and validate) Prometheus 0.0.4 text exposition.

    Returns ``{metric_name: {"type": str|None, "help": str|None,
    "samples": [(series_name, labels_dict, value), ...]}}`` where
    histogram ``_bucket``/``_sum``/``_count`` series are grouped under
    their base metric name.  Raises :class:`ValueError` on any grammar
    violation — an unparseable line, a ``TYPE`` naming an unknown kind,
    a non-cumulative histogram, or missing final newline — so scrapers
    and tests can treat "parses" as a hard gate, not a best effort.
    """
    if text and not text.endswith("\n"):
        raise ValueError("exposition must end with a newline")
    metrics: Dict[str, dict] = {}

    def base_name(series: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            if series.endswith(suffix):
                stripped = series[:-len(suffix)]
                entry = metrics.get(stripped)
                if entry is not None and entry["type"] == "histogram":
                    return stripped
        return series

    def entry_for(name: str) -> dict:
        return metrics.setdefault(
            name, {"type": None, "help": None, "samples": []})

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP "):].split(" ", 1)
            if not parts or not parts[0]:
                raise ValueError(f"line {lineno}: malformed HELP")
            entry_for(parts[0])["help"] = parts[1] if len(parts) > 1 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE "):].split(" ")
            if len(parts) != 2 or parts[1] not in _PROM_TYPES:
                raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
            entry_for(parts[0])["type"] = parts[1]
            continue
        if line.startswith("#"):
            continue  # plain comment
        match = _PROM_SERIES_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: not a valid sample: {line!r}")
        series, raw_labels, raw_value = match.groups()
        labels: Dict[str, str] = {}
        if raw_labels:
            for pair in re.findall(
                    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"',
                    raw_labels):
                labels[pair[0]] = pair[1]
        value = float(raw_value.replace("Inf", "inf"))
        entry_for(base_name(series))["samples"].append(
            (series, labels, value))

    for name, entry in metrics.items():
        if entry["type"] != "histogram":
            continue
        buckets = [(lbl.get("le"), val) for ser, lbl, val in entry["samples"]
                   if ser == name + "_bucket"]
        if not buckets:
            raise ValueError(f"histogram {name} has no buckets")
        if buckets[-1][0] != "+Inf":
            raise ValueError(f"histogram {name} missing le=\"+Inf\" bucket")
        counts = [val for _le, val in buckets]
        if counts != sorted(counts):
            raise ValueError(f"histogram {name} buckets not cumulative")
        series_names = {ser for ser, _lbl, _val in entry["samples"]}
        for required in (name + "_sum", name + "_count"):
            if required not in series_names:
                raise ValueError(f"histogram {name} missing {required}")
    return metrics


# ---------------------------------------------------------------------------
# Collapsed stacks (flamegraph.pl / speedscope)
# ---------------------------------------------------------------------------

def _collapsed_frame(cat: str, name: str) -> str:
    """One frame label: spaces separate stack from weight, semicolons
    separate frames, so neither may appear inside a frame.  Span names
    that already carry their category prefix (``gc.minor`` in cat
    ``gc``) are not double-prefixed."""
    label = name if name.startswith(cat + ".") else f"{cat}.{name}"
    return label.replace(" ", "_").replace(";", ":")


def collapsed_stacks(tracer: Tracer) -> Dict[tuple, int]:
    """Fold the recorded span tree into ``{(frame, ...): self_cycles}``.

    Frames are ``cat.name``.  Nesting is reconstructed from each
    span's recorded depth (spans arrive in end order; sorting by start
    time plus the depth invariant recovers the tree), and every span
    contributes its *self* time — duration minus enclosed children —
    to the stack ending at it.
    """
    out: Dict[tuple, int] = {}
    stack: List[list] = []  # [span, child_cycles]

    def pop() -> None:
        span, child_cycles = stack.pop()
        self_cycles = max(span.dur - child_cycles, 0)
        if stack:
            stack[-1][1] += span.dur
        if self_cycles > 0:
            path = tuple(_collapsed_frame(s.cat, s.name)
                         for s, _ in stack) + (
                _collapsed_frame(span.cat, span.name),)
            out[path] = out.get(path, 0) + self_cycles

    for ev in sorted(tracer.spans, key=lambda e: (e.ts, e.depth, -e.dur)):
        while len(stack) > ev.depth:
            pop()
        stack.append([ev, 0])
    while stack:
        pop()
    return out


def format_collapsed(stacks: Dict[tuple, int]) -> str:
    """Render ``{path_tuple: weight}`` in the collapsed-stack format.

    One ``frame;frame;frame weight`` line per stack, sorted by path
    for determinism; zero- and negative-weight stacks are dropped.
    The result ends with a newline when non-empty.
    """
    lines = [f"{';'.join(path)} {int(weight)}"
             for path, weight in sorted(stacks.items())
             if int(weight) > 0]
    return "\n".join(lines) + ("\n" if lines else "")


def write_collapsed(path: str, stacks: Dict[tuple, int]) -> int:
    """Write collapsed stacks to ``path``; returns the line count."""
    text = format_collapsed(stacks)
    with open(path, "w") as fh:
        fh.write(text)
    return text.count("\n")


# ---------------------------------------------------------------------------
# Text timeline
# ---------------------------------------------------------------------------

def _occupancy_row(spans, start: int, bucket: int, width: int) -> str:
    """One category lane: per-column fraction of the bucket inside spans."""
    filled = [0.0] * width
    for ev in spans:
        lo = ev.ts
        hi = ev.ts + max(ev.dur, 1)  # zero-cost spans still show up
        first = max(0, int((lo - start) // bucket))
        last = min(width - 1, int((hi - 1 - start) // bucket))
        for col in range(first, last + 1):
            c_lo = start + col * bucket
            c_hi = c_lo + bucket
            overlap = min(hi, c_hi) - max(lo, c_lo)
            if overlap > 0:
                filled[col] += overlap / bucket
    out = []
    for frac in filled:
        if frac <= 0:
            out.append(_OCCUPANCY_CHARS[0])
        else:
            idx = min(len(_OCCUPANCY_CHARS) - 1,
                      1 + int(min(frac, 1.0) * (len(_OCCUPANCY_CHARS) - 2)))
            out.append(_OCCUPANCY_CHARS[idx])
    return "".join(out)


def format_timeline(tracer: Tracer, total_cycles: Optional[int] = None,
                    width: int = 72) -> str:
    """Render the trace as a text Gantt of per-category occupancy.

    Each row is one telemetry category (gc, perfmon, ...); each column
    covers ``total/width`` simulated cycles; the glyph encodes how much
    of that slice the category's spans occupied (' ' none .. '█' all).
    The three longest spans follow the rows.
    """
    end = max(total_cycles or 0, tracer.end_cycle())
    if end <= 0 or not tracer.spans:
        return "timeline: no spans recorded"
    width = max(10, width)
    bucket = max(1, (end + width - 1) // width)
    by_cat: Dict[str, list] = {}
    for ev in tracer.spans:
        by_cat.setdefault(ev.cat, []).append(ev)
    lanes = [cat for cat in _KNOWN_CATEGORIES if cat in by_cat]
    lanes += [cat for cat in by_cat if cat not in lanes]

    label_w = max(len(cat) for cat in lanes)
    lines = [f"timeline: 0 .. {end:,} cycles "
             f"({bucket:,} cycles/column, {len(tracer.spans)} spans)"]
    for cat in lanes:
        spans = by_cat[cat]
        busy = sum(ev.dur for ev in spans)
        row = _occupancy_row(spans, 0, bucket, width)
        lines.append(f"{cat:>{label_w}} |{row}| "
                     f"{len(spans)} spans, {busy:,} cy "
                     f"({busy / end:.1%})")
    lines.append("")
    lines.append("longest spans:")
    for ev in sorted(tracer.spans, key=lambda e: -e.dur)[:3]:
        lines.append(f"  {ev.cat}/{ev.name}: {ev.dur:,} cy @ {ev.ts:,}")
    return "\n".join(lines)
