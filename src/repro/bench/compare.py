"""Regression scoring: a history entry vs the window before it.

``repro bench compare`` never simulates: it takes the newest history
entry of each case (:func:`newest_entries`) and scores it against the
**median primary-metric value of the last N compatible entries** (the
baseline window).  Compatibility is deliberately strict — same case,
same history schema, same params fingerprint, same primary metric with
a finite value — so a re-parameterized case can never be judged
against numbers measured under a different configuration.

Verdicts, for per-case relative threshold *t* on the delta in the
"bad" direction:

* ``improved``  — better than baseline by strictly more than *t*,
* ``ok``        — within ±*t* (a delta of exactly *t* is still ok),
* ``regressed`` — worse than baseline by strictly more than *t*,
* ``no-baseline`` — no compatible history to compare against,
* ``invalid``   — the current primary value is missing or non-finite.

``regressed`` and ``invalid`` are the nonzero-exit verdicts.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

from repro.bench.history import HISTORY_SCHEMA
from repro.bench.registry import is_finite_number

#: Window size: how many compatible entries form the baseline.
DEFAULT_WINDOW = 5

#: Fallback relative threshold when an entry carries none.
DEFAULT_THRESHOLD = 0.10

#: Verdicts that make ``repro bench compare`` exit nonzero.
FAILING_VERDICTS = ("regressed", "invalid")


def compatible(entry: dict, current: dict) -> bool:
    """Whether ``entry`` may serve as baseline evidence for ``current``."""
    if not isinstance(entry, dict) or entry.get("schema") != HISTORY_SCHEMA:
        return False
    if entry.get("case") != current.get("case"):
        return False
    if entry.get("params_key") != current.get("params_key"):
        return False
    primary = entry.get("primary") or {}
    current_primary = current.get("primary") or {}
    metric = current_primary.get("metric")
    if not metric or primary.get("metric") != metric:
        return False
    # The entry must not be the current run itself (compare scores
    # entries that are already in the history).
    if entry.get("ts") == current.get("ts"):
        return False
    metrics = entry.get("metrics")
    return (isinstance(metrics, dict)
            and is_finite_number(metrics.get(metric)))


def baseline_values(history: List[dict], current: dict,
                    window: int = DEFAULT_WINDOW) -> List[float]:
    """Primary values of the last ``window`` compatible entries."""
    metric = (current.get("primary") or {}).get("metric")
    usable = [e for e in history if compatible(e, current)]
    usable.sort(key=lambda e: e.get("ts") or 0.0)
    return [float(e["metrics"][metric]) for e in usable[-window:]]


def score_entry(current: dict, history: List[dict],
                window: int = DEFAULT_WINDOW,
                threshold: Optional[float] = None) -> dict:
    """Verdict for one current entry against the history."""
    primary = current.get("primary") or {}
    metric = primary.get("metric")
    direction = primary.get("direction", "lower")
    thr = threshold if threshold is not None \
        else primary.get("threshold", DEFAULT_THRESHOLD)
    value = (current.get("metrics") or {}).get(metric)
    score = {
        "case": current.get("case"),
        "metric": metric,
        "direction": direction,
        "threshold": thr,
        "value": value if is_finite_number(value) else None,
        "baseline": None,
        "baseline_n": 0,
        "delta": None,
        "verdict": "ok",
    }
    if not is_finite_number(value):
        score["verdict"] = "invalid"
        return score
    values = baseline_values(history, current, window)
    if not values:
        score["verdict"] = "no-baseline"
        return score
    baseline = statistics.median(values)
    if not is_finite_number(baseline) or baseline <= 0:
        # A degenerate baseline (all-zero wall times, say) cannot
        # anchor a relative verdict; report it rather than dividing.
        score["verdict"] = "no-baseline"
        score["baseline"] = baseline
        score["baseline_n"] = len(values)
        return score
    # delta > 0 means "worse than baseline", whichever way the metric
    # points; a delta of exactly the threshold is still ok.
    delta = (value - baseline) / baseline
    if direction == "higher":
        delta = -delta
    score["baseline"] = baseline
    score["baseline_n"] = len(values)
    score["delta"] = delta
    if delta > thr:
        score["verdict"] = "regressed"
    elif delta < -thr:
        score["verdict"] = "improved"
    return score


def newest_entries(history: List[dict]) -> Dict[str, dict]:
    """The newest entry of every case in ``history``, by case name."""
    newest: Dict[str, dict] = {}
    for entry in sorted(history, key=lambda e: e.get("ts") or 0.0):
        newest[entry["case"]] = entry
    return newest


def has_failures(scores: List[dict]) -> bool:
    return any(s["verdict"] in FAILING_VERDICTS for s in scores)


def _fmt(value) -> str:
    if value is None:
        return "-"
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def format_scores(scores: List[dict]) -> str:
    """Render verdicts as an aligned text table."""
    header = ("case", "metric", "verdict", "current",
              "baseline", "delta", "threshold")
    rows = [header]
    for s in scores:
        delta = f"{s['delta']:+.1%}" if s["delta"] is not None else "-"
        baseline = (f"{_fmt(s['baseline'])} (n={s['baseline_n']})"
                    if s["baseline"] is not None else "-")
        rows.append((str(s["case"]), str(s["metric"]), s["verdict"],
                     _fmt(s["value"]), baseline, delta,
                     f"±{s['threshold']:.0%}"))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[i])
                       for i, cell in enumerate(row)).rstrip()
             for row in rows]
    return "\n".join(lines)
