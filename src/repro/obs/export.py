"""Telemetry exporters: JSONL, Chrome trace, stats table.

One recorded run leaves the process in three shapes:

* ``metrics.jsonl`` — one JSON object per instrument, for programmatic
  post-processing;
* ``trace.json`` — Chrome ``trace_event`` JSON; load it in Perfetto or
  ``chrome://tracing`` to see controller pipeline stages (host clock)
  and query/stage execution (simulated clock) on separate tracks;
* ``decisions.jsonl`` — the decision-provenance log ``repro explain``
  reads back.

:func:`export_run` writes all three; ``repro run --telemetry DIR`` is its
CLI face.
"""

from __future__ import annotations

import json
import pathlib

from ..analysis.report import render_table
from ..errors import ReproError
from ..sim.export import read_jsonl
from .provenance import dump_decisions
from .spans import chrome_trace_events

#: canonical file names inside a telemetry directory
METRICS_JSONL = "metrics.jsonl"
TRACE_JSON = "trace.json"
DECISIONS_JSONL = "decisions.jsonl"


def dump_metrics_jsonl(metrics, path) -> int:
    """One JSON object per instrument; returns the count."""
    path = pathlib.Path(path)
    snapshot = metrics.snapshot()
    with path.open("w", encoding="utf-8") as handle:
        for entry in snapshot:
            handle.write(json.dumps(entry) + "\n")
    return len(snapshot)


def load_metrics_jsonl(path) -> list[dict]:
    """Read a metrics JSONL snapshot back (plain dicts)."""
    path = pathlib.Path(path)
    entries = []
    for line_no, entry in read_jsonl(path):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ReproError(
                f"{path}:{line_no}: not a metric snapshot entry")
        entries.append(entry)
    return entries


def dump_chrome_trace(spans, path) -> int:
    """Write spans as a Chrome ``trace_event`` JSON file.

    The JSON-object form (``{"traceEvents": [...]}``) is used so the
    file is self-describing and extensible; both Perfetto and
    ``chrome://tracing`` accept it.  Returns the event count.
    """
    path = pathlib.Path(path)
    events = chrome_trace_events(
        spans.all() if hasattr(spans, "all") else spans)
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "tracks": {"pid 1": "host clock (pipeline cost)",
                       "pid 2": "simulated clock (queries, stages)"},
        },
    }
    with path.open("w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return len(events)


def export_run(recorder, directory) -> dict[str, pathlib.Path]:
    """Write every export format for one recorded run.

    Returns ``{"metrics": ..., "trace": ..., "decisions": ...}`` paths.  The directory is created if needed.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "metrics": directory / METRICS_JSONL,
        "trace": directory / TRACE_JSON,
        "decisions": directory / DECISIONS_JSONL,
    }
    dump_metrics_jsonl(recorder.metrics, paths["metrics"])
    dump_chrome_trace(recorder.spans, paths["trace"])
    dump_decisions(recorder.decisions.all(), paths["decisions"])
    return paths


# ----------------------------------------------------------------------
# the `repro stats` table
# ----------------------------------------------------------------------

#: metric families that carry a tenant segment when the instrument
#: belongs to a non-default tenant (``controller.volcano.ticks``); the
#: default tenant keeps the bare historical names (``controller.ticks``)
_TENANT_FAMILIES = frozenset({"controller", "cpuset", "petrinet"})


def metric_tenant(name: str) -> str | None:
    """The tenant a per-tenant metric belongs to, or ``None``.

    ``None`` means the metric is machine-wide (``sim.events``,
    ``scheduler.migrations`` ...) and shows up regardless of any
    ``--tenant`` filter.
    """
    from ..opsys.inventory import DEFAULT_TENANT

    parts = name.split(".")
    if parts[0] not in _TENANT_FAMILIES or len(parts) < 2:
        return None
    if parts[0] == "petrinet":
        # petrinet.fired.t1 (default) vs petrinet.<tenant>.fired.t1
        return DEFAULT_TENANT if parts[1] == "fired" else parts[1]
    # controller.ticks / cpuset.cores_added (default, two segments) vs
    # controller.<tenant>.ticks / cpuset.<tenant>.cores_added
    return DEFAULT_TENANT if len(parts) == 2 else parts[1]


def _stats_rows(entries) -> list[list[object]]:
    rows: list[list[object]] = []
    for entry in entries:
        kind = entry["kind"]
        if kind in ("counter", "gauge"):
            rows.append([entry["name"], kind, entry["value"], "", ""])
        else:
            count = entry["count"]
            mean = entry["sum"] / count if count else 0.0
            spread = (f"{entry['min']:.3g}..{entry['max']:.3g}"
                      if count else "-")
            rows.append([entry["name"], kind, count, mean, spread])
    return rows


def stats_table(metrics_or_entries, title: str = "telemetry",
                tenant: str | None = None) -> str:
    """Summary table over a registry or a loaded JSONL snapshot.

    With ``tenant``, only that tenant's per-tenant instruments are
    listed — machine-wide metrics are filtered out too, so the table
    answers "what did *this* controller do".
    """
    if hasattr(metrics_or_entries, "snapshot"):
        entries = metrics_or_entries.snapshot()
    else:
        entries = list(metrics_or_entries)
    if tenant is not None:
        entries = [e for e in entries
                   if metric_tenant(e["name"]) == tenant]
        title = f"{title} (tenant {tenant})"
    if not entries:
        return "(no metrics recorded)"
    return render_table(
        ["metric", "kind", "value/count", "mean", "min..max"],
        _stats_rows(entries), title=title)
