"""Runtime observability: metrics, span tracing, decision provenance.

The paper's mechanism is driven by observation — mpstat/likwid samples
feeding a rule-condition-action pipeline — and this package gives the
reproduction the matching introspection:

* :mod:`repro.obs.metrics` — a registry of counters, gauges and
  fixed-bucket histograms under per-component namespaces
  (``controller.ticks``, ``scheduler.migrations`` ...);
* :mod:`repro.obs.spans` — nested begin/end spans (controller pipeline
  stages on the host clock, query/stage execution on the simulated
  clock), exportable as Chrome ``trace_event`` JSON;
* :mod:`repro.obs.provenance` — the decision log behind
  ``repro explain``: every allocation/release with its monitor sample,
  matched guard, threshold comparison and node-choice justification;
* :mod:`repro.obs.export` — metrics JSONL, Chrome trace and the
  ``repro stats`` summary table;
* :mod:`repro.obs.recorder` — the :class:`Recorder` facade and its
  :class:`NullRecorder` twin whose no-op fast path keeps disabled
  telemetry within noise of an uninstrumented run (see
  ``benchmarks/test_obs_overhead.py``);
* :mod:`repro.obs.health` — controller-health analyzers (convergence to
  LONC, divergences, oscillation/flapping, allocation lag) replayed
  from the decision log; ``repro stats`` prints them per tenant.

See ``docs/observability.md`` for the metric catalogue, span taxonomy
and the health table.
"""

from .export import (DECISIONS_JSONL, METRICS_JSONL, TRACE_JSON,
                     dump_chrome_trace, dump_metrics_jsonl, export_run,
                     load_metrics_jsonl, metric_tenant, stats_table)
from .health import HealthSuite, TenantHealth, analyze_decisions
from .metrics import (TIME_BUCKETS, VALUE_BUCKETS, Counter, Gauge,
                      Histogram, MetricsRegistry, NullMetricsRegistry)
from .provenance import (Decision, DecisionLog, NullDecisionLog,
                         dump_decisions, explain_decision, load_decisions)
from .recorder import (NULL_RECORDER, NullRecorder, Recorder,
                       current_recorder, install, recording, uninstall)
from .spans import (NullSpanTracer, SpanRecord, SpanTracer,
                    chrome_trace_events)

__all__ = [
    # recorder facade
    "Recorder", "NullRecorder", "NULL_RECORDER",
    "install", "uninstall", "current_recorder", "recording",
    # metrics
    "MetricsRegistry", "NullMetricsRegistry",
    "Counter", "Gauge", "Histogram",
    "TIME_BUCKETS", "VALUE_BUCKETS",
    # spans
    "SpanTracer", "NullSpanTracer", "SpanRecord", "chrome_trace_events",
    # provenance
    "Decision", "DecisionLog", "NullDecisionLog", "explain_decision",
    "dump_decisions", "load_decisions",
    # exporters
    "dump_metrics_jsonl", "load_metrics_jsonl",
    "dump_chrome_trace", "export_run", "stats_table", "metric_tenant",
    "METRICS_JSONL", "TRACE_JSON", "DECISIONS_JSONL",
    # health analyzers
    "HealthSuite", "TenantHealth", "analyze_decisions",
]
