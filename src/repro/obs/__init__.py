"""Process-local observability: metrics, run tracing and profiling.

Four pieces, all zero-dependency and stdlib-only:

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  counters / gauges / histograms with labels, rendered as JSON or Prometheus
  text.  Process-wide metrics are **off by default** (the module-level null
  recorder makes instrumentation free); :func:`enable_metrics` turns them on,
  and components wanting isolation construct their own registry.
* :mod:`repro.obs.trace` — a per-run :class:`Tracer` of spans, deterministic
  counters and bounded events, summarised into a JSON-serialisable
  :class:`RunTrace` that travels in ``RunRecord.extra["trace"]``.
* :mod:`repro.obs.analytics` — the one trace reader: a run's profile table
  (``repro run --profile``), engine coverage, and the cross-run
  ``repro trace diff`` / ``repro trace top`` tables, all over one span tree.
* :mod:`repro.obs.events` — the durable fleet event journal (append-only
  JSONL shards, one per writer) plus worker heartbeats and the fleet
  summary behind ``repro top`` / ``GET /fleet``.

Metric name inventory (all from the process-wide registry unless noted):

==========================================  =========  ==========================================
name                                        kind       source
==========================================  =========  ==========================================
``repro_runs_total{problem=}``              counter    runner: scenarios executed
``repro_run_seconds{problem=}``             histogram  runner: per-run wall time
``repro_sweep_cells_total{status=}``        counter    executors: ``executed`` / ``cached`` cells
``repro_cell_seconds{executor=}``           histogram  executors: per-cell wall / completion latency
``repro_store_appends_total``               counter    filestore: record lines appended
``repro_store_bytes_written_total``         counter    filestore: shard + index bytes appended
``repro_store_index_refreshes_total{changed=}``  counter  filestore: ``refresh()`` outcomes
``repro_queue_claims_total{kind=}``         counter    queue: ``fresh`` / ``reclaim`` / ``steal`` claims
``repro_queue_unit_seconds``                histogram  worker: wall time per processed unit
``repro_queue_unit_cells_total{status=}``   counter    worker: executed/salvaged/cached cells
``serve_http_requests_total{route=}``       counter    serve (per-service registry)
``serve_http_request_seconds{route=}``      histogram  serve (per-service registry)
==========================================  =========  ==========================================
"""

from .analytics import (
    engine_coverage,
    format_profile,
    format_trace_diff,
    format_trace_top,
    load_traces,
    span_components,
    trace_diff,
    trace_top,
)
from .events import (
    EVENT_SCHEMA_VERSION,
    EventJournal,
    executed_cells,
    fleet_summary,
    format_event,
    format_fleet,
    sweep_timeline,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    disable_metrics,
    enable_metrics,
    get_registry,
    set_registry,
)
from .trace import (
    RunTrace,
    TRACE_SCHEMA_VERSION,
    Tracer,
    current_tracer,
    deterministic_view,
    use_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "enable_metrics",
    "disable_metrics",
    "get_registry",
    "set_registry",
    "Tracer",
    "RunTrace",
    "TRACE_SCHEMA_VERSION",
    "current_tracer",
    "use_tracer",
    "deterministic_view",
    "format_profile",
    "engine_coverage",
    "EventJournal",
    "EVENT_SCHEMA_VERSION",
    "executed_cells",
    "fleet_summary",
    "format_event",
    "format_fleet",
    "sweep_timeline",
    "load_traces",
    "span_components",
    "trace_diff",
    "format_trace_diff",
    "trace_top",
    "format_trace_top",
]
