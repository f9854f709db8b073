"""Unified observability layer: tracing, metrics, phase spans, reports.

Four pieces, designed to compose with the fork-based parallel runner:

- :mod:`repro.obs.trace` — schema-versioned per-document JSONL attack
  traces (``TraceRecorder`` / ``DocumentTrace``), sampled via
  ``trace_every_n``;
- :mod:`repro.obs.registry` — ``MetricsRegistry`` with counters, gauges
  and mergeable latency histograms, picklable across pool workers;
- :mod:`repro.obs.spans` — ``PhaseProfiler`` nestable span timers
  (tokenize / candidate-gen / forward / greedy-select / lm-filter);
- :mod:`repro.obs.report` — ``metrics.json`` + ``failures.jsonl``
  writers and the markdown run report behind
  ``python -m repro.experiments report <run_dir>``;
- :mod:`repro.obs.timeseries` — live ``TimeSeriesSampler`` writing
  ``series.jsonl`` trajectories, plus the sparkline dashboard behind
  ``python -m repro.experiments watch``;
- :mod:`repro.obs.exporter` — dependency-free HTTP ``TelemetryServer``
  (``/metrics`` Prometheus text, ``/metrics.json``, ``/healthz``,
  ``/series.json``);
- :mod:`repro.obs.compare` — run-to-run regression comparison with
  relative-tolerance gates behind
  ``python -m repro.experiments compare <run_a> <run_b>``.
"""

from repro.obs.compare import (
    DEFAULT_REL_TOL,
    MetricDelta,
    RunComparison,
    compare_runs,
    metric_direction,
    render_compare_report,
    summarize_run_dir,
)
from repro.obs.exporter import TelemetryServer, render_prometheus
from repro.obs.registry import Histogram, MetricsRegistry, default_latency_bounds
from repro.obs.report import (
    FAILURES_FILENAME,
    METRICS_FILENAME,
    append_failure,
    load_failures,
    load_run_metrics,
    render_phase_table,
    render_report,
    write_run_metrics,
)
from repro.obs.spans import PhaseProfiler
from repro.obs.timeseries import (
    SERIES_FILENAME,
    SERIES_SCHEMA_VERSION,
    TimeSeriesSampler,
    iter_series_files,
    load_run_series,
    read_series,
    render_dashboard,
    sparkline,
    validate_series_line,
)
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    DocumentTrace,
    TraceRecorder,
    TraceSchemaError,
    iter_trace_files,
    read_trace,
    validate_run_dir,
    validate_trace_line,
)

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "TraceRecorder",
    "DocumentTrace",
    "TraceSchemaError",
    "read_trace",
    "iter_trace_files",
    "validate_trace_line",
    "validate_run_dir",
    "Histogram",
    "MetricsRegistry",
    "default_latency_bounds",
    "PhaseProfiler",
    "METRICS_FILENAME",
    "FAILURES_FILENAME",
    "write_run_metrics",
    "append_failure",
    "load_run_metrics",
    "load_failures",
    "render_report",
    "render_phase_table",
    "SERIES_SCHEMA_VERSION",
    "SERIES_FILENAME",
    "TimeSeriesSampler",
    "read_series",
    "iter_series_files",
    "load_run_series",
    "validate_series_line",
    "sparkline",
    "render_dashboard",
    "TelemetryServer",
    "render_prometheus",
    "DEFAULT_REL_TOL",
    "MetricDelta",
    "RunComparison",
    "compare_runs",
    "metric_direction",
    "render_compare_report",
    "summarize_run_dir",
]
