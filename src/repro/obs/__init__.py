"""``repro.obs`` — span tracing, metrics, and exporters for the service.

The observability layer the job lifecycle threads through (see
DESIGN.md, "Observability"):

* :mod:`repro.obs.spans` — per-job lifecycle :class:`Span`\\ s with
  cross-process clock rebasing and the :class:`JobTelemetry` payload;
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` (counters and
  histograms), one per executing context;
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto-viewable)
  unifying service spans and simulator :class:`TraceRecord` streams,
  plus the plain-JSON metrics artifact.

Depends only on the standard library + numpy (and duck-types the
service/simulator objects it exports), so it can be imported from any
layer without cycles.
"""

from repro.obs.export import (
    METRICS_ARTIFACT_FORMAT,
    chrome_trace_events,
    load_metrics_artifact,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_artifact,
)
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    percentile,
    summarize_values,
)
from repro.obs.spans import (
    JOB_STAGES,
    STAGE_ACQUIRE,
    STAGE_ATTEMPT_FAILED,
    STAGE_COLLECT,
    STAGE_COMPILE,
    STAGE_EXECUTE,
    STAGE_QUEUE_WAIT,
    STAGE_REPLAY,
    JobTelemetry,
    Span,
    rebase_job_spans,
)

__all__ = [
    "Counter",
    "Histogram",
    "JOB_STAGES",
    "JobTelemetry",
    "METRICS_ARTIFACT_FORMAT",
    "MetricsRegistry",
    "STAGE_ACQUIRE",
    "STAGE_ATTEMPT_FAILED",
    "STAGE_COLLECT",
    "STAGE_COMPILE",
    "STAGE_EXECUTE",
    "STAGE_QUEUE_WAIT",
    "STAGE_REPLAY",
    "Span",
    "chrome_trace_events",
    "load_metrics_artifact",
    "percentile",
    "rebase_job_spans",
    "summarize_values",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_metrics_artifact",
]
