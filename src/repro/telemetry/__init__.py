"""Structured telemetry for the SNBC pipeline.

Zero-dependency (stdlib-only) observability layer: hierarchical span
tracing, a metrics registry, run manifests, and the run-artifact
loader the report CLI reads through.

Three entry levels:

* **Library users** pay nothing: the default :class:`Telemetry` instance
  is disabled (null sink) and every instrumentation point degrades to a
  cheap no-op.
* **Harnesses** (the Table 1 benchmarks) call :func:`session` to route
  spans and metrics into a JSONL trace plus a JSON run manifest under
  ``results/``.
* **Humans** render a run with ``python -m repro.diagnostics.report
  <run>`` — per-phase time breakdown and metric summaries — or a whole
  results tree with ``python -m repro.diagnostics.report results/``.

Deeper instrumentation lives alongside: :mod:`repro.telemetry.profiler`
(a stdlib sampling profiler writing collapsed stacks + per-phase
self-time), :mod:`repro.telemetry.report` (the pure trace aggregations
every report shows) and :mod:`repro.telemetry.store` (the one reader of
a run's artifact family, and the cross-run fleet index).

Cross-process runs are first-class: :mod:`repro.telemetry.context`
propagates a :class:`TraceContext` (one ``trace_id`` per run) into pool
workers and merges their JSONL shards back into the parent trace, and
:mod:`repro.telemetry.status` maintains an atomically-written
``status.json`` heartbeat per run that ``python -m repro.telemetry.tail``
follows live (single run or ``--fleet`` board).

The span/metric event schema is documented in :mod:`repro.telemetry.spans`.
"""

from repro.telemetry.context import (
    TraceContext,
    capture,
    merge_shard,
    merge_shard_events,
    worker_session,
)
from repro.telemetry.manifest import RunManifest, collect_git_sha, platform_info
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiler import (
    SamplingProfiler,
    get_active_profiler,
    reset_active_profiler,
    set_active_profiler,
)
from repro.telemetry.runtime import (
    Telemetry,
    configure,
    disable,
    get_telemetry,
    session,
)
from repro.telemetry.spans import (
    InMemorySink,
    JSONLSink,
    NullSink,
    Span,
    Tracer,
    load_events,
)
from repro.telemetry.status import StatusWriter, read_status
from repro.telemetry.store import RunRecord, fleet_summary, load_run, scan_runs

__all__ = [
    "InMemorySink",
    "JSONLSink",
    "MetricsRegistry",
    "NullSink",
    "RunManifest",
    "RunRecord",
    "SamplingProfiler",
    "Span",
    "StatusWriter",
    "Telemetry",
    "TraceContext",
    "Tracer",
    "capture",
    "collect_git_sha",
    "configure",
    "disable",
    "fleet_summary",
    "get_active_profiler",
    "get_telemetry",
    "load_events",
    "load_run",
    "merge_shard",
    "merge_shard_events",
    "platform_info",
    "read_status",
    "reset_active_profiler",
    "scan_runs",
    "session",
    "set_active_profiler",
    "worker_session",
]
