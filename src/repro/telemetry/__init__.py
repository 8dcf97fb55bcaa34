"""Dependency-free telemetry: labeled metrics and cross-process span traces.

The observability layer of the repo, pure stdlib.  Two halves:

* **Metrics** (:mod:`repro.telemetry.metrics`) — a process-wide
  :data:`REGISTRY` of counters, gauges and histograms with labeled
  series, rendered in Prometheus text format by ``GET /v1/metrics`` on
  the campaign service.  The campaign scheduler, worker pool, result
  cache, event bus, SST broker and HTTP server all publish into it.
* **Spans** (:mod:`repro.telemetry.spans` /
  :mod:`repro.telemetry.export`) — structured timing trees correlated by
  trace/span ids that survive the hop into spawned worker processes, so
  one campaign run yields resolve → dispatch → execute → settle in a
  single tree, appended as JSONL next to the campaign store and rendered
  by ``repro.cli trace``.  Below ``execute`` sit the layers' own
  :class:`Timer` sections (``workflow.pic`` → ``pic.gather`` …), which
  are real spans whenever a trace is recording.

Both halves honour one switch (:mod:`repro.telemetry.state`): with
telemetry disabled — ``REPRO_TELEMETRY=0`` or :func:`disabled` — every
instrumentation site reduces to a boolean test.
"""

from repro.telemetry.state import disabled, is_enabled, set_enabled
from repro.telemetry.metrics import (Counter, Gauge, Histogram,
                                     MetricsRegistry, REGISTRY, get_registry)
from repro.telemetry.spans import (Span, SpanRecorder, Timer, carry_trace,
                                   current_span, new_id, recording, span)
from repro.telemetry.export import (TRACE_SUFFIX, TraceWriter, read_spans,
                                    trace_path_for)
from repro.telemetry.render import render_trace, render_traces

__all__ = [
    "disabled", "is_enabled", "set_enabled",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "REGISTRY",
    "get_registry",
    "Span", "SpanRecorder", "Timer", "carry_trace", "current_span",
    "new_id", "recording", "span",
    "TRACE_SUFFIX", "TraceWriter", "read_spans", "trace_path_for",
    "render_trace", "render_traces",
]
