"""``repro.obs`` — unified tracing and metrics for the reproduction.

The paper's core evidence is *breakdowns*: Table I splits mirror-out
cost into encrypt vs. PM-write, Fig. 7 shows where time goes as models
cross the EPC limit, Fig. 9/10 attribute resume cost to read vs.
decrypt.  This package makes that attribution a first-class subsystem:

* :class:`TraceRecorder` — hierarchical spans carrying **both** clocks
  (deterministic simulated seconds and host wall-clock seconds), with
  parent/child nesting, thread ids, and simulated replica lanes;
* :class:`~repro.obs.metrics.CounterRegistry` — component counters
  (ecalls/ocalls, EPC page swaps, PM bytes read/written/flushed,
  Romulus commits/aborts/recoveries, sealed/unsealed bytes) and gauges
  (gateway queue depth, serve-arena bytes);
* the Chrome trace-event JSON exporter (open in Perfetto), and
  ``repro report``, the one reader of what it writes.

Tracing is off by default: every component reaches the recorder through
``clock.recorder``, which is the allocation-free :data:`NULL_RECORDER`
unless one is attached via ``PliniusSystem.create(..., recorder=...)``
or installed process-wide with :func:`install_default_recorder` (what
the ``repro <cmd> --trace PATH`` CLI flag does).

See ``docs/observability.md`` for the span taxonomy and counter names.
"""

from repro.obs.context import (
    TraceContext,
    current_trace,
    trace_id_of,
    trace_scope,
)
from repro.obs.export import (
    mirror_breakdown,
    phase_totals,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.flight import FlightRecorder, FlightRing
from repro.obs.hist import LogHistogram
from repro.obs.metrics import CounterRegistry
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    Span,
    TraceRecorder,
    get_default_recorder,
    install_default_recorder,
)
from repro.obs.report import (
    build_report,
    build_report_from_recorder,
    load_trace,
    render_report_json,
    render_report_text,
)

__all__ = [
    "TraceRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "Span",
    "CounterRegistry",
    "LogHistogram",
    "FlightRecorder",
    "FlightRing",
    "TraceContext",
    "trace_id_of",
    "current_trace",
    "trace_scope",
    "get_default_recorder",
    "install_default_recorder",
    "to_chrome_trace",
    "write_chrome_trace",
    "phase_totals",
    "mirror_breakdown",
    "build_report",
    "build_report_from_recorder",
    "load_trace",
    "render_report_json",
    "render_report_text",
]
