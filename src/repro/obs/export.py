"""Trace exporters: Chrome trace-event JSON, JSONL, and summary tables.

Chrome trace format reference:
https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
— the JSON loads in ``chrome://tracing`` and https://ui.perfetto.dev.

The dual clocks are rendered as two *processes*: pid 1 is the simulated
timeline (deterministic; microseconds = simulated seconds × 1e6) and
pid 2 the wall-clock timeline.  Spans recorded with a ``sim_lane`` (the
gateway's per-replica batches) appear on that lane of the sim process
and on their real OS thread in the wall process.  Counters are emitted
as final ``C`` events; instant events (``romulus.recover``) as ``i``
events on both timelines.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.obs.recorder import Span, TraceRecorder

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "to_jsonl_lines",
    "write_jsonl",
    "phase_totals",
    "mirror_breakdown",
    "summary",
]

SIM_PID = 1
WALL_PID = 2
#: Sim-process tid offset of simulated lanes (tid = base + lane).
SIM_LANE_TID_BASE = 100


def _us(seconds: float) -> float:
    return seconds * 1e6


def _span_events(span: Span) -> List[Dict[str, Any]]:
    # Identity fields ride in args so the causal tree (and the ``repro
    # report`` CLI) can be rebuilt from the exported JSON alone.
    args = dict(sorted((span.args or {}).items()))
    args["span"] = span.index
    if span.parent_index is not None:
        args["parent"] = span.parent_index
    if span.trace_id is not None:
        args["trace_id"] = span.trace_id
    sim_tid = (
        SIM_LANE_TID_BASE + span.sim_lane
        if span.sim_lane is not None
        else span.thread_id
    )
    common = {"name": span.name, "cat": span.category or "span", "ph": "X"}
    return [
        {
            **common,
            "pid": SIM_PID,
            "tid": sim_tid,
            "ts": _us(span.sim_start),
            "dur": _us(span.sim_elapsed),
            "args": args,
        },
        {
            **common,
            "pid": WALL_PID,
            "tid": span.thread_id,
            "ts": _us(span.wall_start),
            "dur": _us(span.wall_elapsed),
            "args": args,
        },
    ]


def _lane_name(lane: int, categories: "set[str]") -> str:
    """Deterministic display name for one simulated lane.

    Serving replicas draw on lanes ``200 + N``; the name is derived from
    the categories actually drawn on the lane, so anything else that
    lands there gets a neutral label instead of a replica's.
    """
    if categories == {"serve"} and lane >= 200:
        return f"sim-serve-replica-{lane - 200}"
    return f"sim-lane-{lane}"


def to_chrome_trace(recorder: TraceRecorder) -> Dict[str, Any]:
    """Render the recorder's contents as a Chrome trace-event document."""
    events: List[Dict[str, Any]] = []
    metadata = [
        ("process_name", SIM_PID, 0, {"name": "sim-time (deterministic)"}),
        ("process_name", WALL_PID, 0, {"name": "wall-clock"}),
    ]
    lanes: Dict[int, set] = {}
    threads = set()
    for span in list(recorder.spans):
        events.extend(_span_events(span))
        threads.add(span.thread_id)
        if span.sim_lane is not None:
            lanes.setdefault(span.sim_lane, set()).add(span.category or "span")
    for tid in sorted(threads):
        name = "main" if tid == 0 else f"thread-{tid}"
        metadata.append(("thread_name", SIM_PID, tid, {"name": name}))
        metadata.append(("thread_name", WALL_PID, tid, {"name": name}))
    for lane in sorted(lanes):
        metadata.append(
            (
                "thread_name",
                SIM_PID,
                SIM_LANE_TID_BASE + lane,
                {"name": _lane_name(lane, lanes[lane])},
            )
        )

    for event in list(recorder.events):
        for pid, ts in (
            (SIM_PID, event["sim_time"]),
            (WALL_PID, event["wall_time"]),
        ):
            events.append(
                {
                    "name": event["name"],
                    "cat": event["category"] or "event",
                    "ph": "i",
                    "s": "g",  # global-scope instant marker
                    "pid": pid,
                    "tid": event["thread_id"],
                    "ts": _us(ts),
                    "args": event["args"],
                }
            )

    # Final counter samples at the end of the sim timeline.
    end_ts = max(
        [_us(s.sim_end) for s in recorder.spans]
        + [_us(e["sim_time"]) for e in recorder.events]
        + [0.0]
    )
    for name, value in recorder.counters.snapshot().items():
        events.append(
            {
                "name": name,
                "cat": "counter",
                "ph": "C",
                "pid": SIM_PID,
                "tid": 0,
                "ts": end_ts,
                "args": {"value": value},
            }
        )

    # Deterministic event order: metadata first (sorted), then data
    # events sorted on stable keys — identical recorder contents always
    # serialize byte-identically regardless of completion interleaving.
    events.sort(
        key=lambda e: (
            e["pid"],
            e["tid"],
            e["ts"],
            e["ph"],
            e["name"],
            json.dumps(e.get("args", {}), sort_keys=True, default=str),
        )
    )
    trace_events = [
        {
            "name": kind,
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": args,
        }
        for kind, pid, tid, args in sorted(
            metadata, key=lambda m: (m[0], m[1], m[2])
        )
    ] + events
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "counters": recorder.counters.snapshot(),
            "gauges": recorder.counters.gauges_snapshot(),
            "histograms": recorder.counters.histograms_snapshot(),
            "flight": recorder.flight.snapshot()
            if hasattr(recorder, "flight")
            else None,
        },
    }


def write_chrome_trace(recorder: TraceRecorder, path: str) -> Dict[str, Any]:
    """Serialize the Chrome trace to ``path``; returns the document."""
    doc = to_chrome_trace(recorder)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc


# ----------------------------------------------------------------------
# JSONL event stream
# ----------------------------------------------------------------------
def to_jsonl_lines(recorder: TraceRecorder) -> List[str]:
    """One JSON object per line: spans, instants, then final metrics."""
    lines = []
    for span in list(recorder.spans):
        lines.append(
            json.dumps(
                {
                    "type": "span",
                    "name": span.name,
                    "category": span.category,
                    "index": span.index,
                    "parent": span.parent_index,
                    "thread": span.thread_id,
                    "sim_lane": span.sim_lane,
                    "trace_id": span.trace_id,
                    "sim_start": span.sim_start,
                    "sim_end": span.sim_end,
                    "wall_start": span.wall_start,
                    "wall_end": span.wall_end,
                    "args": dict(sorted((span.args or {}).items())),
                },
                sort_keys=True,
            )
        )
    for event in list(recorder.events):
        lines.append(
            json.dumps({"type": "instant", **event}, sort_keys=True)
        )
    for name, value in recorder.counters.snapshot().items():
        lines.append(
            json.dumps(
                {"type": "counter", "name": name, "value": value},
                sort_keys=True,
            )
        )
    for name, value in recorder.counters.gauges_snapshot().items():
        lines.append(
            json.dumps(
                {"type": "gauge", "name": name, "value": value},
                sort_keys=True,
            )
        )
    for name, hist in recorder.counters.histograms_snapshot().items():
        lines.append(
            json.dumps(
                {"type": "histogram", "name": name, "hist": hist},
                sort_keys=True,
            )
        )
    return lines


def write_jsonl(recorder: TraceRecorder, path: str) -> int:
    """Write the JSONL stream to ``path``; returns the line count."""
    lines = to_jsonl_lines(recorder)
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
    return len(lines)


# ----------------------------------------------------------------------
# Aggregation + summary
# ----------------------------------------------------------------------
def phase_totals(
    recorder: TraceRecorder, prefix: Optional[str] = None
) -> Dict[str, Dict[str, float]]:
    """Aggregate spans by name: count plus total sim/wall seconds.

    ``prefix`` filters to one component's taxonomy (e.g. ``"mirror."``).
    """
    totals: Dict[str, Dict[str, float]] = {}
    for span in list(recorder.spans):
        if prefix is not None and not span.name.startswith(prefix):
            continue
        entry = totals.setdefault(
            span.name, {"count": 0, "sim_seconds": 0.0, "wall_seconds": 0.0}
        )
        entry["count"] += 1
        entry["sim_seconds"] += span.sim_elapsed
        entry["wall_seconds"] += span.wall_elapsed
    return dict(sorted(totals.items()))


def mirror_breakdown(recorder: TraceRecorder) -> Dict[str, float]:
    """Table Ia percentages computed from span data alone.

    Save = ``mirror.encrypt`` vs ``mirror.layout + mirror.write`` (the
    layout walk is storage work, exactly as
    :class:`~repro.core.mirror.MirrorTiming` accounts it); restore =
    ``mirror.read`` vs ``mirror.decrypt``.  Raises :class:`ValueError`
    when the trace holds no mirror operations.
    """
    totals = phase_totals(recorder, prefix="mirror.")

    def sim(name: str) -> float:
        return totals.get(name, {}).get("sim_seconds", 0.0)

    encrypt = sim("mirror.encrypt")
    write = sim("mirror.layout") + sim("mirror.write")
    read = sim("mirror.read")
    decrypt = sim("mirror.decrypt")
    save_total = encrypt + write
    restore_total = read + decrypt
    if save_total <= 0 and restore_total <= 0:
        raise ValueError("trace contains no mirror.out/mirror.in spans")
    result: Dict[str, float] = {}
    if save_total > 0:
        result["save_encrypt_pct"] = 100.0 * encrypt / save_total
        result["save_write_pct"] = 100.0 * write / save_total
    if restore_total > 0:
        result["restore_read_pct"] = 100.0 * read / restore_total
        result["restore_decrypt_pct"] = 100.0 * decrypt / restore_total
    return result


def _format_rows(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    table = [[str(c) for c in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def summary(recorder: TraceRecorder) -> str:
    """Human-readable per-phase and counter summary of a trace."""
    totals = phase_totals(recorder)
    parts = []
    if totals:
        parts.append(
            _format_rows(
                ["span", "count", "sim s", "wall s"],
                [
                    [
                        name,
                        int(entry["count"]),
                        f"{entry['sim_seconds']:.6f}",
                        f"{entry['wall_seconds']:.6f}",
                    ]
                    for name, entry in totals.items()
                ],
            )
        )
    else:
        parts.append("(no spans recorded)")
    counters = recorder.counters.snapshot()
    gauges = recorder.counters.gauges_snapshot()
    if counters or gauges:
        parts.append("")
        parts.append(
            _format_rows(
                ["metric", "value"],
                [[name, value] for name, value in counters.items()]
                + [[f"{name} (gauge)", value] for name, value in gauges.items()],
            )
        )
    histograms = recorder.counters.histograms_snapshot()
    if histograms:
        parts.append("")
        parts.append(
            _format_rows(
                ["histogram", "count", "mean", "p50", "p99", "p999", "max"],
                [
                    [
                        name,
                        hist["count"],
                        f"{hist['mean']:.6g}",
                        f"{hist['p50']:.6g}",
                        f"{hist['p99']:.6g}",
                        f"{hist['p999']:.6g}",
                        f"{hist['max']:.6g}" if hist["max"] is not None else "-",
                    ]
                    for name, hist in histograms.items()
                ],
            )
        )
    events = list(recorder.events)
    if events:
        parts.append("")
        parts.append(
            _format_rows(
                ["event", "sim time", "args"],
                [
                    [e["name"], f"{e['sim_time']:.6f}", json.dumps(e["args"], sort_keys=True)]
                    for e in events
                ],
            )
        )
    return "\n".join(parts)
