"""``repro report`` — deterministic run summaries from a trace artifact.

The Chrome trace written by ``--trace`` (or
:func:`~repro.obs.export.write_chrome_trace`) carries everything this
module needs: span events with causal identity in their ``args``
(``span``/``parent``/``trace_id``), histograms, counters, gauges, and
the flight-recorder tail in ``otherData``.  The report projects out
every host-dependent field (the wall-clock process, OS thread ids),
sorts all keys, and emits either JSON or text — so two same-seed runs
produce **byte-identical** reports even though their raw traces differ
in wall timestamps.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.export import SIM_PID, _format_rows

__all__ = [
    "load_trace",
    "build_report",
    "build_report_from_recorder",
    "render_report_text",
    "render_report_json",
]

REPORT_SCHEMA = "plinius-report/1"


def load_trace(path: str) -> Dict[str, Any]:
    """Load a Chrome trace-event document from ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError(f"{path} is not a Chrome trace-event document")
    return doc


def _sim_span_events(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [
        e
        for e in doc.get("traceEvents", [])
        if e.get("ph") == "X" and e.get("pid") == SIM_PID
    ]


def _span_aggregates(
    span_events: List[Dict[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    totals: Dict[str, Dict[str, Any]] = {}
    for event in span_events:
        entry = totals.setdefault(
            event["name"], {"count": 0, "sim_seconds": 0.0}
        )
        entry["count"] += 1
        entry["sim_seconds"] += float(event.get("dur", 0.0)) / 1e6
    return dict(sorted(totals.items()))


def _trace_trees(span_events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Rebuild one causal-tree summary per trace id from span identity."""
    by_trace: Dict[int, List[Dict[str, Any]]] = {}
    for event in span_events:
        args = event.get("args", {})
        trace_id = args.get("trace_id")
        if trace_id is None:
            continue
        by_trace.setdefault(int(trace_id), []).append(event)
    trees: List[Dict[str, Any]] = []
    for trace_id in sorted(by_trace):
        events = by_trace[trace_id]
        indices = {e["args"]["span"] for e in events}
        parents = {
            e["args"]["span"]: e["args"].get("parent") for e in events
        }
        roots = sorted(
            e["args"]["span"]
            for e in events
            if e["args"].get("parent") not in indices
        )
        # Depth of each node by walking parent links inside the trace.
        def depth_of(index: int) -> int:
            depth = 0
            current: Optional[int] = index
            while current is not None and depth <= len(indices):
                parent = parents.get(current)
                current = parent if parent in indices else None
                depth += 1
            return depth
        names = sorted(e["name"] for e in events)
        root_names = sorted(
            e["name"] for e in events if e["args"]["span"] in set(roots)
        )
        trees.append(
            {
                "trace_id": trace_id,
                "spans": len(events),
                "roots": len(roots),
                "root_names": root_names,
                "names": names,
                "max_depth": max(depth_of(e["args"]["span"]) for e in events),
            }
        )
    return trees


def build_report(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Deterministic report dict from a Chrome trace document."""
    other = doc.get("otherData", {}) or {}
    span_events = _sim_span_events(doc)
    trees = _trace_trees(span_events)
    return {
        "schema": REPORT_SCHEMA,
        "spans": _span_aggregates(span_events),
        "traces": {
            "count": len(trees),
            "trees": trees,
        },
        "histograms": other.get("histograms", {}) or {},
        "counters": dict(sorted((other.get("counters", {}) or {}).items())),
        "gauges": dict(sorted((other.get("gauges", {}) or {}).items())),
        "flight": other.get("flight"),
    }


def build_report_from_recorder(recorder: Any) -> Dict[str, Any]:
    """Build the report straight from a live recorder (tests, benches)."""
    from repro.obs.export import to_chrome_trace

    return build_report(to_chrome_trace(recorder))


def render_report_json(report: Dict[str, Any]) -> str:
    """Canonical JSON rendering — byte-identical for same-seed runs."""
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


def render_report_text(report: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`build_report` output."""
    parts: List[str] = [f"repro report ({report['schema']})"]

    spans = report["spans"]
    parts.append("")
    if spans:
        parts.append(
            _format_rows(
                ["span", "count", "sim s"],
                [
                    [name, entry["count"], f"{entry['sim_seconds']:.6f}"]
                    for name, entry in spans.items()
                ],
            )
        )
    else:
        parts.append("(no spans recorded)")

    traces = report["traces"]
    parts.append("")
    parts.append(f"causal traces: {traces['count']}")
    if traces["trees"]:
        parts.append(
            _format_rows(
                ["trace", "spans", "depth", "root"],
                [
                    [
                        f"{t['trace_id']:#x}",
                        t["spans"],
                        t["max_depth"],
                        ",".join(t["root_names"]),
                    ]
                    for t in traces["trees"]
                ],
            )
        )

    histograms = report["histograms"]
    if histograms:
        parts.append("")
        parts.append(
            _format_rows(
                ["histogram", "count", "mean", "p50", "p99", "p999"],
                [
                    [
                        name,
                        hist["count"],
                        f"{float(hist['mean']):.6g}",
                        f"{float(hist['p50']):.6g}",
                        f"{float(hist['p99']):.6g}",
                        f"{float(hist['p999']):.6g}",
                    ]
                    for name, hist in histograms.items()
                ],
            )
        )

    metrics = [[name, value] for name, value in report["counters"].items()]
    metrics += [
        [f"{name} (gauge)", value] for name, value in report["gauges"].items()
    ]
    if metrics:
        parts.append("")
        parts.append(_format_rows(["metric", "value"], metrics))

    flight = report.get("flight")
    if flight:
        parts.append("")
        parts.append(
            f"flight recorder: {len(flight['events'])} events retained "
            f"({flight['dropped']} dropped of {flight['total']})"
        )
        tail = flight["events"][-8:]
        parts.append(
            _format_rows(
                ["kind", "name", "value"],
                [[e["kind"], e["name"], e["value"]] for e in tail],
            )
        )
    return "\n".join(parts) + "\n"
