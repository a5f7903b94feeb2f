"""Exporter edge cases and byte-level export determinism.

Two fresh recorders fed the identical deterministic event stream must
serialize byte-identically — Chrome trace, JSONL, and `repro report`
alike.  The edge cases cover shapes the serving telemetry can actually
produce: empty traces, metric-only runs, lanes shared between serving
replicas and other categories, and a wrapped flight ring.
"""

from __future__ import annotations

import json

from repro.obs import TraceRecorder
from repro.obs.flight import DEFAULT_FLIGHT_CAPACITY
from repro.obs.export import (
    _lane_name,
    summary,
    to_chrome_trace,
    to_jsonl_lines,
)
from repro.obs.report import (
    build_report,
    build_report_from_recorder,
    render_report_json,
    render_report_text,
)


def deterministic_fill(recorder):
    """A fully pinned event stream: no live clock reads anywhere."""
    root = recorder.complete(
        "serve.request",
        sim_start=0.0, sim_end=2e-3,
        wall_start=0.0, wall_end=0.0,
        category="serve", args={"session": 1},
        parent=None, trace_id=(1 << 32) | 7,
    )
    recorder.complete(
        "crypto.seal",
        sim_start=1e-3, sim_end=1e-3,
        wall_start=0.0, wall_end=0.0,
        category="crypto", args={"bytes": 64},
        parent=root, trace_id=root.trace_id,
    )
    recorder.instant(
        "romulus.recover", 5e-4, category="romulus", wall_time=5e-4
    )
    recorder.count("serve.admitted", 3)
    recorder.gauge("queue.depth", 2.0)
    recorder.observe("serve.e2e", 2e-3)
    return recorder


class TestByteIdenticalExports:
    def test_two_fresh_recorders_serialize_identically(self):
        a = deterministic_fill(TraceRecorder())
        b = deterministic_fill(TraceRecorder())
        dump = lambda doc: json.dumps(doc, indent=1, sort_keys=True)
        assert dump(to_chrome_trace(a)) == dump(to_chrome_trace(b))
        assert to_jsonl_lines(a) == to_jsonl_lines(b)
        assert summary(a) == summary(b)
        assert render_report_json(
            build_report_from_recorder(a)
        ) == render_report_json(build_report_from_recorder(b))

    def test_report_roundtrips_through_serialized_trace(self, tmp_path):
        from repro.obs.export import write_chrome_trace
        from repro.obs.report import load_trace

        recorder = deterministic_fill(TraceRecorder())
        path = tmp_path / "trace.json"
        write_chrome_trace(recorder, str(path))
        from_file = render_report_json(build_report(load_trace(str(path))))
        from_live = render_report_json(build_report_from_recorder(recorder))
        assert from_file == from_live


class TestEmptyAndSparseTraces:
    def test_empty_recorder_exports_cleanly(self):
        recorder = TraceRecorder()
        doc = to_chrome_trace(recorder)
        assert all(e["ph"] == "M" for e in doc["traceEvents"])
        assert to_jsonl_lines(recorder) == []
        assert "(no spans recorded)" in summary(recorder)
        report = build_report(doc)
        assert report["spans"] == {}
        assert report["traces"]["count"] == 0
        text = render_report_text(report)
        assert "(no spans recorded)" in text

    def test_gauge_only_recorder(self):
        recorder = TraceRecorder()
        recorder.gauge("pm.used_bytes", 1024.0)
        doc = to_chrome_trace(recorder)
        assert doc["otherData"]["gauges"] == {"pm.used_bytes": 1024.0}
        report = build_report(doc)
        assert report["gauges"] == {"pm.used_bytes": 1024.0}
        assert report["counters"] == {}
        assert "pm.used_bytes (gauge)" in render_report_text(report)


class TestLaneNaming:
    def test_crypto_and_replica_lanes_distinct(self):
        assert _lane_name(3, {"crypto"}) == "sim-lane-3"
        assert _lane_name(203, {"serve"}) == "sim-serve-replica-3"

    def test_collision_degrades_to_neutral_label(self):
        # Only a lane that drew nothing but serve spans at 200+N is a
        # replica's; anything else sharing the tid space stays neutral.
        assert _lane_name(205, {"crypto"}) == "sim-lane-205"
        assert _lane_name(205, {"crypto", "serve"}) == "sim-lane-205"
        assert _lane_name(7, {"serve"}) == "sim-lane-7"

    def test_lane_metadata_emitted_per_lane(self):
        recorder = TraceRecorder()
        recorder.complete(
            "crypto.seal", sim_start=0.0, sim_end=1e-4,
            wall_start=0.0, wall_end=0.0, category="crypto", sim_lane=1,
        )
        recorder.complete(
            "serve.batch", sim_start=0.0, sim_end=1e-4,
            wall_start=0.0, wall_end=0.0, category="serve", sim_lane=200,
        )
        doc = to_chrome_trace(recorder)
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "sim-lane-1" in names
        assert "sim-serve-replica-0" in names


class TestFlightInExports:
    def test_wrapped_ring_survives_export_and_report(self):
        recorder = TraceRecorder()
        total = DEFAULT_FLIGHT_CAPACITY + 6
        for i in range(total):
            recorder.count("pm.flushes", i)
        doc = to_chrome_trace(recorder)
        flight = doc["otherData"]["flight"]
        assert flight["dropped"] == 6
        assert len(flight["events"]) == DEFAULT_FLIGHT_CAPACITY
        report = build_report(doc)
        assert report["flight"]["dropped"] == 6
        text = render_report_text(report)
        assert f"{DEFAULT_FLIGHT_CAPACITY} events retained" in text
        assert f"6 dropped of {total}" in text
