"""Unit tests for the ``repro.obs`` tracing + metrics subsystem."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import (
    NULL_RECORDER,
    CounterRegistry,
    TraceRecorder,
    get_default_recorder,
    install_default_recorder,
    mirror_breakdown,
    phase_totals,
    summary,
    to_chrome_trace,
    to_jsonl_lines,
    write_chrome_trace,
)
from repro.obs.export import SIM_LANE_TID_BASE, SIM_PID, WALL_PID
from repro.simtime.clock import SimClock


class TestCounterRegistry:
    def test_add_and_get(self):
        reg = CounterRegistry()
        reg.add("pm.bytes_written", 64)
        reg.add("pm.bytes_written", 128)
        reg.add("sgx.ecalls")
        assert reg.get("pm.bytes_written") == 192
        assert reg.get("sgx.ecalls") == 1
        assert reg.get("missing") == 0

    def test_snapshot_is_sorted_and_detached(self):
        reg = CounterRegistry()
        reg.add("zzz")
        reg.add("aaa")
        snap = reg.snapshot()
        assert list(snap) == ["aaa", "zzz"]
        reg.add("aaa")
        assert snap["aaa"] == 1  # snapshot is a copy

    def test_gauges(self):
        reg = CounterRegistry()
        reg.set_gauge("serve.queue_depth", 5)
        reg.set_gauge("serve.queue_depth", 9)
        assert reg.get_gauge("serve.queue_depth") == 9
        assert reg.gauges_snapshot() == {"serve.queue_depth": 9}

    def test_len_and_clear(self):
        reg = CounterRegistry()
        reg.add("a")
        reg.set_gauge("g", 1.0)
        assert len(reg) == 2
        reg.clear()
        assert len(reg) == 0
        assert reg.snapshot() == {}

    def test_concurrent_adds_do_not_drop(self):
        reg = CounterRegistry()

        def work():
            for _ in range(1000):
                reg.add("n")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.get("n") == 4000


class TestTraceRecorder:
    def test_begin_end_records_dual_clocks(self):
        rec = TraceRecorder()
        span = rec.begin("phase", 1.0, category="test")
        rec.end(span, 3.5)
        assert span.sim_elapsed == 2.5
        assert span.wall_elapsed >= 0.0
        assert rec.spans == [span]

    def test_nesting_via_thread_stack(self):
        rec = TraceRecorder()
        outer = rec.begin("outer", 0.0)
        inner = rec.begin("inner", 1.0)
        assert inner.parent_index == outer.index
        assert rec.current_span() is inner
        rec.end(inner, 2.0)
        assert rec.current_span() is outer
        rec.end(outer, 3.0)
        assert rec.current_span() is None
        assert outer.parent_index is None

    def test_double_end_raises(self):
        rec = TraceRecorder()
        span = rec.begin("s", 0.0)
        rec.end(span, 1.0)
        with pytest.raises(RuntimeError, match="ended twice"):
            rec.end(span, 2.0)

    def test_span_context_manager_reads_clock(self):
        rec = TraceRecorder()
        clock = SimClock()
        with rec.span("work", clock) as span:
            clock.advance(4.0)
        assert span.sim_elapsed == 4.0
        assert rec.find_spans("work") == [span]

    def test_complete_with_parent_and_lane(self):
        rec = TraceRecorder()
        parent = rec.begin("mirror.encrypt", 0.0)
        worker = rec.complete(
            "crypto.seal",
            sim_start=0.5,
            sim_end=0.8,
            wall_start=0.01,
            wall_end=0.02,
            parent=parent,
            sim_lane=3,
            args={"bytes": 64},
        )
        rec.end(parent, 1.0)
        assert worker.parent_index == parent.index
        assert worker.sim_lane == 3
        assert worker.sim_elapsed == pytest.approx(0.3)
        # complete() must not disturb the caller's stack.
        assert rec.current_span() is None

    def test_instant_and_counters(self):
        rec = TraceRecorder()
        rec.instant("romulus.recover", 2.0, args={"found_state": "IDLE"})
        rec.count("sgx.ecalls")
        rec.count("pm.bytes_written", 4096)
        rec.gauge("serve.queue_depth", 7)
        assert rec.find_events("romulus.recover")[0]["sim_time"] == 2.0
        assert rec.counters.get("pm.bytes_written") == 4096
        assert rec.counters.get_gauge("serve.queue_depth") == 7

    def test_sim_view_excludes_host_fields_and_sorts(self):
        rec = TraceRecorder()
        b = rec.begin("b", 1.0)
        rec.end(b, 2.0)
        a = rec.begin("a", 0.0)
        rec.end(a, 0.5)
        view = rec.sim_view()
        assert [v["name"] for v in view] == ["a", "b"]
        for entry in view:
            assert set(entry) == {
                "name", "category", "sim_start", "sim_end", "sim_lane",
                "trace_id", "args"
            }

    def test_cross_thread_spans_get_distinct_thread_ids(self):
        rec = TraceRecorder()
        seen = []

        def work():
            span = rec.begin("t", 0.0, parent=None)
            rec.end(span, 1.0)
            seen.append(span.thread_id)

        t = threading.Thread(target=work)
        t.start()
        t.join()
        assert seen[0] != 0  # creating thread is tid 0


class TestNullRecorder:
    def test_disabled_and_noop(self):
        assert NULL_RECORDER.enabled is False
        assert NULL_RECORDER.begin("x", 0.0) is None
        assert NULL_RECORDER.end(None, 1.0) is None
        assert NULL_RECORDER.current_span() is None
        NULL_RECORDER.count("a", 5)
        NULL_RECORDER.gauge("g", 1.0)
        NULL_RECORDER.instant("i", 0.0)

    def test_span_context_is_shared_singleton(self):
        ctx1 = NULL_RECORDER.span("a", None)
        ctx2 = NULL_RECORDER.span("b", None)
        assert ctx1 is ctx2  # allocation-free
        with ctx1 as span:
            assert span is None

    def test_default_recorder_install_and_restore(self):
        assert get_default_recorder() is NULL_RECORDER
        rec = TraceRecorder()
        previous = install_default_recorder(rec)
        try:
            assert previous is NULL_RECORDER
            assert get_default_recorder() is rec
            assert SimClock().recorder is rec
        finally:
            install_default_recorder(previous)
        assert get_default_recorder() is NULL_RECORDER
        assert SimClock().recorder is NULL_RECORDER

    def test_install_none_means_null(self):
        previous = install_default_recorder(None)
        try:
            assert get_default_recorder() is NULL_RECORDER
        finally:
            install_default_recorder(previous)


class TestStopwatchShim:
    def test_reentry_raises(self):
        clock = SimClock()
        span = clock.stopwatch("phase")
        with span:
            pass
        with pytest.raises(RuntimeError, match="single-use"):
            with span:
                pass

    def test_stopwatch_forwards_to_recorder(self):
        clock = SimClock()
        clock.recorder = TraceRecorder()
        with clock.stopwatch("outer"):
            clock.advance(1.0)
            with clock.stopwatch("inner"):
                clock.advance(0.25)
        inner = clock.recorder.find_spans("inner")[0]
        outer = clock.recorder.find_spans("outer")[0]
        assert inner.parent_index == outer.index
        assert inner.sim_elapsed == 0.25
        assert outer.sim_elapsed == 1.25

    def test_stopwatch_without_recorder_records_nothing(self):
        clock = SimClock()
        assert clock.recorder is NULL_RECORDER
        with clock.stopwatch("quiet") as span:
            clock.advance(2.0)
        assert span.elapsed == 2.0

    def test_detach_recorder(self):
        clock = SimClock()
        clock.recorder = TraceRecorder()
        clock.detach_recorder()
        assert clock.recorder is NULL_RECORDER


class TestExporters:
    def _populated(self):
        rec = TraceRecorder()
        clock = SimClock()
        clock.recorder = rec
        with clock.stopwatch("mirror.encrypt"):
            clock.advance(3.0)
        with clock.stopwatch("mirror.write"):
            clock.advance(1.0)
        rec.complete(
            "crypto.seal", sim_start=0.0, sim_end=1.5,
            wall_start=0.0, wall_end=0.001, sim_lane=1,
        )
        rec.instant("romulus.recover", 0.5, args={"found_state": "IDLE"})
        rec.count("pm.bytes_written", 4096)
        rec.gauge("serve.queue_depth", 3)
        return rec

    def test_chrome_trace_structure(self):
        doc = to_chrome_trace(self._populated())
        text = json.dumps(doc)  # must be JSON-serializable
        assert json.loads(text) == doc
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"M", "X", "i", "C"} <= phases
        xs = [e for e in events if e["ph"] == "X"]
        # Every span appears on both the sim and wall timelines.
        assert {e["pid"] for e in xs} == {SIM_PID, WALL_PID}
        lane = [
            e for e in xs
            if e["name"] == "crypto.seal" and e["pid"] == SIM_PID
        ]
        assert lane[0]["tid"] == SIM_LANE_TID_BASE + 1
        encrypt_sim = [
            e for e in xs
            if e["name"] == "mirror.encrypt" and e["pid"] == SIM_PID
        ]
        assert encrypt_sim[0]["dur"] == pytest.approx(3.0e6)  # microseconds
        counters = [e for e in events if e["ph"] == "C"]
        assert counters[0]["args"]["value"] == 4096
        assert doc["otherData"]["gauges"] == {"serve.queue_depth": 3}

    def test_write_chrome_trace_round_trip(self, tmp_path):
        path = tmp_path / "trace.json"
        doc = write_chrome_trace(self._populated(), str(path))
        assert json.loads(path.read_text()) == doc

    def test_jsonl_lines_parse(self):
        lines = to_jsonl_lines(self._populated())
        parsed = [json.loads(line) for line in lines]
        types = {p["type"] for p in parsed}
        assert types == {"span", "instant", "counter", "gauge"}

    def test_phase_totals_and_prefix(self):
        rec = self._populated()
        totals = phase_totals(rec)
        assert totals["mirror.encrypt"]["count"] == 1
        assert totals["mirror.encrypt"]["sim_seconds"] == pytest.approx(3.0)
        mirror_only = phase_totals(rec, prefix="mirror.")
        assert set(mirror_only) == {"mirror.encrypt", "mirror.write"}

    def test_mirror_breakdown(self):
        pct = mirror_breakdown(self._populated())
        assert pct["save_encrypt_pct"] == pytest.approx(75.0)
        assert pct["save_write_pct"] == pytest.approx(25.0)
        assert "restore_read_pct" not in pct

    def test_mirror_breakdown_requires_mirror_spans(self):
        with pytest.raises(ValueError, match="no mirror"):
            mirror_breakdown(TraceRecorder())

    def test_summary_renders(self):
        text = summary(self._populated())
        assert "mirror.encrypt" in text
        assert "pm.bytes_written" in text
        assert "romulus.recover" in text
