"""Flight recorder: bounded always-on event ring + crash dumps.

The ring is the black box the fault explorer dumps next to invariant
violations: a fixed-capacity tail of recent telemetry, cheap enough to
stay on even when full tracing is off (the wall-clock benchmark gates
its overhead at <= 0.5% of the mirror hot path).
"""

from __future__ import annotations

import json

from repro.faults.plan import FaultSpec
from repro.faults.registry import CRASH
from repro.faults.workload import make_workload
from repro.obs import TraceRecorder
from repro.obs.flight import DEFAULT_FLIGHT_CAPACITY, FlightRecorder, FlightRing


class TestFlightRing:
    def test_tail_in_order_before_wraparound(self):
        ring = FlightRing(8)
        for i in range(5):
            ring.add("count", f"e{i}", i)
        assert [e[1] for e in ring.tail()] == [f"e{i}" for i in range(5)]
        assert ring.dropped == 0
        assert len(ring) == 5

    def test_wraparound_evicts_oldest_first(self):
        ring = FlightRing(4)
        for i in range(10):
            ring.add("count", f"e{i}", i)
        assert [e[1] for e in ring.tail()] == ["e6", "e7", "e8", "e9"]
        assert ring.dropped == 6
        assert ring.total == 10
        assert len(ring) == 4

    def test_snapshot_is_json_ready_and_complete(self):
        ring = FlightRing(3)
        for i in range(5):
            ring.add("gauge", "depth", float(i))
        snap = ring.snapshot()
        json.dumps(snap)  # must serialize without custom encoders
        assert snap["capacity"] == 3
        assert snap["dropped"] == 2
        assert snap["total"] == 5
        assert [e["value"] for e in snap["events"]] == [2.0, 3.0, 4.0]
        assert all(e["kind"] == "gauge" for e in snap["events"])

    def test_exact_capacity_boundary(self):
        ring = FlightRing(3)
        for i in range(3):
            ring.add("count", f"e{i}", i)
        assert ring.dropped == 0
        assert [e[1] for e in ring.tail()] == ["e0", "e1", "e2"]
        ring.add("count", "e3", 3)
        assert ring.dropped == 1
        assert [e[1] for e in ring.tail()] == ["e1", "e2", "e3"]


class TestFlightRecorder:
    def test_disabled_flag_keeps_guarded_paths_off(self):
        # Call sites guard span construction with `if recorder.enabled:`
        # — the flight recorder must read as disabled so only the cheap
        # unguarded hooks feed the ring.
        recorder = FlightRecorder()
        assert recorder.enabled is False

    def test_unguarded_hooks_feed_the_ring(self):
        recorder = FlightRecorder()
        recorder.count("pm.flushes", 3)
        recorder.gauge("queue.depth", 7.0)
        recorder.instant("romulus.recover", 0.5)
        recorder.observe("serve.e2e", 1e-3)
        kinds = [e[0] for e in recorder.flight.tail()]
        assert kinds == ["count", "gauge", "instant", "observe"]

    def test_span_is_a_null_context(self):
        recorder = FlightRecorder()
        with recorder.span("mirror.out", 0.0):
            pass  # must not raise, must not allocate a Span

    def test_drop_in_on_live_system_hot_path(self):
        # The always-on configuration: swap the flight recorder onto a
        # real system's clock and save the model.  The pushed romulus
        # counter lands in the ring; the PM, SGX and crypto counters live
        # in the components' stats and never reach it.
        system, net = _mirrored_system()
        recorder = FlightRecorder()
        system.clock.recorder = recorder
        system.mirror.mirror_out(net, 1)
        snap = recorder.flight.snapshot()
        assert snap["total"] > 0
        names = {e["name"] for e in snap["events"]}
        assert names == {"romulus.commits"}

    def test_a_mirror_cycle_adds_at_most_two_events(self):
        system, net = _mirrored_system()
        recorder = FlightRecorder()
        system.clock.recorder = recorder
        system.mirror.mirror_out(net, 1)
        system.mirror.mirror_in(net)
        assert recorder.flight.total <= 2


def _mirrored_system():
    """A small system with its model's mirror allocated, untraced."""
    import numpy as np

    from repro.core.models import build_mnist_cnn
    from repro.core.system import PliniusSystem

    system = PliniusSystem.create(server="emlSGX-PM", seed=3, pm_size=4 << 20)
    net = build_mnist_cnn(
        n_conv_layers=1, filters=2, batch=4, rng=np.random.default_rng(3)
    )
    system.mirror.alloc_mirror_model(net)
    return system, net


class TestTraceRecorderRing:
    def test_span_and_metric_paths_feed_the_ring(self):
        recorder = TraceRecorder()
        span = recorder.begin("serve.request", 0.0)
        recorder.end(span, 1e-3)
        recorder.count("serve.admitted")
        recorder.instant("serve.replica_crash", 2e-3)
        recorder.observe("serve.e2e", 1e-3)
        kinds = [e[0] for e in recorder.flight.tail()]
        assert kinds == ["span", "count", "instant", "observe"]

    def test_ring_wraparound_on_recorder(self):
        recorder = TraceRecorder()
        for i in range(DEFAULT_FLIGHT_CAPACITY + 5):
            recorder.count("c", i)
        snap = recorder.flight.snapshot()
        assert snap["dropped"] == 5
        assert [e["value"] for e in snap["events"]] == list(
            range(5, DEFAULT_FLIGHT_CAPACITY + 5)
        )


class TestWorkloadFlightCapture:
    def test_golden_run_carries_flight_snapshot(self):
        workload = make_workload("train")
        golden = workload.golden()
        assert golden.flight is not None
        assert golden.flight["total"] > 0
        # A clean golden run delivered no faults.
        assert all(
            e["kind"] != "fault" for e in golden.flight["events"]
        )

    def test_injected_crash_is_stamped_into_the_ring(self):
        workload = make_workload("train")
        golden = workload.golden()
        # Crash on the site's LAST arrival: the stamp must still be in
        # the bounded ring when the run ends (an early crash plus the
        # full recovery tail can legitimately evict it).
        site = "pm.flush"
        spec = FaultSpec(site, golden.hits[site], CRASH)
        outcome = workload.replay(spec)
        assert outcome.flight is not None
        faults = [
            e for e in outcome.flight["events"] if e["kind"] == "fault"
        ]
        assert faults, "delivered crash missing from the flight ring"
        # The label names the exact injected coordinate for debugging.
        assert faults[0]["name"] == spec.describe()


class TestExplorerFlightDump:
    def test_dump_writes_standalone_json_artifact(self, tmp_path):
        from repro.faults.explorer import (
            ExplorationReport,
            ExploreConfig,
            Violation,
            _dump_flight,
        )

        ring = FlightRing(8)
        ring.add("fault", "(sgx.ecall, hit 3, crash)", 0.25)
        violation = Violation(
            workload="serve",
            spec=FaultSpec("sgx.ecall", 3, CRASH),
            messages=["sealed response mismatch"],
            flight=ring.snapshot(),
        )
        report = ExplorationReport(config=ExploreConfig())
        report.violations.append(violation)
        _dump_flight(report, violation, str(tmp_path))
        path = tmp_path / "flight-serve-1.json"
        assert path.exists()
        doc = json.loads(path.read_text())
        assert doc["workload"] == "serve"
        assert doc["messages"] == ["sealed response mismatch"]
        kinds = [e["kind"] for e in doc["flight"]["events"]]
        assert "fault" in kinds

    def test_dump_skipped_without_dir_or_snapshot(self, tmp_path):
        from repro.faults.explorer import (
            ExplorationReport,
            ExploreConfig,
            Violation,
            _dump_flight,
        )

        violation = Violation(
            workload="train", spec=None, messages=["x"], flight=None
        )
        report = ExplorationReport(config=ExploreConfig())
        report.violations.append(violation)
        _dump_flight(report, violation, None)
        _dump_flight(report, violation, str(tmp_path))  # flight is None
        assert list(tmp_path.iterdir()) == []

    def test_violation_to_dict_includes_flight(self):
        from repro.faults.explorer import Violation

        violation = Violation(
            workload="link",
            spec=None,
            messages=["m"],
            flight={"events": [], "dropped": 0, "total": 0, "capacity": 8},
        )
        payload = violation.to_dict()
        assert payload["flight"]["capacity"] == 8
        json.dumps(payload)
