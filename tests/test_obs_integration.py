"""End-to-end tracing: determinism, recovery events, Table I from spans.

The contracts under test:

* two same-seed traced runs emit identical sim-time trace fields
  (``sim_view()``/``sim_events()``) and counter totals, and tracing
  does not perturb simulated time;
* a kill/resume cycle records exactly one ``romulus.recover`` instant
  and nonzero PM read traffic for the restore;
* the Table Ia encrypt-vs-write split is reproducible from span data
  alone (``mirror_breakdown``) within 1% of the harness-computed
  values;
* :class:`~repro.crypto.engine.EncryptionEngine` stats and the
  ``crypto.*`` counters agree;
* every ``pm.*``, ``sgx.*`` and ``crypto.*`` counter is the sum of the
  ``stats`` of the components built under the recorder, a dead enclave
  included.
"""

from __future__ import annotations

import pytest

from repro.bench.fig7 import measure_model_size
from repro.core.system import PliniusSystem
from repro.crypto.engine import EncryptionEngine
from repro.hw.pmem import PersistentMemoryDevice
from repro.obs import NULL_RECORDER, TraceRecorder, mirror_breakdown
from repro.sgx.ecall import EnclaveRuntime
from repro.sgx.enclave import Enclave

from tests.conftest import make_system


def traced_system(seed: int = 7, pm_size: int = 64 << 20) -> tuple:
    recorder = TraceRecorder()
    system = PliniusSystem.create(
        server="emlSGX-PM", seed=seed, pm_size=pm_size, recorder=recorder
    )
    return system, recorder


def mirror_roundtrip() -> tuple:
    """One traced save + cold restore of a small model."""
    system, recorder = traced_system(seed=11)
    net = system.build_model(n_conv_layers=2, filters=8, batch=16)
    system.enclave.malloc("model", net.param_bytes)
    system.mirror.alloc_mirror_model(net)
    system.mirror.mirror_out(net, 1)
    system.pm.drop_caches()
    system.mirror.mirror_in(net)
    return system, recorder


class TestDeterminism:
    def test_fig7_same_seed_traces_identical(self):
        def run():
            recorder = TraceRecorder()
            measure_model_size(
                "emlSGX-PM", 1, filters=16, recorder=recorder
            )
            return recorder

        r1, r2 = run(), run()
        assert r1.sim_view() == r2.sim_view()
        assert r1.sim_events() == r2.sim_events()
        assert r1.counters.snapshot() == r2.counters.snapshot()

    def test_parallel_mirror_same_seed_traces_identical(self):
        _, r1 = mirror_roundtrip()
        _, r2 = mirror_roundtrip()
        assert r1.sim_view() == r2.sim_view()
        assert r1.counters.snapshot() == r2.counters.snapshot()

    def test_traced_run_matches_untraced_sim_time(self):
        traced, _ = mirror_roundtrip()
        untraced = PliniusSystem.create(
            server="emlSGX-PM", seed=11, pm_size=64 << 20
        )
        net = untraced.build_model(n_conv_layers=2, filters=8, batch=16)
        untraced.enclave.malloc("model", net.param_bytes)
        untraced.mirror.alloc_mirror_model(net)
        untraced.mirror.mirror_out(net, 1)
        untraced.pm.drop_caches()
        untraced.mirror.mirror_in(net)
        # Observability must not perturb simulated time.
        assert traced.clock.now() == untraced.clock.now()


class TestCryptoWorkerLanes:
    def test_engine_stats_agree_with_counters(self):
        system, recorder = mirror_roundtrip()
        counters = recorder.counters
        stats = system.engine.stats
        assert stats["seals"] == counters.get("crypto.seals")
        assert stats["unseals"] == counters.get("crypto.unseals")
        assert stats["bytes_sealed"] == counters.get("crypto.bytes_sealed")
        assert stats["bytes_unsealed"] == counters.get("crypto.bytes_unsealed")
        assert stats["seals"] > 0 and stats["unseals"] > 0


class TestSpanHierarchy:
    def test_mirror_out_wraps_phases(self):
        _, recorder = mirror_roundtrip()
        outer = recorder.find_spans("mirror.out")[0]
        for name in ("mirror.layout", "mirror.encrypt", "mirror.write"):
            phase = recorder.find_spans(name)[0]
            assert phase.parent_index == outer.index
        inner = recorder.find_spans("mirror.in")[0]
        for name in ("mirror.read", "mirror.decrypt"):
            phase = recorder.find_spans(name)[0]
            assert phase.parent_index == inner.index
        assert outer.args == {"iteration": 1}

    def test_train_iteration_wraps_fetch_compute_mirror(self, tiny_dataset):
        system, recorder = traced_system()
        system.load_data(tiny_dataset)
        net = system.build_model(n_conv_layers=2, filters=4, batch=16)
        system.train(net, iterations=2)
        iterations = recorder.find_spans("train.iteration")
        assert len(iterations) == 2
        fetch = recorder.find_spans("train.fetch")
        mirror_out = recorder.find_spans("mirror.out")
        assert fetch[0].parent_index == iterations[0].index
        assert mirror_out[0].parent_index == iterations[0].index

    def test_component_counters_populate(self, tiny_dataset):
        system, recorder = traced_system()
        system.load_data(tiny_dataset)
        net = system.build_model(n_conv_layers=2, filters=4, batch=16)
        system.train(net, iterations=2)
        counters = recorder.counters
        for name in (
            "pm.bytes_written",
            "pm.bytes_read",
            "pm.bytes_flushed",
            "pm.flushes",
            "pm.fences",
            "romulus.commits",
            "crypto.seals",
            "crypto.bytes_sealed",
        ):
            assert counters.get(name) > 0, name

    def test_ckpt_spans(self):
        system, recorder = traced_system()
        net = system.build_model(n_conv_layers=2, filters=4, batch=16)
        system.enclave.malloc("model", net.param_bytes)
        system.checkpoint.save(net, 1)
        system.checkpoint.restore(net)
        save = recorder.find_spans("ckpt.save")[0]
        for name in ("ckpt.encrypt", "ckpt.write"):
            assert recorder.find_spans(name)[0].parent_index == save.index
        restore = recorder.find_spans("ckpt.restore")[0]
        for name in ("ckpt.read", "ckpt.decrypt"):
            assert recorder.find_spans(name)[0].parent_index == restore.index
        assert recorder.counters.get("sgx.ocalls") > 0
        assert recorder.counters.get("sgx.crossings") > 0


class TestKillResume:
    def test_recovery_event_and_pm_reads(self, tiny_dataset):
        system, recorder = traced_system()
        system.load_data(tiny_dataset)
        net = system.build_model(n_conv_layers=2, filters=4, batch=16)
        system.train(net, iterations=3)
        assert recorder.find_events("romulus.recover") == []

        read_before = recorder.counters.get("pm.bytes_read")
        system.kill()
        system.resume()
        net2 = system.build_model(n_conv_layers=2, filters=4, batch=16)
        result = system.train(net2, iterations=3)
        assert result.resumed_from == 3

        recoveries = recorder.find_events("romulus.recover")
        assert len(recoveries) == 1
        assert recoveries[0]["args"]["found_state"] == "IDLE"
        assert recorder.counters.get("romulus.recoveries") == 1
        # The mirror_in restore reads sealed buffers back from PM.
        assert recorder.counters.get("pm.bytes_read") > read_before


#: Each component's stats key -> the counter that must equal its sum.
STATS_COUNTERS = {
    PersistentMemoryDevice: {
        "bytes_written": "pm.bytes_written",
        "bytes_read": "pm.bytes_read",
        "flushes": "pm.flushes",
        "media_bytes": "pm.bytes_flushed",
        "fences": "pm.fences",
    },
    Enclave: {
        "paging_events": "sgx.epc_page_swaps",
        "paged_bytes": "sgx.epc_paged_bytes",
    },
    EnclaveRuntime: {
        "ecalls": "sgx.ecalls",
        "ocalls": "sgx.ocalls",
        "crossings": "sgx.crossings",
    },
    EncryptionEngine: {
        "seals": "crypto.seals",
        "unseals": "crypto.unseals",
        "bytes_sealed": "crypto.bytes_sealed",
        "bytes_unsealed": "crypto.bytes_unsealed",
    },
}


class TestCountersAreComponentStats:
    def test_counters_sum_the_stats_of_every_component(
        self, tiny_dataset, monkeypatch
    ):
        built = {cls: [] for cls in STATS_COUNTERS}
        for cls, instances in built.items():

            def record(self, *args, _init=cls.__init__, _seen=instances, **kw):
                _init(self, *args, **kw)
                _seen.append(self)

            monkeypatch.setattr(cls, "__init__", record)
        system, recorder = traced_system()
        system.load_data(tiny_dataset)
        net = system.build_model(n_conv_layers=2, filters=4, batch=16)
        system.checkpoint.save(net, 1)
        system.train(net, iterations=2)
        dead = system.enclave
        system.kill()
        system.resume()
        net2 = system.build_model(n_conv_layers=2, filters=4, batch=16)
        system.train(net2, iterations=2)

        # Engines built with no observer (the key-sealing ones) report
        # to no recorder.
        built[EncryptionEngine] = [
            e for e in built[EncryptionEngine] if e.observer is recorder
        ]
        assert dead.destroyed and dead in built[Enclave]
        assert len(built[Enclave]) == len(built[EnclaveRuntime]) == 2
        assert len(built[EncryptionEngine]) == 2
        counters = recorder.counters.snapshot()
        expected = {}
        for cls, names in STATS_COUNTERS.items():
            for key, name in names.items():
                total = sum(c.stats[key] for c in built[cls])
                assert counters.get(name, 0) == total, name
                expected[name] = total
        stats_named = {
            n for n in counters if n.startswith(("pm.", "sgx.", "crypto."))
        }
        assert stats_named == {n for n, v in expected.items() if v}
        for name in ("pm.bytes_written", "pm.bytes_read", "sgx.ocalls",
                     "crypto.seals", "crypto.unseals"):
            assert expected[name] > 0, name


class TestNullRecorderDefault:
    def test_system_defaults_to_null_recorder(self):
        system = make_system()
        assert system.recorder is NULL_RECORDER
        assert system.clock.recorder is NULL_RECORDER

    def test_untraced_train_records_nothing(self, tiny_dataset):
        system = make_system()
        system.load_data(tiny_dataset)
        net = system.build_model(n_conv_layers=2, filters=4, batch=16)
        result = system.train(net, iterations=1)
        assert result.completed  # no recorder anywhere to fill


class TestTable1FromTrace:
    @pytest.mark.slow
    def test_largest_fig7_split_matches_harness(self):
        """Acceptance: Table Ia split from span data alone, within 1%."""
        recorder = TraceRecorder()
        record = measure_model_size(
            "sgx-emlPM", 13, filters=512, recorder=recorder
        )
        breakdown = mirror_breakdown(recorder)

        save = record.pm_save
        harness_encrypt_pct = 100.0 * save.crypto_seconds / save.total
        restore = record.pm_restore
        harness_decrypt_pct = 100.0 * restore.crypto_seconds / restore.total

        assert breakdown["save_encrypt_pct"] == pytest.approx(
            harness_encrypt_pct, abs=1.0
        )
        assert breakdown["save_write_pct"] == pytest.approx(
            100.0 - harness_encrypt_pct, abs=1.0
        )
        assert breakdown["restore_decrypt_pct"] == pytest.approx(
            harness_decrypt_pct, abs=1.0
        )
        # Beyond-EPC regime: encryption dominates saves (paper: 92.3%).
        assert record.over_epc
        assert breakdown["save_encrypt_pct"] > 80.0
