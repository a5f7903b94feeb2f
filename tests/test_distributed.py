"""Distributed Plinius: links, pipeline sharding, data parallelism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.backend import IntegrityError
from repro.crypto.engine import EncryptionEngine
from repro.darknet.weights import save_weights
from repro.data import synthetic_mnist, to_data_matrix
from repro.distributed import (
    DataParallelPlinius,
    PipelinePlinius,
    SecureLink,
    split_layer_counts,
)
from repro.sgx.rand import SgxRandom
from repro.simtime.clock import SimClock


@pytest.fixture(scope="module")
def dataset():
    images, labels, _, _ = synthetic_mnist(256, 1, seed=3)
    return to_data_matrix(images, labels)


class TestSecureLink:
    def make(self) -> SecureLink:
        engine = EncryptionEngine(b"k" * 16, rand=SgxRandom(b"l"))
        return SecureLink(engine, SimClock())

    def test_tensor_roundtrip(self):
        link = self.make()
        tensor = np.random.default_rng(0).normal(size=(4, 3, 5)).astype(
            np.float32
        )
        out = link.transfer(tensor)
        np.testing.assert_array_equal(out, tensor)
        assert out.shape == tensor.shape

    def test_wire_is_ciphertext(self):
        link = self.make()
        tensor = np.arange(64, dtype=np.float32).reshape(8, 8)
        message = link.send_array(tensor)
        assert tensor.tobytes()[:24] not in message

    def test_tamper_in_flight_detected(self):
        link = self.make()
        message = bytearray(link.send_array(np.ones((4, 4), np.float32)))
        message[10] ^= 0x80
        with pytest.raises(IntegrityError):
            link.receive_array(bytes(message))

    def test_cost_charged(self):
        link = self.make()
        link.transfer(np.zeros((64, 64), np.float32))
        assert link.clock.now() > 0
        assert link.stats["messages"] == 1

    def test_peer_with_other_key_cannot_read(self):
        link = self.make()
        message = link.send_array(np.ones((2, 2), np.float32))
        other = SecureLink(EncryptionEngine(b"X" * 16), SimClock())
        with pytest.raises(IntegrityError):
            other.receive_array(message)


class TestSplitLayerCounts:
    def test_even_split(self):
        assert split_layer_counts(8, 2) == [4, 4]

    def test_uneven_split_front_loads(self):
        assert split_layer_counts(7, 3) == [3, 2, 2]

    def test_degenerate(self):
        assert split_layer_counts(5, 1) == [5]
        assert split_layer_counts(3, 3) == [1, 1, 1]

    def test_invalid(self):
        with pytest.raises(ValueError):
            split_layer_counts(2, 3)
        with pytest.raises(ValueError):
            split_layer_counts(2, 0)


class TestPipeline:
    def make(self, dataset, n_stages=2):
        return PipelinePlinius(
            dataset,
            n_conv_layers=4,
            n_stages=n_stages,
            filters=4,
            batch=16,
        )

    def test_stages_partition_the_model(self, dataset):
        pipe = self.make(dataset, n_stages=3)
        # conv(4) + 2 maxpools + connected + softmax = 8 layers total.
        assert sum(len(w.network.layers) for w in pipe.workers) == 8
        assert pipe.workers[-1].network.layers[-1].kind == "softmax"

    def test_training_reduces_loss(self, dataset):
        pipe = self.make(dataset)
        result = pipe.train(30)
        assert result.final_iteration == 30
        assert np.mean(result.log.losses[-5:]) < result.log.losses[0]

    @staticmethod
    def _parameter_bytes(pipe) -> bytes:
        return b"".join(
            np.ascontiguousarray(buf, np.float32).tobytes()
            for w in pipe.workers
            for layer in w.network.layers
            for _, buf in layer.parameter_buffers()
        )

    def test_sharded_equals_single_stage_without_momentum(self, dataset):
        """Pipeline partitioning must not change the math: a 1-stage and
        a 2-stage run produce bit-identical parameters (momentum-free)."""
        runs = []
        for n_stages in (1, 2):
            pipe = self.make(dataset, n_stages=n_stages)
            for w in pipe.workers:
                w.network.momentum = 0.0
            pipe.train(5)
            runs.append(self._parameter_bytes(pipe))
        assert runs[0] == runs[1]

    def test_kill_and_resume_all_stages(self, dataset):
        pipe = self.make(dataset)
        pipe.train(6)
        pre = [save_weights(w.network) for w in pipe.workers]
        pipe.kill_workers([0, 1])
        pipe.resume_workers([0, 1])
        post = [save_weights(w.network) for w in pipe.workers]
        assert pre == post

    def test_kill_single_stage(self, dataset):
        pipe = self.make(dataset)
        pipe.train(4)
        pre = save_weights(pipe.workers[1].network)
        pipe.kill_workers([1])
        with pytest.raises(RuntimeError, match="destroyed"):
            pipe.workers[1].forward(np.zeros((1, 4, 7, 7), np.float32))
        pipe.resume_workers([1])
        assert save_weights(pipe.workers[1].network) == pre
        result = pipe.train(8)  # continues fine
        assert result.final_iteration == 8

    def test_resume_detects_desync(self, dataset):
        pipe = self.make(dataset)
        pipe.train(4)
        pipe.kill_workers([0])
        pipe.iteration = 99  # simulate a confused coordinator
        with pytest.raises(RuntimeError, match="do not match"):
            pipe.resume_workers([0])

    def test_activations_sealed_between_stages(self, dataset):
        pipe = self.make(dataset)
        pipe.train(2)
        assert all(link.stats["messages"] > 0 for link in pipe.links)

    def test_kill_hook(self, dataset):
        pipe = self.make(dataset)
        result = pipe.train(50, kill_hook=lambda it: it >= 3)
        assert result.final_iteration == 3


class TestDataParallel:
    def make(self, dataset, n_workers=2, filters=4, n_conv=2, batch=16):
        return DataParallelPlinius(
            dataset,
            n_workers=n_workers,
            n_conv_layers=n_conv,
            filters=filters,
            batch=batch,
        )

    def test_shards_are_disjoint_and_equal(self, dataset):
        dp = self.make(dataset, n_workers=4)
        sizes = [m.num_rows for m in dp.pm_data]
        assert len(set(sizes)) == 1
        assert sum(sizes) == (len(dataset) // 4) * 4

    def test_batch_must_divide(self, dataset):
        with pytest.raises(ValueError, match="divide"):
            self.make(dataset, n_workers=3, batch=16)

    def test_training_reduces_loss(self, dataset):
        dp = self.make(dataset)
        result = dp.train(25)
        assert np.mean(result.log.losses[-5:]) < result.log.losses[0]

    def test_replicas_stay_synchronized(self, dataset):
        """Trainable parameters stay identical across replicas (the
        batchnorm *rolling statistics* legitimately differ — each
        replica tracks its own shard's batch stats)."""
        dp = self.make(dataset)
        dp.train(5)
        trainables = [
            b"".join(
                np.ascontiguousarray(p, np.float32).tobytes()
                for layer in w.network.layers
                for p, _ in layer.trainable()
            )
            for w in dp.workers
        ]
        assert len(set(trainables)) == 1

    def test_equivalence_to_single_worker_bn_free(self, dataset):
        """W workers at batch B/W match 1 worker at batch B (numerically,
        up to float32 summation order) for batchnorm-free zero-momentum
        models seeing the same global rows."""
        from repro.darknet.cfg import build_network, parse_cfg

        cfg_text = (
            "[net]\nbatch=16\nlearning_rate=0.05\nmomentum=0\ndecay=0\n"
            "height=28\nwidth=28\nchannels=1\n"
            "[connected]\noutput=10\nactivation=linear\n[softmax]\n"
        )

        def builder(rng):
            return build_network(parse_cfg(cfg_text), rng)

        weights = {}
        for n_workers in (1, 2):
            dp = DataParallelPlinius(
                dataset, n_workers=n_workers, builder=builder, batch=16
            )
            # Fixed batches: every worker always trains on the first
            # shard_batch rows of its shard.  With round-robin sharding
            # the union of those rows is the same global multiset for
            # both configurations.
            for module in dp.pm_data:
                first_rows = np.arange(dp.shard_batch)

                def fixed(batch, rng, m=module, rows=first_rows):
                    return m.fetch_batch(rows)

                module.random_batch = fixed
            dp.train(4)
            weights[n_workers] = dp.workers[0].network.layers[0].weights.copy()
        np.testing.assert_allclose(
            weights[1], weights[2], rtol=1e-4, atol=1e-6
        )

    def test_kill_one_replica_and_resume(self, dataset):
        dp = self.make(dataset)
        dp.train(6)
        pre_kill = save_weights(dp.workers[1].network)
        dp.kill_workers([1])
        dp.resume_workers([1])
        assert save_weights(dp.workers[1].network) == pre_kill
        result = dp.train(10)
        assert result.final_iteration == 10

    def test_comm_time_accounted(self, dataset):
        dp = self.make(dataset)
        result = dp.train(3)
        assert result.comm_seconds > 0
        assert result.compute_seconds > 0
        assert result.sim_seconds == pytest.approx(
            result.comm_seconds + result.compute_seconds
        )

    def test_more_workers_less_compute_time(self, dataset):
        """The scaling argument: per-step compute shrinks with workers."""
        times = {}
        for n_workers in (1, 4):
            dp = self.make(dataset, n_workers=n_workers, batch=32)
            result = dp.train(3)
            times[n_workers] = result.compute_seconds
        assert times[4] < times[1]
