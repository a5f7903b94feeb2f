"""Distributed Plinius: multiple enclaves, one training job.

Demonstrates the paper's future-work direction implemented in
``repro.distributed``:

* pipeline sharding — a model too large for one EPC split across two
  enclaves, each with its own encrypted PM mirror;
* data parallelism — replicas averaging sealed gradients, surviving the
  loss of a single worker.

Run:  python examples/distributed_training.py
"""

from __future__ import annotations

from repro.data import synthetic_mnist, to_data_matrix
from repro.distributed import DataParallelPlinius, PipelinePlinius


def main() -> None:
    images, labels, _, _ = synthetic_mnist(512, 1, seed=13)
    data = to_data_matrix(images, labels)

    print("== pipeline (model-sharded) training ==")
    pipe = PipelinePlinius(
        data, n_conv_layers=6, n_stages=3, filters=8, batch=32,
    )
    for idx, worker in enumerate(pipe.workers):
        print(f"stage {idx}: {len(worker.network.layers)} layers, "
              f"{worker.network.param_bytes / 1e6:.2f} MB in its enclave, "
              f"over EPC: {worker.over_epc}")
    result = pipe.train(40)
    print(f"trained to iteration {result.final_iteration}, "
          f"loss {result.log.losses[0]:.3f} -> {result.log.final_loss:.3f}")
    transfers = sum(link.stats["messages"] for link in pipe.links)
    print(f"sealed inter-enclave transfers: {transfers}")

    print("\nkilling stage 1's machine...")
    pipe.kill_workers([1])
    pipe.resume_workers([1])
    result = pipe.train(60)
    print(f"stage 1 recovered from its own PM mirror; "
          f"continued to iteration {result.final_iteration}, "
          f"loss {result.log.final_loss:.3f}")

    print("\n== data-parallel training (4 replicas) ==")
    dp = DataParallelPlinius(
        data, n_workers=4, n_conv_layers=3, filters=8, batch=32,
    )
    result = dp.train(30)
    print(f"loss {result.log.losses[0]:.3f} -> {result.log.final_loss:.3f}; "
          f"per-iteration compute {1e3 * result.compute_seconds / 30:.2f} ms "
          f"+ sealed allreduce {1e3 * result.comm_seconds / 30:.3f} ms")

    print("killing replica 2 and resuming it from its mirror...")
    dp.kill_workers([2])
    dp.resume_workers([2])
    result = dp.train(40)
    print(f"continued to iteration {result.final_iteration}, "
          f"loss {result.log.final_loss:.3f} — replicas back in sync")


if __name__ == "__main__":
    main()
