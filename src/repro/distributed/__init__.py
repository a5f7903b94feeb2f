"""Distributed Plinius: training across multiple secure enclaves.

The paper's stated future work (Sections VI and VIII): "A possible
strategy to overcome the EPC limitation could be to distribute the
training job over multiple secure CPUs.  We will explore this idea in
the future."  This package implements that exploration on the simulated
substrate, preserving the Plinius security and fault-tolerance story
end to end:

* **Pipeline (model-sharded) training** (:mod:`repro.distributed.pipeline`)
  — the model's layers are partitioned into stages, each living in its
  *own enclave with its own PM region and encrypted mirror*.  Per-enclave
  working sets drop below the usable EPC, eliminating the page-swap
  penalty that dominates beyond ~78 MB models (Table I shaded rows).
  Activations and deltas cross enclave boundaries as AES-GCM-sealed
  messages over simulated NIC links.

* **Data-parallel training** (:mod:`repro.distributed.data_parallel`)
  — full replicas train on batch shards; gradients are sealed, exchanged
  and averaged (with equal shards this is mathematically identical to
  single-worker large-batch SGD, which the tests check bit-for-bit for
  batchnorm-free models).  Workers crash and resume independently from
  their own PM mirrors.

Both modes mirror every stage/replica each iteration, so any subset of
workers can be killed at any iteration boundary and training resumes
exactly where it left off.
"""

from repro.distributed.link import NetworkLink, SecureLink
from repro.distributed.worker import StageWorker
from repro.distributed.pipeline import PipelinePlinius, split_layer_counts
from repro.distributed.data_parallel import DataParallelPlinius

__all__ = [
    "NetworkLink",
    "SecureLink",
    "StageWorker",
    "PipelinePlinius",
    "split_layer_counts",
    "DataParallelPlinius",
]
