"""The simulated-cluster substrate.

One deterministic runtime for every multi-component scenario in the
repo: named hosts owning their own PM/SSD/enclave stacks, a network
model with per-link latency/bandwidth and first-class partition/heal,
and a single event loop on the shared sim clock.  The inference
gateway, the distributed stage workers, and the fault explorer's
workloads all run on it — see ``docs/cluster.md``.
"""

from repro.cluster.fabric import ServingFabric
from repro.cluster.host import Host
from repro.cluster.loop import EventLoop
from repro.cluster.network import (
    PARTITION_REPAIR_DELAY,
    ClusterNetwork,
    NetLink,
)
from repro.cluster.runtime import Cluster

__all__ = [
    "PARTITION_REPAIR_DELAY",
    "Cluster",
    "ClusterNetwork",
    "EventLoop",
    "Host",
    "NetLink",
    "ServingFabric",
]
