"""Open-loop load generation for the secure inference gateway.

Drives :class:`~repro.serving.InferenceGateway` with a Poisson arrival
stream (open loop: arrival times are drawn up front and do not react to
service delays, the standard way to expose queueing latency) and
measures simulated latency percentiles and throughput.  Three
configurations run on identical arrivals:

* **sequential** — 1 replica, batch size 1: the seed repo's
  one-request-per-ecall service, the baseline;
* **batched** — 1 replica, the requested batch size: isolates the
  batch-amortization win (enclave entry + weight staging + AES key
  schedule paid once per batch);
* **scaled** — N replicas, the requested batch size: adds replica
  parallelism on top.

Everything is simulated time on the deterministic clock, so the same
seed produces bit-identical sealed responses and identical latency
numbers on any host.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.core.models import build_mnist_cnn
from repro.core.serving import InferenceClient
from repro.core.system import PliniusSystem
from repro.obs.hist import LogHistogram
from repro.serving import (
    AdmissionPolicy,
    BatchPolicy,
    InferenceGateway,
    ReplicaPool,
)

#: Gate enforced by ``benchmarks/check_wallclock_regression.py``:
#: batching at 16 must win at least this factor over sequential.
#: History: 3.0 with per-request forwards (amortized entry/crypto cost
#: only, measured 7.71x); raised past that once the compute core
#: batched its kernels and the once-per-batch ``forward_setup`` moved
#: out of the per-request constant (measured 9.63x at batch 16).
BATCH16_SPEEDUP_TARGET = 9.0

#: Scaling 1 -> N replicas at a fixed batch size must multiply
#: throughput by at least this factor (for N >= 2).
REPLICA_SCALING_TARGET = 1.5

#: Longest a partial batch waits for more requests (simulated seconds).
MAX_DELAY = 2e-3


@dataclass(frozen=True)
class ConfigResult:
    """Measured behaviour of one gateway configuration."""

    name: str
    replicas: int
    batch_max: int
    completed: int
    rejected: int
    batches: int
    redispatches: int
    #: completed / (last completion - first arrival), in sim req/s.
    throughput: float
    #: Latency quantiles from the mergeable log2-bucket histogram sketch
    #: (``repro.obs.hist.LogHistogram``) — each within one bucket
    #: (a factor of 2) of the exact order statistic, asserted by
    #: ``tests/test_serving_load.py``.
    p50_latency: float
    p99_latency: float
    p999_latency: float
    mean_latency: float
    sim_makespan: float
    #: sha256 over the sealed responses in request order — the
    #: determinism witness (same seed => same digest).
    responses_digest: str


@dataclass(frozen=True)
class ServingLoadReport:
    """Everything one ``run_serving_load`` produced."""

    server: str
    rate: float
    n_requests: int
    seed: int
    sequential: ConfigResult
    batched: ConfigResult
    scaled: ConfigResult

    @property
    def batch_speedup(self) -> float:
        """Throughput win of batching alone (1 replica)."""
        return self.batched.throughput / self.sequential.throughput

    @property
    def replica_scaling(self) -> float:
        """Throughput win of going 1 -> N replicas at fixed batch."""
        return self.scaled.throughput / self.batched.throughput

    @property
    def total_speedup(self) -> float:
        """The headline number: scaled config over the sequential seed."""
        return self.scaled.throughput / self.sequential.throughput

    def to_dict(self) -> dict:
        """BENCH_wallclock.json-style payload for the regression gate."""
        return {
            "schema": "plinius-serving-load/1",
            "server": self.server,
            "rate": self.rate,
            "n_requests": self.n_requests,
            "seed": self.seed,
            "configs": [
                {
                    "name": c.name,
                    "replicas": c.replicas,
                    "batch_max": c.batch_max,
                    "completed": c.completed,
                    "rejected": c.rejected,
                    "batches": c.batches,
                    "redispatches": c.redispatches,
                    "throughput_rps": c.throughput,
                    "p50_latency_s": c.p50_latency,
                    "p99_latency_s": c.p99_latency,
                    "p999_latency_s": c.p999_latency,
                    "mean_latency_s": c.mean_latency,
                    "sim_makespan_s": c.sim_makespan,
                    "responses_digest": c.responses_digest,
                }
                for c in (self.sequential, self.batched, self.scaled)
            ],
            "criteria": {
                "batch_speedup": self.batch_speedup,
                "batch_speedup_target": BATCH16_SPEEDUP_TARGET,
                "replica_scaling": self.replica_scaling,
                "replica_scaling_target": (
                    REPLICA_SCALING_TARGET
                    if self.scaled.replicas > 1
                    else 1.0
                ),
                "total_speedup": self.total_speedup,
            },
        }


def _arrivals(rate: float, n_requests: int, seed: int) -> np.ndarray:
    """Open-loop Poisson arrival times (exponential inter-arrivals)."""
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / rate, size=n_requests))


def _run_config(
    name: str,
    server: str,
    replicas: int,
    batch_max: int,
    arrivals: np.ndarray,
    images: np.ndarray,
    seed: int,
    max_queue_depth: int,
    n_sessions: int = 2,
    session_base: int = 0,
) -> ConfigResult:
    """Stand up a fresh deployment and drain one arrival stream.

    ``session_base`` offsets the session ids so that each configuration
    owns a disjoint id range: trace ids are minted as
    ``f(session, seq)``, so disjoint sessions keep the causal trees of
    the three configurations separate in a ``--trace`` run — one tree
    per request, not one tree per (seq, config-collision).
    """
    system = PliniusSystem.create(server=server, seed=seed, pm_size=8 << 20)

    def factory():
        return build_mnist_cnn(
            n_conv_layers=1, filters=4, batch=16,
            rng=np.random.default_rng(seed),
        )

    net = factory()
    system.mirror.alloc_mirror_model(net)
    system.mirror.mirror_out(net, 1)

    pool = ReplicaPool(
        system.mirror,
        system.quoting_enclave,
        system.clock,
        system.profile,
        factory,
        n_replicas=replicas,
    )
    gateway = InferenceGateway(
        pool,
        system.clock,
        BatchPolicy(max_requests=batch_max, max_delay=MAX_DELAY),
        AdmissionPolicy(max_queue_depth=max_queue_depth),
    )
    clients: Dict[int, InferenceClient] = {}
    for sid in range(session_base + 1, session_base + n_sessions + 1):
        client = InferenceClient(pool.measurement, seed=sid)
        pool.open_session(client, sid)
        clients[sid] = client

    base = system.clock.now()
    for index in range(len(arrivals)):
        client = clients[session_base + 1 + index % n_sessions]
        seq, sealed = client.seal_request_seq(images[index : index + 1])
        gateway.submit(
            client.session_id, seq, sealed, 1,
            at=base + float(arrivals[index]),
        )
    result = gateway.run()

    latencies = result.latencies()
    hist = LogHistogram()
    hist.record_many(latencies)
    records = sorted(result.responses.values(), key=lambda r: r.request_id)
    first_arrival = base + float(arrivals[0])
    last_completion = max((r.completed for r in records), default=first_arrival)
    makespan = max(last_completion - first_arrival, 1e-12)
    digest = hashlib.sha256()
    for record in records:
        digest.update(record.sealed)
    return ConfigResult(
        name=name,
        replicas=replicas,
        batch_max=batch_max,
        completed=len(records),
        rejected=len(result.rejected),
        batches=len(result.batches),
        redispatches=result.redispatches,
        throughput=len(records) / makespan,
        p50_latency=hist.quantile(0.5) if latencies else 0.0,
        p99_latency=hist.quantile(0.99) if latencies else 0.0,
        p999_latency=hist.quantile(0.999) if latencies else 0.0,
        mean_latency=hist.mean() if latencies else 0.0,
        sim_makespan=makespan,
        responses_digest=digest.hexdigest(),
    )


def run_serving_load(
    server: str = "emlSGX-PM",
    replicas: int = 4,
    batch_max: int = 16,
    rate: float = 50_000.0,
    n_requests: int = 256,
    seed: int = 11,
    max_queue_depth: int = 0,
) -> ServingLoadReport:
    """Run the three-configuration load comparison.

    ``max_queue_depth`` of 0 means "never reject" (depth =
    ``n_requests``), so the throughput comparison is over identical
    request sets; pass a small depth to study admission control.
    """
    arrivals = _arrivals(rate, n_requests, seed)
    rng = np.random.default_rng(seed + 1)
    images = rng.random((n_requests, 1, 28, 28), dtype=np.float32)
    depth = max_queue_depth if max_queue_depth > 0 else n_requests
    common = dict(
        server=server,
        arrivals=arrivals,
        images=images,
        seed=seed,
        max_queue_depth=depth,
    )
    sequential = _run_config(
        "sequential", replicas=1, batch_max=1, session_base=0, **common
    )
    batched = _run_config(
        "batched", replicas=1, batch_max=batch_max, session_base=100,
        **common
    )
    scaled = _run_config(
        "scaled", replicas=replicas, batch_max=batch_max, session_base=200,
        **common
    )
    return ServingLoadReport(
        server=server,
        rate=rate,
        n_requests=n_requests,
        seed=seed,
        sequential=sequential,
        batched=batched,
        scaled=scaled,
    )


def render_text(report: ServingLoadReport) -> List[str]:
    """Paper-style text table lines for the CLI."""
    from repro.bench.results import format_table

    rows = []
    for c in (report.sequential, report.batched, report.scaled):
        rows.append(
            [
                c.name,
                f"{c.replicas}x{c.batch_max}",
                str(c.completed),
                str(c.rejected),
                str(c.batches),
                f"{c.throughput:,.0f}",
                f"{c.p50_latency * 1e3:.3f}",
                f"{c.p99_latency * 1e3:.3f}",
                f"{c.p999_latency * 1e3:.3f}",
            ]
        )
    table = format_table(
        ["config", "repl x batch", "done", "rej", "batches",
         "rps (sim)", "p50 ms", "p99 ms", "p999 ms"],
        rows,
    )
    lines = table.splitlines()
    lines.append(
        f"batch speedup {report.batch_speedup:.2f}x "
        f"(target >= {BATCH16_SPEEDUP_TARGET:.1f}x at batch 16), "
        f"replica scaling {report.replica_scaling:.2f}x, "
        f"total {report.total_speedup:.2f}x"
    )
    return lines
