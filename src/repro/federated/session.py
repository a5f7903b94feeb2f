"""Durable federation identity: hosts, keys, shards across reboots.

A :class:`FederatedSession` is the part of a federation that *survives*
an aggregator crash: the cluster topology (one ``aggregator`` host
owning the PM region, N ``client-i`` hosts in a star around it), the
seeded key material, and the fixed shard pool.  :meth:`boot` rebuilds
everything volatile — enclaves, quoting enclave, mutually attested
sessions, clients, the coordinator — from the same seeds, so a reboot
reconstructs byte-identical channel keys and the coordinator resumes
from whatever round the durable ledger holds.

The shard pool always has :data:`~repro.federated.shards.POOL_CAPACITY`
entries regardless of ``n_clients``: shard contents depend only on the
federation seed and the client id, never on who else joined, which is
the property the byzantine honest-subset equality tests lean on.
"""
# repro: noqa-file[SEC002] -- session assembly draws enclave-side seeded
# randomness to rebuild deterministic attested channels on every boot,
# exactly like the fault workloads' machine builders.

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.cluster.runtime import Cluster
from repro.core.models import build_mnist_cnn
from repro.crypto.engine import EncryptionEngine
from repro.federated.aggregate import flatten_params
from repro.federated.client import FederatedClient
from repro.federated.coordinator import (
    DEFAULT_ROUND_DEADLINE,
    FederatedCoordinator,
)
from repro.federated.ledger import FederatedLedger
from repro.federated.shards import make_shards
from repro.romulus.alloc import PersistentHeap
from repro.romulus.region import HEADER_SIZE, MAGIC
from repro.sgx.attestation import QuotingEnclave, establish_mutual_session
from repro.sgx.rand import SgxRandom
from repro.simtime.clock import SimClock
from repro.simtime.profiles import get_profile


@dataclass
class FederationConfig:
    """Shape of one federation (everything needed to rebuild it)."""

    n_clients: int = 3
    rounds: int = 2
    local_steps: int = 2
    batch: int = 4
    rows_per_client: int = 8
    server: str = "emlSGX-PM"
    pm_size: int = 1 << 20
    seed: int = 4242
    quorum: Optional[int] = None  #: default: majority of n_clients
    round_deadline: float = DEFAULT_ROUND_DEADLINE
    #: Per-client byzantine knobs forwarded to FederatedClient, e.g.
    #: ``{2: {"tamper": flip_fn}}``; empty for an honest federation.
    knobs: Dict[int, dict] = field(default_factory=dict)


class FederatedSession:
    """One federation's durable half plus its per-boot rebuild recipe."""

    def __init__(self, config: FederationConfig) -> None:
        self.config = config
        self.profile = get_profile(config.server)
        self.clock = SimClock()
        self.cluster = Cluster(self.clock)
        self.host = self.cluster.add_host(
            "aggregator", self.profile, pm_size=config.pm_size
        )
        self.client_hosts = []
        for cid in range(config.n_clients):
            name = f"client-{cid}"
            self.cluster.add_host(name, self.profile)
            self.client_hosts.append(name)
        self.cluster.connect_star("aggregator", *self.client_hosts)
        self.ledger_key = hashlib.sha256(
            b"fed-ledger-key-" + config.seed.to_bytes(4, "big")
        ).digest()[:16]
        self.shards = make_shards(config.seed, config.rows_per_client)
        #: Hooks the owner (workload / bench) installs before boot.
        self.on_note: Optional[Callable] = None
        self.on_ack: Optional[Callable] = None
        # Volatile, rebuilt by every boot:
        self.coordinator: Optional[FederatedCoordinator] = None
        self.ledger: Optional[FederatedLedger] = None
        self.clients: Dict[int, FederatedClient] = {}

    # ------------------------------------------------------------------
    def builder(self):
        """The shared model architecture, seeded identically everywhere."""
        net = build_mnist_cnn(
            n_conv_layers=1,
            filters=2,
            batch=self.config.batch,
            rng=np.random.default_rng(self.config.seed),
        )
        # Momentum state is volatile; off for bit-identical resume (the
        # same contract the crashtest train workload documents).
        net.momentum = 0.0
        return net

    def initial_params(self) -> np.ndarray:
        return flatten_params(self.builder())

    def attach_region(self):
        """Default region attach: open-and-recover or first-boot format."""
        if self.host.pm.read(0, 8) == MAGIC:
            return self.host.open_region()
        main_size = (self.host.pm.size - HEADER_SIZE) // 2
        return self.host.format_region(main_size)

    # ------------------------------------------------------------------
    def boot(self, region=None) -> FederatedCoordinator:
        """Rebuild the volatile tier; resume from the durable ledger.

        ``region`` lets the crashtest workload attach (and invariant-
        check) the region itself; the bench path leaves it None.
        The cluster's event loop must already be up (``cluster.boot``).
        """
        cfg = self.config
        if region is None:
            region = self.attach_region()
        heap = PersistentHeap(region)
        engine = EncryptionEngine(
            self.ledger_key,
            rand=SgxRandom(b"fed-ledger-" + cfg.seed.to_bytes(4, "big")),
            observer=self.clock.recorder,
        )
        ledger = FederatedLedger(region, heap, engine)
        if not ledger.exists():
            ledger.format()

        agg_enclave = self.host.spawn_enclave()
        qe = QuotingEnclave(b"fed-platform")
        sessions: Dict[int, object] = {}
        clients: Dict[int, FederatedClient] = {}
        for cid in range(cfg.n_clients):
            client_enclave = self.cluster.host(
                self.client_hosts[cid]
            ).spawn_enclave()
            owner_session, agg_session = establish_mutual_session(
                client_enclave,
                agg_enclave,
                qe,
                expected_client_measurement=client_enclave.measurement,
                expected_aggregator_measurement=agg_enclave.measurement,
                rand_client=SgxRandom(
                    b"fed-client-" + cid.to_bytes(4, "big")
                    + cfg.seed.to_bytes(4, "big")
                ),
                rand_aggregator=SgxRandom(
                    b"fed-agg-" + cid.to_bytes(4, "big")
                    + cfg.seed.to_bytes(4, "big")
                ),
                session_id=cid + 1,
            )
            sessions[cid] = agg_session
            clients[cid] = FederatedClient(
                cid,
                host=self.client_hosts[cid],
                session=owner_session,
                builder=self.builder,
                shard=self.shards[cid],
                local_steps=cfg.local_steps,
                batch=cfg.batch,
                seed=cfg.seed,
                clock=self.clock,
                **cfg.knobs.get(cid, {}),
            )

        self.coordinator = FederatedCoordinator(
            self.clock,
            self.cluster.network,
            ledger,
            sessions,
            clients,
            self.initial_params(),
            quorum=cfg.quorum,
            round_deadline=cfg.round_deadline,
            recorder=self.clock.recorder,
            on_note=self.on_note,
            on_ack=self.on_ack,
        )
        self.ledger = ledger
        self.clients = clients
        return self.coordinator

    # ------------------------------------------------------------------
    def run(self, rounds: Optional[int] = None) -> list:
        """Boot once and drive all remaining rounds (bench/CLI path)."""
        total = rounds if rounds is not None else self.config.rounds
        self.cluster.boot()
        self.host.barrier()
        coordinator = self.boot()
        results = []
        start = coordinator.ledger.committed_round()
        for round_no in range(start + 1, total + 1):
            self.host.barrier()
            results.append(coordinator.run_round(round_no))
        return results
