"""The enclave replica pool: N attested services on one PM mirror.

Each replica is its own enclave instance running the same service build
(same measurement), loading the served model from the shared encrypted
PM mirror.  The pool owns the *generation* state machine for hot model
reload: the trainer keeps mirroring new weights to PM; the gateway
publishes the newest ``has_snapshot()`` generation; and each replica
atomically swaps onto it **between batches** — a reload never preempts
an in-flight batch, so no request is served by a half-updated model.

Fault sites (see :mod:`repro.faults.registry`):

* ``serve.dispatch`` — checked by the gateway at batch entry;
* ``serve.reload`` — checked here before a replica's ``mirror_in``
  swap, modelling a replica dying between two model generations.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.serving import SecureInferenceService
from repro.darknet.network import Network
from repro.faults import plan as faultplan
from repro.sgx.attestation import InferenceSession, QuotingEnclave
from repro.sgx.enclave import Enclave
from repro.simtime.clock import SimClock
from repro.simtime.profiles import ServerProfile


class ServingReplica:
    """One enclave replica plus its scheduling state."""

    def __init__(
        self, index: int, service: SecureInferenceService, generation: int
    ) -> None:
        self.index = index
        self.service = service
        self.generation = generation
        self.healthy = True
        self.busy = False
        #: The batch currently inside the enclave (``None`` when idle);
        #: requeued by the gateway if the replica dies mid-batch.
        self.inflight: Optional[Any] = None
        #: Bumped on every crash; completions carrying a stale epoch are
        #: from a dead incarnation and must be discarded.
        self.epoch = 0

    @property
    def enclave(self) -> Enclave:
        return self.service.enclave

    @property
    def network(self) -> Network:
        return self.service.network


class ReplicaPool:
    """N service replicas over one mirror, with hot-reload generations."""

    def __init__(
        self,
        mirror,
        quoting_enclave: QuotingEnclave,
        clock: SimClock,
        profile: ServerProfile,
        network_factory: Callable[[], Network],
        n_replicas: int,
    ) -> None:
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
        if not mirror.has_snapshot():
            raise RuntimeError(
                "the PM mirror holds no committed model generation; "
                "mirror_out one before standing up the pool"
            )
        self.mirror = mirror
        self.quoting_enclave = quoting_enclave
        self.clock = clock
        self.profile = profile
        self.network_factory = network_factory
        self._sessions: Dict[int, InferenceSession] = {}
        #: Newest generation the gateway has published for serving.
        self.target_generation = mirror.stored_iteration()
        self.replicas: List[ServingReplica] = []
        for index in range(n_replicas):
            self.replicas.append(self._spawn(index))

    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> ServingReplica:
        """Build one replica: fresh enclave, model loaded from PM."""
        enclave = Enclave(self.clock, self.profile.sgx)
        service = SecureInferenceService.from_mirror(
            self.mirror,
            self.network_factory(),
            enclave,
            self.quoting_enclave,
        )
        for session in self._sessions.values():
            service.install_session(session)
        return ServingReplica(index, service, self.mirror.stored_iteration())

    @property
    def measurement(self) -> bytes:
        """The common build measurement clients attest against."""
        return self.replicas[0].enclave.measurement

    def healthy_replicas(self) -> List[ServingReplica]:
        return [r for r in self.replicas if r.healthy]

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def open_session(self, client, session_id: int) -> None:
        """Attest ``client`` against the pool; provision all replicas.

        The first healthy replica runs the in-enclave side of the
        handshake; the resulting session state is then provisioned to
        every peer (replicas share a measurement, so the key transfer is
        enclave-to-enclave).  Replicas spawned later — including repairs
        after a crash — receive all existing sessions at spawn.
        """
        healthy = self.healthy_replicas()
        if not healthy:
            raise RuntimeError("no healthy replica to attest against")
        session = healthy[0].service.open_session(client, session_id)
        self._sessions[session_id] = session
        for replica in self.replicas:
            if replica is not healthy[0]:
                replica.service.install_session(session)

    # ------------------------------------------------------------------
    # Hot reload
    # ------------------------------------------------------------------
    def publish_generation(self) -> int:
        """Adopt the mirror's newest committed snapshot as the target."""
        stored = self.mirror.stored_iteration()
        if stored > self.target_generation:
            self.target_generation = stored
        return self.target_generation

    def maybe_reload(self, replica: ServingReplica) -> bool:
        """Swap ``replica`` onto the target generation if it's behind.

        Called by the gateway only while the replica has no batch in
        flight, which is what makes the swap atomic w.r.t. serving.
        """
        if replica.generation >= self.target_generation:
            return False
        active = faultplan.ACTIVE
        if active.enabled:
            active.check("serve.reload")
        recorder = self.clock.recorder
        started = self.clock.now()
        old_generation = replica.generation
        self.mirror.mirror_in(replica.network)
        replica.generation = self.mirror.stored_iteration()
        if recorder.enabled:
            span = recorder.begin(
                "serve.reload",
                started,
                category="serve",
                args={
                    "replica": replica.index,
                    "from_generation": old_generation,
                    "to_generation": replica.generation,
                },
                parent=None,
            )
            recorder.end(span, self.clock.now())
            recorder.observe("serve.reload", self.clock.now() - started)
        return True

    # ------------------------------------------------------------------
    # Crash / repair
    # ------------------------------------------------------------------
    def crash(self, index: int) -> ServingReplica:
        """Kill one replica: its enclave (and volatile model) dies."""
        replica = self.replicas[index]
        replica.healthy = False
        replica.busy = False
        replica.epoch += 1
        if not replica.enclave.destroyed:
            replica.enclave.destroy()
        recorder = self.clock.recorder
        if recorder.enabled:
            recorder.instant(
                "serve.replica_crash",
                self.clock.now(),
                category="serve",
                args={"replica": index, "epoch": replica.epoch},
            )
            recorder.count("serve.replica_crashes")
        return replica

    def repair(self, index: int) -> ServingReplica:
        """Respawn a crashed replica from the PM mirror.

        The fresh enclave loads whatever generation the mirror stores
        *now* — necessarily >= the one the dead incarnation served, so
        per-replica generations stay monotone across crashes.
        """
        old = self.replicas[index]
        fresh = self._spawn(index)
        fresh.epoch = old.epoch
        self.replicas[index] = fresh
        recorder = self.clock.recorder
        if recorder.enabled:
            recorder.instant(
                "serve.replica_repair",
                self.clock.now(),
                category="serve",
                args={"replica": index, "generation": fresh.generation},
            )
            recorder.count("serve.replica_repairs")
        return fresh
