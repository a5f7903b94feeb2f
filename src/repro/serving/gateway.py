"""The event-driven secure inference gateway (deterministic scheduler).

A discrete-event simulation on the deployment's single
:class:`~repro.simtime.clock.SimClock`: arrivals, batch deadlines,
batch completions, replica crash/repair, and hot-reload publications
are all events on one arrival-time priority queue, popped in
``(sim time, insertion order)`` order.  Everything downstream —
batch composition, replica choice, service times, response bytes — is
a deterministic function of the submitted requests and the cost
models, so the same seed yields bit-identical sealed responses and an
identical sim trace.

Scheduling loop per event:

1. advance the clock to the event time (never backwards — a reload's
   ``mirror_in`` may have pushed global time past a pending
   completion, which then simply completes "late");
2. handle the event (admit/queue an arrival, deliver a completed
   batch, crash/repair a replica, publish a new model generation);
3. dispatch ready batches to free healthy replicas, hot-reloading a
   replica first if it is behind the published generation.

Failure handling: a replica that dies mid-batch (``crash``) has its
in-flight requests requeued at their original arrival positions and
redispatched **exactly once** — response nonces are derived from
``(session, seq)``, so the redispatched replies are byte-identical and
no client can observe a duplicate.  A transient dispatch failure
(``serve.dispatch`` ABORT, modelling an ecall error return) retries the
batch on the next healthy replica under the same exactly-once rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cluster.fabric import ServingFabric
from repro.cluster.loop import EventLoop
from repro.cluster.runtime import get_active_cluster
from repro.crypto.engine import SEAL_OVERHEAD
from repro.faults import plan as faultplan
from repro.faults.plan import InjectedEcallAbort, InjectedLinkDrop
from repro.obs.context import trace_id_of
from repro.serving.admission import AdmissionController, AdmissionPolicy
from repro.serving.batcher import (
    Batcher,
    BatchPolicy,
    PendingRequest,
    RequestQueue,
)
from repro.serving.replica_pool import ReplicaPool, ServingReplica
from repro.simtime.clock import SimClock

#: ``Network.flops`` counts a full training step (forward + backward +
#: update); serving runs the forward pass only.
FORWARD_FLOPS_FRACTION = 1.0 / 3.0

#: A batch may be dispatched at most twice (original + one redispatch);
#: a second failure for the same requests is fatal, never silent.
MAX_DISPATCH_ATTEMPTS = 2

#: Recorder sim-lane ids for per-replica batch spans (crypto workers
#: use 100+k; serving replicas get their own band).
REPLICA_LANE_BASE = 200


@dataclass
class ResponseRecord:
    """One delivered sealed reply plus its latency accounting."""

    request_id: int
    session_id: int
    seq: int
    sealed: bytes
    arrival: float
    completed: float
    replica: int
    generation: int
    batch_id: int

    @property
    def latency(self) -> float:
        return self.completed - self.arrival


@dataclass
class BatchRecord:
    """One dispatched batch's lifecycle."""

    batch_id: int
    replica: int
    generation: int
    n_requests: int
    n_samples: int
    dispatched_at: float
    completed_at: Optional[float] = None
    attempts: int = 1


@dataclass
class GatewayResult:
    """Everything one :meth:`InferenceGateway.run` drain produced."""

    responses: Dict[int, ResponseRecord] = field(default_factory=dict)
    rejected: List[int] = field(default_factory=list)
    batches: List[BatchRecord] = field(default_factory=list)
    redispatches: int = 0

    def latencies(self) -> List[float]:
        """Per-request sim latencies in request-id order."""
        return [
            self.responses[rid].latency for rid in sorted(self.responses)
        ]


class InferenceGateway:
    """Batching, replicated, hot-reloading front of the secure service."""

    def __init__(
        self,
        pool: ReplicaPool,
        clock: SimClock,
        batch_policy: Optional[BatchPolicy] = None,
        admission_policy: Optional[AdmissionPolicy] = None,
        loop=None,
        fabric: Optional[ServingFabric] = None,
    ) -> None:
        self.pool = pool
        self.clock = clock
        self.batcher = Batcher(batch_policy or BatchPolicy())
        self.admission = AdmissionController(
            admission_policy or AdmissionPolicy()
        )
        if loop is None:
            # Ride the ambient cluster's loop when one shares our clock;
            # otherwise stand up a private substrate loop.
            cluster = get_active_cluster()
            if cluster is not None and cluster.clock is clock:
                loop = cluster.loop
            else:
                loop = EventLoop(clock)
        #: The event scheduler: an ambient or caller-supplied cluster
        #: EventLoop, else a private one.
        self.loop = loop
        #: Optional host placement: arms the cluster.partition /
        #: cluster.deliver barriers on the dispatch and completion edges.
        self.fabric = fabric
        self.queue = RequestQueue()
        self.result = GatewayResult()
        self._next_request_id = 0
        self._next_batch_id = 0
        self._batch_records: Dict[int, BatchRecord] = {}

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _push(self, at: float, kind: str, payload: object) -> None:
        self.loop.push(at, kind, payload)

    # ------------------------------------------------------------------
    # Submission API (all sim-time scheduled)
    # ------------------------------------------------------------------
    def submit(
        self,
        session_id: int,
        seq: int,
        sealed: bytes,
        n_samples: int,
        at: float,
    ) -> int:
        """Enqueue one sealed client request arriving at sim ``at``."""
        request_id = self._next_request_id
        self._next_request_id += 1
        request = PendingRequest(
            request_id=request_id,
            session_id=session_id,
            seq=seq,
            sealed=sealed,
            n_samples=n_samples,
            arrival=float(at),
            trace_id=trace_id_of(session_id, seq),
        )
        self._push(at, "arrival", request)
        return request_id

    def schedule_call(self, at: float, fn: Callable[[], object]) -> None:
        """Run ``fn`` at sim ``at`` (trainer steps, test choreography)."""
        self._push(at, "call", fn)

    def schedule_crash(self, at: float, index: int) -> None:
        """Kill replica ``index`` at sim ``at`` (spot eviction)."""
        self._push(at, "crash", index)

    def schedule_repair(self, at: float, index: int) -> None:
        """Respawn replica ``index`` from the mirror at sim ``at``."""
        self._push(at, "repair", index)

    # ------------------------------------------------------------------
    # The drain loop
    # ------------------------------------------------------------------
    def run(self) -> GatewayResult:
        """Process every scheduled event; returns the drain's result."""
        self.loop.run(self._handle_event, post_event=self._dispatch_ready)
        if len(self.queue):
            raise RuntimeError(
                f"gateway drained its events with {len(self.queue)} "
                "requests still queued (every replica dead with no "
                "repair scheduled?)"
            )
        return self.result

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _handle_event(self, kind: str, payload: object) -> None:
        if kind == "arrival":
            self._on_arrival(payload)
        elif kind == "done":
            self._on_done(payload)
        elif kind == "call":
            payload()
        elif kind == "crash":
            self._on_crash(payload)
        elif kind == "repair":
            self.pool.repair(payload)
        # "deadline" events exist only to wake the dispatcher.

    def _on_arrival(self, request: PendingRequest) -> None:
        recorder = self.clock.recorder
        if not self.admission.admit(len(self.queue)):
            self.result.rejected.append(request.request_id)
            if recorder.enabled:
                recorder.count("serve.rejected")
            return
        self.queue.append(request)
        if recorder.enabled:
            recorder.count("serve.admitted")
            recorder.gauge("serve.queue_depth", len(self.queue))
            # Admission mints the request's causal tree: one root span
            # per request, open until the sealed response is delivered.
            request.root = recorder.begin(
                "serve.request",
                request.arrival,
                category="serve",
                args={
                    "request": request.request_id,
                    "session": request.session_id,
                    "seq": request.seq,
                },
                parent=None,
                trace_id=request.trace_id,
            )
        deadline = self.batcher.next_deadline(self.queue)
        if deadline is not None:
            self._push(deadline, "deadline", None)

    def _on_done(self, payload) -> None:
        index, epoch, batch_id, batch = payload
        replica = self.pool.replicas[index]
        if replica.epoch != epoch:
            return  # completion of a dead incarnation: discard
        active = faultplan.ACTIVE
        if self.fabric is not None and active.enabled:
            try:
                self.fabric.completion_barrier(index)
            except InjectedLinkDrop:
                # The completion notification died on the replica ->
                # gateway edge: the replica is idle again but the
                # gateway never heard, so the batch reruns under the
                # exactly-once rule (pinned nonces keep bytes equal).
                replica.busy = False
                replica.inflight = None
                self._requeue_for_redispatch(list(batch), reason="drop")
                return
        recorder = self.clock.recorder
        record = self._batch_records[batch_id]
        traces = None
        if recorder.enabled:
            # One ``serve.enclave`` child per request, opened before the
            # real in-enclave work so the session/crypto leaf spans can
            # attach underneath (closed after ``handle_batch`` returns).
            traces = [
                recorder.begin(
                    "serve.enclave",
                    record.dispatched_at,
                    category="serve",
                    args={"batch": batch_id, "replica": index},
                    parent=r.root,
                    trace_id=r.trace_id,
                )
                if r.root is not None
                else None
                for r in batch
            ]
        responses = replica.service.handle_batch(
            [(r.session_id, r.seq, r.sealed) for r in batch],
            traces=traces,
        )
        now = self.clock.now()
        for request, sealed in zip(batch, responses):
            if request.request_id in self.result.responses:
                raise RuntimeError(
                    f"duplicate response for request {request.request_id}"
                )
            self.result.responses[request.request_id] = ResponseRecord(
                request_id=request.request_id,
                session_id=request.session_id,
                seq=request.seq,
                sealed=sealed,
                arrival=request.arrival,
                completed=now,
                replica=index,
                generation=replica.generation,
                batch_id=batch_id,
            )
        record.completed_at = now
        replica.busy = False
        replica.inflight = None
        if recorder.enabled:
            recorder.count("serve.responses", len(batch))
            for request, enclave_span in zip(batch, traces or []):
                if enclave_span is not None:
                    recorder.end(enclave_span, now)
                if request.root is None:
                    continue
                recorder.complete(
                    "serve.response",
                    sim_start=now,
                    sim_end=now,
                    wall_start=recorder.wall_now(),
                    wall_end=recorder.wall_now(),
                    category="serve",
                    args={
                        "batch": batch_id,
                        "replica": index,
                        "generation": replica.generation,
                        "bytes": len(
                            self.result.responses[request.request_id].sealed
                        ),
                    },
                    parent=request.root,
                    trace_id=request.trace_id,
                )
                recorder.end(request.root, now)
                request.root = None  # the tree is sealed: deliver once
                recorder.observe("serve.e2e", now - request.arrival)

    def _on_crash(self, index: int) -> None:
        replica = self.pool.replicas[index]
        batch = replica.inflight
        self.pool.crash(index)
        if batch:
            self._requeue_for_redispatch(list(batch))

    def _requeue_for_redispatch(
        self, batch: List[PendingRequest], reason: str = "crash"
    ) -> None:
        for request in batch:
            request.attempts += 1
            if request.attempts >= MAX_DISPATCH_ATTEMPTS:
                raise RuntimeError(
                    f"request {request.request_id} failed dispatch "
                    f"{request.attempts} times; exactly-once redispatch "
                    "exhausted"
                )
        self.result.redispatches += 1
        self.queue.requeue(batch)
        recorder = self.clock.recorder
        if recorder.enabled:
            recorder.count("serve.redispatched", len(batch))
            self._mark_redispatch(batch, reason)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _free_replica(
        self, after: Optional[int] = None
    ) -> Optional[ServingReplica]:
        """Lowest-index healthy idle replica (rotated past ``after``)."""
        candidates = [
            r for r in self.pool.replicas if r.healthy and not r.busy
        ]
        if not candidates:
            return None
        if after is None:
            return candidates[0]
        rotated = [r for r in candidates if r.index != after]
        return rotated[0] if rotated else candidates[0]

    def _dispatch_ready(self) -> None:
        while True:
            if not self.batcher.ready(self.queue, self.clock.now()):
                return
            replica = self._free_replica()
            if replica is None:
                return
            batch = self.batcher.take(self.queue)
            self._dispatch(batch, replica)
            # Requests left behind by a partial take need their own
            # wake-up: their arrival-time deadline events pointed at the
            # (now dispatched) older head of the queue.
            deadline = self.batcher.next_deadline(self.queue)
            if deadline is not None:
                self._push(deadline, "deadline", None)

    def _dispatch(
        self, batch: List[PendingRequest], replica: ServingReplica
    ) -> None:
        # Hot reload happens strictly between batches: the replica is
        # idle here, so the generation swap is atomic w.r.t. serving.
        self.pool.maybe_reload(replica)
        active = faultplan.ACTIVE
        if active.enabled:
            if self.fabric is not None:
                try:
                    self.fabric.dispatch_barrier(replica.index)
                except InjectedLinkDrop:
                    # The gateway -> replica edge is partitioned: the
                    # batch never reached this replica, so route around
                    # it exactly like a failed ecall.
                    self._redispatch_after_abort(
                        batch, replica, reason="partition"
                    )
                    return
            try:
                active.check("serve.dispatch")
            except InjectedEcallAbort:
                self._redispatch_after_abort(batch, replica)
                return
        self._start_batch(batch, replica)

    def _redispatch_after_abort(
        self,
        batch: List[PendingRequest],
        failed: ServingReplica,
        reason: str = "abort",
    ) -> None:
        """The batch's ecall failed before entering the enclave: retry
        once, preferring a different replica."""
        for request in batch:
            request.attempts += 1
            if request.attempts >= MAX_DISPATCH_ATTEMPTS:
                raise RuntimeError(
                    f"request {request.request_id} failed dispatch "
                    f"{request.attempts} times; exactly-once redispatch "
                    "exhausted"
                )
        self.result.redispatches += 1
        recorder = self.clock.recorder
        if recorder.enabled:
            recorder.count("serve.redispatched", len(batch))
            self._mark_redispatch(batch, reason)
        replica = self._free_replica(after=failed.index)
        if replica is None:
            self.queue.requeue(batch)
            return
        self._dispatch(batch, replica)

    def _mark_redispatch(
        self, batch: List[PendingRequest], reason: str
    ) -> None:
        """Zero-width child spans making retries visible in each tree."""
        recorder = self.clock.recorder
        now = self.clock.now()
        for request in batch:
            if request.root is None:
                continue
            recorder.complete(
                "serve.redispatch",
                sim_start=now,
                sim_end=now,
                wall_start=recorder.wall_now(),
                wall_end=recorder.wall_now(),
                category="serve",
                args={"attempt": request.attempts, "reason": reason},
                parent=request.root,
                trace_id=request.trace_id,
            )

    def _batch_cost(
        self, batch: List[PendingRequest], replica: ServingReplica
    ) -> float:
        """Simulated in-enclave service time of one coalesced batch.

        Mirrors the real replica's :meth:`handle_batch` structure:
        one enclave entry/exit pair, one amortized decrypt over all
        request records (stack), one batched forward whose
        ``forward_setup`` kernel-dispatch term is paid once per batch
        rather than per request, and one amortized encrypt over the
        responses (scatter).
        """
        profile = self.pool.profile
        samples = sum(r.n_samples for r in batch)
        flops_per_sample = (
            replica.network.flops(1) * FORWARD_FLOPS_FRACTION
        )
        request_sizes = [len(r.sealed) for r in batch]
        response_sizes = [
            8 * r.n_samples + SEAL_OVERHEAD for r in batch
        ]
        return (
            profile.sgx.transition_time(2)
            + profile.crypto.batched_decrypt_time(request_sizes)
            + profile.inference.batch_seconds(
                flops_per_sample, samples, len(batch)
            )
            + profile.crypto.batched_encrypt_time(response_sizes)
        )

    def _start_batch(
        self, batch: List[PendingRequest], replica: ServingReplica
    ) -> None:
        start = self.clock.now()
        end = start + self._batch_cost(batch, replica)
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        record = BatchRecord(
            batch_id=batch_id,
            replica=replica.index,
            generation=replica.generation,
            n_requests=len(batch),
            n_samples=sum(r.n_samples for r in batch),
            dispatched_at=start,
            attempts=max(r.attempts for r in batch) + 1,
        )
        self._batch_records[batch_id] = record
        self.result.batches.append(record)
        replica.busy = True
        replica.inflight = batch
        self._push(end, "done", (replica.index, replica.epoch, batch_id, batch))
        recorder = self.clock.recorder
        if recorder.enabled:
            recorder.count("serve.dispatched", len(batch))
            recorder.observe("serve.batch_size", len(batch))
            recorder.complete(
                "serve.batch",
                sim_start=start,
                sim_end=end,
                wall_start=recorder.wall_now(),
                wall_end=recorder.wall_now(),
                category="serve",
                args={
                    "replica": replica.index,
                    "requests": len(batch),
                    "samples": record.n_samples,
                    "generation": replica.generation,
                },
                sim_lane=REPLICA_LANE_BASE + replica.index,
            )
            for request in batch:
                if request.root is None:
                    continue
                recorder.observe("serve.queue_wait", start - request.arrival)
                recorder.complete(
                    "serve.queue_wait",
                    sim_start=request.arrival,
                    sim_end=start,
                    wall_start=recorder.wall_now(),
                    wall_end=recorder.wall_now(),
                    category="serve",
                    args={"batch": batch_id},
                    parent=request.root,
                    trace_id=request.trace_id,
                )
                recorder.complete(
                    "serve.dispatch",
                    sim_start=start,
                    sim_end=start,
                    wall_start=recorder.wall_now(),
                    wall_end=recorder.wall_now(),
                    category="serve",
                    args={
                        "replica": replica.index,
                        "batch": batch_id,
                        "attempt": request.attempts + 1,
                        "epoch": replica.epoch,
                        "generation": replica.generation,
                    },
                    parent=request.root,
                    trace_id=request.trace_id,
                )
