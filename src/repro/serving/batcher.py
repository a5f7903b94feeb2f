"""Size/deadline-bounded request coalescing for the gateway.

Batching is where enclave inference throughput is won (Occlumency,
Clipper): every batch dispatched into a replica pays a fixed setup cost
(weight staging, enclave entry), so riding more requests per entry
amortizes it.  The flip side is latency — a request must not sit
waiting for a full batch forever — so the batcher dispatches when
either bound trips:

* **size**: ``max_requests`` are waiting, or
* **deadline**: the oldest waiting request has been queued for
  ``max_delay`` simulated seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence


@dataclass(frozen=True)
class BatchPolicy:
    """Size and deadline bounds for one coalesced batch."""

    max_requests: int = 16
    #: Longest a queued request may wait before its batch is forced out,
    #: in simulated seconds.
    max_delay: float = 2e-3

    def __post_init__(self) -> None:
        if self.max_requests < 1:
            raise ValueError(
                f"max_requests must be >= 1, got {self.max_requests}"
            )
        if self.max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {self.max_delay}")


@dataclass(slots=True)
class PendingRequest:
    """One admitted, not-yet-dispatched sealed request."""

    request_id: int
    session_id: int
    seq: int
    sealed: bytes
    n_samples: int
    arrival: float
    #: Dispatch attempts so far (bumped when a replica dies mid-batch
    #: and the request is redispatched).
    attempts: int = 0
    #: Deterministic causal-trace id (``obs.context.trace_id_of``); the
    #: id survives requeues and redispatches, so every retry's spans
    #: land in the same tree.
    trace_id: int = 0
    #: Root ``serve.request`` span opened at admission (``None`` when
    #: tracing is off); carried with the request across batching and
    #: redispatch so downstream layers can attach children.
    root: Optional[Any] = None


class RequestQueue:
    """Arrival-ordered FIFO of pending requests.

    Kept sorted by ``(arrival, request_id)``: normal arrivals append in
    time order, and requests requeued after a replica crash re-enter at
    their original position so the redispatch preserves the sequential
    reference order.
    """

    def __init__(self) -> None:
        self._items: List[PendingRequest] = []

    def __len__(self) -> int:
        return len(self._items)

    def append(self, request: PendingRequest) -> None:
        self._items.append(request)

    def requeue(self, requests: Sequence[PendingRequest]) -> None:
        """Re-insert crashed-batch requests at their arrival positions."""
        self._items.extend(requests)
        self._items.sort(key=lambda r: (r.arrival, r.request_id))

    def oldest(self) -> Optional[PendingRequest]:
        return self._items[0] if self._items else None

    def take(self, n: int) -> List[PendingRequest]:
        """Pop the ``n`` oldest requests (fewer if the queue is shorter)."""
        batch = self._items[:n]
        del self._items[:n]
        return batch


class Batcher:
    """The dispatch decision: when is a batch ready, and what's in it."""

    def __init__(self, policy: BatchPolicy) -> None:
        self.policy = policy

    def ready(self, queue: RequestQueue, now: float) -> bool:
        """Whether the queue holds a dispatchable batch at sim ``now``."""
        items = queue._items
        return bool(items) and (
            len(items) >= self.policy.max_requests
            or now >= items[0].arrival + self.policy.max_delay
        )

    def take(self, queue: RequestQueue) -> List[PendingRequest]:
        """Pop one batch (up to the size bound) in arrival order."""
        return queue.take(self.policy.max_requests)

    def next_deadline(self, queue: RequestQueue) -> Optional[float]:
        """Sim time at which the oldest waiting request must go out."""
        oldest = queue.oldest()
        if oldest is None:
            return None
        return oldest.arrival + self.policy.max_delay
