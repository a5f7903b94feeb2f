"""The substrate's single discrete-event loop on the shared sim clock.

Every component of a simulated deployment — the inference gateway, the
network model, test choreography — schedules onto one priority queue
ordered by ``(sim time, insertion order)``: FIFO within a tick, the
clock only ever moving forward.  A seeded gateway drain on this loop is
pinned event for event — clock, batch composition, counters, canonical
trace report — by the golden fixture in
``tests/test_cluster_equivalence.py``.

Two dispatch paths exist per popped event:

* *registered kinds* (``register``): loop-owned event kinds such as the
  network's ``cluster.deliver`` are routed to their registered handler,
  regardless of which component is draining the loop;
* everything else goes to the ``handler`` passed to :meth:`run` (the
  gateway's arrival/done/crash/repair chain).  Unknown kinds with no
  handler are timers: they advance the clock and wake ``post_event``.

When the loop belongs to a :class:`~repro.cluster.runtime.Cluster`, the
``cluster.host_kill`` fault barrier runs before *every* event is
handled, so the crash-schedule explorer can kill a host at any point of
the event schedule.  With no fault plan installed the barrier is the
same single ``enabled`` flag test every other instrumented site pays —
zero behavioural cost: a cluster-owned loop and a private one drain the
same events identically.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults import plan as faultplan
from repro.simtime.clock import SimClock

#: ``handler(kind, payload)`` — the drain-side event chain.
EventHandler = Callable[[str, object], None]

#: ``handler(payload)`` — a loop-registered per-kind handler.
KindHandler = Callable[[object], None]


class EventLoop:
    """One deterministic event queue on a shared :class:`SimClock`."""

    def __init__(self, clock: SimClock, kill_barrier: bool = False) -> None:
        self.clock = clock
        #: Whether the ``cluster.host_kill`` fault barrier runs before
        #: each event (set by the owning cluster; plain loops skip it).
        self.kill_barrier = kill_barrier
        self._events: List[Tuple[float, int, str, object]] = []
        self._order = 0
        self._handlers: Dict[str, KindHandler] = {}

    # ------------------------------------------------------------------
    def push(self, at: float, kind: str, payload: object) -> None:
        """Schedule one event at sim time ``at`` (FIFO within a tick)."""
        heapq.heappush(self._events, (float(at), self._order, kind, payload))
        self._order += 1

    def register(self, kind: str, handler: KindHandler) -> None:
        """Route every popped ``kind`` event to ``handler`` directly."""
        self._handlers[kind] = handler

    # ------------------------------------------------------------------
    def run(
        self,
        handler: Optional[EventHandler] = None,
        post_event: Optional[Callable[[], None]] = None,
    ) -> None:
        """Drain the queue: advance, barrier, dispatch, wake.

        The clock only ever advances forward — an event whose time has
        already passed (a reload pushed global time past a pending
        completion) simply completes "late".
        """
        while self._events:
            t, _, kind, payload = heapq.heappop(self._events)
            self.clock.advance_to(t)
            if self.kill_barrier:
                active = faultplan.ACTIVE
                if active.enabled:
                    active.check("cluster.host_kill")
            registered = self._handlers.get(kind)
            if registered is not None:
                registered(payload)
            elif handler is not None:
                handler(kind, payload)
            if post_event is not None:
                post_event()
