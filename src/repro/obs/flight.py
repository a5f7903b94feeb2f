"""The crash flight recorder: a bounded, always-on telemetry ring.

Crash diagnosis used to require rerunning a failing schedule under
``--trace``.  The flight recorder removes that round trip: a fixed-size
ring buffer retains the *last N* telemetry events (span completions,
instants, counter bumps, gauge samples, histogram observations), cheap
enough to leave on in production — the wall-clock harness gates its
overhead on the mirror hot path at the same ≤0.5% budget as the null
recorder.

Two deployment shapes share the ring:

* :class:`FlightRecorder` — a drop-in for :data:`~repro.obs.recorder.NULL_RECORDER`
  with ``enabled = False``: call sites still skip every argument-dict
  and span allocation (the ``if recorder.enabled:`` guards hold), but
  the unguarded hot-path hooks — counter bumps from PM/SGX/crypto,
  instants, gauges — append one tuple each to a bounded deque.  This is
  the "always on" production default.
* :class:`~repro.obs.recorder.TraceRecorder` embeds a ring too (fed
  from its span/instant/counter paths), so the fault workloads — which
  run full trace recorders — carry a span-inclusive tail that
  :mod:`repro.faults.explorer` dumps as a JSON artifact whenever an
  invariant is violated.

Ring events are ``(kind, name, value)`` tuples where ``value`` is a
simulated timestamp for spans/instants/faults and the increment/sample
for count/gauge/observe events — all deterministic, so flight dumps of
same-seed runs are byte-identical.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

__all__ = ["FlightRing", "FlightRecorder", "DEFAULT_FLIGHT_CAPACITY"]

#: Default ring depth: enough tail to cover several batches / train
#: iterations while keeping violation dumps small.
DEFAULT_FLIGHT_CAPACITY = 256

_Event = Tuple[str, str, float]


class FlightRing:
    """Fixed-capacity ring of ``(kind, name, value)`` telemetry events."""

    __slots__ = ("capacity", "_events", "total")

    def __init__(self, capacity: int = DEFAULT_FLIGHT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"flight ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: Retained events, oldest first; a full ring drops its oldest.
        self._events: Deque[_Event] = deque(maxlen=capacity)
        #: Total events ever offered (``total - capacity`` were dropped).
        self.total = 0

    def add(self, kind: str, name: str, value: float) -> None:
        """Append one event, evicting the oldest when full."""
        self._events.append((kind, name, value))
        self.total += 1

    def count(self, name: str, value: float = 1) -> None:
        """``add("count", name, value)``: the hook the PM hot path calls
        most, one call shallower."""
        self._events.append(("count", name, value))
        self.total += 1

    @property
    def dropped(self) -> int:
        """Events evicted by wraparound."""
        return max(0, self.total - self.capacity)

    def __len__(self) -> int:
        return len(self._events)

    def tail(self) -> List[_Event]:
        """Retained events, oldest first."""
        return list(self._events)

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic JSON-ready dump of the ring state."""
        return {
            "capacity": self.capacity,
            "dropped": self.dropped,
            "events": [
                {"kind": kind, "name": name, "value": value}
                for kind, name, value in self.tail()
            ],
            "total": self.total,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlightRing({len(self)}/{self.capacity}, total={self.total})"


class FlightRecorder:
    """Always-on bounded recorder: the null recorder plus a flight ring.

    ``enabled`` stays ``False`` so every ``if recorder.enabled:`` guard
    keeps the expensive span/argument machinery off; only the cheap
    unguarded hooks (counters, gauges, instants, observations) feed the
    ring.  Safe to install as the process default or a clock's recorder
    in production: memory is bounded by the ring capacity and the
    wall-clock regression gate holds its mirror-hot-path overhead
    within the 0.5% null-recorder budget.
    """

    enabled = False

    def __init__(self) -> None:
        self.flight = FlightRing(DEFAULT_FLIGHT_CAPACITY)
        # The counter hook is the ring's own bound method: a hook call is
        # one frame that touches only the ring.
        self.count = self.flight.count

    # -- span API (no-ops: callers guard span work on ``enabled``) -----
    def begin(self, *args: Any, **kwargs: Any) -> None:
        return None

    def end(self, *args: Any, **kwargs: Any) -> None:
        return None

    def span(self, *args: Any, **kwargs: Any) -> Any:
        from repro.obs.recorder import _NULL_CONTEXT

        return _NULL_CONTEXT

    def complete(self, *args: Any, **kwargs: Any) -> None:
        return None

    def current_span(self) -> None:
        return None

    def wall_now(self) -> float:
        return 0.0

    # -- unguarded hot-path hooks: feed the ring -----------------------
    def instant(
        self,
        name: str,
        sim_now: float,
        category: str = "",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.flight.add("instant", name, sim_now)

    def gauge(self, name: str, value: float) -> None:
        self.flight.add("gauge", name, value)

    def observe(self, name: str, value: float) -> None:
        self.flight.add("observe", name, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlightRecorder({self.flight!r})"
