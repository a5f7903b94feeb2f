"""Hierarchical dual-clock tracing — the span half of ``repro.obs``.

Every span records **two** clocks:

* *simulated seconds* — read from the deterministic
  :class:`~repro.simtime.clock.SimClock` by the call site; two same-seed
  runs produce byte-identical sim-time fields (:meth:`TraceRecorder.sim_view`
  is the canonical deterministic projection);
* *wall-clock seconds* — ``time.perf_counter`` relative to recorder
  creation; host-dependent, used to validate real-time optimizations
  (in-place sealing, zero-copy PM writes).

Spans nest: each thread keeps its own open-span stack, so a
``mirror.encrypt`` span opened inside ``mirror.out`` becomes its child
automatically.  A span measured elsewhere is recorded in one call with
:meth:`TraceRecorder.complete`: an explicit ``parent`` attaches it to a
request's causal tree, and a *simulated lane* (``sim_lane``) draws the
gateway's per-replica batches side by side in a Chrome trace while
keeping sim-time fields deterministic.

The module-level default recorder is :data:`NULL_RECORDER`, whose every
method is an allocation-free no-op.  Call sites that would allocate
argument dicts guard on ``recorder.enabled`` first.  The ``pm.*``,
``sgx.*`` and ``crypto.*`` counters cost no call per operation: their
components keep ``stats`` dicts and :meth:`TraceRecorder.register` them.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

from repro.obs.metrics import CounterRegistry

__all__ = [
    "Span",
    "TraceRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "get_default_recorder",
    "install_default_recorder",
]

_UNSET = object()


class Span:
    """One completed (or in-flight) measurement of a named region."""

    __slots__ = (
        "name",
        "category",
        "index",
        "parent_index",
        "thread_id",
        "sim_lane",
        "trace_id",
        "sim_start",
        "sim_end",
        "wall_start",
        "wall_end",
        "args",
        "_closed",
    )

    def __init__(
        self,
        name: str,
        category: str,
        index: int,
        parent_index: Optional[int],
        thread_id: int,
        sim_start: float,
        wall_start: float,
        args: Optional[Dict[str, Any]],
        sim_lane: Optional[int] = None,
        trace_id: Optional[int] = None,
    ) -> None:
        self.name = name
        self.category = category
        self.index = index
        self.parent_index = parent_index
        self.thread_id = thread_id
        self.sim_lane = sim_lane
        #: Request-scoped causal-tree id (``obs.context.trace_id_of``);
        #: ``None`` for spans outside the request plane.
        self.trace_id = trace_id
        self.sim_start = sim_start
        self.sim_end = sim_start
        self.wall_start = wall_start
        self.wall_end = wall_start
        self.args = args
        self._closed = False

    @property
    def sim_elapsed(self) -> float:
        """Simulated seconds spent inside the span."""
        return self.sim_end - self.sim_start

    @property
    def wall_elapsed(self) -> float:
        """Wall-clock seconds spent inside the span (host-dependent)."""
        return self.wall_end - self.wall_start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, sim={self.sim_elapsed:.9f}s, "
            f"wall={self.wall_elapsed:.6f}s)"
        )


class _SpanContext:
    """Context manager pairing :meth:`TraceRecorder.begin`/``end``."""

    __slots__ = ("_recorder", "_clock", "_name", "_category", "_span")

    def __init__(self, recorder, clock, name, category) -> None:
        self._recorder = recorder
        self._clock = clock
        self._name = name
        self._category = category
        self._span = None

    def __enter__(self) -> Span:
        self._span = self._recorder.begin(
            self._name,
            self._clock.now(),
            category=self._category,
        )
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        self._recorder.end(self._span, self._clock.now())


class _NullContext:
    """Reusable no-op context manager returned by the null recorder."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class NullRecorder:
    """The disabled recorder: every operation is an allocation-free no-op.

    Shared as the module singleton :data:`NULL_RECORDER`; components
    reach it through ``clock.recorder`` by default, so the untraced hot
    paths pay one attribute lookup and an empty method call.
    """

    enabled = False

    def begin(self, *args: Any, **kwargs: Any) -> None:
        return None

    def end(self, *args: Any, **kwargs: Any) -> None:
        return None

    def span(self, *args: Any, **kwargs: Any) -> _NullContext:
        return _NULL_CONTEXT

    def complete(self, *args: Any, **kwargs: Any) -> None:
        return None

    def instant(self, *args: Any, **kwargs: Any) -> None:
        return None

    def count(self, name: str, value: int = 1) -> None:
        return None

    def register(self, stats: Any, names: Dict[str, str]) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def current_span(self) -> None:
        return None

    def wall_now(self) -> float:
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullRecorder()"


NULL_RECORDER = NullRecorder()


class TraceRecorder:
    """Collects hierarchical dual-clock spans, instant events and counters.

    One recorder may observe several :class:`~repro.simtime.clock.SimClock`
    instances (a Fig. 7 sweep creates one system per model size): spans
    carry the sim timestamps their call site read from *its* clock, and
    the recorder itself is clock-agnostic.
    """

    enabled = True

    def __init__(self) -> None:
        # Not at module level: repro.obs.flight imports this module.
        from repro.obs.flight import DEFAULT_FLIGHT_CAPACITY, FlightRing

        self.spans: List[Span] = []
        self.events: List[Dict[str, Any]] = []
        self.counters = CounterRegistry()
        #: Bounded tail of recent telemetry — the crash flight recorder
        #: the fault explorer dumps alongside invariant violations.
        self.flight = FlightRing(DEFAULT_FLIGHT_CAPACITY)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_index = 0
        self._thread_ids: Dict[int, int] = {}
        self._wall_origin = time.perf_counter()
        self._thread_id()  # the creating thread is tid 0

    # ------------------------------------------------------------------
    # Clocks and identity
    # ------------------------------------------------------------------
    def wall_now(self) -> float:
        """Wall-clock seconds since the recorder was created."""
        return time.perf_counter() - self._wall_origin

    def _thread_id(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            tid = self._thread_ids.get(ident)
            if tid is None:
                tid = len(self._thread_ids)
                self._thread_ids[ident] = tid
            return tid

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _alloc_index(self) -> int:
        with self._lock:
            index = self._next_index
            self._next_index += 1
            return index

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def begin(
        self,
        name: str,
        sim_now: float,
        category: str = "",
        args: Optional[Dict[str, Any]] = None,
        parent: Any = _UNSET,
        trace_id: Optional[int] = None,
    ) -> Span:
        """Open a span at simulated time ``sim_now``.

        Without an explicit ``parent`` the span nests under the calling
        thread's innermost open span (if any) and is pushed onto that
        thread's stack; an explicit parent (a request's causal tree)
        skips the stack entirely.
        """
        stacked = parent is _UNSET
        if stacked:
            stack = self._stack()
            parent_index = stack[-1].index if stack else None
        else:
            parent_index = parent.index if parent is not None else None
        span = Span(
            name=name,
            category=category,
            index=self._alloc_index(),
            parent_index=parent_index,
            thread_id=self._thread_id(),
            sim_start=sim_now,
            wall_start=self.wall_now(),
            args=args,
            trace_id=trace_id,
        )
        if stacked:
            self._stack().append(span)
        return span

    def end(self, span: Span, sim_now: float) -> Span:
        """Close ``span`` at simulated time ``sim_now`` and record it."""
        if span._closed:
            raise RuntimeError(f"span {span.name!r} ended twice")
        span.sim_end = sim_now
        span.wall_end = self.wall_now()
        span._closed = True
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)
            self.flight.add("span", span.name, sim_now)
        return span

    def span(self, name: str, clock: Any, category: str = "") -> _SpanContext:
        """Context manager reading sim time from ``clock`` at entry/exit."""
        return _SpanContext(self, clock, name, category)

    def complete(
        self,
        name: str,
        sim_start: float,
        sim_end: float,
        wall_start: float,
        wall_end: float,
        category: str = "",
        args: Optional[Dict[str, Any]] = None,
        parent: Optional[Span] = None,
        sim_lane: Optional[int] = None,
        trace_id: Optional[int] = None,
    ) -> Span:
        """Record an already-measured span in one call.

        The caller supplies both clock intervals (sim times from its
        deterministic schedule, wall times from ``wall_now()``) and,
        optionally, the simulated lane to draw the span on.
        """
        span = Span(
            name=name,
            category=category,
            index=self._alloc_index(),
            parent_index=parent.index if parent is not None else None,
            thread_id=self._thread_id(),
            sim_start=sim_start,
            wall_start=wall_start,
            args=args,
            sim_lane=sim_lane,
            trace_id=trace_id,
        )
        span.sim_end = sim_end
        span.wall_end = wall_end
        span._closed = True
        with self._lock:
            self.spans.append(span)
            self.flight.add("span", span.name, sim_end)
        return span

    def current_span(self) -> Optional[Span]:
        """The calling thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    # Instant events and metrics
    # ------------------------------------------------------------------
    def instant(
        self,
        name: str,
        sim_now: float,
        category: str = "",
        args: Optional[Dict[str, Any]] = None,
        wall_time: Optional[float] = None,
    ) -> None:
        """Record a point-in-time event (e.g. ``romulus.recover``).

        ``wall_time`` pins the host timestamp explicitly; tests that
        assert byte-identical exports across two recorders use it to
        remove the one nondeterministic field.
        """
        event = {
            "name": name,
            "category": category,
            "sim_time": sim_now,
            "wall_time": self.wall_now() if wall_time is None else wall_time,
            "thread_id": self._thread_id(),
            "args": args or {},
        }
        with self._lock:
            self.events.append(event)
            self.flight.add("instant", name, sim_now)

    def count(self, name: str, value: int = 1) -> None:
        """Increment counter ``name`` by ``value``."""
        self.counters.add(name, value)
        with self._lock:
            self.flight.add("count", name, value)

    def register(self, stats: Any, names: Dict[str, str]) -> None:
        """Read counter ``names[key]`` from the component's ``stats[key]``."""
        self.counters.register(stats, names)

    def gauge(self, name: str, value: float) -> None:
        """Record the latest sample of gauge ``name``."""
        self.counters.set_gauge(name, value)
        with self._lock:
            self.flight.add("gauge", name, value)

    def observe(self, name: str, value: float) -> None:
        """Add one sample to the log2-bucket histogram ``name``."""
        self.counters.observe(name, value)
        with self._lock:
            self.flight.add("observe", name, value)

    # ------------------------------------------------------------------
    # Deterministic projections
    # ------------------------------------------------------------------
    def sim_view(self) -> List[Dict[str, Any]]:
        """Canonical sim-time-only projection of all completed spans.

        Excludes every host-dependent field (wall times, OS thread ids,
        completion order) and sorts deterministically, so two same-seed
        runs yield equal lists — the trace-determinism contract tested
        by ``tests/test_obs_integration.py``.
        """
        with self._lock:
            spans = list(self.spans)
        view = [
            {
                "name": s.name,
                "category": s.category,
                "sim_start": s.sim_start,
                "sim_end": s.sim_end,
                "sim_lane": s.sim_lane,
                "trace_id": s.trace_id,
                "args": dict(sorted((s.args or {}).items())),
            }
            for s in spans
        ]
        view.sort(
            key=lambda d: (
                d["sim_start"],
                d["sim_end"],
                d["name"],
                repr(d["args"]),
            )
        )
        return view

    def sim_events(self) -> List[Dict[str, Any]]:
        """Deterministic projection of instant events (sim fields only)."""
        with self._lock:
            events = list(self.events)
        view = [
            {
                "name": e["name"],
                "category": e["category"],
                "sim_time": e["sim_time"],
                "args": dict(sorted(e["args"].items())),
            }
            for e in events
        ]
        view.sort(key=lambda d: (d["sim_time"], d["name"], repr(d["args"])))
        return view

    def find_spans(self, name: str) -> List[Span]:
        """All completed spans named ``name`` (completion order)."""
        with self._lock:
            return [s for s in self.spans if s.name == name]

    def find_events(self, name: str) -> List[Dict[str, Any]]:
        """All instant events named ``name``."""
        with self._lock:
            return [e for e in self.events if e["name"] == name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceRecorder({len(self.spans)} spans, "
            f"{len(self.events)} events, {len(self.counters)} metrics)"
        )


# ----------------------------------------------------------------------
# Module-level default (what a fresh SimClock attaches to)
# ----------------------------------------------------------------------
_default_recorder: Any = NULL_RECORDER
_default_lock = threading.Lock()


def get_default_recorder() -> Any:
    """The recorder newly created clocks/systems attach to.

    :data:`NULL_RECORDER` unless a caller (the ``--trace`` CLI flag, a
    test fixture) installed a real one.
    """
    return _default_recorder


def install_default_recorder(recorder: Any) -> Any:
    """Install ``recorder`` as the process default; returns the previous
    one so callers can restore it (``try/finally``)."""
    global _default_recorder
    with _default_lock:
        previous = _default_recorder
        _default_recorder = recorder if recorder is not None else NULL_RECORDER
        return previous
