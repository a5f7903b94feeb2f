"""Deterministic simulated clock.

Every simulated component in the reproduction holds a reference to one
:class:`SimClock` and advances it as work is performed.  Experiment
harnesses wrap regions of interest in :meth:`SimClock.stopwatch` spans to
obtain per-step costs (e.g. the encrypt vs. write breakdown of Table I).

The clock is also the **observability attachment point**: it carries a
``recorder`` (the allocation-free null recorder unless tracing is on —
see :mod:`repro.obs`), which instrumented components reach as
``clock.recorder`` to emit counters, events, and spans.  The
:meth:`stopwatch` shim forwards every span to the recorder, so the
historical flat ``with clock.stopwatch(...)`` call sites produce
hierarchical dual-clock trace spans with no further changes.
"""

from __future__ import annotations

from repro.obs.recorder import get_default_recorder


class StopwatchSpan:
    """A labelled measurement of simulated time.

    Spans are produced by :meth:`SimClock.stopwatch` and record the clock
    value on entry and exit of a ``with`` block.  When a trace recorder
    is attached to the clock, entering the span also opens a recorder
    span (nested under the thread's innermost open span) carrying both
    simulated and wall-clock intervals.

    A span is single-use: re-entering one raises :class:`RuntimeError`
    (a reused span would silently overwrite ``start``/``end``).
    """

    def __init__(self, clock: "SimClock", label: str) -> None:
        self._clock = clock
        self.label = label
        self.start = 0.0
        self.end = 0.0
        self._entered = False
        self._obs_span = None

    @property
    def elapsed(self) -> float:
        """Simulated seconds spent inside the span."""
        return self.end - self.start

    def __enter__(self) -> "StopwatchSpan":
        if self._entered:
            raise RuntimeError(
                f"StopwatchSpan {self.label!r} is single-use; "
                f"create a new span via clock.stopwatch(...)"
            )
        self._entered = True
        self.start = self._clock.now()
        recorder = self._clock.recorder
        if recorder.enabled:
            self._obs_span = recorder.begin(
                self.label or "span", self.start, category="sim"
            )
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end = self._clock.now()
        if self._obs_span is not None:
            self._clock.recorder.end(self._obs_span, self.end)
            self._obs_span = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StopwatchSpan({self.label!r}, {self.elapsed:.9f}s)"


class SimClock:
    """A monotonically advancing simulated clock.

    The clock counts seconds as a float.  It never advances on its own;
    components call :meth:`advance` to charge time for the operations they
    simulate.  Determinism of every benchmark in the repository follows
    from the determinism of those charges.

    ``recorder`` is the observability sink shared by every component
    holding this clock; it defaults to the process-default recorder
    (the null recorder unless e.g. the ``--trace`` CLI flag installed a
    real one).
    """

    def __init__(self) -> None:
        self._now = 0.0
        self.recorder = get_default_recorder()

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new time.

        Raises :class:`ValueError` for negative charges: simulated time is
        monotonic by construction.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time: {seconds}")
        self._now += seconds
        return self._now

    def advance_to(self, t: float) -> None:
        """Move the clock to ``t`` exactly, if ``t`` is ahead of it.

        ``advance(t - now())`` can land one ulp short of ``t``: float
        subtraction and addition do not round-trip.
        """
        if t > self._now:
            self._now = t

    def stopwatch(self, label: str = "") -> StopwatchSpan:
        """Return a context manager measuring simulated time in a block."""
        return StopwatchSpan(self, label)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.9f})"
