"""Component counters and gauges — the numeric half of ``repro.obs``.

The registry is a flat, thread-safe ``name -> value`` map shared by every
instrumented component of one :class:`~repro.obs.recorder.TraceRecorder`.
Counters are monotonically increasing sums (``pm.bytes_read``,
``crypto.seals``, ``romulus.commits``, ...); gauges are
last-writer-wins samples (``serve.queue_depth`` after each admission,
``arena.bytes`` after each served batch).

A component with a ``stats`` dict of its own (the PM device, the
enclave, its ecall runtime, the encryption engine) registers it once,
when built, and its counters are read from it; the others are pushed.

Naming convention: ``<component>.<metric>`` with dot-separated lowercase
segments; byte quantities end in ``_bytes`` or start with ``bytes_``.
The canonical names emitted by the built-in instrumentation are listed in
``docs/observability.md``.

All counter and gauge values are derived from deterministic simulated
work, so two same-seed runs produce identical snapshots.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Tuple, Union

from repro.obs.hist import LogHistogram

Number = Union[int, float]


class CounterRegistry:
    """Thread-safe counter/gauge/histogram registry.

    A read adds the registered ``stats`` entries to the pushed
    counters; a registered counter whose total is zero is left out.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Number] = {}
        #: ``(stats, {stats key: counter name})`` per registered component.
        self._registered: List[Tuple[Mapping[str, Number], Dict[str, str]]] = []
        self._gauges: Dict[str, Number] = {}
        self._histograms: Dict[str, LogHistogram] = {}

    # ------------------------------------------------------------------
    def add(self, name: str, value: Number = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0 on first use)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def register(self, stats: Mapping[str, Number], names: Dict[str, str]) -> None:
        """Read counter ``names[key]`` from ``stats[key]`` from now on."""
        with self._lock:
            self._registered.append((stats, names))

    def _totals(self) -> Dict[str, Number]:
        """Pushed counters plus the nonzero registered totals (lock held)."""
        totals = dict(self._counters)
        for stats, names in self._registered:
            for key, name in names.items():
                value = stats[key]
                if value:
                    totals[name] = totals.get(name, 0) + value
        return totals

    def set_gauge(self, name: str, value: Number) -> None:
        """Record the latest sample of gauge ``name``."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: Number) -> None:
        """Add one sample to the log2-bucket histogram ``name``."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = LogHistogram()
                self._histograms[name] = hist
            hist.record(float(value))

    # ------------------------------------------------------------------
    def get(self, name: str, default: Number = 0) -> Number:
        """Current value of counter ``name`` (gauges shadow nothing)."""
        with self._lock:
            return self._totals().get(name, default)

    def get_gauge(self, name: str, default: Number = 0) -> Number:
        """Latest sample of gauge ``name``."""
        with self._lock:
            return self._gauges.get(name, default)

    def snapshot(self) -> Dict[str, Number]:
        """Counters only, sorted by name (deterministic for same-seed runs)."""
        with self._lock:
            return dict(sorted(self._totals().items()))

    def gauges_snapshot(self) -> Dict[str, Number]:
        """Gauges only, sorted by name."""
        with self._lock:
            return dict(sorted(self._gauges.items()))

    def histograms_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Histograms as deterministic dicts, sorted by name."""
        with self._lock:
            return {
                name: hist.to_dict()
                for name, hist in sorted(self._histograms.items())
            }

    def __len__(self) -> int:
        with self._lock:
            return (
                len(self._totals()) + len(self._gauges) + len(self._histograms)
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CounterRegistry({len(self)} metrics)"
