"""Wall-clock performance harness — the repo's perf-regression baseline.

Unlike every other harness in :mod:`repro.bench` (which report
*simulated* seconds from the deterministic cost models), this one times
**real elapsed time** of the hot paths:

* ``mirror_out`` / ``mirror_in`` on the Fig. 7 model sizes: absolute
  seconds, plus the per-phase sim + wall split from a separate traced
  pass.
* batched vs. per-request inference kernels at batch 1/8/32, with and
  without arena reuse.
* the always-on flight recorder vs. the null recorder on the mirror hot
  path.
* one ``train_batch`` at the benchmark's shape (5 conv x 16 filters,
  batch 128) and at the federated shape (1 conv x 2 filters, batch 4):
  absolute median milliseconds, whole step, per layer and the update.
* one Fig. 6 point (SGX-Romulus, CLFLUSHOPT) at 64 and at 256 swaps
  per transaction: absolute best-of seconds of the whole SPS run.
* one AEAD call through each of the engine's four entry points at
  message and bulk sizes, and one served request's worth of session
  work: absolute median microseconds — the fixed cost per call that
  small messages pay and megabyte buffers hide; and one mutually
  attested session setup, the unit a federated aggregator's reboot
  pays once per client.
* one 16-request ``handle_batch`` on ``serve_poisson``'s served model,
  two sessions: absolute median microseconds per request — open,
  batched forward and seal, as one replica serves a full batch.

Every ratio compares two mechanisms that both exist in ``src/``; the
``mirror``, ``train_step``, ``sps``, ``crypto_per_call`` and
``serve_batch`` sections and the ``history`` list are absolute, compared like-for-like only (same host
signature, same knobs).

``benchmarks/bench_wallclock.py`` drives this module and emits
``BENCH_wallclock.json`` at the repository root; CI smoke-runs it so the
harness cannot bit-rot.  Wall-clock numbers are host-dependent — the
JSON records the host's CPU count and backend so regressions are only
compared like-for-like.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.models import build_mnist_cnn, build_sized_cnn
from repro.core.serving import InferenceClient, SecureInferenceService
from repro.core.system import PliniusSystem
from repro.crypto.engine import SEAL_OVERHEAD, EncryptionEngine
from repro.darknet.network import Network
from repro.hw.pmem import FlushInstruction
from repro.romulus.runtime import SGX_SDK
from repro.romulus.sps import SpsConfig, run_sps
from repro.sgx.attestation import (
    InferenceSession,
    QuotingEnclave,
    establish_mutual_session,
)
from repro.sgx.enclave import Enclave
from repro.sgx.rand import SgxRandom
from repro.simtime.clock import SimClock
from repro.simtime.profiles import get_profile

#: Layer counts of the Fig. 7 sweep exercised by the full harness; the
#: largest matches the top of ``benchmarks/bench_fig7_mirroring.py``.
DEFAULT_LAYER_COUNTS = (1, 5, 13)
SMOKE_LAYER_COUNTS = (1,)

BASELINE_FILENAME = "BENCH_wallclock.json"
#: v2 adds per-phase sim+wall splits (``mirror[*].phases``) derived
#: from a separate traced pass over the parallel configuration.
#: v3 adds the ``forward`` section: batched vs per-request inference
#: kernels at batch 1/8/32, with and without arena reuse.
#: v4 adds the ``flight_overhead`` section: the always-on flight
#: recorder vs. the null recorder on the mirror hot path.
#: v5 drops the ``im2col`` and ``train_iteration`` sections and the
#: ``serial_config``/``parallel_config`` blocks; ``mirror`` compares
#: ``crypto_threads`` 1 vs. N and carries no speedup target.
#: v6 adds the ``train_step`` section (absolute ms per ``train_batch``,
#: whole step and per layer) and the append-only ``history`` list.
#: v7 adds the ``crypto_per_call`` section (absolute median µs per
#: engine entry point at four sizes and per session call at 3 KiB) and
#: ``session_roundtrip_us_3k`` in new ``history`` rows.
#: v8 drops the 1-vs-N comparison with the thread pool it measured:
#: ``mirror`` rows carry ``out_seconds`` / ``in_seconds``, and
#: ``host.crypto_threads``, the two ``mirror_*_speedup_largest_model``
#: criteria and ``mirrors_identical`` are gone.
#: v9 adds the ``sps`` section (absolute seconds of one Fig. 6 point at
#: two transaction sizes) and its ``sps_ms_tx*`` cells in new
#: ``history`` rows.
#: v10 adds ``crypto_per_call.attest_session_us`` (median µs per
#: ``establish_mutual_session``) and its cell in new ``history`` rows.
#: v11 adds the ``serve_batch`` section (median µs per request of one
#: 16-request ``handle_batch``) and ``serve_batch_us_b16`` in new
#: ``history`` rows.
SCHEMA_VERSION = 11

#: ``(n_conv_layers, filters, batch, iters)`` of the ``train_step``
#: section: the e2e benchmark's ``train_mnist`` model and the federated
#: clients'.  ``--smoke`` runs a fifth of the iterations.
TRAIN_STEP_SHAPES = ((5, 16, 128, 15), (1, 2, 4, 300))

#: Swaps per transaction of the ``sps`` section's two Fig. 6 points.
SPS_TX_SIZES = (64, 256)

#: ``(plaintext bytes, iters)`` of the ``crypto_per_call`` section: a
#: counter-sized message, a serve request, the largest ciphertext
#: ``decrypt_into`` opens in one shot, and a buffer above it where
#: bandwidth takes over.  ``--smoke`` runs a fifth of the iterations.
CRYPTO_PER_CALL_POINTS = ((64, 2000), (3 << 10, 2000), (64 << 10, 500), (1 << 20, 100))
#: Payload and iterations of its session row (a ``serve_poisson``
#: request is 3 KB).
CRYPTO_SESSION_POINT = (3 << 10, 2000)
#: Iterations of its attested-session row.
ATTEST_SESSION_ITERS = 200

#: ``(n_conv_layers, filters, requests, iters)`` of the ``serve_batch``
#: section: ``serve_poisson``'s served model and batch bound, one
#: sample per request.  ``--smoke`` runs a fifth of the iterations.
SERVE_BATCH_SHAPE = (1, 4, 16, 1000)

#: The CI-gated floor: batched forward at batch 32 must beat a loop of
#: single-sample forwards by at least this factor.
FORWARD_BATCH32_SPEEDUP_TARGET = 3.0

#: The CI-gated ceiling: installing the always-on flight recorder on
#: the mirror hot path must cost no more than this percentage of wall
#: time over the null recorder.
FLIGHT_OVERHEAD_PCT_TARGET = 0.5


def _best_of(repeats: int, fn: Callable[[], None]) -> float:
    """Minimum wall-clock seconds of ``repeats`` invocations of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# Mirror save/restore
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MirrorWallclock:
    """Mirror save / restore wall seconds for one model size."""

    layer_count: int
    model_bytes: int
    buffers: int
    repeats: int
    out_seconds: float
    in_seconds: float
    #: ``{"mirror.encrypt": {"sim_seconds": ..., "wall_seconds": ...}, ...}``
    #: from a *separate* traced save/restore — the timed runs above stay
    #: on the null recorder.
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)


def _sized_system(
    layer_count: int,
    filters: int,
    seed: int,
    recorder=None,
) -> Tuple[PliniusSystem, Network]:
    rng = np.random.default_rng((seed, layer_count))
    per_layer = 4 * (filters * filters * 9 + 4 * filters)
    network = build_sized_cnn(layer_count * per_layer, rng=rng, filters=filters)
    n_buffers = len(network.parameter_buffers())
    sealed_footprint = network.param_bytes + n_buffers * SEAL_OVERHEAD
    pm_size = 2 * (sealed_footprint + (2 << 20)) + 8192
    system = PliniusSystem.create(
        server="emlSGX-PM", seed=seed, pm_size=pm_size, recorder=recorder
    )
    system.enclave.malloc("model", network.param_bytes)
    system.mirror.alloc_mirror_model(network)
    return system, network


def _traced_mirror_phases(
    layer_count: int,
    filters: int,
    seed: int,
) -> Dict[str, Dict[str, float]]:
    """Per-phase sim+wall split of one traced save + cold restore.

    Runs entirely *outside* the timed regions — the timed runs stay on
    the null recorder, so tracing overhead never contaminates the
    wall-clock numbers; the trace spans supply the breakdown instead.
    """
    from repro.obs.export import phase_totals
    from repro.obs.recorder import NULL_RECORDER, TraceRecorder

    recorder = TraceRecorder()
    system, network = _sized_system(layer_count, filters, seed, recorder=recorder)
    # Skip the formatting/allocation spans: trace only save + restore.
    recorder.spans.clear()
    system.mirror.mirror_out(network, 1)
    system.pm.drop_caches()
    system.mirror.mirror_in(network)
    system.clock.recorder = NULL_RECORDER
    return {
        name: {
            "count": data["count"],
            "sim_seconds": data["sim_seconds"],
            "wall_seconds": data["wall_seconds"],
        }
        for name, data in phase_totals(recorder, prefix="mirror.").items()
    }


def measure_mirror_wallclock(
    layer_count: int,
    repeats: int = 3,
) -> MirrorWallclock:
    """Time ``mirror_out`` and ``mirror_in`` on one Fig. 7 model size
    (512 filters per layer)."""
    filters, seed = 512, 7
    system, network = _sized_system(layer_count, filters, seed)
    iteration = [0]

    def save() -> None:
        iteration[0] += 1
        system.mirror.mirror_out(network, iteration[0])

    def restore() -> None:
        system.mirror.mirror_in(network)

    save()  # warm caches outside the timed region
    out_seconds = _best_of(repeats, save)
    restore()
    in_seconds = _best_of(repeats, restore)
    return MirrorWallclock(
        layer_count=layer_count,
        model_bytes=network.param_bytes,
        buffers=len(network.parameter_buffers()),
        repeats=repeats,
        out_seconds=out_seconds,
        in_seconds=in_seconds,
        phases=_traced_mirror_phases(layer_count, filters, seed),
    )


# ----------------------------------------------------------------------
# Batched inference kernels
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ForwardBatchPoint:
    """Per-request vs. batched inference at one batch size."""

    batch: int
    iters: int
    #: Loop of ``batch`` single-sample ``Network.infer`` calls on the
    #: same warm arena (serving without coalescing).
    per_request_seconds: float
    #: One ``Network.infer`` over the whole batch, warm arena.
    batched_seconds: float
    #: One ``Network.infer`` with a fresh arena every call — isolates
    #: what buffer reuse (vs. kernel batching) contributes.
    fresh_arena_seconds: float

    @property
    def speedup(self) -> float:
        return self.per_request_seconds / self.batched_seconds

    @property
    def arena_speedup(self) -> float:
        return self.fresh_arena_seconds / self.batched_seconds


@dataclass(frozen=True)
class ForwardWallclock:
    """Batched-kernel micro-benchmark on the 5-conv MNIST config."""

    n_conv_layers: int
    filters: int
    repeats: int
    points: List[ForwardBatchPoint]

    @property
    def speedup(self) -> float:
        """Batched vs. per-request at the largest batch (the CI gate)."""
        largest = max(self.points, key=lambda p: p.batch)
        return largest.speedup


def measure_forward_wallclock() -> ForwardWallclock:
    """Time per-request vs. batched inference, arena warm and cold."""
    from repro.darknet.arena import TensorArena

    n_conv_layers, filters, batches, iters, repeats, seed = (
        5, 16, (1, 8, 32), 4, 3, 5
    )

    network = build_mnist_cnn(
        n_conv_layers=n_conv_layers,
        filters=filters,
        batch=max(batches),
        rng=np.random.default_rng(seed),
    )
    rng = np.random.default_rng(seed)
    x = rng.random((max(batches), 1, 28, 28)).astype(np.float32)

    points = []
    for batch in batches:
        xb = x[:batch]
        singles = [x[i : i + 1] for i in range(batch)]
        arena = TensorArena()
        network.infer(xb, arena)  # size the arena outside the timing

        def per_request() -> None:
            for _ in range(iters):
                for sample in singles:
                    network.infer(sample, arena)

        def batched() -> None:
            for _ in range(iters):
                network.infer(xb, arena)

        def fresh_arena() -> None:
            for _ in range(iters):
                network.infer(xb, TensorArena())

        per_request()  # warmup
        points.append(
            ForwardBatchPoint(
                batch=batch,
                iters=iters,
                per_request_seconds=_best_of(repeats, per_request),
                batched_seconds=_best_of(repeats, batched),
                fresh_arena_seconds=_best_of(repeats, fresh_arena),
            )
        )
    return ForwardWallclock(
        n_conv_layers=n_conv_layers,
        filters=filters,
        repeats=repeats,
        points=points,
    )


# ----------------------------------------------------------------------
# Flight-recorder overhead
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FlightOverheadWallclock:
    """Mirror hot path with the always-on flight recorder vs. the null.

    Both measurements run the same save+restore cycle on the same
    system, strictly interleaved (null, flight, null, flight, ...) so
    host-load drift hits both recorders alike; each side reports its
    best-of-``repeats`` minimum.
    """

    layer_count: int
    repeats: int
    #: Save+restore cycles folded into each timed null block.
    cycles_per_sample: int
    #: Best-of per-cycle wall time of the hot path under NULL_RECORDER.
    null_seconds: float
    #: ``null_seconds`` plus the composed flight cost per cycle
    #: (``events_per_cycle * hook_seconds``).
    flight_seconds: float
    #: Events the flight ring absorbed across the census cycles — a
    #: sanity witness that the "always on" path actually ran.
    flight_events: int
    #: Ring events one save+restore cycle emits (census, deterministic).
    events_per_cycle: float
    #: Best-of per-call cost of one unguarded flight hook.
    hook_seconds: float

    @property
    def overhead_pct(self) -> float:
        if self.null_seconds <= 0.0:
            return 0.0
        return 100.0 * (
            self.flight_seconds - self.null_seconds
        ) / self.null_seconds


def measure_flight_overhead_wallclock() -> FlightOverheadWallclock:
    """Measure the always-on flight recorder's cost on the mirror path.

    A direct A/B timing of whole cycles cannot resolve this overhead:
    one save+restore cycle emits ~150 ring events at ~200 ns each
    (~0.3% of the cycle), while back-to-back cycle timings on a shared
    host vary by several percent.  So the measurement is composed from
    three quantities, each resolvable on its own:

    1. the null hot-path cycle time (best-of minima over multi-cycle
       blocks under ``NULL_RECORDER``);
    2. the number of ring events one cycle emits — a deterministic
       census under ``FlightRecorder``;
    3. the per-call cost of one unguarded flight hook, timed over a
       tight ``hook_calls`` loop (sub-nanosecond resolution).

    ``flight_seconds = null_seconds + events_per_cycle * hook_seconds``,
    i.e. the flight path is the null path plus exactly the hook calls it
    adds — the hooks mutate only the recorder's own ring, so they have
    no other effect on the hot path.
    """
    from repro.obs.flight import FlightRecorder
    from repro.obs.recorder import NULL_RECORDER

    layer_count, filters, repeats, cycles_per_sample, hook_calls, seed = (
        2, 512, 7, 4, 100_000, 13
    )
    system, network = _sized_system(layer_count, filters, seed)
    flight = FlightRecorder()
    iteration = [0]

    def cycle() -> None:
        iteration[0] += 1
        system.mirror.mirror_out(network, iteration[0])
        system.mirror.mirror_in(network)

    cycle()  # warm caches outside the timed region

    # (1) null hot-path cycle time.
    system.clock.recorder = NULL_RECORDER
    best_null = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(cycles_per_sample):
            cycle()
        best_null = min(best_null, time.perf_counter() - start)
    null_seconds = best_null / cycles_per_sample

    # (2) events-per-cycle census (deterministic: same stores, same
    # flushes, same transitions every cycle).
    census_cycles = 2
    system.clock.recorder = flight
    before = flight.flight.total
    for _ in range(census_cycles):
        cycle()
    system.clock.recorder = NULL_RECORDER
    flight_events = flight.flight.total - before
    events_per_cycle = flight_events / census_cycles

    # (3) per-call hook cost, over the hook the hot path hits most.
    best_hook = float("inf")
    count = flight.count
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(hook_calls):
            count("pm.bytes_written", 64)
        best_hook = min(best_hook, time.perf_counter() - start)
    hook_seconds = best_hook / hook_calls

    return FlightOverheadWallclock(
        layer_count=layer_count,
        repeats=repeats,
        cycles_per_sample=cycles_per_sample,
        null_seconds=null_seconds,
        flight_seconds=null_seconds + events_per_cycle * hook_seconds,
        flight_events=flight_events,
        events_per_cycle=events_per_cycle,
        hook_seconds=hook_seconds,
    )


# ----------------------------------------------------------------------
# Training step
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LayerStepTime:
    """Median wall milliseconds one layer spends in a training step."""

    index: int
    kind: str
    forward_ms: float
    backward_ms: float


@dataclass(frozen=True)
class TrainStepWallclock:
    """One ``Network.train_batch`` at one model / batch shape."""

    n_conv_layers: int
    filters: int
    batch: int
    iters: int
    #: Median over ``iters`` whole ``train_batch`` calls.
    step_ms: float
    #: From a separate pass that unrolls the same step over the public
    #: layer API, so the probes never sit inside ``step_ms``.
    layers: List[LayerStepTime]
    #: ``Network.update`` (SGD over every layer) in that same pass.
    update_ms: float


def _median_ms(samples: Sequence[float]) -> float:
    return statistics.median(samples) * 1e3 if samples else 0.0


def measure_train_step_wallclock(
    n_conv_layers: int,
    filters: int,
    batch: int,
    iters: int,
) -> TrainStepWallclock:
    """Absolute cost of a training step: no twin, no ratio."""
    seed = 9
    network = build_mnist_cnn(
        n_conv_layers=n_conv_layers,
        filters=filters,
        batch=batch,
        rng=np.random.default_rng(seed),
    )
    rng = np.random.default_rng(seed + 1)
    x = rng.random((batch, 1, 28, 28), dtype=np.float32)
    y = np.eye(10, dtype=np.float32)[rng.integers(0, 10, batch)]
    clock = time.perf_counter
    for _ in range(2):  # first-touch pages, BLAS start-up
        network.train_batch(x, y)

    steps = []
    for _ in range(iters):
        start = clock()
        network.train_batch(x, y)
        steps.append(clock() - start)

    layers = network.layers
    forward: List[List[float]] = [[] for _ in layers]
    backward: List[List[float]] = [[] for _ in layers]
    update: List[float] = []
    for _ in range(iters):
        out = x
        for index, layer in enumerate(layers):
            start = clock()
            out = layer.forward(out)
            forward[index].append(clock() - start)
        network.softmax.loss(y)
        delta = network.softmax.backward()
        for index in reversed(range(1, len(layers) - 1)):
            start = clock()
            delta = layers[index].backward(delta)
            backward[index].append(clock() - start)
        start = clock()
        layers[0].accumulate(delta)  # as Network.backward: no input delta
        backward[0].append(clock() - start)
        start = clock()
        network.update()
        update.append(clock() - start)
    return TrainStepWallclock(
        n_conv_layers=n_conv_layers,
        filters=filters,
        batch=batch,
        iters=iters,
        step_ms=_median_ms(steps),
        layers=[
            LayerStepTime(
                index=index,
                kind=layer.kind,
                forward_ms=_median_ms(forward[index]),
                backward_ms=_median_ms(backward[index]),
            )
            for index, layer in enumerate(layers)
        ],
        update_ms=_median_ms(update),
    )


# ----------------------------------------------------------------------
# Per-call crypto cost
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CryptoCallPoint:
    """Median wall microseconds per engine call at one plaintext size."""

    size: int
    iters: int
    seal_us: float
    unseal_us: float
    seal_into_us: float
    unseal_from_us: float


@dataclass(frozen=True)
class SessionCallPoint:
    """Median wall microseconds of a request's two single-record
    session calls: ``open_request_into`` on the way in, ``seal_response``
    on the way out.  Measured the same way since schema 7, so the
    history column stays comparable; a served batch opens and seals
    through ``MuxRecords.open_requests`` / ``seal_responses`` instead,
    and ``serve_batch`` times that."""

    size: int
    iters: int
    seal_response_us: float
    open_request_into_us: float

    @property
    def roundtrip_us(self) -> float:
        return round(self.seal_response_us + self.open_request_into_us, 3)


@dataclass(frozen=True)
class CryptoPerCallWallclock:
    """Fixed cost of the AEAD path, engine and session."""

    engine: List[CryptoCallPoint]
    session: SessionCallPoint
    attest_session_iters: int
    #: Median µs per ``establish_mutual_session``: two quotes, two
    #: key pairs, two exchanges and the key derivation.
    attest_session_us: float


def _median_us(iters: int, call: Callable[[int], object]) -> float:
    """Median microseconds of ``call(i)``, each call timed on its own
    (the two clock reads, ≈ 0.1 µs, are inside the figure)."""
    clock = time.perf_counter
    samples = []
    for i in range(iters):
        start = clock()
        call(i)
        samples.append(clock() - start)
    return round(statistics.median(samples) * 1e6, 3)


def measure_crypto_per_call_wallclock(smoke: bool = False) -> CryptoPerCallWallclock:
    """Absolute cost per call: no twin, no ratio."""
    scale = 5 if smoke else 1
    key = bytes(range(16))
    aad = b"crypto-per-call"
    # A fixed IV keeps the IV draw (``os.urandom``: a syscall that
    # would double the 64 B figure) out of the AEAD cost.
    iv = bytes(12)
    engine = EncryptionEngine(key)
    points = []
    for size, iters in CRYPTO_PER_CALL_POINTS:
        iters //= scale
        plaintext = bytes(size)
        sealed = engine.seal(plaintext, aad=aad, iv=iv)
        slot = bytearray(size + SEAL_OVERHEAD)
        opened = bytearray(size)
        points.append(
            CryptoCallPoint(
                size=size,
                iters=iters,
                seal_us=_median_us(
                    iters, lambda _: engine.seal(plaintext, aad=aad, iv=iv)
                ),
                unseal_us=_median_us(iters, lambda _: engine.unseal(sealed, aad=aad)),
                seal_into_us=_median_us(
                    iters, lambda _: engine.seal_into(plaintext, slot, aad=aad, iv=iv)
                ),
                unseal_from_us=_median_us(
                    iters, lambda _: engine.unseal_from(sealed, opened, aad=aad)
                ),
            )
        )
    size, iters = CRYPTO_SESSION_POINT
    iters //= scale
    session = InferenceSession(1, key)
    payload = bytes(size)
    requests = [session.seal_request(seq, payload) for seq in range(iters)]
    staged = bytearray(size)
    attest_iters = ATTEST_SESSION_ITERS // scale
    profile = get_profile("sgx-emlPM").sgx
    aggregator = Enclave(SimClock(), profile)
    client = Enclave(SimClock(), profile)
    quoting = QuotingEnclave(b"platform-key")
    rand_client, rand_aggregator = SgxRandom(b"c"), SgxRandom(b"a")
    return CryptoPerCallWallclock(
        engine=points,
        session=SessionCallPoint(
            size=size,
            iters=iters,
            seal_response_us=_median_us(
                iters, lambda seq: session.seal_response(seq, payload)
            ),
            open_request_into_us=_median_us(
                iters,
                lambda seq: session.open_request_into(seq, requests[seq], staged),
            ),
        ),
        attest_session_iters=attest_iters,
        attest_session_us=_median_us(
            attest_iters,
            lambda session_id: establish_mutual_session(
                client,
                aggregator,
                quoting,
                client.measurement,
                aggregator.measurement,
                rand_client,
                rand_aggregator,
                session_id,
            ),
        ),
    )


# ----------------------------------------------------------------------
# One served batch
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeBatchWallclock:
    """Median wall microseconds per request of one served batch."""

    requests: int
    iters: int
    us_per_request: float


def measure_serve_batch_wallclock(smoke: bool = False) -> ServeBatchWallclock:
    """Time ``handle_batch`` on the same sealed batch, arena warm: the
    requests alternate between two sessions, as ``serve_poisson``'s do
    (the same ``(session, seq)`` is opened and sealed every time, which
    costs what a fresh one does)."""
    conv, filters, requests, iters = SERVE_BATCH_SHAPE
    iters //= 5 if smoke else 1
    enclave = Enclave(SimClock(), get_profile("sgx-emlPM").sgx)
    network = build_mnist_cnn(
        n_conv_layers=conv, filters=filters, batch=requests,
        rng=np.random.default_rng(0),
    )
    service = SecureInferenceService(network, enclave, QuotingEnclave(b"platform-key"))
    clients = [InferenceClient(enclave.measurement, seed=sid) for sid in (1, 2)]
    for sid, client in enumerate(clients, start=1):
        service.open_session(client, sid)
    images = np.random.default_rng(1).random((requests, 1, 28, 28), dtype=np.float32)
    items = []
    for i in range(requests):
        client = clients[i % 2]
        items.append((client.session_id, *client.seal_request_seq(images[i : i + 1])))
    service.handle_batch(items)  # sizes the arena
    batch_us = _median_us(iters, lambda _: service.handle_batch(items))
    return ServeBatchWallclock(
        requests=requests, iters=iters, us_per_request=round(batch_us / requests, 3)
    )


# ----------------------------------------------------------------------
# SPS (Fig. 6)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SpsWallclock:
    """Best-of wall seconds of one Fig. 6 point."""

    tx_size: int
    repeats: int
    seconds: float


def measure_sps_wallclock(tx_size: int, repeats: int) -> SpsWallclock:
    """Time one Fig. 6 point as ``repro fig6`` runs it: SGX-Romulus on
    sgx-emlPM, CLFLUSHOPT, a 10 MiB array and 2048 swaps."""
    config = SpsConfig(
        tx_size=tx_size,
        target_swaps=2048,
        flush_instruction=FlushInstruction.CLFLUSHOPT,
    )
    profile = get_profile("sgx-emlPM")
    seconds = _best_of(repeats, lambda: run_sps(profile, SGX_SDK, config))
    return SpsWallclock(tx_size=tx_size, repeats=repeats, seconds=seconds)


# ----------------------------------------------------------------------
# Top-level runner + baseline file
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WallclockReport:
    """Everything the regression baseline records."""

    smoke: bool
    cpu_count: int
    crypto_backend: str
    mirror: List[MirrorWallclock]
    forward: ForwardWallclock
    flight_overhead: FlightOverheadWallclock
    train_step: List[TrainStepWallclock]
    sps: List[SpsWallclock]
    crypto_per_call: CryptoPerCallWallclock
    serve_batch: ServeBatchWallclock

    @property
    def largest_mirror(self) -> MirrorWallclock:
        return max(self.mirror, key=lambda r: r.model_bytes)

    def history_row(self, label: str) -> dict:
        """This run as one row of the baseline's ``history`` list."""
        largest = self.largest_mirror
        row = {"label": label, "cpu_count": self.cpu_count}
        for step in self.train_step:
            row[f"train_step_ms_b{step.batch}"] = round(step.step_ms, 3)
        row["mirror_out_ms"] = round(largest.out_seconds * 1e3, 3)
        row["mirror_in_ms"] = round(largest.in_seconds * 1e3, 3)
        for point in self.sps:
            row[f"sps_ms_tx{point.tx_size}"] = round(point.seconds * 1e3, 3)
        row["session_roundtrip_us_3k"] = self.crypto_per_call.session.roundtrip_us
        row["attest_session_us"] = self.crypto_per_call.attest_session_us
        row[f"serve_batch_us_b{self.serve_batch.requests}"] = (
            self.serve_batch.us_per_request
        )
        return row

    def to_dict(self) -> dict:
        payload = {
            "schema": SCHEMA_VERSION,
            "generated_by": "benchmarks/bench_wallclock.py",
            "smoke": self.smoke,
            "host": {
                "cpu_count": self.cpu_count,
                "crypto_backend": self.crypto_backend,
            },
            "mirror": [asdict(r) for r in self.mirror],
            "forward": {
                "n_conv_layers": self.forward.n_conv_layers,
                "filters": self.forward.filters,
                "repeats": self.forward.repeats,
                "points": [
                    {
                        **asdict(p),
                        "speedup": round(p.speedup, 3),
                        "arena_speedup": round(p.arena_speedup, 3),
                    }
                    for p in self.forward.points
                ],
                "speedup": round(self.forward.speedup, 3),
            },
            "flight_overhead": {
                **asdict(self.flight_overhead),
                "overhead_pct": round(self.flight_overhead.overhead_pct, 3),
            },
            "train_step": [asdict(step) for step in self.train_step],
            "sps": [asdict(point) for point in self.sps],
            "crypto_per_call": {
                "engine": [asdict(p) for p in self.crypto_per_call.engine],
                "session": {
                    **asdict(self.crypto_per_call.session),
                    "roundtrip_us": self.crypto_per_call.session.roundtrip_us,
                },
                "attest_session_iters": self.crypto_per_call.attest_session_iters,
                "attest_session_us": self.crypto_per_call.attest_session_us,
            },
            "serve_batch": asdict(self.serve_batch),
        }
        payload["criteria"] = {
            "forward_batch32_speedup": round(self.forward.speedup, 3),
            "forward_batch32_speedup_target": FORWARD_BATCH32_SPEEDUP_TARGET,
            "flight_overhead_pct": round(self.flight_overhead.overhead_pct, 3),
            "flight_overhead_pct_target": FLIGHT_OVERHEAD_PCT_TARGET,
        }
        return payload


def run_wallclock(
    smoke: bool = False,
    layer_counts: Optional[Sequence[int]] = None,
) -> WallclockReport:
    """Run every wall-clock measurement; ``smoke`` shrinks all knobs."""
    from repro.crypto.backend import default_backend

    if layer_counts is None:
        layer_counts = SMOKE_LAYER_COUNTS if smoke else DEFAULT_LAYER_COUNTS
    mirror_repeats = 1 if smoke else 3
    mirror = [
        measure_mirror_wallclock(n, repeats=mirror_repeats)
        for n in layer_counts
    ]
    # The forward section is cheap (~1.5 s) and its speedup ratio gates
    # CI, so it runs at full iters/repeats even under --smoke: a
    # single-repeat measurement on a loaded runner wobbles around the
    # 3.0x floor.
    forward = measure_forward_wallclock()
    # The flight-overhead ratio gates CI; like the forward section it
    # runs at full repeats even under --smoke, since a single pair of
    # measurements on a loaded runner wobbles around the 0.5% ceiling.
    flight_overhead = measure_flight_overhead_wallclock()
    train_step = [
        measure_train_step_wallclock(
            conv, filters, batch, iters=iters // 5 if smoke else iters
        )
        for conv, filters, batch, iters in TRAIN_STEP_SHAPES
    ]
    return WallclockReport(
        smoke=smoke,
        cpu_count=os.cpu_count() or 1,
        crypto_backend=default_backend().name,
        mirror=mirror,
        forward=forward,
        flight_overhead=flight_overhead,
        train_step=train_step,
        sps=[
            measure_sps_wallclock(tx_size, repeats=1 if smoke else 3)
            for tx_size in SPS_TX_SIZES
        ],
        crypto_per_call=measure_crypto_per_call_wallclock(smoke),
        serve_batch=measure_serve_batch_wallclock(smoke),
    )


def write_baseline(
    report: WallclockReport,
    path: str,
    history: Sequence[dict] = (),
    label: Optional[str] = None,
) -> dict:
    """Serialize ``report`` to ``path``; returns the written payload.

    ``history`` is the list the previous baseline carried — it is
    append-only, so it is written back whole — and ``label`` names the
    row this run adds to it (none without a label).
    """
    payload = report.to_dict()
    payload["history"] = list(history)
    if label is not None:
        payload["history"].append(report.history_row(label))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return payload


def load_baseline(path: str) -> Optional[dict]:
    """Read a previously written baseline, or None if absent."""
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
