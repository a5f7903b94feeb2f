"""The Plinius mirroring module (Section IV + Algorithm 3).

Creates and maintains an *encrypted mirror copy* of the enclave model
in persistent memory:

* the PM model is a **linked list of persistent layer nodes** ("so as to
  simplify future modifications to the model's structure");
* each layer node points at up to :data:`MAX_BUFFERS` sealed parameter
  buffers (weights, biases, scales, rolling mean/variance — 5 for a
  batch-normalized convolution, hence 140 B of AES-GCM metadata per
  layer);
* ``mirror_out`` encrypts the enclave model's parameters and writes them
  into the PM mirror inside **one Romulus transaction** (a crash cannot
  leave a half-updated mirror);
* ``mirror_in`` reads the sealed buffers from PM into the enclave and
  decrypts them into the enclave model, restoring the iteration counter.

Timing is split into the phases Table Ia reports: encrypt vs. write for
saves, read vs. decrypt for restores.

Sealing pipeline
----------------
Every parameter buffer is one independent AES-GCM job.  Sealing writes
``ciphertext ‖ IV ‖ MAC`` straight into the buffer's PM slot via
:meth:`~repro.crypto.engine.EncryptionEngine.seal_into` over a
``region.staging_view`` (the transaction accounts the range with
``write_prefilled``; in-place-sealed slots are volatile until that
flush, so a crash anywhere still recovers to the pre-transaction
mirror).  Restores decrypt from a readonly view of the PM image
directly into the live numpy parameter arrays via
:meth:`~repro.crypto.engine.EncryptionEngine.unseal_from`.

The jobs run inline, in buffer order: each buffer is touched in the
enclave (saves), charged ``clock.advance(cost(nbytes))`` and then
sealed or unsealed, so IVs are drawn in buffer order and the phase's
simulated time is the per-buffer sum accumulated in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.crypto import records
from repro.crypto.engine import SEAL_OVERHEAD, EncryptionEngine
from repro.crypto.records import BUFFER_REF, LAYER_FIXED, MODEL_HEADER
from repro.darknet.network import Network
from repro.romulus.alloc import PersistentHeap
from repro.romulus.region import RomulusRegion
from repro.sgx.enclave import Enclave
from repro.simtime.profiles import ServerProfile

#: Root-directory slot holding the persistent model.
MODEL_ROOT = 0
#: Upper bound on parameter buffers per layer node (Darknet max is 5).
MAX_BUFFERS = 8

#: Sentinel iteration marking a mirror that was allocated but never
#: written.  A crash between allocation and the first ``mirror_out``
#: must not leave a "restorable" mirror whose slots hold unsealed
#: garbage — restoring one would fail every MAC check on resume.
UNSEALED_ITERATION = (1 << 64) - 1


@dataclass(frozen=True)
class MirrorTiming:
    """Per-phase simulated seconds of one mirror operation."""

    crypto_seconds: float  # encrypt (save) or decrypt (restore)
    storage_seconds: float  # PM write (save) or PM read (restore)

    @property
    def total(self) -> float:
        return self.crypto_seconds + self.storage_seconds


class MirrorError(RuntimeError):
    """Raised for structural mismatches between enclave and PM models."""


@dataclass
class _BufferJob:
    """One parameter buffer queued for sealing."""

    name: str
    #: Plaintext size — what the cost model charges.
    nbytes: int
    #: The contiguous enclave-side source of the seal.
    plain: memoryview
    #: DRAM staging when the PM slot does not fit; ``None`` for a seal
    #: into ``slot``, staged just before it runs.
    sealed: Optional[bytearray]
    #: Main-twin offset of the slot a seal writes in place.
    slot: int = 0


class MirrorModule:
    """Synchronizes an enclave model with its encrypted PM mirror."""

    def __init__(
        self,
        region: RomulusRegion,
        heap: PersistentHeap,
        engine: EncryptionEngine,
        enclave: Enclave,
        profile: ServerProfile,
    ) -> None:
        self.region = region
        self.heap = heap
        self.engine = engine
        self.enclave = enclave
        self.profile = profile
        self.clock = region.device.clock

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def exists(self) -> bool:
        """Whether a persistent mirror model is present."""
        return self.region.root(MODEL_ROOT) != 0

    def _model_header(self) -> tuple:
        """``(iteration, num_layers, head)`` of the PM mirror."""
        self._require_model()
        header = self.region.read(self.region.root(MODEL_ROOT), MODEL_HEADER.size)
        return MODEL_HEADER.unpack(header)

    def stored_iteration(self) -> int:
        """Iteration counter recorded in the PM mirror."""
        return self._model_header()[0]

    def has_snapshot(self) -> bool:
        """Whether the mirror holds at least one sealed snapshot.

        False between :meth:`alloc_mirror_model` and the first
        :meth:`mirror_out`: the slots exist but were never written, so
        there is nothing to restore (and trying would fail every MAC).
        """
        return self.exists() and self.stored_iteration() != UNSEALED_ITERATION

    def stored_num_layers(self) -> int:
        """Number of layer nodes in the PM mirror's linked list."""
        return self._model_header()[1]

    def _require_model(self) -> None:
        if not self.exists():
            raise MirrorError("no mirror model allocated on PM")

    def _check_layers(self, network: Network) -> None:
        self._require_model()
        plan = self._layer_buffer_plan(network)
        if len(plan) != self.stored_num_layers():
            raise MirrorError(
                f"enclave model has {len(plan)} parameterized layers, "
                f"PM mirror has {self.stored_num_layers()}"
            )

    def _layer_buffer_plan(self, network: Network):
        """Per-layer list of (name, nbytes) for layers that have buffers."""
        plan = []
        for layer in network.layers:
            buffers = layer.parameter_buffers()
            if not buffers:
                continue
            if len(buffers) > MAX_BUFFERS:
                raise MirrorError(
                    f"layer {layer.kind} has {len(buffers)} buffers; "
                    f"mirror supports {MAX_BUFFERS}"
                )
            plan.append([(name, arr.nbytes) for name, arr in buffers])
        return plan

    # ------------------------------------------------------------------
    # Algorithm 3: alloc_mirror_model
    # ------------------------------------------------------------------
    def alloc_mirror_model(self, network: Network) -> None:
        """Allocate the persistent linked-list skeleton for ``network``.

        One transaction allocates the model header, every layer node and
        every sealed-buffer slot (Algorithm 3); buffer contents are
        written by the first :meth:`mirror_out`.
        """
        if self.exists():
            raise MirrorError("mirror model already allocated")
        plan = self._layer_buffer_plan(network)
        with self.region.begin_transaction() as tx:
            node_size = LAYER_FIXED.size + MAX_BUFFERS * BUFFER_REF.size
            head = 0
            prev_node = 0
            for buffers in plan:
                node = self.heap.pmalloc(tx, node_size)
                refs = b""
                for _, nbytes in buffers:
                    sealed_size = nbytes + SEAL_OVERHEAD
                    buf_off = self.heap.pmalloc(tx, sealed_size)
                    refs += BUFFER_REF.pack(sealed_size, buf_off)
                refs = refs.ljust(MAX_BUFFERS * BUFFER_REF.size, b"\x00")
                tx.write(node, LAYER_FIXED.pack(0, len(buffers)) + refs)
                if prev_node:
                    tx.write_u64(prev_node, node)  # prev.next = node
                else:
                    head = node
                prev_node = node
            model = self.heap.pmalloc(tx, MODEL_HEADER.size)
            tx.write(
                model,
                MODEL_HEADER.pack(UNSEALED_ITERATION, len(plan), head),
            )
            tx.write_u64(self.region.root_offset(MODEL_ROOT), model)

    def _buffer_refs(self, node: int, num_buffers: int):
        raw = self.region.read(
            node + LAYER_FIXED.size, num_buffers * BUFFER_REF.size
        )
        return [
            BUFFER_REF.unpack_from(raw, i * BUFFER_REF.size)
            for i in range(num_buffers)
        ]

    # ------------------------------------------------------------------
    # Sealing pipeline helpers
    # ------------------------------------------------------------------
    def _mirror_layout(self, model: int):
        """Walk the persistent layer list once: header + per-layer refs."""
        iteration, num_layers, head = MODEL_HEADER.unpack(
            self.region.read(model, MODEL_HEADER.size)
        )
        layout = []
        node = head
        while node:
            nxt, nbuf = LAYER_FIXED.unpack(
                self.region.read(node, LAYER_FIXED.size)
            )
            layout.append(self._buffer_refs(node, nbuf))
            node = nxt
        return num_layers, head, layout

    def _seal_jobs(self, network: Network, layout) -> List[List[_BufferJob]]:
        """One job per parameter buffer, in rows matching ``layout``.

        A buffer whose PM slot has the expected sealed size is sealed in
        place, through a writable staging view :meth:`_seal_all` takes
        just before the seal (staging saves the slot's pre-image, which
        is then still hot); on any shape mismatch it is staged in DRAM
        instead and the write phase raises the structural error.
        """
        rows: List[List[_BufferJob]] = []
        for layer in network.layers:
            buffers = layer.parameter_buffers()
            if not buffers:
                continue
            refs = layout[len(rows)]
            row = []
            for i, (name, arr) in enumerate(buffers):
                contig = np.ascontiguousarray(arr, np.float32)
                sealed_size = contig.nbytes + SEAL_OVERHEAD
                in_place = i < len(refs) and refs[i][0] == sealed_size
                row.append(
                    _BufferJob(
                        name=name,
                        nbytes=contig.nbytes,
                        plain=memoryview(contig).cast("B"),
                        sealed=None if in_place else bytearray(sealed_size),
                        slot=refs[i][1] if in_place else 0,
                    )
                )
            rows.append(row)
        return rows

    def _seal_all(self, jobs: List[_BufferJob]) -> None:
        """Charge and run the AES-GCM work of the encrypt phase."""
        cost = self.profile.crypto.encrypt_time
        for job in jobs:
            # Reading the model out of (possibly paged) EPC memory.
            self.enclave.touch(job.nbytes)
            self.clock.advance(cost(job.nbytes))
            sealed = job.sealed
            if sealed is None:
                # Seal in place: the write phase accounts this exact
                # range via tx.write_prefilled.
                sealed = self.region.staging_view(
                    job.slot, job.nbytes + SEAL_OVERHEAD
                )
            records.seal_param(self.engine, job.plain, sealed, job.name)

    # ------------------------------------------------------------------
    # Algorithm 3: mirror_out / mirror_in
    # ------------------------------------------------------------------
    def mirror_out(self, network: Network, iteration: int) -> MirrorTiming:
        """Encrypt the enclave model and update its PM mirror atomically."""
        self._check_layers(network)

        rec = self.clock.recorder
        outer = (
            rec.begin(
                "mirror.out",
                self.clock.now(),
                category="mirror",
                args={"iteration": iteration},
            )
            if rec.enabled
            else None
        )
        try:
            # Walk the persistent layer list up front so the buffers can
            # be sealed directly into their PM slots; the traversal
            # reads are storage work and counted into the write phase.
            model = self.region.root(MODEL_ROOT)
            with self.clock.stopwatch("mirror.layout") as layout_span:
                num_layers, head, layout = self._mirror_layout(model)

            # Phase 1 — encrypt in the enclave (Table Ia "Encrypt").
            with self.clock.stopwatch("mirror.encrypt") as encrypt_span:
                rows = self._seal_jobs(network, layout)
                self._seal_all([job for row in rows for job in row])

            # Phase 2 — write to PM in one durable transaction ("Write").
            prefilled: List[tuple] = []
            with self.clock.stopwatch("mirror.write") as write_span:
                try:
                    with self.region.begin_transaction() as tx:
                        tx.write(
                            model,
                            MODEL_HEADER.pack(iteration, num_layers, head),
                        )
                        for refs, row in zip(layout, rows):
                            if len(refs) != len(row):
                                raise MirrorError(
                                    f"PM layer node has {len(refs)} buffers, "
                                    f"enclave layer has {len(row)}"
                                )
                            for (size, offset), job in zip(refs, row):
                                if job.sealed is None:
                                    tx.write_prefilled(offset, size)
                                    prefilled.append((offset, size))
                                else:
                                    raise MirrorError(
                                        f"sealed buffer is {len(job.sealed)} "
                                        f"bytes, PM slot holds {size}"
                                    )
                except BaseException:
                    # The aborting transaction restored every *logged*
                    # range from the back twin, but in-place-sealed slots
                    # that were not yet accounted still hold new bytes in
                    # the volatile image.  Best-effort restore so a
                    # caller that survives the exception sees the old
                    # mirror; a crash/recover wipes them regardless (they
                    # were never flushed).
                    try:
                        self._restore_prefilled_slots(layout, prefilled)
                    except BaseException:
                        pass  # second fault: caller must crash+recover
                    raise
        finally:
            if outer is not None:
                rec.end(outer, self.clock.now())
        if rec.enabled:
            # Mergeable latency histograms of the mirror-out phases —
            # what the `repro report` percentile tables are built from.
            rec.observe("mirror.encrypt", encrypt_span.elapsed)
            rec.observe(
                "mirror.write", layout_span.elapsed + write_span.elapsed
            )
        return MirrorTiming(
            crypto_seconds=encrypt_span.elapsed,
            storage_seconds=layout_span.elapsed + write_span.elapsed,
        )

    def _restore_prefilled_slots(self, layout, accounted) -> None:
        """Roll back in-place-sealed slots after an aborted mirror_out.

        Ranges already accounted through ``write_prefilled`` were logged
        and restored by the abort; every other slot that may have been
        sealed in place is re-copied from the back twin.
        """
        device = self.region.device
        done = set(accounted)
        for refs in layout:
            for size, offset in refs:
                if (offset, size) in done:
                    continue
                device.copy_within(
                    self.region.back_base + offset,
                    self.region.main_base + offset,
                    size,
                )

    def _unseal_jobs(self, network: Network, sealed_layers) -> List[tuple]:
        """One ``(layer, name, array, sealed)`` job per mirrored buffer."""
        jobs: List[tuple] = []
        layer_iter = iter(sealed_layers)
        for layer in network.layers:
            buffers = layer.parameter_buffers()
            if not buffers:
                continue
            blobs = next(layer_iter)
            if len(blobs) != len(buffers):
                raise MirrorError(
                    f"layer {layer.kind}: {len(buffers)} buffers "
                    f"expected, {len(blobs)} mirrored"
                )
            jobs.extend(
                (layer, name, arr, blob)
                for (name, arr), blob in zip(buffers, blobs)
            )
        return jobs

    def mirror_in(self, network: Network) -> MirrorTiming:
        """Restore the enclave model from its PM mirror (decrypt inside).

        Sets ``network.iteration`` to the mirrored counter so training
        "resumes where it left off".
        """
        self._check_layers(network)
        if not self.has_snapshot():
            raise MirrorError(
                "mirror allocated but never written: no snapshot to restore"
            )
        model = self.region.root(MODEL_ROOT)
        iteration, _, head = MODEL_HEADER.unpack(
            self.region.read(model, MODEL_HEADER.size)
        )

        rec = self.clock.recorder
        outer = (
            rec.begin("mirror.in", self.clock.now(), category="mirror")
            if rec.enabled
            else None
        )
        try:
            # Phase 1 — read sealed buffers from PM into the enclave
            # ("Read"): readonly views of the PM image, so the decrypt
            # below needs no host-side copy.
            with self.clock.stopwatch("mirror.read") as read_span:
                sealed_layers = []
                node = head
                while node:
                    nxt, nbuf = LAYER_FIXED.unpack(
                        self.region.read(node, LAYER_FIXED.size)
                    )
                    blobs = []
                    for size, offset in self._buffer_refs(node, nbuf):
                        blobs.append(self.region.read_view(offset, size))
                        self.enclave.copy_in(size)
                    sealed_layers.append(blobs)
                    node = nxt

            # Phase 2 — decrypt into the enclave model ("Decrypt").
            with self.clock.stopwatch("mirror.decrypt") as decrypt_span:
                cost = self.profile.crypto.decrypt_time
                for layer, name, arr, blob in self._unseal_jobs(
                    network, sealed_layers
                ):
                    self.clock.advance(cost(len(blob) - SEAL_OVERHEAD))
                    records.open_param(self.engine, blob, layer, name, arr)
        finally:
            if outer is not None:
                rec.end(outer, self.clock.now())
        if rec.enabled:
            rec.observe("mirror.read", read_span.elapsed)
            rec.observe("mirror.decrypt", decrypt_span.elapsed)
        network.iteration = iteration
        return MirrorTiming(
            crypto_seconds=decrypt_span.elapsed,
            storage_seconds=read_span.elapsed,
        )
