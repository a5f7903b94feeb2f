"""The PM-data module: encrypted, byte-addressable training data in PM.

Section V ("Initial dataset loading to PM"): training data is loaded
into a persistent data matrix *once*; after a crash it is instantly
accessible again — no re-reading from secondary storage.  Rows are
sealed individually with AES-GCM (a row = one sample's features plus its
one-hot label), so each training iteration decrypts exactly one batch of
rows into enclave memory (Algorithm 2's ``decrypt_pm_data``), which is
the overhead Fig. 8 quantifies.

A plaintext mode (``encrypted=False``) exists solely as the Fig. 8
baseline.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.crypto import records
from repro.crypto.engine import SEAL_OVERHEAD, EncryptionEngine
from repro.crypto.records import DATA_HEADER
from repro.darknet.data import DataMatrix
from repro.romulus.alloc import PersistentHeap
from repro.romulus.region import RomulusRegion
from repro.sgx.enclave import Enclave
from repro.simtime.profiles import ServerProfile

#: Root-directory slot holding the persistent data matrix.
DATA_ROOT = 1


class PmDataError(RuntimeError):
    """Raised for missing or mismatched persistent data."""


class PmDataModule:
    """Owns the persistent training-data matrix."""

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
    def exists(self) -> bool:
        """Whether training data is already resident in PM."""
        return self.region.root(DATA_ROOT) != 0

    def _header(self) -> Tuple[int, int, int, int, int, int, int]:
        if not self.exists():
            raise PmDataError("no training data loaded in PM")
        raw = self.region.read(self.region.root(DATA_ROOT), DATA_HEADER.size)
        return DATA_HEADER.unpack(raw)

    @property
    def num_rows(self) -> int:
        return self._header()[0]

    @property
    def shape(self) -> Tuple[int, int, int]:
        """(rows, features, classes)."""
        rows, features, classes, *_ = self._header()
        return rows, features, classes

    @property
    def encrypted(self) -> bool:
        return bool(self._header()[6])

    # ------------------------------------------------------------------
    def load(self, data: DataMatrix, encrypted: bool = True) -> int:
        """Move a volatile data matrix into PM; returns bytes used.

        Done once per deployment (Algorithm 2's
        ``ocall_load_data_in_pm`` path): each row is sealed in the
        enclave and written into the persistent matrix within
        transactions.
        """
        if self.exists():
            raise PmDataError("training data already resident in PM")
        row_plain = (data.features + data.classes) * 4
        row_stored = row_plain + SEAL_OVERHEAD if encrypted else row_plain
        crypto = self.profile.crypto

        with self.region.begin_transaction() as tx:
            rows_offset = self.heap.pmalloc(tx, len(data) * row_stored)
            header = self.heap.pmalloc(tx, DATA_HEADER.size)
            tx.write(
                header,
                DATA_HEADER.pack(
                    len(data),
                    data.features,
                    data.classes,
                    row_plain,
                    row_stored,
                    rows_offset,
                    int(encrypted),
                ),
            )

        # Row payloads are bulk data: write them in chunked transactions
        # so the volatile log stays modest.
        chunk_rows = max(1, (4 << 20) // row_stored)
        for start in range(0, len(data), chunk_rows):
            stop = min(start + chunk_rows, len(data))
            sealed, plain = bytearray(), bytearray()
            for i in range(start, stop):
                row = records.row_plaintext(data.x, data.y, i)
                if encrypted:
                    self.enclave.touch(row_plain)
                    self.clock.advance(crypto.encrypt_time(row_plain))
                    sealed += records.seal(self.engine, row, records.ROW)
                else:
                    plain += row
            # Separate writes keep the suppression below off the sealed path.
            with self.region.begin_transaction() as tx:
                if encrypted:
                    tx.write(rows_offset + start * row_stored, bytes(sealed))
                else:
                    # repro: noqa[SEC001] -- encrypted=False is the deliberate
                    # plaintext baseline of the Fig. 8 comparison, never the default
                    tx.write(rows_offset + start * row_stored, bytes(plain))

        # Publish the root only after every row is durable: a crash
        # mid-load must leave ``exists()`` false (the loader retries from
        # scratch) rather than expose a header whose rows were never
        # sealed.  The worst a crash costs is one unreferenced heap
        # allocation, which the crash-schedule explorer tolerates.
        with self.region.begin_transaction() as tx:
            tx.write_u64(self.region.root_offset(DATA_ROOT), header)
        return len(data) * row_stored

    def fetch_batch(
        self, indices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Decrypt a batch of rows from PM into enclave memory.

        This is ``decrypt_pm_data(batch_size)`` of Algorithm 2: the only
        per-iteration data movement Plinius performs.
        """
        rows, features, classes, row_plain, row_stored, rows_offset, enc = (
            self._header()
        )
        crypto = self.profile.crypto
        x = np.empty((len(indices), features), dtype=np.float32)
        y = np.empty((len(indices), classes), dtype=np.float32)
        for out_i, idx in enumerate(indices):
            if not 0 <= idx < rows:
                raise IndexError(f"row {idx} out of range 0..{rows - 1}")
            stored = self.region.read(
                rows_offset + int(idx) * row_stored, row_stored
            )
            self.enclave.copy_in(row_stored)
            if enc:
                self.clock.advance(crypto.decrypt_time(row_plain))
                row = records.unseal(self.engine, stored, records.ROW)
            else:
                row = stored
            records.split_row(row, x, y, out_i)
        return x, y

    def random_batch(
        self, batch_size: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample a batch with replacement, decrypting from PM."""
        indices = rng.integers(0, self.num_rows, size=batch_size)
        return self.fetch_batch(indices)

    def stored_row(self, index: int) -> bytes:
        """Raw stored bytes of one row (tests: must be ciphertext)."""
        _, _, _, _, row_stored, rows_offset, _ = self._header()[:7]
        return self.region.read(rows_offset + index * row_stored, row_stored)
