"""Property-based tamper-evidence tests (hypothesis).

The paper's security argument rests on AES-GCM authenticated
encryption: *any* modification of a sealed record — in the ciphertext,
the IV, or the MAC — must be rejected at unseal time.  These properties
drive that claim over arbitrary payloads and arbitrary single-bit
flips, through both unseal paths, and check that a crash-recovered
Romulus region is always consistent no matter where the crash landed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.backend import IntegrityError
from repro.crypto.engine import (
    IV_SIZE,
    MAC_SIZE,
    SEAL_OVERHEAD,
    EncryptionEngine,
)
from repro.faults.invariants import region_idle_and_twinned
from repro.faults.plan import flip_bit, installed
from repro.hw.pmem import PersistentMemoryDevice
from repro.romulus.region import RomulusRegion
from repro.sgx.rand import SgxRandom
from repro.simtime.clock import SimClock
from repro.simtime.profiles import EMLSGX_PM

from tests.conftest import PmOpPlan


def make_engine() -> EncryptionEngine:
    return EncryptionEngine(b"K" * 16, rand=SgxRandom(b"tamper-tests"))


# ----------------------------------------------------------------------
# Sealed-record tamper evidence.
# ----------------------------------------------------------------------
@given(
    plaintext=st.binary(min_size=0, max_size=96),
    aad=st.binary(min_size=0, max_size=16),
    bit=st.integers(min_value=0, max_value=1 << 20),
)
@settings(max_examples=120, deadline=None)
def test_any_single_bit_flip_breaks_unseal(plaintext, aad, bit):
    engine = make_engine()
    sealed = engine.seal(plaintext, aad=aad)
    assert len(sealed) == len(plaintext) + SEAL_OVERHEAD
    tampered = flip_bit(sealed, bit)
    assert tampered != sealed
    with pytest.raises(IntegrityError):
        engine.unseal(tampered, aad=aad)
    # The untampered record still round-trips: the engine state was not
    # poisoned by the rejected attempt.
    assert engine.unseal(sealed, aad=aad) == plaintext


@given(
    plaintext=st.binary(min_size=1, max_size=96),
    region=st.sampled_from(["ciphertext", "iv", "mac"]),
    offset=st.integers(min_value=0, max_value=1 << 20),
)
@settings(max_examples=120, deadline=None)
def test_flip_in_every_record_region_is_detected(plaintext, region, offset):
    """Target the flip at each structural region of ciphertext ‖ IV ‖ MAC."""
    engine = make_engine()
    sealed = engine.seal(plaintext)
    n = len(plaintext)
    if region == "ciphertext":
        bit = offset % (8 * n)
    elif region == "iv":
        bit = 8 * n + offset % (8 * IV_SIZE)
    else:
        bit = 8 * (n + IV_SIZE) + offset % (8 * MAC_SIZE)
    tampered = flip_bit(sealed, bit)
    with pytest.raises(IntegrityError):
        engine.unseal(tampered)


@given(
    plaintext=st.binary(min_size=0, max_size=96),
    bit=st.integers(min_value=0, max_value=1 << 20),
)
@settings(max_examples=60, deadline=None)
def test_zero_copy_unseal_from_rejects_flips_too(plaintext, bit):
    engine = make_engine()
    out = bytearray(len(plaintext))
    sealed = bytearray(len(plaintext) + SEAL_OVERHEAD)
    engine.seal_into(plaintext, sealed)
    tampered = flip_bit(bytes(sealed), bit)
    with pytest.raises(IntegrityError):
        engine.unseal_from(tampered, out)
    # The genuine record still unseals into the same buffer afterwards.
    assert engine.unseal_from(bytes(sealed), out) == len(plaintext)
    assert bytes(out) == plaintext


@given(
    plaintext=st.binary(min_size=0, max_size=64),
    wrong_aad=st.binary(min_size=1, max_size=16),
)
@settings(max_examples=60, deadline=None)
def test_aad_mismatch_is_rejected(plaintext, wrong_aad):
    engine = make_engine()
    sealed = engine.seal(plaintext, aad=b"role:weights")
    if wrong_aad != b"role:weights":
        with pytest.raises(IntegrityError):
            engine.unseal(sealed, aad=wrong_aad)


# ----------------------------------------------------------------------
# Crash-recovery fallback: wherever the crash lands, recovery restores
# a consistent region and the committed value survives.
# ----------------------------------------------------------------------
@given(
    crash_after=st.integers(min_value=1, max_value=400),
    payload=st.binary(min_size=1, max_size=128),
)
@settings(max_examples=60, deadline=None)
def test_recovery_falls_back_cleanly_from_any_crash_point(
    crash_after, payload
):
    device = PersistentMemoryDevice(64 * 1024, SimClock(), EMLSGX_PM.pm)
    region = RomulusRegion(device, 24 * 1024).format()
    base = region.root_offset(0) + 8 * 4  # scratch past the root array
    committed = b"\xa5" * len(payload)
    with region.begin_transaction() as tx:
        tx.write(base, committed)

    class _Crash(BaseException):
        pass

    count = {"n": 0}

    def hook(op):
        count["n"] += 1
        if count["n"] >= crash_after:
            raise _Crash

    try:
        with installed(PmOpPlan(hook)), region.begin_transaction() as tx:
            tx.write(base, payload)
    except _Crash:
        pass
    device.crash()
    region.recover()
    violation = region_idle_and_twinned(region)
    assert violation is None, violation
    survivor = bytes(region.read(base, len(payload)))
    assert survivor in (committed, payload)
