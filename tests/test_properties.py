"""Cross-cutting property-based tests (hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.darknet.weights import save_weights
from repro.hw.pmem import PersistentMemoryDevice
from repro.hw.ssd import BlockDevice
from repro.romulus.alloc import PersistentHeap
from repro.romulus.region import RomulusRegion
from repro.simtime.clock import SimClock
from repro.simtime.profiles import EMLSGX_PM


# ----------------------------------------------------------------------
# Allocator: model-based test against a reference set of live blocks.
# ----------------------------------------------------------------------
_alloc_ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 600)),
        st.tuples(st.just("free"), st.integers(0, 30)),
    ),
    max_size=30,
)


@given(_alloc_ops)
@settings(max_examples=100, deadline=None)
def test_allocator_never_overlaps_and_frees_are_reusable(ops):
    device = PersistentMemoryDevice(96 * 1024, SimClock(), EMLSGX_PM.pm)
    region = RomulusRegion(device, 40 * 1024).format()
    heap = PersistentHeap(region)
    live = {}  # offset -> size
    handles = []
    with region.begin_transaction() as tx:
        for op in ops:
            if op[0] == "alloc":
                try:
                    offset = heap.pmalloc(tx, op[1])
                except MemoryError:
                    continue
                # No overlap with any live allocation.
                for other_off, other_size in live.items():
                    assert (
                        offset + op[1] <= other_off
                        or other_off + other_size <= offset
                    ), "allocation overlaps a live block"
                live[offset] = op[1]
                handles.append(offset)
            elif handles:
                idx = op[1] % len(handles)
                offset = handles.pop(idx)
                heap.pmfree(tx, offset)
                del live[offset]
    # Usable sizes always cover the request.
    for offset, size in live.items():
        assert heap.allocation_size(offset) >= size


# ----------------------------------------------------------------------
# SSD: crash keeps exactly the fsynced prefix of history.
# ----------------------------------------------------------------------
_ssd_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"), st.integers(0, 400),
            st.binary(min_size=1, max_size=60),
        ),
        st.tuples(st.just("fsync")),
    ),
    max_size=25,
)


@given(_ssd_ops)
@settings(max_examples=100, deadline=None)
def test_ssd_crash_matches_reference_model(ops):
    ssd = BlockDevice(SimClock(), EMLSGX_PM.ssd)
    durable = bytearray()
    pending = bytearray()
    for op in ops:
        if op[0] == "write":
            _, offset, data = op
            end = offset + len(data)
            if end > len(pending):
                pending.extend(b"\x00" * (end - len(pending)))
            pending[offset:end] = data
            ssd.write("f", offset, data)
        else:
            ssd.fsync("f")
            durable = bytearray(pending)
    ssd.crash()
    assert ssd.read_all("f") == bytes(durable)


# ----------------------------------------------------------------------
# Trainer: ANY kill schedule (momentum-free) converges to the same
# final weights as uninterrupted training.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def _trainer_data():
    from repro.data import synthetic_mnist, to_data_matrix

    images, labels, _, _ = synthetic_mnist(96, 1, seed=31)
    return to_data_matrix(images, labels)


@pytest.mark.parametrize(
    "kill_schedule",
    [
        (1,),
        (3, 4),
        (1, 2, 3, 4, 5),
        (7,),
        (2, 6),
    ],
)
def test_any_kill_schedule_reaches_reference_weights(
    kill_schedule, _trainer_data
):
    from tests.conftest import make_system

    total = 8

    def build(system):
        net = system.build_model(n_conv_layers=2, filters=4, batch=16)
        net.momentum = 0.0
        return net

    reference_system = make_system(seed=17)
    reference_system.load_data(_trainer_data)
    reference = build(reference_system)
    reference_system.train(reference, iterations=total)

    system = make_system(seed=17)
    system.load_data(_trainer_data)
    network = build(system)
    for kill_at in kill_schedule:
        result = system.train(
            network, iterations=total, kill_hook=lambda it, k=kill_at: it >= k
        )
        if result.completed:
            break
        system.kill()
        system.resume()
        network = build(system)
    system.train(network, iterations=total)
    assert save_weights(network) == save_weights(reference)
