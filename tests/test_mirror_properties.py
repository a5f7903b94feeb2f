"""Property-based tests of the mirroring mechanism over random models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mirror import MirrorModule
from repro.crypto.engine import EncryptionEngine
from repro.darknet.cfg import build_network, parse_cfg
from repro.darknet.weights import save_weights
from repro.hw.pmem import FlushInstruction, PersistentMemoryDevice
from repro.romulus.alloc import PersistentHeap
from repro.romulus.region import RomulusRegion
from repro.sgx.enclave import Enclave
from repro.sgx.rand import SgxRandom
from repro.simtime.clock import SimClock
from repro.simtime.profiles import EMLSGX_PM

# Random small-architecture generator: conv/maxpool bodies with a
# connected+softmax head, all over an 8x8 input (the 2x2 pools step by
# one, so four of them still leave a 4x4 map).
_conv = st.builds(
    lambda f, bn, act: ("convolutional", f, bn, act),
    st.integers(1, 6),
    st.booleans(),
    st.sampled_from(["leaky", "linear"]),
)
_body = st.lists(
    st.one_of(_conv, st.just(("maxpool",))),
    min_size=1,
    max_size=4,
)


def _render(body) -> str:
    lines = [
        "[net]", "batch=4", "learning_rate=0.05", "height=8", "width=8",
        "channels=1",
    ]
    for item in body:
        if item[0] == "convolutional":
            _, filters, bn, act = item
            lines += [
                "[convolutional]",
                f"batch_normalize={int(bn)}",
                f"filters={filters}",
                "size=3", "stride=1", "pad=1",
                f"activation={act}",
            ]
        else:
            lines += ["[maxpool]", "size=2", "stride=1"]
    lines += ["[connected]", "output=3", "activation=linear", "[softmax]"]
    return "\n".join(lines)


def make_mirror(flush=FlushInstruction.CLFLUSHOPT):
    clock = SimClock()
    device = PersistentMemoryDevice(4 << 20, clock, EMLSGX_PM.pm)
    region = RomulusRegion(
        device, ((4 << 20) - 4096) // 2, flush_instruction=flush
    ).format()
    mirror = MirrorModule(
        region,
        PersistentHeap(region),
        EncryptionEngine(b"k" * 16, rand=SgxRandom(b"iv")),
        Enclave(clock, EMLSGX_PM.sgx),
        EMLSGX_PM,
    )
    return device, region, mirror


@given(_body, st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_mirror_roundtrip_over_random_architectures(body, seed):
    """For ANY supported architecture, mirror-out then mirror-in into a
    differently initialized clone is bit-exact."""
    cfg = _render(body)
    net = build_network(parse_cfg(cfg), np.random.default_rng(seed))
    device, region, mirror = make_mirror()
    mirror.alloc_mirror_model(net)
    mirror.mirror_out(net, 9)
    blob = save_weights(net)

    clone = build_network(parse_cfg(cfg), np.random.default_rng(seed + 1))
    mirror.mirror_in(clone)
    clone.iteration = net.iteration
    assert save_weights(clone) == blob


@given(_body, st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_mirror_survives_crash_over_random_architectures(body, seed):
    cfg = _render(body)
    net = build_network(parse_cfg(cfg), np.random.default_rng(seed))
    device, region, mirror = make_mirror()
    mirror.alloc_mirror_model(net)
    mirror.mirror_out(net, 3)
    blob = save_weights(net)
    device.crash()
    region.recover()
    clone = build_network(parse_cfg(cfg), np.random.default_rng(seed + 7))
    mirror.mirror_in(clone)
    clone.iteration = net.iteration
    assert save_weights(clone) == blob


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_mirror_roundtrip_under_clflush_nop(seed):
    """The CLFLUSH+NOP persistence combination round-trips too."""
    cfg = _render([("convolutional", 3, True, "leaky")])
    net = build_network(parse_cfg(cfg), np.random.default_rng(seed))
    device, region, mirror = make_mirror(flush=FlushInstruction.CLFLUSH)
    mirror.alloc_mirror_model(net)
    mirror.mirror_out(net, 1)
    device.crash()
    region.recover()
    clone = build_network(parse_cfg(cfg), np.random.default_rng(seed + 1))
    mirror.mirror_in(clone)
    for (_, (n1, a)), (_, (n2, b)) in zip(
        net.parameter_buffers(), clone.parameter_buffers()
    ):
        np.testing.assert_array_equal(a, b)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_mirror_roundtrip_under_clwb(seed):
    """CLWB (the third PWB the paper mentions) works as well."""
    cfg = _render([("convolutional", 2, False, "leaky")])
    net = build_network(parse_cfg(cfg), np.random.default_rng(seed))
    device, region, mirror = make_mirror(flush=FlushInstruction.CLWB)
    mirror.alloc_mirror_model(net)
    mirror.mirror_out(net, 1)
    device.crash()
    region.recover()
    clone = build_network(parse_cfg(cfg), np.random.default_rng(seed + 1))
    mirror.mirror_in(clone)
    for (_, (n1, a)), (_, (n2, b)) in zip(
        net.parameter_buffers(), clone.parameter_buffers()
    ):
        np.testing.assert_array_equal(a, b)


@given(
    st.lists(st.integers(1, 40), min_size=1, max_size=6),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_pm_data_roundtrip_over_random_shapes(sizes, seed):
    """Random (rows, features) datasets round-trip through sealed PM."""
    from repro.core.pm_data import PmDataModule
    from repro.darknet.data import DataMatrix

    rng = np.random.default_rng(seed)
    rows = sizes[0]
    features = sum(sizes)
    x = rng.normal(size=(rows, features)).astype(np.float32)
    y = np.zeros((rows, 3), dtype=np.float32)
    y[np.arange(rows), rng.integers(0, 3, rows)] = 1.0
    data = DataMatrix(x=x, y=y)

    clock = SimClock()
    device = PersistentMemoryDevice(4 << 20, clock, EMLSGX_PM.pm)
    region = RomulusRegion(device, ((4 << 20) - 4096) // 2).format()
    module = PmDataModule(
        region,
        PersistentHeap(region),
        EncryptionEngine(b"k" * 16, rand=SgxRandom(b"iv")),
        Enclave(clock, EMLSGX_PM.sgx),
        EMLSGX_PM,
    )
    module.load(data)
    device.crash()
    region.recover()
    got_x, got_y = module.fetch_batch(np.arange(rows))
    np.testing.assert_array_equal(got_x, x)
    np.testing.assert_array_equal(got_y, y)
