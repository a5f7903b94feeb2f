"""Clock, cost models and server profiles."""

from __future__ import annotations

import pytest

from repro.simtime import (
    EMLSGX_PM,
    SGX_EMLPM,
    ComputeCostModel,
    CryptoCostModel,
    DeviceCostModel,
    SgxCostModel,
    SimClock,
    get_profile,
)
from repro.simtime.costs import GIB, MIB, PAGE_SIZE


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now() == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.25)
        assert clock.now() == pytest.approx(1.75)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1e-9)

    def test_zero_advance_allowed(self):
        clock = SimClock()
        clock.advance(0.0)
        assert clock.now() == 0.0

    def test_stopwatch_measures_span(self):
        clock = SimClock()
        with clock.stopwatch("work") as span:
            clock.advance(2.0)
        assert span.elapsed == pytest.approx(2.0)
        assert span.label == "work"

    def test_nested_stopwatches(self):
        clock = SimClock()
        with clock.stopwatch("outer") as outer:
            clock.advance(1.0)
            with clock.stopwatch("inner") as inner:
                clock.advance(0.5)
        assert inner.elapsed == pytest.approx(0.5)
        assert outer.elapsed == pytest.approx(1.5)


class TestDeviceCostModel:
    def test_read_time_bandwidth_term(self):
        dev = DeviceCostModel("d", read_bandwidth=1 * GIB, write_bandwidth=1 * GIB)
        assert dev.read_time(1 * GIB) == pytest.approx(1.0)

    def test_latency_per_operation(self):
        dev = DeviceCostModel(
            "d", read_bandwidth=1 * GIB, write_bandwidth=1 * GIB,
            read_latency=1e-3,
        )
        assert dev.read_time(0) == pytest.approx(1e-3)
        assert dev.read_time(1 * GIB) == pytest.approx(1.0 + 1e-3)

    def test_fsync_time(self):
        dev = DeviceCostModel(
            "d", read_bandwidth=1 * GIB, write_bandwidth=1 * GIB,
            fsync_latency=2e-3,
        )
        assert dev.fsync_time(1 * GIB) == pytest.approx(1.002)


class TestSgxCostModel:
    def test_disabled_charges_nothing(self):
        sgx = SgxCostModel(enabled=False)
        assert sgx.transition_time(10) == 0.0
        assert sgx.paging_time(1 << 30, 1 << 30) == 0.0
        assert sgx.epc_copy_time(1 << 30) == 0.0

    def test_transition_cost_scales(self):
        sgx = SgxCostModel(enabled=True, transition_cost=1e-6)
        assert sgx.transition_time(4) == pytest.approx(4e-6)

    def test_no_paging_below_epc(self):
        sgx = SgxCostModel(enabled=True, epc_usable=100 * MIB)
        assert sgx.paged_bytes(90 * MIB, 50 * MIB) == 0

    def test_paged_fraction_beyond_epc(self):
        sgx = SgxCostModel(enabled=True, epc_usable=100 * MIB)
        paged = sgx.paged_bytes(200 * MIB, 100 * MIB)
        assert paged == pytest.approx(50 * MIB, rel=0.01)

    def test_paging_time_per_page(self):
        sgx = SgxCostModel(
            enabled=True, epc_usable=PAGE_SIZE, page_swap_cost=1e-6
        )
        # Working set 2 pages, touch 2 pages -> 1 page paged.
        t = sgx.paging_time(2 * PAGE_SIZE, 2 * PAGE_SIZE)
        assert t == pytest.approx(1e-6, rel=0.01)


class TestCryptoCostModel:
    def test_encrypt_vs_decrypt_bandwidths(self):
        crypto = CryptoCostModel(
            encrypt_bandwidth=1 * GIB,
            decrypt_bandwidth=2 * GIB,
            per_buffer_overhead=0.0,
        )
        assert crypto.encrypt_time(GIB) == pytest.approx(1.0)
        assert crypto.decrypt_time(GIB) == pytest.approx(0.5)

    def test_per_buffer_overhead(self):
        crypto = CryptoCostModel(
            encrypt_bandwidth=1 * GIB,
            decrypt_bandwidth=1 * GIB,
            per_buffer_overhead=1e-5,
        )
        assert crypto.encrypt_time(0) == pytest.approx(1e-5)
        assert crypto.decrypt_time(1 * GIB) == pytest.approx(1.0 + 1e-5)


class TestComputeCostModel:
    def test_iteration_time(self):
        compute = ComputeCostModel(flops_per_second=1e9)
        assert compute.iteration_time(2e9) == pytest.approx(2.0)


class TestProfiles:
    def test_lookup_by_name(self):
        assert get_profile("sgx-emlPM") is SGX_EMLPM
        assert get_profile("emlSGX-PM") is EMLSGX_PM

    def test_unknown_profile(self):
        with pytest.raises(KeyError, match="unknown server profile"):
            get_profile("nonexistent")

    def test_sgx_enabled_only_on_sgx_server(self):
        assert SGX_EMLPM.sgx.enabled
        assert not EMLSGX_PM.sgx.enabled

    def test_epc_usable_is_93_5_mb(self):
        assert SGX_EMLPM.sgx.epc_usable == 93 * MIB + 512 * 1024

    def test_real_pm_slower_than_ramdisk(self):
        assert EMLSGX_PM.pm.write_bandwidth < SGX_EMLPM.pm.write_bandwidth
        assert EMLSGX_PM.pm.read_bandwidth < SGX_EMLPM.pm.read_bandwidth

    def test_pm_asymmetry_read_faster_than_write(self):
        # Optane's defining asymmetry.
        assert EMLSGX_PM.pm.read_bandwidth > EMLSGX_PM.pm.write_bandwidth

    def test_transition_cost_is_13100_cycles(self):
        assert SGX_EMLPM.sgx.transition_cost == pytest.approx(13_100 / 3.8e9)
