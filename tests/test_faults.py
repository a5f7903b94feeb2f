"""Unit tests for the fault-point registry and injectable plans."""

from __future__ import annotations

import pytest

from repro.faults.plan import (
    ACTIVE,
    NULL_PLAN,
    BaseFaultPlan,
    CountingPlan,
    CrashSchedulePlan,
    FaultSpec,
    InjectedCrash,
    InjectedEcallAbort,
    InjectedLinkDrop,
    NullFaultPlan,
    TornFlush,
    UnfencedFence,
    flip_bit,
    get_active_plan,
    install_plan,
    installed,
)
from repro.faults import plan as faultplan
from repro.faults.registry import (
    ALL_KINDS,
    CRASH,
    FLIP,
    SITES,
    TORN,
    UNFENCED,
    UnknownSiteError,
    require_site,
)


class TestRegistry:
    def test_every_site_has_valid_kinds_and_api(self):
        for name, site in SITES.items():
            assert site.name == name
            assert site.layer in ("hw", "romulus", "sgx", "crypto",
                                  "distributed", "serving", "cluster",
                                  "federated")
            assert site.api in ("check", "mutate")
            assert site.kinds, name
            for kind in site.kinds:
                assert kind in ALL_KINDS, (name, kind)

    def test_registry_covers_every_layer(self):
        for layer in ("hw", "romulus", "sgx", "crypto", "distributed",
                      "serving", "cluster", "federated"):
            assert any(s.layer == layer for s in SITES.values()), layer

    def test_crashable_sites_nonempty_and_consistent(self):
        names = [name for name, s in SITES.items() if CRASH in s.kinds]
        assert len(names) >= 15
        for name in names:
            assert SITES[name].supports(CRASH)

    def test_require_site_unknown_raises(self):
        with pytest.raises(UnknownSiteError, match="unknown fault site"):
            require_site("pm.made_up")

    def test_mutate_sites_are_crypto_only(self):
        for site in SITES.values():
            if site.api == "mutate":
                assert site.layer == "crypto", site.name

    def test_pm_device_dispatch_table_matches_registry(self):
        # pmem routes its fault hook through a static op->site table;
        # pin every value to a registered site.
        from repro.hw.pmem import _FAULT_SITES

        for op, site in _FAULT_SITES.items():
            assert site in SITES, (op, site)


class TestFaultSpec:
    def test_valid_spec_describes_itself(self):
        spec = FaultSpec("pm.flush", 3, TORN, fraction=0.5)
        assert spec.describe() == "torn@pm.flush#3 fraction=0.5"
        assert FaultSpec("pm.store", 1).describe() == "crash@pm.store#1"
        assert (
            FaultSpec("crypto.unseal", 2, FLIP, bit=7).describe()
            == "flip@crypto.unseal#2 bit=7"
        )
        assert (
            FaultSpec("pm.fence", 4, UNFENCED, landed="subset:1").describe()
            == "unfenced@pm.fence#4 landed=subset:1"
        )

    def test_unknown_site_rejected(self):
        with pytest.raises(UnknownSiteError):
            FaultSpec("nope.nope", 1)

    def test_unsupported_kind_rejected(self):
        with pytest.raises(ValueError, match="does not support"):
            FaultSpec("pm.store", 1, FLIP)
        with pytest.raises(ValueError, match="does not support"):
            FaultSpec("link.recv", 1, FLIP)

    def test_bad_coordinates_rejected(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec("pm.store", 0)
        with pytest.raises(ValueError, match="fraction"):
            FaultSpec("pm.flush", 1, TORN, fraction=1.5)
        with pytest.raises(ValueError, match="bit"):
            FaultSpec("crypto.unseal", 1, FLIP, bit=-1)
        for policy in ("some", "subset", "newest:2", "subset:x"):
            with pytest.raises(ValueError, match="landed"):
                FaultSpec("pm.fence", 1, UNFENCED, landed=policy)


class TestNullPlan:
    def test_default_plan_is_null_and_disabled(self):
        assert ACTIVE is NULL_PLAN
        assert get_active_plan() is NULL_PLAN
        assert not NULL_PLAN.enabled

    def test_null_plan_is_inert(self):
        plan = NullFaultPlan()
        assert plan.check("pm.store") is None
        assert plan.mutate("crypto.seal", b"iv") is None

    def test_install_and_restore(self):
        plan = CountingPlan()
        previous = install_plan(plan)
        try:
            assert previous is NULL_PLAN
            assert faultplan.ACTIVE is plan
        finally:
            install_plan(previous)
        assert faultplan.ACTIVE is NULL_PLAN

    def test_installed_contextmanager_restores_on_error(self):
        plan = CountingPlan()
        with pytest.raises(RuntimeError):
            with installed(plan):
                assert get_active_plan() is plan
                raise RuntimeError("boom")
        assert get_active_plan() is NULL_PLAN


class TestCountingPlan:
    def test_hits_count_in_arrival_order(self):
        plan = CountingPlan()
        for _ in range(3):
            plan.check("pm.store")
        plan.check("pm.flush")
        assert plan.hits == {"pm.store": 3, "pm.flush": 1}
        assert plan.total_hits() == 4
        assert not plan.fired

    def test_seal_ivs_recorded_per_boot_epoch(self):
        plan = CountingPlan()
        plan.mutate("crypto.seal", b"A" * 12)
        plan.mutate("crypto.seal", b"B" * 12)
        plan.mark_boot()
        plan.mutate("crypto.seal", b"A" * 12)
        # Same IV in *different* boot epochs is fine (key is re-derived
        # conceptually per boot in the invariant's scope).
        assert plan.duplicate_ivs() == []
        plan.mutate("crypto.seal", b"A" * 12)
        assert plan.duplicate_ivs() == [b"A" * 12]


class TestCrashSchedulePlan:
    def test_fires_at_exact_coordinate_only(self):
        plan = CrashSchedulePlan(FaultSpec("pm.store", 3))
        plan.check("pm.store")
        plan.check("pm.store")
        with pytest.raises(InjectedCrash):
            plan.check("pm.store")
        assert plan.fired
        assert plan.fired_record.site == "pm.store"
        assert plan.fired_record.hit == 3

    def test_crash_latches_until_disarm(self):
        plan = CrashSchedulePlan(FaultSpec("pm.store", 1))
        with pytest.raises(InjectedCrash):
            plan.check("pm.store")
        # Any further site hit re-raises: the machine is down.
        with pytest.raises(InjectedCrash, match="latch"):
            plan.check("pm.flush")
        plan.disarm()
        assert plan.check("pm.flush") is None  # recovery runs fault-free

    def test_abort_and_drop_do_not_latch(self):
        plan = CrashSchedulePlan(FaultSpec("sgx.ecall", 1, "abort"))
        with pytest.raises(InjectedEcallAbort):
            plan.check("sgx.ecall")
        assert plan.check("sgx.ecall") is None

        plan = CrashSchedulePlan(FaultSpec("link.send", 2, "drop"))
        assert plan.check("link.send") is None
        with pytest.raises(InjectedLinkDrop):
            plan.check("link.send")
        assert plan.check("link.send") is None

    def test_torn_returns_action_whose_crash_latches(self):
        plan = CrashSchedulePlan(FaultSpec("pm.flush", 1, TORN, fraction=0.5))
        action = plan.check("pm.flush")
        assert isinstance(action, TornFlush)
        assert action.fraction == 0.5
        with pytest.raises(InjectedCrash):
            action.crash()
        with pytest.raises(InjectedCrash, match="latch"):
            plan.check("pm.store")

    def test_unfenced_returns_action_carrying_its_policy(self):
        spec = FaultSpec("pm.fence", 1, UNFENCED, landed="newest")
        plan = CrashSchedulePlan(spec)
        action = plan.check("pm.fence")
        assert isinstance(action, UnfencedFence)
        assert action.landed == "newest"
        with pytest.raises(InjectedCrash):
            action.crash()
        with pytest.raises(InjectedCrash, match="latch"):
            plan.check("pm.store")

    def test_flip_returns_tampered_payload_once(self):
        plan = CrashSchedulePlan(FaultSpec("crypto.unseal", 1, FLIP, bit=0))
        sealed = b"\x00" * 8
        tampered = plan.mutate("crypto.unseal", sealed)
        assert tampered == b"\x01" + b"\x00" * 7
        assert plan.flips_delivered == 1
        assert plan.mutate("crypto.unseal", sealed) is None

    def test_injected_faults_are_not_exceptions(self):
        # Library-level ``except Exception`` must not absorb a power
        # failure; this is the contract the workloads rely on.
        assert not issubclass(InjectedCrash, Exception)
        assert issubclass(InjectedCrash, BaseException)


class TestFlipBit:
    def test_flip_is_involutive_and_bounded(self):
        payload = bytes(range(16))
        for bit in (0, 7, 8, 127, 128, 100_003):
            tampered = flip_bit(payload, bit)
            assert tampered != payload
            assert len(tampered) == len(payload)
            assert flip_bit(tampered, bit) == payload

    def test_flip_empty_payload_is_noop(self):
        assert flip_bit(b"", 5) == b""


class TestBasePlanDisarm:
    def test_disarmed_plan_counts_nothing(self):
        plan = CountingPlan()
        plan.check("pm.store")
        plan.disarm()
        plan.check("pm.store")
        assert plan.hits == {"pm.store": 1}

    def test_on_hit_is_abstract(self):
        with pytest.raises(NotImplementedError):
            BaseFaultPlan().check("pm.store")
