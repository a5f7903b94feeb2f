"""The fault-point registry: every named injection site in the stack.

A *fault point* is a named location in the simulated system where a
:class:`~repro.faults.plan.FaultPlan` may fire.  Sites are threaded
through the hardware devices, the Romulus transaction machinery, the
SGX boundary, the crypto engine, and the distributed layer; the
instrumented module consults ``faultplan.ACTIVE`` at each site, which is
a no-op unless a plan is installed (same null-object discipline as
``repro.obs``).

The registry is the single source of truth for which site names exist
and which fault *kinds* each supports — plans validate their specs
against it at construction time, and the schedule explorer derives its
crash matrix from it, failing closed (:class:`UnknownSiteError`) on a
golden-run hit at any name not listed here.  The other direction is a
test (``tests/test_faults_explorer.py``): the census workloads, plus
one directed transaction abort, hit every listed site.

Two calling conventions exist, recorded as the site's ``api``:

``check``
    ``ACTIVE.check(site)`` — may raise an injected fault or return a
    power-fail action (a torn flush, an unfenced fence); the site
    carries no payload.
``mutate``
    ``ACTIVE.mutate(site, payload)`` — the site hands its payload
    (sealed bytes, an IV) to the plan, which may return a tampered
    replacement or ``None`` for "unchanged".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Fault kinds a site can support.
CRASH = "crash"  #: fail-stop power failure at this point
TORN = "torn"  #: partial persistence of a flush, then a crash
ABORT = "abort"  #: SGX ecall/ocall returns an error to the host
DROP = "drop"  #: the in-flight link message is lost
FLIP = "flip"  #: a single bit of the site's payload is flipped
UNFENCED = "unfenced"  #: power fails at a fence with write-backs pending

ALL_KINDS = (CRASH, TORN, ABORT, DROP, FLIP, UNFENCED)


@dataclass(frozen=True)
class FaultSite:
    """One named injection point."""

    name: str
    layer: str  #: hw | romulus | sgx | crypto | distributed | serving | cluster | federated
    kinds: Tuple[str, ...]
    api: str  #: "check" or "mutate"
    description: str

    def supports(self, kind: str) -> bool:
        return kind in self.kinds


def _site(name: str, layer: str, kinds: Tuple[str, ...], api: str,
          description: str) -> FaultSite:
    return FaultSite(name, layer, kinds, api, description)


#: The catalog.  Keep `docs/fault-injection.md` in sync when editing.
SITES: Dict[str, FaultSite] = {
    s.name: s
    for s in (
        # ---------------------------------------------------- hardware
        _site("pm.store", "hw", (CRASH,), "check",
              "before a PM store lands in the cache hierarchy"),
        _site("pm.flush", "hw", (CRASH, TORN), "check",
              "before a CLFLUSH/CLFLUSHOPT writes dirty lines back; "
              "TORN persists only a prefix of the dirty lines"),
        _site("pm.fence", "hw", (CRASH, UNFENCED), "check",
              "before an SFENCE makes pending write-backs durable; "
              "UNFENCED fails power there and its policy picks which "
              "pending lines landed"),
        _site("ssd.write", "hw", (CRASH,), "check",
              "before a buffered SSD write reaches the page cache"),
        _site("ssd.fsync", "hw", (CRASH,), "check",
              "before fsync forces pending bytes to the device"),
        # ----------------------------------------------------- romulus
        _site("romulus.tx.write", "romulus", (CRASH,), "check",
              "at the top of an interposed transactional store"),
        _site("romulus.tx.commit", "romulus", (CRASH,), "check",
              "at commit entry, before fence 2"),
        _site("romulus.tx.commit.pre_idle", "romulus", (CRASH,), "check",
              "after the main->back copy, before IDLE is written"),
        _site("romulus.tx.abort", "romulus", (CRASH,), "check",
              "at abort entry, before main is rolled back"),
        _site("romulus.log.record", "romulus", (CRASH,), "check",
              "before a range is appended to the volatile log"),
        # --------------------------------------------------------- sgx
        _site("sgx.ecall", "sgx", (CRASH, ABORT), "check",
              "on enclave entry, before the transition cost is charged"),
        _site("sgx.ocall", "sgx", (CRASH, ABORT), "check",
              "on enclave exit, before the transition cost is charged"),
        _site("sgx.enclave.touch", "sgx", (CRASH,), "check",
              "before EPC access/paging accounting"),
        _site("sgx.enclave.malloc", "sgx", (CRASH,), "check",
              "before a trusted-heap allocation is ledgered"),
        # ------------------------------------------------------ crypto
        _site("crypto.seal", "crypto", (CRASH,), "mutate",
              "after the IV is drawn, before encryption; the payload is "
              "the IV (plans record it for uniqueness checking)"),
        _site("crypto.unseal", "crypto", (CRASH, FLIP), "mutate",
              "before authenticated decryption; the payload is the "
              "sealed record — FLIP hands back a bit-flipped copy"),
        # ------------------------------------------------- distributed
        _site("link.send", "distributed", (CRASH, DROP), "check",
              "before a sealed tensor message enters the wire"),
        _site("link.recv", "distributed", (CRASH, DROP), "check",
              "before a received message is unsealed"),
        _site("distributed.worker.step", "distributed", (CRASH,), "check",
              "at the top of a stage worker's forward pass"),
        _site("distributed.worker.mirror", "distributed", (CRASH,), "check",
              "before a stage worker persists its mirror"),
        # ----------------------------------------------------- serving
        _site("serve.dispatch", "serving", (CRASH, ABORT), "check",
              "before a coalesced batch enters a replica enclave; "
              "ABORT models a transient ecall failure the gateway "
              "retries, CRASH a replica dying mid-batch"),
        _site("serve.reload", "serving", (CRASH,), "check",
              "between generations during a replica hot-reload, "
              "before mirror_in swaps the served weights"),
        # ----------------------------------------------------- cluster
        _site("cluster.host_kill", "cluster", (CRASH,), "check",
              "host power failure: at a host barrier (boot, step) or "
              "before the substrate event loop handles its next event; "
              "reboot is a fresh enclave + Romulus recovery from that "
              "host's PM"),
        _site("cluster.partition", "cluster", (DROP,), "check",
              "before a message (or a dispatch) enters a network link; "
              "DROP partitions the link — queued messages are held and "
              "delivered only at heal, a dispatch is retried on "
              "another replica"),
        _site("cluster.deliver", "cluster", (CRASH, DROP), "check",
              "at the receiving NIC, after transit cost is paid; DROP "
              "loses the in-flight message (a completion notification "
              "is redispatched), CRASH kills the receiving host"),
        # --------------------------------------------------- federated
        _site("fed.submit", "federated", (CRASH, DROP), "check",
              "before a client's sealed weight delta enters the wire "
              "to the aggregator; DROP loses the submission (the "
              "client's reliable-transport loop retransmits the cached "
              "sealed bytes), CRASH kills the federation mid-round"),
        _site("fed.aggregate", "federated", (CRASH,), "check",
              "after the quorum check, before the accepted deltas are "
              "FedAvg-merged inside the aggregation enclave"),
        _site("fed.commit", "federated", (CRASH,), "check",
              "before the round's Merkle root + sealed merged params "
              "enter their Romulus transaction; a crash here must "
              "leave the previous round as the durable tip"),
    )
}


class UnknownSiteError(KeyError):
    """A fault spec (or instrumented call) names an unregistered site."""


def require_site(name: str) -> FaultSite:
    """Look a site up, raising :class:`UnknownSiteError` if missing."""
    try:
        return SITES[name]
    except KeyError:
        raise UnknownSiteError(
            f"unknown fault site {name!r}; registered sites: "
            f"{', '.join(sorted(SITES))}"
        ) from None


def sites_for_layer(layer: str) -> Tuple[FaultSite, ...]:
    """All registered sites of one layer, in catalog order."""
    return tuple(s for s in SITES.values() if s.layer == layer)


def crashable_sites() -> Tuple[str, ...]:
    """Names of every site that supports the CRASH kind."""
    return tuple(name for name, s in SITES.items() if CRASH in s.kinds)
