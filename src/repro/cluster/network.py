"""The cluster network: per-link latency/bandwidth, partition, heal.

Links are *directed* edges between named hosts, each with its own
latency and bandwidth (``connect`` creates both directions by default).
Partition and heal are first-class, deterministic operations — not
ad-hoc exception plumbing — and double as the ``cluster.partition`` /
``cluster.deliver`` fault coordinates the crash-schedule explorer
drives.

Two calling conventions cover the substrate's users:

* :meth:`transmit` — synchronous: pays the transit cost on the shared
  clock and hands the payload straight back — the in-process calling
  convention of a sealed tensor link.  Fault-free it is one
  ``clock.advance(latency + nbytes/bandwidth)``, exactly what a
  point-to-point link charging its own clock pays.  A partition
  injected here
  holds the message and heals after a deterministic repair delay; an
  injected delivery drop raises
  :class:`~repro.faults.plan.InjectedLinkDrop` to the caller's
  reliable-transport retry loop.
* :meth:`send` — event-driven: schedules a ``cluster.deliver`` event on
  the owning :class:`~repro.cluster.loop.EventLoop`.  Per-link FIFO is
  enforced by a delivery horizon (a later message never overtakes an
  earlier one), partitioned links queue instead of delivering, and heal
  flushes the queue exactly once in FIFO order.  The Hypothesis suite
  (``tests/test_cluster_properties.py``) checks those properties over
  arbitrary schedules.

Control-plane edges (gateway -> replica dispatch, replica -> gateway
completion) use the zero-cost :meth:`barrier_send` /
:meth:`barrier_deliver` checks: they add fault coordinates without
perturbing the sim-time behaviour of fault-free runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.faults import plan as faultplan
from repro.faults.plan import InjectedLinkDrop
from repro.simtime.clock import SimClock

#: 10 GbE-class interconnect between the secure machines.
NIC_BANDWIDTH = 1.25 * (1 << 30)  # bytes/second
NIC_LATENCY = 50e-6  # per message

#: Sim seconds a partition injected at ``cluster.partition`` lasts
#: before the substrate heals the link (synchronous transmits wait it
#: out; event-mode sends queue and flush at heal).
PARTITION_REPAIR_DELAY = 250e-6

#: Loop event kind carrying an in-flight message to its receiving NIC.
DELIVER_KIND = "cluster.deliver"

#: Loop event kind healing a partition the fault plan injected.
HEAL_KIND = "cluster.heal"

Deliver = Callable[[bytes], None]


@dataclass
class NetLink:
    """One directed edge and its volatile in-flight state."""

    src: str
    dst: str
    latency: float
    bandwidth: float
    partitioned: bool = False
    #: Delivery-time floor enforcing per-link FIFO ordering.
    fifo_horizon: float = 0.0
    #: Event-mode messages sent so far: the next one's send sequence.
    sent: int = 0
    #: ``(send sequence, payload, deliver)`` of messages caught by a
    #: partition, waiting for heal.  Appended in *catch* order — at send
    #: time for a send into a cut link, at arrival for one the cut
    #: raced — so heal flushes by send sequence, not list order.
    held: List[Tuple[int, bytes, Deliver]] = field(default_factory=list)
    stats: Dict[str, int] = field(
        default_factory=lambda: {
            "messages": 0,
            "bytes": 0,
            "delivered": 0,
            "dropped": 0,
        }
    )

    def transit_time(self, nbytes: int) -> float:
        return self.latency + nbytes / self.bandwidth

    def reset_volatile(self) -> None:
        """Forget in-flight state (host reboot: the wire is empty)."""
        self.partitioned = False
        self.fifo_horizon = 0.0
        self.held.clear()


class ClusterNetwork:
    """All links of one simulated deployment."""

    def __init__(self, clock: SimClock, loop=None) -> None:
        self.clock = clock
        self._links: Dict[Tuple[str, str], NetLink] = {}
        self.loop = None
        if loop is not None:
            self.rebind(loop)

    def rebind(self, loop) -> None:
        """Attach to a (fresh) event loop and clear in-flight state."""
        self.loop = loop
        loop.register(DELIVER_KIND, self._on_deliver)
        loop.register(HEAL_KIND, self._on_heal)
        for link in self._links.values():
            link.reset_volatile()

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def connect(
        self,
        a: str,
        b: str,
        latency: float = NIC_LATENCY,
        bandwidth: float = NIC_BANDWIDTH,
        duplex: bool = True,
    ) -> None:
        """Create the ``a -> b`` edge (and ``b -> a`` when duplex)."""
        self._links[(a, b)] = NetLink(a, b, latency, bandwidth)
        if duplex:
            self._links[(b, a)] = NetLink(b, a, latency, bandwidth)

    def connected(self, src: str, dst: str) -> bool:
        return (src, dst) in self._links

    def link(self, src: str, dst: str) -> NetLink:
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise KeyError(
                f"no link {src!r} -> {dst!r}; connected edges: "
                f"{sorted(self._links)}"
            ) from None

    # ------------------------------------------------------------------
    # Partition / heal (first-class deterministic fault operations)
    # ------------------------------------------------------------------
    def partition(self, a: str, b: str, duplex: bool = True) -> None:
        """Cut the link(s): sends queue, in-flight messages are held."""
        self.link(a, b).partitioned = True
        if duplex and self.connected(b, a):
            self.link(b, a).partitioned = True

    def heal(self, a: str, b: str, duplex: bool = True) -> None:
        """Reconnect and flush every held message exactly once, FIFO."""
        self._heal_one(self.link(a, b))
        if duplex and self.connected(b, a):
            self._heal_one(self.link(b, a))

    def _heal_one(self, link: NetLink) -> None:
        link.partitioned = False
        held, link.held = link.held, []
        for seq, payload, deliver in sorted(held, key=lambda m: m[0]):
            # Transit was already paid (or the message was at the NIC):
            # the flush delivers at the heal instant, FIFO order kept by
            # the horizon and by loop insertion order within one tick.
            at = max(self.clock.now(), link.fifo_horizon)
            link.fifo_horizon = at
            if self.loop is not None:
                self.loop.push(at, DELIVER_KIND, (link, seq, payload, deliver))
            else:
                self._deliver(link, payload, deliver)

    # ------------------------------------------------------------------
    # Synchronous transfer (the sealed-link calling convention)
    # ------------------------------------------------------------------
    def transmit(self, src: str, dst: str, payload: bytes) -> bytes:
        """Send + deliver in one step, advancing the shared clock.

        Fault-free this is exactly one ``clock.advance(latency +
        nbytes/bandwidth)`` — the same float expression a link
        charging its own clock evaluates, so the wire a link rides
        never changes its simulated cost.
        """
        link = self.link(src, dst)
        active = faultplan.ACTIVE
        if active.enabled:
            try:
                active.check("cluster.partition")
            except InjectedLinkDrop:
                # The link partitions under the message: it is held at
                # the sender NIC and goes out once the substrate heals
                # the link after the deterministic repair delay.
                self.partition(src, dst)
                self.clock.advance(PARTITION_REPAIR_DELAY)
                self.heal(src, dst)
        if link.partitioned:
            raise InjectedLinkDrop(
                f"link {src!r} -> {dst!r} is partitioned"
            )
        link.stats["messages"] += 1
        link.stats["bytes"] += len(payload)
        self.clock.advance(link.transit_time(len(payload)))
        if active.enabled:
            try:
                active.check("cluster.deliver")
            except InjectedLinkDrop:
                link.stats["dropped"] += 1
                raise
        link.stats["delivered"] += 1
        return payload

    # ------------------------------------------------------------------
    # Event-driven transfer (schedules onto the owning loop)
    # ------------------------------------------------------------------
    def send(
        self, src: str, dst: str, payload: bytes, deliver: Deliver
    ) -> None:
        """Queue ``payload`` for delivery; ``deliver`` runs at arrival."""
        if self.loop is None:
            raise RuntimeError(
                "event-driven send needs the network bound to an "
                "EventLoop (use transmit for synchronous transfers)"
            )
        link = self.link(src, dst)
        active = faultplan.ACTIVE
        if active.enabled:
            try:
                active.check("cluster.partition")
            except InjectedLinkDrop:
                self.partition(src, dst)
                self.loop.push(
                    self.clock.now() + PARTITION_REPAIR_DELAY,
                    HEAL_KIND,
                    (src, dst),
                )
        link.stats["messages"] += 1
        link.stats["bytes"] += len(payload)
        arrival = max(
            self.clock.now() + link.transit_time(len(payload)),
            link.fifo_horizon,
        )
        link.fifo_horizon = arrival
        seq = link.sent
        link.sent += 1
        if link.partitioned:
            link.held.append((seq, payload, deliver))
            return
        self.loop.push(arrival, DELIVER_KIND, (link, seq, payload, deliver))

    def _on_heal(self, event: object) -> None:
        a, b = event  # type: ignore[misc]
        self.heal(a, b)

    def _on_deliver(self, event: object) -> None:
        link, seq, payload, deliver = event  # type: ignore[misc]
        if link.partitioned:
            # The partition raced the in-flight message: it is caught
            # at the receiving NIC and queued until heal.
            link.held.append((seq, payload, deliver))
            return
        self._deliver(link, payload, deliver)

    def _deliver(self, link: NetLink, payload: bytes, deliver: Deliver) -> None:
        active = faultplan.ACTIVE
        if active.enabled:
            try:
                active.check("cluster.deliver")
            except InjectedLinkDrop:
                # The message is lost at the NIC.  Loss recovery is an
                # endpoint concern (reliable transport / redispatch);
                # the wire just counts it.
                link.stats["dropped"] += 1
                return
        link.stats["delivered"] += 1
        deliver(payload)

    # ------------------------------------------------------------------
    # Control-plane fault barriers (no payload, no sim-time cost)
    # ------------------------------------------------------------------
    def barrier_send(self, src: str, dst: str) -> None:
        """``cluster.partition`` coordinate on the ``src -> dst`` edge."""
        active = faultplan.ACTIVE
        if active.enabled:
            self.link(src, dst)  # the edge must exist to be cut
            active.check("cluster.partition")

    def barrier_deliver(self, src: str, dst: str) -> None:
        """``cluster.deliver`` coordinate on the ``src -> dst`` edge."""
        active = faultplan.ACTIVE
        if active.enabled:
            self.link(src, dst)
            active.check("cluster.deliver")
