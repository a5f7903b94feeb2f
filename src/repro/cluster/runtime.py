"""A simulated deployment: hosts + network + one event loop.

:class:`Cluster` assembles the substrate pieces around one shared
:class:`~repro.simtime.clock.SimClock`: named
:class:`~repro.cluster.host.Host` members, the
:class:`~repro.cluster.network.ClusterNetwork` wiring them, and the
:class:`~repro.cluster.loop.EventLoop` everything schedules onto (with
the ``cluster.host_kill`` barrier armed, since the loop belongs to a
deployment with killable hosts).

Crash/repair is cluster-wide by composition: :meth:`power_fail` fails
every host (durable PM/SSD state survives, enclaves and in-flight
network state do not), and :meth:`boot` stands up a fresh event loop,
rebinds the network to it, and marks the hosts back up — the caller
then re-attaches regions via the hosts' recovery entry points.

A component that rides a cluster's event loop is handed it (the
inference gateway's ``loop=``).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cluster.host import Host
from repro.cluster.loop import EventLoop
from repro.cluster.network import ClusterNetwork
from repro.simtime.clock import SimClock
from repro.simtime.profiles import ServerProfile


class Cluster:
    """All the simulated machines and wires of one deployment."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.hosts: Dict[str, Host] = {}
        self.loop = EventLoop(self.clock, kill_barrier=True)
        self.network = ClusterNetwork(self.clock, loop=self.loop)

    # ------------------------------------------------------------------
    def add_host(
        self,
        name: str,
        profile: ServerProfile,
        pm_size: Optional[int] = None,
        with_ssd: bool = False,
    ) -> Host:
        """Create and register a named host."""
        if name in self.hosts:
            raise ValueError(f"host {name!r} already exists")
        host = Host(
            name, self.clock, profile, pm_size=pm_size, with_ssd=with_ssd
        )
        self.hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise KeyError(
                f"unknown host {name!r}; members: {sorted(self.hosts)}"
            ) from None

    def connect(self, a: str, b: str, **kwargs) -> None:
        """Wire two hosts (see :meth:`ClusterNetwork.connect`)."""
        self.network.connect(a, b, **kwargs)

    def connect_star(self, hub: str, *leaves: str, **kwargs) -> None:
        """Wire every leaf to ``hub`` (the federated/serving topology)."""
        for leaf in leaves:
            self.network.connect(hub, leaf, **kwargs)

    # ------------------------------------------------------------------
    # Cluster-wide crash / repair
    # ------------------------------------------------------------------
    def power_fail(self) -> None:
        """Fail-stop every host; durable state survives, nothing else."""
        for host in self.hosts.values():
            host.power_fail()

    def boot(self) -> EventLoop:
        """Stand the deployment back up with a fresh event loop."""
        self.loop = EventLoop(self.clock, kill_barrier=True)
        self.network.rebind(self.loop)
        for host in self.hosts.values():
            host.boot()
        return self.loop

