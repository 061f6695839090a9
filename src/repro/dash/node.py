"""A DASH node: the layered kernel stack of Figures 1-3.

One :class:`DashNode` assembles, bottom-up: the machine-dependent part
(the host and its deadline-scheduled CPU), the network-dependent part
(attachments to network objects), the network-independent part (the
subtransport layer) and the kernel request/reply facility (RKOM).
"""

from __future__ import annotations

from typing import List, Optional

from repro.netsim.network import Network
from repro.netsim.topology import Host
from repro.security.keys import KeyRegistry
from repro.sim.context import SimContext
from repro.subtransport.config import StConfig
from repro.subtransport.st import SubtransportLayer
from repro.transport.rkom import RkomService

__all__ = ["DashNode"]


class DashNode:
    """One host running the DASH communication stack."""

    def __init__(
        self,
        context: SimContext,
        name: str,
        networks: List[Network],
        key_registry: KeyRegistry,
        st_config: Optional[StConfig] = None,
        cpu_policy: str = "edf",
    ) -> None:
        self.context = context
        self.name = name
        self.host = Host(context, name, cpu_policy=cpu_policy)
        for network in networks:
            network.attach(self.host)
        self.st = SubtransportLayer(
            context, self.host, networks, key_registry=key_registry, config=st_config
        )
        self.rkom = RkomService(context, self.st)

    @property
    def cpu(self):
        return self.host.cpu

    def __repr__(self) -> str:
        return f"<DashNode {self.name}>"
