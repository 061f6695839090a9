"""DashSystem: one-call construction of a simulated distributed system.

The benchmark harness and the examples all start from here: build a
context, one or more networks, and a set of DASH nodes sharing a key
realm -- the whole Figure-2 architecture, ready to run.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple, Union

from repro.core.params import RmsParams
from repro.errors import NetworkError, ParameterError
from repro.resilience.session import Session, StSession, TransportSession
from repro.netsim.ethernet import EthernetNetwork
from repro.netsim.internet import InternetNetwork
from repro.netsim.network import Network
from repro.netsim.topology import Mesh, build_grid, build_two_tier
from repro.security.keys import KeyRegistry
from repro.sim.context import SimContext
from repro.subtransport.config import StConfig
from repro.dash.node import DashNode
from repro.transport.stream import StreamConfig

__all__ = ["DashSystem"]


class DashSystem:
    """A complete simulated DASH deployment."""

    def __init__(
        self,
        seed: int = 0,
        st_config: Optional[StConfig] = None,
        cpu_policy: str = "edf",
        observe: bool = False,
    ) -> None:
        self.context = SimContext(seed=seed, observe=observe)
        self.keys = KeyRegistry()
        self.networks: Dict[str, Network] = {}
        self.nodes: Dict[str, DashNode] = {}
        self.st_config = st_config
        self.cpu_policy = cpu_policy
        self._connect_ids = itertools.count(1)

    # -- construction -------------------------------------------------------

    def add_ethernet(self, name: str = "ether0", **kwargs) -> EthernetNetwork:
        network = EthernetNetwork(self.context, name=name, **kwargs)
        self.networks[name] = network
        return network

    def add_internet(self, name: str = "internet0", **kwargs) -> InternetNetwork:
        network = InternetNetwork(self.context, name=name, **kwargs)
        self.networks[name] = network
        return network

    #: Mesh builders :meth:`add_mesh` knows by name.
    _MESH_BUILDERS = {
        "grid": build_grid,
        "two_tier": build_two_tier,
    }

    def add_mesh(
        self,
        kind: str = "grid",
        name: str = "mesh0",
        st_config: Optional[StConfig] = None,
        network_kwargs: Optional[Dict] = None,
        ecmp: Optional[bool] = None,
        **builder_kwargs,
    ) -> Tuple[InternetNetwork, Mesh]:
        """An internet router fabric with one DASH node per host slot.

        ``kind`` picks a :mod:`repro.netsim.topology` builder (``grid``
        or ``two_tier``); ``builder_kwargs`` go to it (``rows``/``cols``,
        ``spines``/``leaves``, ``hosts_per_*``, ``spec``...).  Every host
        slot becomes a full :class:`DashNode` attached only to the mesh
        network.  ``ecmp=True`` spreads distinct flows across equal-cost
        trunks (shorthand for the ``InternetNetwork`` flag of the same
        name; ``two_tier`` is the fabric with real path diversity to
        exploit).
        """
        try:
            builder = self._MESH_BUILDERS[kind]
        except KeyError:
            raise NetworkError(
                f"unknown mesh kind {kind!r}; one of "
                f"{sorted(self._MESH_BUILDERS)}"
            ) from None
        network_kwargs = dict(network_kwargs or {})
        if ecmp is not None:
            network_kwargs["ecmp"] = ecmp
        network = self.add_internet(name, **network_kwargs)

        def attach_node(net: Network, host_name: str) -> str:
            self.add_node(host_name, network_names=[name], st_config=st_config)
            return host_name

        mesh = builder(network, attach_host=attach_node, **builder_kwargs)
        return network, mesh

    def add_node(
        self,
        name: str,
        network_names: Optional[List[str]] = None,
        st_config: Optional[StConfig] = None,
    ) -> DashNode:
        """Create a node attached to the named networks (default: all)."""
        if name in self.nodes:
            raise NetworkError(f"node {name!r} already exists")
        if network_names is None:
            networks = list(self.networks.values())
        else:
            networks = [self.networks[n] for n in network_names]
        if not networks:
            raise NetworkError("add a network before adding nodes")
        node = DashNode(
            self.context,
            name,
            networks,
            key_registry=self.keys,
            st_config=st_config or self.st_config,
            cpu_policy=self.cpu_policy,
        )
        self.nodes[name] = node
        return node

    def _node(self, endpoint: Union[str, DashNode]) -> DashNode:
        if isinstance(endpoint, DashNode):
            endpoint = endpoint.name
        try:
            return self.nodes[endpoint]
        except KeyError:
            raise NetworkError(f"no node named {endpoint!r}") from None

    # -- conveniences -----------------------------------------------------------

    def connect(
        self,
        sender: Union[str, DashNode],
        receiver: Union[str, DashNode],
        *,
        desired: Optional[RmsParams] = None,
        acceptable: Optional[RmsParams] = None,
        kind: str = "st",
        resilience: bool = False,
        port: Optional[str] = None,
        fast_ack: bool = False,
        config: Optional[StreamConfig] = None,
        name: Optional[str] = None,
    ) -> Session:
        """The one way to open a channel between two nodes.

        Returns a :class:`~repro.resilience.session.Session` handle
        (``send``/``close``/context manager/``on_state_change``); its
        ``established`` future resolves to the underlying channel once
        it is up.  ``kind`` selects the channel: a raw subtransport RMS
        (``"st"``), a reliable byte stream (``"stream"``), or RKOM
        request/reply (``"rkom"``: the session of the sender's RKOM
        service that keeps its channel to the receiver, one per pair).
        ``resilience=True`` puts an ST or stream channel under
        supervision: automatic re-establishment on the backoff schedule
        of :mod:`repro.resilience.policy`, failover across attached
        networks, parameter degradation and queueing sends while the
        channel is down (the RKOM service recovers its channel on its
        own).  ``acceptable`` defaults to ``desired``, ``desired`` to
        ``RmsParams()``.  A stream asks for its data RMS with ``desired``
        alone (:func:`repro.transport.stream.data_request` derives the
        acceptable set; another ``acceptable`` is refused) and takes its
        protocol from ``config``.
        """
        sender_node = self._node(sender)
        receiver_node = self._node(receiver)
        if kind == "st":
            if desired is None:
                desired = RmsParams()
            port_name = port or f"connect-{next(self._connect_ids)}"
            session = StSession(
                self.context,
                sender_node.st,
                receiver_node.name,
                port=port_name,
                desired=desired,
                acceptable=desired if acceptable is None else acceptable,
                resilient=resilience,
                fast_ack=fast_ack,
                name=name
                or f"{sender_node.name}->{receiver_node.name}:{port_name}",
            )
            session.owns_port = port is None
            return session
        if kind == "stream":
            if acceptable not in (None, desired):
                raise ParameterError(
                    "a stream derives its own acceptable set from desired"
                )
            return TransportSession(
                self.context,
                sender_node.st,
                receiver_node.st,
                desired=desired,
                config=config,
                resilient=resilience,
                name=name or f"{sender_node.name}~{receiver_node.name}:stream",
            )
        if kind == "rkom":
            if resilience or (desired, acceptable) != (None, None):
                raise ParameterError(
                    "rkom sessions have RKOM's fixed channel parameters "
                    "and recover their channel on their own"
                )
            return sender_node.rkom.session(receiver_node.name, name)
        raise ParameterError(f"unknown session kind {kind!r}")

    def run(
        self,
        until: Optional[float] = None,
        *,
        while_pending: bool = False,
        idle_grace: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Drive the simulated system: the one entry point.

        - ``run(until=t)`` -- execute every event with time <= t and
          leave the clock exactly at ``t``.
        - ``run(while_pending=True)`` -- drain the whole schedule in one
          call; raises
          :class:`~repro.errors.SchedulingError` if ``max_events``
          (default ``DEFAULT_IDLE_MAX_EVENTS``) runs out first.
        - ``run(while_pending=True, idle_grace=g)`` -- stop as soon as
          the next live event lies more than ``g`` seconds beyond the
          clock, so workloads with far-out housekeeping (chaos schedules,
          lazily-disarmed coalesced timers) still terminate.
        """
        return self.context.run(
            until=until, while_pending=while_pending,
            idle_grace=idle_grace, max_events=max_events,
        )

    @property
    def now(self) -> float:
        return self.context.now

    @property
    def obs(self):
        """The context's observability facade (Null when disabled)."""
        return self.context.obs

    def __repr__(self) -> str:
        return (
            f"<DashSystem nodes={sorted(self.nodes)} "
            f"networks={sorted(self.networks)}>"
        )
