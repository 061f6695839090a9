"""An internetwork: store-and-forward gateways over point-to-point links.

Models the paper's long-haul case ("high-delay long-distance networks",
section 1) and its congestion-control discussion: "if packet queueing in
an internetwork gateway is done using RMS-specified deadlines, then a
low-delay packet can be sent before high-delay packets that would
otherwise cause it to be delivered late" (section 2.5), and "the flow
control of TCP does not protect gateway buffers; ICMP source quench
messages provide an ad hoc and often ineffective solution" (section
4.4).  Gateways here queue by deadline, drop on buffer overrun, and can
optionally emit source-quench frames for the TCP baseline (E11).

Routing is shortest-path (Dijkstra) over link latency, computed from
scratch -- no external graph library.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.message import Message
from repro.errors import NetworkError
from repro.netsim.admission import NULL_POOLS, AdmissionController
from repro.netsim.errors_model import ImpairmentModel
from repro.netsim.network import Network, NetworkProperties
from repro.netsim.packet import FRAME_OVERHEAD_BYTES, Frame
from repro.netsim.routing import ForwardingEngine, RoutePlan
from repro.netsim.topology import Link
from repro.sim.context import SimContext

__all__ = ["InternetNetwork"]

#: Equal-cost routes an ``ecmp=True`` network enumerates per (src, dst)
#: at most (DESIGN 8.8); read when the network is built.
ECMP_MAX_PATHS = 8


class InternetNetwork(Network):
    """A routed network of hosts and gateways.

    Nodes are host names (attached via :meth:`attach`) or router names
    (added via :meth:`add_router`).  :meth:`add_link` wires two nodes
    with a pair of simplex links, each with its own bandwidth,
    propagation delay, buffer, and admission pool.
    """

    def __init__(
        self,
        context: SimContext,
        name: str = "internet0",
        mtu: int = 576,
        trusted: bool = False,
        link_encryption: bool = False,
        link_checksum: bool = True,
        supports_guarantees: bool = True,
        source_quench: bool = False,
        queue_policy: str = "edf",
        ecmp: bool = False,
    ) -> None:
        properties = NetworkProperties(
            trusted=trusted,
            physical_broadcast=False,
            link_encryption=link_encryption,
            link_checksum=link_checksum,
            mtu=mtu,
            supports_guarantees=supports_guarantees,
        )
        super().__init__(context, name, properties)
        self.routers: Set[str] = set()
        self._links: Dict[Tuple[str, str], Link] = {}
        self._pools: Dict[Tuple[str, str], AdmissionController] = {}
        self._adjacency: Dict[str, List[str]] = {}
        #: Per directed edge, the cost of one MTU frame over it, fixed at
        #: :meth:`add_link` (only ``is_up`` changes after build).
        self._weights: Dict[Tuple[str, str], float] = {}
        #: The resolver and the forwarder: per-source forwarding tables
        #: and compiled route plans, dropped at every link state change.
        #: ``ecmp`` spreads distinct flows across up to ``ECMP_MAX_PATHS``
        #: equal-cost shortest paths; off (E23's ablation arm), every
        #: pair has one route.
        self._engine = ForwardingEngine(self, ECMP_MAX_PATHS if ecmp else 1)
        self._link_edges: Dict[Link, Tuple[str, str]] = {}
        #: One listener pair for every link: the edge a firing link
        #: belongs to is a probe of ``_link_edges``, and the bound
        #: methods are made once here, not twice per link.
        self._link_listeners = (self._on_link_down, self._on_link_up)
        #: Shortest-path searches run: one per gateway and access-link
        #: weight, shared by the hosts behind it, or one per multi-homed
        #: source.
        self.route_resolutions = 0
        self.queue_policy = queue_policy
        self.source_quench = source_quench
        self.quenches_sent = 0

    # -- topology construction ------------------------------------------------

    def add_router(self, name: str) -> None:
        """Add an interior gateway node."""
        if name in self.hosts:
            raise NetworkError(f"{name!r} is already a host on this network")
        self.routers.add(name)
        self._adjacency.setdefault(name, [])

    def _node_exists(self, name: str) -> bool:
        return name in self.hosts or name in self.routers

    def add_link(
        self,
        node_a: str,
        node_b: str,
        bandwidth: float = 7000.0,  # bytes/second (56 kbit/s trunk)
        propagation_delay: float = 0.01,
        buffer_bytes: int = 16 * 1024,
        bit_error_rate: float = 0.0,
        frame_loss_rate: float = 0.0,
    ) -> Tuple[Link, Link]:
        """Connect two nodes with simplex links in both directions."""
        for node in (node_a, node_b):
            if not self._node_exists(node):
                raise NetworkError(f"unknown node {node!r}; attach or add_router first")
        if (node_a, node_b) in self._links:
            raise NetworkError(f"link {node_a}<->{node_b} already exists")
        links = []
        # Both directions share one frozen model; a clean pair takes the
        # shared clean one.
        impairment = (
            ImpairmentModel(bit_error_rate=bit_error_rate,
                            frame_loss_rate=frame_loss_rate)
            if bit_error_rate or frame_loss_rate else None
        )
        on_down, on_up = self._link_listeners
        for src, dst in ((node_a, node_b), (node_b, node_a)):
            link = Link(
                self.context,
                name=f"{self.name}.{src}->{dst}",
                bandwidth=bandwidth,
                propagation_delay=propagation_delay,
                buffer_bytes=buffer_bytes,
                policy=self.queue_policy,
                impairment=impairment,
            )
            self._links[(src, dst)] = link
            self._weights[(src, dst)] = propagation_delay + (
                link.transmission_time(self.properties.mtu + FRAME_OVERHEAD_BYTES)
            )
            self._pools[(src, dst)] = AdmissionController(
                total_bandwidth=bandwidth, total_buffer_bytes=buffer_bytes
            )
            self._link_edges[link] = (src, dst)
            link.on_down.listen(on_down)
            link.on_up.listen(on_up)
            if self.source_quench:
                link.on_overrun = self._send_quench
            links.append(link)
        self._adjacency.setdefault(node_a, []).append(node_b)
        self._adjacency.setdefault(node_b, []).append(node_a)
        self._engine.invalidate_all()
        self.medium_bit_error_rate = max(
            self.medium_bit_error_rate, bit_error_rate
        )
        return links[0], links[1]

    def can_reach(self, src: str, dst: str) -> bool:
        """True when a route of live links currently exists.

        Answered from the strongly connected components of the up-link
        graph, computed once per link state: no forwarding table and no
        path search per call.
        """
        if src not in self.hosts or dst not in self.hosts:
            return False
        return src == dst or self._engine.reaches(src, dst)

    def link(self, src: str, dst: str) -> Link:
        """The simplex link from ``src`` to ``dst``."""
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise NetworkError(f"no link {src}->{dst} in {self.name}") from None

    def _on_link_down(self, link: Link) -> None:
        src, dst = self._link_edges[link]
        self._engine.link_down(src, dst)
        self._fail_rms_on_route((src, dst), f"link {src}->{dst} down")

    def _on_link_up(self, link: Link) -> None:
        src, dst = self._link_edges[link]
        self._engine.link_up(src, dst)

    def _send_quench(self, offending: Frame) -> None:
        """ICMP-style source quench back to the offending frame's source."""
        if offending.kind != "data" or offending.src_host not in self.hosts:
            return
        self.quenches_sent += 1
        # 8 body bytes plus 4 each for the operation and the offending
        # RMS id (the frame carries both as ``kind`` and ``rms_id``).
        message = Message(bytes(16))
        frame = Frame(
            message=message,
            src_host=offending.dst_host,
            dst_host=offending.src_host,
            rms_id=offending.rms_id,
            kind="quench",
            deadline=self.context.now,
        )
        self._transmit_frame(frame)

    # -- routing ------------------------------------------------------------

    def route_between(self, src: str, dst: str) -> List[str]:
        """Shortest path (by latency) between two nodes.

        Served from the source's forwarding table (one Dijkstra
        amortized over all destinations); raises :class:`RoutingError`
        when no route of live links exists.
        """
        return self._engine.plan(src, dst).route

    # -- frame forwarding -------------------------------------------------------

    def _transmit_frame(
        self,
        frame: Frame,
        on_drop: Optional[Callable[[Frame, str], None]] = None,
    ) -> None:
        if frame.plan is None:
            # Control traffic and quenches take the current shortest
            # path; a data frame arrives with the plan its RMS was
            # admitted on (or re-pinned to).
            frame.plan = self._engine.plan(frame.src_host, frame.dst_host)
        self._engine.transmit(frame, on_drop)

    # -- shared-network interface -------------------------------------------------

    def _path_profile(self, src: str, dst: str) -> Tuple[float, float, List[str]]:
        # Fixed/per-byte costs are memoized on the compiled plan (link
        # bandwidth and propagation never change post-build).
        plan = self._engine.plan(src, dst)
        return plan.fixed_delay, plan.per_byte_delay, plan.route

    def _route_plan(
        self, src: str, dst: str, flow: Optional[int] = None
    ) -> RoutePlan:
        return self._engine.plan(src, dst, flow)

    def _pinned_plan(self, route: List[str]) -> RoutePlan:
        return self._engine.compile_route(route)

    def _admission_pools(self, route: List[str]) -> List[AdmissionController]:
        pools = []
        for i in range(len(route) - 1):
            pool = self._pools.get((route[i], route[i + 1]))
            if pool is not None:
                pools.append(pool)
        return pools or NULL_POOLS

    def total_gateway_drops(self) -> int:
        """Buffer-overrun drops across all links (congestion metric)."""
        return sum(link.stats.frames_dropped_overrun for link in self._links.values())
