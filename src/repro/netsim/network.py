"""Network objects and network-level RMS (paper section 3.1).

"Each network type to which a DASH host is connected is represented ...
as an object with a standard interface.  These objects provide
host-to-host network RMS's.  They encapsulate network-specific protocols
for RMS creation, deletion, and transmission, and for non-RMS network
maintenance tasks such as routing."

A network object advertises (a) whether all hosts on it are *trusted*,
(b) whether it has the *physical broadcast property*, and (c) per
security/reliability combination, its performance limits.  RMS creation
runs a setup handshake over the network itself (one round trip), which
is what makes the ST's network-RMS cache (section 4.2) worth having.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from math import ldexp
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.message import Label, Message
from repro.core.negotiation import CapabilityTable, PerformanceLimits, negotiate
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.core.rms import Rms, RmsLevel, RmsState
from repro.errors import NetworkError
from repro.netsim.admission import AdmissionController
from repro.netsim.packet import FRAME_OVERHEAD_BYTES, Frame
from repro.netsim.topology import Host
from repro.obs.registry import families
from repro.sim.context import SimContext
from repro.sim.process import Future
from repro.sim.retry import Retry

__all__ = ["NetworkProperties", "NetworkRms", "Network"]

_setup_ids = itertools.count(1)

#: The setup handshake is sent again after ``SETUP_TIMEOUT * 2**attempt``
#: seconds, up to ``SETUP_RETRIES`` times (the network-specific RMS
#: creation protocol must survive frame loss).
SETUP_TIMEOUT = 0.25
SETUP_RETRIES = 4


#: Accounted payload bytes of setup/teardown control frames (the
#: frame's ``kind`` is the operation; the 4 bytes after the 64 are its
#: on-wire code).
SETUP_PAYLOAD_BYTES = 68


@dataclass(frozen=True)
class NetworkProperties:
    """The network parameters of section 3.1."""

    trusted: bool = False
    physical_broadcast: bool = False
    #: Link-level encryption hardware ("The network has link-level
    #: encryption hardware; the subtransport layer learns this ... and
    #: does no data encryption", section 2.5).
    link_encryption: bool = False
    #: Link-level data checksumming in hardware (section 1).
    link_checksum: bool = True
    mtu: int = 1500
    #: Whether deterministic/statistical guarantees are offered.
    supports_guarantees: bool = True


class NetworkRms(Rms):
    """A host-to-host RMS provided by one network object."""

    level = RmsLevel.NETWORK

    def __init__(
        self,
        context: SimContext,
        params: RmsParams,
        sender: Label,
        receiver: Label,
        network: "Network",
        name: Optional[str] = None,
    ) -> None:
        super().__init__(context, params, sender, receiver, name=name)
        self.network = network
        #: Compiled forwarding plan (routed networks; ``None`` on a
        #: shared segment): the pre-resolved links each of its frames
        #: carries.  Data keeps following it even after
        #: topology changes -- the admitted route is the contract -- and
        #: a dead on-route link fails the RMS through the usual
        #: notification path.
        self.plan = None
        self._route: List[str] = []  # filled by ``create_rms``
        #: The pools the RMS was admitted to, released when it goes: a
        #: re-pinned route holds no reservation.
        self._pools: List[AdmissionController] = []
        self.established = False

    @property
    def route(self) -> List[str]:
        """Node names of the admitted path (routed networks)."""
        return self._route

    @route.setter
    def route(self, value: List[str]) -> None:
        # Re-pinning the route (downward-mux path diversity): the plan
        # encodes the previous path, so a routed network compiles one
        # for the new node list, raising :class:`RoutingError` here if a
        # hop is not a link.  ``create_rms`` installs the admitted route
        # and its plan together, without coming through this setter.
        self.plan = self.network._pinned_plan(value)
        self._route = value

    def _transmit(self, message: Message) -> None:
        # Data follows the route the stream was admitted on -- its
        # reservations live on those links, not on whatever path is
        # currently shortest.
        deadline = message.deadline
        frame = Frame(
            message=message,
            src_host=self.sender.host,
            dst_host=self.receiver.host,
            rms_id=self.rms_id,
            deadline=deadline if deadline is not None else float("inf"),
            plan=self.plan,
        )
        self.network._transmit_frame(frame, self._frame_dropped)

    def _frame_dropped(self, frame: Frame, reason: str) -> None:
        self._drop(frame.message, reason)

    def _frame_arrived(self, frame: Frame) -> None:
        """Called by the network when a data frame reaches the receiver."""
        if frame.corrupted and self.network.properties.link_checksum:
            # Hardware checksum: corrupted frames never reach clients.
            self._drop(frame.message, "checksum failure")
            return
        message = frame.message
        self._deliver(message, message.message_id)

    def close(self) -> None:
        """Tear down through the owning network (releases reservations)."""
        if self.is_open:
            self.network.delete_rms(self)


_FAMILIES = families(
    "net",
    ("setup_count", "frames_delivered", "frames_corrupted_delivered",
     "control_drops"),
    frames_corrupted_delivered="net_frames_corrupted",
    control_drops="net_control_drops{kind}",
)


class Network:
    """Base class of network objects.

    Subclasses implement the medium: :meth:`_transmit_frame`,
    :meth:`_path_profile` (fixed delay, per-byte delay, route), and
    :meth:`_admission_pools` (the resource pools a stream must be
    admitted to).  Everything else -- negotiation, admission, the setup
    handshake, demultiplexing, failure notification -- is shared.
    """

    def __init__(
        self,
        context: SimContext,
        name: str,
        properties: NetworkProperties,
        medium_bit_error_rate: float = 0.0,
    ) -> None:
        self.context = context
        self.name = name
        self.properties = properties
        self.medium_bit_error_rate = medium_bit_error_rate
        self.hosts: Dict[str, Host] = {}
        self._rms_table: Dict[int, NetworkRms] = {}
        #: rms id -> (future, retry) of each setup handshake in flight
        self._pending_setups: Dict[int, Tuple[Future, Retry]] = {}
        self._incoming_listeners: Dict[str, List[Callable[[NetworkRms], None]]] = {}
        self._quench_handlers: Dict[str, Callable[[Frame], None]] = {}
        self.frames_delivered = 0
        self.frames_corrupted_delivered = 0
        self.setup_count = 0
        #: Dropped setup / setup_ack / teardown frames, by frame kind.
        self.control_drops: Dict[str, int] = defaultdict(int)
        context.obs.metrics.watch(self, _FAMILIES, network=name)
        #: Per-(src, dst) flow sequence numbers: deterministic per run,
        #: so ECMP path pinning is reproducible from the seed alone.
        self._flow_ids: Dict[Tuple[str, str], int] = {}

    # -- topology ---------------------------------------------------------

    def attach(self, host: Host) -> None:
        """Connect a host to this network."""
        if host.name in self.hosts:
            raise NetworkError(f"host {host.name} already attached to {self.name}")
        self.hosts[host.name] = host
        host.networks[self.name] = self

    def _require_host(self, host_name: str) -> Host:
        try:
            return self.hosts[host_name]
        except KeyError:
            raise NetworkError(
                f"host {host_name!r} is not attached to network {self.name}"
            ) from None

    def can_reach(self, src: str, dst: str) -> bool:
        """Whether the network can currently carry ``src -> dst`` traffic.

        Subclasses refine this with medium state (segment up, route
        exists) so multi-homed hosts can pick a usable network instead
        of timing out on a dead one.
        """
        return src in self.hosts and dst in self.hosts

    # -- subclass interface -------------------------------------------------

    def _transmit_frame(
        self,
        frame: Frame,
        on_drop: Optional[Callable[[Frame, str], None]] = None,
    ) -> None:
        """Put one frame on the medium.

        Data frames carry the ``plan`` of their RMS; control frames
        carry none and a routed network resolves the current path.
        Endpoints need no per-frame check: every frame is built from an
        RMS whose hosts ``create_rms`` validated, and hosts are never
        detached.
        """
        raise NotImplementedError

    def _path_profile(self, src: str, dst: str) -> Tuple[float, float, List[str]]:
        """(fixed seconds, seconds/byte, route node names) for a pair."""
        raise NotImplementedError

    def _route_plan(self, src: str, dst: str, flow: Optional[int] = None):
        """Compiled forwarding plan for a pair (and flow), or ``None``.

        Networks without hop-by-hop forwarding return ``None``.
        ``flow`` selects among equal-cost plans when the network runs
        ECMP; ``None`` always resolves the canonical single path.
        """
        return None

    def _pinned_plan(self, route: List[str]):
        """Compiled plan for an explicit node list, or ``None`` as above."""
        return None

    def _next_flow(self, src: str, dst: str) -> int:
        """The next flow sequence number for a (src, dst) pair.

        Deterministic per run: the counter is per network instance and
        advances once per RMS creation, so repeated builds from the
        same seed pin the same flows to the same equal-cost paths.
        """
        key = (src, dst)
        flow = self._flow_ids.get(key, 0)
        self._flow_ids[key] = flow + 1
        return flow

    def _admission_pools(self, route: List[str]) -> List[AdmissionController]:
        raise NotImplementedError

    # -- capability advertisement (section 3.1) ------------------------------

    def capability_table(self, src: str, dst: str) -> CapabilityTable:
        """Per-pair performance limits for each supported combination."""
        fixed, per_byte, route = self._path_profile(src, dst)
        # Allow a few maximum-size frames of queueing ahead of each hop.
        slack = 4 * per_byte * (self.properties.mtu + FRAME_OVERHEAD_BYTES)
        # The capacity an RMS may keep outstanding is bounded by the
        # *smallest* buffer along the path (the bottleneck), discounted
        # because control traffic and other streams share it.
        bottleneck = min(
            pool.total_buffer_bytes for pool in self._admission_pools(route)
        )
        limits = PerformanceLimits(
            best_delay=DelayBound(fixed + slack, per_byte),
            max_capacity=max(1, (bottleneck * 3) // 4),
            max_message_size=self.properties.mtu,
            floor_bit_error_rate=self.medium_bit_error_rate,
            strongest_type=(
                DelayBoundType.DETERMINISTIC
                if self.properties.supports_guarantees
                else DelayBoundType.BEST_EFFORT
            ),
        )
        table = CapabilityTable()
        table.set_limits(False, False, False, limits)
        secure_medium = self.properties.trusted or self.properties.link_encryption
        if secure_medium:
            # The medium itself prevents impersonation and eavesdropping,
            # so every security combination is available at no extra cost.
            for authentication in (False, True):
                for privacy in (False, True):
                    table.set_limits(False, authentication, privacy, limits)
        return table

    # -- RMS lifecycle ---------------------------------------------------------

    def create_rms(
        self,
        sender: Label,
        receiver: Label,
        desired: RmsParams,
        acceptable: RmsParams,
    ) -> Future:
        """Create a network RMS between two attached hosts.

        Negotiation and admission run immediately (raising
        :class:`NegotiationError` / :class:`AdmissionError` on
        rejection); the returned future resolves to the
        :class:`NetworkRms` once the setup handshake (one network round
        trip) completes.  Each (src, dst) pair hands out flow numbers for
        ECMP path pinning, so successive streams between the same hosts
        spread across equal-cost paths.
        """
        self._require_host(sender.host)
        self._require_host(receiver.host)
        table = self.capability_table(sender.host, receiver.host)
        actual = negotiate(desired, acceptable, table)
        rms = NetworkRms(
            self.context,
            actual,
            sender,
            receiver,
            network=self,
            name=f"{self.name}.rms{next(_setup_ids)}",
        )
        flow = self._next_flow(sender.host, receiver.host)
        plan = self._route_plan(sender.host, receiver.host, flow)
        # The pinned plan's path is the admitted contract: route and
        # reservations both follow it (it may be an equal-cost sibling of
        # the canonical shortest path under ECMP).  Without hop-by-hop
        # forwarding the peer is one hop away.
        route = [sender.host, receiver.host] if plan is None else plan.route
        rms._route = route
        rms.plan = plan
        admitted = rms._pools
        try:
            for pool in self._admission_pools(route):
                pool.admit(rms.rms_id, actual)
                admitted.append(pool)
        except Exception:
            for pool in admitted:
                pool.release(rms.rms_id)
            raise
        self._rms_table[rms.rms_id] = rms
        self.setup_count += 1
        future = Future(self.context.loop)
        retry = Retry(  # ldexp(t, n) is t * 2**n, exact, and no Python frame
            self.context.loop, partial(ldexp, SETUP_TIMEOUT), SETUP_RETRIES,
            partial(self._setup_due, rms), partial(self._setup_failed, rms),
        )
        self._pending_setups[rms.rms_id] = (future, retry)
        self._send_control(rms, "setup")
        retry.arm()
        return future

    def _setup_due(self, rms: NetworkRms) -> None:
        retry = self._pending_setups[rms.rms_id][1]
        if retry.again():
            self._send_control(rms, "setup")
            retry.arm()

    def _setup_failed(self, rms: NetworkRms) -> None:
        future, _ = self._pending_setups.pop(rms.rms_id)
        self._release(rms)
        rms.fail("setup timed out")
        future.set_exception(
            NetworkError(f"RMS setup to {rms.receiver.host} timed out")
        )

    def delete_rms(self, rms: NetworkRms) -> None:
        """Tear an RMS down and release its reservations."""
        if rms.rms_id not in self._rms_table:
            return
        self._send_control(rms, "teardown")
        self._release(rms)
        rms.delete()

    def _release(self, rms: NetworkRms) -> None:
        """Forget ``rms`` and its reservations; fail its setup, if any."""
        self._rms_table.pop(rms.rms_id, None)
        for pool in rms._pools:
            pool.release(rms.rms_id)
        pending = self._pending_setups.pop(rms.rms_id, None)
        if pending is not None:
            future, retry = pending
            retry.stop()
            future.set_exception(NetworkError(
                f"RMS setup to {rms.receiver.host} abandoned: {rms.name} released"
            ))

    def _send_control(self, rms: NetworkRms, kind: str) -> None:
        message = Message(
            b"\x00" * SETUP_PAYLOAD_BYTES,
            source=rms.sender,
            target=rms.receiver,
        )
        src, dst = rms.sender.host, rms.receiver.host
        if kind == "setup_ack":
            src, dst = dst, src
        frame = Frame(
            message=message,
            src_host=src,
            dst_host=dst,
            rms_id=rms.rms_id,
            kind=kind,
            deadline=self.context.now,  # control traffic goes first
        )
        self._transmit_frame(frame, on_drop=self._control_dropped)

    def _control_dropped(self, frame: Frame, reason: str) -> None:
        """A dropped control frame; the setup retry timer recovers."""
        self.control_drops[frame.kind] += 1

    # -- incoming traffic -------------------------------------------------------

    def listen_incoming(
        self, host_name: str, callback: Callable[[NetworkRms], None]
    ) -> None:
        """Register a per-host handler for RMSs created by remote peers."""
        self._require_host(host_name)
        self._incoming_listeners.setdefault(host_name, []).append(callback)

    def register_quench_handler(
        self, host_name: str, callback: Callable[[Frame], None]
    ) -> None:
        """Register a source-quench receiver (used by the TCP baseline)."""
        self._quench_handlers[host_name] = callback

    def _frame_arrived(self, frame: Frame) -> None:
        """Demultiplex one frame at its destination host."""
        if frame.kind == "data":
            rms = self._rms_table.get(frame.rms_id)
            if rms is None or rms.state is not RmsState.OPEN:
                return  # stale traffic for a deleted stream
            self.frames_delivered += 1
            if frame.corrupted:
                self.frames_corrupted_delivered += 1
            rms._frame_arrived(frame)
        elif frame.kind == "setup":
            rms = self._rms_table.get(frame.rms_id)
            if rms is None:
                return
            for listener in self._incoming_listeners.get(frame.dst_host, []):
                listener(rms)
            self._send_control(rms, "setup_ack")
        elif frame.kind == "setup_ack":
            pending = self._pending_setups.pop(frame.rms_id, None)
            if pending is not None:
                future, retry = pending
                retry.stop()
                rms = self._rms_table[frame.rms_id]
                rms.established = True
                future.set_result(rms)
        elif frame.kind == "teardown":
            rms = self._rms_table.get(frame.rms_id)
            if rms is not None:
                self._release(rms)
                rms.delete()
        elif frame.kind == "quench":
            handler = self._quench_handlers.get(frame.dst_host)
            if handler is not None:
                handler(frame)

    # -- failure ---------------------------------------------------------------

    def _fail_rms_on_route(self, dead_node_pair: Tuple[str, str], reason: str) -> None:
        """Fail every RMS whose route crosses the given adjacent pair."""
        u, v = dead_node_pair
        dead = {(u, v), (v, u)}
        for rms in list(self._rms_table.values()):
            route = rms.route
            if not dead.isdisjoint(zip(route, route[1:])):
                self._release(rms)
                rms.fail(reason)

    def fail_all(self, reason: str = "network failure") -> None:
        """Fail every RMS on this network (e.g. the segment went down)."""
        for rms in list(self._rms_table.values()):
            self._release(rms)
            rms.fail(reason)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name} hosts={len(self.hosts)} "
            f"rms={len(self._rms_table)}>"
        )
