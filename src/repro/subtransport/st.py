"""The subtransport layer (paper sections 3.2, 4.2, 4.3).

One :class:`SubtransportLayer` runs on each host.  "All upper-level
network communication in DASH passes through the ST.  The basic
functions of the ST are to provide security, to do deadline-based
message queueing, to multiplex ST RMS's onto network RMS's, and to
arrange for 'fast acknowledgement' of messages sent on ST RMS's."

Per active peer host the ST keeps

- a *control channel* (:mod:`repro.subtransport.control`) carrying a
  request/reply protocol for authentication and ST RMS establishment;
- a set of *data network RMSs*, cached and multiplexed
  (:mod:`repro.subtransport.binding`, section 4.2), each with a
  piggybacking queue (section 4.3.1).

This module is the stream lifecycle on top of those two, the layer's
side of the control channel, and the decoding and demultiplexing of
arriving bundles.  The per-message stages live on the stream they
serve: the send stage on the :class:`StRms`
(:mod:`repro.subtransport.strms`), the receive stage -- security undo,
reassembly, delivery -- on its :class:`RxStream`
(:mod:`repro.subtransport.receiver`), both resolved when the stream is
created.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional

from repro.core.message import Label, Message
from repro.core.negotiation import CapabilityTable, PerformanceLimits, negotiate
from repro.core.params import RmsParams
from repro.core.rms import RmsState
from repro.errors import NegotiationError, TransportError
from repro.netsim.network import Network, NetworkRms
from repro.netsim.topology import Host
from repro.obs.registry import families
from repro.security.keys import KeyRegistry
from repro.sim.context import SimContext
from repro.sim.events import TIMER_FAMILIES, TimerGroup
from repro.sim.process import Future
from repro.subtransport.binding import DATA_PORT, NetworkBindings, Peer
from repro.subtransport.config import (
    DEFAULT_CONFIG, StConfig, send_terms, st_best_delay)
from repro.subtransport.control import CONTROL_PORT, ControlChannel, Fields
from repro.subtransport.mux import MuxBinding
from repro.subtransport.receiver import RxStream
from repro.subtransport.security import plan_security
from repro.subtransport.strms import StRms
from repro.subtransport.wire import SUBHEADER_BYTES, decode_bundle

__all__ = ["SubtransportLayer", "StStats"]

_BUNDLE_COUNT_BYTES = 2
#: Largest message the ST offers clients, as a multiple of the network
#: maximum message size (section 4.3 discusses choosing it).
MAX_MESSAGE_MULTIPLE = 8


@dataclass
class StStats:
    """Counters for one subtransport layer."""

    st_rms_created: int = 0
    network_rms_created: int = 0
    cache_hits: int = 0
    mux_joins: int = 0  # ST RMSs placed on an already-active network RMS
    bundles_sent: int = 0
    components_sent: int = 0
    bundles_received: int = 0
    components_received: int = 0
    garbled_bundles: int = 0
    checksum_drops: int = 0
    auth_drops: int = 0
    duplicate_drops: int = 0  # components at or below the last accepted seq
    control_drops: int = 0  # tagged control frames the handshake table refuses
    orphan_components: int = 0
    fragments_sent: int = 0
    fragments_received: int = 0
    partials_discarded: int = 0
    fast_acks_sent: int = 0
    auth_handshakes: int = 0
    control_messages: int = 0
    #: Peers re-pointed after their network died, by the network moved to.
    peer_retargets: Dict[str, int] = field(default_factory=dict)

    @property
    def components_per_bundle(self) -> float:
        if self.bundles_sent == 0:
            return 0.0
        return self.components_sent / self.bundles_sent


_FAMILIES = families(
    "st", StStats,
    st_rms_created="st_rms_created",
    peer_retargets="st_peer_retargets{network}",
)


class SubtransportLayer:
    """The ST instance of one host."""

    def __init__(
        self,
        context: SimContext,
        host: Host,
        networks: List[Network],
        key_registry: Optional[KeyRegistry] = None,
        config: Optional[StConfig] = None,
    ) -> None:
        if not networks:
            raise TransportError("subtransport layer needs at least one network")
        self.context = context
        self.host = host
        self.networks = list(networks)
        self.keys = key_registry or KeyRegistry()
        self.config = config or DEFAULT_CONFIG
        self.stats = StStats()
        context.obs.metrics.watch(self.stats, _FAMILIES, host=host.name)
        self._peers: Dict[str, Peer] = {}
        self._rx: Dict[int, RxStream] = {}
        self._bindings = NetworkBindings(
            context, host, self.networks, self.config, self.stats,
            self._make_flusher,
        )
        self._control_handlers = {
            "st_create": self._handle_st_create,
            "st_close": self._handle_st_close,
            "fast_ack": self._handle_fast_ack,
        }
        if not self.keys.is_registered(host.name):
            self.keys.register_host(host.name)
        for network in self.networks:
            network.listen_incoming(host.name, self._incoming_network_rms)

    # ------------------------------------------------------------------
    # Peers
    # ------------------------------------------------------------------

    def network_for(self, peer_host: str) -> Network:
        """The preferred usable network shared with ``peer_host`` (see
        :meth:`NetworkBindings.network_for`)."""
        return self._bindings.network_for(peer_host)

    def set_network_preference(
        self, peer_host: str, network_name: Optional[str]
    ) -> None:
        """Prefer one attached network for a peer (resilience failover)."""
        self._bindings.set_network_preference(peer_host, network_name)

    def _peer(self, peer_host: str) -> Peer:
        peer = self._peers.get(peer_host)
        if peer is not None:
            self._bindings.retarget(peer)
            return peer
        peer = Peer(peer_host, TimerGroup(self.context.loop))
        self.context.obs.metrics.watch(
            peer.timers, TIMER_FAMILIES, group=f"st:{self.host.name}->{peer_host}"
        )
        peer.control = ControlChannel(
            self.context, self.stats, self.host.name, peer_host,
            self._bindings.network_for(peer_host), self._session_key(peer_host),
            peer.timers, self._control_handlers,
            before_connect=partial(self._bindings.retarget, peer),
        )
        self._peers[peer_host] = peer
        return peer

    def _session_key(self, peer_host: str) -> bytes:
        if not self.keys.is_registered(peer_host):
            self.keys.register_host(peer_host)
        return self.keys.pairwise_key(self.host.name, peer_host)

    # ------------------------------------------------------------------
    # Public API: ST RMS lifecycle
    # ------------------------------------------------------------------

    def st_capability_table(self, peer_host: str) -> CapabilityTable:
        """What the ST can offer toward ``peer_host`` (ST-level 3.1 info).

        Network limits are widened by the ST's mechanisms: software
        security makes every security combination available, and
        fragmentation multiplies the maximum message size.  Delay bounds
        gain the ST processing allowances.
        """
        network = self._bindings.network_for(peer_host)
        base = network.capability_table(self.host.name, peer_host)
        probe = RmsParams()  # plain combination always supported
        limits = base.limits_for(probe)
        if limits is None:  # pragma: no cover - networks always offer plain
            raise NegotiationError(f"network {network.name} offers no service")
        st_limits = PerformanceLimits(
            best_delay=st_best_delay(limits.best_delay),
            max_capacity=limits.max_capacity,
            max_message_size=limits.max_message_size * MAX_MESSAGE_MULTIPLE,
            floor_bit_error_rate=limits.floor_bit_error_rate,
            strongest_type=limits.strongest_type,
        )
        table = CapabilityTable()
        for authentication in (False, True):
            for privacy in (False, True):
                table.set_limits(False, authentication, privacy, st_limits)
        return table

    def create_st_rms(
        self,
        peer_host: str,
        port: str = "default",
        desired: Optional[RmsParams] = None,
        acceptable: Optional[RmsParams] = None,
        fast_ack: bool = False,
    ) -> Future:
        """Create an ST RMS from this host to a port on ``peer_host``.

        Section 2.4's request: the provider aims for ``desired`` (default
        ``RmsParams()``) and settles for anything compatible with
        ``acceptable`` (default: ``desired`` itself).  Returns a future
        resolving to the :class:`StRms`.  The first request to
        a peer triggers control-channel creation and authentication;
        later requests reuse the channel and, when the multiplexing
        rules allow, an existing or cached network RMS.
        """
        if desired is None:
            desired = RmsParams()
        if acceptable is None:
            acceptable = desired
        result = Future(self.context.loop)
        process = self.context.spawn(
            self._create_flow(peer_host, port, desired, acceptable, fast_ack),
            name=f"st-create:{self.host.name}->{peer_host}",
        )
        process.finished.add_done_callback(lambda f: f.copy_to(result))
        return result

    def _create_flow(self, peer_host, port, desired, acceptable, fast_ack):
        peer = self._peer(peer_host)
        yield self.ensure_control(peer_host)
        actual = negotiate(desired, acceptable, self.st_capability_table(peer_host))
        network = peer.control.network
        plan = plan_security(actual, network)
        receiver_host = network.hosts[peer_host]
        st_rms = StRms(
            self.context,
            actual,
            sender=Label(self.host.name, port),
            receiver=Label(peer_host, port),
            sender_st=self,
            plan=plan,
            fast_ack=fast_ack,
            receiver_port=receiver_host.bind_port(port),
            name=f"st:{self.host.name}->{peer_host}:{port}",
        )
        reply = yield peer.control.request(
            {
                "op": "st_create",
                "st_id": st_rms.rms_id,
                "port": port,
                "fast_ack": st_rms.fast_ack,
                "capacity": actual.capacity,
            }
        )
        if reply.get("op") != "st_accept":
            st_rms.fail("peer rejected ST RMS creation")
            raise NegotiationError(
                f"{peer_host} rejected ST RMS: {reply.get('reason', 'unknown')}"
            )
        binding = yield from self._bindings.assign(peer, actual)
        binding.attach(st_rms)
        st_rms.max_component = (
            binding.network_rms.params.max_message_size
            - _BUNDLE_COUNT_BYTES
            - SUBHEADER_BYTES
            - st_rms.security.overhead
        )
        st_rms.send_terms = terms = send_terms(
            actual.delay_bound, binding.network_rms.params.delay_bound
        )
        st_rms.send_figures = self.context.figures.setdefault(
            ("send", st_rms.cost_terms, terms), {}
        )
        st_rms.on_failure.listen(partial(self._stream_failed, peer))
        self.stats.st_rms_created += 1
        return st_rms

    def _stream_failed(self, peer: Peer, st_rms: StRms, reason: str) -> None:
        """Drop a failed stream's binding here and receiver at the peer."""
        self._bindings.detach(peer, st_rms)
        rx = st_rms.rx
        if rx is not None:
            rx.layer._rx.pop(st_rms.rms_id, None)
        obs = self.context.obs
        if obs.enabled:
            obs.spans.forget(st_rms.rms_id)

    def close_st_rms(self, st_rms: StRms) -> None:
        """Tear one ST RMS down, possibly caching its network RMS."""
        if st_rms.state is not RmsState.OPEN:
            return
        peer = self._peer(st_rms.receiver.host)
        peer.control.send({"op": "st_close", "st_id": st_rms.rms_id})
        self._bindings.detach(peer, st_rms)
        st_rms.delete()

    def close_peer(self, peer_host: str) -> None:
        """Tear down all state toward one peer, leaving zero live timers.

        Every pending control request fails, its retransmission timer is
        cancelled (and dropped from the peer's group eagerly), queued
        components are flushed, and the control and cached network RMSs
        are closed.
        """
        peer = self._peers.pop(peer_host, None)
        if peer is None:
            return
        peer.control.close()
        for binding in list(peer.bindings) + list(peer.cached):
            binding.queue.flush("forced")
            for st_rms in list(binding.st_rms.values()):
                binding.detach(st_rms)
                st_rms.delete()
            if binding.network_rms.is_open:
                peer.control.network.delete_rms(binding.network_rms)
        peer.bindings.clear()
        peer.cached.clear()
        peer.timers.cancel_all()

    # ------------------------------------------------------------------
    # Control channel (section 3.2): the layer's side of it
    # ------------------------------------------------------------------

    def ensure_control(self, peer_host: str) -> Future:
        """A future resolving once the authenticated control channel is up."""
        return self._peer(peer_host).control.ensure()

    def _incoming_network_rms(self, rms: NetworkRms) -> None:
        if rms.receiver.host != self.host.name:
            return
        if rms.receiver.port == CONTROL_PORT:
            rms.port.set_handler(self._peer(rms.sender.host).control.arrived)
        elif rms.receiver.port == DATA_PORT:
            rms.port.set_handler(
                lambda message, r=rms: self._data_arrived(r, message)
            )

    def _handle_st_create(self, channel: ControlChannel, fields: Fields) -> None:
        """ST RMS establishment, receiver side."""
        st_id = fields["st_id"]
        st_rms = StRms.registry.get(st_id)
        if st_rms is None:
            channel.send(
                {"op": "st_reject", "req": fields["req"], "reason": "unknown st_id"}
            )
            return
        self._rx[st_id] = st_rms.rx = RxStream(
            self, st_rms, bool(fields.get("fast_ack")), channel.peer_host
        )
        channel.send({"op": "st_accept", "req": fields["req"]})

    def _handle_st_close(self, channel: ControlChannel, fields: Fields) -> None:
        # What arrives for the stream from now on is an orphan, so the
        # tracer keeps none of its components in flight.
        self._rx.pop(fields["st_id"], None)
        obs = self.context.obs
        if obs.enabled:
            obs.spans.forget(fields["st_id"])

    def _handle_fast_ack(self, channel: ControlChannel, fields: Fields) -> None:
        st_rms = StRms.registry.get(fields["st_id"])
        if st_rms is not None:
            st_rms.on_fast_ack.fire(fields["seq"])

    # ------------------------------------------------------------------
    # Data path: the bindings' flush, and arriving bundles
    # ------------------------------------------------------------------

    def _make_flusher(self, binding: MuxBinding):
        """The binding's one way onto its network RMS, built once: the
        piggyback queue flushes bundles through it and fragments go out
        through it directly."""
        network_rms = binding.network_rms
        stats = self.stats

        def flush(payload: bytes, deadline: float, st_ids: List[int], count: int):
            network_rms.send(payload, deadline)
            binding.record_deadline(st_ids, deadline)
            stats.bundles_sent += 1
            stats.components_sent += count

        return flush

    # -- receive path ----------------------------------------------------------

    def _data_arrived(self, network_rms: NetworkRms, message: Message) -> None:
        """Decode one bundle and hand each component to its stream's
        receiver."""
        stats = self.stats
        try:
            components = decode_bundle(message.payload)
        except TransportError:
            stats.garbled_bundles += 1
            return
        stats.bundles_received += 1
        receivers = self._rx
        obs = self.context.obs
        for st_rms_id, seq, flags, data, send_time, offset, total in components:
            trace_id = None
            if obs.enabled:
                # Trace ids never cross the wire; rejoin the component's
                # span from the tracer's side table.
                trace_id = obs.spans.claim((st_rms_id, seq))
                obs.spans.event(
                    trace_id, "net", "rx",
                    st_rms=st_rms_id, seq=seq, host=self.host.name,
                )
            rx = receivers.get(st_rms_id)
            if rx is None:
                stats.orphan_components += 1
                continue
            rx.receive(seq, flags, data, send_time, offset, total, trace_id)

    def __repr__(self) -> str:
        return (
            f"<SubtransportLayer host={self.host.name} peers={len(self._peers)} "
            f"rx={len(self._rx)}>"
        )
