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

This module is the stream lifecycle on top of those two and the one
send and one receive pipeline.  The ST also fragments/reassembles when
the ST maximum message size exceeds the network's ("It does not
retransmit fragments; if a message is incomplete when a fragment of the
next message arrives, the partial message is discarded", section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple, Union

from repro.core.message import Label, Message
from repro.core.negotiation import CapabilityTable, PerformanceLimits, negotiate
from repro.core.params import RmsParams, RmsRequest
from repro.core.rms import RmsState
from repro.errors import NegotiationError, RmsError, TransportError
from repro.netsim.network import Network, NetworkRms
from repro.netsim.topology import Host
from repro.obs.registry import families
from repro.sched.cpu import protocol_cost
from repro.security.keys import KeyRegistry
from repro.sim.context import SimContext
from repro.sim.events import TIMER_FAMILIES, TimerGroup
from repro.sim.process import Future
from repro.subtransport.binding import DATA_PORT, NetworkBindings, Peer
from repro.subtransport.config import (
    StConfig,
    receive_deadline,
    send_deadlines,
    st_best_delay,
)
from repro.subtransport.control import CONTROL_PORT, ControlChannel, Fields
from repro.subtransport.mux import MuxBinding
from repro.subtransport.security import plan_security
from repro.subtransport.strms import StRms
from repro.subtransport.wire import (
    FLAG_CHECKSUM,
    FLAG_ENCRYPTED,
    FLAG_FRAGMENT,
    FLAG_MAC,
    FRAG_HEADER_BYTES,
    SUBHEADER_BYTES,
    Component,
    decode_bundle,
    encode_bundle,
)

__all__ = ["SubtransportLayer", "StStats"]

_BUNDLE_COUNT_BYTES = 2
_SECURITY_FLAGS = FLAG_CHECKSUM | FLAG_MAC | FLAG_ENCRYPTED
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


@dataclass
class _RxStream:
    """Receive-side state for one incoming ST RMS."""

    st_rms: StRms
    fast_ack: bool = False
    sender_host: str = ""
    partial: bytearray = field(default_factory=bytearray)
    partial_expected: int = 0  # total bytes of the message being reassembled
    partial_offset: int = 0  # next expected fragment offset
    partial_send_time: float = 0.0
    partial_trace: Optional[int] = None  # span of the message being reassembled
    #: Monotonic floor on receive-stage CPU deadlines: without it, a
    #: smaller (hence earlier-deadline) later message could overtake its
    #: predecessor in the EDF CPU queue, violating in-sequence delivery.
    last_cpu_deadline: float = 0.0
    #: Per-size memo of the receive-stage deadline (``receive_deadline``):
    #: a pure function of the size, so a hit is the float a per-message
    #: call would compute.  The stage's CPU cost is the sender's memo,
    #: ``StRms._cost_cache``: both stages run one plan.
    deadline_cache: Dict[int, Tuple[float, bool]] = field(default_factory=dict)


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
        self.config = config or StConfig()
        self.stats = StStats()
        context.obs.metrics.watch(self.stats, _FAMILIES, host=host.name)
        self._peers: Dict[str, Peer] = {}
        self._rx: Dict[int, _RxStream] = {}
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
        request: Optional[RmsRequest] = None,
    ) -> Future:
        """Create an ST RMS from this host to a port on ``peer_host``.

        Parameters may be given either as an :class:`RmsRequest` or as
        the legacy ``desired``/``acceptable`` pair (not both).  Returns
        a future resolving to the :class:`StRms`.  The first request to
        a peer triggers control-channel creation and authentication;
        later requests reuse the channel and, when the multiplexing
        rules allow, an existing or cached network RMS.
        """
        request = RmsRequest.of(desired=desired, acceptable=acceptable,
                                request=request)
        desired = request.desired
        acceptable = request.floor
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
        st_rms.on_failure.listen(
            lambda rms, reason: self._bindings.detach(peer, rms)
        )
        self.stats.st_rms_created += 1
        return st_rms

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
        self._rx[st_id] = _RxStream(
            st_rms=st_rms,
            fast_ack=bool(fields.get("fast_ack")),
            sender_host=channel.peer_host,
        )
        channel.send({"op": "st_accept", "req": fields["req"]})

    def _handle_st_close(self, channel: ControlChannel, fields: Fields) -> None:
        self._rx.pop(fields["st_id"], None)

    def _handle_fast_ack(self, channel: ControlChannel, fields: Fields) -> None:
        st_rms = StRms.registry.get(fields["st_id"])
        if st_rms is not None:
            st_rms.on_fast_ack.fire(fields["seq"])

    # ------------------------------------------------------------------
    # Data path: piggybacking, fragmentation, security
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
            binding.bundles_sent += 1
            binding.components_sent += count
            stats.bundles_sent += 1
            stats.components_sent += count

        return flush

    # -- send path ----------------------------------------------------------

    def _st_send(self, st_rms: StRms, message: Message) -> None:
        """Entry point from :meth:`StRms._transmit`: queue the send-side
        protocol stage (section 4.1) on this host's CPU."""
        if st_rms.binding is None:
            raise RmsError(f"{st_rms.name} has no network binding yet")
        size = len(message.payload)
        arrival = message.send_time
        cpu = self.host.cpu
        cost = st_rms._cost_cache.get(size)
        if cost is None:
            plan = st_rms.plan
            cost = st_rms._cost_cache[size] = protocol_cost(
                size, checksum=plan.checksum, encrypt=plan.encrypt, mac=plan.mac
            )
        deadlines = st_rms._deadline_cache.get(size)
        if deadlines is None:
            deadlines = send_deadlines(
                st_rms.params.delay_bound,
                st_rms.binding.network_rms.params.delay_bound,
                size,
            )
            st_rms._deadline_cache[size] = deadlines
        stage, slack = deadlines
        cpu.submit(
            st_rms._send_stage_name,
            cost,
            arrival + stage,
            self._send_stage_done,
            # Maximum transmission deadline (4.3.1): arrival plus the slack.
            (st_rms, message, size, arrival, arrival + slack),
            owner="st",
            trace_id=message.trace_id,
        )

    def _send_stage_done(
        self,
        st_rms: StRms,
        message: Message,
        size: int,
        arrival: float,
        max_deadline: float,
    ) -> None:
        binding = st_rms.binding
        if binding is None or not binding.network_rms.is_open:
            st_rms._drop(message, "binding lost")
            return
        if size > st_rms.max_component:
            self._send_fragments(st_rms, binding, message, max_deadline, arrival)
            return
        component = self._make_entry(
            st_rms, message.payload, 0, arrival, message
        )
        obs = self.context.obs
        if obs.enabled:
            obs.spans.event(
                message.trace_id, "st", "enqueue", st=st_rms.name, queued=True
            )
        binding.queue.submit(
            component, max_deadline,
            arrival + self.config.piggyback_window_cap, message.trace_id,
        )

    def _make_entry(
        self,
        st_rms: StRms,
        chunk: Union[bytes, memoryview],
        flags: int,
        arrival: float,
        message: Message,
        frag_offset: int = 0,
        frag_total: int = 0,
    ) -> Component:
        """Number one component of ``message`` and apply the stream's
        negotiated security transform."""
        seq = st_rms.next_seq
        st_rms.next_seq = seq + 1
        trace_id = message.trace_id
        if trace_id is not None:
            # Correlate the in-flight component with its span so the
            # receiving ST can rejoin the trace (no wire-format change).
            self.context.obs.spans.stash((st_rms.rms_id, seq), trace_id)
        security = st_rms.security
        protect = security.protect
        if protect is not None:
            flags |= security.flags
            chunk = protect(seq, chunk, arrival, frag_offset, frag_total)
        return (
            st_rms.rms_id, seq, flags, chunk, arrival, frag_offset, frag_total
        )

    def _send_fragments(
        self,
        st_rms: StRms,
        binding: MuxBinding,
        message: Message,
        max_deadline: float,
        arrival: float,
    ) -> None:
        """Fragment a large client message (section 4.3).

        Fragments are never piggybacked; the queue is flushed first so
        per-stream ordering survives the direct sends.
        """
        queue = binding.queue
        queue.flush("forced")
        chunk_size = st_rms.max_component - FRAG_HEADER_BYTES
        if chunk_size <= 0:
            raise TransportError(
                "network maximum message size too small for fragments"
            )
        total = len(message.payload)
        obs = self.context.obs
        if obs.enabled:
            obs.spans.event(
                message.trace_id, "st", "enqueue",
                st=st_rms.name, fragmented=True, total=total,
            )
        st_ids = [st_rms.rms_id]
        # One view over the client payload; each fragment is a zero-copy
        # slice of it all the way through encode_bundle's join.
        payload_view = memoryview(message.payload)
        for offset in range(0, total, chunk_size):
            component = self._make_entry(
                st_rms,
                payload_view[offset : offset + chunk_size],
                FLAG_FRAGMENT,
                arrival,
                message,
                frag_offset=offset,
                frag_total=total,
            )
            if obs.enabled:
                obs.spans.event(
                    message.trace_id, "net", "tx",
                    st_rms=st_rms.rms_id, seq=component[1], bundled=1,
                )
            queue.flush_fn(
                encode_bundle([component]),
                max(max_deadline, binding.ordering_floor(st_ids)),
                st_ids,
                1,
            )
            self.stats.fragments_sent += 1

    # -- receive path ----------------------------------------------------------

    def _data_arrived(self, network_rms: NetworkRms, message: Message) -> None:
        try:
            components = decode_bundle(message.payload)
        except TransportError:
            self.stats.garbled_bundles += 1
            return
        self.stats.bundles_received += 1
        for fields in components:
            self._receive_component(*fields)

    def _receive_component(
        self,
        st_rms_id: int,
        seq: int,
        flags: int,
        data: Union[bytes, memoryview],
        send_time: float,
        frag_offset: int,
        frag_total: int,
    ) -> None:
        """Demultiplex, verify and decrypt one decoded component."""
        obs = self.context.obs
        trace_id = None
        if obs.enabled:
            # Trace ids never cross the wire; rejoin the component's span
            # from the tracer's side table.
            trace_id = obs.spans.claim((st_rms_id, seq))
            obs.spans.event(
                trace_id, "net", "rx",
                st_rms=st_rms_id, seq=seq, host=self.host.name,
            )
        rx = self._rx.get(st_rms_id)
        if rx is None:
            self.stats.orphan_components += 1
            return
        # The stream's negotiated plan says what to undo.  The flags on
        # the wire are not authenticated: a component whose security
        # flags are not the plan's is a forgery (or a corruption), never
        # a reason to undo something else.
        security = rx.st_rms.security
        if flags & _SECURITY_FLAGS != security.flags:
            failure = "authentication failure"
        elif security.unprotect is not None:
            data, failure = security.unprotect(
                seq, data, send_time, frag_offset, frag_total
            )
        else:
            failure = None
        if failure is not None:
            if failure == "checksum failure":
                self.stats.checksum_drops += 1
            else:
                self.stats.auth_drops += 1
            rx.st_rms._drop(Message(data, trace_id=trace_id), failure)
            return
        self.stats.components_received += 1
        if flags & FLAG_FRAGMENT:
            self._receive_fragment(
                rx, data, send_time, frag_offset, frag_total, trace_id
            )
        else:
            self._deliver_after_cpu(rx, data, send_time, trace_id)

    def _receive_fragment(
        self,
        rx: _RxStream,
        data: Union[bytes, memoryview],
        send_time: float,
        frag_offset: int,
        frag_total: int,
        trace_id: Optional[int],
    ) -> None:
        self.stats.fragments_received += 1
        if frag_offset == 0:
            if rx.partial_expected and len(rx.partial) < rx.partial_expected:
                # A fragment of the next message arrived while a message
                # was incomplete: discard the partial (section 4.3).
                self.stats.partials_discarded += 1
                rx.st_rms._drop(
                    Message(bytes(rx.partial), trace_id=rx.partial_trace),
                    "partial discarded",
                )
            rx.partial = bytearray()
            rx.partial_expected = frag_total
            rx.partial_offset = 0
            rx.partial_send_time = send_time
            rx.partial_trace = trace_id
        if frag_offset != rx.partial_offset or rx.partial_expected == 0:
            # A gap (lost fragment): the message can never complete.
            # Leave the partial to be discarded on the next first-fragment.
            rx.partial_offset = -1
            return
        rx.partial.extend(data)
        rx.partial_offset += len(data)
        if len(rx.partial) >= rx.partial_expected:
            payload = bytes(rx.partial)
            rx.partial = bytearray()
            rx.partial_expected = 0
            rx.partial_offset = 0
            self._deliver_after_cpu(
                rx, payload, rx.partial_send_time, rx.partial_trace
            )

    def _deliver_after_cpu(
        self,
        rx: _RxStream,
        payload: Union[bytes, memoryview],
        send_time: float,
        trace_id: Optional[int],
    ) -> None:
        """Queue the receive-side protocol stage of one whole message."""
        st_rms = rx.st_rms
        size = len(payload)
        cached = rx.deadline_cache.get(size)
        if cached is None:
            cached = receive_deadline(st_rms.params.delay_bound, size)
            rx.deadline_cache[size] = cached
        offset, after_receipt = cached
        deadline = (self.context.now if after_receipt else send_time) + offset
        # In-sequence delivery (basic property 2): CPU-stage deadlines on
        # one stream never decrease, so stable EDF keeps stream order.
        if deadline < rx.last_cpu_deadline:
            deadline = rx.last_cpu_deadline
        else:
            rx.last_cpu_deadline = deadline
        cpu = self.host.cpu
        cost = st_rms._cost_cache.get(size)
        if cost is None:
            plan = st_rms.plan
            cost = st_rms._cost_cache[size] = protocol_cost(
                size, checksum=plan.checksum, encrypt=plan.encrypt, mac=plan.mac
            )
        obs = self.context.obs
        if obs.enabled:
            obs.spans.event(trace_id, "st", "rx", st=st_rms.name, size=size)
        cpu.submit(
            st_rms._recv_stage_name,
            cost,
            deadline,
            self._final_deliver,
            (rx, payload, send_time, trace_id),
            owner="st",
            trace_id=trace_id,
        )

    def _final_deliver(
        self,
        rx: _RxStream,
        payload: Union[bytes, memoryview],
        send_time: float,
        trace_id: Optional[int],
    ) -> None:
        st_rms = rx.st_rms
        if st_rms.state is not RmsState.OPEN:
            return
        if type(payload) is not bytes:
            # Client-delivery boundary: hand applications real bytes, not
            # a view pinned to the network message's buffer.
            payload = bytes(payload)
        st_rms._deliver(
            Message(payload, st_rms.sender, st_rms.receiver, send_time, trace_id)
        )
        if rx.fast_ack:
            self._peer(rx.sender_host).control.send(
                {
                    "op": "fast_ack",
                    "st_id": st_rms.rms_id,
                    "seq": st_rms.stats.messages_delivered,
                }
            )
            self.stats.fast_acks_sent += 1
            obs = self.context.obs
            if obs.enabled:
                obs.spans.event(
                    trace_id, "st", "ack",
                    st=st_rms.name, seq=st_rms.stats.messages_delivered,
                )

    def __repr__(self) -> str:
        return (
            f"<SubtransportLayer host={self.host.name} peers={len(self._peers)} "
            f"rx={len(self._rx)}>"
        )
