"""The subtransport layer (paper sections 3.2, 4.2, 4.3).

One :class:`SubtransportLayer` runs on each host.  "All upper-level
network communication in DASH passes through the ST.  The basic
functions of the ST are to provide security, to do deadline-based
message queueing, to multiplex ST RMS's onto network RMS's, and to
arrange for 'fast acknowledgement' of messages sent on ST RMS's."

Per active peer host the ST keeps

- a *control channel*: two low-capacity, low-delay network RMSs, one per
  direction, carrying a request/reply protocol for authentication and
  ST RMS establishment ("The first ST RMS creation request to a given
  peer triggers the creation of the ST control channel to that peer");
- a set of *data network RMSs*, cached and multiplexed (section 4.2),
  each with a piggybacking queue (section 4.3.1).

The ST also fragments/reassembles when the ST maximum message size
exceeds the network's ("It does not retransmit fragments; if a message
is incomplete when a fragment of the next message arrives, the partial
message is discarded", section 4.3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.core.message import Label, Message, fast_message
from repro.core.negotiation import CapabilityTable, PerformanceLimits, negotiate
from repro.core.params import (
    DelayBound,
    DelayBoundType,
    RmsParams,
    RmsRequest,
    StatisticalSpec,
)
from repro.core.rms import RmsState
from repro.errors import (
    AdmissionError,
    AuthenticationError,
    NegotiationError,
    RmsError,
    TransportError,
)
from repro.netsim.network import Network, NetworkRms
from repro.netsim.topology import Host
from repro.security.keys import KeyRegistry
# The control channel tags its frames with this module function; the
# *data* path runs whatever provider the channel negotiated (see
# SecurityContext).
from repro.security.mac import compute_mac, verify_mac
from repro.sim.context import SimContext
from repro.sim.events import TimerGroup
from repro.sim.process import Future
from repro.subtransport.config import StConfig
from repro.subtransport.mux import MuxBinding
from repro.subtransport.piggyback import PiggybackQueue
from repro.subtransport.security import plan_security
from repro.subtransport.strms import StRms
from repro.subtransport.wire import (
    BundleEntry,
    FLAG_CHECKSUM,
    FLAG_ENCRYPTED,
    FLAG_FRAGMENT,
    FLAG_MAC,
    FRAG_HEADER_BYTES,
    SUBHEADER_BYTES,
    control_mac_material,
    decode_bundle_flat,
    decode_control,
    encode_control,
    encode_single,
)

__all__ = ["SubtransportLayer", "StStats"]

CONTROL_PORT = "st-ctl"
DATA_PORT = "st-data"

_BUNDLE_COUNT_BYTES = 2
_SECURITY_FLAGS = FLAG_CHECKSUM | FLAG_MAC | FLAG_ENCRYPTED


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
    orphan_components: int = 0
    fragments_sent: int = 0
    fragments_received: int = 0
    partials_discarded: int = 0
    fast_acks_sent: int = 0
    auth_handshakes: int = 0
    control_messages: int = 0

    @property
    def components_per_bundle(self) -> float:
        if self.bundles_sent == 0:
            return 0.0
        return self.components_sent / self.bundles_sent


@dataclass
class _PendingRequest:
    """An outstanding control request with retransmission state."""

    future: Future
    fields: Dict[str, Any]
    attempts: int = 0
    timer: Any = None


@dataclass
class _RxStream:
    """Receive-side state for one incoming ST RMS."""

    st_rms: StRms
    fast_ack: bool = False
    sender_host: str = ""
    partial: bytearray = field(default_factory=bytearray)
    partial_expected: int = 0  # total bytes of the message being reassembled
    partial_offset: int = 0  # next expected fragment offset
    partial_deadline_time: float = 0.0
    partial_send_time: float = 0.0
    partial_trace: Optional[int] = None  # span of the message being reassembled
    #: Monotonic floor on receive-stage CPU deadlines: without it, a
    #: smaller (hence earlier-deadline) later message could overtake its
    #: predecessor in the EDF CPU queue, violating in-sequence delivery.
    last_cpu_deadline: float = 0.0
    #: Per-size memos of the delay bound (-1.0 marks unbounded) and of
    #: the receive-stage CPU cost: both pure functions of the size, so a
    #: hit is the float a per-message call would compute.
    bound_cache: Dict[int, float] = field(default_factory=dict)
    cost_cache: Dict[int, float] = field(default_factory=dict)


class _PeerState:
    """Everything the ST knows about one remote host."""

    def __init__(
        self, host_name: str, network: Network, timers: TimerGroup
    ) -> None:
        self.host_name = host_name
        self.network = network
        self.control_out: Optional[NetworkRms] = None
        self.control_in: Optional[NetworkRms] = None
        self.control_out_state = "none"  # none | creating | ready
        self.authenticated = False
        self.auth_in_progress = False
        self.ready_waiters: List[Future] = []
        self.outbox: List[Message] = []
        self.pending_replies: Dict[int, "_PendingRequest"] = {}
        self.auth_timer = None
        self.auth_attempts = 0
        self.req_ids = itertools.count(1)
        self.initiator_nonce: Optional[int] = None
        self.bindings: List[MuxBinding] = []
        self.cached: List[MuxBinding] = []
        #: One coalesced deadline heap for every protocol timer aimed at
        #: this peer (piggyback flushes, control retransmissions, auth
        #: retries).
        self.timers = timers

    @property
    def ready(self) -> bool:
        return self.control_out_state == "ready" and self.authenticated


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
        self._peers: Dict[str, _PeerState] = {}
        self._network_preference: Dict[str, str] = {}
        self._rx: Dict[int, _RxStream] = {}
        if not self.keys.is_registered(host.name):
            self.keys.register_host(host.name)
        for network in self.networks:
            network.listen_incoming(host.name, self._incoming_network_rms)

    # ------------------------------------------------------------------
    # Peer and network selection
    # ------------------------------------------------------------------

    def network_for(self, peer_host: str) -> Network:
        """The preferred usable network shared with ``peer_host``.

        Candidates are the configured networks both hosts attach to, in
        configuration order.  Among candidates that can currently reach
        the peer (:meth:`Network.can_reach`), an explicit per-peer
        preference -- set by the resilience layer on failover -- wins,
        then configuration order.  When no candidate is usable the first
        candidate is returned, so establishment on a dead network still
        fails through the normal setup-timeout path.
        """
        candidates = [
            network
            for network in self.networks
            if self.host.name in network.hosts and peer_host in network.hosts
        ]
        if not candidates:
            raise TransportError(
                f"no common network between {self.host.name} and {peer_host}"
            )
        preferred = self._network_preference.get(peer_host)
        if preferred is not None:
            for network in candidates:
                if network.name == preferred and network.can_reach(
                    self.host.name, peer_host
                ):
                    return network
        for network in candidates:
            if network.can_reach(self.host.name, peer_host):
                return network
        return candidates[0]

    def set_network_preference(
        self, peer_host: str, network_name: Optional[str]
    ) -> None:
        """Prefer one attached network for a peer (resilience failover)."""
        if network_name is None:
            self._network_preference.pop(peer_host, None)
            return
        if network_name not in {network.name for network in self.networks}:
            raise TransportError(
                f"{self.host.name} is not attached to network {network_name!r}"
            )
        self._network_preference[peer_host] = network_name

    def _peer(self, peer_host: str) -> _PeerState:
        peer = self._peers.get(peer_host)
        if peer is None:
            peer = _PeerState(
                peer_host,
                self.network_for(peer_host),
                TimerGroup(self.context.loop),
            )
            self._peers[peer_host] = peer
        else:
            self._maybe_retarget(peer)
        return peer

    def _maybe_retarget(self, peer: _PeerState) -> None:
        """Re-point a peer at a usable network after its old one died.

        Only legal while no control channel exists or is being created:
        a live channel pins the peer to its network, and a failed one
        resets ``control_out_state`` to "none" first -- which is exactly
        what lets the next request migrate.  Authentication state is
        network-specific (trust differs per network), so it resets too.
        """
        if peer.control_out_state != "none":
            return
        target = self.network_for(peer.host_name)
        if target is peer.network:
            return
        obs = self.context.obs
        if obs.enabled:
            obs.metrics.counter(
                "st_peer_retargets", host=self.host.name, network=target.name
            ).inc()
        # Cached bindings on another network are useless to the new one;
        # live bindings were already failed by the network itself.
        for binding in list(peer.cached):
            if binding.network_rms.network is not target:
                peer.cached.remove(binding)
                binding.network_rms.close()
        peer.network = target
        peer.authenticated = False
        peer.auth_in_progress = False
        peer.control_in = None
        if peer.auth_timer is not None:
            peer.auth_timer.cancel()
            peer.auth_timer = None

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
        network = self.network_for(peer_host)
        base = network.capability_table(self.host.name, peer_host)
        probe = RmsParams()  # plain combination always supported
        limits = base.limits_for(probe)
        if limits is None:  # pragma: no cover - networks always offer plain
            raise NegotiationError(f"network {network.name} offers no service")
        st_limits = PerformanceLimits(
            best_delay=DelayBound(
                limits.best_delay.a
                + self.config.send_stage_allowance
                + self.config.recv_stage_allowance,
                limits.best_delay.b,
            ),
            max_capacity=limits.max_capacity,
            max_message_size=limits.max_message_size
            * self.config.max_message_multiple,
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
        process.finished.add_done_callback(lambda f: _pipe(f, result))
        return result

    def _create_flow(self, peer_host, port, desired, acceptable, fast_ack):
        peer = self._peer(peer_host)
        yield self.ensure_control(peer_host)
        actual = negotiate(desired, acceptable, self.st_capability_table(peer_host))
        plan = plan_security(
            actual, peer.network, self.config.security_provider
        )
        receiver_host = peer.network.hosts[peer_host]
        st_rms = StRms(
            self.context,
            actual,
            sender=Label(self.host.name, port),
            receiver=Label(peer_host, port),
            sender_st=self,
            plan=plan,
            fast_ack=fast_ack and self.config.fast_ack_enabled,
            receiver_port=receiver_host.bind_port(port),
            name=f"st:{self.host.name}->{peer_host}:{port}",
        )
        reply = yield self._control_request(
            peer,
            {
                "op": "st_create",
                "st_id": st_rms.rms_id,
                "port": port,
                "fast_ack": st_rms.fast_ack,
                "capacity": actual.capacity,
            },
        )
        if reply.get("op") != "st_accept":
            st_rms.fail("peer rejected ST RMS creation")
            raise NegotiationError(
                f"{peer_host} rejected ST RMS: {reply.get('reason', 'unknown')}"
            )
        binding = yield from self._assign_binding(peer, actual)
        binding.attach(st_rms)
        st_rms.max_component = (
            binding.network_rms.params.max_message_size
            - _BUNDLE_COUNT_BYTES
            - SUBHEADER_BYTES
            - st_rms.security.overhead
        )
        st_rms.on_failure.listen(lambda rms, reason: self._st_failed(peer, rms))
        self.stats.st_rms_created += 1
        obs = self.context.obs
        if obs.enabled:
            obs.metrics.counter("st_rms_created", host=self.host.name).inc()
        return st_rms

    def close_st_rms(self, st_rms: StRms) -> None:
        """Tear one ST RMS down, possibly caching its network RMS."""
        if st_rms.state is not RmsState.OPEN:
            return
        peer = self._peer(st_rms.receiver.host)
        self._send_control(peer, {"op": "st_close", "st_id": st_rms.rms_id})
        self._detach(peer, st_rms)
        st_rms.delete()

    def _detach(self, peer: _PeerState, st_rms: StRms) -> None:
        binding = st_rms.binding
        if binding is None:
            return
        binding.detach(st_rms)
        if not binding.is_idle or binding not in peer.bindings:
            return
        peer.bindings.remove(binding)
        binding.queue.flush("forced")
        if (
            self.config.cache_enabled
            and len(peer.cached) < self.config.cache_size_per_peer
            and binding.network_rms.is_open
        ):
            peer.cached.append(binding)
        else:
            peer.network.delete_rms(binding.network_rms)

    def _st_failed(self, peer: _PeerState, st_rms: StRms) -> None:
        self._detach(peer, st_rms)

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
        if peer.auth_timer is not None:
            peer.auth_timer.cancel()
            peer.auth_timer = None
        peer.auth_in_progress = False
        pending, peer.pending_replies = peer.pending_replies, {}
        error = TransportError(f"peer {peer_host} closed")
        for request in pending.values():
            if request.timer is not None:
                request.timer.cancel()
                request.timer = None
            if not request.future.done:
                request.future.set_exception(error)
        self._fail_waiters(peer, error)
        for binding in list(peer.bindings) + list(peer.cached):
            binding.queue.flush("forced")
            for st_rms in list(binding.st_rms.values()):
                binding.detach(st_rms)
                st_rms.delete()
            if binding.network_rms.is_open:
                peer.network.delete_rms(binding.network_rms)
        peer.bindings.clear()
        peer.cached.clear()
        if peer.control_out is not None and peer.control_out.is_open:
            peer.network.delete_rms(peer.control_out)
        peer.control_out = None
        peer.control_out_state = "none"
        peer.timers.cancel_all()

    # ------------------------------------------------------------------
    # Control channel (section 3.2)
    # ------------------------------------------------------------------

    def ensure_control(self, peer_host: str) -> Future:
        """A future resolving once the authenticated control channel is up."""
        peer = self._peer(peer_host)
        future = Future(self.context.loop)
        if peer.ready:
            future.set_result(None)
            return future
        peer.ready_waiters.append(future)
        self._ensure_control_out(peer)
        return future

    def _control_params(self) -> RmsParams:
        return RmsParams(
            capacity=self.config.control_capacity,
            max_message_size=min(512, self.config.control_capacity),
            delay_bound=DelayBound(self.config.control_delay_bound, 1e-6),
            delay_bound_type=DelayBoundType.BEST_EFFORT,
        )

    def _ensure_control_out(self, peer: _PeerState) -> None:
        if peer.control_out_state != "none":
            return
        self._maybe_retarget(peer)
        peer.control_out_state = "creating"
        params = self._control_params()
        acceptable = params.with_(
            delay_bound=DelayBound(self.config.control_delay_bound * 4, 1e-5)
        )
        future = peer.network.create_rms(
            Label(self.host.name, CONTROL_PORT),
            Label(peer.host_name, CONTROL_PORT),
            params,
            acceptable,
        )
        future.add_done_callback(lambda f: self._control_out_done(peer, f))

    def _control_out_done(self, peer: _PeerState, future: Future) -> None:
        if future.failed:
            peer.control_out_state = "none"
            self._fail_waiters(peer, TransportError("control channel setup failed"))
            return
        peer.control_out = future.result()
        peer.control_out.on_failure.listen(
            lambda rms, reason: self._control_failed(peer, reason)
        )
        peer.control_out_state = "ready"
        for message in peer.outbox:
            self._control_transmit(peer, message)
        peer.outbox.clear()
        self._start_authentication(peer)

    def _control_failed(self, peer: _PeerState, reason: str) -> None:
        peer.control_out = None
        peer.control_out_state = "none"
        peer.authenticated = False
        self._fail_waiters(peer, TransportError(f"control channel failed: {reason}"))

    def _fail_waiters(self, peer: _PeerState, error: Exception) -> None:
        waiters, peer.ready_waiters = peer.ready_waiters, []
        for waiter in waiters:
            waiter.set_exception(error)

    def _start_authentication(self, peer: _PeerState) -> None:
        trusted = peer.network.properties.trusted and self.config.trust_optimization
        if trusted:
            peer.authenticated = True
            self._resolve_waiters(peer)
            return
        if peer.auth_in_progress or peer.authenticated:
            return
        peer.auth_in_progress = True
        self.stats.auth_handshakes += 1
        nonce = self.context.rng.stream(f"auth:{self.host.name}").getrandbits(48)
        peer.initiator_nonce = nonce
        peer.auth_attempts = 0
        self._send_control(
            peer, {"op": "auth1", "from": self.host.name, "na": nonce}
        )
        peer.auth_timer = peer.timers.call_after(
            self.config.auth_retry_timeout, self._auth_timeout, peer
        )

    def _auth_timeout(self, peer: _PeerState) -> None:
        peer.auth_timer = None
        if peer.authenticated or not peer.auth_in_progress:
            return
        peer.auth_attempts += 1
        if peer.auth_attempts > self.config.auth_max_retries:
            peer.auth_in_progress = False
            self._fail_waiters(
                peer,
                AuthenticationError(
                    f"authentication with {peer.host_name} timed out"
                ),
            )
            return
        self._send_control(
            peer,
            {"op": "auth1", "from": self.host.name, "na": peer.initiator_nonce},
        )
        peer.auth_timer = peer.timers.call_after(
            self.config.auth_retry_timeout * (2 ** peer.auth_attempts),
            self._auth_timeout,
            peer,
        )

    def _resolve_waiters(self, peer: _PeerState) -> None:
        waiters, peer.ready_waiters = peer.ready_waiters, []
        for waiter in waiters:
            waiter.set_result(None)

    # -- control send/receive machinery ---------------------------------

    def _send_control(self, peer: _PeerState, fields: Dict[str, Any]) -> None:
        key = self._session_key(peer.host_name)
        # The pairwise key is symmetric: the tag binds the source label,
        # or a host's own frames would verify when played back to it.
        mac = compute_mac(
            key, control_mac_material(fields), self.host.name.encode()
        )
        message = Message(
            encode_control(fields, mac=mac),
            source=Label(self.host.name, CONTROL_PORT),
            target=Label(peer.host_name, CONTROL_PORT),
        )
        self.stats.control_messages += 1
        obs = self.context.obs
        if obs.enabled:
            obs.metrics.counter(
                "st_control_messages", host=self.host.name
            ).inc()
        if peer.control_out_state == "ready" and peer.control_out is not None:
            self._control_transmit(peer, message)
        else:
            peer.outbox.append(message)
            self._ensure_control_out(peer)

    def _control_transmit(self, peer: _PeerState, message: Message) -> None:
        deadline = self.context.now + self.config.control_delay_bound
        peer.control_out.send(message, deadline=deadline)

    def _control_request(self, peer: _PeerState, fields: Dict[str, Any]) -> Future:
        req_id = next(peer.req_ids)
        fields = dict(fields)
        fields["req"] = req_id
        pending = _PendingRequest(future=Future(self.context.loop), fields=fields)
        peer.pending_replies[req_id] = pending
        self._send_control(peer, fields)
        pending.timer = peer.timers.call_after(
            self.config.control_retry_timeout, self._request_timeout, peer, req_id
        )
        return pending.future

    def _request_timeout(self, peer: _PeerState, req_id: int) -> None:
        pending = peer.pending_replies.get(req_id)
        if pending is None:
            return
        pending.attempts += 1
        if pending.attempts > self.config.control_max_retries:
            peer.pending_replies.pop(req_id, None)
            pending.future.set_exception(
                TransportError(
                    f"control request to {peer.host_name} timed out"
                )
            )
            return
        self._send_control(peer, pending.fields)
        pending.timer = peer.timers.call_after(
            self.config.control_retry_timeout * (2 ** pending.attempts),
            self._request_timeout,
            peer,
            req_id,
        )

    def _incoming_network_rms(self, rms: NetworkRms) -> None:
        if rms.receiver.host != self.host.name:
            return
        if rms.receiver.port == CONTROL_PORT:
            peer = self._peer(rms.sender.host)
            peer.control_in = rms
            rms.port.set_handler(
                lambda message, p=peer: self._control_arrived(p, message)
            )
        elif rms.receiver.port == DATA_PORT:
            rms.port.set_handler(
                lambda message, r=rms: self._data_arrived(r, message)
            )

    def _control_arrived(self, peer: _PeerState, message: Message) -> None:
        try:
            fields = decode_control(message.payload)
        except TransportError:
            self.stats.garbled_bundles += 1
            return
        key = self._session_key(peer.host_name)
        mac_hex = fields.get("_mac")
        if mac_hex is None or not verify_mac(
            key,
            control_mac_material(fields),
            bytes.fromhex(mac_hex),
            peer.host_name.encode(),
        ):
            self.stats.auth_drops += 1
            return
        op = fields.get("op")
        if op == "auth1":
            self._handle_auth1(peer, fields)
        elif op == "auth2":
            self._handle_auth2(peer, fields)
        elif op == "auth3":
            self._handle_auth3(peer, fields)
        elif op == "st_create":
            self._handle_st_create(peer, fields)
        elif op in ("st_accept", "st_reject"):
            pending = peer.pending_replies.pop(fields.get("req", -1), None)
            if pending is not None:
                if pending.timer is not None:
                    pending.timer.cancel()
                pending.future.set_result(fields)
        elif op == "st_close":
            self._rx.pop(fields.get("st_id", -1), None)
        elif op == "fast_ack":
            st_rms = StRms.registry.get(fields.get("st_id", -1))
            if st_rms is not None:
                st_rms.on_fast_ack.fire(fields.get("seq", -1))

    # -- authentication handshake (challenge/response on the channel) ----

    def _handle_auth1(self, peer: _PeerState, fields: Dict[str, Any]) -> None:
        nb = self.context.rng.stream(f"auth:{self.host.name}").getrandbits(48)
        self._send_control(
            peer,
            {"op": "auth2", "from": self.host.name, "na": fields["na"], "nb": nb},
        )

    def _handle_auth2(self, peer: _PeerState, fields: Dict[str, Any]) -> None:
        if peer.initiator_nonce is None or fields.get("na") != peer.initiator_nonce:
            self.stats.auth_drops += 1
            return
        self._send_control(
            peer, {"op": "auth3", "from": self.host.name, "nb": fields["nb"]}
        )
        peer.authenticated = True
        peer.auth_in_progress = False
        if peer.auth_timer is not None:
            peer.auth_timer.cancel()
            peer.auth_timer = None
        self._resolve_waiters(peer)

    def _handle_auth3(self, peer: _PeerState, fields: Dict[str, Any]) -> None:
        # The MAC on the envelope already proves key possession; seeing
        # our nonce back completes mutual authentication.
        peer.authenticated = True
        self._resolve_waiters(peer)

    # -- ST RMS establishment, receiver side ------------------------------

    def _handle_st_create(self, peer: _PeerState, fields: Dict[str, Any]) -> None:
        st_id = fields.get("st_id", -1)
        st_rms = StRms.registry.get(st_id)
        if st_rms is None:
            self._send_control(
                peer,
                {
                    "op": "st_reject",
                    "req": fields.get("req"),
                    "reason": "unknown st_id",
                },
            )
            return
        self._rx[st_id] = _RxStream(
            st_rms=st_rms,
            fast_ack=bool(fields.get("fast_ack")),
            sender_host=peer.host_name,
        )
        self._send_control(peer, {"op": "st_accept", "req": fields.get("req")})

    # ------------------------------------------------------------------
    # Data path: multiplexing, piggybacking, fragmentation, security
    # ------------------------------------------------------------------

    def _assign_binding(self, peer: _PeerState, st_params: RmsParams):
        """Generator yielding a binding that can carry the new ST RMS."""
        enforce = self.config.enforce_mux_rules
        obs = self.context.obs
        if self.config.multiplexing_enabled:
            for binding in peer.bindings:
                if binding.can_accept(st_params, enforce) is None:
                    self.stats.mux_joins += 1
                    if obs.enabled:
                        obs.metrics.counter(
                            "st_mux_joins", host=self.host.name
                        ).inc()
                    return binding
        if self.config.cache_enabled:
            for binding in list(peer.cached):
                if binding.can_accept(st_params, enforce) is None:
                    peer.cached.remove(binding)
                    peer.bindings.append(binding)
                    self.stats.cache_hits += 1
                    if obs.enabled:
                        obs.metrics.counter(
                            "st_cache_hits", host=self.host.name
                        ).inc()
                    return binding
        desired, acceptable = self._network_params_for(peer, st_params)
        source = Label(self.host.name, DATA_PORT)
        target = Label(peer.host_name, DATA_PORT)
        try:
            future = peer.network.create_rms(source, target, desired, acceptable)
        except AdmissionError:
            # The headroom-inflated request did not fit; retry with the
            # exact acceptable parameters before giving up.
            future = peer.network.create_rms(
                source, target, acceptable, acceptable
            )
        network_rms = yield future
        binding = MuxBinding(network_rms)
        binding.queue = PiggybackQueue(
            self.context,
            max_bundle_payload=network_rms.params.max_message_size,
            flush_fn=self._make_flusher(binding),
            ordering_floor=binding.ordering_floor,
            timer_group=peer.timers,
            enabled=self.config.piggyback_enabled,
        )
        peer.bindings.append(binding)
        network_rms.on_failure.listen(
            lambda rms, reason, b=binding, p=peer: self._network_rms_failed(
                p, b, reason
            )
        )
        self.stats.network_rms_created += 1
        if obs.enabled:
            obs.metrics.counter(
                "st_network_rms_created", host=self.host.name
            ).inc()
        return binding

    def _network_rms_failed(
        self, peer: _PeerState, binding: MuxBinding, reason: str
    ) -> None:
        for st_rms in list(binding.st_rms.values()):
            st_rms.fail(f"network RMS failed: {reason}")
        if binding in peer.bindings:
            peer.bindings.remove(binding)
        if binding in peer.cached:
            peer.cached.remove(binding)

    def _network_params_for(self, peer: _PeerState, st_params: RmsParams):
        """Derive the network RMS request for a new binding (section 4.2)."""
        plan = plan_security(
            st_params, peer.network, self.config.security_provider
        )
        mtu = peer.network.properties.mtu
        guaranteed = st_params.delay_bound_type != DelayBoundType.BEST_EFFORT
        if guaranteed:
            # Reserved resources scale with capacity and tighten with the
            # delay bound, so guaranteed streams ask lean: modest
            # capacity headroom for multiplexing, and the loosest legal
            # bound (the budget) to minimize the worst-case reservation.
            capacity = st_params.capacity * 2
        else:
            capacity = max(self.config.default_network_capacity, st_params.capacity)
        allowances = (
            self.config.send_stage_allowance + self.config.recv_stage_allowance
        )
        if st_params.delay_bound.is_unbounded:
            desired_bound = DelayBound.unbounded()
            acceptable_bound = DelayBound.unbounded()
        else:
            budget = max(st_params.delay_bound.a - allowances, 1e-6)
            if guaranteed:
                desired_bound = DelayBound(budget, st_params.delay_bound.b)
            else:
                # Leave half the remaining slack as piggybacking window.
                desired_bound = DelayBound(budget * 0.5, st_params.delay_bound.b)
            acceptable_bound = DelayBound(budget, st_params.delay_bound.b)
        statistical = None
        if st_params.delay_bound_type == DelayBoundType.STATISTICAL:
            spec = st_params.statistical
            statistical = StatisticalSpec(
                average_load=spec.average_load * 2,
                burstiness=spec.burstiness,
                delay_probability=spec.delay_probability,
            )
        desired = RmsParams(
            reliability=False,
            authentication=plan.network_authentication,
            privacy=plan.network_privacy,
            capacity=capacity,
            max_message_size=mtu,
            delay_bound=desired_bound,
            delay_bound_type=st_params.delay_bound_type,
            statistical=statistical,
            bit_error_rate=max(
                st_params.bit_error_rate, peer.network.medium_bit_error_rate
            ),
        )
        if st_params.delay_bound_type == DelayBoundType.STATISTICAL:
            acceptable_stat = st_params.statistical
        else:
            acceptable_stat = None
        acceptable = desired.with_(
            capacity=st_params.capacity,
            delay_bound=acceptable_bound,
            statistical=acceptable_stat,
        )
        return desired, acceptable

    def _make_flusher(self, binding: MuxBinding):
        """The binding's one way onto its network RMS, built once: the
        piggyback queue flushes bundles through it and fragments go out
        through it directly."""
        network_rms = binding.network_rms
        stats = self.stats
        context = self.context
        host_name = self.host.name

        def flush(payload: bytes, deadline: float, st_ids: List[int], count: int):
            network_rms.send(payload, deadline)
            binding.record_deadline(st_ids, deadline)
            binding.bundles_sent += 1
            binding.components_sent += count
            stats.bundles_sent += 1
            stats.components_sent += count
            obs = context.obs
            if obs.enabled:
                obs.metrics.counter("st_bundles_sent", host=host_name).inc()
                obs.metrics.counter(
                    "st_components_sent", host=host_name
                ).inc(count)

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
        cost = st_rms._send_cost_cache.get(size)
        if cost is None:
            plan = st_rms.plan
            cost = cpu.costs.protocol_cost(
                size, checksum=plan.checksum, encrypt=plan.encrypt, mac=plan.mac
            )
            st_rms._send_cost_cache[size] = cost
        cpu.submit(
            st_rms._send_stage_name,
            cost,
            arrival + self.config.send_stage_allowance,
            self._send_stage_done,
            (st_rms, message, size, arrival),
            owner="st",
            trace_id=message.trace_id,
        )

    def _send_stage_done(
        self, st_rms: StRms, message: Message, size: int, arrival: float
    ) -> None:
        binding = st_rms.binding
        if binding is None or not binding.network_rms.is_open:
            st_rms._drop(message, "binding lost")
            return
        slack = st_rms._slack_cache.get(size)
        if slack is None:
            slack = self._transmission_slack(
                st_rms, binding.network_rms.params, size
            )
            st_rms._slack_cache[size] = slack
        # Maximum transmission deadline (4.3.1): arrival plus the slack.
        max_deadline = arrival + slack
        if size > st_rms.max_component:
            self._send_fragments(st_rms, binding, message, max_deadline, arrival)
            return
        entry = self._make_entry(st_rms, message.payload, 0, arrival, message)
        obs = self.context.obs
        if obs.enabled:
            obs.spans.event(
                message.trace_id, "st", "enqueue", st=st_rms.name, queued=True
            )
        binding.queue.submit(
            entry, max_deadline, arrival + self.config.piggyback_window_cap
        )

    def _transmission_slack(
        self, st_rms: StRms, net_params: RmsParams, size: int
    ) -> float:
        """The ST-minus-network delay slack of a message (4.3.1)."""
        st_bound = st_rms.params.delay_bound
        if st_bound.is_unbounded or net_params.delay_bound.is_unbounded:
            # Best-effort traffic has no bound; give it a generous
            # scheduling deadline so bounded traffic outranks it.
            return 1.0
        slack = st_bound.bound_for(size) - net_params.delay_bound.bound_for(size)
        slack -= (
            self.config.send_stage_allowance + self.config.recv_stage_allowance
        )
        return max(slack, 0.0)

    def _make_entry(
        self,
        st_rms: StRms,
        chunk: Union[bytes, memoryview],
        flags: int,
        arrival: float,
        message: Message,
        frag_offset: int = 0,
        frag_total: int = 0,
    ) -> BundleEntry:
        """Number one component of ``message``, apply the stream's
        negotiated security transform and wrap it for the wire."""
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
            chunk = protect(seq, chunk)
        return BundleEntry(
            st_rms.rms_id, seq, flags, chunk, arrival, frag_offset, frag_total,
            trace_id,
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
        st_rms.messages_fragmented += 1
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
            entry = self._make_entry(
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
                    entry.trace_id, "net", "tx",
                    st_rms=entry.st_rms_id, seq=entry.seq, bundled=1,
                )
            queue.flush_fn(
                encode_single(entry),
                max(max_deadline, binding.ordering_floor(st_ids)),
                st_ids,
                1,
            )
            self.stats.fragments_sent += 1
            st_rms.fragments_sent += 1
            if obs.enabled:
                obs.metrics.counter(
                    "st_fragments_sent", host=self.host.name
                ).inc()

    # -- receive path ----------------------------------------------------------

    def _data_arrived(self, network_rms: NetworkRms, message: Message) -> None:
        try:
            components = decode_bundle_flat(message.payload)
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
            if obs.enabled:
                obs.metrics.counter(
                    "st_orphan_components", host=self.host.name
                ).inc()
            return
        if flags & _SECURITY_FLAGS:
            # The flags on the wire, not the plan, say what to undo: a
            # flagged component on a security-elided stream is verified
            # too rather than trusted.
            st_rms = rx.st_rms
            data, failure = st_rms.security.unprotect(flags, seq, data)
            if failure is not None:
                if failure == "checksum failure":
                    self.stats.checksum_drops += 1
                else:
                    self.stats.auth_drops += 1
                st_rms._drop(Message(data, trace_id=trace_id), failure)
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
        obs = self.context.obs
        if obs.enabled:
            obs.metrics.counter(
                "st_fragments_received", host=self.host.name
            ).inc()
        if frag_offset == 0:
            if rx.partial_expected and len(rx.partial) < rx.partial_expected:
                # A fragment of the next message arrived while a message
                # was incomplete: discard the partial (section 4.3).
                self.stats.partials_discarded += 1
                if obs.enabled:
                    obs.metrics.counter(
                        "st_partials_discarded", host=self.host.name
                    ).inc()
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
        bound = rx.bound_cache.get(size)
        if bound is None:
            delay_bound = st_rms.params.delay_bound
            bound = (
                delay_bound.bound_for(size)
                if not delay_bound.is_unbounded
                else -1.0
            )
            rx.bound_cache[size] = bound
        if bound >= 0.0:
            deadline = send_time + bound
        else:
            deadline = self.context.now + self.config.recv_stage_allowance
        # In-sequence delivery (basic property 2): CPU-stage deadlines on
        # one stream never decrease, so stable EDF keeps stream order.
        if deadline < rx.last_cpu_deadline:
            deadline = rx.last_cpu_deadline
        else:
            rx.last_cpu_deadline = deadline
        cpu = self.host.cpu
        cost = rx.cost_cache.get(size)
        if cost is None:
            plan = st_rms.plan
            cost = cpu.costs.protocol_cost(
                size, checksum=plan.checksum, encrypt=plan.encrypt, mac=plan.mac
            )
            rx.cost_cache[size] = cost
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
            fast_message(
                payload, st_rms.sender, st_rms.receiver,
                send_time=send_time, trace_id=trace_id,
            )
        )
        if rx.fast_ack:
            peer = self._peer(rx.sender_host)
            self._send_control(
                peer,
                {
                    "op": "fast_ack",
                    "st_id": st_rms.rms_id,
                    "seq": st_rms.stats.messages_delivered,
                },
            )
            self.stats.fast_acks_sent += 1
            obs = self.context.obs
            if obs.enabled:
                obs.metrics.counter(
                    "st_fast_acks_sent", host=self.host.name
                ).inc()
                obs.spans.event(
                    trace_id, "st", "ack",
                    st=st_rms.name, seq=st_rms.stats.messages_delivered,
                )

    def __repr__(self) -> str:
        return (
            f"<SubtransportLayer host={self.host.name} peers={len(self._peers)} "
            f"rx={len(self._rx)}>"
        )


def _pipe(source: Future, sink: Future) -> None:
    """Copy one future's outcome into another."""
    if source.failed:
        try:
            source.result()
        except BaseException as error:  # noqa: BLE001
            sink.set_exception(error)
    else:
        sink.set_result(source.result())
