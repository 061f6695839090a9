"""The ST control plane: one control channel per peer (section 3.2).

"The first ST RMS creation request to a given peer triggers the
creation of the ST control channel to that peer": two low-capacity,
low-delay network RMSs, one per direction, carrying tagged JSON frames.
A :class:`ControlChannel` hides the framing (``wire.encode_control``
under a keyed tag binding the sender's name), the retransmission and
the authentication handshake, and offers the layer four things:
:meth:`~ControlChannel.ensure`, :meth:`~ControlChannel.request`,
:meth:`~ControlChannel.send` and :meth:`~ControlChannel.close`.

What an arriving frame does is one lookup in :data:`TABLE`,
``(peer state, message kind) -> (guard, action, next state)``.  A frame
whose kind has no row in the current state, or that lacks one of its
:data:`REQUIRED` integer fields, is a ``control_drops``; a frame whose
guard fails (a nonce this host did not issue) is an ``auth_drops``, as
is one whose tag does not verify.  Nothing a peer sends raises.
"""

from __future__ import annotations

import itertools
from functools import partial
from math import ldexp
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.message import Label, Message
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.errors import AuthenticationError, TransportError
from repro.netsim.network import Network, NetworkRms
from repro.security.mac import compute_mac, verify_mac
from repro.sim.context import SimContext
from repro.sim.events import TimerGroup
from repro.sim.process import Future
from repro.sim.retry import Retry
from repro.subtransport.wire import control_mac_material, decode_control, encode_control

__all__ = [
    "CONTROL_PARAMS", "CONTROL_PORT", "ControlChannel", "REQUIRED", "STATES",
    "TABLE",
]

CONTROL_PORT = "st-ctl"
Fields = Dict[str, Any]  # one control frame, decoded

#: Peer states.  A host answers the peer's ``auth1`` with its first
#: frame on the channel and starts its own handshake as soon as that
#: frame is out, so ``CROSSED`` is the ordinary responder's state.
IDLE = "idle"  # no handshake, not authenticated
AUTH1_SENT = "auth1-sent"  # this host's challenge is out, its retry running
AUTH2_SENT = "auth2-sent"  # this host answered a challenge with its own
CROSSED = "crossed"  # both of the above
OPEN = "open"  # authenticated
STATES = (IDLE, AUTH1_SENT, AUTH2_SENT, CROSSED, OPEN)
_INITIATING = (AUTH1_SENT, CROSSED)
_CHALLENGING = (AUTH2_SENT, CROSSED, OPEN)

#: Fields a frame of each kind must carry, every one an integer.
REQUIRED = {
    "auth1": ("na",),
    "auth2": ("na", "nb"),
    "auth3": ("nb",),
    "st_create": ("st_id", "req"),
    "st_accept": ("req",),
    "st_reject": ("req",),
    "st_close": ("st_id",),
    "fast_ack": ("st_id", "seq"),
}

#: (states, kind, guard, action, next state or None to stay); action
#: None hands the frame to the layer's handler for its kind.  The
#: stream kinds are rows in every state: on a trusted medium the
#: receiver never runs a handshake, and on a lossy one ``st_create`` can
#: overtake a lost ``auth3`` (the tag has proved key possession already).
_ROWS = (
    ((IDLE,), "auth1", None, "_answer_auth1", AUTH2_SENT),
    ((AUTH1_SENT,), "auth1", None, "_answer_auth1", CROSSED),
    (_CHALLENGING, "auth1", None, "_answer_auth1", None),
    # A duplicate auth2 has its auth3 sent again: the first may be lost.
    (STATES, "auth2", "_na_is_ours", "_answer_auth2", OPEN),
    (_CHALLENGING, "auth3", "_nb_is_ours", "_accept_auth3", OPEN),
    (STATES, "st_accept", None, "_reply_arrived", None),
    (STATES, "st_reject", None, "_reply_arrived", None),
    (STATES, "st_create", None, None, None),
    (STATES, "st_close", None, None, None),
    (STATES, "fast_ack", None, None, None),
)
TABLE = {
    (state, kind): (guard, action, after or state)
    for states, kind, guard, action, after in _ROWS
    for state in states
}


#: Section 3.2: the control channel is "low capacity, low delay".  A
#: frame is due ``CONTROL_DELAY_BOUND`` after it is sent; the network
#: may offer up to four times that.
CONTROL_DELAY_BOUND = 0.05
CONTROL_CAPACITY = 2048
#: What a control-channel RMS asks of the network.
CONTROL_PARAMS = RmsParams(
    capacity=CONTROL_CAPACITY,
    max_message_size=min(512, CONTROL_CAPACITY),
    delay_bound=DelayBound(CONTROL_DELAY_BOUND, 1e-6),
    delay_bound_type=DelayBoundType.BEST_EFFORT,
)
_CONTROL_ACCEPTABLE = CONTROL_PARAMS.with_(
    delay_bound=DelayBound(CONTROL_DELAY_BOUND * 4, 1e-5)
)
#: The channel is best-effort, so a request and the handshake's
#: ``auth1`` are sent again after ``RETRY_BASE * 2**attempt`` seconds,
#: each up to ``CONTROL_MAX_RETRIES`` times.
RETRY_BASE = 0.3
CONTROL_MAX_RETRIES = 5


class ControlChannel:
    """The control channel from one host to one peer.

    ``handlers`` maps each stream kind (``st_create``, ``st_close``,
    ``fast_ack``) to the layer's ``handler(channel, fields)``; ``stats``
    is the layer's ``StStats``; ``timers`` the peer's timer group.
    ``before_connect`` runs before each creation of the outgoing RMS
    (the layer re-points the peer at a usable network there).
    """

    def __init__(
        self,
        context: SimContext,
        stats: Any,
        host_name: str,
        peer_host: str,
        network: Network,
        key: bytes,
        timers: TimerGroup,
        handlers: Dict[str, Callable[["ControlChannel", Fields], None]],
        before_connect: Callable[[], None],
    ) -> None:
        self.context = context
        self.stats = stats
        self.host_name = host_name
        self.peer_host = peer_host
        self.network = network
        self.key = key
        self.timers = timers
        self.handlers = handlers
        self.before_connect = before_connect
        self.state = IDLE
        self.out: Optional[NetworkRms] = None
        self.out_state = "none"  # none | creating | ready
        self.outbox: List[Message] = []
        self.waiters: List[Future] = []
        #: ``req`` -> (fields, future, retry) of each unanswered request
        self.pending: Dict[int, Tuple[Fields, Future, Retry]] = {}
        self._req_ids = itertools.count(1)
        self._auth1: Optional[Retry] = None  # this host's challenge, while out
        self._nonce: Optional[int] = None  # the ``na`` of that challenge
        self._issued: List[int] = []  # every ``nb`` still awaiting its auth3

    @property
    def authenticated(self) -> bool:
        return self.state is OPEN

    # -- what the layer calls ---------------------------------------------

    def ensure(self) -> Future:
        """A future resolving once the authenticated channel is up."""
        future = Future(self.context.loop)
        if self.out_state == "ready" and self.state is OPEN:
            future.set_result(None)
        else:
            self.waiters.append(future)
            if self.out_state == "ready":
                # Unless a handshake runs, the RMS has outlived one whose
                # retries ran out: challenge again, or this waiter hangs.
                self._start_handshake()
            else:
                self._connect()
        return future

    def request(self, fields: Fields) -> Future:
        """Send ``fields`` under a fresh ``req`` number, again on each
        timeout; the future resolves to the reply's fields."""
        fields = dict(fields)
        fields["req"] = req_id = next(self._req_ids)
        future = Future(self.context.loop)
        retry = Retry(  # ldexp(t, n) is t * 2**n, exact, and no Python frame
            self.timers, partial(ldexp, RETRY_BASE), CONTROL_MAX_RETRIES,
            partial(self._request_due, req_id),
            partial(self._request_timed_out, req_id),
        )
        self.pending[req_id] = (fields, future, retry)
        self._send_retrying(fields, retry)
        return future

    def send(self, fields: Fields) -> None:
        """Tag and send one frame, creating the outgoing RMS at need."""
        # The pairwise key is symmetric: the tag binds the source label,
        # or a host's own frames would verify when played back to it.
        mac = compute_mac(
            self.key, control_mac_material(fields), self.host_name.encode()
        )
        message = Message(
            encode_control(fields, mac=mac),
            source=Label(self.host_name, CONTROL_PORT),
            target=Label(self.peer_host, CONTROL_PORT),
        )
        self.stats.control_messages += 1
        if self.out_state == "ready":
            self._transmit(message)
        else:
            self.outbox.append(message)
            self._connect()

    def close(self) -> None:
        """Fail everything outstanding and delete the outgoing RMS; no
        timer of this channel is live afterwards."""
        error = TransportError(f"peer {self.peer_host} closed")
        pending, self.pending = self.pending, {}
        for _fields, future, retry in pending.values():
            retry.stop()
            future.set_exception(error)
        if self.out is not None and self.out.is_open:
            self.network.delete_rms(self.out)
        self._out_gone(error)

    def move_to(self, network: Network) -> None:
        """Re-point a channel that has no outgoing RMS.  Authentication
        is network-specific (trust differs per network), so it resets."""
        self.network = network
        self._settle(IDLE)

    # -- the outgoing RMS ---------------------------------------------------

    def _connect(self) -> None:
        if self.out_state != "none":
            return
        self.before_connect()
        self.out_state = "creating"
        self.network.create_rms(
            Label(self.host_name, CONTROL_PORT),
            Label(self.peer_host, CONTROL_PORT),
            CONTROL_PARAMS,
            _CONTROL_ACCEPTABLE,
        ).add_done_callback(self._connected)

    def _connected(self, future: Future) -> None:
        if self.out_state != "creating":  # closed, or replaced, meanwhile
            if not future.failed:
                self.network.delete_rms(future.result())
            return
        if future.failed:
            self.out_state = "none"
            self._settle_waiters(TransportError("control channel setup failed"))
            return
        self.out = future.result()
        self.out.on_failure.listen(self._out_failed)
        self.out_state = "ready"
        for message in self.outbox:
            self._transmit(message)
        self.outbox.clear()
        self._start_handshake()

    def _out_failed(self, rms: NetworkRms, reason: str) -> None:
        self._out_gone(TransportError(f"control channel failed: {reason}"))

    def _out_gone(self, error: Exception) -> None:
        self.out = None
        self.out_state = "none"
        self._settle(IDLE)
        self._settle_waiters(error)

    def _transmit(self, message: Message) -> None:
        deadline = self.context.now + CONTROL_DELAY_BOUND
        self.out.send(message, deadline=deadline)

    def _settle_waiters(self, error: Optional[Exception] = None) -> None:
        waiters, self.waiters = self.waiters, []
        for waiter in waiters:
            if error is None:
                waiter.set_result(None)
            else:
                waiter.set_exception(error)

    # -- retransmission -------------------------------------------------------

    def _send_retrying(self, fields: Fields, retry: Retry) -> None:
        self.send(fields)
        retry.arm()

    def _request_due(self, req_id: int) -> None:
        fields, _future, retry = self.pending[req_id]
        if retry.again():
            self._send_retrying(fields, retry)

    def _request_timed_out(self, req_id: int) -> None:
        _, future, _ = self.pending.pop(req_id)
        future.set_exception(TransportError(
            f"control request to {self.peer_host} timed out"
        ))

    def _auth1_due(self, fields: Fields) -> None:
        if self.state not in _INITIATING:
            return  # authenticated by the peer's auth3 meanwhile
        if self._auth1.again():
            self._send_retrying(fields, self._auth1)

    def _auth1_timed_out(self) -> None:
        self._auth1 = None
        self.state = IDLE if self.state is AUTH1_SENT else AUTH2_SENT
        self._settle_waiters(AuthenticationError(
            f"authentication with {self.peer_host} timed out"
        ))

    # -- the handshake (challenge/response on the channel) ---------------------

    def _settle(self, state: str) -> None:
        """Every way out of a handshake but retry exhaustion: the
        ``auth1`` retry stops, and abandoning (``IDLE``) forgets every
        challenge this host issued."""
        if self._auth1 is not None:
            self._auth1.stop()
            self._auth1 = None
        if state is IDLE:
            self._nonce = None
            self._issued.clear()
        self.state = state

    def _nonce48(self) -> int:
        return self.context.rng.stream(f"auth:{self.host_name}").getrandbits(48)

    def _start_handshake(self) -> None:
        """The outgoing RMS is up: challenge the peer, unless section
        3.1's trust makes that unnecessary or a handshake already runs."""
        if self.network.properties.trusted:
            self.state = OPEN
            self._settle_waiters()
            return
        if self.state in _INITIATING or self.state is OPEN:
            return
        self.state = CROSSED if self.state is AUTH2_SENT else AUTH1_SENT
        self.stats.auth_handshakes += 1
        self._nonce = self._nonce48()
        fields = {"op": "auth1", "from": self.host_name, "na": self._nonce}
        self._auth1 = Retry(
            self.timers, partial(ldexp, RETRY_BASE), CONTROL_MAX_RETRIES,
            partial(self._auth1_due, fields), self._auth1_timed_out,
        )
        self._send_retrying(fields, self._auth1)

    def _answer_auth1(self, fields: Fields) -> None:
        # A fresh nb per auth1, retransmitted or not; any of those a
        # correct peer can still answer (one per retry) stays acceptable.
        nb = self._nonce48()
        self._issued.append(nb)
        del self._issued[: -(CONTROL_MAX_RETRIES + 1)]
        self.send(
            {"op": "auth2", "from": self.host_name, "na": fields["na"], "nb": nb}
        )

    def _na_is_ours(self, fields: Fields) -> bool:
        return fields["na"] == self._nonce

    def _answer_auth2(self, fields: Fields) -> None:
        self.send({"op": "auth3", "from": self.host_name, "nb": fields["nb"]})
        self._settle(OPEN)
        self._settle_waiters()

    def _nb_is_ours(self, fields: Fields) -> bool:
        return fields["nb"] in self._issued

    def _accept_auth3(self, fields: Fields) -> None:
        # The tag on the envelope already proves key possession; seeing
        # our nonce back completes mutual authentication.  A running
        # auth1 retry is left to its auth2.
        self._issued.clear()
        self._settle_waiters()

    # -- receive ----------------------------------------------------------------

    def arrived(self, message: Message) -> None:
        """The port handler of the peer's outgoing RMS: one frame."""
        try:
            fields = decode_control(message.payload)
        except TransportError:
            self.stats.garbled_bundles += 1
            return
        mac_hex = fields.get("_mac")
        if mac_hex is None or not verify_mac(
            self.key,
            control_mac_material(fields),
            bytes.fromhex(mac_hex),
            self.peer_host.encode(),
        ):
            self.stats.auth_drops += 1
            return
        kind = fields.get("op")
        row = TABLE.get((self.state, kind)) if type(kind) is str else None
        if row is None:
            self.stats.control_drops += 1
            return
        for name in REQUIRED[kind]:
            if type(fields.get(name)) is not int:
                self.stats.control_drops += 1
                return
        guard, action, after = row
        if guard is not None and not getattr(self, guard)(fields):
            self.stats.auth_drops += 1
            return
        self.state = after
        if action is None:
            self.handlers[kind](self, fields)
        else:
            getattr(self, action)(fields)

    def _reply_arrived(self, fields: Fields) -> None:
        pending = self.pending.pop(fields["req"], None)
        if pending is not None:
            _request, future, retry = pending
            retry.stop()
            future.set_result(fields)
