"""Session handles: the one client-facing shape for supervised channels.

``DashSystem.connect`` returns one of these regardless of the kind of
channel underneath (raw ST RMS, reliable stream, RKOM request/reply).
A session exposes ``send``/``close``, context-manager support, an
``established`` future resolving on first establishment, and an
``on_state_change`` signal walking the state machine::

    ESTABLISHING -> UP <-> DEGRADED
         |          \\        /
         v           RE-ESTABLISHING -> FAILED
       FAILED                 (any state) -> CLOSED

With a :class:`ResiliencePolicy`, failures move the session to
RE-ESTABLISHING while the supervisor retries / fails over / degrades;
without one, the first failure is terminal (FAILED), matching the
paper's bare notify-on-failure semantics.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.message import Message
from repro.core.params import RmsRequest, is_compatible
from repro.errors import (
    CapacityError,
    RmsFailedError,
    TransportError,
)
from repro.obs.registry import families
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.supervisor import RmsSupervisor
from repro.sim.context import SimContext
from repro.sim.events import EventHandle, Signal
from repro.sim.ports import Port
from repro.sim.process import Future
from repro.transport.stream import StreamConfig, open_stream

__all__ = [
    "RkomSession",
    "Session",
    "SessionState",
    "SessionStats",
    "StSession",
    "TransportSession",
]

_session_ids = itertools.count(1)


class SessionState(enum.Enum):
    ESTABLISHING = "establishing"
    UP = "up"
    DEGRADED = "degraded"
    RE_ESTABLISHING = "re-establishing"
    FAILED = "failed"
    CLOSED = "closed"


@dataclass
class SessionStats:
    messages_sent: int = 0
    messages_queued: int = 0
    queue_drops: int = 0
    recoveries: int = 0
    degradations: int = 0
    failovers: int = 0
    #: retry / failover / degrade / reestablishing / recovered / gave_up
    #: -> how often; exported as the ``rms_failovers_total`` family.
    transitions: Dict[str, int] = field(default_factory=dict)


_FAMILIES = families(
    "session", SessionStats, transitions="rms_failovers_total{kind}"
)


def _payload_size(payload) -> int:
    if isinstance(payload, Message):
        return payload.size
    return len(payload)


class Session:
    """Base class of all session handles."""

    kind = "session"

    def __init__(
        self,
        context: SimContext,
        name: Optional[str] = None,
        policy: Optional[ResiliencePolicy] = None,
    ) -> None:
        self.context = context
        self.session_id = next(_session_ids)
        self.name = name or f"session{self.session_id}"
        self.policy = policy
        self._request: Optional[RmsRequest] = None
        self.state = SessionState.ESTABLISHING
        #: Fired with (session, old_state, new_state, reason).
        self.on_state_change: Signal = Signal(context.loop)
        #: Resolves to the underlying channel on first establishment
        #: (or fails when establishment gives up).
        self.established: Future = Future(context.loop)
        self.stats = SessionStats()
        obs = context.obs
        self._trace = obs.spans.new_trace() if obs.enabled else None
        if obs.enabled:
            obs.spans.event(
                self._trace, "resilience", "session_open",
                session=self.name, kind=self.kind,
            )

    # -- state machine -----------------------------------------------------

    def _set_state(self, new_state: SessionState, reason: str = "") -> None:
        if self.state is new_state or self.state is SessionState.CLOSED:
            return
        old, self.state = self.state, new_state
        obs = self.context.obs
        if obs.enabled:
            obs.spans.event(
                self._trace, "resilience", "session_state",
                session=self.name, frm=old.value, to=new_state.value,
                reason=reason,
            )
        self.on_state_change.fire(self, old, new_state, reason)

    def _watch(self, host: str) -> None:
        """Export the session's counters (the subclass knows the host)."""
        self.context.obs.metrics.watch(
            self.stats, _FAMILIES, host=host, session=self.name
        )

    def _note(self, kind: str, detail: str = "") -> None:
        """Count and span-log one resilience transition."""
        transitions = self.stats.transitions
        transitions[kind] = transitions.get(kind, 0) + 1
        obs = self.context.obs
        if obs.enabled:
            obs.spans.event(
                self._trace, "resilience", kind, session=self.name, detail=detail
            )

    @property
    def is_up(self) -> bool:
        return self.state in (SessionState.UP, SessionState.DEGRADED)

    @property
    def request(self) -> Optional[RmsRequest]:
        """The normalized :class:`RmsRequest` behind this session.

        ST sessions carry the request they were opened with; stream
        sessions derive one from their :class:`StreamConfig` data path;
        RKOM sessions take their parameters from ``RkomConfig`` and
        expose ``None``.
        """
        return self._request

    @request.setter
    def request(self, value: Optional[RmsRequest]) -> None:
        self._request = value

    # -- lifetime ----------------------------------------------------------

    def close(self) -> None:
        """Idempotent teardown of the underlying channel."""
        if self.state is SessionState.CLOSED:
            return
        self._teardown()
        if not self.established.done:
            self.established.set_exception(
                RmsFailedError(f"session {self.name} closed")
            )
        self._set_state(SessionState.CLOSED, "closed by client")

    def _teardown(self) -> None:
        raise NotImplementedError

    def send(self, payload):
        raise NotImplementedError

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} {self.state.value}>"


class _QueueMixin:
    """Bounded re-queueing of sends while the channel is down (§4.4:

    overflow is the client's problem -- we drop and count rather than
    grow without bound)."""

    def _init_queue(self, limit: int) -> None:
        self._queue: List = []
        self._queued_bytes = 0
        self._queue_limit = limit

    def _enqueue(self, payload) -> None:
        size = _payload_size(payload)
        allowed = (
            self.policy is not None
            and self.policy.requeue
            and self._queued_bytes + size <= self._queue_limit
        )
        if not allowed:
            self.stats.queue_drops += 1
            return
        self._queue.append(payload)
        self._queued_bytes += size
        self.stats.messages_queued += 1

    def _drop_queue(self) -> None:
        self.stats.queue_drops += len(self._queue)
        self._queue = []
        self._queued_bytes = 0


class StSession(Session, _QueueMixin):
    """A supervised (or bare) subtransport RMS."""

    kind = "st"

    def __init__(
        self,
        context: SimContext,
        st,
        peer_host: str,
        port: str,
        request: RmsRequest,
        policy: Optional[ResiliencePolicy] = None,
        fast_ack: bool = False,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(context, name=name, policy=policy)
        self._watch(st.host.name)
        self.st = st
        self.peer_host = peer_host
        self.port_name = port
        self.request = request
        self.fast_ack = fast_ack
        self.rms = None
        self._supervisor: Optional[RmsSupervisor] = None
        limit = request.floor.capacity
        if policy is not None and policy.max_requeue_bytes is not None:
            limit = policy.max_requeue_bytes
        self._init_queue(limit)
        if policy is None:
            future = st.create_st_rms(
                peer_host, port=port, request=request, fast_ack=fast_ack
            )
            future.add_done_callback(self._single_shot_done)
        else:
            self._supervisor = RmsSupervisor(
                context,
                st,
                peer_host,
                port,
                request,
                policy,
                fast_ack=fast_ack,
                name=self.name,
                on_established=self._established,
                on_transition=self._transition,
                on_gave_up=self._gave_up,
            )
            self._supervisor.start()

    # -- unsupervised path -------------------------------------------------

    def _single_shot_done(self, future: Future) -> None:
        if self.state is SessionState.CLOSED:
            if not future.failed:
                self.st.close_st_rms(future.result())
            return
        if future.failed:
            try:
                future.result()
            except Exception as error:
                self._set_state(SessionState.FAILED, str(error))
                self.established.set_exception(error)
            return
        rms = future.result()
        rms.on_failure.listen(self._unsupervised_failed)
        self._established(rms, not is_compatible(rms.params, self.request.desired))

    def _unsupervised_failed(self, rms, reason: str) -> None:
        if rms is self.rms and self._supervisor is None:
            self.rms = None
            self._drop_queue()
            self._set_state(SessionState.FAILED, reason)

    # -- supervisor callbacks ----------------------------------------------

    def _established(self, rms, degraded: bool) -> None:
        self.rms = rms
        if self.established.done:
            self.stats.recoveries += 1
        if degraded:
            self.stats.degradations += 1
            self._set_state(SessionState.DEGRADED, "parameters below desired")
        else:
            self._set_state(SessionState.UP, "established")
        if not self.established.done:
            self.established.set_result(rms)
        self._flush_queue()

    def _transition(self, kind: str, detail: str) -> None:
        self._note(kind, detail)
        if kind == "failover":
            self.stats.failovers += 1
        elif kind == "reestablishing":
            self._set_state(SessionState.RE_ESTABLISHING, detail)

    def _gave_up(self, error: Exception) -> None:
        self._drop_queue()
        self._set_state(SessionState.FAILED, str(error))
        if not self.established.done:
            self.established.set_exception(error)

    # -- client API --------------------------------------------------------

    def send(self, payload, deadline: Optional[float] = None):
        if self.state in (SessionState.FAILED, SessionState.CLOSED):
            raise RmsFailedError(f"session {self.name} is {self.state.value}")
        if self.rms is not None and self.rms.is_open:
            self.stats.messages_sent += 1
            return self.rms.send(payload, deadline=deadline)
        self._enqueue(payload)
        return None

    def _flush_queue(self) -> None:
        while self._queue and self.rms is not None and self.rms.is_open:
            payload = self._queue.pop(0)
            self._queued_bytes -= _payload_size(payload)
            try:
                self.rms.send(payload)
            except (CapacityError, RmsFailedError):
                # A degraded rung may carry less; the overflow is
                # dropped and counted, not silently retried forever.
                self.stats.queue_drops += 1
            else:
                self.stats.messages_sent += 1

    @property
    def port(self) -> Port:
        """The receiver-side port; stable across re-establishments."""
        for network in self.st.networks:
            if self.peer_host in network.hosts:
                return network.hosts[self.peer_host].bind_port(self.port_name)
        raise TransportError(
            f"no common network between {self.st.host.name} and {self.peer_host}"
        )

    def _teardown(self) -> None:
        if self._supervisor is not None:
            self._supervisor.stop()
        if self.rms is not None and self.rms.is_open:
            self.st.close_st_rms(self.rms)
        self._drop_queue()


class TransportSession(Session, _QueueMixin):
    """A supervised (or bare) reliable byte stream.

    Re-establishment salvages messages the failed incarnation had not
    seen acknowledged and resends them first -- delivery across a
    failure is therefore at-least-once (an ack lost in the failure
    window shows up as a duplicate at the receiver).  Receiving goes
    through the session's own stable port, so the application does not
    notice incarnations changing underneath.
    """

    kind = "stream"

    def __init__(
        self,
        context: SimContext,
        sender_st,
        receiver_st,
        config: Optional[StreamConfig] = None,
        policy: Optional[ResiliencePolicy] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(context, name=name, policy=policy)
        self._watch(sender_st.host.name)
        self.sender_st = sender_st
        self.receiver_st = receiver_st
        self.config = config or StreamConfig()
        self.request = self.config.data_request()
        self.stream = None
        self._consecutive = 0
        self._rng = context.rng.stream(f"resilience:{self.name}")
        limit = self.config.data_capacity
        if policy is not None and policy.max_requeue_bytes is not None:
            limit = policy.max_requeue_bytes
        self._init_queue(limit)
        self.rx_port = Port(context.loop, name=f"{self.name}.rx")
        #: The receive relay only engages when the session's own
        #: receive() is used; legacy callers holding the raw stream keep
        #: consuming from it directly.
        self._relay_active = False
        #: The backoff timer of the next open attempt, while one waits.
        self._retry_timer: Optional[EventHandle] = None
        self._open_attempt()

    def _open_attempt(self) -> None:
        self._retry_timer = None
        if self.state is SessionState.CLOSED:
            return
        future = open_stream(
            self.context, self.sender_st, self.receiver_st, self.config
        )
        future.add_done_callback(self._open_done)

    def _open_done(self, future: Future) -> None:
        if self.state is SessionState.CLOSED:
            if not future.failed:
                future.result().close()
            return
        if future.failed:
            try:
                future.result()
            except Exception as error:
                self._open_failed(error)
            return
        stream = future.result()
        self._consecutive = 0
        self.stream = stream
        stream.on_failed.listen(self._stream_failed)
        if self._relay_active:
            stream.drain_to(self.rx_port.deliver)
        if self.established.done:
            self.stats.recoveries += 1
            self._note("recovered", "stream re-established")
        self._set_state(SessionState.UP, "established")
        if not self.established.done:
            self.established.set_result(stream)
        self._flush_queue()

    def _open_failed(self, error: Exception) -> None:
        self._consecutive += 1
        if self.policy is None or self._consecutive >= self.policy.max_attempts:
            if self.policy is not None:
                self._note("gave_up", str(error))
            self._drop_queue()
            self._set_state(SessionState.FAILED, str(error))
            if not self.established.done:
                self.established.set_exception(error)
            return
        delay = self.policy.backoff_delay(self._consecutive - 1, self._rng)
        self._note("retry", f"attempt {self._consecutive + 1} in {delay:.3f}s")
        self._retry_timer = self.context.loop.call_after(
            delay, self._open_attempt
        )

    def _stream_failed(self, stream, reason: str) -> None:
        if stream is not self.stream or self.state is SessionState.CLOSED:
            return
        salvaged = stream.salvage_unsent()
        self.stream = None
        if self.policy is None:
            self._drop_queue()
            self._set_state(SessionState.FAILED, reason)
            return
        # Salvage precedes anything queued later: earlier sends first.
        for payload in reversed(salvaged):
            self._queue.insert(0, payload)
            self._queued_bytes += _payload_size(payload)
        while self._queued_bytes > self._queue_limit and self._queue:
            dropped = self._queue.pop()
            self._queued_bytes -= _payload_size(dropped)
            self.stats.queue_drops += 1
        self._set_state(SessionState.RE_ESTABLISHING, reason)
        self._note("reestablishing", reason)
        self._open_attempt()

    # -- client API --------------------------------------------------------

    def send(self, payload: bytes) -> Future:
        if self.state in (SessionState.FAILED, SessionState.CLOSED):
            raise TransportError(f"session {self.name} is {self.state.value}")
        if self.stream is not None and not self.stream.failed:
            self.stats.messages_sent += 1
            return self.stream.send(payload)
        self._enqueue(payload)
        accepted = Future(self.context.loop)
        accepted.set_result(None)
        return accepted

    def _flush_queue(self) -> None:
        while self._queue and self.stream is not None and not self.stream.failed:
            payload = self._queue.pop(0)
            self._queued_bytes -= _payload_size(payload)
            self.stats.messages_sent += 1
            self.stream.send(payload)

    def receive(self) -> Future:
        """The next delivered message, across incarnations."""
        if not self._relay_active:
            self._relay_active = True
            if self.stream is not None:
                self.stream.drain_to(self.rx_port.deliver)
        return self.rx_port.get()

    def _teardown(self) -> None:
        if self._retry_timer is not None:
            self._retry_timer.cancel()
            self._retry_timer = None
        if self.stream is not None:
            self.stream.close()
            self.stream = None
        self._drop_queue()


class RkomSession(Session):
    """Request/reply calls to one peer through the shared RKOM service.

    The service already retransmits with backoff and re-establishes its
    channel after failures; the session adds the uniform handle, state
    reporting, and transition metrics on top.
    """

    kind = "rkom"

    def __init__(
        self,
        context: SimContext,
        rkom,
        peer_host: str,
        policy: Optional[ResiliencePolicy] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(context, name=name, policy=policy)
        self._watch(rkom.st.host.name)
        self.rkom = rkom
        self.peer_host = peer_host
        self._unsubscribe = rkom.on_channel_event.listen(self._channel_event)
        # Channels are created lazily by the first call; the session is
        # usable immediately.
        self.established.set_result(self)

    def _channel_event(self, peer_host: str, what: str) -> None:
        if peer_host != self.peer_host or self.state is SessionState.CLOSED:
            return
        if what == "ready":
            if self.state is not SessionState.ESTABLISHING:
                self.stats.recoveries += 1
            self._set_state(SessionState.UP, "channel ready")
        else:
            self._note("reestablishing", "channel failed")
            self._set_state(
                SessionState.RE_ESTABLISHING,
                "channel failed; next call re-establishes",
            )

    def call(
        self, op: str, payload: bytes = b"", timeout: Optional[float] = None
    ) -> Future:
        if self.state is SessionState.CLOSED:
            raise TransportError(f"session {self.name} is closed")
        self.stats.messages_sent += 1
        return self.rkom.call(self.peer_host, op, payload, timeout=timeout)

    def send(self, payload: bytes) -> Future:
        """Fire a call to the conventional ``send`` operation."""
        return self.call("send", payload)

    def _teardown(self) -> None:
        self._unsubscribe()
