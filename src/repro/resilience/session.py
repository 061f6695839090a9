"""Session handles: the one client-facing shape for every channel kind.

``DashSystem.connect`` returns one of these regardless of the kind of
channel underneath (raw ST RMS, reliable stream, RKOM request/reply).
A session exposes ``send``/``close``, context-manager support, an
``established`` future resolving on first establishment, and an
``on_state_change`` signal walking the state machine::

    ESTABLISHING -> UP <-> DEGRADED
         |          \\        /
         v           RE-ESTABLISHING -> FAILED
       FAILED                 (any state) -> CLOSED

An ST RMS, a stream or an RKOM channel is kept by one establishment
loop (:class:`Session`).  On a resilient session a failure moves
the session through backoff (the schedule in
:mod:`repro.resilience.policy`), failover and degradation, and a lost
channel to RE-ESTABLISHING; otherwise the first failure and the first
loss are terminal (FAILED), the paper's bare notify-on-failure semantics.
An RKOM channel is the exception: its calls retransmit on their own, so
a failure or a loss leaves it in RE-ESTABLISHING until the next send.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.message import Message
from repro.core.params import RmsParams, is_compatible
from repro.core.rms import RmsState
from repro.errors import (
    AdmissionError,
    CapacityError,
    RkomTimeoutError,
    RmsFailedError,
    TransportError,
)
from repro.obs.registry import families
from repro.resilience import policy
from repro.sim.context import SimContext
from repro.sim.events import Signal
from repro.sim.ports import Port
from repro.sim.process import Future
from repro.sim.retry import Retry
from repro.transport.stream import StreamConfig, data_request, open_stream

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
    #: Re-establishments after a lost channel (not the first one).
    recoveries: int = 0
    degradations: int = 0
    failovers: int = 0
    #: retry / failover / degrade / reestablishing / recovered / gave_up
    #: -> how often; exported as the ``rms_failovers_total`` family.
    #: ``recovered`` counts what ``recoveries`` counts.
    transitions: Dict[str, int] = field(default_factory=dict)


_FAMILIES = families(
    "session", SessionStats, transitions="rms_failovers_total{kind}"
)


def _payload_size(payload) -> int:
    if isinstance(payload, Message):
        return payload.size
    return len(payload)


class Session:
    """One channel kept up by the establishment loop.

    An attempt opens a channel on the current rung (the kind's
    :meth:`_open`) and ends established or failed.  ``AdmissionError``
    steps one rung down the degradation ladder and tries again at once
    while a rung is left; any other failure counts one consecutive
    failure and waits out the backoff or gives up.  A lost
    channel is re-established from the top rung, what it carried
    unacknowledged (the kind's :meth:`_salvage`) put back in front of the
    queue.  Unless the session is resilient the ladder has one rung and
    there is no queue: the first failure gives up and the first loss
    fails.
    """

    kind = "session"

    def __init__(
        self,
        context: SimContext,
        resilient: bool,
        name: Optional[str],
        rungs: List[Tuple[RmsParams, RmsParams]],
        queue_limit: int,
    ) -> None:
        self.context = context
        self.session_id = next(_session_ids)
        self.name = name or f"session{self.session_id}"
        self.state = SessionState.ESTABLISHING
        #: Fired with (session, old_state, new_state, reason).
        self.on_state_change: Signal = Signal()
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
        #: The request behind this session (section 2.4): the top rung's
        #: desired and acceptable parameter sets.
        self.desired, self.acceptable = rungs[0]
        self.resilient = resilient
        #: The established channel; None while there is none.
        self.channel = None
        self._rungs = rungs
        self._rung = 0
        #: The network an ST session is steered to / bound on, and the
        #: one that failed last (the next attempt avoids it).
        self._network: Optional[str] = None
        self._avoid: Optional[str] = None
        #: Consecutive failed attempts and the backoff before the next:
        #: the first failure gives up unless the session is resilient.
        self._backoff = Retry(
            context.loop, self._backoff_delay,
            policy.MAX_ATTEMPTS - 1 if resilient else 0,
            self._attempt, self._give_up,
        )
        #: Sends held while the channel is down, bounded (section 4.4:
        #: overflow is dropped and counted, not grown without bound).
        self._queue: List = []
        self._queued_bytes = 0
        self._queue_limit = queue_limit

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

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} {self.state.value}>"

    def _open(self, rung: Tuple[RmsParams, RmsParams]) -> Future:
        raise NotImplementedError

    def _adopt(self, channel) -> bool:
        """Listen for the loss of a new channel; whether it is degraded."""
        raise NotImplementedError

    def _salvage(self, channel) -> list:
        """What a lost channel carried and must be sent again."""
        return []

    # -- the loop ----------------------------------------------------------

    def _attempt(self) -> None:
        if self.state is SessionState.CLOSED:
            return
        future = self._open(self._rungs[self._rung])
        future.add_done_callback(self._attempt_done)

    def _attempt_done(self, future: Future) -> None:
        if self.state is SessionState.CLOSED:
            if not future.failed:
                future.result().close()
            return
        try:
            channel = future.result()
        except AdmissionError as error:
            if self._rung + 1 < len(self._rungs):
                # A leaner reservation may be admitted: degrade and
                # retry at once.
                self._rung += 1
                self._note("degrade", str(error))
                self._attempt()
            else:
                self._failed_attempt(error)
        except Exception as error:  # negotiation, setup timeout, control, ...
            self._failed_attempt(error)
        else:
            self._established(channel)

    def _failed_attempt(self, error: Exception) -> None:
        self._avoid = self._network
        if self._backoff.again(error):
            delay = self._backoff.arm()
            self._note(
                "retry",
                f"attempt {self._backoff.attempts + 1} in {delay:.3f}s ({error})",
            )

    def _backoff_delay(self, failures: int) -> float:
        rng = self.context.rng.stream(f"resilience:{self.name}")
        return policy.backoff_delay(failures - 1, rng)

    def _give_up(self, error: Exception) -> None:
        if self.resilient:
            self._note("gave_up", str(error))
        self._fail(error)

    def _established(self, channel) -> None:
        self._backoff.reset()
        self._avoid = None
        self.channel = channel
        degraded = self._adopt(channel)
        if self.established.done:
            self.stats.recoveries += 1
            self._note("recovered", "re-established")
        if degraded:
            self.stats.degradations += 1
            self._set_state(SessionState.DEGRADED, "parameters below desired")
        else:
            self._set_state(SessionState.UP, "established")
        if not self.established.done:
            self.established.set_result(channel)
        self._flush_queue()

    def _lost(self, channel, reason: str) -> None:
        if channel is not self.channel:
            return
        self.channel = None
        salvaged = self._salvage(channel)
        if not self.resilient:
            self._fail(RmsFailedError(reason))
            return
        self._avoid = self._network
        self._rung = 0  # a healed or another network may carry the desired set
        # Salvage precedes anything queued later: earlier sends first.
        self._queue[:0] = salvaged
        self._queued_bytes += sum(map(_payload_size, salvaged))
        while self._queued_bytes > self._queue_limit:
            self._queued_bytes -= _payload_size(self._queue.pop())
            self.stats.queue_drops += 1
        self._note("reestablishing", reason)
        self._set_state(SessionState.RE_ESTABLISHING, reason)
        self._attempt()

    def _fail(self, error: Exception) -> None:
        self._drop_queue()
        self._set_state(SessionState.FAILED, str(error))
        if not self.established.done:
            self.established.set_exception(error)

    # -- the queue ---------------------------------------------------------

    def _enqueue(self, payload) -> None:
        size = _payload_size(payload)
        if not self.resilient or self._queued_bytes + size > self._queue_limit:
            self.stats.queue_drops += 1
            return
        self._queue.append(payload)
        self._queued_bytes += size
        self.stats.messages_queued += 1

    def _drop_queue(self) -> None:
        self.stats.queue_drops += len(self._queue)
        self._queue = []
        self._queued_bytes = 0

    def _flush_queue(self) -> None:
        raise NotImplementedError

    def _teardown(self) -> None:
        self._backoff.stop()
        channel, self.channel = self.channel, None
        if channel is not None:
            channel.close()
        self._drop_queue()


class StSession(Session):
    """A subtransport RMS, resilient or bare."""

    kind = "st"

    def __init__(
        self,
        context: SimContext,
        st,
        peer_host: str,
        port: str,
        desired: RmsParams,
        acceptable: RmsParams,
        resilient: bool = False,
        fast_ack: bool = False,
        name: Optional[str] = None,
    ) -> None:
        rungs = (policy.degradation_ladder(desired, acceptable) if resilient
                 else [(desired, acceptable)])
        super().__init__(context, resilient, name, rungs, acceptable.capacity)
        self._watch(st.host.name)
        self.st = st
        self.peer_host = peer_host
        self.port_name = port
        #: Closing releases the port (a ``connect-N`` one, never a named one).
        self.owns_port = False
        self.fast_ack = fast_ack
        self._attempt()

    def _open(self, rung: Tuple[RmsParams, RmsParams]) -> Future:
        # A resilient session steers the ST toward a usable network,
        # avoiding the one that failed last.
        st, host, peer = self.st, self.st.host.name, self.peer_host
        usable = [] if not self.resilient else [
            network
            for network in st.networks
            if host in network.hosts
            and peer in network.hosts
            and network.can_reach(host, peer)
        ]
        if usable:
            pick = usable[0]
            for network in usable:
                if network.name != self._avoid:
                    pick = network
                    break
            if self._network is not None and pick.name != self._network:
                self.stats.failovers += 1
                self._note("failover", f"{self._network}->{pick.name}")
            st.set_network_preference(peer, pick.name)
            self._network = pick.name
        desired, acceptable = rung
        return st.create_st_rms(peer, port=self.port_name, desired=desired,
                                acceptable=acceptable, fast_ack=self.fast_ack)

    def _adopt(self, rms) -> bool:
        if rms.binding is not None:
            self._network = rms.binding.network_rms.network.name
        rms.on_failure.listen(self._lost)
        return not is_compatible(rms.params, self.desired)

    # -- client API --------------------------------------------------------

    def send(self, payload, deadline: Optional[float] = None):
        if self.state in (SessionState.FAILED, SessionState.CLOSED):
            raise RmsFailedError(f"session {self.name} is {self.state.value}")
        channel = self.channel
        if channel is not None and channel.state is RmsState.OPEN:
            self.stats.messages_sent += 1
            return channel.send(payload, deadline)
        self._enqueue(payload)
        return None

    def _flush_queue(self) -> None:
        while self._queue and self.channel is not None and self.channel.is_open:
            payload = self._queue.pop(0)
            self._queued_bytes -= _payload_size(payload)
            try:
                self.channel.send(payload)
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
        if self.resilient:
            self.st.set_network_preference(self.peer_host, None)
        super()._teardown()
        if self.owns_port:
            for network in self.st.networks:
                host = network.hosts.get(self.peer_host)
                if host is not None:
                    host.ports.pop(self.port_name, None)


class TransportSession(Session):
    """A reliable byte stream, resilient or bare.

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
        desired: Optional[RmsParams] = None,
        config: Optional[StreamConfig] = None,
        resilient: bool = False,
        name: Optional[str] = None,
    ) -> None:
        rung = data_request(desired)
        super().__init__(context, resilient, name, [rung], rung[0].capacity)
        self._watch(sender_st.host.name)
        self.sender_st = sender_st
        self.receiver_st = receiver_st
        self.config = config or StreamConfig()
        self.rx_port = Port(context.loop, name=f"{self.name}.rx")
        #: The receive relay only engages when the session's own
        #: receive() is used; legacy callers holding the raw stream keep
        #: consuming from it directly.
        self._relay_active = False
        self._attempt()

    def _open(self, rung: Tuple[RmsParams, RmsParams]) -> Future:
        # The rung is derived already; deriving it again gives it back.
        return open_stream(self.context, self.sender_st, self.receiver_st,
                           rung[0], self.config)

    def _adopt(self, stream) -> bool:
        stream.on_failed.listen(self._lost)
        if self._relay_active:
            stream.drain_to(self.rx_port.deliver)
        return False

    def _salvage(self, stream) -> list:
        return stream.salvage_unsent()

    # -- client API --------------------------------------------------------

    def send(self, payload: bytes) -> Future:
        if self.state in (SessionState.FAILED, SessionState.CLOSED):
            raise TransportError(f"session {self.name} is {self.state.value}")
        if self.channel is not None and not self.channel.failed:
            self.stats.messages_sent += 1
            return self.channel.send(payload)
        self._enqueue(payload)
        accepted = Future(self.context.loop)
        accepted.set_result(None)
        return accepted

    def _flush_queue(self) -> None:
        while self._queue and self.channel is not None and not self.channel.failed:
            payload = self._queue.pop(0)
            self._queued_bytes -= _payload_size(payload)
            self.stats.messages_sent += 1
            self.channel.send(payload)

    def receive(self) -> Future:
        """The next delivered message, across incarnations."""
        if not self._relay_active:
            self._relay_active = True
            if self.channel is not None:
                self.channel.drain_to(self.rx_port.deliver)
        return self.rx_port.get()


class RkomSession(Session):
    """RKOM's outbound channel to one peer (section 3.3): a low- and a
    high-delay ST RMS.  The RKOM service keeps one per peer.

    The first send that finds the channel down waits in the queue
    (:meth:`defer`) and opens it; a non-empty queue is an attempt under
    way.  Calls retransmit on their own, so the session neither retries
    nor fails: a failed attempt fails the calls waiting on the peer, a
    lost channel waits for the next send, and either way the session
    sits in RE_ESTABLISHING until then.
    """

    kind = "rkom"

    def __init__(
        self,
        context: SimContext,
        rkom,
        peer_host: str,
        request: Tuple[RmsParams, RmsParams],
        name: str,
    ) -> None:
        # ``request`` is the low-delay RMS's; ``_open`` asks for both.
        super().__init__(context, False, name, [request], 0)
        self._watch(rkom.st.host.name)
        self.rkom = rkom
        self.peer_host = peer_host

    def defer(self, routine, *args) -> None:
        """Run ``routine(*args)`` once the channel is up, opening it
        unless an attempt is under way."""
        self._queue.append((routine, args))
        if len(self._queue) == 1:
            self._attempt()

    def _open(self, rung: Tuple[RmsParams, RmsParams]) -> Future:
        process = self.context.spawn(
            self.rkom._create_channel(self.peer_host),
            name=f"rkom-chan:{self.rkom.st.host.name}->{self.peer_host}",
        )
        return process.finished

    def _adopt(self, channel) -> bool:
        for rms in (channel.low, channel.high):
            rms.on_failure.listen(lambda _rms, reason: self._lost(channel, reason))
        return False

    def _flush_queue(self) -> None:
        waiting, self._queue = self._queue, []
        for routine, args in waiting:
            routine(*args)

    def _failed_attempt(self, error: Exception) -> None:
        # The sends that waited are dropped, and every call still
        # waiting on the peer fails instead of hanging.
        self._queue = []
        rkom, peer_host = self.rkom, self.peer_host
        failure = RkomTimeoutError(
            f"RKOM channel to {peer_host} could not be established"
        )
        obs = self.context.obs
        for request_id, record in list(rkom._pending.items()):
            handle, _frame, peer, retry, trace_id = record
            if peer == peer_host:
                del rkom._pending[request_id]
                retry.stop()
                rkom.stats.timeouts += 1
                if obs.enabled:
                    obs.spans.event(
                        trace_id, "rkom", "timeout",
                        host=rkom.st.host.name, reason="no-channel",
                    )
                handle.set_exception(failure)
        self._note("reestablishing", str(error))
        self._set_state(SessionState.RE_ESTABLISHING, str(failure))

    def _lost(self, channel, reason: str) -> None:
        # Pending calls keep their timers: the next retransmission
        # re-opens the channel, so an outage costs retries, not calls.
        if channel is not self.channel:
            return
        self.channel = None
        self.rkom.stats.channel_failures += 1
        self._note("reestablishing", reason)
        self._set_state(SessionState.RE_ESTABLISHING, reason)

    # -- client API --------------------------------------------------------

    def call(
        self, op: str, payload: bytes = b"", timeout: Optional[float] = None
    ) -> Future:
        if self.state is SessionState.CLOSED:
            raise TransportError(f"session {self.name} is closed")
        handle = self.rkom.call(self.peer_host, op, payload, timeout=timeout)
        self.stats.messages_sent += 1
        return handle

    def _teardown(self) -> None:
        # The channel closes and the service forgets the session; the
        # calls still waiting on the peer are abandoned with it.
        super()._teardown()
        rkom = self.rkom
        del rkom._sessions[self.peer_host]
        for handle, _frame, peer, _retry, _trace_id in list(rkom._pending.values()):
            if peer == self.peer_host:
                handle.cancel()
