"""RKOM: the Remote Kernel Operation Mechanism (paper section 3.3).

"All request/reply communication uses the DASH Remote Kernel Operation
Mechanism (RKOM).  The RKOM module maintains an RKOM channel to each
active peer.  Such a channel consists of four ST RMS's, one low-delay
and one high-delay RMS in each direction.  The low-delay RMS's are used
for initial request and reply messages, and the high-delay RMS's are
used for retransmissions and acknowledgements."

Each host runs one :class:`RkomService`.  Its channel to a peer lives in
that peer's :class:`~repro.resilience.session.RkomSession` (the session
loop's RKOM kind), opened by the first send that needs it; the peer's
service opens the reverse-direction pair when it first replies.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.errors import (
    ParameterError,
    RkomRefusedError,
    RkomTimeoutError,
    RmsFailedError,
    TransportError,
)
from repro.obs.registry import families
from repro.resilience.session import RkomSession
from repro.sim.context import SimContext
from repro.sim.events import TIMER_FAMILIES, TimerGroup
from repro.sim.process import Future
from repro.sim.retry import Retry
from repro.subtransport.st import SubtransportLayer
from repro.subtransport.strms import StRms

__all__ = ["CallHandle", "RkomStats", "RkomService"]

LOW_PORT = "rkom-lo"
HIGH_PORT = "rkom-hi"

_HEADER = struct.Struct(">BQH")  # kind, request id, op-name length
_KIND_REQUEST = 1
_KIND_REPLY = 2
_KIND_ACK = 3
_KIND_REFUSED = 4

_request_ids = itertools.count(1)


#: Section 3.3: each RKOM channel is "one low-delay and one high-delay
#: RMS in each direction"; initial requests and replies ride the first,
#: retransmissions and acknowledgements the second.
LOW_DELAY = 0.05
HIGH_DELAY = 1.0
CHANNEL_CAPACITY = 64 * 1024
CHANNEL_MAX_MESSAGE = 8 * 1024
#: Requests a server holds per client -- running, or answered and not yet
#: acknowledged -- so that a retransmitted one is answered, never run
#: twice.  A request beyond them is refused (``RkomRefusedError`` at the
#: caller); none of them is evicted while its call may still retransmit.
REPLY_CACHE_SIZE = 256
#: The retransmission schedule of a call (3.3): the first timeout (a
#: call's ``timeout=`` overrides it), the retransmissions allowed and the
#: factor each timeout grows by.
REQUEST_TIMEOUT = 0.25
MAX_RETRANSMITS = 5
BACKOFF = 2.0


def _call_delay(first: float, attempt: int) -> float:
    return first * BACKOFF ** attempt


def _request_pair(delay: float) -> Tuple[RmsParams, RmsParams]:
    """The desired and acceptable parameters of one channel RMS."""
    desired = RmsParams(
        capacity=CHANNEL_CAPACITY,
        max_message_size=CHANNEL_MAX_MESSAGE,
        delay_bound=DelayBound(delay, 2e-6),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )
    # Accept any message size the ST can offer down to one small
    # request frame; narrow-MTU networks then negotiate lower.
    acceptable = desired.with_(
        delay_bound=DelayBound(delay * 4, 1e-5),
        max_message_size=min(512, CHANNEL_MAX_MESSAGE),
    )
    return desired, acceptable


_LOW_REQUEST = _request_pair(LOW_DELAY)
_HIGH_REQUEST = _request_pair(HIGH_DELAY)


@dataclass
class RkomStats:
    calls: int = 0
    replies: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    duplicate_requests: int = 0
    requests_served: int = 0
    channel_failures: int = 0  # ready channels lost to an RMS failure
    stray_replies: int = 0  # replies from a host other than the one called


_FAMILIES = families("rkom", RkomStats)


class CallHandle(Future):
    """The result of :meth:`RkomService.call`.

    It *is* the future the old API returned (``yield handle``,
    ``.result()``, ``.done``, ``.failed``, ``add_done_callback`` all work
    unchanged), plus ``.cancel()`` to abandon the call and stop its
    retransmissions, and ``started_at`` / ``finished_at``.
    """

    def __init__(
        self, service: "RkomService", request_id: int, started_at: float
    ) -> None:
        Future.__init__(self, service.context.loop)
        self._service = service
        self._request_id = request_id
        self.started_at = started_at
        self.finished_at: Optional[float] = None

    def cancel(self) -> bool:
        """Abandon the call: drop its pending record, stop its timeout/
        retransmission timer, and fail the future.  Returns ``False``
        when the call already resolved."""
        if self.done:
            return False
        # Not resolved, so still pending: every resolution pops the call.
        _, _, peer, retry, _ = self._service._pending.pop(self._request_id)
        retry.stop()
        self.set_exception(TransportError(f"RKOM call to {peer} cancelled"))
        return True

    def _resolve(self, state: str, value: Any) -> None:
        self.finished_at = self._loop._now
        Future._resolve(self, state, value)

    def __repr__(self) -> str:
        return f"<CallHandle #{self._request_id} {self._state}>"


class _Channel:
    """The outbound half of an RKOM channel to one peer."""

    __slots__ = ("low", "high")

    def __init__(self, low: StRms, high: StRms) -> None:
        self.low = low
        self.high = high

    def close(self) -> None:
        self.low.close()
        self.high.close()


class RkomService:
    """Request/reply communication for one host.

    Every frame leaves through one routine per kind: :meth:`_send_request`
    for a call's request, :meth:`_send` for a reply or an ack.  Each sends
    at once on the peer's open channel; otherwise it hands itself and its
    arguments to the peer's session (:meth:`RkomSession.defer`), which
    runs it again once the channel is up.
    """

    def __init__(
        self,
        context: SimContext,
        st: SubtransportLayer,
    ) -> None:
        self.context = context
        self.st = st
        self.stats = RkomStats()
        context.obs.metrics.watch(self.stats, _FAMILIES, host=st.host.name)
        self.handlers: Dict[str, Callable[[bytes, str], Any]] = {}
        #: peer host -> the session that keeps the channel to it
        self._sessions: Dict[str, RkomSession] = {}
        #: request id -> (handle, frame, peer, retry, trace_id) of each
        #: call awaiting its reply (``trace_id`` its span, or None)
        self._pending: Dict[int, tuple] = {}
        #: op-name -> encoded bytes; op names are a small fixed set, so
        #: the per-call ``str.encode`` disappears after warm-up.
        self._op_cache: Dict[str, bytes] = {}
        #: All call timeouts coalesced onto one loop timer (the timeout
        #: deadline churns on every retransmission and reply).
        self._timers = TimerGroup(context.loop)
        context.obs.metrics.watch(
            self._timers, TIMER_FAMILIES, group=f"rkom:{st.host.name}"
        )
        #: Per client host, its requests by id, in arrival order: None
        #: while running, then ``(reply, answered_at)`` until the client
        #: acknowledges it.  At-most-once execution of duplicates.
        self._served: Dict[str, Dict[int, Optional[Tuple[bytes, float]]]] = {}
        host = st.host
        host.bind_port(LOW_PORT).set_handler(self._arrived)
        host.bind_port(HIGH_PORT).set_handler(self._arrived)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    def session(self, peer_host: str, name: Optional[str] = None) -> RkomSession:
        """The session that keeps the channel to ``peer_host``, one per
        peer, made on first use (its channel opens on the first send)."""
        session = self._sessions.get(peer_host)
        if session is None:
            session = self._sessions[peer_host] = RkomSession(
                self.context, self, peer_host, _LOW_REQUEST,
                name or f"{self.st.host.name}~{peer_host}:rkom",
            )
        return session

    def register_handler(self, op: str, handler: Callable[[bytes, str], Any]) -> None:
        """Serve ``op`` requests; the handler returns bytes or a Future."""
        self.handlers[op] = handler

    def call(
        self,
        peer_host: str,
        op: str,
        payload: bytes = b"",
        timeout: Optional[float] = None,
    ) -> CallHandle:
        """Invoke ``op`` on ``peer_host``.

        Returns a :class:`CallHandle` -- a :class:`Future` resolving to
        the reply bytes, with ``.cancel()`` on top.
        ``timeout`` is the first retransmission timeout (``None``:
        :data:`REQUEST_TIMEOUT`); anything but a positive finite number
        raises :class:`ParameterError` before the call is made.
        """
        if timeout is None:
            timeout = REQUEST_TIMEOUT
        elif not 0.0 < timeout < math.inf:
            raise ParameterError(
                f"RKOM call timeout must be positive and finite, not {timeout!r}"
            )
        request_id = next(_request_ids)
        op_bytes = self._op_cache.get(op)
        if op_bytes is None:
            op_bytes = self._op_cache[op] = op.encode("utf-8")
        handle = CallHandle(self, request_id, self.context.loop._now)
        retry = Retry(
            self._timers, partial(_call_delay, timeout), MAX_RETRANSMITS,
            partial(self._request_due, request_id),
            partial(self._call_timed_out, request_id),
        )
        obs = self.context.obs
        trace_id = obs.spans.new_trace() if obs.enabled else None
        self._pending[request_id] = (
            handle,
            _HEADER.pack(_KIND_REQUEST, request_id, len(op_bytes))
            + op_bytes
            + payload,
            peer_host,
            retry,
            trace_id,
        )
        self.stats.calls += 1
        if obs.enabled:
            obs.spans.event(
                trace_id, "rkom", "call",
                host=self.st.host.name, peer=peer_host, op=op,
            )
        self._send_request(request_id, True)
        return handle

    def _send_request(self, request_id: int, first: bool) -> None:
        """Send a waiting call's request: the first on the low-delay RMS,
        arming the call's timer; a retransmission on the high-delay one."""
        record = self._pending.get(request_id)
        if record is None:
            return  # resolved while its channel was being created
        _handle, frame, peer, retry, _trace_id = record
        session = self._sessions.get(peer)
        channel = None if session is None else session.channel
        if channel is None:
            self.session(peer).defer(self._send_request, request_id, first)
            return
        try:
            (channel.low if first else channel.high).send(frame)
        except RmsFailedError:
            # The channel died before its session heard; the timeout
            # path re-establishes it and retransmits.
            pass
        if first:
            retry.arm()

    def _request_due(self, request_id: int) -> None:
        _handle, _frame, _peer, retry, trace_id = self._pending[request_id]
        if not retry.again():
            return
        self.stats.retransmissions += 1
        obs = self.context.obs
        if obs.enabled:
            obs.spans.event(
                trace_id, "rkom", "retransmit",
                host=self.st.host.name, attempt=retry.attempts,
            )
        # A channel that died (or never finished) is re-established and
        # the retransmission goes through the fresh one if the call still
        # waits then.
        self._send_request(request_id, False)
        retry.arm()

    def _call_timed_out(self, request_id: int) -> None:
        handle, _, peer, _, trace_id = self._pending.pop(request_id)
        self.stats.timeouts += 1
        obs = self.context.obs
        if obs.enabled:
            obs.spans.event(
                trace_id, "rkom", "timeout",
                host=self.st.host.name, retries=MAX_RETRANSMITS,
            )
        handle.set_exception(
            RkomTimeoutError(
                f"no reply from {peer} after {MAX_RETRANSMITS} retransmissions"
            )
        )

    def _send(self, peer_host: str, frame: bytes, high: bool) -> None:
        """Send a reply (low-delay RMS; high-delay when re-served) or an
        ack (high-delay RMS) to ``peer_host``."""
        session = self._sessions.get(peer_host)
        channel = None if session is None else session.channel
        if channel is None:
            self.session(peer_host).defer(self._send, peer_host, frame, high)
            return
        try:
            (channel.high if high else channel.low).send(frame)
        except RmsFailedError:
            # A lost reply is asked for again and re-served from the
            # cache; a lost ack leaves its cache entry to the trim.
            pass

    def _create_channel(self, peer_host: str):
        """Open the low-delay, then the high-delay ST RMS to ``peer_host``
        (an :class:`RkomSession`'s attempt)."""
        low_desired, low_acceptable = _LOW_REQUEST
        low = yield self.st.create_st_rms(
            peer_host, port=LOW_PORT, desired=low_desired, acceptable=low_acceptable
        )
        high_desired, high_acceptable = _HIGH_REQUEST
        high = yield self.st.create_st_rms(
            peer_host, port=HIGH_PORT, desired=high_desired, acceptable=high_acceptable
        )
        return _Channel(low, high)

    # ------------------------------------------------------------------
    # Both sides: the port handler
    # ------------------------------------------------------------------

    def _arrived(self, message) -> None:
        data = message.payload
        if len(data) < _HEADER.size:
            return
        kind, request_id, op_length = _HEADER.unpack_from(data, 0)
        body = data[_HEADER.size :]
        source_host = message.source.host if message.source else ""
        if kind == _KIND_REQUEST:
            # Server side: execute once, answer duplicates from the cache.
            served = self._served.get(source_host)
            if served is None:
                served = self._served[source_host] = {}
            elif request_id in served:
                self.stats.duplicate_requests += 1
                entry = served[request_id]
                if entry is not None:
                    # Retransmitted replies ride the high-delay RMS.
                    self._send(
                        source_host,
                        _HEADER.pack(_KIND_REPLY, request_id, 0) + entry[0],
                        True,
                    )
                return
            if len(served) >= REPLY_CACHE_SIZE and not self._make_room(served):
                self._send(
                    source_host, _HEADER.pack(_KIND_REFUSED, request_id, 0), False
                )
                return
            handler = self.handlers.get(
                body[:op_length].decode("utf-8", errors="replace")
            )
            if handler is None:
                reply = b""
            else:
                served[request_id] = None  # in progress
                self.stats.requests_served += 1
                result = handler(body[op_length:], source_host)
                if isinstance(result, Future):
                    result.add_done_callback(
                        lambda f: self._reply_ready(source_host, request_id, f)
                    )
                    return
                reply = bytes(result)
            served[request_id] = (reply, self.context.loop._now)
            self._send(
                source_host, _HEADER.pack(_KIND_REPLY, request_id, 0) + reply, False
            )
        elif kind == _KIND_REPLY or kind == _KIND_REFUSED:
            record = self._pending.get(request_id)
            if record is None:
                return
            handle, _frame, peer, retry, trace_id = record
            if peer != source_host:
                # Only the called peer can answer; the call keeps waiting.
                self.stats.stray_replies += 1
                return
            del self._pending[request_id]
            retry.stop()
            if kind == _KIND_REFUSED:
                handle.set_exception(RkomRefusedError(
                    f"{peer} holds {REPLY_CACHE_SIZE} requests of "
                    f"{self.st.host.name} and refused the call"
                ))
                return
            self.stats.replies += 1
            obs = self.context.obs
            if obs.enabled:
                obs.spans.event(
                    trace_id, "rkom", "reply",
                    host=self.st.host.name, peer=source_host,
                )
            handle.set_result(body)
            self._send(source_host, _HEADER.pack(_KIND_ACK, request_id, 0), True)
        elif kind == _KIND_ACK:
            served = self._served.get(source_host)
            if served is not None:
                served.pop(request_id, None)
                if not served:
                    del self._served[source_host]

    def _reply_ready(self, source_host: str, request_id: int, future: Future) -> None:
        reply = b"" if future.failed else bytes(future.result())
        self._served[source_host][request_id] = (reply, self.context.loop._now)
        self._send(
            source_host, _HEADER.pack(_KIND_REPLY, request_id, 0) + reply, False
        )

    def _make_room(self, served: Dict[int, Optional[Tuple[bytes, float]]]) -> bool:
        """Forget a full client's answers that no call can ask for again.

        A call retransmits for at most its timeouts' sum, and a
        retransmission arrives within the high-delay bound, so an answer
        older than both (at the default timeout) is one whose
        acknowledgement was lost.  True if that made room.
        """
        window = HIGH_DELAY + sum(
            _call_delay(REQUEST_TIMEOUT, attempt)
            for attempt in range(MAX_RETRANSMITS + 1)
        )
        now = self.context.loop._now
        for request_id, entry in list(served.items()):
            if entry is not None and now - entry[1] > window:
                del served[request_id]
        return len(served) < REPLY_CACHE_SIZE

    def __repr__(self) -> str:
        return (
            f"<RkomService host={self.st.host.name} sessions="
            f"{len(self._sessions)} pending={len(self._pending)}>"
        )
