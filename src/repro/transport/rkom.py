"""RKOM: the Remote Kernel Operation Mechanism (paper section 3.3).

"All request/reply communication uses the DASH Remote Kernel Operation
Mechanism (RKOM).  The RKOM module maintains an RKOM channel to each
active peer.  Such a channel consists of four ST RMS's, one low-delay
and one high-delay RMS in each direction.  The low-delay RMS's are used
for initial request and reply messages, and the high-delay RMS's are
used for retransmissions and acknowledgements."

Each host runs one :class:`RkomService`.  Channels are created lazily on
the first call to a peer; the reverse-direction pair is created by the
peer's service when it first replies.
"""

from __future__ import annotations

import itertools
import math
import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.errors import (
    ParameterError,
    RkomTimeoutError,
    RmsFailedError,
    TransportError,
)
from repro.obs.registry import families
from repro.sim.context import SimContext
from repro.sim.events import TIMER_FAMILIES, GroupTimer, Signal, TimerGroup
from repro.sim.process import Future
from repro.subtransport.st import SubtransportLayer
from repro.subtransport.strms import StRms

__all__ = ["CallHandle", "RkomStats", "RkomService"]

LOW_PORT = "rkom-lo"
HIGH_PORT = "rkom-hi"

_HEADER = struct.Struct(">BQH")  # kind, request id, op-name length
_KIND_REQUEST = 1
_KIND_REPLY = 2
_KIND_ACK = 3

_request_ids = itertools.count(1)


#: Section 3.3: each RKOM channel is "one low-delay and one high-delay
#: RMS in each direction"; initial requests and replies ride the first,
#: retransmissions and acknowledgements the second.
LOW_DELAY = 0.05
HIGH_DELAY = 1.0
CHANNEL_CAPACITY = 64 * 1024
CHANNEL_MAX_MESSAGE = 8 * 1024
#: Requests a server remembers (with their replies) to answer a
#: retransmitted request without running it twice.
REPLY_CACHE_SIZE = 256
#: The retransmission schedule of a call (3.3): the first timeout (a
#: call's ``timeout=`` overrides it), the retransmissions allowed and the
#: factor each timeout grows by.
REQUEST_TIMEOUT = 0.25
MAX_RETRANSMITS = 5
BACKOFF = 2.0


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
    unchanged) plus call-control surface: ``.future`` (itself, for
    callers that want to be explicit), ``.cancel()`` to abandon the call
    and stop its retransmissions, and ``.elapsed`` for latency
    measurement.
    """

    def __init__(
        self, service: "RkomService", request_id: int, started_at: float
    ) -> None:
        Future.__init__(self, service.context.loop)
        self._service = service
        self._request_id = request_id
        self.started_at = started_at
        self.finished_at: Optional[float] = None

    @property
    def future(self) -> "CallHandle":
        """The underlying future -- this object itself."""
        return self

    @property
    def elapsed(self) -> float:
        """Seconds from the call to its resolution (or to now while
        still in flight)."""
        end = self.finished_at
        if end is None:
            end = self._loop._now
        return end - self.started_at

    def cancel(self) -> bool:
        """Abandon the call: drop its pending record, stop its timeout/
        retransmission timer, and fail the future.  Returns ``False``
        when the call already resolved."""
        if self.done:
            return False
        self._service._cancel_call(self._request_id, self)
        return True

    def _resolve(self, state: str, value: Any) -> None:
        self.finished_at = self._loop._now
        Future._resolve(self, state, value)

    def __repr__(self) -> str:
        return f"<CallHandle #{self._request_id} {self._state}>"


class _CallRecord:
    """Client-side state of one outstanding request."""

    __slots__ = ("handle", "frame", "peer", "retries", "timeout", "timer",
                 "trace_id")

    def __init__(
        self, handle: CallHandle, frame: bytes, peer: str, timeout: float
    ) -> None:
        self.handle = handle
        self.frame = frame
        self.peer = peer
        self.retries = 0
        self.timeout = timeout
        self.timer: Optional[GroupTimer] = None
        self.trace_id: Optional[int] = None  # observability span of the call


class _Channel:
    """The outbound half of an RKOM channel to one peer (one per peer,
    reused by every incarnation)."""

    __slots__ = ("low", "high", "state", "waiters")

    def __init__(self) -> None:
        self.low: Optional[StRms] = None
        self.high: Optional[StRms] = None
        self.state = "none"  # none | creating | ready
        #: ``(routine, args)`` to run again once the channel is ready
        self.waiters: List[Tuple[Callable[..., None], tuple]] = []


class RkomService:
    """Request/reply communication for one host.

    Every frame leaves through one routine per kind: :meth:`_send_request`
    for a call's request, :meth:`_send` for a reply or an ack.  Each sends
    at once on a ready channel; otherwise it hands itself and its
    arguments to :meth:`_with_channel`, which runs it again once the
    channel is up.
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
        self._channels: Dict[str, _Channel] = {}
        self._pending: Dict[int, _CallRecord] = {}
        #: op-name -> encoded bytes; op names are a small fixed set, so
        #: the per-call ``str.encode`` disappears after warm-up.
        self._op_cache: Dict[str, bytes] = {}
        #: All call timeouts coalesced onto one loop timer (the timeout
        #: deadline churns on every retransmission and reply).
        self._timers = TimerGroup(context.loop)
        context.obs.metrics.watch(
            self._timers, TIMER_FAMILIES, group=f"rkom:{st.host.name}"
        )
        #: Reply cache for at-most-once execution of duplicates.
        self._served: "OrderedDict[Tuple[str, int], Optional[bytes]]" = OrderedDict()
        #: Fired with (peer_host, "ready" | "failed") on channel state
        #: changes; the resilience layer surfaces these as session states.
        self.on_channel_event: Signal = Signal(context.loop)
        host = st.host
        host.bind_port(LOW_PORT).set_handler(self._arrived)
        host.bind_port(HIGH_PORT).set_handler(self._arrived)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

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
        the reply bytes, with ``.cancel()`` and ``.elapsed`` on top.
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
        record = _CallRecord(
            handle,
            _HEADER.pack(_KIND_REQUEST, request_id, len(op_bytes))
            + op_bytes
            + payload,
            peer_host,
            timeout,
        )
        self._pending[request_id] = record
        self.stats.calls += 1
        obs = self.context.obs
        if obs.enabled:
            record.trace_id = obs.spans.new_trace()
            obs.spans.event(
                record.trace_id, "rkom", "call",
                host=self.st.host.name, peer=peer_host, op=op,
            )
        self._send_request(request_id, True)
        return handle

    def _cancel_call(self, request_id: int, handle: CallHandle) -> None:
        """Abandon an in-flight call (CallHandle.cancel)."""
        record = self._pending.get(request_id)
        peer = "peer"
        if record is not None and record.handle is handle:
            del self._pending[request_id]
            if record.timer is not None:
                record.timer.cancel()
            peer = record.peer
        handle.set_exception(TransportError(f"RKOM call to {peer} cancelled"))

    def _send_request(self, request_id: int, first: bool) -> None:
        """Send a waiting call's request: the first on the low-delay RMS,
        arming the call's timer; a retransmission on the high-delay one."""
        record = self._pending.get(request_id)
        if record is None:
            return  # resolved while its channel was being created
        channel = self._channels.get(record.peer)
        if channel is None or channel.state != "ready":
            self._with_channel(record.peer, self._send_request, request_id, first)
            return
        try:
            (channel.low if first else channel.high).send(record.frame)
        except RmsFailedError:
            # The channel died between "ready" and this send; the timeout
            # path re-establishes it and retransmits.
            pass
        if first:
            record.timer = self._timers.call_after(
                record.timeout, self._timeout_fired, request_id
            )

    def _timeout_fired(self, request_id: int) -> None:
        record = self._pending.get(request_id)
        if record is None:
            return
        record.retries += 1
        obs = self.context.obs
        if record.retries > MAX_RETRANSMITS:
            self._pending.pop(request_id, None)
            self.stats.timeouts += 1
            if obs.enabled:
                obs.spans.event(
                    record.trace_id, "rkom", "timeout",
                    host=self.st.host.name, retries=record.retries - 1,
                )
            record.handle.set_exception(
                RkomTimeoutError(
                    f"no reply from {record.peer} after "
                    f"{MAX_RETRANSMITS} retransmissions"
                )
            )
            return
        self.stats.retransmissions += 1
        if obs.enabled:
            obs.spans.event(
                record.trace_id, "rkom", "retransmit",
                host=self.st.host.name, attempt=record.retries,
            )
        # A channel that died (or never finished) is re-established and
        # the retransmission goes through the fresh one if the call still
        # waits then.
        self._send_request(request_id, False)
        record.timeout *= BACKOFF
        record.timer = self._timers.call_after(
            record.timeout, self._timeout_fired, request_id
        )

    def _send(self, peer_host: str, frame: bytes, high: bool) -> None:
        """Send a reply (low-delay RMS; high-delay when re-served) or an
        ack (high-delay RMS) to ``peer_host``."""
        channel = self._channels.get(peer_host)
        if channel is None or channel.state != "ready":
            self._with_channel(peer_host, self._send, peer_host, frame, high)
            return
        try:
            (channel.high if high else channel.low).send(frame)
        except RmsFailedError:
            # A lost reply is asked for again and re-served from the
            # cache; a lost ack leaves its cache entry to the trim.
            pass

    # ------------------------------------------------------------------
    # Channel management
    # ------------------------------------------------------------------

    def _with_channel(
        self, peer_host: str, routine: Callable[..., None], *args: Any
    ) -> None:
        """Run ``routine(*args)`` again once the channel to ``peer_host``
        is ready, creating the channel unless that is under way."""
        channel = self._channels.get(peer_host)
        if channel is None:
            channel = self._channels[peer_host] = _Channel()
        channel.waiters.append((routine, args))
        if channel.state == "creating":
            return
        channel.state = "creating"
        process = self.context.spawn(
            self._create_channel(peer_host, channel),
            name=f"rkom-chan:{self.st.host.name}->{peer_host}",
        )
        process.finished.add_done_callback(
            lambda f: self._channel_done(peer_host, channel, f)
        )

    def _create_channel(self, peer_host: str, channel: _Channel):
        low_desired, low_acceptable = _LOW_REQUEST
        channel.low = yield self.st.create_st_rms(
            peer_host, port=LOW_PORT, desired=low_desired, acceptable=low_acceptable
        )
        high_desired, high_acceptable = _HIGH_REQUEST
        channel.high = yield self.st.create_st_rms(
            peer_host, port=HIGH_PORT, desired=high_desired, acceptable=high_acceptable
        )
        return channel

    def _channel_done(self, peer_host: str, channel: _Channel, future: Future) -> None:
        waiters, channel.waiters = channel.waiters, []
        if future.failed:
            channel.state = "none"
            # Fail every call still waiting for this channel so callers
            # see the error instead of hanging.
            error = RkomTimeoutError(
                f"RKOM channel to {peer_host} could not be established"
            )
            obs = self.context.obs
            for request_id in list(self._pending):
                record = self._pending[request_id]
                if record.peer == peer_host:
                    self._pending.pop(request_id, None)
                    if record.timer is not None:
                        record.timer.cancel()
                    self.stats.timeouts += 1
                    if obs.enabled:
                        obs.spans.event(
                            record.trace_id, "rkom", "timeout",
                            host=self.st.host.name, reason="no-channel",
                        )
                    record.handle.set_exception(error)
            self.on_channel_event.fire(peer_host, "failed")
            return
        channel.state = "ready"
        for rms in (channel.low, channel.high):
            rms.on_failure.listen(
                lambda failed, _reason, p=peer_host, c=channel:
                    self._channel_failed(p, c, failed)
            )
        self.on_channel_event.fire(peer_host, "ready")
        for routine, args in waiters:
            routine(*args)

    def _channel_failed(self, peer_host: str, channel: _Channel, rms: StRms) -> None:
        """An RMS of the ready channel failed: forget the channel.

        Pending calls keep their retransmission timers; the next timeout
        re-establishes the channel and retransmits, so a transient
        network outage costs retries rather than failed calls.  An RMS
        of an earlier incarnation of the channel changes nothing.
        """
        if channel.state != "ready" or (
            rms is not channel.low and rms is not channel.high
        ):
            return
        channel.state = "none"
        channel.low = None
        channel.high = None
        self.stats.channel_failures += 1
        self.on_channel_event.fire(peer_host, "failed")

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
            key = (source_host, request_id)
            served = self._served
            if key in served:
                self.stats.duplicate_requests += 1
                reply = served[key]
                if reply is not None:
                    # Retransmitted replies ride the high-delay RMS.
                    self._send(
                        source_host,
                        _HEADER.pack(_KIND_REPLY, request_id, 0) + reply,
                        True,
                    )
                return
            handler = self.handlers.get(
                body[:op_length].decode("utf-8", errors="replace")
            )
            if handler is None:
                reply = served[key] = b""
            else:
                served[key] = None  # in progress
                while len(served) > REPLY_CACHE_SIZE:
                    served.popitem(last=False)
                self.stats.requests_served += 1
                result = handler(body[op_length:], source_host)
                if isinstance(result, Future):
                    result.add_done_callback(
                        lambda f: self._reply_ready(source_host, request_id, f)
                    )
                    return
                reply = served[key] = bytes(result)
            self._send(
                source_host, _HEADER.pack(_KIND_REPLY, request_id, 0) + reply, False
            )
        elif kind == _KIND_REPLY:
            record = self._pending.get(request_id)
            if record is None:
                return
            if record.peer != source_host:
                # Only the called peer can answer; the call keeps waiting.
                self.stats.stray_replies += 1
                return
            del self._pending[request_id]
            if record.timer is not None:
                record.timer.cancel()
            self.stats.replies += 1
            obs = self.context.obs
            if obs.enabled:
                obs.spans.event(
                    record.trace_id, "rkom", "reply",
                    host=self.st.host.name, peer=source_host,
                )
            record.handle.set_result(body)
            self._send(source_host, _HEADER.pack(_KIND_ACK, request_id, 0), True)
        elif kind == _KIND_ACK:
            self._served.pop((source_host, request_id), None)

    def _reply_ready(self, source_host: str, request_id: int, future: Future) -> None:
        reply = b"" if future.failed else bytes(future.result())
        self._served[(source_host, request_id)] = reply
        self._send(
            source_host, _HEADER.pack(_KIND_REPLY, request_id, 0) + reply, False
        )

    def __repr__(self) -> str:
        return (
            f"<RkomService host={self.st.host.name} channels="
            f"{len(self._channels)} pending={len(self._pending)}>"
        )
