"""Stream protocols for bulk data transfer (paper sections 2.5, 3.3, 4.4).

A :class:`StreamSession` is a simplex transport session built from ST
RMSs, following the section-2.5 parameter recipes:

- the data path uses a *high capacity, high delay* ST RMS;
- acknowledgements use a *low capacity* reverse ST RMS -- low delay when
  it carries flow-control information, high delay when it only carries
  reliability acks;
- alternatively the ST *fast acknowledgement* service replaces the
  reverse RMS for fixed-size record streams (section 3.2, bench E13).

The data RMS is asked for like any other channel, with a ``desired``
parameter set (:func:`data_request`); :class:`StreamConfig` sets the
protocol alone.  Reliability (sequence numbers, cumulative acks,
retransmission), RMS capacity enforcement (an acknowledgement window
the size of the data RMS's capacity), receiver flow control (credits in
acks), and sender flow control (a flow-controlled local IPC port) are
each independently optional, composing the Figure-5 options.  An
admitted message passes the receiver-credit gate, then the window, then
goes on the wire: each step is one ``request`` on a
:mod:`repro.transport.flowcontrol` gate, which runs the next step inside
the call when it has room; a gate the configuration omits is skipped.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Sequence, Tuple

from repro.core.message import Message
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.errors import ParameterError, TransportError
from repro.netsim.topology import Host
from repro.obs.registry import families
from repro.sim.context import SimContext
from repro.sim.events import Signal
from repro.sim.ports import FlowControlledPort, Port
from repro.sim.process import Future
from repro.sim.retry import Retry
from repro.subtransport.st import SubtransportLayer
from repro.subtransport.strms import StRms
from repro.transport.flowcontrol import (
    FlowControlMode,
    ReceiverCredit,
    WindowEnforcer,
)

__all__ = ["StreamConfig", "StreamStats", "StreamSession", "open_stream"]

_session_ids = itertools.count(1)

_DATA_HEADER = struct.Struct(">IB")  # seq, flags
_ACK_FORMAT = struct.Struct(">BII")  # kind, cumulative ack, credit grant

_FLAG_NONE = 0
_ACK_KIND = 1

#: The oldest unacknowledged message is sent again after
#: ``RETRANSMIT_TIMEOUT`` seconds; the stream fails after
#: ``MAX_RETRANSMITS`` timeouts without progress.
RETRANSMIT_TIMEOUT = 0.5
MAX_RETRANSMITS = 10


def _retransmit_delay(attempt: int) -> float:
    return RETRANSMIT_TIMEOUT


#: What the data RMS is asked for when the client names nothing.
DEFAULT_DATA = RmsParams(capacity=64 * 1024, max_message_size=8 * 1024)


def data_request(desired: Optional[RmsParams]) -> Tuple[RmsParams, RmsParams]:
    """What the data ST RMS is asked for (section 2.5: high capacity,
    high delay): the desired set's capacity, message size, delay ``a``
    and security at 2 us/B, and the same set at twice the delay and
    10 us/B as the acceptable one; best-effort.  Deriving a derived set
    again gives it back."""
    desired = desired or DEFAULT_DATA
    if desired.delay_bound.is_unbounded:
        bound = loose = DelayBound.unbounded()
    else:
        delay = desired.delay_bound.a
        bound, loose = DelayBound(delay, 2e-6), DelayBound(delay * 2, 1e-5)
    data = RmsParams(
        capacity=desired.capacity,
        max_message_size=desired.max_message_size,
        delay_bound=bound,
        delay_bound_type=DelayBoundType.BEST_EFFORT,
        privacy=desired.privacy,
        authentication=desired.authentication,
    )
    return data, data.with_(delay_bound=loose)


@dataclass
class StreamConfig:
    """The protocol of one stream session; its data RMS is asked for
    with ``desired`` (:func:`data_request`)."""

    reliable: bool = True
    flow_control: FlowControlMode = FlowControlMode.END_TO_END
    receive_buffer: int = 64 * 1024
    #: Sender-side IPC port depth in messages (sender flow control).
    sender_port_limit: int = 16
    #: Fixed-size records, acknowledged by the ST fast-ack service
    #: instead of a reverse ack RMS; None for messages of any size.
    record_size: Optional[int] = None
    #: Send a cumulative ack every N in-order deliveries.
    ack_every: int = 2

    def __post_init__(self) -> None:
        if self.record_size is not None and self.record_size < 1:
            raise ParameterError("record_size must be >= 1")
        if self.ack_every < 1:
            raise ParameterError("ack_every must be >= 1")
        if self.receive_buffer <= 0:
            raise ParameterError("receive_buffer must be > 0")
        if self.sender_port_limit < 1:
            raise ParameterError("sender_port_limit must be >= 1")


@dataclass
class StreamStats:
    """Counters for one stream session."""

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_delivered: int = 0
    bytes_delivered: int = 0
    retransmissions: int = 0
    acks_sent: int = 0
    receiver_overflow_drops: int = 0
    duplicates_discarded: int = 0


_FAMILIES = families("stream", StreamStats)


class StreamSession:
    """One simplex transport stream between two hosts.

    Use :func:`open_stream` to construct; both endpoints of the session
    are methods of this object (the simulation is single-process), with
    sender-side state prefixed ``tx`` and receiver-side ``rx``.
    """

    def __init__(
        self,
        context: SimContext,
        config: StreamConfig,
        data_rms: StRms,
        ack_rms: Optional[StRms],
        ports: Sequence[Tuple[Host, str]] = (),
    ) -> None:
        self.context = context
        self.config = config
        self.data_rms = data_rms
        self.ack_rms = ack_rms
        #: The ``(host, port name)`` pairs bound for this session alone;
        #: failing or closing releases them.
        self._ports = ports
        self.stats = StreamStats()
        self.session_id = next(_session_ids)
        context.obs.metrics.watch(
            self.stats, _FAMILIES, stream=f"stream{self.session_id}"
        )
        # -- sender state --
        self.tx_next_seq = 0
        self._in_protocol = 0
        self._pump_pending = False
        self.tx_unacked: Dict[int, bytes] = {}
        self.tx_sizes: Dict[int, int] = {}
        self.tx_cumulative_acked = -1
        #: Resends the oldest unacknowledged message; progress resets it.
        self._retransmit = Retry(
            context.loop, _retransmit_delay, MAX_RETRANSMITS,
            self._retransmit_fired,
            partial(self._fail, "retransmission limit exceeded"),
        )
        #: Why the stream is unusable (failed or closed), or None.
        self.failed: Optional[str] = None
        #: Fired once, with (session, reason), when the stream fails.
        #: The resilience layer listens here to salvage and re-open.
        self.on_failed: Signal = Signal()
        self.tx_port: Optional[FlowControlledPort] = None
        if config.flow_control.has_sender_fc:
            self.tx_port = FlowControlledPort(
                context.loop,
                limit=config.sender_port_limit,
                name=f"stream{self.session_id}.txport",
            )
        #: The RMS capacity gate, opened by acknowledgements.
        self._window: Optional[WindowEnforcer] = None
        if config.flow_control.enforces_capacity:
            self._window = WindowEnforcer(context, data_rms.params.capacity)
        self._credit: Optional[ReceiverCredit] = None
        if config.flow_control.has_receiver_fc:
            self._credit = ReceiverCredit(context, config.receive_buffer)
        # -- receiver state --
        self.rx_expected_seq = 0
        self.rx_buffer: Dict[int, bytes] = {}
        self.rx_port = Port(context.loop, name=f"stream{self.session_id}.rx")
        self.rx_buffered_bytes = 0
        self.rx_since_ack = 0
        self.rx_pending_grant = 0
        # Wire up delivery paths.
        data_rms.port.set_handler(self._data_arrived)
        data_rms.on_failure.listen(lambda rms, reason: self._fail(reason))
        if ack_rms is not None:
            ack_rms.port.set_handler(self._ack_arrived)
        if config.record_size is not None:
            data_rms.on_fast_ack.listen(self._fast_ack_arrived)
            self._fast_acked = 0

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------

    def send(self, payload: bytes) -> Future:
        """Offer one message; the future resolves when the send protocol
        accepts it (immediately unless sender flow control pushes back)."""
        if self.failed:
            raise TransportError(f"stream failed: {self.failed}")
        if self.config.record_size is not None and len(payload) != self.config.record_size:
            raise ParameterError(
                f"record stream requires {self.config.record_size}B records, "
                f"got {len(payload)}B"
            )
        if self.tx_port is not None:
            accepted = self.tx_port.put(payload)
            self.context.loop.call_soon(self._pump_tx_port)
            return accepted
        future = Future(self.context.loop)
        future.set_result(None)
        self._admit(payload)
        return future

    #: How many admitted-but-untransmitted messages the send protocol
    #: holds before it stops reading its IPC port (section 4.4).
    _PROTOCOL_DEPTH = 4

    def _pump_tx_port(self) -> None:
        # The send protocol reads the IPC port only while it can make
        # progress ("the sending transport protocol stops reading
        # messages from the port while it is prevented from sending").
        if self.tx_port is None or self._pump_pending:
            return
        if self._in_protocol >= self._PROTOCOL_DEPTH:
            return
        if len(self.tx_port) == 0 and not self.tx_port._putters:
            return
        self._pump_pending = True
        taken = self.tx_port.take()

        def on_taken(future: Future) -> None:
            self._pump_pending = False
            self._admit(future.result())
            self._pump_tx_port()

        taken.add_done_callback(on_taken)

    def _admit(self, payload: bytes) -> None:
        seq = self.tx_next_seq
        self.tx_next_seq += 1
        self._in_protocol += 1
        if self.config.reliable:
            self.tx_unacked[seq] = payload
        if self.ack_rms is not None:  # only a cumulative ack forgets it
            self.tx_sizes[seq] = len(payload)
        # Allocate the message's trace before the flow-control gates so
        # fc:hold/fc:release time spent waiting lands on its span.
        obs = self.context.obs
        trace_id = obs.spans.new_trace() if obs.enabled else None
        # Receiver credit, then the window, then the wire.
        if self._credit is not None:
            self._credit.request(
                len(payload), self._gate_window, seq, payload, trace_id,
                trace_id=trace_id,
            )
        else:
            self._gate_window(seq, payload, trace_id)

    def _gate_window(
        self, seq: int, payload: bytes, trace_id: Optional[int]
    ) -> None:
        if self._window is not None:
            self._window.request(
                len(payload) + _DATA_HEADER.size, self._transmit,
                seq, payload, trace_id, trace_id=trace_id,
            )
        else:
            self._transmit(seq, payload, trace_id)

    def _transmit(
        self, seq: int, payload: bytes, trace_id: Optional[int] = None
    ) -> None:
        self._in_protocol = max(0, self._in_protocol - 1)
        if self.failed:
            return
        data_rms = self.data_rms
        data_rms.send(Message(
            _DATA_HEADER.pack(seq, _FLAG_NONE) + payload,
            data_rms.sender, data_rms.receiver, trace_id=trace_id,
        ))
        self.stats.messages_sent += 1
        self.stats.bytes_sent += len(payload)
        if self.config.reliable and self.tx_unacked:
            self._retransmit.arm()
        self._pump_tx_port()

    # -- reliability ------------------------------------------------------

    def _retransmit_fired(self) -> None:
        if not self.tx_unacked or self.failed or not self._retransmit.again():
            return
        oldest = min(self.tx_unacked)
        frame = _DATA_HEADER.pack(oldest, _FLAG_NONE) + self.tx_unacked[oldest]
        self.stats.retransmissions += 1
        # The window still holds the space of the original send and the
        # retransmission reuses it.
        self.data_rms.send(frame)
        self._retransmit.arm()

    def _fail(self, reason: str) -> None:
        if self.failed:
            return
        self.failed = reason
        self._retransmit.stop()
        _release(self._ports)
        self.on_failed.fire(self, reason)

    def salvage_unsent(self) -> list:
        """Payloads not known to be delivered, in send order.

        Used when a failed session is replaced by a fresh one on a
        recovered path: unacknowledged in-flight messages first, then
        anything still queued in the sender-side IPC port.  Re-sending
        them is at-least-once -- an ack lost in the failure window means
        the receiver may see a duplicate.
        """
        salvaged = [self.tx_unacked[seq] for seq in sorted(self.tx_unacked)]
        if self.tx_port is not None:
            salvaged.extend(self.tx_port.drain())
            while self.tx_port._putters:
                payload, put_future = self.tx_port._putters.popleft()
                salvaged.append(payload)
                if not put_future.done:
                    put_future.set_result(None)
        return salvaged

    # -- acks arriving at the sender ----------------------------------------

    def _ack_arrived(self, message) -> None:
        if len(message.payload) < _ACK_FORMAT.size:
            return
        kind, cumulative, grant = _ACK_FORMAT.unpack_from(message.payload, 0)
        if kind != _ACK_KIND:
            return
        self._apply_ack(cumulative, grant)

    def _fast_ack_arrived(self, _count: int) -> None:
        # Fast acks carry only a delivery count; with fixed-size records
        # that is enough to open the capacity window and return credit.
        self._fast_acked += 1
        record = self.config.record_size + _DATA_HEADER.size
        if self._window is not None:
            self._window.acknowledge(record)
        if self._credit is not None:
            self._credit.grant(record - _DATA_HEADER.size)
        seq = self._fast_acked - 1
        self.tx_unacked.pop(seq, None)
        if not self.tx_unacked:
            self._retransmit.stop()
        self._retransmit.reset()

    def _apply_ack(self, cumulative: int, grant: int) -> None:
        acked_bytes = 0
        for seq in list(self.tx_unacked):
            if seq <= cumulative:
                self.tx_unacked.pop(seq)
        for seq in list(self.tx_sizes):
            if seq <= cumulative:
                acked_bytes += self.tx_sizes.pop(seq) + _DATA_HEADER.size
        if cumulative > self.tx_cumulative_acked:
            self.tx_cumulative_acked = cumulative
            self._retransmit.reset()
        if self._window is not None and acked_bytes:
            self._window.acknowledge(acked_bytes)
        if self._credit is not None and grant:
            self._credit.grant(grant)
        if not self.tx_unacked:
            self._retransmit.stop()
        else:
            self._retransmit.arm()

    @property
    def all_acked(self) -> bool:
        return not self.tx_unacked

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------

    def _data_arrived(self, message) -> None:
        if len(message.payload) < _DATA_HEADER.size:
            return
        seq, _flags = _DATA_HEADER.unpack_from(message.payload, 0)
        payload = message.payload[_DATA_HEADER.size :]
        if seq < self.rx_expected_seq or seq in self.rx_buffer:
            self.stats.duplicates_discarded += 1
            self._maybe_send_ack(force=True)
            return
        if (
            self.rx_buffered_bytes + len(payload) > self.config.receive_buffer
            and not self.config.flow_control.has_receiver_fc
        ):
            # No receiver flow control and the buffer is full: overrun.
            self.stats.receiver_overflow_drops += 1
            return
        self.rx_buffer[seq] = payload
        self.rx_buffered_bytes += len(payload)
        self._deliver_in_order()

    def _deliver_in_order(self) -> None:
        while self.rx_expected_seq in self.rx_buffer:
            payload = self.rx_buffer.pop(self.rx_expected_seq)
            self.rx_expected_seq += 1
            self.stats.messages_delivered += 1
            self.stats.bytes_delivered += len(payload)
            self.rx_since_ack += 1
            self.rx_port.deliver(payload)
        self._maybe_send_ack()

    def receive(self) -> Future:
        """The receiving application takes the next message.

        Consuming returns credit to the sender when receiver flow
        control is on (the grant rides the next ack).
        """
        future = self.rx_port.get()
        future.add_done_callback(self._consumed)
        return future

    def _consumed(self, future: Future) -> None:
        self._mark_consumed(future.result())

    def _mark_consumed(self, payload: bytes) -> None:
        self.rx_buffered_bytes = max(0, self.rx_buffered_bytes - len(payload))
        if self.config.flow_control.has_receiver_fc:
            self.rx_pending_grant += len(payload)
            self._maybe_send_ack(force=True)

    def drain_to(self, callback) -> None:
        """Deliver every received message to ``callback`` as it arrives.

        Messages count as consumed immediately (credit returns to the
        sender), letting a supervising session relay delivery across
        re-established incarnations through one stable port.
        """

        def handler(payload: bytes) -> None:
            self._mark_consumed(payload)
            callback(payload)

        self.rx_port.set_handler(handler)

    def _maybe_send_ack(self, force: bool = False) -> None:
        if self.ack_rms is None:
            return
        if not force and self.rx_since_ack < self.config.ack_every:
            return
        if self.rx_since_ack == 0 and self.rx_pending_grant == 0 and not force:
            return
        self.rx_since_ack = 0
        grant, self.rx_pending_grant = self.rx_pending_grant, 0
        ack = _ACK_FORMAT.pack(_ACK_KIND, self.rx_expected_seq - 1, grant)
        self.ack_rms.send(ack)
        self.stats.acks_sent += 1

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Tear down both ST RMSs.  Closing is final: no timer of the
        stream stays armed, a send the gates still hold is dropped and a
        later :meth:`send` raises."""
        if not self.failed:
            self.failed = "closed"
        self._retransmit.stop()
        self.data_rms.close()
        if self.ack_rms is not None:
            self.ack_rms.close()
        _release(self._ports)

    def __repr__(self) -> str:
        return (
            f"<StreamSession #{self.session_id} sent={self.stats.messages_sent} "
            f"delivered={self.stats.messages_delivered}>"
        )


def _release(ports) -> None:
    """Unbind the ports named for one stream alone: nothing is delivered
    to them once it has failed or closed."""
    for host, port in ports:
        host.ports.pop(port, None)


def open_stream(
    context: SimContext,
    sender_st: SubtransportLayer,
    receiver_st: SubtransportLayer,
    desired: Optional[RmsParams] = None,
    config: Optional[StreamConfig] = None,
) -> Future:
    """Open a stream session; resolves to a :class:`StreamSession`.

    Creates the data ST RMS (sender to receiver) for ``desired``
    (:func:`data_request`) and, unless fast acks replace it, the reverse
    ack ST RMS per the section-2.5 recipes.
    """
    config = config or StreamConfig()
    data_desired, data_acceptable = data_request(desired)
    fast_ack = config.record_size is not None
    # Low delay when the acks gate flow; high delay when they only
    # confirm reliability (section 2.5).
    gating = (config.flow_control.enforces_capacity
              or config.flow_control.has_receiver_fc)
    result = Future(context.loop)
    session_tag = next(_session_ids)

    def flow():
        data_port = f"stream-data-{session_tag}"
        ports = [(receiver_st.host, data_port)]
        data_rms = yield sender_st.create_st_rms(
            receiver_st.host.name, port=data_port, desired=data_desired,
            acceptable=data_acceptable, fast_ack=fast_ack,
        )
        ack_rms = None
        if (config.reliable or gating) and not fast_ack:
            ack_delay = 0.05 if gating else 1.0
            # An authenticated stream authenticates its acks too: a
            # forged one would open the window.
            ack_desired = RmsParams(
                capacity=2048, max_message_size=256,
                delay_bound=DelayBound(ack_delay, 1e-6),
                delay_bound_type=DelayBoundType.BEST_EFFORT,
                authentication=data_desired.authentication,
            )
            ack_port = f"stream-ack-{session_tag}"
            ports.append((sender_st.host, ack_port))
            try:
                ack_rms = yield receiver_st.create_st_rms(
                    sender_st.host.name, port=ack_port, desired=ack_desired,
                    acceptable=ack_desired.with_(
                        delay_bound=DelayBound(ack_delay * 4, 1e-5)),
                )
            except Exception:
                # No stream without its acks: give back the data side.
                data_rms.close()
                _release(ports)
                raise
        return StreamSession(context, config, data_rms, ack_rms, tuple(ports))

    process = context.spawn(flow(), name=f"open-stream-{session_tag}")
    process.finished.add_done_callback(lambda f: f.copy_to(result))
    return result
