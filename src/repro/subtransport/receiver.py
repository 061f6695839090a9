"""The receive side of one incoming ST RMS (paper sections 3.2, 4.1, 4.3).

The subtransport layer decodes each bundle and hands every component to
the receiver of its stream, a :class:`RxStream` built once, when the peer
asks for the stream (``st_create``).  The receiver undoes the stream's
negotiated security plan, refuses a component it has accepted before,
reassembles fragments, and queues one receive-stage CPU item per whole
message (section 4.1); the item's completion delivers the message to the
client and, on a fast-acknowledged stream, tells the sender (3.2).

"It does not retransmit fragments; if a message is incomplete when a
fragment of the next message arrives, the partial message is discarded"
(section 4.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.core.message import Message
from repro.core.rms import RmsState
from repro.sched.cpu import protocol_cost
from repro.subtransport.config import receive_deadline
from repro.subtransport.strms import StRms
from repro.subtransport.wire import (
    FLAG_CHECKSUM,
    FLAG_ENCRYPTED,
    FLAG_FRAGMENT,
    FLAG_MAC,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.subtransport.st import SubtransportLayer

__all__ = ["RxStream"]

_SECURITY_FLAGS = FLAG_CHECKSUM | FLAG_MAC | FLAG_ENCRYPTED


class RxStream:
    """Receive-side state of one incoming ST RMS.

    :meth:`receive` takes one component, :meth:`receive_fragment` is its
    reassembly (it returns the whole message, or None while one is
    incomplete), and :meth:`deliver` is the receive stage's completion.
    A whole message and a reassembled one share the one CPU-submit body
    at the end of :meth:`receive`.
    """

    __slots__ = (
        "layer", "st_rms", "fast_ack", "sender_host", "stats", "_context",
        "_loop", "_cpu", "_flags", "_unprotect", "_stage_name", "_stages",
        "last_seq", "last_cpu_deadline", "partial", "partial_expected",
        "partial_offset", "partial_send_time", "partial_trace",
    )

    def __init__(
        self,
        layer: "SubtransportLayer",
        st_rms: StRms,
        fast_ack: bool,
        sender_host: str,
    ) -> None:
        self.layer = layer
        self.st_rms = st_rms
        self.fast_ack = fast_ack
        self.sender_host = sender_host
        self.stats = layer.stats
        self._context = layer.context
        self._loop = layer.context.loop
        self._cpu = layer.host.cpu
        security = st_rms.security
        self._flags = security.flags
        self._unprotect = security.unprotect
        self._stage_name = f"st/recv:{st_rms.rms_id}"
        #: Per message size, the receive stage's CPU cost and deadline
        #: (``receive_deadline``'s offset and whether it counts from
        #: receipt): pure functions of the size, so a hit is the very
        #: float a per-message call would compute.
        self._stages: Dict[int, Tuple[float, float, bool]] = {}
        #: Sequence number of the last component accepted.  Sequence
        #: numbers rise per component on a stream and the network keeps
        #: a stream's order, so one at or below it is a replay or a
        #: duplicate.
        self.last_seq = -1
        #: Monotonic floor on receive-stage CPU deadlines: without it, a
        #: smaller (hence earlier-deadline) later message could overtake its
        #: predecessor in the EDF CPU queue, violating in-sequence delivery.
        self.last_cpu_deadline = 0.0
        self.partial = bytearray()
        self.partial_expected = 0  # total bytes of the message being reassembled
        self.partial_offset = 0  # next expected fragment offset
        self.partial_send_time = 0.0
        self.partial_trace: Optional[int] = None  # span of that message

    def receive(
        self,
        seq: int,
        flags: int,
        data: Union[bytes, memoryview],
        send_time: float,
        frag_offset: int,
        frag_total: int,
        trace_id: Optional[int],
    ) -> None:
        """Verify and decrypt one decoded component, and queue the
        receive stage of the message it completes."""
        # The stream's negotiated plan says what to undo.  The flags on
        # the wire are not authenticated: a component whose security
        # flags are not the plan's is a forgery (or a corruption), never
        # a reason to undo something else.
        if flags & _SECURITY_FLAGS != self._flags:
            failure = "authentication failure"
        elif self._unprotect is not None:
            data, failure = self._unprotect(
                seq, data, send_time, frag_offset, frag_total
            )
        else:
            failure = None
        stats = self.stats
        if failure is not None:
            if failure == "checksum failure":
                stats.checksum_drops += 1
            else:
                stats.auth_drops += 1
            self.st_rms._drop(Message(data, trace_id=trace_id), failure)
            return
        if seq <= self.last_seq:
            # Accepted once already.  Not a ``_drop``: the sender's
            # counts describe its sends, and this was not one.
            stats.duplicate_drops += 1
            return
        self.last_seq = seq
        stats.components_received += 1
        if flags & FLAG_FRAGMENT:
            data = self.receive_fragment(
                data, send_time, frag_offset, frag_total, trace_id
            )
            if data is None:
                return
            send_time = self.partial_send_time
            trace_id = self.partial_trace
        size = len(data)
        stage = self._stages.get(size)
        if stage is None:
            st_rms = self.st_rms
            plan = st_rms.plan
            offset, after_receipt = receive_deadline(
                st_rms.params.delay_bound, size
            )
            stage = self._stages[size] = (
                protocol_cost(size, plan.checksum, plan.encrypt, plan.mac),
                offset,
                after_receipt,
            )
        cost, offset, after_receipt = stage
        deadline = (self._loop._now if after_receipt else send_time) + offset
        # In-sequence delivery (basic property 2): CPU-stage deadlines on
        # one stream never decrease, so stable EDF keeps stream order.
        if deadline < self.last_cpu_deadline:
            deadline = self.last_cpu_deadline
        else:
            self.last_cpu_deadline = deadline
        obs = self._context.obs
        if obs.enabled:
            obs.spans.event(trace_id, "st", "rx", st=self.st_rms.name, size=size)
        self._cpu.submit(
            self._stage_name, cost, deadline, self.deliver,
            (data, send_time, trace_id), "st", 0, trace_id,
        )

    def receive_fragment(
        self,
        data: Union[bytes, memoryview],
        send_time: float,
        frag_offset: int,
        frag_total: int,
        trace_id: Optional[int],
    ) -> Optional[bytes]:
        """Add one fragment; the whole message once it is complete."""
        self.stats.fragments_received += 1
        if frag_offset == 0:
            if self.partial_expected and len(self.partial) < self.partial_expected:
                # A fragment of the next message arrived while a message
                # was incomplete: discard the partial (section 4.3).
                self.stats.partials_discarded += 1
                self.st_rms._drop(
                    Message(bytes(self.partial), trace_id=self.partial_trace),
                    "partial discarded",
                )
            self.partial = bytearray()
            self.partial_expected = frag_total
            self.partial_offset = 0
            self.partial_send_time = send_time
            self.partial_trace = trace_id
        if frag_offset != self.partial_offset or self.partial_expected == 0:
            # A gap (lost fragment): the message can never complete.
            # Leave the partial to be discarded on the next first-fragment.
            self.partial_offset = -1
            return None
        self.partial.extend(data)
        self.partial_offset += len(data)
        if len(self.partial) < self.partial_expected:
            return None
        payload = bytes(self.partial)
        self.partial = bytearray()
        self.partial_expected = 0
        self.partial_offset = 0
        return payload

    def deliver(
        self,
        payload: Union[bytes, memoryview],
        send_time: float,
        trace_id: Optional[int],
    ) -> None:
        """The receive stage is done: deliver the message to the client."""
        st_rms = self.st_rms
        if st_rms.state is not RmsState.OPEN:
            return
        if type(payload) is not bytes:
            # Client-delivery boundary: hand applications real bytes, not
            # a view pinned to the network message's buffer.
            payload = bytes(payload)
        st_rms._deliver(
            Message(payload, st_rms.sender, st_rms.receiver, send_time, trace_id)
        )
        if self.fast_ack:
            seq = st_rms.stats.messages_delivered
            self.layer._peer(self.sender_host).control.send(
                {"op": "fast_ack", "st_id": st_rms.rms_id, "seq": seq}
            )
            self.stats.fast_acks_sent += 1
            obs = self._context.obs
            if obs.enabled:
                obs.spans.event(trace_id, "st", "ack", st=st_rms.name, seq=seq)
