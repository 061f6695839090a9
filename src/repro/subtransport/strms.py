"""ST-level Real-Time Message Streams (sections 3.2 and 3.4).

An :class:`StRms` is the RMS the subtransport layer provides to its
clients (transport protocols and kernel services).  Its delay bound
covers ST send processing, piggyback queueing, the underlying network
RMS, and ST receive processing.  The stream runs its own send stage
(section 4.1): one CPU item per message, whose completion numbers the
message, applies the stream's security transform and queues it on its
network RMS's piggyback queue (4.3.1), or fragments it (4.3).  Delivery
happens on a port of the receiving host, through the receiving
layer's :class:`~repro.subtransport.receiver.RxStream`.

The class-level registry maps ST RMS ids to objects so the receiving
subtransport layer can resolve ids arriving in bundle subheaders -- the
in-process analogue of both ends agreeing on a stream id during
establishment.
"""

from __future__ import annotations

import weakref
from typing import ClassVar, Dict, Optional, Tuple, TYPE_CHECKING

from repro.core.message import Label, Message
from repro.core.params import RmsParams
from repro.core.rms import Rms, RmsLevel, RmsState
from repro.errors import RmsError, TransportError
from repro.sched.cpu import stage_costs
from repro.sim.context import FIGURE_TABLE_CAP, SimContext
from repro.sim.events import Signal
from repro.sim.ports import Port
from repro.subtransport.security import SecurityContext, SecurityPlan
from repro.subtransport.wire import FLAG_FRAGMENT, FRAG_HEADER_BYTES, encode_bundle

if TYPE_CHECKING:  # pragma: no cover
    from repro.subtransport.mux import MuxBinding
    from repro.subtransport.receiver import RxStream
    from repro.subtransport.st import SubtransportLayer

__all__ = ["StRms"]


class StRms(Rms):
    """A subtransport-level RMS."""

    level = RmsLevel.SUBTRANSPORT

    registry: ClassVar["weakref.WeakValueDictionary[int, StRms]"] = (
        weakref.WeakValueDictionary()
    )

    def __init__(
        self,
        context: SimContext,
        params: RmsParams,
        sender: Label,
        receiver: Label,
        sender_st: "SubtransportLayer",
        plan: SecurityPlan,
        fast_ack: bool = False,
        receiver_port: Optional[Port] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(
            context, params, sender, receiver, name=name, receiver_port=receiver_port
        )
        self.sender_st = sender_st
        self.plan = plan
        #: Keyed per stream, from the host pair's key and this stream's
        #: id: the nonce both engines use is the 32-bit sequence number
        #: alone, so streams sharing a key would share keystream.
        self.session_key = sender_st.keys.session_key(
            sender.host, receiver.host, self.rms_id
        )
        self.fast_ack = fast_ack
        self.binding: Optional["MuxBinding"] = None
        #: The receiving layer's :class:`RxStream`, set at ``st_create``.
        self.rx: Optional["RxStream"] = None
        self.next_seq = 0
        #: Per-stream security state, built once at negotiation time:
        #: the keyed provider instance, MAC context prefix, and wire
        #: flags.  Both ends of an in-process stream share this one
        #: object, so the receiver's ``security.unprotect`` undoes
        #: exactly the plan the sender's ``security.protect`` runs; both
        #: are ``None`` on parameter-elided channels.
        self.security = SecurityContext(
            plan, self.session_key, sender, self.rms_id
        )
        #: Largest component that fits a bundle on the bound network RMS;
        #: bigger messages fragment.  Set by the ST with the binding.
        self.max_component = 0
        # Resolved once: the host's CPU, the piggyback hold cap, the
        # send stage's name and the terms of its CPU cost (``stage_costs``,
        # which the receive stage shares: one plan) and of its deadlines
        # (``send_terms``, set by the ST with the binding, and with them
        # ``send_figures``, the table of each size's ``(cost, deadline,
        # slack)`` shared by every stream with these terms).  The first
        # message of a size computes its figures from the terms, inline.
        self._cpu = sender_st.host.cpu
        self._window_cap = sender_st.config.piggyback_window_cap
        self._stage_name = f"st/send:{self.rms_id}"
        self.cost_terms = stage_costs(plan.checksum, plan.encrypt, plan.mac)
        self.send_terms: Optional[Tuple[float, ...]] = None
        self.send_figures: Optional[Dict[int, Tuple[float, float, float]]] = None
        #: Fired with the acknowledged sequence number when the receiving
        #: ST's fast-acknowledgement service reports delivery (3.2).
        self.on_fast_ack: Signal = Signal(context.loop)
        StRms.registry[self.rms_id] = self

    def _transmit(self, message: Message) -> None:
        """Queue the send stage of one message on this host's CPU."""
        binding = self.binding
        if binding is None:
            raise RmsError(f"{self.name} has no network binding yet")
        size = len(message.payload)
        arrival = message.send_time
        figures = self.send_figures
        figure = figures.get(size)
        if figure is None:
            if len(figures) >= FIGURE_TABLE_CAP:
                figures.clear()
            cost, rates = self.cost_terms
            for rate in rates:
                cost += rate * size
            deadline, st_a, st_b, net_a, net_b, reserve = self.send_terms
            slack = (st_a + st_b * size) - (net_a + net_b * size) - reserve
            if slack < 0.0:
                slack = 0.0
            figure = figures[size] = (cost, deadline, slack)
        cost, deadline, slack = figure
        self._cpu.submit(
            self._stage_name, cost, arrival + deadline, self._send_stage_done,
            # Maximum transmission deadline (4.3.1): arrival plus the slack.
            (message, size, arrival, arrival + slack), "st", 0,
            message.trace_id,
        )

    def _send_stage_done(
        self, message: Message, size: int, arrival: float, max_deadline: float
    ) -> None:
        """Number the message as one component, apply the stream's
        security transform and queue it to piggyback (4.3.1)."""
        binding = self.binding
        if binding is None or binding.network_rms.state is not RmsState.OPEN:
            self._drop(message, "binding lost")
            return
        if size > self.max_component:
            self._send_fragments(binding, message, max_deadline, arrival)
            return
        seq = self.next_seq
        self.next_seq = seq + 1
        trace_id = message.trace_id
        obs = self.context.obs
        if obs.enabled:
            # Correlate the in-flight component with its span so the
            # receiving ST can rejoin the trace (no wire-format change).
            obs.spans.stash((self.rms_id, seq), trace_id)
            obs.spans.event(trace_id, "st", "enqueue", st=self.name, queued=True)
        payload = message.payload
        security = self.security
        if security.protect is not None:
            payload = security.protect(seq, payload, arrival, 0, 0)
        binding.queue.submit(
            (self.rms_id, seq, security.flags, payload, arrival, 0, 0),
            max_deadline, arrival + self._window_cap, trace_id,
        )

    def _send_fragments(
        self,
        binding: "MuxBinding",
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
        chunk_size = self.max_component - FRAG_HEADER_BYTES
        if chunk_size <= 0:
            raise TransportError(
                "network maximum message size too small for fragments"
            )
        total = len(message.payload)
        trace_id = message.trace_id
        obs = self.context.obs
        if obs.enabled:
            obs.spans.event(
                trace_id, "st", "enqueue",
                st=self.name, fragmented=True, total=total,
            )
        rms_id = self.rms_id
        st_ids = [rms_id]
        security = self.security
        protect = security.protect
        flags = FLAG_FRAGMENT | security.flags
        stats = self.sender_st.stats
        # One view over the client payload; each fragment is a zero-copy
        # slice of it all the way through encode_bundle's join.
        payload_view = memoryview(message.payload)
        for offset in range(0, total, chunk_size):
            seq = self.next_seq
            self.next_seq = seq + 1
            if obs.enabled:
                obs.spans.stash((rms_id, seq), trace_id)
                obs.spans.event(
                    trace_id, "net", "tx", st_rms=rms_id, seq=seq, bundled=1,
                )
            chunk = payload_view[offset : offset + chunk_size]
            if protect is not None:
                chunk = protect(seq, chunk, arrival, offset, total)
            queue.flush_fn(
                encode_bundle([(rms_id, seq, flags, chunk, arrival, offset, total)]),
                max(max_deadline, binding.ordering_floor(st_ids)),
                st_ids,
                1,
            )
            stats.fragments_sent += 1

    def close(self) -> None:
        """Tear the stream down via the owning subtransport layer."""
        self.sender_st.close_st_rms(self)
