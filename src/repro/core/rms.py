"""The RMS abstraction itself (paper section 2).

An RMS is a simplex channel with three basic properties:

1. message boundaries are preserved;
2. messages are delivered in sequence;
3. clients are notified of an RMS failure,

plus the parameter set of :mod:`repro.core.params`.  :class:`Rms` is the
base class every provider (network layer, subtransport layer, transport
protocols) subclasses; it implements sending rules, delivery stamping,
failure notification, and the bookkeeping the experiments measure.

Capacity enforcement is deliberately *not* done here: section 4.4 makes
it a client responsibility ("The RMS provider is not responsible for
detecting potential capacity violations and blocking the sender").  The
base class only *counts* violations so experiments can show what happens
when clients misbehave (bench E14).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.core.message import Label, Message
from repro.core.params import RmsParams
from repro.errors import MessageTooLargeError, RmsFailedError
from repro.obs.registry import families
from repro.sim.context import FIGURE_TABLE_CAP, SimContext
from repro.sim.events import Signal
from repro.sim.ports import Port

__all__ = ["RmsLevel", "RmsState", "RmsStats", "Rms"]

_rms_ids = itertools.count(1)
_INF = math.inf
#: Layer label of each :class:`RmsLevel`, indexed by it (levels are ints).
_LAYERS = ("net", "st")


class RmsLevel(enum.IntEnum):
    """The RMS levels of Figure 3 this system builds, bottom to top (the
    sub-user and user levels of section 3.4 are out of scope)."""

    NETWORK = 0
    SUBTRANSPORT = 1


class RmsState(enum.Enum):
    OPEN = "open"
    FAILED = "failed"
    DELETED = "deleted"


@dataclass
class RmsStats:
    """Counters kept by every RMS: counts, not logs (a client that wants
    delays records ``Message.delay``; observing keeps :attr:`Rms.delays`)."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0  # lost, corrupted-and-discarded, or overrun
    messages_late: int = 0  # delivered after their delay bound
    out_of_order: int = 0  # delivered behind a later-sent one; must stay 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    capacity_violations: int = 0


_FAMILIES = families("rms", RmsStats, out_of_order="rms_messages_out_of_order")
#: The delay samples an observed RMS keeps (a list exports as a histogram).
_DELAYS = families("rms", ["delays"], delays="rms_delay_seconds")


class Rms:
    """Base Real-Time Message Stream.

    Providers subclass and implement :meth:`_transmit`; they call
    :meth:`_deliver` when a message reaches the receiver, and
    :meth:`_drop` when one is lost.  Clients call :meth:`send`.
    """

    level: RmsLevel = RmsLevel.NETWORK

    def __init__(
        self,
        context: SimContext,
        params: RmsParams,
        sender: Label,
        receiver: Label,
        name: Optional[str] = None,
        receiver_port: Optional[Port] = None,
    ) -> None:
        self.context = context
        self.params = params
        self.sender = sender
        self.receiver = receiver
        self.rms_id = next(_rms_ids)
        self.name = name or f"rms{self.rms_id}"
        self.state = RmsState.OPEN
        self.stats = RmsStats()
        if receiver_port is not None:
            self.port = receiver_port
        else:
            self.port = Port(context.loop, name=f"{self.name}.rx")
        #: Fired with (rms, reason) on failure -- basic property 3.
        self.on_failure: Signal = Signal(context.loop)
        self.outstanding_bytes = 0
        #: What the sender numbered the last delivered message by.
        self._last_order = -1
        #: The delay bound's terms: a ``size``-byte message's bound is
        #: ``a + b * size`` (``DelayBound.bound_for``'s float), and there
        #: is none where ``a`` is infinite (an unbounded stream).  Each
        #: size's bound is computed once into ``_bounds``, the table every
        #: RMS with these terms shares (None on an unbounded stream).
        delay = params.delay_bound
        self._bound_a = a = delay.a
        self._bound_b = b = delay.b
        self._bounds: Optional[Dict[int, float]] = (
            context.figures.setdefault((a, b), {}) if a < _INF else None
        )
        self.layer = _LAYERS[self.level]
        obs = context.obs
        obs.metrics.watch(self.stats, _FAMILIES, layer=self.layer, rms=self.name)
        if obs.enabled:
            #: Each delivery's delay, kept only while observing.
            self.delays: List[float] = []
            obs.metrics.watch(self, _DELAYS, layer=self.layer, rms=self.name)

    # -- client side ------------------------------------------------------

    def send(
        self,
        payload: Union[bytes, Message],
        deadline: Optional[float] = None,
    ) -> Message:
        """Send one message on the stream.

        ``payload`` may be raw bytes (a message is built with this RMS's
        labels) or a prepared :class:`Message`.  ``deadline`` is the
        transmission deadline used by deadline-ordered queues
        (section 4.3.1); when omitted, providers derive one from the
        RMS delay bound.
        """
        if self.state is not RmsState.OPEN:
            raise RmsFailedError(
                f"{self.name} has failed"
                if self.state is RmsState.FAILED
                else f"{self.name} has been deleted"
            )
        if isinstance(payload, Message):
            message = payload
        else:
            message = Message(payload, self.sender, self.receiver)
        params = self.params
        size = len(message.payload)
        if size > params.max_message_size:
            raise MessageTooLargeError(
                f"{self.name}: message of {size}B exceeds maximum "
                f"message size {params.max_message_size}B"
            )
        context = self.context
        now = context.loop._now
        message.send_time = now
        if deadline is not None:
            message.deadline = deadline
        else:
            bounds = self._bounds
            if bounds is not None:
                bound = bounds.get(size)
                if bound is None:
                    if len(bounds) >= FIGURE_TABLE_CAP:
                        bounds.clear()
                    bound = bounds[size] = self._bound_a + self._bound_b * size
                message.deadline = now + bound
        stats = self.stats
        stats.messages_sent += 1
        stats.bytes_sent += size
        self.outstanding_bytes += size
        if self.outstanding_bytes > params.capacity:
            # Client capacity violation: guarantees are void (section 4.4)
            # but the provider does not block -- it only counts.
            stats.capacity_violations += 1
        obs = context.obs
        if obs.enabled:
            if message.trace_id is None:
                message.trace_id = obs.spans.new_trace()
            obs.spans.event(
                message.trace_id, self.layer, "send", rms=self.name, size=size
            )
        self._transmit(message)
        return message

    # -- provider side ----------------------------------------------------

    def _transmit(self, message: Message) -> None:
        """Carry ``message`` toward the receiver.  Subclasses implement."""
        raise NotImplementedError

    def _deliver(self, message: Message, order: int) -> None:
        """Deliver ``message`` at the receiver (enqueue on the port).

        ``order`` is what the sender numbered the message by (a network
        RMS's ``message_id``, an ST stream's sequence number): one below
        the last delivered message's is counted ``out_of_order``.
        """
        if self.state is not RmsState.OPEN:
            return
        context = self.context
        now = context.loop._now
        size = len(message.payload)
        send_time = message.send_time
        message.deliver_time = now
        outstanding = self.outstanding_bytes - size
        self.outstanding_bytes = outstanding if outstanding > 0 else 0
        stats = self.stats
        stats.messages_delivered += 1
        stats.bytes_delivered += size
        late = False
        if send_time is None:
            delay = None
        else:
            delay = now - send_time
            bounds = self._bounds
            if bounds is not None:
                bound = bounds.get(size)
                if bound is None:
                    if len(bounds) >= FIGURE_TABLE_CAP:
                        bounds.clear()
                    bound = bounds[size] = self._bound_a + self._bound_b * size
                if delay > bound + 1e-12:
                    stats.messages_late += 1
                    late = True
        obs = context.obs
        if obs.enabled:
            if delay is not None:
                self.delays.append(delay)
            obs.spans.event(
                message.trace_id, self.layer, "deliver",
                rms=self.name, delay=delay,
            )
            if late:
                obs.spans.event(
                    message.trace_id, self.layer, "late", rms=self.name
                )
        if order < self._last_order:
            # In-sequence delivery is a basic property; a violation is a
            # provider bug, so this is a must-be-0 counter.
            stats.out_of_order += 1
            if obs.enabled:
                obs.spans.event(
                    message.trace_id, self.layer, "out_of_order", rms=self.name
                )
        else:
            self._last_order = order
        self.port.deliver(message)

    def _drop(self, message: Message, reason: str) -> None:
        """Record the loss of ``message`` (never delivered)."""
        self.outstanding_bytes = max(0, self.outstanding_bytes - message.size)
        self.stats.messages_dropped += 1
        obs = self.context.obs
        if obs.enabled:
            if message.trace_id is None:
                # A forged or replayed component rejoins no trace; open
                # one so the drop and its reason are never invisible.
                message.trace_id = obs.spans.new_trace()
            obs.spans.event(
                message.trace_id, self.layer, "drop",
                rms=self.name, reason=reason,
            )

    def fail(self, reason: str = "provider failure") -> None:
        """Fail the stream and notify clients (basic property 3)."""
        if self.state is not RmsState.OPEN:
            return
        self.state = RmsState.FAILED
        self.on_failure.fire(self, reason)

    def delete(self) -> None:
        """Tear the stream down cleanly (no failure notification)."""
        if self.state is RmsState.OPEN:
            self.state = RmsState.DELETED

    def close(self) -> None:
        """Idempotent teardown; already-failed or -deleted streams are a no-op.

        Subclasses that need provider-side cleanup override this (and
        keep it idempotent) so the session layer can always call it
        without tracking state themselves.
        """
        self.delete()

    @property
    def is_open(self) -> bool:
        return self.state is RmsState.OPEN

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name} {self.sender}->{self.receiver} "
            f"{self.state.value}>"
        )
