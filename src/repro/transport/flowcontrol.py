"""Flow control and RMS capacity enforcement (paper section 4.4).

The paper factors buffers into three groups -- (1) between sending
process and send protocol, (2) inside the network, (3) between receive
protocol and receiver -- and treats them separately:

- *RMS capacity enforcement* protects group (2).  It is a **client**
  responsibility; the provider neither detects nor blocks violations.
  Two mechanisms: rate-based ("using timers, the sender ensures that
  during any time period of duration A + CB, the number of bytes sent
  does not exceed C") and acknowledgement-based (a byte window opened by
  flow-control acknowledgements).
- *Receiver flow control* protects group (3): the protocol stops sending
  when the receive buffer limit is reached.
- *Sender flow control* protects group (1): a flow-controlled local IPC
  port (see :class:`repro.sim.ports.FlowControlledPort`).

Each mechanism here is independent so the Figure-5 configurations can be
composed -- or omitted, which is the paper's point ("in cases where no
flow control is necessary, performance optimizations may be possible").
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.core.params import RmsParams
from repro.errors import ParameterError
from repro.obs.registry import families
from repro.sim.context import SimContext
from repro.sim.events import EventHandle

__all__ = [
    "FlowControlMode",
    "RateBasedEnforcer",
    "WindowEnforcer",
    "ReceiverCredit",
]


#: One family for the three mechanisms, told apart by a label.
_FAMILIES = families("fc", ("sends_delayed",))
_CREDIT_FAMILIES = families("fc", ("stalls",), stalls="fc_sends_delayed")


class FlowControlMode(enum.Enum):
    """The Figure-5 flow-control options."""

    NONE = "none"
    CAPACITY_ONLY = "capacity"
    SENDER_ONLY = "sender"
    RECEIVER_ONLY = "receiver"
    CAPACITY_AND_RECEIVER = "capacity+receiver"
    END_TO_END = "end-to-end"  # sender + capacity + receiver

    @property
    def enforces_capacity(self) -> bool:
        return self in (
            FlowControlMode.CAPACITY_ONLY,
            FlowControlMode.CAPACITY_AND_RECEIVER,
            FlowControlMode.END_TO_END,
        )

    @property
    def has_receiver_fc(self) -> bool:
        return self in (
            FlowControlMode.RECEIVER_ONLY,
            FlowControlMode.CAPACITY_AND_RECEIVER,
            FlowControlMode.END_TO_END,
        )

    @property
    def has_sender_fc(self) -> bool:
        return self in (FlowControlMode.SENDER_ONLY, FlowControlMode.END_TO_END)


class RateBasedEnforcer:
    """Rate-based capacity enforcement (section 4.4).

    A strict sliding-window limiter: "using timers, the sender ensures
    that during any time period of duration A + CB, the number of bytes
    sent does not exceed C."  A send is admitted only when the bytes
    sent during the trailing window, plus its own size, stay within the
    capacity; otherwise it waits until enough history ages out.  "This
    approach is pessimistic in the sense that it assumes the maximum
    delay for all messages."
    """

    def __init__(self, context: SimContext, params: RmsParams) -> None:
        if params.delay_bound.is_unbounded:
            raise ParameterError(
                "rate-based enforcement needs a finite delay bound"
            )
        self.context = context
        self.capacity = params.capacity
        self.window = params.delay_bound.a + params.capacity * params.delay_bound.b
        if self.window <= 0:
            raise ParameterError("degenerate enforcement window")
        #: Average admission rate implied by the rule, for reporting.
        self.rate = params.capacity / self.window
        self._history: Deque[Tuple[float, int]] = deque()  # (send time, size)
        self._in_window = 0
        #: Pending sends: mutable [size, send, trace_id, held] records so
        #: the drain loop can mark an item held exactly once.
        self._pending: Deque[list] = deque()
        self._timer: Optional[EventHandle] = None
        self.sends_delayed = 0
        context.obs.metrics.watch(self, _FAMILIES, mechanism="rate")

    def _evict(self) -> None:
        horizon = self.context.now - self.window
        while self._history and self._history[0][0] <= horizon:
            _, size = self._history.popleft()
            self._in_window -= size

    def request(
        self,
        size: int,
        send: Callable[[], None],
        trace_id: Optional[int] = None,
    ) -> None:
        """Run ``send`` as soon as the sliding-window rule allows."""
        if size > self.capacity:
            raise ParameterError(
                f"message of {size}B exceeds enforced capacity {self.capacity}B"
            )
        self._pending.append([size, send, trace_id, False])
        self._drain()

    def try_admit(self, size: int, now: Optional[float] = None) -> bool:
        """Admit ``size`` bytes immediately, or decline without queueing.

        The no-alloc fast path of :meth:`request`: no pending record, no
        closure, no timer.  Succeeds -- with exactly the bookkeeping an
        uncontested ``request`` would have done -- iff nothing is queued
        ahead and the sliding window has room.  On False the enforcer is
        untouched and the caller falls back to :meth:`request`.
        """
        if self._pending:
            return False
        if size > self.capacity:
            raise ParameterError(
                f"message of {size}B exceeds enforced capacity {self.capacity}B"
            )
        if now is None:
            now = self.context.now
        horizon = now - self.window
        history = self._history
        while history and history[0][0] <= horizon:
            _, old = history.popleft()
            self._in_window -= old
        if self._in_window + size > self.capacity:
            return False
        history.append((now, size))
        self._in_window += size
        return True

    def _drain(self) -> None:
        self._evict()
        obs = self.context.obs
        while self._pending:
            entry = self._pending[0]
            size, send, trace_id, held = entry
            if self._in_window + size <= self.capacity:
                self._pending.popleft()
                self._history.append((self.context.now, size))
                self._in_window += size
                if held and obs.enabled:
                    obs.spans.event(trace_id, "fc", "release", mechanism="rate")
                send()
            else:
                # Wait until the oldest history entry leaves the window.
                if not held:
                    entry[3] = True
                    self.sends_delayed += 1
                    if obs.enabled:
                        obs.spans.event(
                            trace_id, "fc", "hold",
                            mechanism="rate", size=size,
                        )
                next_free = self._history[0][0] + self.window
                self._arm_timer(next_free)
                return

    def _arm_timer(self, when: float) -> None:
        if self._timer is not None and not self._timer.cancelled:
            if self._timer.time <= when:
                return
            self._timer.cancel()
        # A hair past the eviction instant so <=-comparisons resolve.
        self._timer = self.context.loop.call_at(
            max(when, self.context.now) + 1e-9, self._timer_fired
        )

    def _timer_fired(self) -> None:
        self._timer = None
        self._drain()

    @property
    def queued(self) -> int:
        return len(self._pending)


class WindowEnforcer:
    """Acknowledgement-based capacity enforcement (section 4.4).

    The window equals the RMS capacity ("flow control protocols can be
    simpler because of the fixed window size determined by RMS
    capacity").  ``acknowledge`` -- driven by flow-control acks on a
    reverse RMS or by the ST fast-ack service -- opens the window.
    "This may achieve higher maximum throughput at the cost of the
    reverse message traffic."
    """

    def __init__(self, context: SimContext, capacity: int) -> None:
        if capacity <= 0:
            raise ParameterError(f"window capacity must be > 0: {capacity}")
        self.context = context
        self.capacity = capacity
        self.outstanding = 0
        self._pending: Deque[list] = deque()  # [size, send, trace_id, held]
        self.sends_delayed = 0
        context.obs.metrics.watch(self, _FAMILIES, mechanism="window")

    def request(
        self,
        size: int,
        send: Callable[[], None],
        trace_id: Optional[int] = None,
    ) -> None:
        """Run ``send`` once the window has ``size`` bytes free."""
        if size > self.capacity:
            raise ParameterError(
                f"message of {size}B exceeds window capacity {self.capacity}B"
            )
        self._pending.append([size, send, trace_id, False])
        self._drain()

    def try_admit(self, size: int, now: Optional[float] = None) -> bool:
        """Admit immediately or decline without queueing (no-alloc fast
        path of :meth:`request`; ``now`` is accepted for interface
        uniformity with the rate enforcer)."""
        if self._pending:
            return False
        if size > self.capacity:
            raise ParameterError(
                f"message of {size}B exceeds window capacity {self.capacity}B"
            )
        if self.outstanding + size > self.capacity:
            return False
        self.outstanding += size
        return True

    def acknowledge(self, size: int) -> None:
        """Credit ``size`` delivered bytes back to the window."""
        self.outstanding = max(0, self.outstanding - size)
        self._drain()

    def _drain(self) -> None:
        obs = self.context.obs
        progressed = True
        while self._pending and progressed:
            entry = self._pending[0]
            size, send, trace_id, held = entry
            if self.outstanding + size <= self.capacity:
                self._pending.popleft()
                self.outstanding += size
                if held and obs.enabled:
                    obs.spans.event(trace_id, "fc", "release", mechanism="window")
                send()
            else:
                if not held:
                    entry[3] = True
                    self.sends_delayed += 1
                    if obs.enabled:
                        obs.spans.event(
                            trace_id, "fc", "hold",
                            mechanism="window", size=size,
                        )
                progressed = False

    @property
    def queued(self) -> int:
        return len(self._pending)


class ReceiverCredit:
    """Receiver flow control: a credit window over the receive buffer.

    The receiver grants ``buffer_bytes`` of credit; the sender consumes
    credit per message and stalls at zero; the receiving protocol
    returns credit as the receiver consumes data ("the protocol must
    stop sending data when the limit of the receive buffer is reached").
    Credit updates ride whatever ack path the enclosing protocol uses.
    """

    def __init__(
        self, buffer_bytes: int, context: Optional[SimContext] = None
    ) -> None:
        if buffer_bytes <= 0:
            raise ParameterError(f"receive buffer must be > 0: {buffer_bytes}")
        self.buffer_bytes = buffer_bytes
        self.available = buffer_bytes
        self.context = context  # optional: only needed for observability
        self._pending: Deque[list] = deque()  # [size, send, trace_id, held]
        self.stalls = 0
        if context is not None:
            context.obs.metrics.watch(
                self, _CREDIT_FAMILIES, mechanism="credit"
            )

    def request(
        self,
        size: int,
        send: Callable[[], None],
        trace_id: Optional[int] = None,
    ) -> None:
        if size > self.buffer_bytes:
            raise ParameterError(
                f"message of {size}B exceeds receive buffer {self.buffer_bytes}B"
            )
        self._pending.append([size, send, trace_id, False])
        self._drain()

    def try_admit(self, size: int, now: Optional[float] = None) -> bool:
        """Consume credit immediately or decline without queueing (the
        no-alloc fast path of :meth:`request`)."""
        if self._pending:
            return False
        if size > self.buffer_bytes:
            raise ParameterError(
                f"message of {size}B exceeds receive buffer {self.buffer_bytes}B"
            )
        if size > self.available:
            return False
        self.available -= size
        return True

    def grant(self, size: int) -> None:
        """The receiver consumed ``size`` bytes; replenish credit."""
        self.available = min(self.buffer_bytes, self.available + size)
        self._drain()

    def _drain(self) -> None:
        obs = self.context.obs if self.context is not None else None
        while self._pending:
            entry = self._pending[0]
            size, send, trace_id, held = entry
            if size <= self.available:
                self._pending.popleft()
                self.available -= size
                if held and obs is not None and obs.enabled:
                    obs.spans.event(trace_id, "fc", "release", mechanism="credit")
                send()
            else:
                if not held:
                    entry[3] = True
                    self.stalls += 1
                    if obs is not None and obs.enabled:
                        obs.spans.event(
                            trace_id, "fc", "hold",
                            mechanism="credit", size=size,
                        )
                return

    @property
    def queued(self) -> int:
        return len(self._pending)
