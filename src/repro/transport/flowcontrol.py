"""Flow control and RMS capacity enforcement (paper section 4.4).

The paper factors buffers into three groups -- (1) between sending
process and send protocol, (2) inside the network, (3) between receive
protocol and receiver -- and treats them separately:

- *RMS capacity enforcement* protects group (2).  It is a **client**
  responsibility; the provider neither detects nor blocks violations.
  Two mechanisms: rate-based ("using timers, the sender ensures that
  during any time period of duration A + CB, the number of bytes sent
  does not exceed C"), the gate an ST RMS's client paces itself with
  (E3, E11), and acknowledgement-based (a byte window opened by
  flow-control acknowledgements), the capacity gate of a stream.
- *Receiver flow control* protects group (3): the protocol stops sending
  when the receive buffer limit is reached.
- *Sender flow control* protects group (1): a flow-controlled local IPC
  port (see :class:`repro.sim.ports.FlowControlledPort`).

Each mechanism here is independent so the Figure-5 configurations can be
composed -- or omitted, which is the paper's point ("in cases where no
flow control is necessary, performance optimizations may be possible").

They are one gate and three rules.  :class:`_Gate` is a first-come-
first-served line of sends waiting for room, entered one way
(``request``, which sends inside the call when there is room and nobody
waits).  A rule says what room is and what returns it: the bytes sent in
the trailing window and a timer, the unacknowledged bytes and
``acknowledge``, the receive buffer's free bytes and ``grant``.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

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


class _Gate:
    """The line of sends waiting at one flow-control mechanism.

    A subclass supplies the rule: :meth:`_claim` takes room for ``size``
    bytes if there is room now, and whatever returns room -- an
    acknowledgement, a grant, a timer -- calls :meth:`_drain`.
    """

    #: The ``mechanism`` label of the exported family and the fc spans.
    mechanism = ""
    #: What the limit is called when a request exceeds it.
    _limit_name = ""

    def __init__(self, context: SimContext, limit: int) -> None:
        self.context = context
        self._limit = limit
        #: Waiting sends, first come first: mutable [size, send, args,
        #: trace_id, held] records so a drain marks an item held once.
        self._pending: Deque[list] = deque()
        #: Sends found at the head of the line without room.
        self.sends_delayed = 0
        context.obs.metrics.watch(self, _FAMILIES, mechanism=self.mechanism)

    def _claim(self, size: int) -> bool:
        """Take room for ``size`` bytes now, or decline; declining a
        send that heads no line leaves no trace."""
        raise NotImplementedError

    def try_admit(self, size: int) -> bool:
        """Claim room for ``size`` bytes now, or decline without queueing.

        Succeeds iff nothing is queued ahead and the rule has room; on
        False the gate is untouched.
        """
        if size > self._limit:
            raise ParameterError(
                f"message of {size}B exceeds {self._limit_name} {self._limit}B"
            )
        return not self._pending and self._claim(size)

    def request(
        self, size: int, send: Callable[..., None], *args: Any,
        trace_id: Optional[int] = None,
    ) -> None:
        """Run ``send(*args)`` as soon as the rule allows: inside this
        call when there is room and nobody waits, else in arrival order
        when room returns."""
        if self.try_admit(size):
            send(*args)
            return
        self._pending.append([size, send, args, trace_id, False])
        self._drain()

    def _drain(self) -> None:
        pending = self._pending
        obs = self.context.obs
        while pending:
            entry = pending[0]
            size, send, args, trace_id, held = entry
            if not self._claim(size):
                if not held:
                    entry[4] = True
                    self.sends_delayed += 1
                    if obs.enabled:
                        obs.spans.event(
                            trace_id, "fc", "hold",
                            mechanism=self.mechanism, size=size,
                        )
                return
            pending.popleft()
            if held and obs.enabled:
                obs.spans.event(
                    trace_id, "fc", "release", mechanism=self.mechanism
                )
            send(*args)

    @property
    def queued(self) -> int:
        return len(self._pending)


class RateBasedEnforcer(_Gate):
    """Rate-based capacity enforcement (section 4.4).

    A strict sliding-window limiter: "using timers, the sender ensures
    that during any time period of duration A + CB, the number of bytes
    sent does not exceed C."  A send is admitted only when the bytes
    sent during the trailing window, plus its own size, stay within the
    capacity; otherwise it waits until enough history ages out.  "This
    approach is pessimistic in the sense that it assumes the maximum
    delay for all messages."
    """

    mechanism = "rate"
    _limit_name = "enforced capacity"

    def __init__(self, context: SimContext, params: RmsParams) -> None:
        if params.delay_bound.is_unbounded:
            raise ParameterError(
                "rate-based enforcement needs a finite delay bound"
            )
        super().__init__(context, params.capacity)
        self.capacity = params.capacity
        self.window = params.delay_bound.a + params.capacity * params.delay_bound.b
        if self.window <= 0:
            raise ParameterError("degenerate enforcement window")
        #: Average admission rate implied by the rule, for reporting.
        self.rate = params.capacity / self.window
        self._history: Deque[Tuple[float, int]] = deque()  # (send time, size)
        self._in_window = 0
        self._timer: Optional[EventHandle] = None

    def _claim(self, size: int) -> bool:
        now = self.context.now
        horizon = now - self.window
        history = self._history
        while history and history[0][0] <= horizon:
            self._in_window -= history.popleft()[1]
        if self._in_window + size > self.capacity:
            if self._pending:
                self._look_again(history[0][0] + self.window)
            return False
        history.append((now, size))
        self._in_window += size
        return True

    def _look_again(self, when: float) -> None:
        """The head of the line waits for the oldest history entry to
        leave the window: drain a hair past that instant, so that
        <=-comparisons resolve."""
        if self._timer is not None and not self._timer.cancelled:
            if self._timer.time <= when:
                return
            self._timer.cancel()
        self._timer = self.context.loop.call_at(
            max(when, self.context.now) + 1e-9, self._timer_fired
        )

    def _timer_fired(self) -> None:
        self._timer = None
        self._drain()


class WindowEnforcer(_Gate):
    """Acknowledgement-based capacity enforcement (section 4.4).

    The window equals the RMS capacity ("flow control protocols can be
    simpler because of the fixed window size determined by RMS
    capacity").  ``acknowledge`` -- driven by flow-control acks on a
    reverse RMS or by the ST fast-ack service -- opens the window.
    "This may achieve higher maximum throughput at the cost of the
    reverse message traffic."
    """

    mechanism = "window"
    _limit_name = "window capacity"

    def __init__(self, context: SimContext, capacity: int) -> None:
        if capacity <= 0:
            raise ParameterError(f"window capacity must be > 0: {capacity}")
        super().__init__(context, capacity)
        self.capacity = capacity
        self.outstanding = 0

    def _claim(self, size: int) -> bool:
        if self.outstanding + size > self.capacity:
            return False
        self.outstanding += size
        return True

    def acknowledge(self, size: int) -> None:
        """Credit ``size`` delivered bytes back to the window."""
        self.outstanding = max(0, self.outstanding - size)
        self._drain()


class ReceiverCredit(_Gate):
    """Receiver flow control: a credit window over the receive buffer.

    The receiver grants ``buffer_bytes`` of credit; the sender consumes
    credit per message and stalls at zero; the receiving protocol
    returns credit as the receiver consumes data ("the protocol must
    stop sending data when the limit of the receive buffer is reached").
    Credit updates ride whatever ack path the enclosing protocol uses.
    """

    mechanism = "credit"
    _limit_name = "receive buffer"

    def __init__(self, context: SimContext, buffer_bytes: int) -> None:
        if buffer_bytes <= 0:
            raise ParameterError(f"receive buffer must be > 0: {buffer_bytes}")
        super().__init__(context, buffer_bytes)
        self.buffer_bytes = buffer_bytes
        self.available = buffer_bytes

    def _claim(self, size: int) -> bool:
        if size > self.available:
            return False
        self.available -= size
        return True

    def grant(self, size: int) -> None:
        """The receiver consumed ``size`` bytes; replenish credit."""
        self.available = min(self.buffer_bytes, self.available + size)
        self._drain()
