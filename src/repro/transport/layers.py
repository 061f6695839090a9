"""Upper RMS levels: sub-user and user RMSs (paper section 3.4, Figure 3).

"*Sub-user RMS*: this spans communication protocol processes.  Message
sending and delivery are defined as the moments when messages arrive
from, or are passed to, user processes.  The delay bounds include
protocol processing time, and their enforcement includes deadline-based
process scheduling."

"*User-level RMS*: this spans user processes ... end-process CPU time is
included in the RMS delay.  Scheduling of these user processes must be
deadline-based."

:class:`LayeredRms` wraps a lower-level RMS and adds a CPU processing
stage on each side, with the stage deadlines derived from the level's
delay bound as section 4.1 prescribes ("when an upper-level RMS is
created, its total delay is divided among its various stages").
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.core.message import Message
from repro.core.params import DelayBound, RmsParams
from repro.core.rms import Rms, RmsLevel, RmsState
from repro.errors import ParameterError
from repro.netsim.topology import Host
from repro.sched.cpu import PER_MESSAGE
from repro.sim.context import SimContext

__all__ = ["LayeredRms", "SubUserRms", "UserRms"]

_TS = struct.Struct(">d")
#: CPU seconds per byte of the processing a level adds on each side, on
#: top of the CPU's fixed per-message cost.
STAGE_PER_BYTE = 20e-9


class LayeredRms(Rms):
    """An RMS adding per-side CPU stages on top of a lower RMS.

    Each stage charges ``PER_MESSAGE + STAGE_PER_BYTE * size`` of CPU
    time, the protocol or user processing the level accounts for.  The
    wrapped RMS keeps its own delay bound; this level's bound is the
    wrapped bound plus the two stage allowances.
    """

    level = RmsLevel.SUBUSER

    def __init__(
        self,
        context: SimContext,
        inner: Rms,
        send_host: Host,
        recv_host: Host,
        stage_allowance: float = 5e-3,
        name: Optional[str] = None,
    ) -> None:
        if stage_allowance <= 0:
            raise ParameterError("stage allowance must be > 0")
        inner_bound = inner.params.delay_bound
        if inner_bound.is_unbounded:
            bound = DelayBound.unbounded()
        else:
            bound = DelayBound(inner_bound.a + 2 * stage_allowance, inner_bound.b)
        params = inner.params.with_(delay_bound=bound)
        super().__init__(
            context,
            params,
            inner.sender,
            inner.receiver,
            name=name or f"{inner.name}+{self.level.name.lower()}",
        )
        self.inner = inner
        self.send_host = send_host
        self.recv_host = recv_host
        self.stage_allowance = stage_allowance
        inner.port.set_handler(self._inner_delivered)
        inner.on_failure.listen(lambda rms, reason: self.fail(reason))

    def _transmit(self, message: Message) -> None:
        deadline = self.context.now + self.stage_allowance
        self.send_host.cpu.submit(
            f"{self.level.name.lower()}/send:{self.rms_id}",
            PER_MESSAGE + STAGE_PER_BYTE * message.size,
            deadline,
            self._forward,
            (message,),
        )

    def _forward(self, message: Message) -> None:
        if self.state is not RmsState.OPEN or not self.inner.is_open:
            self._drop(message, "lower RMS unavailable")
            return
        # Carry this level's send timestamp through the lower levels so
        # the measured delay includes the send-side CPU stage: an 8-byte
        # timestamp prefix, stripped again in _finish.
        stamped = _TS.pack(message.send_time or self.context.now) + message.payload
        self.inner.send(stamped)

    def _inner_delivered(self, inner_message: Message) -> None:
        deadline = self.context.now + self.stage_allowance
        self.recv_host.cpu.submit(
            f"{self.level.name.lower()}/recv:{self.rms_id}",
            PER_MESSAGE + STAGE_PER_BYTE * inner_message.size,
            deadline,
            self._finish,
            (inner_message,),
        )

    def _finish(self, inner_message: Message) -> None:
        if self.state is not RmsState.OPEN:
            return
        payload = inner_message.payload
        if len(payload) < _TS.size:
            self._drop(inner_message, "mangled level header")
            return
        (send_time,) = _TS.unpack_from(payload, 0)
        message = Message(
            payload[_TS.size :], source=self.sender, target=self.receiver
        )
        message.send_time = send_time
        self._deliver(message)

    def delete(self) -> None:
        super().delete()
        self.inner.delete()


class SubUserRms(LayeredRms):
    """Figure-3 sub-user RMS: adds protocol-process stages."""

    level = RmsLevel.SUBUSER


class UserRms(LayeredRms):
    """Figure-3 user-level RMS: adds user-process stages on a sub-user RMS."""

    level = RmsLevel.USER
