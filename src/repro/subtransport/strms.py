"""ST-level Real-Time Message Streams (sections 3.2 and 3.4).

An :class:`StRms` is the RMS the subtransport layer provides to its
clients (transport protocols and kernel services).  Its delay bound
covers ST send processing, piggyback queueing, the underlying network
RMS, and ST receive processing.  Sending hands the message to the
sender's subtransport layer; delivery happens on a port of the receiving
host.

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
from repro.core.rms import Rms, RmsLevel
from repro.sim.context import SimContext
from repro.sim.events import Signal
from repro.sim.ports import Port
from repro.subtransport.security import SecurityContext, SecurityPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.subtransport.mux import MuxBinding
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
        # Resolved once: the CPU stage names and, per message size, the
        # cost of one protocol stage (the send and the receive stage run
        # the same plan, so both read this memo) and the send-stage and
        # transmission deadlines after arrival (``send_deadlines``).
        # The memos hold what the pure per-size functions return, so a
        # hit is the very float a per-message call would compute.
        self._send_stage_name = f"st/send:{self.rms_id}"
        self._recv_stage_name = f"st/recv:{self.rms_id}"
        self._cost_cache: Dict[int, float] = {}
        self._deadline_cache: Dict[int, Tuple[float, float]] = {}
        #: Fired with the acknowledged sequence number when the receiving
        #: ST's fast-acknowledgement service reports delivery (3.2).
        self.on_fast_ack: Signal = Signal(context.loop)
        StRms.registry[self.rms_id] = self

    def _transmit(self, message: Message) -> None:
        self.sender_st._st_send(self, message)

    def close(self) -> None:
        """Tear the stream down via the owning subtransport layer."""
        self.sender_st.close_st_rms(self)
