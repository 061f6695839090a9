"""Frames: what actually travels on simulated network media.

A frame wraps one network-level RMS message (or a network-maintenance
payload) with link framing overhead and routing fields.  Bit errors
corrupt the payload bytes of the wrapped message; framing and header
fields are assumed protected by link hardware (a simplification noted
in DESIGN.md).  A frame is built for one journey and never reused, so
whoever sees one -- a drop listener, an Ethernet sniffer -- may keep it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.routing import RoutePlan

__all__ = ["Frame", "FRAME_OVERHEAD_BYTES"]

#: Link framing overhead accounted per frame (preamble, addresses, FCS).
FRAME_OVERHEAD_BYTES = 18

_frame_ids = itertools.count(1)


@dataclass
class Frame:
    """One link-level frame."""

    message: Message
    src_host: str
    dst_host: str
    rms_id: int  # network RMS the frame belongs to (0 = maintenance)
    kind: str = "data"  # "data" | "setup" | "teardown" | "quench"
    deadline: float = 0.0
    #: The compiled route plan the frame follows on a routed network
    #: (``None`` on a shared segment) and the index of the plan's link
    #: it is on.  The forwarding engine reads both at each hop, so a
    #: plan holds no per-hop state.
    plan: Optional["RoutePlan"] = None
    hop: int = 0
    corrupted: bool = False
    frame_id: int = field(default_factory=_frame_ids.__next__)
    #: Per-frame drop callback, set at transmit time by the forwarding
    #: engine: which stream to notify on a drop rides on the frame.
    on_drop: Optional[Callable[["Frame", str], None]] = None

    # Cached wire size (unannotated: a plain class attribute, not a
    # dataclass field).  Valid because nothing resizes a message once a
    # frame wraps it -- bit corruption preserves length.
    _size = None

    @property
    def size(self) -> int:
        """Accounted bytes on the wire."""
        size = self._size
        if size is None:
            size = self._size = self.message.wire_size + FRAME_OVERHEAD_BYTES
        return size

    def corrupt_payload(self, bit_index: int) -> None:
        """Flip one payload bit in place (the message keeps its size)."""
        payload = bytearray(self.message.payload)
        if not payload:
            self.corrupted = True
            return
        byte_index = (bit_index // 8) % len(payload)
        payload[byte_index] ^= 1 << (bit_index % 8)
        self.message.payload = bytes(payload)
        self.corrupted = True

    def __repr__(self) -> str:
        return (
            f"<Frame #{self.frame_id} {self.kind} {self.src_host}->"
            f"{self.dst_host} rms={self.rms_id} {self.size}B>"
        )
