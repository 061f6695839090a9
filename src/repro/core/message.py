"""Messages: untyped byte arrays with optional source/target labels.

Section 2 of the paper: "Messages are untyped byte arrays.  They may in
addition have source and target labels identifying the sender and
receiver."  This module also defines the label type used for addressing
throughout the stack (the paper omits addressing details; we use a flat
``host:port`` namespace).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import ParameterError

__all__ = ["Label", "Message"]

_message_ids = itertools.count(1)
_next_message_id = _message_ids.__next__

#: Accounted bytes per label on the wire.
LABEL_BYTES = 8


@dataclass(frozen=True, order=True)
class Label:
    """A flat address: a host name plus a port name within the host."""

    host: str
    port: str = "default"

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


class Message:
    """One RMS message.

    ``payload`` is the untyped byte array: ``bytes`` and ``memoryview``
    are adopted as they are, a ``bytearray`` is copied so the caller may
    reuse it, anything else raises :class:`ParameterError`.  A view is
    the zero-copy path (DESIGN.md "Performance"): the sender must not
    mutate the underlying buffer until the message is delivered; the
    stack materializes bytes at the client-delivery boundary and wherever
    a security transform runs.  ``source`` and ``target`` are the
    optional labels of section 2.  ``send_time`` and ``deliver_time`` are
    stamped by the providers to measure delay; ``deadline`` is the
    transmission deadline used for queue ordering (section 4.3.1).
    ``trace_id`` ties the message to its observability span (assigned on
    first send when observability is enabled); like the timestamps it is
    measurement metadata, not accounted wire bytes.
    """

    __slots__ = ("payload", "source", "target", "send_time", "deliver_time",
                 "deadline", "trace_id", "message_id")

    def __init__(
        self,
        payload: Union[bytes, memoryview],
        source: Optional[Label] = None,
        target: Optional[Label] = None,
        send_time: Optional[float] = None,
        trace_id: Optional[int] = None,
    ) -> None:
        if type(payload) is not bytes and not isinstance(payload, memoryview):
            if not isinstance(payload, bytearray):
                raise ParameterError(
                    f"message payload must be bytes, got {type(payload).__name__}"
                )
            payload = bytes(payload)
        self.payload = payload
        self.source = source
        self.target = target
        self.send_time = send_time
        self.deliver_time = None
        self.deadline = None
        self.trace_id = trace_id
        self.message_id = _next_message_id()

    @property
    def size(self) -> int:
        """Payload size in bytes."""
        return len(self.payload)

    @property
    def wire_size(self) -> int:
        """Total accounted bytes on the wire: payload plus labels."""
        size = len(self.payload)
        if self.source is not None:
            size += LABEL_BYTES
        if self.target is not None:
            size += LABEL_BYTES
        return size

    @property
    def delay(self) -> Optional[float]:
        """Measured delay if both timestamps are present."""
        if self.send_time is None or self.deliver_time is None:
            return None
        return self.deliver_time - self.send_time

    def __repr__(self) -> str:
        src = str(self.source) if self.source else "-"
        dst = str(self.target) if self.target else "-"
        return f"<Message #{self.message_id} {src}->{dst} {self.size}B>"
