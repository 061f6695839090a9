"""Messages: untyped byte arrays with optional source/target labels.

Section 2 of the paper: "Messages are untyped byte arrays.  They may in
addition have source and target labels identifying the sender and
receiver."  This module also defines the label type used for addressing
throughout the stack (the paper omits addressing details; we use a flat
``host:port`` namespace).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from repro.errors import ParameterError

__all__ = ["Label", "Message", "fast_message"]

_message_ids = itertools.count(1)


@dataclass(frozen=True, order=True)
class Label:
    """A flat address: a host name plus a port name within the host."""

    host: str
    port: str = "default"

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


@dataclass
class Message:
    """One RMS message.

    ``payload`` is the untyped byte array.  ``source`` and ``target`` are
    the optional labels of section 2.  ``headers`` carries protocol
    metadata added by layers (sequence numbers, fragment offsets, MACs);
    header bytes are accounted by ``wire_size`` so overhead experiments
    are honest.  ``send_time`` and ``deliver_time`` are stamped by the
    providers to support delay measurement; ``deadline`` is the
    transmission deadline used for queue ordering (section 4.3.1).
    ``trace_id`` ties the message to its observability span (assigned on
    first send when observability is enabled); like the timestamps it is
    measurement metadata, not accounted wire bytes.
    """

    payload: Union[bytes, memoryview]
    source: Optional[Label] = None
    target: Optional[Label] = None
    headers: Dict[str, Any] = field(default_factory=dict)
    send_time: Optional[float] = None
    deliver_time: Optional[float] = None
    deadline: Optional[float] = None
    trace_id: Optional[int] = None
    message_id: int = field(default_factory=lambda: next(_message_ids))

    def __post_init__(self) -> None:
        payload = self.payload
        if type(payload) is bytes:
            return
        if isinstance(payload, memoryview):
            # Zero-copy fast path: the view is adopted as-is.  Ownership
            # rule (DESIGN.md "Performance"): the sender must not mutate
            # the underlying buffer until the message is delivered; the
            # stack materializes to bytes at the client-delivery
            # boundary and wherever a security transform runs.
            return
        if isinstance(payload, bytearray):
            # Mutable buffers are snapshotted so callers may reuse them.
            self.payload = bytes(payload)
            return
        raise ParameterError(
            f"message payload must be bytes, got {type(payload).__name__}"
        )

    @property
    def size(self) -> int:
        """Payload size in bytes."""
        return len(self.payload)

    #: Accounted bytes per header entry; a crude but consistent model of
    #: header overhead so piggybacking/multiplexing gains are measurable.
    HEADER_FIELD_BYTES = 4

    @property
    def header_size(self) -> int:
        """Accounted header bytes: labels plus per-field overhead."""
        size = self.HEADER_FIELD_BYTES * len(self.headers)
        if self.source is not None:
            size += 8
        if self.target is not None:
            size += 8
        return size

    @property
    def wire_size(self) -> int:
        """Total accounted bytes on the wire."""
        return self.size + self.header_size

    @property
    def delay(self) -> Optional[float]:
        """Measured delay if both timestamps are present."""
        if self.send_time is None or self.deliver_time is None:
            return None
        return self.deliver_time - self.send_time

    def __repr__(self) -> str:
        src = str(self.source) if self.source else "-"
        dst = str(self.target) if self.target else "-"
        return (
            f"<Message #{self.message_id} {src}->{dst} {self.size}B "
            f"hdr={sorted(self.headers)}>"
        )


def fast_message(
    payload: Union[bytes, memoryview],
    source: Optional[Label],
    target: Optional[Label],
    send_time: Optional[float] = None,
    trace_id: Optional[int] = None,
) -> Message:
    """A :class:`Message` built without the dataclass ``__init__``.

    For hot paths that construct two messages per delivered client
    message.  The caller guarantees ``payload`` is ``bytes`` or an
    adopted ``memoryview`` (the ``__post_init__`` validation would be a
    no-op), so the result is indistinguishable from ``Message(...)``.
    """
    message = Message.__new__(Message)
    message.payload = payload
    message.source = source
    message.target = target
    message.headers = {}
    message.send_time = send_time
    message.deliver_time = None
    message.deadline = None
    message.trace_id = trace_id
    message.message_id = next(_message_ids)
    return message
