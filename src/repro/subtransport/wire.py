"""Wire formats of the subtransport layer.

ST client messages travel inside network RMS messages as *bundles*: a
count followed by length-prefixed components, each with a subheader
carrying the ST RMS id, sequence number, flags, a send timestamp (for
delay accounting) and, for fragments, reassembly fields.  Keeping the
encoding in real bytes makes overhead accounting honest -- piggybacking
amortizes the per-network-message overhead (frame + headers) across
components, while each component still pays its subheader.

Control-channel messages are JSON objects prefixed with a one-byte
format tag; their payloads are small and infrequent, so encoding
elegance matters less than debuggability.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

from repro.errors import TransportError

__all__ = [
    "BundleEntry",
    "encode_bundle",
    "encode_single",
    "decode_bundle",
    "decode_bundle_flat",
    "encode_control",
    "decode_control",
    "control_mac_material",
    "SUBHEADER_BYTES",
    "FRAG_HEADER_BYTES",
    "FLAG_FRAGMENT",
    "FLAG_ENCRYPTED",
    "FLAG_MAC",
    "FLAG_CHECKSUM",
]

#: Per-component subheader: st_rms_id(4) seq(4) flags(2) length(4) ts(8).
SUBHEADER_BYTES = 22
_SUBHEADER = struct.Struct(">IIHId")

#: Fragment prefix inside the component body: offset(4) total(4).
FRAG_HEADER_BYTES = 8
_FRAG_HEADER = struct.Struct(">II")

_BUNDLE_COUNT = struct.Struct(">H")

FLAG_FRAGMENT = 0x0001
FLAG_ENCRYPTED = 0x0002
FLAG_MAC = 0x0004
FLAG_CHECKSUM = 0x0008


@dataclass
class BundleEntry:
    """One ST client message (or fragment) inside a bundle."""

    st_rms_id: int
    seq: int
    flags: int
    #: Component bytes.  May be a ``memoryview`` slice of the original
    #: client payload (send side) or of the received bundle (receive
    #: side) -- the zero-copy fast path.  Materialized to ``bytes`` only
    #: where a security transform runs or at client delivery.
    payload: Union[bytes, memoryview]
    send_time: float
    frag_offset: int = 0
    frag_total: int = 0  # total original-message bytes, 0 if not a fragment
    #: Observability span id.  In-process metadata only -- never encoded
    #: (the receiving ST rejoins traces via the tracer's wire side table,
    #: keyed by ``(st_rms_id, seq)``), so wire accounting is unchanged.
    trace_id: Optional[int] = None

    @property
    def is_fragment(self) -> bool:
        return bool(self.flags & FLAG_FRAGMENT)

    @property
    def encoded_size(self) -> int:
        size = SUBHEADER_BYTES + len(self.payload)
        if self.flags & FLAG_FRAGMENT:
            size += FRAG_HEADER_BYTES
        return size


def encode_bundle(entries: List[BundleEntry]) -> bytes:
    """Serialize components into one network-message payload."""
    if not entries:
        raise TransportError("cannot encode an empty bundle")
    if len(entries) > 0xFFFF:
        raise TransportError(f"bundle too large: {len(entries)} components")
    parts = [_BUNDLE_COUNT.pack(len(entries))]
    for entry in entries:
        body = entry.payload
        # The fragment prefix is appended as its own part instead of
        # being concatenated onto the body: ``bytes.join`` accepts
        # memoryviews, so a fragment slice of the client payload crosses
        # the encoder without an intermediate copy.
        if entry.flags & FLAG_FRAGMENT:
            parts.append(
                _SUBHEADER.pack(
                    entry.st_rms_id, entry.seq, entry.flags,
                    len(body) + FRAG_HEADER_BYTES, entry.send_time,
                )
            )
            parts.append(_FRAG_HEADER.pack(entry.frag_offset, entry.frag_total))
        else:
            parts.append(
                _SUBHEADER.pack(
                    entry.st_rms_id, entry.seq, entry.flags, len(body),
                    entry.send_time,
                )
            )
        parts.append(body)
    return b"".join(parts)


#: Precomputed count header of the dominant one-component bundle.
_SINGLE_COUNT = _BUNDLE_COUNT.pack(1)


def encode_single(entry: BundleEntry) -> bytes:
    """``encode_bundle([entry])``, specialized for one non-fragment
    component (the dominant case once a message overflows or bypasses
    the piggyback queue).  Produces bit-identical bytes."""
    if entry.flags & FLAG_FRAGMENT:
        return encode_bundle([entry])
    body = entry.payload
    return b"".join((
        _SINGLE_COUNT,
        _SUBHEADER.pack(
            entry.st_rms_id, entry.seq, entry.flags, len(body),
            entry.send_time,
        ),
        body,
    ))


def decode_bundle_flat(data: bytes) -> List[tuple]:
    """Parse a bundle payload; raises :class:`TransportError` if mangled.

    Returns one ``(st_rms_id, seq, flags, payload, send_time,
    frag_offset, frag_total)`` tuple per component -- the field order of
    :class:`BundleEntry`, which the ST receive path iterates without
    building the objects.  Payloads are ``memoryview`` slices of
    ``data`` (zero-copy); callers that retain one past the lifetime of
    the network message must materialize it with ``bytes()``.
    """
    total = len(data)
    if total < _BUNDLE_COUNT.size:
        raise TransportError("bundle truncated: no count")
    (count,) = _BUNDLE_COUNT.unpack_from(data, 0)
    view = memoryview(data)
    offset = _BUNDLE_COUNT.size
    entries: List[tuple] = []
    append = entries.append
    unpack_subheader = _SUBHEADER.unpack_from
    for _ in range(count):
        if offset + SUBHEADER_BYTES > total:
            raise TransportError("bundle truncated: bad subheader")
        st_rms_id, seq, flags, length, send_time = unpack_subheader(data, offset)
        offset += SUBHEADER_BYTES
        if offset + length > total:
            raise TransportError("bundle truncated: bad component length")
        body = view[offset : offset + length]
        offset += length
        frag_offset = 0
        frag_total = 0
        if flags & FLAG_FRAGMENT:
            if len(body) < FRAG_HEADER_BYTES:
                raise TransportError("fragment truncated")
            frag_offset, frag_total = _FRAG_HEADER.unpack_from(body, 0)
            body = body[FRAG_HEADER_BYTES:]
        append((st_rms_id, seq, flags, body, send_time, frag_offset, frag_total))
    if offset != total:
        raise TransportError("bundle has trailing garbage")
    return entries


def decode_bundle(data: bytes) -> List[BundleEntry]:
    """:func:`decode_bundle_flat` as :class:`BundleEntry` objects."""
    return [BundleEntry(*fields) for fields in decode_bundle_flat(data)]


_CONTROL_TAG = b"\x01"


def encode_control(fields: Dict[str, Any], mac: Optional[bytes] = None) -> bytes:
    """Serialize a control message; an optional MAC tag is appended."""
    body = _CONTROL_TAG + json.dumps(fields, separators=(",", ":")).encode("utf-8")
    if mac is not None:
        return body + b"\x02" + mac
    return body


def decode_control(data: bytes) -> Dict[str, Any]:
    """Parse a control message; the MAC (if any) lands under ``"_mac"``."""
    if not data.startswith(_CONTROL_TAG):
        raise TransportError("not a control message")
    body = data[1:]
    mac: Optional[bytes] = None
    # The MAC is a fixed 8 bytes after a 0x02 separator; JSON bodies never
    # contain raw control characters, so a positional check is unambiguous.
    if len(body) >= 9 and body[-9:-8] == b"\x02":
        mac = body[-8:]
        body = body[:-9]
    try:
        fields = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TransportError(f"mangled control message: {error}") from error
    if not isinstance(fields, dict):
        raise TransportError("control message is not a JSON object")
    # "_mac" is reserved for the positional tag: whatever the body says
    # under that key is the sender's to forge, so it never reaches the
    # verifier.  A frame without a tag decodes without the key.
    fields.pop("_mac", None)
    if mac is not None:
        fields["_mac"] = mac.hex()
    return fields


def control_mac_material(fields: Dict[str, Any]) -> bytes:
    """Canonical bytes a control-message MAC covers."""
    clean = {key: value for key, value in fields.items() if key != "_mac"}
    return json.dumps(clean, separators=(",", ":"), sort_keys=True).encode("utf-8")
