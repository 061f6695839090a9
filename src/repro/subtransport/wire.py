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
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import TransportError

__all__ = [
    "Component",
    "encode_bundle",
    "decode_bundle",
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

#: One ST client message (or fragment) inside a bundle:
#: ``(st_rms_id, seq, flags, payload, send_time, frag_offset,
#: frag_total)``.  ``frag_total`` is the whole message's bytes, 0 (and
#: ``frag_offset`` 0) when the component is not a fragment.  The payload
#: may be a ``memoryview`` slice of the client payload (send side) or of
#: the received bundle (receive side), materialized to ``bytes`` only
#: where a security transform runs or at client delivery.
Component = Tuple[int, int, int, Union[bytes, memoryview], float, int, int]


def encode_bundle(components: List[Component]) -> bytes:
    """Serialize components into one network-message payload."""
    if not components:
        raise TransportError("cannot encode an empty bundle")
    if len(components) > 0xFFFF:
        raise TransportError(f"bundle too large: {len(components)} components")
    parts = [_BUNDLE_COUNT.pack(len(components))]
    append = parts.append
    pack_subheader = _SUBHEADER.pack
    for st_rms_id, seq, flags, body, send_time, frag_offset, frag_total in components:
        # The fragment prefix is appended as its own part instead of
        # being concatenated onto the body: ``bytes.join`` accepts
        # memoryviews, so a fragment slice of the client payload crosses
        # the encoder without an intermediate copy.
        if flags & FLAG_FRAGMENT:
            append(pack_subheader(
                st_rms_id, seq, flags, len(body) + FRAG_HEADER_BYTES, send_time
            ))
            append(_FRAG_HEADER.pack(frag_offset, frag_total))
        else:
            append(pack_subheader(st_rms_id, seq, flags, len(body), send_time))
        append(body)
    return b"".join(parts)


def decode_bundle(data: bytes) -> List[Component]:
    """Parse a bundle payload; raises :class:`TransportError` if mangled.

    Returns one component tuple per component.  Payloads are
    ``memoryview`` slices of ``data`` (zero-copy); callers that retain
    one past the lifetime of the network message must materialize it
    with ``bytes()``.
    """
    total = len(data)
    if total < _BUNDLE_COUNT.size:
        raise TransportError("bundle truncated: no count")
    (count,) = _BUNDLE_COUNT.unpack_from(data, 0)
    view = memoryview(data)
    offset = _BUNDLE_COUNT.size
    components: List[Component] = []
    append = components.append
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
    return components


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
