"""Authentication: message authentication codes.

The RMS authentication parameter guarantees that "impersonation
(delivery of a message with incorrect source label) is impossible"
(section 2.1).  The ST realizes this with a keyed MAC over the message
and its source label; a toy CBC-MAC built on the XTEA block cipher.
"""

from __future__ import annotations

import hmac
import struct

from repro.errors import SecurityError
from repro.security.cipher import _check_key, _encrypt_words

__all__ = ["compute_mac", "verify_mac", "MAC_BYTES"]

#: Width of the MAC tag carried in message headers: the one definition,
#: shared by the control channel here and every data-path provider.
MAC_BYTES = 8

_MASK32 = 0xFFFFFFFF


def compute_mac(key: bytes, data: bytes, context: bytes = b"") -> bytes:
    """An 8-byte CBC-MAC tag over ``context || len || data``.

    The length prefix prevents trivial extension ambiguity between the
    context (e.g. the source label) and the payload.  ``data`` may be
    any bytes-like object: the material is assembled with one ``join``
    (no concatenation chain), so ``memoryview`` payloads from the
    zero-copy datapath are read without an intermediate ``bytes()``.
    """
    material = b"".join((context, struct.pack(">I", len(data)), data))
    if len(material) % 8:
        material += b"\x00" * (8 - len(material) % 8)
    # CBC chaining on 64-bit integers: the key schedule is unpacked once
    # and the XOR mixes whole blocks, with byte-identical tags to the
    # original per-byte implementation.
    k = _check_key(key)
    state = 0
    from_bytes = int.from_bytes
    for offset in range(0, len(material), 8):
        mixed = state ^ from_bytes(material[offset : offset + 8], "big")
        v0, v1 = _encrypt_words(k, mixed >> 32, mixed & _MASK32)
        state = (v0 << 32) | v1
    return state.to_bytes(8, "big")


def verify_mac(key: bytes, data: bytes, tag: bytes, context: bytes = b"") -> bool:
    """Check a tag; returns False rather than raising on mismatch."""
    if len(tag) != MAC_BYTES:
        raise SecurityError(f"MAC tag must be {MAC_BYTES} bytes, got {len(tag)}")
    return hmac.compare_digest(compute_mac(key, data, context), tag)
